//! R6 clean twin: the clock and the process id are injected by the
//! caller.

pub fn stamp(clock_us: u64) -> u64 {
    clock_us
}

pub fn holder(pid: u32) -> u32 {
    pid
}
