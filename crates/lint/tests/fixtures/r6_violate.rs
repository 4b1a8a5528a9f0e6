//! R6 fixture: ambient time, ambient OS access.  Linted as if it were
//! `crates/maintain/src/registry/log.rs`.

pub fn stamp() -> bool {
    let now = std::time::SystemTime::now(); //~ R6
    now.elapsed().is_ok()
}

pub fn holder() -> u32 {
    std::process::id() //~ R6
}
