//! Regression tests for the global trace journal's overflow contract.
//!
//! This is its own test binary so that no parallel unit test reads or
//! clears the process-wide journal behind these tests' backs; the two
//! tests here serialise on a lock because both flip the trace mode.

use std::sync::{Mutex, MutexGuard, PoisonError};
use wi_obs::trace::{clear, JOURNAL_CAPACITY};
use wi_obs::{event, journal_stats, recent, set_mode, Mode, Record};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn field_i(record: &Record) -> Option<u64> {
    record
        .fields
        .iter()
        .find(|(k, _)| *k == "i")
        .map(|&(_, v)| v)
}

/// A writer that never reads must still leave the newest records in the
/// journal: the oldest are evicted, nothing newer is refused.
#[test]
fn newest_records_win_without_a_reader() {
    const EMITTED: u64 = 5_000;
    let _serial = serial();
    set_mode(Mode::On);
    clear();
    let before = journal_stats();
    for i in 0..EMITTED {
        event("journal.test.newest", &[("i", i)]);
    }
    let tail: Vec<u64> = recent(5).iter().filter_map(field_i).collect();
    let after = journal_stats();
    set_mode(Mode::Off);

    assert_eq!(tail, (EMITTED - 5..EMITTED).collect::<Vec<_>>());
    assert_eq!(
        after.overwritten - before.overwritten,
        EMITTED - JOURNAL_CAPACITY as u64,
        "exactly the records beyond capacity were evicted"
    );
    assert_eq!(after.len, JOURNAL_CAPACITY);
}

/// Short-lived threads leave their records behind when they exit.
#[test]
fn records_of_exited_threads_are_kept() {
    const THREADS: u64 = 64;
    let _serial = serial();
    set_mode(Mode::On);
    clear();
    for i in 0..THREADS {
        // One at a time: at most one extra thread exists at once.
        std::thread::spawn(move || event("journal.test.exited", &[("i", i)]))
            .join()
            .unwrap();
    }
    let mut seen: Vec<u64> = recent(usize::MAX)
        .iter()
        .filter(|r| r.name == "journal.test.exited")
        .filter_map(field_i)
        .collect();
    set_mode(Mode::Off);
    seen.sort_unstable();
    assert_eq!(seen, (0..THREADS).collect::<Vec<_>>());
}
