//! The bounded global journal every trace record goes into.
//!
//! Emitters build their [`Record`] outside any lock and hand it to
//! [`Journal::push`], which appends it under the journal's mutex.  When the
//! journal is full the **oldest** record is evicted (counted in
//! [`JournalStats::overwritten`]): the journal is a recency-bounded view,
//! so the newest records always win, whether or not anyone reads in
//! between.  Readers (the `/debug/trace` handler, benches, tests) take the
//! same mutex to copy records out.

use crate::trace::Record;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Counters describing journal health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Records currently buffered.
    pub len: usize,
    /// Maximum buffered records.
    pub capacity: usize,
    /// Records ever pushed into the journal.
    pub pushed: u64,
    /// Old records evicted because the journal was full.
    pub overwritten: u64,
}

#[derive(Debug)]
struct Inner {
    records: VecDeque<Record>,
    pushed: u64,
    overwritten: u64,
}

/// The bounded journal.  One global instance lives in
/// [`crate::trace`]; tests construct their own.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Journal {
    /// A journal retaining at most `capacity` records.
    pub const fn new(capacity: usize) -> Journal {
        Journal {
            capacity,
            inner: Mutex::new(Inner {
                records: VecDeque::new(),
                pushed: 0,
                overwritten: 0,
            }),
        }
    }

    /// Appends one record, evicting the oldest when the journal is full.
    /// Safe to call from any thread.
    pub fn push(&self, record: Record) {
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        if inner.records.len() >= self.capacity {
            inner.records.pop_front();
            inner.overwritten += 1;
        }
        inner.records.push_back(record);
        inner.pushed += 1;
    }

    /// (A clone of) the newest `limit` records, in push order.
    pub fn recent(&self, limit: usize) -> Vec<Record> {
        let Ok(inner) = self.inner.lock() else {
            return Vec::new();
        };
        let skip = inner.records.len().saturating_sub(limit);
        inner.records.iter().skip(skip).cloned().collect()
    }

    /// A snapshot of the journal counters.
    pub fn stats(&self) -> JournalStats {
        let Ok(inner) = self.inner.lock() else {
            return JournalStats::default();
        };
        JournalStats {
            len: inner.records.len(),
            capacity: self.capacity,
            pushed: inner.pushed,
            overwritten: inner.overwritten,
        }
    }

    /// Empties the buffered records (the counters are left as-is).
    pub fn clear(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.records.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Record, RecordKind};

    fn rec(seq: u64, thread: u64) -> Record {
        Record {
            seq,
            kind: RecordKind::Span,
            name: "j",
            thread,
            start_us: seq,
            dur_us: 1,
            fields: Vec::new(),
        }
    }

    #[test]
    fn push_bounds_the_journal_and_the_newest_records_win() {
        let journal = Journal::new(8);
        for i in 0..20 {
            journal.push(rec(i, 0));
        }
        let stats = journal.stats();
        assert_eq!(stats.pushed, 20);
        assert_eq!(stats.len, 8, "bounded at capacity");
        assert_eq!(stats.overwritten, 12, "oldest evicted");
        let recent = journal.recent(4);
        assert_eq!(
            recent.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![16, 17, 18, 19],
            "newest records survive"
        );
    }

    /// The no-loss / no-duplication contract under parallel emission: every
    /// record pushed from any thread shows up in the journal exactly once.
    #[test]
    fn parallel_emission_never_loses_or_duplicates_records() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;

        // Capacity large enough that nothing is evicted — losses would be
        // indistinguishable from overwrites otherwise.
        static JOURNAL: Journal = Journal::new((THREADS * PER_THREAD) as usize);
        static SEQ: AtomicU64 = AtomicU64::new(0);

        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        JOURNAL.push(rec(SEQ.fetch_add(1, Ordering::Relaxed), t));
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }

        let stats = JOURNAL.stats();
        assert_eq!(stats.overwritten, 0, "sized to never overwrite");
        assert_eq!(stats.pushed, THREADS * PER_THREAD, "every push counted");

        let mut seqs: Vec<u64> = JOURNAL.recent(usize::MAX).iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs.len() as u64,
            THREADS * PER_THREAD,
            "no pushed record lost"
        );
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len() as u64, THREADS * PER_THREAD, "no duplicates");
    }
}
