//! The bounded global journal that per-thread rings drain into.
//!
//! Producers never touch the journal: they push into their own SPSC
//! [`Ring`].  Readers (the `/debug/trace` handler, the
//! bench drainer) call [`Journal::drain`], which — under the journal's own
//! mutex, making it the single consumer every ring requires — moves all
//! pending ring records into one bounded `VecDeque`.  When the deque is
//! full the **oldest** journal record is overwritten (counted in
//! [`JournalStats::overwritten`]): the journal is a recency-bounded view,
//! so the newest records win here, the opposite of the ring's
//! drop-newest-on-overflow rule (which protects drain ordering).

use crate::ring::Ring;
use crate::trace::Record;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Counters describing journal health, surfaced via `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Records currently buffered.
    pub len: usize,
    /// Maximum buffered records.
    pub capacity: usize,
    /// Records ever moved out of rings into the journal.
    pub drained: u64,
    /// Old records overwritten because the journal was full.
    pub overwritten: u64,
    /// Records refused at ring level because a ring was full (sum over
    /// registered rings).
    pub ring_dropped: u64,
}

#[derive(Debug)]
struct Inner {
    rings: Vec<Arc<Ring>>,
    records: VecDeque<Record>,
    drained: u64,
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
                rings: Vec::new(),
                records: VecDeque::new(),
                drained: 0,
                overwritten: 0,
            }),
        }
    }

    /// Registers a thread's ring for draining.  Called once per emitting
    /// thread; the `Arc` keeps the ring alive past thread exit so pending
    /// records still drain.
    pub fn register(&self, ring: Arc<Ring>) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.rings.push(ring);
        }
    }

    /// Moves every pending ring record into the journal, evicting the
    /// oldest journal entries on overflow.  Safe to call from any thread;
    /// the mutex serialises consumers (rings are SPSC).
    pub fn drain(&self) {
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        let inner = &mut *inner;
        for ring in &inner.rings {
            while let Some(record) = ring.pop() {
                if inner.records.len() >= self.capacity {
                    inner.records.pop_front();
                    inner.overwritten += 1;
                }
                inner.records.push_back(record);
                inner.drained += 1;
            }
        }
    }

    /// Drains, then returns (a clone of) the newest `limit` records in
    /// emission order.
    pub fn recent(&self, limit: usize) -> Vec<Record> {
        self.drain();
        let Ok(inner) = self.inner.lock() else {
            return Vec::new();
        };
        let skip = inner.records.len().saturating_sub(limit);
        inner.records.iter().skip(skip).cloned().collect()
    }

    /// Drains, then snapshots the journal counters.
    pub fn stats(&self) -> JournalStats {
        self.drain();
        let Ok(inner) = self.inner.lock() else {
            return JournalStats::default();
        };
        JournalStats {
            len: inner.records.len(),
            capacity: self.capacity,
            drained: inner.drained,
            overwritten: inner.overwritten,
            ring_dropped: inner.rings.iter().map(|r| r.dropped()).sum(),
        }
    }

    /// Empties the buffered records (registered rings stay registered).
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
    fn drain_moves_ring_records_and_bounds_the_journal() {
        let journal = Journal::new(8);
        let ring = Arc::new(Ring::new(64));
        journal.register(Arc::clone(&ring));
        for i in 0..20 {
            assert!(ring.push(rec(i, 0)));
        }
        let stats = journal.stats();
        assert_eq!(stats.drained, 20);
        assert_eq!(stats.len, 8, "bounded at capacity");
        assert_eq!(stats.overwritten, 12, "oldest evicted");
        let recent = journal.recent(4);
        assert_eq!(
            recent.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![16, 17, 18, 19],
            "newest records survive"
        );
    }

    #[test]
    fn recent_is_in_emission_order_across_rings() {
        let journal = Journal::new(32);
        let a = Arc::new(Ring::new(8));
        let b = Arc::new(Ring::new(8));
        journal.register(Arc::clone(&a));
        journal.register(Arc::clone(&b));
        a.push(rec(0, 0));
        b.push(rec(1, 1));
        a.push(rec(2, 0));
        let got: Vec<u64> = journal.recent(10).iter().map(|r| r.seq).collect();
        // Per-ring order is preserved; cross-ring interleave is by drain
        // pass, so all of `a` then all of `b` within one pass.
        assert_eq!(got, vec![0, 2, 1]);
    }

    /// The no-loss / no-duplication contract under parallel emission: every
    /// record that a producer successfully pushed (ring accepted it) shows
    /// up in the journal exactly once, even with a drainer racing the
    /// producers.
    #[test]
    fn parallel_emission_never_loses_or_duplicates_records() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;

        // Capacity large enough that nothing is evicted — losses would be
        // indistinguishable from overwrites otherwise.
        static JOURNAL: Journal = Journal::new((THREADS * PER_THREAD) as usize);
        static SEQ: AtomicU64 = AtomicU64::new(0);
        static DONE: AtomicBool = AtomicBool::new(false);

        let drainer = std::thread::spawn(|| {
            while !DONE.load(Ordering::Acquire) {
                JOURNAL.drain();
                std::thread::yield_now();
            }
            JOURNAL.drain();
        });

        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    let ring = Arc::new(Ring::new(256));
                    JOURNAL.register(Arc::clone(&ring));
                    let mut pushed = 0u64;
                    for _ in 0..PER_THREAD {
                        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
                        if ring.push(rec(seq, t)) {
                            pushed += 1;
                        } else {
                            // Ring full: back off so the drainer catches up,
                            // then count the retry as a fresh record.
                            std::thread::yield_now();
                        }
                    }
                    pushed
                })
            })
            .collect();

        let pushed_total: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        DONE.store(true, Ordering::Release);
        drainer.join().unwrap();

        let stats = JOURNAL.stats();
        assert_eq!(stats.overwritten, 0, "sized to never overwrite");
        assert_eq!(stats.drained, pushed_total, "no pushed record lost");
        assert_eq!(
            stats.drained + stats.ring_dropped,
            THREADS * PER_THREAD,
            "every emission accounted for: drained or counted dropped"
        );

        let mut seqs: Vec<u64> = JOURNAL.recent(usize::MAX).iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len() as u64, pushed_total);
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len() as u64, pushed_total, "no duplicates");
    }
}
