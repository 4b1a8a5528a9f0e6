//! The structured tracing core: span/event records, the mode gate, and
//! the global journal plumbing.
//!
//! # The disabled-path contract
//!
//! Tracing defaults to **off**, and the off path must be invisible on hot
//! paths: [`span`] and [`record_span`] start with a **single relaxed
//! atomic load** of the mode and return immediately when it is zero — no
//! allocation, no clock read, no thread-local access.  The `maintain`
//! bench budget for the disabled path is <2% overhead (see
//! `BENCH_obs.json`); in practice a relaxed load is sub-nanosecond.
//!
//! # Record flow
//!
//! When tracing is on (or the sampler picks a record), the emitting
//! thread builds the record with no lock held — timestamped against the
//! monotonic [anchor](crate::clock), tagged with a process-unique
//! sequence number and its thread id — and then pushes it into the global
//! bounded [`Journal`] under the journal's mutex.  A full journal evicts the oldest record (counted in
//! [`journal_stats`]), so the journal always holds the newest records,
//! whether or not anyone has read it in between.  Consumers —
//! `/debug/trace`, benches, tests — read the journal directly.

use crate::clock;
use crate::journal::{Journal, JournalStats};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Records the global journal retains.
pub const JOURNAL_CAPACITY: usize = 4096;
/// Spans kept in the slow log (top-K by duration).
pub const SLOW_CAPACITY: usize = 32;

/// What a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A timed region (`dur_us` is meaningful).
    Span,
    /// A point-in-time marker (`dur_us` is zero).
    Event,
}

impl RecordKind {
    /// The NDJSON label.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Process-unique emission sequence number.
    pub seq: u64,
    /// Span or event.
    pub kind: RecordKind,
    /// Static site name, e.g. `"maintain.verify"`.
    pub name: &'static str,
    /// Small dense id of the emitting thread.
    pub thread: u64,
    /// Monotonic offset (µs since the process anchor) of the span start
    /// (or the event itself).
    pub start_us: u64,
    /// Span duration in µs (zero for events).
    pub dur_us: u64,
    /// Numeric payload, e.g. `[("candidates", 42)]`.
    pub fields: Vec<(&'static str, u64)>,
}

impl Record {
    /// One NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"name\":\"{}\",\"thread\":{},\"start_us\":{},\"dur_us\":{}",
            self.seq,
            self.kind.name(),
            self.name,
            self.thread,
            self.start_us,
            self.dur_us
        );
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// The tracing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No records are emitted; the hot-path cost is one relaxed load.
    Off,
    /// Every span/event is recorded.
    On,
    /// Every N-th span/event is recorded (N ≥ 1; process-wide ticket).
    Sample(u64),
}

const MODE_OFF: u8 = 0;
const MODE_ON: u8 = 1;
const MODE_SAMPLE: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_OFF);
static SAMPLE_N: AtomicU64 = AtomicU64::new(1);
static TICKET: AtomicU64 = AtomicU64::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static THREAD_IDS: AtomicU64 = AtomicU64::new(0);
static SLOW_THRESHOLD_US: AtomicU64 = AtomicU64::new(1_000);
static SLOW: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static JOURNAL: Journal = Journal::new(JOURNAL_CAPACITY);

thread_local! {
    /// The small dense id of the current thread, taken on its first record.
    static THREAD_ID: u64 = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
}

/// Sets the process-wide tracing mode.
pub fn set_mode(mode: Mode) {
    match mode {
        Mode::Off => MODE.store(MODE_OFF, Ordering::Relaxed),
        Mode::On => MODE.store(MODE_ON, Ordering::Relaxed),
        Mode::Sample(n) => {
            SAMPLE_N.store(n.max(1), Ordering::Relaxed);
            MODE.store(MODE_SAMPLE, Ordering::Relaxed);
        }
    }
}

/// The current tracing mode.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        MODE_ON => Mode::On,
        MODE_SAMPLE => Mode::Sample(SAMPLE_N.load(Ordering::Relaxed)),
        _ => Mode::Off,
    }
}

/// Parses a `--trace` flag value: `on`, `off`, or `sample:N` (N ≥ 1).
pub fn parse_mode(s: &str) -> Option<Mode> {
    match s {
        "on" => Some(Mode::On),
        "off" => Some(Mode::Off),
        _ => {
            let n = s.strip_prefix("sample:")?.parse::<u64>().ok()?;
            if n == 0 {
                return None;
            }
            Some(Mode::Sample(n))
        }
    }
}

/// True when tracing is not [`Mode::Off`].  This is the documented
/// single-relaxed-load disabled-path check.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != MODE_OFF
}

/// Should the record about to be emitted actually be recorded?
#[inline]
fn should_record() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => false,
        MODE_ON => true,
        _ => {
            let n = SAMPLE_N.load(Ordering::Relaxed).max(1);
            TICKET.fetch_add(1, Ordering::Relaxed).is_multiple_of(n)
        }
    }
}

fn emit(
    kind: RecordKind,
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    fields: &[(&'static str, u64)],
) {
    let record = Record {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        kind,
        name,
        thread: THREAD_ID.with(|id| *id),
        start_us,
        dur_us,
        fields: fields.to_vec(),
    };
    if kind == RecordKind::Span && dur_us >= SLOW_THRESHOLD_US.load(Ordering::Relaxed) {
        record_slow(&record);
    }
    JOURNAL.push(record);
}

/// Offers a span to the slow log, which stays sorted slowest first (ties
/// by emission order) and holds at most [`SLOW_CAPACITY`] records.  A span
/// that would land past the end of a full log returns before cloning.
fn record_slow(record: &Record) {
    let Ok(mut slow) = SLOW.lock() else {
        return;
    };
    let ahead =
        |r: &Record| r.dur_us > record.dur_us || (r.dur_us == record.dur_us && r.seq < record.seq);
    let at = slow.partition_point(ahead);
    if at >= SLOW_CAPACITY {
        return;
    }
    slow.insert(at, record.clone());
    slow.truncate(SLOW_CAPACITY);
}

/// An RAII span: created by [`span`], emits a [`RecordKind::Span`] record
/// on drop.  When tracing was off at creation the guard is inert (a
/// `None`), so the drop costs nothing.
///
/// **Serve-handler discipline (wi-lint R7):** do not hold a `SpanGuard`
/// across a registry lock acquisition — use [`record_span`] with an
/// explicit start instant instead, so guard liveness never overlaps lock
/// liveness.
#[must_use = "the span measures until the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(&'static str, Instant)>,
}

impl SpanGuard {
    /// A guard that records nothing (the disabled path).
    pub fn inert() -> SpanGuard {
        SpanGuard { active: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, started)) = self.active.take() {
            let dur = duration_us(started);
            emit(
                RecordKind::Span,
                name,
                clock::offset_us_of(started),
                dur,
                &[],
            );
        }
    }
}

fn duration_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Opens a span; the returned guard emits the record when dropped.
/// Disabled path: one relaxed load, no clock read.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !should_record() {
        return SpanGuard::inert();
    }
    SpanGuard {
        active: Some((name, Instant::now())),
    }
}

/// Records a completed span from an explicit start instant — the
/// guard-free form serve handlers use so no span guard is ever live
/// across a registry lock (wi-lint R7).  Disabled path: one relaxed load.
#[inline]
pub fn record_span(name: &'static str, started: Instant, fields: &[(&'static str, u64)]) {
    if !should_record() {
        return;
    }
    emit(
        RecordKind::Span,
        name,
        clock::offset_us_of(started),
        duration_us(started),
        fields,
    );
}

/// Records a point-in-time event.  Disabled path: one relaxed load.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, u64)]) {
    if !should_record() {
        return;
    }
    emit(RecordKind::Event, name, clock::offset_us(), 0, fields);
}

/// The newest `limit` records of the global journal, in push order.
pub fn recent(limit: usize) -> Vec<Record> {
    JOURNAL.recent(limit)
}

/// The newest `limit` journal records as NDJSON (one record per line).
pub fn trace_ndjson(limit: usize) -> String {
    let mut out = String::new();
    for record in recent(limit) {
        out.push_str(&record.to_ndjson());
        out.push('\n');
    }
    out
}

/// A snapshot of the global journal counters.
pub fn journal_stats() -> JournalStats {
    JOURNAL.stats()
}

/// Sets the slow-log threshold: spans at least this long (µs) enter the
/// top-K slow log.
pub fn set_slow_threshold_us(us: u64) {
    SLOW_THRESHOLD_US.store(us, Ordering::Relaxed);
}

/// The current slow-log threshold (µs).
pub fn slow_threshold_us() -> u64 {
    SLOW_THRESHOLD_US.load(Ordering::Relaxed)
}

/// The top-K slowest spans (duration ≥ threshold), slowest first.
pub fn slow_top() -> Vec<Record> {
    SLOW.lock().map(|s| s.clone()).unwrap_or_default()
}

/// The slow log as NDJSON, slowest span first.
pub fn slow_ndjson() -> String {
    let mut out = String::new();
    for record in slow_top() {
        out.push_str(&record.to_ndjson());
        out.push('\n');
    }
    out
}

/// Test/bench hook: clears the journal and the slow log (mode and
/// counters are left as-is).
pub fn clear() {
    JOURNAL.clear();
    if let Ok(mut slow) = SLOW.lock() {
        slow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global journal is process-wide, so these tests key their
    // assertions on unique span names rather than absolute counts.

    /// Serializes the tests that flip the process-wide trace mode: a
    /// concurrent `set_mode(Mode::Off)` would drop another test's records.
    static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        MODE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_mode_emits_nothing() {
        let _mode = mode_lock();
        set_mode(Mode::Off);
        for _ in 0..100 {
            let _g = span("trace.test.disabled");
            record_span("trace.test.disabled", Instant::now(), &[]);
            event("trace.test.disabled", &[]);
        }
        assert!(recent(usize::MAX)
            .iter()
            .all(|r| r.name != "trace.test.disabled"));
    }

    #[test]
    fn spans_events_and_fields_round_trip_through_the_journal() {
        let _mode = mode_lock();
        set_mode(Mode::On);
        {
            let _g = span("trace.test.guard");
        }
        event("trace.test.event", &[("k", 7)]);
        set_mode(Mode::Off);

        let records = recent(usize::MAX);
        let g = records.iter().find(|r| r.name == "trace.test.guard");
        assert!(g.is_some_and(|r| r.kind == RecordKind::Span));
        let e = records.iter().find(|r| r.name == "trace.test.event");
        assert!(e.is_some_and(|r| r.kind == RecordKind::Event && r.fields == vec![("k", 7)]));
    }

    #[test]
    fn sampling_records_one_in_n() {
        let _mode = mode_lock();
        set_mode(Mode::Sample(10));
        for _ in 0..100 {
            event("trace.test.sampled", &[]);
        }
        set_mode(Mode::Off);
        let n = recent(usize::MAX)
            .iter()
            .filter(|r| r.name == "trace.test.sampled")
            .count();
        // The process-wide ticket may be mid-phase, and other tests may
        // consume tickets concurrently; the count stays well under 100
        // and (with tolerance for racing tests) near 10.
        assert!((1..=30).contains(&n), "sampled {n}/100");
    }

    #[test]
    fn slow_spans_enter_the_top_k() {
        let _mode = mode_lock();
        set_mode(Mode::On);
        set_slow_threshold_us(0);
        record_span("trace.test.slow", Instant::now(), &[]);
        set_slow_threshold_us(1_000);
        set_mode(Mode::Off);
        assert!(
            slow_top().iter().any(|r| r.name == "trace.test.slow"),
            "any span clears a zero threshold"
        );
        assert!(slow_ndjson().contains("\"name\":\"trace.test.slow\""));
    }

    #[test]
    fn slow_log_keeps_the_k_slowest_in_order() {
        let _mode = mode_lock();
        clear();
        set_mode(Mode::On);
        let now = Instant::now();
        for ms in 1..=40u64 {
            let started = now - std::time::Duration::from_millis(ms);
            record_span("trace.test.top_k", started, &[("ms", ms)]);
        }
        let ms_of =
            |records: Vec<Record>| -> Vec<u64> { records.iter().map(|r| r.fields[0].1).collect() };
        let top = ms_of(slow_top());
        assert_eq!(top, (9..=40).rev().collect::<Vec<u64>>());
        record_span(
            "trace.test.top_k",
            now - std::time::Duration::from_millis(1),
            &[("ms", 1)],
        );
        set_mode(Mode::Off);
        assert_eq!(
            ms_of(slow_top()),
            top,
            "a 1 ms span does not displace the 32 slowest"
        );
        // Leave an empty log: a full one would keep out the zero-length
        // spans other tests offer.
        clear();
    }

    #[test]
    fn ndjson_shape_is_stable() {
        let r = Record {
            seq: 3,
            kind: RecordKind::Span,
            name: "x",
            thread: 1,
            start_us: 10,
            dur_us: 5,
            fields: vec![("a", 1), ("b", 2)],
        };
        assert_eq!(
            r.to_ndjson(),
            "{\"seq\":3,\"kind\":\"span\",\"name\":\"x\",\"thread\":1,\"start_us\":10,\"dur_us\":5,\"fields\":{\"a\":1,\"b\":2}}"
        );
    }

    #[test]
    fn parse_mode_accepts_the_flag_grammar() {
        assert_eq!(parse_mode("on"), Some(Mode::On));
        assert_eq!(parse_mode("off"), Some(Mode::Off));
        assert_eq!(parse_mode("sample:16"), Some(Mode::Sample(16)));
        assert_eq!(parse_mode("sample:0"), None);
        assert_eq!(parse_mode("sample:"), None);
        assert_eq!(parse_mode("loud"), None);
    }
}
