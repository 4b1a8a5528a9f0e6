//! # wi-obs — workspace-wide observability
//!
//! Structured tracing, a unified metric registry, and structured logging
//! for the wrapper-induction system, built with zero external
//! dependencies (the build environment is offline).
//!
//! ## The three surfaces
//!
//! * **Tracing** ([`trace`]): [`Span`](trace::Record)/event records with
//!   monotonic `Instant`-anchored timestamps ([`clock`]), RAII
//!   [`span`] guards and guard-free
//!   [`record_span`], per-thread lock-free SPSC
//!   [rings](ring::Ring) drained into a bounded global
//!   [journal](journal::Journal), and a top-K slow-span log.  Surfaced by
//!   the daemon as `GET /debug/trace` (NDJSON) and `GET /debug/slow`.
//! * **Metrics** ([`metrics`]): named counters/gauges/histograms with
//!   label sets behind `Arc`-backed handles; rendered (and parsed back)
//!   in Prometheus text exposition format.  The process-wide
//!   [`Registry::global`](metrics::Registry::global) collects the library
//!   subsystems (induction, maintenance, persistent registry); the serve
//!   daemon keeps a per-instance registry for its request families.
//! * **Logging** ([`logger`]): single-line `key=value` lifecycle records
//!   with monotonic offsets, closed-pipe tolerant.
//!
//! ## The disabled-path overhead contract
//!
//! Tracing defaults to [`Mode::Off`](trace::Mode).  Every tracing entry
//! point ([`trace::span`], [`trace::record_span`], [`trace::event`])
//! begins with a **single relaxed atomic load** and returns immediately
//! when tracing is off — no clock read, no allocation, no thread-local
//! touch.  The contract, gated in CI via `BENCH_obs.json`: **< 2%
//! overhead on the `maintain` bench with tracing off**.  Metric handles
//! are always live but cost one relaxed `fetch_add` per record; hot loops
//! accumulate locally and flush once per call.
//!
//! ## Ring-buffer semantics
//!
//! Each emitting thread owns one fixed-capacity SPSC ring.  A **full ring
//! drops the newest record** (counted in
//! [`JournalStats::ring_dropped`](journal::JournalStats)) so drain order
//! is never corrupted; the **full journal evicts the oldest record**
//! (counted in `overwritten`) so the `/debug/trace` view stays
//! recency-bounded.  Journal drains are serialised by the journal mutex,
//! which is what makes it the single consumer each ring requires; the
//! no-loss/no-duplication guarantee under parallel emission is proven by
//! the concurrency test in [`journal`].

#![deny(missing_docs)]

pub mod clock;
pub mod journal;
pub mod logger;
pub mod metrics;
pub mod ring;
pub mod trace;

pub use journal::JournalStats;
pub use logger::{format_record, log, Level};
pub use metrics::{
    parse_exposition, Counter, Gauge, Histogram, MetricKind, Registry, LATENCY_BUCKETS_US,
};
pub use trace::{
    event, journal_stats, mode, parse_mode, recent, record_span, set_mode, set_slow_threshold_us,
    slow_ndjson, slow_top, span, trace_ndjson, Mode, Record, RecordKind, SpanGuard,
};
