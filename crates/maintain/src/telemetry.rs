//! Maintenance and persistent-registry telemetry: pre-resolved handles
//! into the process-wide [`wi_obs`] registry.
//!
//! Handle sets resolve once through a `OnceLock`; every record afterwards
//! is a relaxed `fetch_add`/`store`.  Families:
//!
//! * `wi_maintain_*` — lifecycle loop: verify/classify/repair latency
//!   histograms, per-class drift counters, state-machine transition
//!   counters, the retirement-countdown gauge.
//! * `wi_registry_append_latency_us` / `wi_registry_fsync_latency_us` /
//!   `wi_registry_recovery_dropped_bytes_total` /
//!   `wi_registry_compaction_bytes_{in,out}_total` /
//!   `wi_registry_segment_rotations_total` /
//!   `wi_registry_segments_rewritten_total` — storage-engine I/O.

use crate::drift::DriftClass;
use crate::lifecycle::WrapperState;
use std::sync::OnceLock;
use wi_obs::{Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS_US};

/// The lifecycle metric families.
pub(crate) struct MaintainMetrics {
    /// `wi_maintain_epochs_total` — snapshots driven through the loop.
    pub epochs: Counter,
    /// `wi_maintain_verify_latency_us`.
    pub verify_latency_us: Histogram,
    /// `wi_maintain_classify_latency_us`.
    pub classify_latency_us: Histogram,
    /// `wi_maintain_repair_latency_us`.
    pub repair_latency_us: Histogram,
    /// `wi_maintain_drift_total{class=…}`, one per [`DriftClass`]
    /// (exhaustive — adding a variant without extending this is a compile
    /// error in [`drift_counter`]).
    drift: [Counter; 6],
    /// `wi_maintain_transitions_total{to=…}`, one per [`WrapperState`].
    transitions: [Counter; 3],
    /// `wi_maintain_target_gone_streak` — the retirement countdown after
    /// the most recent epoch (last writer wins across parallel runs).
    pub target_gone_streak: Gauge,
    /// `wi_maintain_cache_hits_total` — snapshots whose verdict the epoch
    /// echo replayed (identical to the last healthy one, same revision).
    pub cache_hits: Counter,
    /// `wi_maintain_cache_misses_total` — snapshots the incremental loop
    /// verified in full.
    pub cache_misses: Counter,
}

impl MaintainMetrics {
    /// The counter of one drift class (exhaustive match, same discipline
    /// as serve's `Endpoint::index`).
    pub fn drift_counter(&self, class: DriftClass) -> &Counter {
        let idx = match class {
            DriftClass::Positional => 0,
            DriftClass::AttributeRename => 1,
            DriftClass::Redesign => 2,
            DriftClass::TargetRemoved => 3,
            DriftClass::PageBroken => 4,
            DriftClass::Unknown => 5,
        };
        &self.drift[idx]
    }

    /// The transition counter into one lifecycle state.
    pub fn transition_counter(&self, to: WrapperState) -> &Counter {
        let idx = match to {
            WrapperState::Monitoring => 0,
            WrapperState::Degraded => 1,
            WrapperState::Retired => 2,
        };
        &self.transitions[idx]
    }
}

/// The lazily-resolved lifecycle handles.
pub(crate) fn maintain_metrics() -> &'static MaintainMetrics {
    static METRICS: OnceLock<MaintainMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        let drift_classes = [
            DriftClass::Positional,
            DriftClass::AttributeRename,
            DriftClass::Redesign,
            DriftClass::TargetRemoved,
            DriftClass::PageBroken,
            DriftClass::Unknown,
        ];
        let states = ["monitoring", "degraded", "retired"];
        MaintainMetrics {
            epochs: r.counter("wi_maintain_epochs_total", &[]),
            verify_latency_us: r.histogram(
                "wi_maintain_verify_latency_us",
                &LATENCY_BUCKETS_US,
                &[],
            ),
            classify_latency_us: r.histogram(
                "wi_maintain_classify_latency_us",
                &LATENCY_BUCKETS_US,
                &[],
            ),
            repair_latency_us: r.histogram(
                "wi_maintain_repair_latency_us",
                &LATENCY_BUCKETS_US,
                &[],
            ),
            drift: drift_classes
                .map(|c| r.counter("wi_maintain_drift_total", &[("class", c.label())])),
            transitions: states.map(|s| r.counter("wi_maintain_transitions_total", &[("to", s)])),
            target_gone_streak: r.gauge("wi_maintain_target_gone_streak", &[]),
            cache_hits: r.counter("wi_maintain_cache_hits_total", &[]),
            cache_misses: r.counter("wi_maintain_cache_misses_total", &[]),
        }
    })
}

/// The storage-engine metric families.
pub(crate) struct RegistryMetrics {
    /// `wi_registry_append_latency_us` — one shard log append.
    pub append_latency_us: Histogram,
    /// `wi_registry_fsync_latency_us` — one `sync_data` on a shard log.
    pub fsync_latency_us: Histogram,
    /// `wi_registry_recovery_dropped_bytes_total` — torn/corrupt tail
    /// bytes discarded during crash recovery.
    pub recovery_dropped_bytes: Counter,
    /// `wi_registry_compaction_bytes_in_total` — log bytes read by
    /// compactions.
    pub compaction_bytes_in: Counter,
    /// `wi_registry_compaction_bytes_out_total` — log bytes surviving
    /// compactions.
    pub compaction_bytes_out: Counter,
    /// `wi_registry_segment_rotations_total` — appends rolled to a fresh
    /// segment (threshold rolls plus snapshot seals).
    pub segment_rotations: Counter,
    /// `wi_registry_segments_rewritten_total` — segments rewritten by
    /// compactions (the write-amplification pulse).
    pub segments_rewritten: Counter,
}

/// The lazily-resolved storage handles.
pub(crate) fn registry_metrics() -> &'static RegistryMetrics {
    static METRICS: OnceLock<RegistryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        RegistryMetrics {
            append_latency_us: r.histogram(
                "wi_registry_append_latency_us",
                &LATENCY_BUCKETS_US,
                &[],
            ),
            fsync_latency_us: r.histogram("wi_registry_fsync_latency_us", &LATENCY_BUCKETS_US, &[]),
            recovery_dropped_bytes: r.counter("wi_registry_recovery_dropped_bytes_total", &[]),
            compaction_bytes_in: r.counter("wi_registry_compaction_bytes_in_total", &[]),
            compaction_bytes_out: r.counter("wi_registry_compaction_bytes_out_total", &[]),
            segment_rotations: r.counter("wi_registry_segment_rotations_total", &[]),
            segments_rewritten: r.counter("wi_registry_segments_rewritten_total", &[]),
        }
    })
}
