//! Request and registry metrics with a text exposition endpoint.
//!
//! The daemon's counters live in a per-daemon [`wi_obs::Registry`] (its
//! own instance, not [`wi_obs::Registry::global`], so parallel daemons in
//! one test process never cross-count).  Handles are resolved once at
//! construction — one per endpoint via the exhaustive `Endpoint::index`
//! — and every record afterwards is a relaxed `fetch_add`: per-endpoint
//! request and error counts, fixed-bucket latency histograms, per-shard
//! request counts (the `shard_of` partition made observable), and gauges
//! refreshed at scrape time from the registry's
//! [`ShardStats`](wi_maintain::ShardStats).
//!
//! The `/metrics` output follows the Prometheus text exposition format:
//! `wi_requests_total{endpoint="extract"} 12`, cumulative
//! `_bucket{le="…"}` histogram series, and registry gauges — followed by
//! the process-wide [`wi_obs::Registry::global`] families (induction,
//! maintenance lifecycle, storage engine), so one scrape sees the whole
//! stack.

use std::time::{Duration, Instant};
use wi_maintain::PersistentRegistry;
use wi_obs::{Counter, Gauge, Histogram, Registry};

pub use wi_obs::LATENCY_BUCKETS_US;

/// The endpoint label attached to every recorded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /extract/{site}`.
    Extract,
    /// `POST /extract/batch`.
    ExtractBatch,
    /// `POST /induce/{site}`.
    Induce,
    /// `POST /maintain/{site}`.
    Maintain,
    /// `GET /healthz`.
    Healthz,
    /// `GET /sites/{site}`.
    Site,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/trace`.
    DebugTrace,
    /// `GET /debug/slow`.
    DebugSlow,
    /// `POST /admin/shutdown`.
    Shutdown,
    /// `POST /admin/snapshot`.
    Snapshot,
    /// Unrouted or malformed requests.
    Other,
}

impl Endpoint {
    /// Every endpoint, in exposition order.
    pub const ALL: [Endpoint; 12] = [
        Endpoint::Extract,
        Endpoint::ExtractBatch,
        Endpoint::Induce,
        Endpoint::Maintain,
        Endpoint::Healthz,
        Endpoint::Site,
        Endpoint::Metrics,
        Endpoint::DebugTrace,
        Endpoint::DebugSlow,
        Endpoint::Shutdown,
        Endpoint::Snapshot,
        Endpoint::Other,
    ];

    /// The exposition label of this endpoint.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Extract => "extract",
            Endpoint::ExtractBatch => "extract_batch",
            Endpoint::Induce => "induce",
            Endpoint::Maintain => "maintain",
            Endpoint::Healthz => "healthz",
            Endpoint::Site => "site",
            Endpoint::Metrics => "metrics",
            Endpoint::DebugTrace => "debug_trace",
            Endpoint::DebugSlow => "debug_slow",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Snapshot => "snapshot",
            Endpoint::Other => "other",
        }
    }

    /// Dense index into per-endpoint handle arrays.  An exhaustive match
    /// (not a `position().expect()`): adding a variant without extending
    /// `ALL` is a compile error here, not a request-path panic.
    fn index(self) -> usize {
        match self {
            Endpoint::Extract => 0,
            Endpoint::ExtractBatch => 1,
            Endpoint::Induce => 2,
            Endpoint::Maintain => 3,
            Endpoint::Healthz => 4,
            Endpoint::Site => 5,
            Endpoint::Metrics => 6,
            Endpoint::DebugTrace => 7,
            Endpoint::DebugSlow => 8,
            Endpoint::Shutdown => 9,
            Endpoint::Snapshot => 10,
            Endpoint::Other => 11,
        }
    }
}

/// The pre-resolved handle set of one endpoint.
#[derive(Debug)]
pub struct EndpointCounters {
    requests: Counter,
    errors: Counter,
    latency_us: Histogram,
}

impl EndpointCounters {
    /// Requests recorded on this endpoint.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Error (status ≥ 400) responses recorded on this endpoint.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Total recorded latency in µs.
    pub fn latency_sum_us(&self) -> u64 {
        self.latency_us.sum()
    }
}

/// The daemon's metrics registry.
#[derive(Debug)]
pub struct Metrics {
    obs: Registry,
    endpoints: [EndpointCounters; Endpoint::ALL.len()],
    /// Requests per registry shard (indexed by `shard_of(site)`).
    shard_requests: Vec<Counter>,
    registry_sites: Gauge,
    registry_poisoned: Gauge,
    registry_objects: Gauge,
    registry_object_bytes: Gauge,
    shard_sites: Vec<Gauge>,
    shard_revisions: Vec<Gauge>,
    shard_log_bytes: Vec<Gauge>,
    shard_segments: Vec<Gauge>,
    uptime_seconds: Gauge,
    started: Instant,
}

impl Metrics {
    /// Creates a metrics registry for a daemon serving `shards` shards.
    /// Families register in exposition order — [`wi_obs::Registry`]
    /// renders registration order, so the scrape layout is fixed here.
    pub fn new(shards: usize) -> Metrics {
        let obs = Registry::new();
        // The first endpoint fixes the family order (requests, errors,
        // latency); later endpoints only append series to those families.
        let endpoints = Endpoint::ALL.map(|endpoint| EndpointCounters {
            requests: obs.counter("wi_requests_total", &[("endpoint", endpoint.name())]),
            errors: obs.counter("wi_request_errors_total", &[("endpoint", endpoint.name())]),
            latency_us: obs.histogram(
                "wi_request_latency_us",
                &LATENCY_BUCKETS_US,
                &[("endpoint", endpoint.name())],
            ),
        });
        let shard_requests = (0..shards)
            .map(|shard| obs.counter("wi_shard_requests_total", &[("shard", &shard.to_string())]))
            .collect();
        let registry_sites = obs.gauge("wi_registry_sites", &[]);
        let registry_poisoned = obs.gauge("wi_registry_poisoned", &[]);
        let registry_objects = obs.gauge("wi_registry_objects", &[]);
        let registry_object_bytes = obs.gauge("wi_registry_object_bytes", &[]);
        let shard_sites = (0..shards)
            .map(|shard| obs.gauge("wi_registry_shard_sites", &[("shard", &shard.to_string())]))
            .collect();
        let shard_revisions = (0..shards)
            .map(|shard| {
                obs.gauge(
                    "wi_registry_shard_revisions",
                    &[("shard", &shard.to_string())],
                )
            })
            .collect();
        let shard_log_bytes = (0..shards)
            .map(|shard| {
                obs.gauge(
                    "wi_registry_shard_log_bytes",
                    &[("shard", &shard.to_string())],
                )
            })
            .collect();
        let shard_segments = (0..shards)
            .map(|shard| {
                obs.gauge(
                    "wi_registry_shard_segments",
                    &[("shard", &shard.to_string())],
                )
            })
            .collect();
        let uptime_seconds = obs.gauge("wi_uptime_seconds", &[]);
        Metrics {
            obs,
            endpoints,
            shard_requests,
            registry_sites,
            registry_poisoned,
            registry_objects,
            registry_object_bytes,
            shard_sites,
            shard_revisions,
            shard_log_bytes,
            shard_segments,
            uptime_seconds,
            started: Instant::now(),
        }
    }

    /// The handle set of one endpoint.
    pub fn counters(&self, endpoint: Endpoint) -> &EndpointCounters {
        // lint:allow(R4, Endpoint::index is an exhaustive match onto 0..ALL.len(), the array's exact length)
        &self.endpoints[endpoint.index()]
    }

    /// Records one finished request.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let counters = self.counters(endpoint);
        counters.requests.inc();
        if status >= 400 {
            counters.errors.inc();
        }
        counters.latency_us.observe_us(elapsed);
    }

    /// Records which shard a site-keyed request routed to.
    pub fn record_shard(&self, shard: usize) {
        if let Some(counter) = self.shard_requests.get(shard) {
            counter.inc();
        }
    }

    /// Total requests recorded across all endpoints.
    pub fn requests_total(&self) -> u64 {
        self.endpoints.iter().map(|c| c.requests.get()).sum()
    }

    /// Requests recorded against one shard (`None` out of range).
    pub fn shard_requests(&self, shard: usize) -> Option<u64> {
        self.shard_requests.get(shard).map(Counter::get)
    }

    /// Renders the text exposition: the daemon's own families (refreshed
    /// with a scrape-time snapshot of the registry's shard statistics),
    /// then the process-wide families from [`Registry::global`].
    pub fn render(&self, registry: &PersistentRegistry) -> String {
        self.registry_sites.set(registry.site_count() as u64);
        self.registry_poisoned
            .set(u64::from(registry.is_poisoned()));
        let (objects, object_bytes) = registry.objects().stats();
        self.registry_objects.set(objects as u64);
        self.registry_object_bytes.set(object_bytes);
        for stat in registry.shard_stats() {
            if let Some(gauge) = self.shard_sites.get(stat.shard) {
                gauge.set(stat.sites as u64);
            }
            if let Some(gauge) = self.shard_revisions.get(stat.shard) {
                gauge.set(stat.revisions as u64);
            }
            if let Some(gauge) = self.shard_log_bytes.get(stat.shard) {
                gauge.set(stat.log_bytes);
            }
            if let Some(gauge) = self.shard_segments.get(stat.shard) {
                gauge.set(stat.segments as u64);
            }
        }
        self.uptime_seconds.set(self.started.elapsed().as_secs());
        let mut out = self.obs.render();
        out.push_str(&Registry::global().render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_series() {
        let metrics = Metrics::new(4);
        metrics.record(Endpoint::Extract, 200, Duration::from_micros(50));
        metrics.record(Endpoint::Extract, 404, Duration::from_micros(5_000));
        metrics.record(Endpoint::Healthz, 200, Duration::from_micros(10));
        metrics.record_shard(2);
        assert_eq!(metrics.requests_total(), 3);

        let c = metrics.counters(Endpoint::Extract);
        assert_eq!(c.requests(), 2);
        assert_eq!(c.errors(), 1);
        assert_eq!(c.latency_sum_us(), 5_050);
        assert_eq!(
            metrics.shard_requests(2),
            Some(1),
            "shard routing observable"
        );

        let text = metrics.obs.render();
        assert!(text.contains("wi_requests_total{endpoint=\"extract\"} 2"));
        assert!(text.contains("wi_request_errors_total{endpoint=\"extract\"} 1"));
        assert!(text.contains("wi_request_latency_us_bucket{endpoint=\"extract\",le=\"100\"} 1"));
        assert!(text.contains("wi_request_latency_us_bucket{endpoint=\"extract\",le=\"10000\"} 2"));
        assert!(text.contains("wi_shard_requests_total{shard=\"2\"} 1"));
    }

    #[test]
    fn out_of_range_shard_is_dropped_not_panicked() {
        let metrics = Metrics::new(2);
        metrics.record_shard(usize::MAX);
        metrics.record_shard(2);
        for shard in 0..2 {
            assert_eq!(metrics.shard_requests(shard), Some(0));
        }
        assert_eq!(metrics.shard_requests(2), None);
    }

    #[test]
    fn every_endpoint_indexes_into_the_counter_array() {
        let metrics = Metrics::new(1);
        for endpoint in Endpoint::ALL {
            metrics.record(endpoint, 200, Duration::from_micros(1));
        }
        assert_eq!(metrics.requests_total(), Endpoint::ALL.len() as u64);
        for endpoint in Endpoint::ALL {
            assert_eq!(metrics.counters(endpoint).requests(), 1, "{endpoint:?}");
        }
    }
}
