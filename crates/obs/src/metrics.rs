//! The unified metric registry: named counters, gauges and histograms
//! with label sets, rendered in Prometheus text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! cells: resolve them once (at construction, or through a `OnceLock` at
//! an instrumentation site) and every subsequent record is a relaxed
//! `fetch_add` — the registry mutex is only taken at registration and at
//! render time.  Families render in **registration order** and series in
//! **creation order**, so exposition output is deterministic.
//!
//! [`parse_exposition`] is the minimal inverse of [`Registry::render`],
//! used by the round-trip property test and available to scrapers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Canonical µs latency bucket bounds shared by the workspace's latency
/// histograms; the final `u64::MAX` bound renders as `+Inf`.
pub const LATENCY_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, u64::MAX];

/// Family kinds, matching Prometheus `# TYPE` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Instantaneous value (set, not accumulated).
    Gauge,
    /// Fixed-bucket distribution with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` label.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Shared storage behind every handle.
#[derive(Debug, Default)]
struct Cells {
    value: AtomicU64,
    /// Per-bucket (non-cumulative) observation counts; empty for
    /// counters/gauges.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    cells: Arc<Cells>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cells.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cells.value.load(Ordering::Relaxed)
    }
}

/// A set-anytime gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    cells: Arc<Cells>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.cells.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cells.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram handle.  Bounds are inclusive upper limits;
/// a final `u64::MAX` bound renders as `+Inf`.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<Cells>,
    bounds: Arc<Vec<u64>>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&limit| v <= limit)
            .unwrap_or(self.bounds.len().saturating_sub(1));
        if let Some(slot) = self.cells.buckets.get(idx) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in µs.
    pub fn observe_us(&self, elapsed: Duration) {
        self.observe(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    cells: Arc<Cells>,
}

#[derive(Debug)]
struct Family {
    name: String,
    kind: MetricKind,
    bounds: Arc<Vec<u64>>,
    series: Vec<Series>,
}

/// A metric registry.  The workspace-wide instance is [`Registry::global`];
/// per-daemon registries (serve) construct their own so parallel daemons
/// in one test process do not cross-count.
#[derive(Debug)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            families: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide registry that library subsystems (induction,
    /// maintenance, the persistent registry) record into.
    pub fn global() -> &'static Registry {
        static GLOBAL: Registry = Registry::new();
        &GLOBAL
    }

    /// Gets or creates a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            cells: self.series(name, MetricKind::Counter, &[], labels),
        }
    }

    /// Gets or creates a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge {
            cells: self.series(name, MetricKind::Gauge, &[], labels),
        }
    }

    /// Gets or creates a histogram series with the given inclusive upper
    /// bucket bounds (use a final `u64::MAX` for `+Inf`).  Bounds are
    /// fixed by the first registration of the family.
    pub fn histogram(&self, name: &str, bounds: &[u64], labels: &[(&str, &str)]) -> Histogram {
        let cells = self.series(name, MetricKind::Histogram, bounds, labels);
        let bounds = self
            .families
            .lock()
            .ok()
            .and_then(|fams| {
                fams.iter()
                    .find(|f| f.name == name)
                    .map(|f| Arc::clone(&f.bounds))
            })
            .unwrap_or_else(|| Arc::new(bounds.to_vec()));
        Histogram { cells, bounds }
    }

    /// Get-or-create the cells of one series.  A name reused with a
    /// different kind gets cells of its own (recorded but never rendered)
    /// rather than a panic — the registry sits on request paths.
    fn series(
        &self,
        name: &str,
        kind: MetricKind,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Arc<Cells> {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let Ok(mut families) = self.families.lock() else {
            return Arc::new(Cells::default());
        };
        let family = match families.iter().position(|f| f.name == name) {
            Some(i) => {
                if families[i].kind != kind {
                    return Arc::new(Cells::default());
                }
                &mut families[i]
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    kind,
                    bounds: Arc::new(bounds.to_vec()),
                    series: Vec::new(),
                });
                let last = families.len() - 1;
                &mut families[last]
            }
        };
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            return Arc::clone(&s.cells);
        }
        let cells = Arc::new(Cells {
            value: AtomicU64::new(0),
            buckets: family.bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        });
        family.series.push(Series {
            labels,
            cells: Arc::clone(&cells),
        });
        cells
    }

    /// Renders the Prometheus text exposition: families in registration
    /// order, series in creation order, histograms as cumulative
    /// `_bucket{le=…}` plus `_sum`/`_count`.
    pub fn render(&self) -> String {
        let Ok(families) = self.families.lock() else {
            return String::new();
        };
        let mut out = String::with_capacity(4096);
        for family in families.iter() {
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind.name()));
            for series in &family.series {
                match family.kind {
                    MetricKind::Counter | MetricKind::Gauge => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            series.cells.value.load(Ordering::Relaxed)
                        ));
                    }
                    MetricKind::Histogram => {
                        let mut cumulative = 0u64;
                        for (slot, &limit) in series.cells.buckets.iter().zip(family.bounds.iter())
                        {
                            cumulative += slot.load(Ordering::Relaxed);
                            let le = if limit == u64::MAX {
                                "+Inf".to_string()
                            } else {
                                limit.to_string()
                            };
                            out.push_str(&format!(
                                "{}_bucket{} {cumulative}\n",
                                family.name,
                                render_labels(&series.labels, Some(&le)),
                            ));
                        }
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            series.cells.sum.load(Ordering::Relaxed)
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            series.cells.count.load(Ordering::Relaxed)
                        ));
                    }
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{v}\""));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

/// One sample line of a parsed exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSample {
    /// Full sample name including `_bucket`/`_sum`/`_count` suffixes.
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The (integer) sample value.
    pub value: u64,
}

/// One `# TYPE` family of a parsed exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFamily {
    /// Family name.
    pub name: String,
    /// `counter` / `gauge` / `histogram`.
    pub kind: String,
    /// Sample lines attributed to this family.
    pub samples: Vec<ParsedSample>,
}

/// Parses text in the subset of the Prometheus exposition format that
/// [`Registry::render`] emits (integer values, no escapes in label
/// values, `# TYPE` comments only).  Returns `None` on any malformed
/// line — the round-trip property test treats that as failure.
pub fn parse_exposition(text: &str) -> Option<Vec<ParsedFamily>> {
    let mut families: Vec<ParsedFamily> = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ')?;
            families.push(ParsedFamily {
                name: name.to_string(),
                kind: kind.to_string(),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let sample = parse_sample(line)?;
        // Attribute to the most recent family whose name prefixes the
        // sample name (covers `_bucket`/`_sum`/`_count`).
        let family = families
            .iter_mut()
            .rev()
            .find(|f| sample.name == f.name || sample.name.starts_with(&format!("{}_", f.name)))?;
        family.samples.push(sample);
    }
    Some(families)
}

fn parse_sample(line: &str) -> Option<ParsedSample> {
    let (head, value) = line.rsplit_once(' ')?;
    let value = if value == "+Inf" {
        u64::MAX
    } else {
        value.parse::<u64>().ok()?
    };
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            if !body.is_empty() {
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=')?;
                    let v = v.strip_prefix('"')?.strip_suffix('"')?;
                    labels.push((k.to_string(), v.to_string()));
                }
            }
            (name.to_string(), labels)
        }
    };
    Some(ParsedSample {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_in_registration_order() {
        let reg = Registry::new();
        let a = reg.counter("t_requests_total", &[("endpoint", "x")]);
        let b = reg.counter("t_requests_total", &[("endpoint", "y")]);
        let g = reg.gauge("t_depth", &[]);
        a.inc();
        a.inc();
        b.inc();
        g.set(7);
        assert_eq!(
            reg.render(),
            "# TYPE t_requests_total counter\n\
             t_requests_total{endpoint=\"x\"} 2\n\
             t_requests_total{endpoint=\"y\"} 1\n\
             # TYPE t_depth gauge\n\
             t_depth 7\n"
        );
    }

    #[test]
    fn same_series_resolves_to_the_same_cells() {
        let reg = Registry::new();
        let a = reg.counter("t_total", &[("k", "v")]);
        let b = reg.counter("t_total", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn kind_mismatch_detaches_instead_of_panicking() {
        let reg = Registry::new();
        let c = reg.counter("t_mixed", &[]);
        let g = reg.gauge("t_mixed", &[]);
        c.inc();
        g.set(99);
        assert_eq!(c.get(), 1, "original series untouched");
        assert!(
            !reg.render().contains("99"),
            "the mismatched cells never render"
        );
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("t_lat_us", &[100, 1_000, u64::MAX], &[("op", "read")]);
        h.observe(50);
        h.observe(60);
        h.observe(500);
        h.observe(2_000_000);
        assert_eq!(h.count(), 4);
        assert_eq!(
            reg.render(),
            "# TYPE t_lat_us histogram\n\
             t_lat_us_bucket{op=\"read\",le=\"100\"} 2\n\
             t_lat_us_bucket{op=\"read\",le=\"1000\"} 3\n\
             t_lat_us_bucket{op=\"read\",le=\"+Inf\"} 4\n\
             t_lat_us_sum{op=\"read\"} 2000610\n\
             t_lat_us_count{op=\"read\"} 4\n"
        );
    }

    #[test]
    fn parser_inverts_render() {
        let reg = Registry::new();
        reg.counter("t_a_total", &[("x", "1")]).add(5);
        reg.gauge("t_b", &[]).set(9);
        let h = reg.histogram("t_c_us", &[10, u64::MAX], &[]);
        h.observe(3);
        h.observe(30);
        let parsed = parse_exposition(&reg.render()).expect("well-formed");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "t_a_total");
        assert_eq!(parsed[0].kind, "counter");
        assert_eq!(parsed[0].samples[0].value, 5);
        assert_eq!(parsed[0].samples[0].labels, vec![("x".into(), "1".into())]);
        assert_eq!(parsed[1].samples[0].value, 9);
        assert_eq!(parsed[2].kind, "histogram");
        let count = parsed[2]
            .samples
            .iter()
            .find(|s| s.name == "t_c_us_count")
            .map(|s| s.value);
        assert_eq!(count, Some(2));
    }

    #[test]
    fn malformed_lines_parse_to_none() {
        assert!(parse_exposition("nonsense with spaces but no value").is_none());
        assert!(parse_exposition("t_x{k=unquoted} 3").is_none());
        assert!(parse_exposition("orphan_sample 3").is_none(), "no family");
    }
}
