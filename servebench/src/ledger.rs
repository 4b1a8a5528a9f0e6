//! The `/metrics` ledger: the daemon's own counters, scraped in the untimed
//! gaps around each timed run, give every run a coarse layer split.

use std::collections::BTreeMap;
use std::net::SocketAddr;

/// One scrape: every sample of the exposition keyed by name and labels,
/// e.g. `wi_request_latency_us_sum{endpoint=extract}`.
#[derive(Default, Clone)]
pub struct Scrape(BTreeMap<String, u64>);

impl Scrape {
    /// Parses Prometheus text exposition as `wi-obs` renders it.
    pub fn parse(text: &str) -> Scrape {
        let families = wi_obs::parse_exposition(text).expect("well-formed /metrics exposition");
        let mut samples = BTreeMap::new();
        // Bucket series add nothing to a mean; only `_sum` and `_count`
        // are kept of a histogram.
        for sample in families
            .into_iter()
            .flat_map(|f| f.samples)
            .filter(|s| !s.name.ends_with("_bucket"))
        {
            samples.insert(key(&sample.name, &sample.labels), sample.value);
        }
        Scrape(samples)
    }

    /// `GET /metrics` over a fresh connection.
    pub fn fetch(addr: SocketAddr) -> Scrape {
        let response = wi_serve::client::get(addr, "/metrics").expect("GET /metrics");
        assert_eq!(
            response.status, 200,
            "GET /metrics answered {}",
            response.status
        );
        Scrape::parse(&response.text())
    }

    /// The process-wide `wi-obs` families (induction, maintenance,
    /// storage), read in-process while no daemon is up.
    pub fn global() -> Scrape {
        Scrape::parse(&wi_obs::Registry::global().render())
    }

    fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }
}

fn key(name: &str, labels: &[(String, String)]) -> String {
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", labels.join(","))
    }
}

/// The difference between two scrapes.
pub struct Delta {
    before: Scrape,
    after: Scrape,
}

impl Delta {
    /// `after − before`.
    pub fn new(before: Scrape, after: Scrape) -> Delta {
        Delta { before, after }
    }

    /// The change of one sample (gauges may shrink, hence signed).
    pub fn of(&self, key: &str) -> f64 {
        self.after.get(key) as f64 - self.before.get(key) as f64
    }

    /// The change of a sample summed over every label set of `name`.
    pub fn sum_of(&self, name: &str) -> f64 {
        let prefix = format!("{name}{{");
        self.after
            .0
            .keys()
            .chain(self.before.0.keys())
            .filter(|k| k.as_str() == name || k.starts_with(&prefix))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|k| self.of(k))
            .sum()
    }

    /// Mean of a latency histogram's new observations (`_sum / _count`),
    /// in the histogram's unit; 0 when nothing was observed.
    pub fn mean(&self, histogram: &str, labels: &str) -> f64 {
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        crate::stats::ratio(
            self.of(&format!("{histogram}_sum{suffix}")),
            self.of(&format!("{histogram}_count{suffix}")),
        )
    }

    /// Every sample of the families the ledger records that changed, as
    /// `key delta` lines: per-endpoint requests and latency, and the
    /// `wi_maintain_*`, `wi_registry_*` and `wi_induce_*` families.
    pub fn lines(&self) -> Vec<String> {
        const FAMILIES: [&str; 5] = [
            "wi_requests_total",
            "wi_request_latency_us",
            "wi_maintain_",
            "wi_registry_",
            "wi_induce_",
        ];
        self.after
            .0
            .keys()
            .filter(|k| FAMILIES.iter().any(|f| k.starts_with(f)))
            .filter_map(|k| {
                let delta = self.of(k);
                (delta != 0.0).then(|| format!("{k} {delta}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_means_come_from_labelled_samples() {
        let before = Scrape::parse(
            "# TYPE wi_request_latency_us histogram\n\
             wi_request_latency_us_sum{endpoint=\"extract\"} 100\n\
             wi_request_latency_us_count{endpoint=\"extract\"} 1\n",
        );
        let after = Scrape::parse(
            "# TYPE wi_request_latency_us histogram\n\
             wi_request_latency_us_sum{endpoint=\"extract\"} 700\n\
             wi_request_latency_us_count{endpoint=\"extract\"} 3\n",
        );
        let delta = Delta::new(before, after);
        assert_eq!(
            delta.mean("wi_request_latency_us", "endpoint=extract"),
            300.0
        );
        assert_eq!(delta.sum_of("wi_request_latency_us_count"), 2.0);
        assert_eq!(delta.lines().len(), 2);
    }
}
