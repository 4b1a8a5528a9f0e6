//! Order statistics, and process and machine accounting read from
//! `/proc`.

use crate::workload::Sample;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples a latency window must hold beyond its quantile.
const MIN_BEYOND: f64 = 10.0;

/// What the sampler reads at every whole second of a timed phase.
#[derive(Clone, Copy, Default)]
pub struct Mark {
    /// Process CPU time so far (s).
    pub cpu_s: f64,
    /// Machine-wide CPU time the hypervisor withheld so far (ticks).
    pub steal: f64,
}

impl Mark {
    /// Reads both counters now.
    pub fn now() -> Mark {
        Mark {
            cpu_s: process_cpu_s(),
            steal: steal_ticks(),
        }
    }
}

/// Statistics over the quiet seconds of a timed phase.
///
/// On the shared machine the hypervisor withholds CPU in bursts (`steal`
/// in `/proc/stat`), and per-second throughput and latency follow it
/// closely.  Only the seconds with at most the run's median steal count —
/// the quieter half, or every second where the kernel reports no steal —
/// and a value is the median over those seconds, so a burst neither on the
/// program nor on its inputs moves it.
pub struct Windows<'a> {
    samples: &'a [Sample],
    /// Per second: CPU time and whether it was quiet.
    seconds: Vec<(f64, bool)>,
}

impl<'a> Windows<'a> {
    /// Windows over the seconds delimited by `marks`.
    pub fn new(samples: &'a [Sample], marks: &[Mark]) -> Windows<'a> {
        let steal: Vec<f64> = marks.windows(2).map(|m| m[1].steal - m[0].steal).collect();
        let threshold = median(&steal);
        let seconds = marks
            .windows(2)
            .zip(&steal)
            .map(|(m, &steal)| (m[1].cpu_s - m[0].cpu_s, steal <= threshold))
            .collect();
        Windows { samples, seconds }
    }

    /// How many of the seconds were quiet.
    pub fn quiet_seconds(&self) -> usize {
        self.seconds.iter().filter(|&&(_, quiet)| quiet).count()
    }

    /// The second a sample completed in.
    fn second_of(&self, sample: &Sample) -> usize {
        (sample.end_s as usize).min(self.seconds.len().saturating_sub(1))
    }

    fn ops_per_second(&self) -> Vec<f64> {
        let mut ops = vec![0.0; self.seconds.len()];
        for sample in self.samples {
            ops[self.second_of(sample)] += sample.ops as f64;
        }
        ops
    }

    /// Median over the quiet seconds of the operations completed.
    pub fn ops_per_s(&self) -> f64 {
        let ops: Vec<f64> = self
            .ops_per_second()
            .into_iter()
            .zip(&self.seconds)
            .filter(|(_, &(_, quiet))| quiet)
            .map(|(ops, _)| ops)
            .collect();
        median(&ops)
    }

    /// Median over the quiet seconds of CPU seconds per operation.
    pub fn cpu_s_per_op(&self) -> f64 {
        let per_op: Vec<f64> = self
            .ops_per_second()
            .into_iter()
            .zip(&self.seconds)
            .filter(|&(ops, &(_, quiet))| quiet && ops > 0.0)
            .map(|(ops, &(cpu, _))| cpu / ops)
            .collect();
        median(&per_op)
    }

    /// The `q`-quantile of latency: the median over windows of each
    /// window's quantile.  A window is a run of consecutive quiet seconds
    /// holding [`MIN_BEYOND`] samples beyond the quantile (all quiet
    /// seconds together when they hold fewer).
    pub fn latency_ms(&self, q: f64) -> f64 {
        let per_window = (MIN_BEYOND / (1.0 - q)).ceil() as usize;
        let mut by_second = vec![Vec::new(); self.seconds.len()];
        for sample in self.samples {
            by_second[self.second_of(sample)].push(sample.ms);
        }
        let mut windows: Vec<Vec<f64>> = vec![Vec::new()];
        for (latencies, &(_, quiet)) in by_second.into_iter().zip(&self.seconds) {
            if !quiet {
                continue;
            }
            let open = windows.last_mut().expect("at least one window");
            if open.len() >= per_window {
                windows.push(latencies);
            } else {
                open.extend(latencies);
            }
        }
        // A short last window joins the one before it.
        if windows.len() > 1 && windows[windows.len() - 1].len() < per_window {
            let last = windows.pop().expect("checked length");
            windows.last_mut().expect("checked length").extend(last);
        }
        let quantiles: Vec<f64> = windows.iter().map(|w| quantile(w, q)).collect();
        median(&quantiles)
    }
}

/// The median of the values measured with at most the median steal rate:
/// `(value, steal ticks per second while it was measured)` pairs.
pub fn quiet_median(measured: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = measured.iter().map(|&(_, rate)| rate).collect();
    let threshold = median(&rates);
    let quiet: Vec<f64> = measured
        .iter()
        .filter(|&&(_, rate)| rate <= threshold)
        .map(|&(value, _)| value)
        .collect();
    median(&quiet)
}

/// CPU time the hypervisor withheld from the whole machine so far
/// (`steal` of `/proc/stat`, in ticks); 0 where the kernel reports none.
pub fn steal_ticks() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            // `cpu user nice system idle iowait irq softirq steal ...`
            stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux target this runs on).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time (user + system) consumed by the whole process so far, threads
/// that already exited included.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields[11..=12]
        .iter()
        .map(|f| f.parse::<f64>().expect("numeric cpu ticks"))
        .sum();
    ticks / CLOCK_TICKS_PER_S
}

/// Peak resident set size of the process (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_median_skips_stolen_measurements() {
        let measured = [(1.0, 0.0), (1.2, 0.0), (3.0, 40.0), (1.1, 1.0), (2.5, 30.0)];
        assert_eq!(quiet_median(&measured), 1.1);
        assert_eq!(quiet_median(&[(2.0, 0.0), (4.0, 0.0)]), 3.0);
    }

    #[test]
    fn windows_keep_the_quiet_seconds() {
        let samples: Vec<Sample> = (0..40)
            .map(|i| Sample {
                end_s: i as f64 / 10.0,
                ms: if i < 20 { 1.0 } else { 9.0 },
                ops: 1,
            })
            .collect();
        // Seconds 2 and 3 lose CPU to the hypervisor; 0 and 1 are quiet.
        let marks: Vec<Mark> = [(0.0, 0.0), (0.1, 0.0), (0.3, 0.0), (0.4, 50.0), (0.5, 90.0)]
            .iter()
            .map(|&(cpu_s, steal)| Mark { cpu_s, steal })
            .collect();
        let windows = Windows::new(&samples, &marks);
        assert_eq!(windows.ops_per_s(), 10.0);
        assert!((windows.cpu_s_per_op() - 0.015).abs() < 1e-12);
        assert_eq!(windows.latency_ms(0.5), 1.0);

        // Without steal every second counts.
        let flat: Vec<Mark> = marks.iter().map(|m| Mark { steal: 0.0, ..*m }).collect();
        assert_eq!(Windows::new(&samples, &flat).latency_ms(0.5), 5.0);
    }
}
