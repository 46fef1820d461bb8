//! Metric values, summary statistics and the result line.

use codar_service::cache::fnv1a_extend;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness-gate violations; any one makes the run incorrect.
    pub gate_failures: Vec<String>,
    /// Extra human-readable lines (checks passed, accounting tables).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Records a correctness check: a note when it holds, a gate
    /// failure otherwise.
    pub fn check(&mut self, ok: bool, what: String) {
        if ok {
            self.notes.push(format!("ok: {what}"));
        } else {
            self.gate_failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }

    /// The human-readable report, then the one-line JSON result.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("{header}\n");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} {:<10} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let error_rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "  {:<34} {:>16.6} {:<10} ({} of {} failed)",
            "error_rate", error_rate, "ratio", self.failed, self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for failure in &self.gate_failures {
            let _ = writeln!(out, "  GATE FAILED: {failure}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite f64 in JSON (non-finite values cannot be written and
/// indicate a bug upstream).
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value:?}")
}

/// The `q`-quantile (nearest rank) of unsorted nanosecond samples, in
/// microseconds.
pub fn percentile_us(samples: &[u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Samples per window of the windowed statistics: enough for a p99
/// with ten samples beyond it.
pub const WINDOW: usize = 1000;

/// Median of values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of durations, in seconds.
pub fn median_s(samples: &[std::time::Duration]) -> f64 {
    median(
        &samples
            .iter()
            .map(std::time::Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    )
}

/// Splits `0..len` into consecutive windows of at least [`WINDOW`]
/// items (one window when there are fewer).
fn windows(len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let count = (len / WINDOW).max(1);
    let size = len / count;
    (0..count).map(move |w| w * size..if w + 1 == count { len } else { (w + 1) * size })
}

/// The median over consecutive windows of the `q`-quantile of each
/// window, in microseconds: a tail statistic that a burst of host
/// interference shorter than half the run cannot move.
pub fn windowed_percentile_us(samples_ns: &[u64], q: f64) -> f64 {
    let per_window: Vec<f64> = windows(samples_ns.len())
        .map(|range| percentile_us(&samples_ns[range], q))
        .collect();
    median(&per_window)
}

/// The median over the same windows of completions per second, from
/// each request's completion time on the run's measuring clock.
pub fn windowed_rate(completed_ns: &[u64]) -> f64 {
    let per_window: Vec<f64> = windows(completed_ns.len())
        .map(|range| {
            let start = if range.start == 0 {
                0
            } else {
                completed_ns[range.start - 1]
            };
            let elapsed = completed_ns[range.end - 1] - start;
            range.len() as f64 / (elapsed as f64 / 1e9)
        })
        .collect();
    median(&per_window)
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Folds one response line (plus its newline) into a stream checksum,
/// the same way loadgen's `response_stream_fnv` does.
pub fn fold_reply(hash: u64, reply: &str) -> u64 {
    fnv1a_extend(fnv1a_extend(hash, reply.as_bytes()), b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).map(|us| us * 1000).collect();
        assert_eq!(percentile_us(&samples, 0.5), 50.0);
        assert_eq!(percentile_us(&samples, 0.99), 99.0);
        assert_eq!(percentile_us(&[7000], 0.99), 7.0);
    }

    #[test]
    fn windowed_statistics_take_the_median_window() {
        // Three windows of 1000 samples; the middle one is slow.
        let mut samples = vec![1_000u64; 3 * WINDOW];
        samples[WINDOW..2 * WINDOW].fill(9_000);
        assert_eq!(windowed_percentile_us(&samples, 0.99), 1.0);
        let mut clock = 0;
        let completed: Vec<u64> = samples
            .iter()
            .map(|ns| {
                clock += ns;
                clock
            })
            .collect();
        assert_eq!(windowed_rate(&completed), 1e6);
        assert_eq!(windowed_percentile_us(&[5_000, 7_000], 0.5), 5.0);
    }

    #[test]
    fn result_line_is_last_and_well_formed() {
        let mut result = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        result.metric("latency_p50_us", "us", 12.5, 3);
        let text = result.render("header");
        let last = text.lines().last().expect("non-empty");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }
}
