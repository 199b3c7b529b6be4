//! Sample summaries and the result line.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, together with the
//! sample count, so a tail figure is never read off a handful of points.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer tenths of a percent so 99.9% of 10000 is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// "median 12.3 ms, p95 40.1 ms, n=400" (the tail only when it is backed by
/// enough samples).
pub fn describe_timing(samples: &[f64], unit: &str) -> String {
    if samples.is_empty() {
        return "no samples".into();
    }
    let mut s = format!("median {:.4} {unit}", median(samples));
    match tail_percentile(samples.len()) {
        Some(p) if p > 50.0 => {
            let _ = write!(s, ", p{p} {:.4} {unit}", percentile(samples, p));
        }
        _ => s.push_str(", no tail (too few samples)"),
    }
    let _ = write!(s, ", n={}", samples.len());
    s
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports: metrics, accounting, and any failed check.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn problem(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("[mapbench] CHECK FAILED: {why}");
        self.problems.push(why);
    }

    /// Record a check: `ok` or a problem described by `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.problem(why());
        }
    }

    /// Keep only the named metrics, in that order; each must have been
    /// measured, in the listed unit.
    pub fn select(&mut self, wanted: &[(&str, &str)]) {
        let mut kept = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.unit == *unit => kept.push(m.clone()),
                Some(m) => self.problem(format!("metric {name} is in {}, not {unit}", m.unit)),
                None => self.problem(format!("metric {name} was not measured")),
            }
        }
        self.metrics = kept;
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 200 samples leaves exactly 10 above it; 199 leaves 9.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(tail_percentile(199), Some(90.0));
        // p99 needs 1000 samples, p99.9 needs 10000.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Small sets fall back to lower percentiles, then to none at all.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn describe_timing_reports_count_and_supported_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = describe_timing(&v, "ms");
        assert!(s.contains("p95 190.0000 ms") && s.contains("n=200"), "{s}");
        let s = describe_timing(&v[..15], "ms");
        assert!(s.contains("no tail"), "{s}");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        o.put("setup_s", 0.25, "s");
        let j = o.json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.select(&[("setup_s", "s"), ("missing", "s")]);
        assert!(!o.correct());
    }
}
