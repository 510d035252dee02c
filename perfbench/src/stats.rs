//! Sample summaries, prediction digests, and the metric report.

use serde::Value;

/// Nearest rank of the `permille`-th per-mille among `n` samples, 1-based.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending), in per-mille.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing as the benchmark reports it: the median, plus the highest
/// of p99.9/p99/p95/p90/p75 that has at least ten samples beyond it.
#[derive(Debug, Clone)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(&'static str, f64)>,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = [
            ("p99.9", 999),
            ("p99", 990),
            ("p95", 950),
            ("p90", 900),
            ("p75", 750),
        ]
        .into_iter()
        .find(|&(_, p)| n > 0 && n - rank(n, p) >= 10)
        .map(|(name, p)| (name, percentile(&v, p)));
        Timing {
            n,
            p50: median(&v),
            tail,
        }
    }

    /// The `permille`-th per-mille itself (callers check the sample count).
    pub fn at(samples: &[f64], permille: usize) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, permille)
    }

    pub fn describe(&self) -> String {
        match self.tail {
            Some((name, v)) => format!("n={} {name}={v:.4}", self.n),
            None => format!("n={} (too few samples for a tail percentile)", self.n),
        }
    }
}

/// FNV-1a digest over predictions: the f64 bits of each speedup followed
/// by its predicted cycles, in evaluation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, speedup: f64, predicted_cycles: u64) {
        for b in speedup
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(predicted_cycles.to_le_bytes())
        {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn parse(hex: &str) -> Option<Digest> {
        u64::from_str_radix(hex, 16).ok().map(Digest)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and tail, or how the value was derived.
    pub note: String,
}

/// The metrics of one run plus its correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed and written to the result file, but left off the last
    /// line, which carries only the metrics `BENCHMARK.json` bounds.
    pub ungated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    pub fn put_ungated(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.ungated.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// A timing in gauge-scaled units (gauge.rs), with the median of the
    /// same samples as measured in the note.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64], raw: &[f64]) {
        let t = Timing::of(samples);
        let note = format!("gauge-scaled {}; on-CPU median {:.4}", t.describe(), median(raw));
        self.put(name, t.p50, unit, note);
    }

    /// Count `n` operations, `bad` of which failed their check.
    pub fn tally(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.problems.push(format!("{bad} of {n} {what} failed"));
        }
    }

    pub fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The machine-read last line: `correct`, `attempted`, `failed`, and
    /// every metric with its unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let root = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&root).expect("serialise result line")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Timing::of(&v);
        assert_eq!(t.tail.map(|(n, _)| n), Some("p90"));
        assert_eq!(t.p50, 50.5);
        assert!(Timing::of(&v[..20]).tail.is_none());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(1.5, 2);
        a.add(2.5, 3);
        b.add(2.5, 3);
        b.add(1.5, 2);
        assert_ne!(a, b);
    }
}
