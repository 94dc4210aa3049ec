//! The benchmark's latency recorder: every sample is kept, so reported
//! percentiles are exact order statistics rather than bucket edges.

use std::time::Duration;

/// Raw latency samples in nanoseconds. A failed operation is recorded as
/// [`Recorder::FAILED`], which sorts above every real sample, so it misses
/// every latency limit.
#[derive(Default, Clone)]
pub struct Recorder {
    ns: Vec<u64>,
    sorted: bool,
}

impl Recorder {
    /// The sample a failed operation contributes.
    pub const FAILED: u64 = u64::MAX;

    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Records one completed operation.
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(Self::FAILED - 1));
    }

    /// Records one sample given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Records one failed operation.
    pub fn record_failure(&mut self) {
        self.record_ns(Self::FAILED);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: &Recorder) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Sum of all samples in microseconds (failed samples excluded).
    pub fn sum_us(&self) -> f64 {
        self.ns
            .iter()
            .filter(|&&n| n != Self::FAILED)
            .map(|&n| n as f64 / 1e3)
            .sum()
    }

    /// Mean in microseconds, 0 without samples.
    pub fn mean_us(&mut self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.sum_us() / self.ns.len() as f64
        }
    }

    /// The nearest-rank `q` quantile in microseconds: the smallest sample
    /// with at least `q` of all samples at or below it. 0 without samples.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let n = self.ns.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.ns[rank - 1] as f64 / 1e3
    }

    /// Median in microseconds.
    pub fn p50_us(&mut self) -> f64 {
        self.quantile_us(0.5)
    }

    /// Samples strictly above the nearest-rank `q` quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.ns.len();
        if n == 0 {
            return 0;
        }
        n - ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The tail this sample supports: the highest percentile of
    /// [`TAIL_LADDER`] with at least 10 samples beyond it (p50 at least).
    pub fn supported_tail(&self) -> f64 {
        TAIL_LADDER
            .iter()
            .rev()
            .copied()
            .find(|&q| self.beyond(q) >= 10)
            .unwrap_or(0.5)
    }
}

/// Percentiles a tail may be reported at.
pub const TAIL_LADDER: [f64; 9] = [0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999, 0.99999];

/// `0.999` → `"p99.9"`.
pub fn tail_label(q: f64) -> String {
    let pct = format!("{:.3}", q * 100.0);
    format!("p{}", pct.trim_end_matches('0').trim_end_matches('.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng64;

    /// Exact order statistic by definition: sort and index.
    fn exact(samples: &[u64], q: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1] as f64 / 1e3
    }

    #[test]
    fn known_sample_gives_exact_order_statistics() {
        // 1..=1000 µs in a shuffled order.
        let mut rng = Rng64::new(11);
        let mut values: Vec<u64> = (1..=1000).map(|us| us * 1000).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut rec = Recorder::new();
        for &v in &values {
            rec.record_ns(v);
        }
        assert_eq!(rec.p50_us(), 500.0);
        assert_eq!(rec.quantile_us(0.99), 990.0);
        assert_eq!(rec.quantile_us(0.999), 999.0);
        assert_eq!(rec.beyond(0.99), 10);
        assert_eq!(rec.supported_tail(), 0.99);
        assert_eq!(tail_label(rec.supported_tail()), "p99");
    }

    #[test]
    fn matches_exact_statistics_on_random_samples() {
        let mut rng = Rng64::new(5);
        for n in [1usize, 2, 7, 100, 1001, 54_321] {
            let samples: Vec<u64> = (0..n).map(|_| rng.below(1 << 30)).collect();
            let mut rec = Recorder::new();
            for &s in &samples {
                rec.record_ns(s);
            }
            for q in TAIL_LADDER {
                assert_eq!(rec.quantile_us(q), exact(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut rec = Recorder::new();
        for _ in 0..9 {
            rec.record(Duration::from_micros(5));
        }
        rec.record_failure();
        assert_eq!(rec.p50_us(), 5.0);
        assert!(rec.quantile_us(0.99) > 1e12);
        assert_eq!(rec.sum_us(), 45.0);
    }

    #[test]
    fn tail_labels() {
        assert_eq!(tail_label(0.999), "p99.9");
        assert_eq!(tail_label(0.9999), "p99.99");
        assert_eq!(tail_label(0.5), "p50");
    }
}
