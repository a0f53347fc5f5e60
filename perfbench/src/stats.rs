//! The percentile rule every latency metric follows.
//!
//! A failed request counts as `+∞`, so it misses every latency limit and
//! pushes each percentile up. Percentiles are nearest-rank: the value at
//! sorted position `ceil(p/100 · n)` (1-based), with the number of samples
//! beyond that position reported beside it. A percentile is trustworthy
//! only with at least [`MIN_BEYOND`] samples beyond it.

/// Samples a percentile needs beyond it before it counts as measured.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100]`.
    pub p: f64,
    /// Its value (`+∞` when it lands on a failed request, `NaN` on an
    /// empty sample).
    pub value: f64,
    /// Number of samples, failures included.
    pub n: usize,
    /// Samples strictly beyond the percentile's sorted position.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile to trust it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// A latency sample: finite values in any order plus a failure count.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    values: Vec<f64>,
    failures: usize,
    sorted: bool,
}

impl Sample {
    /// An empty sample.
    pub fn new() -> Self {
        Sample::default()
    }

    /// Records one measured value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Records one failed request (`+∞`).
    pub fn push_failure(&mut self) {
        self.failures += 1;
    }

    /// Number of samples, failures included.
    pub fn len(&self) -> usize {
        self.values.len() + self.failures
    }

    /// The nearest-rank `p`-th percentile, failures sorting last as `+∞`.
    pub fn percentile(&mut self, p: f64) -> Percentile {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.len();
        if n == 0 {
            return Percentile {
                p,
                value: f64::NAN,
                n,
                beyond: 0,
            };
        }
        let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        let value = self.values.get(rank - 1).copied().unwrap_or(f64::INFINITY);
        Percentile {
            p,
            value,
            n,
            beyond: n - rank,
        }
    }
}

/// Collects measured values, `None` counting as a failure.
impl FromIterator<Option<f64>> for Sample {
    fn from_iter<I: IntoIterator<Item = Option<f64>>>(values: I) -> Self {
        let mut sample = Sample::new();
        for value in values {
            match value {
                Some(v) => sample.push(v),
                None => sample.push_failure(),
            }
        }
        sample
    }
}

/// Median of a non-empty list (mean of the middle pair on even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_beyond_counts() {
        let mut s = Sample::new();
        for v in (1..=200).rev() {
            s.push(f64::from(v));
        }
        let p50 = s.percentile(50.0);
        assert_eq!((p50.value, p50.n, p50.beyond), (100.0, 200, 100));
        let p99 = s.percentile(99.0);
        assert_eq!((p99.value, p99.beyond), (198.0, 2));
        assert!(!p99.supported());
        let p90 = s.percentile(90.0);
        assert_eq!((p90.value, p90.beyond), (180.0, 20));
        assert!(p90.supported());
        assert_eq!(s.percentile(100.0).beyond, 0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut s = Sample::new();
        for v in 0..98 {
            s.push(f64::from(v));
        }
        s.push_failure();
        s.push_failure();
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(98.0).value, 97.0);
        assert_eq!(s.percentile(99.0).value, f64::INFINITY);
        // The failures raise the median's position too.
        assert_eq!(s.percentile(50.0).value, 49.0);
        let collected: Sample = [Some(2.0), None, Some(1.0)].into_iter().collect();
        assert_eq!(
            (collected.len(), collected.clone().percentile(50.0).value),
            (3, 2.0)
        );
        let mut only_failed = Sample::new();
        only_failed.push_failure();
        assert_eq!(only_failed.percentile(50.0).value, f64::INFINITY);
    }

    #[test]
    fn empty_and_tiny_samples() {
        assert!(Sample::new().percentile(50.0).value.is_nan());
        let mut one = Sample::new();
        one.push(3.5);
        let p = one.percentile(99.0);
        assert_eq!((p.value, p.beyond), (3.5, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
