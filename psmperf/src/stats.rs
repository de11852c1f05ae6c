//! Sample summaries: median, quartiles and supported tail percentiles.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(data, n=4)`, the same rule the two-commit
//! comparison applies to whole runs, so a run's own spread and the
//! comparison's spread are computed alike.

/// A summary of one sample of measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for even counts).
    pub median: f64,
    /// First quartile (exclusive method; the median for fewer than two
    /// samples).
    pub p25: f64,
    /// Third quartile (exclusive method; the median for fewer than two
    /// samples).
    pub p75: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (p25, p75) = if n < 2 {
            (median, median)
        } else {
            (quartile(&sorted, 1), quartile(&sorted, 3))
        };
        Some(Summary {
            n,
            median,
            p25,
            p75,
            min: sorted[0],
            max: sorted[n - 1],
            sorted,
        })
    }

    /// The `q`-quantile (nearest rank), but only when at least ten samples
    /// lie above it; a tail percentile with fewer is noise.
    pub fn supported_percentile(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.n as f64).ceil() as usize).clamp(1, self.n);
        (self.n - rank >= 10).then(|| self.sorted[rank - 1])
    }

    /// The `q`-quantile (nearest rank) regardless of support.
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as usize).clamp(1, self.n);
        self.sorted[rank - 1]
    }
}

/// Quartile `i` (1 or 3) of a sorted sample of at least two values, as
/// Python's `statistics.quantiles(data, n=4, method="exclusive")`.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_and_empty() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75, s.n), (4.0, 4.0, 4.0, 1));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.supported_percentile(0.99), Some(990.0));
        assert_eq!(s.supported_percentile(0.995), None);
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert_eq!(s.supported_percentile(0.99), None);
        assert_eq!(s.supported_percentile(0.9), Some(90.0));
        assert_eq!(s.percentile(0.99), 99.0);
    }
}
