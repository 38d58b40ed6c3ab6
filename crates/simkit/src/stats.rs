//! Running statistics and the scalar loss kernels: quantiles and tail
//! means of sorted slices.
//!
//! These primitives back the Year Loss Table analytics in `catrisk-metrics`
//! (PML, VaR, TVaR) and the distribution checks in the test suites.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance/min/max accumulator
/// (Welford's online algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds every observation in a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// Coefficient of variation (std/mean), 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Mean of a loss vector (0 when empty).
///
/// The shared scalar kernel behind `YearLossTable::mean_loss` and the query
/// engine's `mean` aggregate — both call this, so their results agree by
/// construction.
pub fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation (`n` divisor; 0 when fewer than two
/// observations), shared by `YearLossTable::loss_std_dev` and the query
/// engine's `stddev` aggregate.
pub fn population_std_dev(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mean = mean_or_zero(values);
    let variance = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    variance.sqrt()
}

/// Largest value, folding from 0 (so it is 0 when empty — losses are
/// non-negative), shared by `YearLossTable::max_loss` and the query
/// engine's `maxloss` aggregate.
pub fn max_or_zero(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Fraction of strictly positive values (0 when empty), shared by
/// `YearLossTable::nonzero_fraction` and the query engine's `attach`
/// aggregate.
pub fn positive_fraction(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().filter(|&&x| x > 0.0).count() as f64 / values.len() as f64
    }
}

/// Linear-interpolation quantile (R type-7 / Excel `PERCENTILE.INC`) of a
/// **sorted ascending** slice.
///
/// `q` is clamped into `[0, 1]`.  Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Mean of the observations at or above quantile `q` of a sorted slice —
/// the empirical tail conditional expectation used by TVaR.
pub fn tail_mean_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "tail_mean of empty slice");
    let q = q.clamp(0.0, 1.0);
    let start = ((sorted.len() as f64) * q).floor() as usize;
    let start = start.min(sorted.len() - 1);
    let tail = &sorted[start..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        s.extend(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 10.0);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!(s.std_error() > 0.0);
        assert!(s.cv() > 0.0);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.variance(), 0.0);
        let mut s = RunningStats::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        whole.extend(&data);
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        a.extend(&data[..400]);
        b.extend(&data[400..]);
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());

        let mut empty = RunningStats::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        let mut w2 = whole;
        w2.merge(&RunningStats::new());
        assert_eq!(w2.count(), whole.count());
    }

    #[test]
    fn quantile_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert!((quantile_sorted(&v, 0.25) - 2.0).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.1) - 1.4).abs() < 1e-12);
        // Clamping out-of-range q.
        assert_eq!(quantile_sorted(&v, -1.0), 1.0);
        assert_eq!(quantile_sorted(&v, 2.0), 5.0);
        // Single element.
        assert_eq!(quantile_sorted(&[9.0], 0.3), 9.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn tail_mean_matches_manual() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        // Top 20% = {9, 10}
        assert!((tail_mean_sorted(&v, 0.8) - 9.5).abs() < 1e-12);
        // q = 0 is the plain mean.
        assert!((tail_mean_sorted(&v, 0.0) - 5.5).abs() < 1e-12);
        // q = 1 degenerates to the maximum.
        assert_eq!(tail_mean_sorted(&v, 1.0), 10.0);
    }
}
