//! Exceedance-probability (EP) curves.
//!
//! An EP curve gives, for each loss threshold, the annual probability that
//! the loss exceeds the threshold.  Built from year losses it is the AEP
//! (aggregate) curve; built from each trial's largest occurrence loss it is
//! the OEP (occurrence) curve.  PML at a return period `R` is the loss whose
//! exceedance probability is `1/R`.

use catrisk_simkit::stats::{quantile_sorted, OrderStats};
use serde::{Deserialize, Serialize};

/// An empirical exceedance-probability curve over simulated losses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExceedanceCurve {
    /// Losses sorted in ascending order.
    sorted_losses: Vec<f64>,
}

impl ExceedanceCurve {
    /// Builds a curve from per-trial losses (any order).
    pub fn new(losses: Vec<f64>) -> Self {
        assert!(
            !losses.is_empty(),
            "an exceedance curve needs at least one trial"
        );
        assert!(
            losses.iter().all(|l| l.is_finite() && *l >= -0.0),
            "losses must be finite and non-negative"
        );
        Self {
            sorted_losses: OrderStats::from_vec(losses).into_sorted(),
        }
    }

    /// Number of trials underlying the curve.
    pub fn num_trials(&self) -> usize {
        self.sorted_losses.len()
    }

    /// The sorted losses.
    pub fn sorted_losses(&self) -> &[f64] {
        &self.sorted_losses
    }

    /// Mean loss.
    pub fn mean(&self) -> f64 {
        self.sorted_losses.iter().sum::<f64>() / self.sorted_losses.len() as f64
    }

    /// Probability that the annual loss exceeds `threshold`.
    pub fn exceedance_probability(&self, threshold: f64) -> f64 {
        let above = self.sorted_losses.partition_point(|&l| l <= threshold);
        (self.sorted_losses.len() - above) as f64 / self.sorted_losses.len() as f64
    }

    /// The loss at exceedance probability `p` (0 < p <= 1), i.e. the
    /// `(1 − p)`-quantile of the loss distribution.
    pub fn loss_at_probability(&self, p: f64) -> f64 {
        loss_at_probability(p, |q| quantile_sorted(&self.sorted_losses, q))
    }

    /// The loss at a return period of `years` (the PML at that return
    /// period): the loss exceeded with probability `1/years`.
    pub fn loss_at_return_period(&self, years: f64) -> f64 {
        loss_at_return_period(years, |q| quantile_sorted(&self.sorted_losses, q))
    }

    /// The empirical return period of a loss threshold (∞ when the threshold
    /// was never exceeded).
    pub fn return_period_of(&self, threshold: f64) -> f64 {
        let p = self.exceedance_probability(threshold);
        if p == 0.0 {
            f64::INFINITY
        } else {
            1.0 / p
        }
    }

    /// Samples the curve at `n` evenly spaced exceedance probabilities,
    /// returning `(probability, loss)` pairs from most to least likely —
    /// the series plotted as an EP curve.
    pub fn curve_points(&self, n: usize) -> Vec<(f64, f64)> {
        curve_points(self.num_trials(), n, |q| {
            quantile_sorted(&self.sorted_losses, q)
        })
    }
}

// The curve's formulas over any source of loss quantiles: `quantile(q)`
// is the type-7 `q`-quantile of the trials' losses — `quantile_sorted` of
// a curve's sorted losses, or `OrderStats::quantile` for callers (the
// query engine) that never sort the whole vector.

fn loss_at_probability(p: f64, quantile: impl FnOnce(f64) -> f64) -> f64 {
    assert!(
        p > 0.0 && p <= 1.0,
        "exceedance probability must be in (0, 1], got {p}"
    );
    quantile(1.0 - p)
}

/// [`ExceedanceCurve::loss_at_return_period`] over a quantile source.
pub fn loss_at_return_period(years: f64, quantile: impl FnOnce(f64) -> f64) -> f64 {
    assert!(
        years >= 1.0,
        "return period must be at least 1 year, got {years}"
    );
    loss_at_probability(1.0 / years, quantile)
}

/// [`ExceedanceCurve::curve_points`] over a quantile source of `trials`
/// losses.
pub fn curve_points(
    trials: usize,
    n: usize,
    mut quantile: impl FnMut(f64) -> f64,
) -> Vec<(f64, f64)> {
    assert!(n >= 2, "need at least two points");
    let mut point = |i: usize| {
        // Probabilities from 1.0 down to 1/num_trials.
        let lo = 1.0 / trials as f64;
        let p = 1.0 - (1.0 - lo) * (i as f64 / (n - 1) as f64);
        (p, loss_at_probability(p, &mut quantile))
    };
    // Points are read middle-out, bisecting the grid, so a source that
    // selects lazily narrows to the interval between points it already
    // placed instead of rescanning everything above the last one.  The
    // order of reads cannot change a value.
    let mut points = vec![(0.0, 0.0); n];
    let mut spans = vec![(0, n)];
    while let Some((start, end)) = spans.pop() {
        if start < end {
            let mid = start + (end - start) / 2;
            points[mid] = point(mid);
            spans.extend([(start, mid), (mid + 1, end)]);
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> ExceedanceCurve {
        // 10 trials with losses 0..=9 (in shuffled order).
        ExceedanceCurve::new(vec![3.0, 9.0, 1.0, 7.0, 0.0, 5.0, 2.0, 8.0, 6.0, 4.0])
    }

    #[test]
    fn exceedance_probability_counts_strictly_greater() {
        let c = curve();
        assert_eq!(c.num_trials(), 10);
        assert_eq!(c.exceedance_probability(-1.0), 1.0);
        assert_eq!(c.exceedance_probability(0.0), 0.9);
        assert_eq!(c.exceedance_probability(4.5), 0.5);
        assert_eq!(c.exceedance_probability(9.0), 0.0);
        assert_eq!(c.exceedance_probability(100.0), 0.0);
        assert!((c.mean() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn loss_at_probability_is_upper_quantile() {
        let c = curve();
        // p = 0.5 -> median-ish (type-7 quantile of 0.5 over 0..9 = 4.5).
        assert!((c.loss_at_probability(0.5) - 4.5).abs() < 1e-12);
        // Very likely exceedance -> small loss.
        assert_eq!(c.loss_at_probability(1.0), 0.0);
        // Rare exceedance -> large loss.
        assert!(c.loss_at_probability(0.1) >= 8.0);
    }

    #[test]
    fn return_period_round_trip() {
        let c = curve();
        let loss_100 = c.loss_at_return_period(10.0);
        assert!(loss_100 >= 8.0);
        assert!(c.return_period_of(8.9) >= 10.0 - 1e-9);
        assert_eq!(c.return_period_of(9.0), f64::INFINITY);
        assert!((c.return_period_of(4.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn curve_points_are_monotone() {
        let c = curve();
        let pts = c.curve_points(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[0].0 >= w[1].0, "probabilities descend");
            assert!(w[0].1 <= w[1].1 + 1e-12, "losses ascend");
        }
    }

    #[test]
    fn pml_monotone_in_return_period() {
        let c = curve();
        let mut prev = 0.0;
        for rp in [1.0, 2.0, 5.0, 10.0] {
            let pml = c.loss_at_return_period(rp);
            assert!(pml + 1e-12 >= prev, "PML must grow with return period");
            prev = pml;
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_losses_panic() {
        ExceedanceCurve::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_losses_panic() {
        ExceedanceCurve::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "return period")]
    fn bad_return_period_panics() {
        curve().loss_at_return_period(0.5);
    }

    #[test]
    fn serde_round_trip() {
        let c = curve();
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<ExceedanceCurve>(&json).unwrap(), c);
    }
}
