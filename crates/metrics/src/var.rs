//! Value at Risk and Tail Value at Risk.

use catrisk_simkit::stats::OrderStats;

/// Value at Risk at confidence `level` (e.g. 0.99): the `level`-quantile of
/// the annual loss distribution.
pub fn var(losses: &[f64], level: f64) -> f64 {
    assert!(!losses.is_empty(), "VaR of an empty loss vector");
    assert!(
        (0.0..1.0).contains(&level) || level == 1.0,
        "confidence level must be in [0, 1]"
    );
    OrderStats::new(losses).quantile(level)
}

/// Tail Value at Risk at confidence `level`: the mean of the losses at or
/// beyond the `level`-quantile (also called expected shortfall / conditional
/// tail expectation).
pub fn tvar(losses: &[f64], level: f64) -> f64 {
    assert!(!losses.is_empty(), "TVaR of an empty loss vector");
    assert!(
        (0.0..1.0).contains(&level) || level == 1.0,
        "confidence level must be in [0, 1]"
    );
    OrderStats::new(losses).tail_mean(level)
}

/// Computes VaR and TVaR at several confidence levels over one shared
/// [`OrderStats`] of the losses; returns `(level, var, tvar)` triples.
pub fn var_tvar_profile(losses: &[f64], levels: &[f64]) -> Vec<(f64, f64, f64)> {
    assert!(!losses.is_empty(), "profile of an empty loss vector");
    let mut stats = OrderStats::new(losses);
    levels
        .iter()
        .map(|&level| (level, stats.quantile(level), stats.tail_mean(level)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn losses() -> Vec<f64> {
        (1..=100).map(f64::from).collect()
    }

    #[test]
    fn var_is_quantile() {
        let l = losses();
        assert!((var(&l, 0.95) - 95.05).abs() < 0.1);
        assert!((var(&l, 0.5) - 50.5).abs() < 0.1);
        assert_eq!(var(&l, 1.0), 100.0);
        assert_eq!(var(&l, 0.0), 1.0);
    }

    #[test]
    fn tvar_at_least_var() {
        let l = losses();
        for level in [0.0, 0.5, 0.9, 0.95, 0.99] {
            assert!(
                tvar(&l, level) >= var(&l, level) - 1e-12,
                "TVaR must dominate VaR at level {level}"
            );
        }
        // TVaR at 0.95 of 1..=100 is the mean of 96..=100 = 98.
        assert!((tvar(&l, 0.95) - 98.0).abs() < 0.5);
    }

    #[test]
    fn profile_matches_individual_calls() {
        let l = losses();
        let profile = var_tvar_profile(&l, &[0.9, 0.99]);
        assert_eq!(profile.len(), 2);
        for (level, v, t) in profile {
            assert_eq!(v, var(&l, level));
            assert_eq!(t, tvar(&l, level));
        }
    }

    #[test]
    fn constant_losses_give_constant_metrics() {
        let l = vec![5.0; 50];
        assert_eq!(var(&l, 0.99), 5.0);
        assert_eq!(tvar(&l, 0.99), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_losses_panic() {
        var(&[], 0.9);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn bad_level_panics() {
        tvar(&[1.0], 1.5);
    }
}
