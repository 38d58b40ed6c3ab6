//! Probability distributions implemented from first principles.
//!
//! The catastrophe-model substrate and the Year Event Table generator need
//! a small set of classical distributions:
//!
//! * **frequency** — how many events of a given kind occur in a contractual
//!   year: [`Poisson`], [`NegativeBinomial`];
//! * **severity** — how large a loss is given that an event occurred:
//!   [`LogNormal`], [`Pareto`], [`Gamma`], [`Beta`] (damage ratios);
//! * **auxiliary** — [`Uniform`], and [`Normal`] (which `LogNormal` and
//!   `Gamma` draw from).
//!
//! Discrete sampling over weighted categories is
//! [`AliasTable`](crate::sampling::AliasTable), O(1) per draw.
//!
//! All samplers draw from a [`SimRng`] and implement the [`Distribution`]
//! trait so callers can be generic over the severity model.

use crate::rng::SimRng;
use crate::{ParamError, Result};

/// A distribution from which values of type `T` can be sampled.
pub trait Distribution<T> {
    /// Draws one sample using the provided generator.
    fn sample(&self, rng: &mut SimRng) -> T;

    /// Draws `n` samples into a vector.
    fn sample_n(&self, rng: &mut SimRng, n: usize) -> Vec<T>
    where
        T: Sized,
    {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

// ---------------------------------------------------------------------------
// Continuous distributions
// ---------------------------------------------------------------------------

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
            return Err(ParamError::new(format!(
                "Uniform requires lo < hi, got [{lo}, {hi})"
            )));
        }
        Ok(Self { lo, hi })
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Distribution<f64> for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.uniform()
    }
}

/// Standard normal distribution scaled to mean `mu`, standard deviation `sigma`.
///
/// Sampling uses the Marsaglia polar method, which requires no trigonometric
/// functions and rejects ~21% of candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard deviation.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !sigma.is_finite() || sigma < 0.0 || !mu.is_finite() {
            return Err(ParamError::new(format!(
                "Normal requires sigma >= 0, got mu={mu} sigma={sigma}"
            )));
        }
        Ok(Self { mu, sigma })
    }

    /// Mean μ.
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// Standard deviation σ.
    pub fn std_dev(&self) -> f64 {
        self.sigma
    }

    /// Draws a standard normal variate.
    pub fn standard(rng: &mut SimRng) -> f64 {
        loop {
            let u = 2.0 * rng.uniform() - 1.0;
            let v = 2.0 * rng.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution<f64> for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mu + self.sigma * Normal::standard(rng)
    }
}

/// Log-normal distribution parameterised by the mean and standard deviation
/// of the underlying normal (`mu`, `sigma`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Creates a log-normal distribution with log-space parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        Ok(Self {
            normal: Normal::new(mu, sigma)?,
        })
    }

    /// Creates a log-normal distribution matching a target arithmetic mean
    /// and coefficient of variation (std/mean), which is how loss severities
    /// are usually specified in catastrophe modelling.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self> {
        if !(mean.is_finite() && mean > 0.0 && cv.is_finite() && cv >= 0.0) {
            return Err(ParamError::new(format!(
                "LogNormal::from_mean_cv requires mean > 0, cv >= 0, got mean={mean} cv={cv}"
            )));
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// Arithmetic mean `exp(mu + sigma^2/2)`.
    pub fn mean(&self) -> f64 {
        (self.normal.mean() + 0.5 * self.normal.std_dev().powi(2)).exp()
    }
}

impl Distribution<f64> for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Gamma distribution with shape `k` and scale `theta`.
///
/// Uses the Marsaglia–Tsang squeeze method for `k >= 1` and the Ahrens–Dieter
/// boost `Gamma(k) = Gamma(k+1) * U^(1/k)` for `k < 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and scale.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !(shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0) {
            return Err(ParamError::new(format!(
                "Gamma requires shape > 0 and scale > 0, got {shape}, {scale}"
            )));
        }
        Ok(Self { shape, scale })
    }

    /// Shape parameter k.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter θ.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Mean kθ.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn sample_standard(shape: f64, rng: &mut SimRng) -> f64 {
        if shape < 1.0 {
            let u = rng.uniform_open();
            return Self::sample_standard(shape + 1.0, rng) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::standard(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.uniform_open();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Distribution<f64> for Gamma {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        Self::sample_standard(self.shape, rng) * self.scale
    }
}

/// Beta distribution on `[0, 1]`, used for damage ratios in the
/// vulnerability module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Creates a beta distribution with the given shape parameters.
    pub fn new(alpha: f64, beta: f64) -> Result<Self> {
        if !(alpha.is_finite() && alpha > 0.0 && beta.is_finite() && beta > 0.0) {
            return Err(ParamError::new(format!(
                "Beta requires alpha > 0 and beta > 0, got {alpha}, {beta}"
            )));
        }
        Ok(Self { alpha, beta })
    }

    /// Creates a beta distribution matching a target mean and standard
    /// deviation, the parameterisation used for secondary uncertainty of
    /// damage ratios.  The requested standard deviation is clamped to the
    /// maximum feasible value for the mean.
    pub fn from_mean_sd(mean: f64, sd: f64) -> Result<Self> {
        if !(0.0 < mean && mean < 1.0) {
            return Err(ParamError::new(format!(
                "Beta::from_mean_sd requires 0 < mean < 1, got {mean}"
            )));
        }
        let max_var = mean * (1.0 - mean);
        let var = (sd * sd).min(max_var * 0.99).max(1e-12);
        let nu = mean * (1.0 - mean) / var - 1.0;
        Self::new(mean * nu, (1.0 - mean) * nu)
    }

    /// Mean α / (α + β).
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }
}

impl Distribution<f64> for Beta {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Ratio of gammas: X ~ Gamma(alpha), Y ~ Gamma(beta) => X/(X+Y) ~ Beta.
        let x = Gamma::sample_standard(self.alpha, rng);
        let y = Gamma::sample_standard(self.beta, rng);
        if x + y == 0.0 {
            0.5
        } else {
            x / (x + y)
        }
    }
}

/// Pareto (type I) distribution with scale `x_m` and shape `alpha`.
///
/// The canonical heavy-tailed severity model for large catastrophe losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with the given scale (minimum) and shape.
    pub fn new(scale: f64, shape: f64) -> Result<Self> {
        if !(scale.is_finite() && scale > 0.0 && shape.is_finite() && shape > 0.0) {
            return Err(ParamError::new(format!(
                "Pareto requires scale > 0 and shape > 0, got {scale}, {shape}"
            )));
        }
        Ok(Self { scale, shape })
    }

    /// Scale (minimum value) x_m.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Tail index α.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Mean, infinite when `shape <= 1`.
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }
}

impl Distribution<f64> for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.scale / rng.uniform_open().powf(1.0 / self.shape)
    }
}

// ---------------------------------------------------------------------------
// Discrete distributions
// ---------------------------------------------------------------------------

/// Poisson distribution with mean `lambda`.
///
/// Small means use Knuth multiplication; large means use the PTRS
/// transformed-rejection sampler (Hörmann 1993), which is O(1) per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Switch point between the Knuth and PTRS samplers.
    const PTRS_THRESHOLD: f64 = 10.0;

    /// Creates a Poisson distribution with the given mean.
    pub fn new(lambda: f64) -> Result<Self> {
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(ParamError::new(format!(
                "Poisson requires lambda >= 0, got {lambda}"
            )));
        }
        Ok(Self { lambda })
    }

    /// Mean λ.
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    fn sample_knuth(&self, rng: &mut SimRng) -> u64 {
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.uniform_open();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    fn sample_ptrs(&self, rng: &mut SimRng) -> u64 {
        // Hörmann's PTRS (transformed rejection) algorithm.
        let lam = self.lambda;
        let log_lam = lam.ln();
        let b = 0.931 + 2.53 * lam.sqrt();
        let a = -0.059 + 0.02483 * b;
        let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
        let v_r = 0.9277 - 3.6224 / (b - 2.0);
        loop {
            let u = rng.uniform() - 0.5;
            let v = rng.uniform_open();
            let us = 0.5 - u.abs();
            let k = ((2.0 * a / us + b) * u + lam + 0.43).floor();
            if us >= 0.07 && v <= v_r {
                return k as u64;
            }
            if k < 0.0 || (us < 0.013 && v > us) {
                continue;
            }
            let lhs = v.ln() + inv_alpha.ln() - (a / (us * us) + b).ln();
            let rhs = k * log_lam - lam - ln_factorial(k as u64);
            if lhs <= rhs {
                return k as u64;
            }
        }
    }
}

impl Distribution<u64> for Poisson {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.lambda == 0.0 {
            0
        } else if self.lambda < Self::PTRS_THRESHOLD {
            self.sample_knuth(rng)
        } else {
            self.sample_ptrs(rng)
        }
    }
}

/// Negative binomial distribution with `r` failures and success probability `p`,
/// sampled as a Gamma–Poisson mixture.  Used to model over-dispersed
/// (clustered) annual event frequencies such as hurricane seasons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomial {
    r: f64,
    p: f64,
}

impl NegativeBinomial {
    /// Creates a negative binomial distribution with dispersion `r` and
    /// success probability `p`.
    pub fn new(r: f64, p: f64) -> Result<Self> {
        if !(r.is_finite() && r > 0.0 && p > 0.0 && p < 1.0) {
            return Err(ParamError::new(format!(
                "NegativeBinomial requires r > 0 and 0 < p < 1, got r={r}, p={p}"
            )));
        }
        Ok(Self { r, p })
    }

    /// Creates a negative binomial matching a target mean and variance
    /// (requires `variance > mean`, otherwise prefer [`Poisson`]).
    pub fn from_mean_variance(mean: f64, variance: f64) -> Result<Self> {
        if !(mean > 0.0 && variance > mean) {
            return Err(ParamError::new(format!(
                "NegativeBinomial requires variance > mean > 0, got mean={mean}, var={variance}"
            )));
        }
        let p = mean / variance;
        let r = mean * p / (1.0 - p);
        Self::new(r, p)
    }

    /// Mean r(1-p)/p.
    pub fn mean(&self) -> f64 {
        self.r * (1.0 - self.p) / self.p
    }

    /// Variance r(1-p)/p².
    pub fn variance(&self) -> f64 {
        self.mean() / self.p
    }
}

impl Distribution<u64> for NegativeBinomial {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        // Gamma-Poisson mixture: lambda ~ Gamma(r, (1-p)/p), N | lambda ~ Poisson(lambda).
        let scale = (1.0 - self.p) / self.p;
        let lambda = Gamma::new(self.r, scale).expect("validated").sample(rng);
        Poisson::new(lambda).expect("lambda >= 0").sample(rng)
    }
}

/// Natural log of `n!` via Stirling's series for large `n`, exact for small `n`.
fn ln_factorial(n: u64) -> f64 {
    const TABLE: [f64; 16] = [
        0.0,
        0.0,
        std::f64::consts::LN_2,
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
        15.104_412_573_075_516,
        17.502_307_845_873_887,
        19.987_214_495_661_885,
        22.552_163_853_123_42,
        25.191_221_182_738_68,
        27.899_271_383_840_89,
    ];
    if (n as usize) < TABLE.len() {
        return TABLE[n as usize];
    }
    let x = (n + 1) as f64;
    // Stirling's approximation with correction terms.
    (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x.powi(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;
    use crate::stats::RunningStats;

    fn stats_of<D: Distribution<f64>>(d: &D, n: usize, seed: u64) -> RunningStats {
        let mut rng = RngFactory::new(seed).stream(0);
        let mut s = RunningStats::new();
        for _ in 0..n {
            s.push(d.sample(&mut rng));
        }
        s
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        let s = stats_of(&d, 50_000, 1);
        assert!(s.min() >= 2.0 && s.max() < 6.0);
        assert!((s.mean() - 4.0).abs() < 0.05);
        assert!(Uniform::new(3.0, 3.0).is_err());
        assert!(Uniform::new(f64::NAN, 3.0).is_err());
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 3.0).unwrap();
        let s = stats_of(&d, 200_000, 3);
        assert!((s.mean() - 10.0).abs() < 0.05);
        assert!((s.std_dev() - 3.0).abs() < 0.05);
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn lognormal_from_mean_cv() {
        let d = LogNormal::from_mean_cv(1000.0, 1.5).unwrap();
        let s = stats_of(&d, 400_000, 4);
        assert!(
            (s.mean() - 1000.0).abs() / 1000.0 < 0.05,
            "mean {}",
            s.mean()
        );
        assert!((d.mean() - 1000.0).abs() < 1e-6);
        assert!(LogNormal::from_mean_cv(-1.0, 0.5).is_err());
    }

    #[test]
    fn gamma_mean_shape_above_one() {
        let d = Gamma::new(3.0, 2.0).unwrap();
        let s = stats_of(&d, 200_000, 5);
        assert!((s.mean() - 6.0).abs() < 0.1);
    }

    #[test]
    fn gamma_mean_shape_below_one() {
        let d = Gamma::new(0.5, 2.0).unwrap();
        let s = stats_of(&d, 200_000, 6);
        assert!((s.mean() - 1.0).abs() < 0.05);
        assert!(Gamma::new(0.0, 1.0).is_err());
    }

    #[test]
    fn beta_mean_and_support() {
        let d = Beta::new(2.0, 5.0).unwrap();
        let s = stats_of(&d, 100_000, 7);
        assert!(s.min() >= 0.0 && s.max() <= 1.0);
        assert!((s.mean() - 2.0 / 7.0).abs() < 0.01);
    }

    #[test]
    fn beta_from_mean_sd() {
        let d = Beta::from_mean_sd(0.3, 0.1).unwrap();
        let s = stats_of(&d, 100_000, 8);
        assert!((s.mean() - 0.3).abs() < 0.01);
        assert!((s.std_dev() - 0.1).abs() < 0.01);
        // Infeasible sd is clamped rather than rejected.
        assert!(Beta::from_mean_sd(0.5, 10.0).is_ok());
        assert!(Beta::from_mean_sd(1.5, 0.1).is_err());
    }

    #[test]
    fn pareto_tail() {
        let d = Pareto::new(100.0, 2.5).unwrap();
        let s = stats_of(&d, 300_000, 9);
        assert!(s.min() >= 100.0);
        assert!((s.mean() - d.mean()).abs() / d.mean() < 0.05);
        assert!(Pareto::new(1.0, 1.0).unwrap().mean().is_infinite());
    }

    #[test]
    fn poisson_small_lambda() {
        let d = Poisson::new(2.5).unwrap();
        let mut rng = RngFactory::new(11).stream(0);
        let mut s = RunningStats::new();
        for _ in 0..100_000 {
            s.push(d.sample(&mut rng) as f64);
        }
        assert!((s.mean() - 2.5).abs() < 0.05);
        assert!((s.variance() - 2.5).abs() < 0.1);
    }

    #[test]
    fn poisson_large_lambda_uses_ptrs() {
        let d = Poisson::new(900.0).unwrap();
        let mut rng = RngFactory::new(12).stream(0);
        let mut s = RunningStats::new();
        for _ in 0..50_000 {
            s.push(d.sample(&mut rng) as f64);
        }
        assert!((s.mean() - 900.0).abs() < 2.0, "mean {}", s.mean());
        assert!((s.variance() - 900.0).abs() < 40.0, "var {}", s.variance());
    }

    #[test]
    fn poisson_zero_lambda() {
        let d = Poisson::new(0.0).unwrap();
        let mut rng = RngFactory::new(13).stream(0);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    fn negative_binomial_moments() {
        let d = NegativeBinomial::from_mean_variance(6.0, 18.0).unwrap();
        let mut rng = RngFactory::new(14).stream(0);
        let mut s = RunningStats::new();
        for _ in 0..200_000 {
            s.push(d.sample(&mut rng) as f64);
        }
        assert!((s.mean() - 6.0).abs() < 0.1, "mean {}", s.mean());
        assert!((s.variance() - 18.0).abs() < 1.0, "var {}", s.variance());
        assert!(NegativeBinomial::from_mean_variance(5.0, 4.0).is_err());
    }

    #[test]
    fn ln_factorial_matches_direct_computation() {
        for n in 0..20u64 {
            let direct: f64 = (1..=n).map(|k| (k as f64).ln()).sum();
            assert!((ln_factorial(n) - direct).abs() < 1e-9, "n={n}");
        }
        let direct: f64 = (1..=100u64).map(|k| (k as f64).ln()).sum();
        assert!((ln_factorial(100) - direct).abs() < 1e-6);
    }

    #[test]
    fn sample_n_returns_requested_count() {
        let d = Uniform::new(0.0, 1.0).unwrap();
        let mut rng = RngFactory::new(17).stream(0);
        assert_eq!(d.sample_n(&mut rng, 37).len(), 37);
    }
}
