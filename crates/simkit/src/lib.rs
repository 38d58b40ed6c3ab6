//! # catrisk-simkit
//!
//! Simulation substrate shared by every other `catrisk` crate.
//!
//! The aggregate risk analysis pipeline of the paper (Bahl, Baltzer,
//! Rau-Chaplin, Varghese, SC 2012) sits on top of a large amount of
//! "boring" stochastic machinery: reproducible random number streams,
//! samplers for the frequency and severity distributions used by the
//! catastrophe model and the Year Event Table generator, running
//! statistics for the analytics layer, and instrumentation used to
//! reproduce the phase-breakdown figure (Fig. 6b).
//!
//! This crate provides that machinery with no external dependencies
//! beyond [`rand`] (for the `RngCore`/`SeedableRng` traits) and
//! [`rayon`] (for explicitly sized thread pools).
//!
//! ## Modules
//!
//! * [`rng`] — splittable, counter-indexed random streams so that the
//!   *i*-th trial always sees the same randomness regardless of the
//!   number of worker threads.
//! * [`distributions`] — samplers implemented from scratch: uniform,
//!   normal, log-normal, gamma, beta, Pareto, Poisson and negative
//!   binomial.
//! * [`stats`] — Welford accumulators and the scalar loss kernels
//!   (mean, standard deviation, quantiles and tail means).
//! * [`sampling`] — alias-method sampling, shuffling and stratified index
//!   partitioning.
//! * [`parallel`] — explicitly sized thread pools.
//! * [`timing`] — stopwatches and named phase timers.
//!
//! ## Quick example
//!
//! ```
//! use catrisk_simkit::rng::RngFactory;
//! use catrisk_simkit::distributions::{Distribution, Poisson};
//! use catrisk_simkit::stats::RunningStats;
//!
//! let factory = RngFactory::new(42);
//! let mut stats = RunningStats::new();
//! for trial in 0..1000u64 {
//!     let mut rng = factory.stream(trial);
//!     let n = Poisson::new(8.0).unwrap().sample(&mut rng);
//!     stats.push(n as f64);
//! }
//! assert!((stats.mean() - 8.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distributions;
pub mod parallel;
pub mod rng;
pub mod sampling;
pub mod stats;
pub mod timing;

pub use distributions::Distribution;
pub use rng::{RngFactory, SimRng};
pub use stats::RunningStats;
pub use timing::{PhaseTimer, Stopwatch};

/// Crate-wide error type for invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    /// Human readable description of the parameter violation.
    pub message: String,
}

impl ParamError {
    /// Create a new parameter error from anything printable.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid parameter: {}", self.message)
    }
}

impl std::error::Error for ParamError {}

/// Convenience result alias used by constructors that validate parameters.
pub type Result<T> = std::result::Result<T, ParamError>;
