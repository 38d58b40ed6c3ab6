//! # catrisk-engine
//!
//! The Aggregate Risk Engine (ARE): the paper's core contribution.
//!
//! Aggregate analysis "is a form of Monte Carlo simulation in which each
//! simulation trial represents an alternative view of which events occur
//! and in which order they occur within a predetermined period" (paper §I).
//! The engine consumes three inputs — the Year Event Table, the Event Loss
//! Tables covered by each layer, and the layer terms — and produces a Year
//! Loss Table: one aggregate loss per (layer, trial) pair.
//!
//! The paper's basic algorithm (§II.B, lines 1–19) runs through one
//! reference loop and one parallel trial-block driver, and every engine
//! produces **bit-identical** Year Loss Tables:
//!
//! * [`SequentialEngine`] — the reference loop: single-threaded, with an
//!   optional phase-instrumented mode used to reproduce Fig. 6b.  It shares
//!   no scheduling code with the driver, so `parallel ≡ sequential` checks
//!   compare two independent loops;
//! * the driver (`steps::run_layers`) cuts each layer's trials into
//!   contiguous blocks on a rayon pool of a configurable size and
//!   concatenates them in trial order.  Two engines are that driver with
//!   different kernels:
//!   * [`ParallelEngine`] — the multi-core analogue of the paper's OpenMP
//!     implementation (Fig. 3a: threads; Fig. 3b: blocks per thread).  It
//!     is the production engine: where the input makes it pay it reads a
//!     layer's per-event loss from one collapsed table instead of one
//!     lookup per ELT (see [`steps`]);
//!   * [`ChunkedEngine`] — stages each trial's per-occurrence losses
//!     through a fixed-size chunk buffer, the CPU analogue of the paper's
//!     optimised GPU kernel;
//! * [`StreamingEngine`] is built on top: [`ParallelEngine`] per block of
//!   trials, with running summaries;
//! * the simulated-GPU kernels in `catrisk-gpusim` reuse this crate's
//!   [`AnalysisInput`] and per-trial kernels.
//!
//! ```
//! use catrisk_engine::prelude::*;
//! use catrisk_finterms::{LayerTerms, FinancialTerms};
//!
//! // Two tiny ELTs and a YET with two trials.
//! let mut input = AnalysisInputBuilder::new();
//! input.set_yet_from_trials(10, vec![vec![(0, 1.0), (3, 50.0)], vec![(7, 120.0)]]);
//! let a = input.add_elt(&[(0, 100.0), (3, 400.0)], FinancialTerms::pass_through());
//! let b = input.add_elt(&[(3, 50.0), (7, 900.0)], FinancialTerms::pass_through());
//! input.add_layer_over(&[a, b], LayerTerms::per_occurrence(100.0, 500.0).unwrap());
//! let input = input.build().unwrap();
//!
//! let output = SequentialEngine::new().run(&input);
//! assert_eq!(output.layer(0).losses().len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chunked;
pub mod input;
pub mod parallel;
pub mod phases;
pub mod sequential;
pub mod steps;
pub mod streaming;
pub mod ylt;

pub use chunked::ChunkedEngine;
pub use input::{AnalysisInput, AnalysisInputBuilder, PreparedElt, PreparedLookup};
pub use parallel::ParallelEngine;
pub use phases::{
    PhaseBreakdown, PHASE_EVENT_FETCH, PHASE_FINANCIAL_TERMS, PHASE_LAYER_TERMS, PHASE_LOOKUP,
};
pub use sequential::SequentialEngine;
pub use streaming::StreamingEngine;
pub use ylt::{AnalysisOutput, TrialOutcome, YearLossTable};

/// Convenience re-exports for building and running analyses.
pub mod prelude {
    pub use crate::chunked::ChunkedEngine;
    pub use crate::input::{AnalysisInput, AnalysisInputBuilder};
    pub use crate::parallel::ParallelEngine;
    pub use crate::sequential::SequentialEngine;
    pub use crate::ylt::{AnalysisOutput, YearLossTable};
}

/// Errors produced while assembling an analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The analysis input is incomplete or inconsistent.
    InvalidInput(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidInput(msg) => write!(f, "invalid analysis input: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
