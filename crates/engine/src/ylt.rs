//! The Year Loss Table (YLT): the output of aggregate analysis.

use serde::{Deserialize, Serialize};

use catrisk_finterms::layer::LayerId;
use catrisk_simkit::stats;

/// The result of analysing one trial for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// The trial's aggregate loss net of all financial and layer terms —
    /// the "trial loss or the year loss" of paper line 19.
    pub year_loss: f64,
    /// The largest single-occurrence loss of the trial net of occurrence
    /// terms (but gross of aggregate terms), used for occurrence exceedance
    /// (OEP) curves.
    pub max_occurrence_loss: f64,
    /// Number of event occurrences in the trial that produced a non-zero
    /// loss for the layer.
    pub nonzero_events: u32,
}

/// The Year Loss Table of one layer: one outcome per trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct YearLossTable {
    /// The layer this table belongs to.
    pub layer_id: LayerId,
    outcomes: Vec<TrialOutcome>,
}

impl YearLossTable {
    /// Creates a YLT from per-trial outcomes.
    pub fn new(layer_id: LayerId, outcomes: Vec<TrialOutcome>) -> Self {
        Self { layer_id, outcomes }
    }

    /// Number of trials.
    pub fn num_trials(&self) -> usize {
        self.outcomes.len()
    }

    /// Per-trial outcomes in trial order.
    pub fn outcomes(&self) -> &[TrialOutcome] {
        &self.outcomes
    }

    /// Per-trial year losses in trial order.
    pub fn losses(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.year_loss).collect()
    }

    /// Per-trial maximum occurrence losses in trial order.
    pub fn max_occurrence_losses(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| o.max_occurrence_loss)
            .collect()
    }

    /// Mean year loss across trials — the layer's expected annual loss under
    /// the simulation measure.  Shares its kernel with the query engine's
    /// `mean` aggregate.
    pub fn mean_loss(&self) -> f64 {
        stats::mean_or_zero(&self.losses())
    }

    /// Standard deviation of the year loss across trials (population
    /// formula, shared with the query engine's `stddev` aggregate).
    pub fn loss_std_dev(&self) -> f64 {
        stats::population_std_dev(&self.losses())
    }

    /// Fraction of trials with a non-zero year loss (the layer's annual
    /// attachment probability under the simulation measure).
    pub fn nonzero_fraction(&self) -> f64 {
        stats::positive_fraction(&self.losses())
    }

    /// Largest year loss across trials.
    pub fn max_loss(&self) -> f64 {
        stats::max_or_zero(&self.losses())
    }
}

/// The output of a full analysis: one YLT per layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisOutput {
    ylts: Vec<YearLossTable>,
}

impl AnalysisOutput {
    /// Wraps per-layer YLTs.
    pub fn new(ylts: Vec<YearLossTable>) -> Self {
        Self { ylts }
    }

    /// Number of layers analysed.
    pub fn num_layers(&self) -> usize {
        self.ylts.len()
    }

    /// The YLT of layer `i` (in analysis layer order).
    pub fn layer(&self, i: usize) -> &YearLossTable {
        &self.ylts[i]
    }

    /// All per-layer YLTs.
    pub fn layers(&self) -> &[YearLossTable] {
        &self.ylts
    }

    /// Portfolio-level year losses: the per-trial sum of all layers' year
    /// losses (all layers see the same trial, so summing within a trial is
    /// the correct portfolio roll-up).
    pub fn portfolio_losses(&self) -> Vec<f64> {
        if self.ylts.is_empty() {
            return vec![];
        }
        let trials = self.ylts[0].num_trials();
        let mut total = vec![0.0; trials];
        for ylt in &self.ylts {
            assert_eq!(ylt.num_trials(), trials, "layers must share the YET");
            for (acc, o) in total.iter_mut().zip(ylt.outcomes()) {
                *acc += o.year_loss;
            }
        }
        total
    }

    /// Maximum absolute difference between two outputs' year losses
    /// (0 when identical); used by the cross-engine equivalence tests.
    pub fn max_abs_difference(&self, other: &AnalysisOutput) -> f64 {
        assert_eq!(self.num_layers(), other.num_layers());
        let mut max_diff = 0.0f64;
        for (a, b) in self.ylts.iter().zip(other.ylts.iter()) {
            assert_eq!(a.num_trials(), b.num_trials());
            for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
                max_diff = max_diff.max((x.year_loss - y.year_loss).abs());
                max_diff = max_diff.max((x.max_occurrence_loss - y.max_occurrence_loss).abs());
            }
        }
        max_diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(loss: f64, max_occ: f64) -> TrialOutcome {
        TrialOutcome {
            year_loss: loss,
            max_occurrence_loss: max_occ,
            nonzero_events: u32::from(loss > 0.0),
        }
    }

    fn sample_ylt() -> YearLossTable {
        YearLossTable::new(
            LayerId(0),
            vec![
                outcome(0.0, 0.0),
                outcome(10.0, 8.0),
                outcome(30.0, 30.0),
                outcome(0.0, 0.0),
            ],
        )
    }

    #[test]
    fn ylt_statistics() {
        let ylt = sample_ylt();
        assert_eq!(ylt.num_trials(), 4);
        assert_eq!(ylt.losses(), vec![0.0, 10.0, 30.0, 0.0]);
        assert_eq!(ylt.max_occurrence_losses(), vec![0.0, 8.0, 30.0, 0.0]);
        assert!((ylt.mean_loss() - 10.0).abs() < 1e-12);
        assert!((ylt.nonzero_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ylt.max_loss(), 30.0);
        assert!(ylt.loss_std_dev() > 0.0);
        assert_eq!(ylt.outcomes().len(), 4);
    }

    #[test]
    fn empty_ylt() {
        let ylt = YearLossTable::new(LayerId(1), vec![]);
        assert_eq!(ylt.mean_loss(), 0.0);
        assert_eq!(ylt.loss_std_dev(), 0.0);
        assert_eq!(ylt.nonzero_fraction(), 0.0);
        assert_eq!(ylt.max_loss(), 0.0);
    }

    #[test]
    fn portfolio_roll_up() {
        let a = sample_ylt();
        let b = YearLossTable::new(
            LayerId(1),
            vec![
                outcome(5.0, 5.0),
                outcome(0.0, 0.0),
                outcome(10.0, 10.0),
                outcome(1.0, 1.0),
            ],
        );
        let out = AnalysisOutput::new(vec![a, b]);
        assert_eq!(out.num_layers(), 2);
        assert_eq!(out.portfolio_losses(), vec![5.0, 10.0, 40.0, 1.0]);
        assert_eq!(out.layer(1).layer_id, LayerId(1));
        assert_eq!(out.layers().len(), 2);
    }

    #[test]
    fn empty_output_portfolio() {
        let out = AnalysisOutput::new(vec![]);
        assert!(out.portfolio_losses().is_empty());
    }

    #[test]
    fn max_abs_difference_detects_changes() {
        let a = AnalysisOutput::new(vec![sample_ylt()]);
        let b = AnalysisOutput::new(vec![sample_ylt()]);
        assert_eq!(a.max_abs_difference(&b), 0.0);
        let mut modified = sample_ylt();
        modified = YearLossTable::new(
            modified.layer_id,
            modified
                .outcomes()
                .iter()
                .enumerate()
                .map(|(i, o)| if i == 2 { outcome(31.5, 30.0) } else { *o })
                .collect(),
        );
        let c = AnalysisOutput::new(vec![modified]);
        assert!((a.max_abs_difference(&c) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let out = AnalysisOutput::new(vec![sample_ylt()]);
        let json = serde_json::to_string(&out).unwrap();
        assert_eq!(serde_json::from_str::<AnalysisOutput>(&json).unwrap(), out);
    }
}
