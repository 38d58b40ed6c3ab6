//! Streaming execution for Year Event Tables larger than memory budgets.
//!
//! A paper-scale YLT (1 M trials × many layers) is small, but intermediate
//! analytics sometimes want to run over *very* large YETs or keep memory
//! flat while post-processing results on the fly (the paper's §IV discusses
//! complete-portfolio runs of 5 000 contracts where per-trial storage adds
//! up).  The streaming engine processes the YET in blocks of trials,
//! invoking a callback per block and maintaining running summaries, so the
//! full Year Loss Table never needs to be materialised.

use catrisk_simkit::stats::RunningStats;
use serde::{Deserialize, Serialize};

use crate::input::AnalysisInput;
use crate::parallel::ParallelEngine;
use crate::ylt::{AnalysisOutput, TrialOutcome};

/// Running summary of one layer's streamed results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Number of trials processed.
    pub trials: u64,
    /// Mean year loss.
    pub mean_loss: f64,
    /// Standard deviation of the year loss (population).
    pub std_dev: f64,
    /// Largest year loss seen.
    pub max_loss: f64,
    /// Fraction of trials with a non-zero year loss.
    pub nonzero_fraction: f64,
}

/// Block-wise streaming engine built on top of [`ParallelEngine`].
#[derive(Debug, Clone, Copy)]
pub struct StreamingEngine {
    /// Trials per block.
    pub block_size: usize,
    /// Worker threads per block (0 = all cores).
    pub threads: usize,
}

impl Default for StreamingEngine {
    fn default() -> Self {
        Self {
            block_size: 10_000,
            threads: 0,
        }
    }
}

impl StreamingEngine {
    /// Engine processing `block_size` trials at a time.
    pub fn new(block_size: usize) -> Self {
        Self {
            block_size,
            ..Default::default()
        }
    }

    /// Streams the analysis, calling `on_block(block_index, trial_range,
    /// block_output)` after each block, and returns per-layer summaries.
    ///
    /// The block outputs concatenated in order equal the non-streamed
    /// engines' output exactly.
    pub fn run_with<F>(&self, input: &AnalysisInput, mut on_block: F) -> Vec<LayerSummary>
    where
        F: FnMut(usize, std::ops::Range<usize>, &AnalysisOutput),
    {
        assert!(self.block_size > 0, "block_size must be positive");
        let num_trials = input.num_trials();
        let num_layers = input.layers().len();
        let mut stats: Vec<RunningStats> = vec![RunningStats::new(); num_layers];
        let mut nonzero: Vec<u64> = vec![0; num_layers];
        let engine = ParallelEngine::with_threads(self.threads);

        let mut block_index = 0;
        let mut start = 0;
        while start < num_trials {
            let end = (start + self.block_size).min(num_trials);
            let block_yet = input.yet().slice_trials(start..end);
            // The block's input: the sliced YET over the same layers.  Memoised
            // layer tables are shared, so a table is built once for all
            // blocks; `with_yet_slice` still deep-copies every prepared ELT
            // per block (it always has — see its comment for why it keeps
            // doing so).
            let block_input = input.with_yet_slice(block_yet);
            let output = engine.run(&block_input);
            for (layer_idx, ylt) in output.layers().iter().enumerate() {
                for TrialOutcome { year_loss, .. } in ylt.outcomes() {
                    stats[layer_idx].push(*year_loss);
                    if *year_loss > 0.0 {
                        nonzero[layer_idx] += 1;
                    }
                }
            }
            on_block(block_index, start..end, &output);
            block_index += 1;
            start = end;
        }

        stats
            .into_iter()
            .zip(nonzero)
            .map(|(s, nz)| LayerSummary {
                trials: s.count(),
                mean_loss: s.mean(),
                std_dev: s.std_dev(),
                max_loss: if s.count() == 0 { 0.0 } else { s.max() },
                nonzero_fraction: if s.count() == 0 {
                    0.0
                } else {
                    nz as f64 / s.count() as f64
                },
            })
            .collect()
    }

    /// Streams the analysis and returns only the summaries.
    pub fn run_summarized(&self, input: &AnalysisInput) -> Vec<LayerSummary> {
        self.run_with(input, |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AnalysisInputBuilder;
    use crate::sequential::SequentialEngine;
    use catrisk_finterms::terms::{FinancialTerms, LayerTerms};

    fn input(trials: usize) -> AnalysisInput {
        let mut b = AnalysisInputBuilder::new();
        let yet_trials: Vec<Vec<(u32, f32)>> = (0..trials)
            .map(|t| {
                (0..((t % 13) as u32))
                    .map(|i| {
                        (
                            ((t as u32).wrapping_mul(17).wrapping_add(i * 3)) % 500,
                            i as f32,
                        )
                    })
                    .collect()
            })
            .collect();
        b.set_yet_from_trials(500, yet_trials);
        let pairs: Vec<(u32, f64)> = (0..500)
            .step_by(2)
            .map(|e| (e, 10.0 + f64::from(e)))
            .collect();
        let a = b.add_elt(&pairs, FinancialTerms::pass_through());
        b.add_layer_over(&[a], LayerTerms::per_occurrence(50.0, 400.0).unwrap());
        b.add_layer_over(&[a], LayerTerms::unlimited());
        b.build().unwrap()
    }

    #[test]
    fn streamed_blocks_concatenate_to_full_output() {
        let input = input(105);
        let reference = SequentialEngine::new().run(&input);
        let mut collected: Vec<Vec<TrialOutcome>> = vec![Vec::new(); input.layers().len()];
        let engine = StreamingEngine {
            block_size: 20,
            threads: 1,
        };
        engine.run_with(&input, |_, range, block| {
            assert!(range.len() <= 20);
            for (layer_idx, ylt) in block.layers().iter().enumerate() {
                collected[layer_idx].extend_from_slice(ylt.outcomes());
            }
        });
        for (layer_idx, outcomes) in collected.iter().enumerate() {
            assert_eq!(outcomes.len(), 105);
            for (a, b) in outcomes.iter().zip(reference.layer(layer_idx).outcomes()) {
                assert_eq!(a.year_loss, b.year_loss);
                assert_eq!(a.max_occurrence_loss, b.max_occurrence_loss);
            }
        }
    }

    #[test]
    fn summaries_match_full_run_statistics() {
        let input = input(80);
        let reference = SequentialEngine::new().run(&input);
        let summaries = StreamingEngine::new(7).run_summarized(&input);
        assert_eq!(summaries.len(), 2);
        for (layer_idx, summary) in summaries.iter().enumerate() {
            let ylt = reference.layer(layer_idx);
            assert_eq!(summary.trials, 80);
            assert!((summary.mean_loss - ylt.mean_loss()).abs() < 1e-9);
            assert!((summary.std_dev - ylt.loss_std_dev()).abs() < 1e-9);
            assert!((summary.max_loss - ylt.max_loss()).abs() < 1e-9);
            assert!((summary.nonzero_fraction - ylt.nonzero_fraction()).abs() < 1e-9);
        }
    }

    #[test]
    fn block_larger_than_input_is_one_block() {
        let input = input(10);
        let mut blocks = 0;
        StreamingEngine::new(1_000).run_with(&input, |i, range, _| {
            assert_eq!(i, 0);
            assert_eq!(range, 0..10);
            blocks += 1;
        });
        assert_eq!(blocks, 1);
    }

    #[test]
    #[should_panic(expected = "block_size must be positive")]
    fn zero_block_size_panics() {
        StreamingEngine::new(0).run_summarized(&input(5));
    }
}
