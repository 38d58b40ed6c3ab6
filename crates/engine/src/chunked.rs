//! The chunked (blocked) engine: the CPU analogue of the optimised GPU
//! kernel.
//!
//! The paper's optimised GPU implementation processes "a block of events of
//! fixed size (referred to as chunk size) for the efficient use of shared
//! memory" (§III.B.2).  On a CPU the same blocking keeps the per-chunk
//! working set inside the L1/L2 cache; the paper reports that this did *not*
//! produce large gains on their multi-core platform (§III.C.1), which this
//! engine lets us measure directly (ablation benchmarks).  It is the same
//! trial-block driver as `ParallelEngine` (`steps::run_layers`) with the
//! chunked per-ELT kernel.

use crate::input::AnalysisInput;
use crate::steps::{run_layers, LayerKernel, BLOCKS_PER_THREAD};
use crate::ylt::AnalysisOutput;

/// Blocked multi-core aggregate analysis engine.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedEngine {
    /// Number of events staged per chunk.
    pub chunk_size: usize,
    /// Worker threads (0 = one per logical CPU).
    pub threads: usize,
}

impl Default for ChunkedEngine {
    fn default() -> Self {
        Self::new(64)
    }
}

impl ChunkedEngine {
    /// Engine with the given chunk size on all cores.
    pub fn new(chunk_size: usize) -> Self {
        Self::with_threads(chunk_size, 0)
    }

    /// Engine with explicit chunk size and thread count.
    pub fn with_threads(chunk_size: usize, threads: usize) -> Self {
        Self {
            chunk_size,
            threads,
        }
    }

    /// Runs the analysis; results are identical to the other engines.
    pub fn run(&self, input: &AnalysisInput) -> AnalysisOutput {
        assert!(self.chunk_size > 0, "chunk_size must be positive");
        run_layers(input, self.threads, BLOCKS_PER_THREAD, |input, layer| {
            LayerKernel::Chunked(input.layer_elts(layer), self.chunk_size)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AnalysisInputBuilder;
    use crate::sequential::SequentialEngine;
    use catrisk_finterms::terms::{FinancialTerms, LayerTerms};

    fn input() -> AnalysisInput {
        input_with(120)
    }

    fn input_with(trials: u32) -> AnalysisInput {
        let mut b = AnalysisInputBuilder::new();
        let trials: Vec<Vec<(u32, f32)>> = (0..trials)
            .map(|t: u32| {
                (0..(t % 23))
                    .map(|i| ((t.wrapping_mul(31).wrapping_add(i * 7)) % 900, i as f32))
                    .collect()
            })
            .collect();
        b.set_yet_from_trials(900, trials);
        let pairs_a: Vec<(u32, f64)> = (0..900)
            .step_by(3)
            .map(|e| (e, 100.0 + f64::from(e)))
            .collect();
        let pairs_b: Vec<(u32, f64)> = (0..900)
            .step_by(5)
            .map(|e| (e, 50.0 + 2.0 * f64::from(e)))
            .collect();
        let a = b.add_elt(
            &pairs_a,
            FinancialTerms::new(10.0, 800.0, 0.75, 1.0).unwrap(),
        );
        let c = b.add_elt(&pairs_b, FinancialTerms::pass_through());
        b.add_layer_over(
            &[a, c],
            LayerTerms::new(100.0, 1_000.0, 200.0, 5_000.0).unwrap(),
        );
        b.add_layer_over(&[c], LayerTerms::unlimited());
        b.build().unwrap()
    }

    #[test]
    fn chunked_matches_sequential_for_all_chunk_sizes() {
        let input = input();
        let reference = SequentialEngine::new().run(&input);
        for chunk_size in [1, 2, 4, 8, 12, 16, 64, 1024] {
            let out = ChunkedEngine::new(chunk_size).run(&input);
            assert_eq!(
                reference.max_abs_difference(&out),
                0.0,
                "chunk {chunk_size}"
            );
        }
    }

    #[test]
    fn explicit_thread_count() {
        // 64 threads x 4 blocks exceed 120 trials (`stratify` clamps); the
        // tiny YETs leave most blocks empty or have none at all.
        for trials in [120, 0, 1, 3] {
            let input = input_with(trials);
            let reference = SequentialEngine::new().run(&input);
            for threads in [2, 64] {
                let out = ChunkedEngine::with_threads(4, threads).run(&input);
                assert_eq!(
                    reference.max_abs_difference(&out),
                    0.0,
                    "{trials} trials, {threads} threads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        ChunkedEngine::new(0).run(&input());
    }
}
