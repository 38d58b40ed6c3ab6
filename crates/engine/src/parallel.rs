//! The multi-core engine: the paper's OpenMP analogue.
//!
//! "In all implementations a single thread is employed per trial" (paper
//! §III.B): trials are independent, so the parallel engine is the shared
//! trial-block driver (`steps::run_layers`) running the production kernel
//! on a pool whose size is the experiment's core count (Fig. 3a).  The
//! number of trial blocks per thread is the paper's "threads per core"
//! sweep (Fig. 3b), where modest gains come from finer grained scheduling.

use crate::input::AnalysisInput;
use crate::steps::{run_layers, LayerKernel, BLOCKS_PER_THREAD};
use crate::ylt::AnalysisOutput;

/// Multi-core aggregate analysis engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    /// Worker threads (0 = one per logical CPU, or `CATRISK_THREADS`).
    pub threads: usize,
    /// Contiguous trial blocks per worker thread (default 4).
    pub work_items_per_thread: usize,
}

impl Default for ParallelEngine {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

impl ParallelEngine {
    /// Engine using every logical CPU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit worker-thread count (the Fig. 3a sweep).
    pub fn with_threads(threads: usize) -> Self {
        Self::oversubscribed(threads, BLOCKS_PER_THREAD)
    }

    /// Engine with explicit oversubscription (the Fig. 3b sweep): the
    /// trials are cut into `work_items_per_thread` blocks per thread.
    pub fn oversubscribed(threads: usize, work_items_per_thread: usize) -> Self {
        Self {
            threads,
            work_items_per_thread: work_items_per_thread.max(1),
        }
    }

    /// Runs the analysis: one YLT per layer, identical to the sequential
    /// engine's output.
    pub fn run(&self, input: &AnalysisInput) -> AnalysisOutput {
        run_layers(
            input,
            self.threads,
            self.work_items_per_thread,
            LayerKernel::for_layer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AnalysisInputBuilder;
    use crate::sequential::SequentialEngine;
    use catrisk_finterms::terms::{FinancialTerms, LayerTerms};
    use catrisk_simkit::rng::RngFactory;

    /// A moderately sized pseudo-random input exercising several layers.
    fn random_input(trials: usize, seed: u64) -> crate::input::AnalysisInput {
        let factory = RngFactory::new(seed);
        let catalog_size = 5_000u32;
        let mut b = AnalysisInputBuilder::new();

        // Random YET.
        let mut yet_trials = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = factory.stream(t as u64);
            let n = rng.below(40) as usize;
            let mut trial = Vec::with_capacity(n);
            for i in 0..n {
                trial.push((rng.below(u64::from(catalog_size)) as u32, i as f32));
            }
            yet_trials.push(trial);
        }
        b.set_yet_from_trials(catalog_size, yet_trials);

        // Random ELTs.
        let mut elt_indices = Vec::new();
        for e in 0..6u64 {
            let mut rng = factory.stream2(1, e);
            let n = 400 + rng.below(400) as usize;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((
                    rng.below(u64::from(catalog_size)) as u32,
                    1_000.0 + rng.uniform() * 2.0e6,
                ));
            }
            let terms = FinancialTerms::new(500.0, 1.5e6, 0.9, 1.0).unwrap();
            elt_indices.push(b.add_elt(&pairs, terms));
        }

        b.add_layer_over(
            &elt_indices[0..3],
            LayerTerms::new(1.0e4, 5.0e5, 0.0, 2.0e6).unwrap(),
        );
        b.add_layer_over(
            &elt_indices[2..6],
            LayerTerms::per_occurrence(5.0e4, 8.0e5).unwrap(),
        );
        b.add_layer_over(
            &elt_indices[..],
            LayerTerms::aggregate(1.0e5, 3.0e6).unwrap(),
        );
        b.build().unwrap()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let input = random_input(400, 42);
        let sequential = SequentialEngine::new().run(&input);
        for threads in [1, 2, 4, 8] {
            let parallel = ParallelEngine::with_threads(threads).run(&input);
            assert_eq!(
                sequential.max_abs_difference(&parallel),
                0.0,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn oversubscribed_matches_sequential() {
        // 4 x 256 blocks exceed 250 trials (`stratify` clamps); the tiny
        // YETs leave most blocks empty or have none at all.
        for trials in [250, 0, 1, 3] {
            let input = random_input(trials, 7);
            let sequential = SequentialEngine::new().run(&input);
            for (threads, items) in [(2, 4), (4, 16), (3, 1), (4, 256)] {
                let engine = ParallelEngine::oversubscribed(threads, items);
                let out = engine.run(&input);
                assert_eq!(
                    sequential.max_abs_difference(&out),
                    0.0,
                    "{trials} trials, {threads}x{items}"
                );
            }
        }
    }

    #[test]
    fn zero_threads_uses_all_cores() {
        let input = random_input(100, 3);
        let out = ParallelEngine::new().run(&input);
        assert_eq!(out.num_layers(), 3);
        assert_eq!(out.layer(0).num_trials(), 100);
    }

    #[test]
    fn oversubscribed_constructor_clamps_items() {
        let e = ParallelEngine::oversubscribed(2, 0);
        assert_eq!(e.work_items_per_thread, 1);
    }
}
