//! The multi-core engine: the paper's OpenMP analogue.
//!
//! "In all implementations a single thread is employed per trial" (paper
//! §III.B): trials are independent, so the parallel engine simply maps the
//! per-trial kernel over the Year Event Table on a rayon pool whose size is
//! the experiment's core count (Fig. 3a).  The oversubscribed mode assigns
//! many logical work items to each worker thread, reproducing the paper's
//! "threads per core" sweep (Fig. 3b) where modest gains come from finer
//! grained scheduling.

use rayon::prelude::*;

use catrisk_simkit::parallel::build_pool;

use crate::input::AnalysisInput;
use crate::steps::LayerKernel;
use crate::ylt::{AnalysisOutput, TrialOutcome, YearLossTable};

/// Multi-core aggregate analysis engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    /// Worker threads (0 = one per logical CPU).
    pub threads: usize,
    /// Logical work items per worker thread (1 = plain work stealing).
    pub work_items_per_thread: usize,
}

impl Default for ParallelEngine {
    fn default() -> Self {
        Self {
            threads: 0,
            work_items_per_thread: 1,
        }
    }
}

impl ParallelEngine {
    /// Engine using every logical CPU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit worker-thread count (the Fig. 3a sweep).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            work_items_per_thread: 1,
        }
    }

    /// Engine with explicit oversubscription (the Fig. 3b sweep): each of
    /// the `threads` workers is assigned `work_items_per_thread` logical
    /// work items.
    pub fn oversubscribed(threads: usize, work_items_per_thread: usize) -> Self {
        Self {
            threads,
            work_items_per_thread: work_items_per_thread.max(1),
        }
    }

    /// Runs the analysis: one YLT per layer, identical to the sequential
    /// engine's output.
    pub fn run(&self, input: &AnalysisInput) -> AnalysisOutput {
        let pool = build_pool(self.threads);
        pool.install(|| self.run_in_current_pool(input))
    }

    /// Runs on whatever rayon pool is already active (used by callers that
    /// manage their own pool, e.g. the benchmark harness).
    pub fn run_in_current_pool(&self, input: &AnalysisInput) -> AnalysisOutput {
        if self.work_items_per_thread > 1 {
            return self.run_oversubscribed(input);
        }
        let yet = input.yet();
        let ylts = input
            .layers()
            .iter()
            .map(|layer| {
                let kernel = LayerKernel::for_layer(input, layer);
                let outcomes: Vec<TrialOutcome> = (0..yet.num_trials())
                    .into_par_iter()
                    .map_init(Vec::new, |scratch, t| {
                        kernel.trial_outcome(&layer.terms, yet.trial(t).occurrences, scratch)
                    })
                    .collect();
                YearLossTable::new(layer.id, outcomes)
            })
            .collect();
        AnalysisOutput::new(ylts)
    }

    /// Oversubscribed execution: trials are split into
    /// `threads × work_items_per_thread` contiguous blocks which worker
    /// threads claim dynamically.  Scheduling differs from the plain mode
    /// but per-trial arithmetic is unchanged, so results are identical.
    fn run_oversubscribed(&self, input: &AnalysisInput) -> AnalysisOutput {
        let yet = input.yet();
        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        let total_items = threads * self.work_items_per_thread;
        let blocks = catrisk_simkit::sampling::stratify(yet.num_trials(), total_items);

        let ylts = input
            .layers()
            .iter()
            .map(|layer| {
                let kernel = LayerKernel::for_layer(input, layer);
                let next_block = std::sync::atomic::AtomicUsize::new(0);
                let results: Vec<(usize, Vec<TrialOutcome>)> = crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            let kernel = &kernel;
                            let blocks = &blocks;
                            let next_block = &next_block;
                            let layer_terms = &layer.terms;
                            scope.spawn(move |_| {
                                let mut scratch = Vec::new();
                                let mut local: Vec<(usize, Vec<TrialOutcome>)> = Vec::new();
                                loop {
                                    let idx = next_block
                                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    if idx >= blocks.len() {
                                        break;
                                    }
                                    let block = blocks[idx].clone();
                                    let outcomes: Vec<TrialOutcome> = block
                                        .clone()
                                        .map(|t| {
                                            kernel.trial_outcome(
                                                layer_terms,
                                                yet.trial(t).occurrences,
                                                &mut scratch,
                                            )
                                        })
                                        .collect();
                                    local.push((block.start, outcomes));
                                }
                                local
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("worker thread panicked"))
                        .collect()
                })
                .expect("crossbeam scope failed");

                // Reassemble in trial order.
                let mut sorted = results;
                sorted.sort_by_key(|(start, _)| *start);
                let mut outcomes = Vec::with_capacity(yet.num_trials());
                for (_, mut block) in sorted {
                    outcomes.append(&mut block);
                }
                YearLossTable::new(layer.id, outcomes)
            })
            .collect();
        AnalysisOutput::new(ylts)
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
        let input = random_input(250, 7);
        let sequential = SequentialEngine::new().run(&input);
        for (threads, items) in [(2, 4), (4, 16), (3, 1)] {
            let engine = ParallelEngine::oversubscribed(threads, items);
            let out = engine.run(&input);
            assert_eq!(
                sequential.max_abs_difference(&out),
                0.0,
                "{threads}x{items}"
            );
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

    #[test]
    fn run_in_current_pool_reuses_pool() {
        let input = random_input(100, 9);
        let pool = catrisk_simkit::parallel::build_pool(2);
        let reference = SequentialEngine::new().run(&input);
        let out = pool.install(|| ParallelEngine::new().run_in_current_pool(&input));
        assert_eq!(reference.max_abs_difference(&out), 0.0);
    }
}
