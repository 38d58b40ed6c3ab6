//! The per-trial kernels: the paper's basic algorithm, lines 3–19.
//!
//! Two kernels compute a trial's per-occurrence losses (lines 3–9); both
//! hand them to the same [`apply_layer_terms`] (lines 10–19):
//!
//! * the **per-ELT kernel** ([`accumulate_occurrence_losses`], and its
//!   staged twin inside [`trial_outcome_chunked`]) is the literal
//!   Algorithm 1 — one lookup per (occurrence, ELT).  `SequentialEngine`
//!   (plain and instrumented), `ChunkedEngine` and the simulated GPU
//!   kernels always use it: they are the paper's Fig. 2/5/6b instruments
//!   and the reference the production kernel is checked against.
//! * the **collapsed kernel** (`gather_occurrence_losses`) reads one `f64`
//!   per occurrence from a per-event table that `collapse_layer` built by
//!   running the per-ELT kernel once over every catalog event.  `ParallelEngine` — and through it
//!   `StreamingEngine` and `RealTimeQuoter` — picks it per layer via
//!   `LayerKernel::for_layer`, by a rule derived from the input alone
//!   (`AnalysisInput::collapsed_layer_table`).
//!
//! Either way each per-occurrence loss comes from the same operations in
//! the same order, so every engine's Year Loss Table is bit-identical and
//! the variants differ only in *how trials are scheduled* and *how memory
//! is staged*.
//!
//! The scheduling is one loop, `run_layers`: the trial-block driver that
//! `ParallelEngine` and `ChunkedEngine` both are, each with its own
//! `LayerKernel`.  `SequentialEngine` keeps a serial loop of its own, so
//! every `parallel ≡ sequential` check compares two independent loops.

use std::ops::Range;
use std::sync::Arc;

use rayon::prelude::*;

use catrisk_eventgen::yet::EventOccurrence;
use catrisk_finterms::apply;
use catrisk_finterms::layer::Layer;
use catrisk_finterms::terms::LayerTerms;
use catrisk_simkit::{parallel::build_pool, sampling::stratify};

use crate::input::{AnalysisInput, PreparedElt};
use crate::ylt::{AnalysisOutput, TrialOutcome, YearLossTable};

/// Computes the per-occurrence losses of one trial for one layer, net of the
/// ELT financial terms and accumulated across the layer's ELTs
/// (paper lines 3–9), writing them into `occurrence_losses`.
///
/// `occurrence_losses` is cleared and resized to the trial length.
pub fn accumulate_occurrence_losses(
    elts: &[&PreparedElt],
    trial: &[EventOccurrence],
    occurrence_losses: &mut Vec<f64>,
) {
    occurrence_losses.clear();
    occurrence_losses.resize(trial.len(), 0.0);
    for elt in elts {
        for (slot, occ) in occurrence_losses.iter_mut().zip(trial) {
            // Line 5: look up the event's loss in this ELT.
            let gross = elt.lookup.get(occ.event);
            if gross > 0.0 {
                // Line 7: apply the ELT's financial terms; lines 8–9:
                // accumulate across ELTs into a single per-occurrence loss.
                *slot += elt.terms.apply(gross);
            }
        }
    }
}

/// Collapses a layer's ELTs into one per-event table: the per-ELT kernel run
/// over a trial in which every catalog event occurs once, so `table[event]`
/// is by construction what [`accumulate_occurrence_losses`] computes for an
/// occurrence of `event` and gathering from it is bit-identical to walking
/// the ELTs.  Event ids at or beyond `catalog_size` carry no ELT record and
/// so no entry: their loss is `0.0`.
pub(crate) fn collapse_layer(elts: &[&PreparedElt], catalog_size: u32) -> Vec<f64> {
    let every_event: Vec<EventOccurrence> = (0..catalog_size)
        .map(|event| EventOccurrence { event, time: 0.0 })
        .collect();
    let mut table = Vec::new();
    accumulate_occurrence_losses(elts, &every_event, &mut table);
    table
}

/// The collapsed counterpart of [`accumulate_occurrence_losses`]: one read
/// of a [`collapse_layer`] table per occurrence.
pub(crate) fn gather_occurrence_losses(
    table: &[f64],
    trial: &[EventOccurrence],
    occurrence_losses: &mut Vec<f64>,
) {
    occurrence_losses.clear();
    occurrence_losses.extend(
        trial
            .iter()
            .map(|occ| table.get(occ.event as usize).copied().unwrap_or(0.0)),
    );
}

/// The kernel [`run_layers`] runs for one layer pass.  `ParallelEngine`
/// picks per-ELT or collapsed by [`LayerKernel::for_layer`];
/// `ChunkedEngine` always stages per-ELT losses through chunks.
#[derive(Debug)]
pub(crate) enum LayerKernel<'a> {
    /// One lookup per (occurrence, ELT).
    PerElt(Vec<&'a PreparedElt>),
    /// One read of the layer's collapsed table per occurrence.
    Collapsed(Arc<[f64]>),
    /// [`trial_outcome_chunked`] over the ELTs with the given chunk size.
    Chunked(Vec<&'a PreparedElt>, usize),
}

impl<'a> LayerKernel<'a> {
    /// The production kernel for `layer` of `input`, chosen by
    /// [`AnalysisInput::collapsed_layer_table`] — a function of the input
    /// alone.
    pub fn for_layer(input: &'a AnalysisInput, layer: &Layer) -> Self {
        match input.collapsed_layer_table(layer) {
            Some(table) => LayerKernel::Collapsed(table),
            None => LayerKernel::PerElt(input.layer_elts(layer)),
        }
    }

    /// The full per-trial kernel (paper lines 3–19); bit-identical to
    /// [`trial_outcome`] over the layer's ELTs.
    pub fn trial_outcome(
        &self,
        terms: &LayerTerms,
        trial: &[EventOccurrence],
        scratch: &mut Vec<f64>,
    ) -> TrialOutcome {
        match self {
            LayerKernel::PerElt(elts) => trial_outcome(elts, terms, trial, scratch),
            LayerKernel::Collapsed(table) => {
                gather_occurrence_losses(table, trial, scratch);
                apply_layer_terms(scratch, terms)
            }
            LayerKernel::Chunked(elts, chunk_size) => {
                trial_outcome_chunked(elts, terms, trial, *chunk_size, scratch)
            }
        }
    }
}

/// Trial blocks per pool thread unless an engine says otherwise: the
/// granularity the rayon shim gives a plain pool map (4 chunks per worker).
pub(crate) const BLOCKS_PER_THREAD: usize = 4;

/// The one parallel trial loop ("a single thread is employed per trial",
/// paper §III.B).  For each layer it takes the kernel from `kernel_for`,
/// cuts the trials into `pool threads × blocks_per_thread` contiguous
/// blocks, maps the blocks on a pool of `threads` workers (0 = the default
/// size, which honours `CATRISK_THREADS`) with one scratch vector per
/// executor, and concatenates them in trial order — so the schedule never
/// changes the Year Loss Table.
pub(crate) fn run_layers<'a>(
    input: &'a AnalysisInput,
    threads: usize,
    blocks_per_thread: usize,
    kernel_for: impl Fn(&'a AnalysisInput, &Layer) -> LayerKernel<'a>,
) -> AnalysisOutput {
    let pool = build_pool(threads);
    let yet = input.yet();
    let parts = pool.current_num_threads() * blocks_per_thread.max(1);
    let blocks = stratify(yet.num_trials(), parts);
    let run_layer = |layer: &Layer| {
        let kernel = kernel_for(input, layer);
        let run_block = |scratch: &mut Vec<f64>, block: &Range<usize>| -> Vec<TrialOutcome> {
            block
                .clone()
                .map(|t| kernel.trial_outcome(&layer.terms, yet.trial(t).occurrences, scratch))
                .collect()
        };
        let outcomes: Vec<Vec<_>> = blocks.par_iter().map_init(Vec::new, run_block).collect();
        YearLossTable::new(layer.id, outcomes.concat())
    };
    pool.install(|| AnalysisOutput::new(input.layers().iter().map(run_layer).collect()))
}

/// Applies the layer terms to already-accumulated per-occurrence losses
/// (paper lines 10–19) and summarises the trial.
///
/// `occurrence_losses` is consumed as scratch space (it ends up holding the
/// per-occurrence recoveries net of all terms).
pub fn apply_layer_terms(occurrence_losses: &mut [f64], terms: &LayerTerms) -> TrialOutcome {
    // Lines 10–11: occurrence terms.
    apply::apply_occurrence_terms(occurrence_losses, terms.occ_retention, terms.occ_limit);
    let mut max_occurrence_loss = 0.0f64;
    let mut nonzero_events = 0u32;
    for &l in occurrence_losses.iter() {
        if l > 0.0 {
            nonzero_events += 1;
            if l > max_occurrence_loss {
                max_occurrence_loss = l;
            }
        }
    }
    // Lines 12–13: cumulative sums; lines 14–15: aggregate terms;
    // lines 16–19: difference back and sum into the year loss.
    apply::cumulative_sums(occurrence_losses);
    apply::apply_aggregate_terms(occurrence_losses, terms.agg_retention, terms.agg_limit);
    let year_loss = apply::difference_and_sum(occurrence_losses);
    TrialOutcome {
        year_loss,
        max_occurrence_loss,
        nonzero_events,
    }
}

/// The full per-trial kernel (paper lines 3–19): lookup + financial terms +
/// layer terms.
///
/// `scratch` is reused across calls to avoid per-trial allocation.
pub fn trial_outcome(
    elts: &[&PreparedElt],
    terms: &LayerTerms,
    trial: &[EventOccurrence],
    scratch: &mut Vec<f64>,
) -> TrialOutcome {
    accumulate_occurrence_losses(elts, trial, scratch);
    apply_layer_terms(scratch, terms)
}

/// Chunked variant of the per-trial kernel: events are processed in blocks
/// of `chunk_size`, with the per-occurrence losses of each block staged
/// through a small buffer before the layer pipeline runs over the whole
/// trial.  This mirrors the paper's optimised GPU kernel, which stages the
/// same intermediate vectors through shared memory chunk by chunk.
///
/// Produces exactly the same result as [`trial_outcome`].
pub fn trial_outcome_chunked(
    elts: &[&PreparedElt],
    terms: &LayerTerms,
    trial: &[EventOccurrence],
    chunk_size: usize,
    scratch: &mut Vec<f64>,
) -> TrialOutcome {
    assert!(chunk_size > 0, "chunk_size must be positive");
    scratch.clear();
    scratch.resize(trial.len(), 0.0);
    let mut chunk_buffer = vec![0.0f64; chunk_size];
    for (chunk_index, chunk) in trial.chunks(chunk_size).enumerate() {
        let buffer = &mut chunk_buffer[..chunk.len()];
        buffer.iter_mut().for_each(|b| *b = 0.0);
        for elt in elts {
            for (slot, occ) in buffer.iter_mut().zip(chunk) {
                let gross = elt.lookup.get(occ.event);
                if gross > 0.0 {
                    *slot += elt.terms.apply(gross);
                }
            }
        }
        let start = chunk_index * chunk_size;
        scratch[start..start + chunk.len()].copy_from_slice(buffer);
    }
    apply_layer_terms(scratch, terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{PreparedElt, PreparedLookup};
    use catrisk_finterms::terms::FinancialTerms;
    use catrisk_lookup::LookupKind;

    fn elt(pairs: &[(u32, f64)], terms: FinancialTerms) -> PreparedElt {
        PreparedElt {
            lookup: PreparedLookup::build(LookupKind::Direct, pairs, 1_000),
            terms,
            record_count: pairs.len(),
        }
    }

    fn occurrences(events: &[u32]) -> Vec<EventOccurrence> {
        events
            .iter()
            .enumerate()
            .map(|(i, &event)| EventOccurrence {
                event,
                time: i as f32,
            })
            .collect()
    }

    #[test]
    fn losses_accumulate_across_elts() {
        let a = elt(&[(1, 100.0), (2, 50.0)], FinancialTerms::pass_through());
        let b = elt(&[(2, 25.0), (3, 10.0)], FinancialTerms::pass_through());
        let trial = occurrences(&[1, 2, 3, 4]);
        let mut scratch = Vec::new();
        accumulate_occurrence_losses(&[&a, &b], &trial, &mut scratch);
        assert_eq!(scratch, vec![100.0, 75.0, 10.0, 0.0]);
    }

    #[test]
    fn financial_terms_applied_per_elt() {
        // ELT terms: 10 deductible, 100 limit, 50% share.
        let a = elt(
            &[(1, 60.0)],
            FinancialTerms::new(10.0, 100.0, 0.5, 1.0).unwrap(),
        );
        let trial = occurrences(&[1]);
        let mut scratch = Vec::new();
        accumulate_occurrence_losses(&[&a], &trial, &mut scratch);
        assert_eq!(scratch, vec![25.0]);
    }

    #[test]
    fn layer_terms_full_pipeline() {
        // Example from the finterms::apply tests: occurrence 10 xs 5,
        // aggregate 20 xs 10.
        let mut losses = vec![4.0, 12.0, 30.0, 8.0];
        let terms = LayerTerms::new(5.0, 10.0, 10.0, 20.0).unwrap();
        let outcome = apply_layer_terms(&mut losses, &terms);
        assert_eq!(outcome.year_loss, 10.0);
        assert_eq!(outcome.max_occurrence_loss, 10.0);
        assert_eq!(outcome.nonzero_events, 3);
    }

    #[test]
    fn trial_outcome_end_to_end() {
        let a = elt(&[(1, 100.0), (3, 400.0)], FinancialTerms::pass_through());
        let b = elt(&[(3, 50.0), (7, 900.0)], FinancialTerms::pass_through());
        let terms = LayerTerms::per_occurrence(100.0, 500.0).unwrap();
        let mut scratch = Vec::new();
        // Trial 1: events 1 and 3 -> losses 100 and 450; net of 500 xs 100 -> 0 + 350.
        let o1 = trial_outcome(&[&a, &b], &terms, &occurrences(&[1, 3]), &mut scratch);
        assert_eq!(o1.year_loss, 350.0);
        assert_eq!(o1.max_occurrence_loss, 350.0);
        assert_eq!(o1.nonzero_events, 1);
        // Trial 2: event 7 -> 900; net -> 500 (capped).
        let o2 = trial_outcome(&[&a, &b], &terms, &occurrences(&[7]), &mut scratch);
        assert_eq!(o2.year_loss, 500.0);
        // Empty trial.
        let o3 = trial_outcome(&[&a, &b], &terms, &occurrences(&[]), &mut scratch);
        assert_eq!(o3.year_loss, 0.0);
        assert_eq!(o3.nonzero_events, 0);
    }

    #[test]
    fn chunked_matches_unchunked_for_all_chunk_sizes() {
        let a = elt(
            &[(1, 100.0), (2, 250.0), (3, 400.0), (9, 30.0)],
            FinancialTerms::new(5.0, 350.0, 0.9, 1.1).unwrap(),
        );
        let b = elt(
            &[(2, 75.0), (7, 900.0), (9, 60.0)],
            FinancialTerms::pass_through(),
        );
        let terms = LayerTerms::new(50.0, 400.0, 100.0, 600.0).unwrap();
        let trial = occurrences(&[1, 2, 3, 4, 7, 9, 2, 3, 1, 9, 7]);
        let mut scratch = Vec::new();
        let reference = trial_outcome(&[&a, &b], &terms, &trial, &mut scratch);
        for chunk_size in [1, 2, 3, 4, 5, 8, 11, 16, 100] {
            let chunked =
                trial_outcome_chunked(&[&a, &b], &terms, &trial, chunk_size, &mut scratch);
            assert_eq!(chunked, reference, "chunk_size {chunk_size}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn chunked_zero_chunk_panics() {
        let a = elt(&[(1, 1.0)], FinancialTerms::pass_through());
        let mut scratch = Vec::new();
        trial_outcome_chunked(
            &[&a],
            &LayerTerms::unlimited(),
            &occurrences(&[1]),
            0,
            &mut scratch,
        );
    }

    #[test]
    fn unlimited_terms_sum_gross_losses() {
        let a = elt(&[(1, 10.0), (2, 20.0)], FinancialTerms::pass_through());
        let mut scratch = Vec::new();
        let o = trial_outcome(
            &[&a],
            &LayerTerms::unlimited(),
            &occurrences(&[1, 2, 2]),
            &mut scratch,
        );
        assert_eq!(o.year_loss, 50.0);
        assert_eq!(o.max_occurrence_loss, 20.0);
        assert_eq!(o.nonzero_events, 3);
    }
}
