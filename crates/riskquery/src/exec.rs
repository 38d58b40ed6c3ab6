//! Query execution: the rayon-parallel scan pipeline and aggregate
//! finalisation.
//!
//! ## Determinism
//!
//! The scan parallelises over **trial blocks** (the long axis), not over
//! segments: each worker owns a disjoint trial window and accumulates every
//! surviving segment *in segment order* within it.  The per-block partials
//! are therefore disjoint and merge by concatenation — an exact monoid
//! `combine` with no floating-point interaction — so query results are
//! bit-identical to a single-threaded scan for any thread count, mirroring
//! the engine crate's bit-identical guarantee across its parallel variants.

use rayon::prelude::*;

use catrisk_metrics::ep::ExceedanceCurve;
use catrisk_simkit::stats::{
    max_or_zero, mean_or_zero, population_std_dev, positive_fraction, quantile_sorted,
    tail_mean_sorted,
};

use crate::kernel;
use crate::plan::QueryPlan;
use crate::query::{Aggregate, Basis, LossRange, Query};
use crate::result::{AggValue, DimValue, QueryResult, ResultRow};
use crate::store::SegmentSource;
use crate::Result;

/// Per-group accumulated loss vectors over one trial window: the "partial
/// aggregate" of the QuPARA mapper stage.
///
/// Year losses of a group sum across its segments within a trial (all
/// segments see the same trial); occurrence losses take the per-trial
/// maximum, which is what an OEP curve of the combined group means.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAggregate {
    /// `year[group][t]`: summed year loss of `group` in relative trial `t`.
    pub year: Vec<Vec<f64>>,
    /// `maxocc[group][t]`: largest single-occurrence loss of `group`.
    pub maxocc: Vec<Vec<f64>>,
}

impl PartialAggregate {
    /// The monoid identity over `groups` groups and `trials` trials: zero
    /// losses everywhere (losses are non-negative, so 0 is also the `max`
    /// identity).
    pub fn identity(groups: usize, trials: usize) -> Self {
        Self {
            year: vec![vec![0.0; trials]; groups],
            maxocc: vec![vec![0.0; trials]; groups],
        }
    }

    /// A partial with `groups` groups and *no* trials materialised yet —
    /// the starting state for [`accumulate_or_init`](Self::accumulate_or_init),
    /// which lets a block's first segment per group write the vectors
    /// directly instead of accumulating into freshly zeroed ones.
    pub fn empty(groups: usize) -> Self {
        Self {
            year: vec![Vec::new(); groups],
            maxocc: vec![Vec::new(); groups],
        }
    }

    /// Accumulates one segment's loss slices into `group` through the
    /// fused add/max kernel ([`kernel::accumulate_fused`]).  The group's
    /// vectors must already be the slice length.
    #[inline]
    pub fn accumulate(&mut self, group: usize, year: &[f64], maxocc: &[f64]) {
        kernel::accumulate_fused(&mut self.year[group], &mut self.maxocc[group], year, maxocc);
    }

    /// [`accumulate`](Self::accumulate) that initialises an untouched
    /// group from its first segment (bit-identical to accumulating into
    /// the zero identity, without allocating and zeroing it first).
    #[inline]
    pub fn accumulate_or_init(&mut self, group: usize, year: &[f64], maxocc: &[f64]) {
        if self.year[group].is_empty() && !year.is_empty() {
            kernel::init_fused(&mut self.year[group], &mut self.maxocc[group], year, maxocc);
        } else {
            self.accumulate(group, year, maxocc);
        }
    }

    /// Zero-fills any group no segment touched, so a partial built with
    /// [`empty`](Self::empty) + [`accumulate_or_init`](Self::accumulate_or_init)
    /// ends exactly where `identity` + `accumulate` would.
    pub(crate) fn fill_untouched(&mut self, trials: usize) {
        for (year, maxocc) in self.year.iter_mut().zip(&mut self.maxocc) {
            if year.is_empty() && trials > 0 {
                year.resize(trials, 0.0);
                maxocc.resize(trials, 0.0);
            }
        }
    }

    /// Merges a partial covering the trial window immediately after this
    /// one (disjoint windows ⇒ exact concatenation).
    pub fn combine_adjacent(mut self, next: PartialAggregate) -> Self {
        for (acc, mut block) in self.year.iter_mut().zip(next.year) {
            acc.append(&mut block);
        }
        for (acc, mut block) in self.maxocc.iter_mut().zip(next.maxocc) {
            acc.append(&mut block);
        }
        self
    }

    /// Drops, group by group, the trials whose summed year loss lies
    /// outside `range` — the scan-side evaluation of a
    /// [`LossRange`] predicate.  Both columns keep exactly the surviving
    /// trials (the occurrence column is masked by the *year* losses, so a
    /// group's OEP statistics are conditioned on the same years as its AEP
    /// statistics).  Compaction preserves trial order, so adjacent-window
    /// concatenation stays exact.
    pub fn retain_by_year(&mut self, range: LossRange) {
        for (year, maxocc) in self.year.iter_mut().zip(&mut self.maxocc) {
            kernel::retain_fused(year, maxocc, range);
        }
    }
}

/// Splits `[start, end)` into at most `parts` contiguous non-empty
/// blocks, then further splits every block at the interior `cuts` (a
/// source's [`SegmentSource::trial_cuts`]) so no block straddles a
/// backing-allocation boundary.  Extra splits cannot change results: the
/// per-block partials merge by exact concatenation.
pub(crate) fn trial_blocks_cut(
    start: usize,
    end: usize,
    parts: usize,
    cuts: &[usize],
) -> Vec<(usize, usize)> {
    let blocks = trial_blocks(start, end, parts);
    if cuts.is_empty() {
        return blocks;
    }
    let mut split = Vec::with_capacity(blocks.len() + cuts.len());
    for (block_start, block_end) in blocks {
        let mut at = block_start;
        for &cut in cuts {
            if cut <= at {
                continue;
            }
            if cut >= block_end {
                break;
            }
            split.push((at, cut));
            at = cut;
        }
        split.push((at, block_end));
    }
    split
}

/// Splits `span` trials into at most `parts` contiguous non-empty blocks.
pub(crate) fn trial_blocks(start: usize, end: usize, parts: usize) -> Vec<(usize, usize)> {
    let span = end - start;
    if span == 0 {
        return vec![];
    }
    let parts = parts.clamp(1, span);
    let base = span / parts;
    let extra = span % parts;
    let mut blocks = Vec::with_capacity(parts);
    let mut at = start;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        blocks.push((at, at + len));
        at += len;
    }
    blocks
}

/// The reference scan of `plan` over the sub-window `[start, end)` of its
/// trial window: per-trial-block partial aggregation in parallel, merged
/// by exact concatenation.  A loss-range predicate in the plan is
/// evaluated per block, after all segments have been accumulated into the
/// block's group totals and while those totals are still cache-hot.  Any
/// split of the window into sub-windows stitches back with the same
/// adjacent-window monoid the blocks below merge by, so the stitched
/// result is bit-identical to one scan of the whole window.
pub(crate) fn scan_window<S: SegmentSource + ?Sized>(
    store: &S,
    plan: &QueryPlan,
    start: usize,
    end: usize,
) -> PartialAggregate {
    debug_assert!(plan.trial_start <= start && end <= plan.trial_end && start <= end);
    let groups = plan.num_groups();
    // Finer blocks than workers (see `kernel::scan_parts`) give the
    // shim's self-scheduling claim loop room to rebalance skewed blocks;
    // block boundaries never change bits.
    let blocks = trial_blocks_cut(start, end, kernel::scan_parts(), &store.trial_cuts());
    let partials: Vec<PartialAggregate> = blocks
        .into_par_iter()
        .map(|(block_start, block_end)| {
            let len = block_end - block_start;
            let mut partial = PartialAggregate::empty(groups);
            for (&segment, &group) in plan.segments.iter().zip(&plan.groups) {
                let year = store.year_losses_in(segment, block_start, block_end);
                let occ = store.max_occ_losses_in(segment, block_start, block_end);
                partial.accumulate_or_init(group, year, occ);
            }
            partial.fill_untouched(len);
            if let Some(range) = plan.loss {
                partial.retain_by_year(range);
            }
            partial
        })
        .collect();
    partials
        .into_iter()
        .reduce(PartialAggregate::combine_adjacent)
        .unwrap_or_else(|| PartialAggregate::identity(groups, 0))
}

/// One fused pass over the trial window `[start, end)` serving every plan
/// in `plans`: within each trial block, each segment's loss slices are
/// read once and accumulated into every plan that selected the segment —
/// the one fused block loop, reached only through
/// [`scan_trial_partials_fused`](crate::partial::scan_trial_partials_fused)
/// by both [`QuerySession`](crate::QuerySession) batches and the serving
/// layer's grid executor.
///
/// Returns one [`PartialAggregate`] per plan, in input order, each
/// bit-identical to [`scan_window`] of that plan alone: the fusion only
/// changes *when* a loss slice is read, never the per-plan accumulation
/// order, and block boundaries cannot change bits (the adjacent-window
/// monoid).  Every plan's trial window must contain `[start, end)`.
pub(crate) fn fused_scan_plans<S: SegmentSource + ?Sized>(
    store: &S,
    plans: &[&QueryPlan],
    start: usize,
    end: usize,
) -> Vec<PartialAggregate> {
    for plan in plans {
        debug_assert!(plan.trial_start <= start && end <= plan.trial_end && start <= end);
    }
    // Routing table: segment -> [(plan index, group)].
    let mut routing: Vec<Vec<(u32, u32)>> = vec![Vec::new(); store.num_segments()];
    for (pi, plan) in plans.iter().enumerate() {
        for (&segment, &group) in plan.segments.iter().zip(&plan.groups) {
            routing[segment].push((pi as u32, group as u32));
        }
    }
    let touched: Vec<usize> = (0..store.num_segments())
        .filter(|&s| !routing[s].is_empty())
        .collect();
    let group_counts: Vec<usize> = plans.iter().map(|plan| plan.num_groups()).collect();

    // Finer blocks than workers (see `kernel::scan_parts`) give the
    // shim's self-scheduling claim loop room to rebalance skewed blocks;
    // block boundaries never change bits.
    let blocks = trial_blocks_cut(start, end, kernel::scan_parts(), &store.trial_cuts());
    let partial_sets: Vec<Vec<PartialAggregate>> = blocks
        .into_par_iter()
        .map(|(block_start, block_end)| {
            let len = block_end - block_start;
            let mut partials: Vec<PartialAggregate> = group_counts
                .iter()
                .map(|&g| PartialAggregate::empty(g))
                .collect();
            for &segment in &touched {
                let year = store.year_losses_in(segment, block_start, block_end);
                let occ = store.max_occ_losses_in(segment, block_start, block_end);
                for &(pi, group) in &routing[segment] {
                    partials[pi as usize].accumulate_or_init(group as usize, year, occ);
                }
            }
            for (partial, plan) in partials.iter_mut().zip(plans) {
                partial.fill_untouched(len);
                if let Some(range) = plan.loss {
                    partial.retain_by_year(range);
                }
            }
            partials
        })
        .collect();

    // Adjacent-window concatenation per plan, in block order.
    let mut iter = partial_sets.into_iter();
    let mut merged = match iter.next() {
        Some(first) => first,
        None => group_counts
            .iter()
            .map(|&g| PartialAggregate::identity(g, 0))
            .collect(),
    };
    for set in iter {
        merged = merged
            .into_iter()
            .zip(set)
            .map(|(acc, block)| acc.combine_adjacent(block))
            .collect();
    }
    merged
}

/// Sorted copies of a group's loss vectors, computed lazily — VaR, TVaR,
/// PML and EP curves all need order statistics over the same data.
#[derive(Debug, Default)]
struct SortedCache {
    year: Option<Vec<f64>>,
    maxocc: Option<Vec<f64>>,
}

impl SortedCache {
    fn sorted<'a>(
        &'a mut self,
        basis: Basis,
        partial: &PartialAggregate,
        group: usize,
    ) -> &'a [f64] {
        let (slot, source) = match basis {
            Basis::Aep => (&mut self.year, &partial.year[group]),
            Basis::Oep => (&mut self.maxocc, &partial.maxocc[group]),
        };
        slot.get_or_insert_with(|| {
            let mut sorted = source.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite losses"));
            sorted
        })
    }
}

/// Finalises one group's aggregates from its accumulated loss vectors.
///
/// Every aggregate goes through the shared kernels a direct YLT
/// computation uses — `catrisk-simkit`'s scalar kernels (`mean_or_zero`,
/// `population_std_dev`, `max_or_zero`, `positive_fraction`, the same
/// functions behind `YearLossTable::mean_loss` and friends) and
/// `quantile_sorted` / `tail_mean_sorted` plus `catrisk-metrics`'
/// `ExceedanceCurve` for the order statistics — so a query result is
/// bit-identical to brute-force aggregation over the raw Year Loss Tables
/// by construction.
fn finalize_group(
    aggregates: &[Aggregate],
    partial: &PartialAggregate,
    group: usize,
    cache: &mut SortedCache,
) -> Vec<AggValue> {
    let year = &partial.year[group];
    if year.is_empty() {
        // A loss-range filter can condition a group on zero trials (the
        // scan itself never produces an empty window otherwise).  Losses
        // over an empty year set are zero; curves are empty.
        return aggregates
            .iter()
            .map(|aggregate| match aggregate {
                Aggregate::EpCurve { .. } => AggValue::Curve(Vec::new()),
                _ => AggValue::Scalar(0.0),
            })
            .collect();
    }
    aggregates
        .iter()
        .map(|aggregate| match aggregate {
            Aggregate::Mean => AggValue::Scalar(mean_or_zero(year)),
            Aggregate::StdDev => AggValue::Scalar(population_std_dev(year)),
            Aggregate::MaxLoss => AggValue::Scalar(max_or_zero(year)),
            Aggregate::AttachProb => AggValue::Scalar(positive_fraction(year)),
            Aggregate::Var { level } => AggValue::Scalar(quantile_sorted(
                cache.sorted(Basis::Aep, partial, group),
                *level,
            )),
            Aggregate::Tvar { level } => AggValue::Scalar(tail_mean_sorted(
                cache.sorted(Basis::Aep, partial, group),
                *level,
            )),
            Aggregate::Pml {
                return_period,
                basis,
            } => {
                let sorted = cache.sorted(*basis, partial, group);
                let curve = ExceedanceCurve::from_sorted(sorted.to_vec());
                AggValue::Scalar(curve.loss_at_return_period(*return_period))
            }
            Aggregate::EpCurve { basis, points } => {
                let sorted = cache.sorted(*basis, partial, group);
                let curve = ExceedanceCurve::from_sorted(sorted.to_vec());
                AggValue::Curve(curve.curve_points(*points))
            }
        })
        .collect()
}

/// The one finalise tail: the results of every query sharing one scan
/// spec, from that spec's combined loss vectors.
///
/// Rows come out in canonical order (ascending by decoded key), and the
/// lazily sorted loss copies behind VaR / TVaR / PML / EP curves live in
/// one `SortedCache` per group shared by *all* of `queries` — "mean,
/// VaR, TVaR and an EP curve of the same slice" sorts each group once.
/// `keys[g]` / `segment_counts[g]` describe group `g` of `aggregate`;
/// `trials` is the scanned window's length (before any loss range).
pub fn finalize<'q>(
    queries: impl IntoIterator<Item = &'q Query>,
    keys: &[Vec<DimValue>],
    segment_counts: &[usize],
    trials: usize,
    aggregate: &PartialAggregate,
) -> Vec<QueryResult> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| DimValue::compare_keys(&keys[a], &keys[b]));
    let mut caches: Vec<SortedCache> = keys.iter().map(|_| SortedCache::default()).collect();
    queries
        .into_iter()
        .map(|query| QueryResult {
            group_by: query.group_by.clone(),
            aggregates: query.aggregates.clone(),
            trials,
            rows: order
                .iter()
                .map(|&group| ResultRow {
                    key: keys[group].clone(),
                    segments: segment_counts[group],
                    values: finalize_group(&query.aggregates, aggregate, group, &mut caches[group]),
                })
                .collect(),
        })
        .collect()
}

/// Executes one query against any [`SegmentSource`] — the in-memory
/// [`ResultStore`](crate::store::ResultStore) or a persistent reader such
/// as `catrisk-riskstore`'s `StoreReader`.
///
/// Pipeline: plan (filter pushdown over segment tags) → parallel scan
/// (per-trial-block partial aggregation, exact combine) → finalisation
/// (metric kernels per group).  The scan is the plain unfused
/// `scan_window` loop on purpose: every equivalence battery compares
/// the fused grid path against this function.
pub fn execute<S: SegmentSource + ?Sized>(store: &S, query: &Query) -> Result<QueryResult> {
    let plan = QueryPlan::new(store, query)?;
    let partial = scan_window(store, &plan, plan.trial_start, plan.trial_end);
    let mut results = finalize(
        [query],
        &plan.keys,
        &plan.segment_counts(),
        plan.num_trials(),
        &partial,
    );
    Ok(results.pop().expect("one result per query"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::{Dimension, LineOfBusiness, SegmentMeta};
    use crate::query::QueryBuilder;
    use crate::store::ResultStore;
    use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;

    fn outcome(year: f64, occ: f64) -> TrialOutcome {
        TrialOutcome {
            year_loss: year,
            max_occurrence_loss: occ,
            nonzero_events: 0,
        }
    }

    fn store() -> ResultStore {
        let mut store = ResultStore::new(4);
        let segs = [
            (
                Peril::Hurricane,
                Region::Europe,
                vec![(1.0, 1.0), (0.0, 0.0), (4.0, 3.0), (2.0, 2.0)],
            ),
            (
                Peril::Hurricane,
                Region::Japan,
                vec![(2.0, 2.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0)],
            ),
            (
                Peril::Flood,
                Region::Europe,
                vec![(0.0, 0.0), (5.0, 4.0), (1.0, 1.0), (3.0, 3.0)],
            ),
        ];
        for (i, (peril, region, data)) in segs.into_iter().enumerate() {
            let outcomes = data.into_iter().map(|(y, o)| outcome(y, o)).collect();
            store
                .ingest(
                    &YearLossTable::new(LayerId(i as u32), outcomes),
                    SegmentMeta::new(LayerId(i as u32), peril, region, LineOfBusiness::Property),
                )
                .unwrap();
        }
        store
    }

    #[test]
    fn filter_only_totals() {
        let store = store();
        let query = QueryBuilder::new()
            .with_perils([Peril::Hurricane])
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::MaxLoss)
            .aggregate(Aggregate::AttachProb)
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        assert_eq!(result.rows.len(), 1);
        let row = &result.rows[0];
        assert_eq!(row.segments, 2);
        // Summed hurricane year losses: [3, 1, 4, 2] -> mean 2.5, max 4.
        assert_eq!(row.values[0], AggValue::Scalar(2.5));
        assert_eq!(row.values[1], AggValue::Scalar(4.0));
        assert_eq!(row.values[2], AggValue::Scalar(1.0));
    }

    #[test]
    fn group_by_peril_sums_within_trials() {
        let store = store();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        assert_eq!(result.rows.len(), 2);
        // Canonical order: Hurricane (variant 0) before Flood (variant 2).
        assert_eq!(result.rows[0].key[0].to_string(), "HU");
        assert_eq!(result.rows[0].values[0], AggValue::Scalar(10.0 / 4.0));
        assert_eq!(result.rows[1].key[0].to_string(), "FL");
        assert_eq!(result.rows[1].values[0], AggValue::Scalar(9.0 / 4.0));
    }

    #[test]
    fn oep_uses_max_merge() {
        let store = store();
        let query = QueryBuilder::new()
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Oep,
                points: 2,
            })
            .aggregate(Aggregate::Pml {
                return_period: 2.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        // Per-trial max occurrence across segments: [2, 4, 3, 3].
        let curve = result.rows[0].values[0].as_curve().unwrap();
        assert_eq!(curve.len(), 2);
        let pml = result.rows[0].values[1].as_scalar().unwrap();
        let expected = ExceedanceCurve::new(vec![2.0, 4.0, 3.0, 3.0]).loss_at_return_period(2.0);
        assert_eq!(pml, expected);
    }

    #[test]
    fn trial_window_restricts_scan() {
        let store = store();
        let query = QueryBuilder::new()
            .trials(1..3)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        // Trials 1..3 total year losses: [6, 5] -> mean 5.5.
        assert_eq!(result.trials, 2);
        assert_eq!(result.rows[0].values[0], AggValue::Scalar(5.5));
    }

    #[test]
    fn empty_selection_yields_no_rows() {
        let store = store();
        let query = QueryBuilder::new()
            .with_perils([Peril::Tornado])
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        assert!(result.rows.is_empty());
    }

    #[test]
    fn scan_is_block_count_invariant() {
        let store = store();
        let query = QueryBuilder::new()
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).unwrap();
        let reference = {
            let mut partial = PartialAggregate::identity(plan.num_groups(), plan.num_trials());
            for (&segment, &group) in plan.segments.iter().zip(&plan.groups) {
                partial.accumulate(
                    group,
                    store.year_losses(segment),
                    store.max_occ_losses(segment),
                );
            }
            partial
        };
        let scanned = scan_window(&store, &plan, plan.trial_start, plan.trial_end);
        assert_eq!(
            scanned, reference,
            "parallel scan must equal the sequential scan bitwise"
        );
    }

    #[test]
    fn loss_range_conditions_each_group() {
        let store = store();
        // Total year losses across the three segments: [3, 6, 5, 5].
        let query = QueryBuilder::new()
            .loss_at_least(5.0)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::MaxLoss)
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        // Surviving trials: [6, 5, 5] -> mean 16/3, max 6.
        assert_eq!(result.rows[0].values[0], AggValue::Scalar(16.0 / 3.0));
        assert_eq!(result.rows[0].values[1], AggValue::Scalar(6.0));

        // Bounded range keeps only the two 5s.
        let query = QueryBuilder::new()
            .loss_in(4.0, 5.0)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        assert_eq!(result.rows[0].values[0], AggValue::Scalar(5.0));

        // A range matching no trial yields zero-trial aggregates — zero
        // scalars and empty curves, not a panic (order statistics over an
        // empty tail are otherwise undefined).
        let query = QueryBuilder::new()
            .loss_at_least(1.0e9)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Oep,
                points: 3,
            })
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        assert_eq!(result.rows[0].values[0], AggValue::Scalar(0.0));
        assert_eq!(result.rows[0].values[1], AggValue::Scalar(0.0));
        assert_eq!(result.rows[0].values[2], AggValue::Curve(Vec::new()));
    }

    #[test]
    fn loss_range_masks_occurrence_column_by_year_losses() {
        let store = store();
        // Grouped by peril, hurricane year totals: [3, 1, 4, 2]; keeping
        // trials with year loss >= 2 retains trials {0, 2, 3} whose
        // occurrence maxima are [2, 3, 2].
        let query = QueryBuilder::new()
            .with_perils([Peril::Hurricane])
            .group_by(Dimension::Peril)
            .loss_at_least(2.0)
            .aggregate(Aggregate::Pml {
                return_period: 2.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap();
        let result = execute(&store, &query).unwrap();
        let expected = ExceedanceCurve::new(vec![2.0, 3.0, 2.0]).loss_at_return_period(2.0);
        assert_eq!(result.rows[0].values[0], AggValue::Scalar(expected));
    }

    #[test]
    fn loss_range_scan_is_block_count_invariant() {
        let store = store();
        let query = QueryBuilder::new()
            .group_by(Dimension::Region)
            .loss_in(1.0, 5.0)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).unwrap();
        let reference = {
            let mut partial = PartialAggregate::identity(plan.num_groups(), plan.num_trials());
            for (&segment, &group) in plan.segments.iter().zip(&plan.groups) {
                partial.accumulate(
                    group,
                    crate::store::SegmentSource::year_losses(&store, segment),
                    crate::store::SegmentSource::max_occ_losses(&store, segment),
                );
            }
            partial.retain_by_year(plan.loss.unwrap());
            partial
        };
        for threads in [1, 2, 3, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let scanned =
                pool.install(|| scan_window(&store, &plan, plan.trial_start, plan.trial_end));
            assert_eq!(scanned, reference, "threads={threads}");
        }
    }

    #[test]
    fn trial_blocks_partition_exactly() {
        for (start, end, parts) in [(0, 10, 3), (5, 6, 4), (0, 0, 2), (2, 100, 7)] {
            let blocks = trial_blocks(start, end, parts);
            let total: usize = blocks.iter().map(|(s, e)| e - s).sum();
            assert_eq!(total, end - start);
            let mut at = start;
            for (s, e) in blocks {
                assert_eq!(s, at);
                assert!(e > s);
                at = e;
            }
            assert_eq!(at, end.max(start));
        }
    }
}
