//! Query execution: the rayon-parallel scan pipeline and aggregate
//! finalisation.
//!
//! Finalisation answers the quantile-family aggregates (VaR, TVaR, PML,
//! EP curves) through one lazily built [`OrderStats`] per group and
//! basis: selection over order keys instead of a full sort, with the
//! same bits (see `OrderStats`).
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

use catrisk_metrics::ep;
use catrisk_simkit::stats::{
    max_or_zero, mean_or_zero, population_std_dev, positive_fraction, OrderStats,
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

/// A group's order statistics, built lazily and at most once per basis —
/// VaR, TVaR, PML and EP curves of every query of a spec share them.
#[derive(Debug, Default)]
struct GroupOrderStats {
    year: Option<OrderStats>,
    maxocc: Option<OrderStats>,
}

impl GroupOrderStats {
    fn of(&mut self, basis: Basis, partial: &PartialAggregate, group: usize) -> &mut OrderStats {
        let (slot, source) = match basis {
            Basis::Aep => (&mut self.year, &partial.year[group]),
            Basis::Oep => (&mut self.maxocc, &partial.maxocc[group]),
        };
        slot.get_or_insert_with(|| OrderStats::new(source))
    }
}

/// Finalises one group's aggregates from its accumulated loss vectors.
///
/// Every aggregate goes through the shared kernels a direct YLT
/// computation uses — `catrisk-simkit`'s scalar kernels (`mean_or_zero`,
/// `population_std_dev`, `max_or_zero`, `positive_fraction`, the same
/// functions behind `YearLossTable::mean_loss` and friends), its
/// `OrderStats` for VaR and TVaR (the kernel behind `catrisk-metrics`'
/// `var` / `tvar`), and `catrisk-metrics`' EP-curve formulas over the same
/// `OrderStats` for PML and EP curves — so a query result is bit-identical
/// to brute-force aggregation over the raw Year Loss Tables by
/// construction.
fn finalize_group(
    aggregates: &[Aggregate],
    partial: &PartialAggregate,
    group: usize,
    stats: &mut GroupOrderStats,
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
            Aggregate::Var { level } => {
                AggValue::Scalar(stats.of(Basis::Aep, partial, group).quantile(*level))
            }
            Aggregate::Tvar { level } => {
                AggValue::Scalar(stats.of(Basis::Aep, partial, group).tail_mean(*level))
            }
            Aggregate::Pml {
                return_period,
                basis,
            } => {
                let stats = stats.of(*basis, partial, group);
                AggValue::Scalar(ep::loss_at_return_period(*return_period, |q| {
                    stats.quantile(q)
                }))
            }
            Aggregate::EpCurve { basis, points } => {
                let stats = stats.of(*basis, partial, group);
                AggValue::Curve(ep::curve_points(stats.len(), *points, |q| {
                    stats.quantile(q)
                }))
            }
        })
        .collect()
}

/// The one finalise tail: the results of every query sharing one scan
/// spec, from that spec's combined loss vectors.
///
/// Rows come out in canonical order (ascending by decoded key).  The
/// order statistics behind VaR / TVaR / PML / EP curves are one lazily
/// built `OrderStats` per group and basis, shared by *all* of `queries`
/// — "mean, VaR, TVaR and an EP curve of the same slice" copies each
/// group's losses once, and each answer selects only the ranks it reads
/// (a TVaR sorts only its tail), never sorting the whole vector.
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
    let mut stats: Vec<GroupOrderStats> = keys.iter().map(|_| GroupOrderStats::default()).collect();
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
                    values: finalize_group(&query.aggregates, aggregate, group, &mut stats[group]),
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
    use catrisk_metrics::ep::ExceedanceCurve;

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

    /// Today's sort-based finalisation of one group — a stably sorted copy
    /// per aggregate and the formulas read off it — kept as the oracle
    /// `finalize` must reproduce bit for bit.
    fn sorted_oracle(
        aggregates: &[Aggregate],
        partial: &PartialAggregate,
        group: usize,
    ) -> Vec<AggValue> {
        use catrisk_simkit::stats::{quantile_sorted, tail_mean_sorted};
        let year = &partial.year[group];
        let sorted = |basis: &Basis| {
            let mut sorted = match basis {
                Basis::Aep => year.clone(),
                Basis::Oep => partial.maxocc[group].clone(),
            };
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite losses"));
            sorted
        };
        aggregates
            .iter()
            .map(|aggregate| match aggregate {
                Aggregate::EpCurve { .. } if year.is_empty() => AggValue::Curve(Vec::new()),
                _ if year.is_empty() => AggValue::Scalar(0.0),
                Aggregate::Mean => AggValue::Scalar(mean_or_zero(year)),
                Aggregate::StdDev => AggValue::Scalar(population_std_dev(year)),
                Aggregate::MaxLoss => AggValue::Scalar(max_or_zero(year)),
                Aggregate::AttachProb => AggValue::Scalar(positive_fraction(year)),
                Aggregate::Var { level } => {
                    AggValue::Scalar(quantile_sorted(&sorted(&Basis::Aep), *level))
                }
                Aggregate::Tvar { level } => {
                    AggValue::Scalar(tail_mean_sorted(&sorted(&Basis::Aep), *level))
                }
                Aggregate::Pml {
                    return_period,
                    basis,
                } => AggValue::Scalar(quantile_sorted(&sorted(basis), 1.0 - 1.0 / return_period)),
                Aggregate::EpCurve { basis, points } => {
                    let sorted = sorted(basis);
                    let lowest = 1.0 / sorted.len() as f64;
                    AggValue::Curve(
                        (0..*points)
                            .map(|i| {
                                let p = 1.0 - (1.0 - lowest) * (i as f64 / (points - 1) as f64);
                                (p, quantile_sorted(&sorted, 1.0 - p))
                            })
                            .collect(),
                    )
                }
            })
            .collect()
    }

    fn value_bits(values: &[AggValue]) -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|value| match value {
                AggValue::Scalar(x) => vec![x.to_bits()],
                AggValue::Curve(points) => points
                    .iter()
                    .flat_map(|(p, loss)| [p.to_bits(), loss.to_bits()])
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn finalize_matches_the_sort_based_oracle_on_random_stores() {
        use catrisk_simkit::rng::RngFactory;

        let factory = RngFactory::new(40);
        let mut empty_groups = 0;
        for case in 0..64u64 {
            let mut rng = factory.stream(case);
            let trials = 1 + rng.below(700) as usize;
            let mut store = ResultStore::new(trials);
            for s in 0..1 + rng.below(12) as usize {
                // Coarse losses: long zero runs and many duplicates.
                let outcomes = (0..trials)
                    .map(|_| {
                        let year = if rng.uniform() < 0.4 {
                            (1 + rng.below(20)) as f64 * 1.0e4
                        } else {
                            0.0
                        };
                        outcome(year, year * (rng.below(4) as f64 / 4.0))
                    })
                    .collect();
                let meta = SegmentMeta::new(
                    LayerId(s as u32),
                    Peril::ALL[rng.below(Peril::ALL.len() as u64) as usize],
                    Region::ALL[rng.below(Region::ALL.len() as u64) as usize],
                    LineOfBusiness::ALL[rng.below(LineOfBusiness::ALL.len() as u64) as usize],
                );
                store
                    .ingest(&YearLossTable::new(LayerId(s as u32), outcomes), meta)
                    .unwrap();
            }
            let level = |rng: &mut catrisk_simkit::rng::SimRng| {
                [0.0, 0.5, 0.9, 0.95, 0.99, 0.995, 1.0][rng.below(7) as usize]
            };
            let mut aggregates = vec![
                Aggregate::Mean,
                Aggregate::StdDev,
                Aggregate::MaxLoss,
                Aggregate::AttachProb,
                Aggregate::Var {
                    level: level(&mut rng),
                },
                Aggregate::Tvar {
                    level: level(&mut rng),
                },
            ];
            for basis in [Basis::Aep, Basis::Oep] {
                aggregates.push(Aggregate::Pml {
                    return_period: [1.0, 50.0, 100.0, 250.0][rng.below(4) as usize],
                    basis,
                });
                aggregates.push(Aggregate::EpCurve {
                    basis,
                    points: 2 + rng.below(20) as usize,
                });
            }
            let start = rng.below(trials as u64) as usize;
            let end = start + 1 + rng.below((trials - start) as u64) as usize;
            // Every second case filters by loss; the threshold empties some
            // groups and, at its top, all of them.
            let loss = (case % 2 == 1).then(|| (1 + rng.below(30)) as f64 * 1.0e4);
            let group_by = [
                None,
                Some(Dimension::Peril),
                Some(Dimension::Region),
                Some(Dimension::Lob),
            ][rng.below(4) as usize];
            let query = |aggregates: &[Aggregate]| {
                let mut builder = QueryBuilder::new().trials(start..end);
                if let Some(min) = loss {
                    builder = builder.loss_at_least(min);
                }
                if let Some(dimension) = group_by {
                    builder = builder.group_by(dimension);
                }
                for aggregate in aggregates {
                    builder = builder.aggregate(aggregate.clone());
                }
                builder.build().unwrap()
            };
            // Three queries of one spec share each group's order statistics,
            // asked in different orders.
            let forward = query(&aggregates);
            aggregates.reverse();
            let backward = query(&aggregates);
            let quantiles = query(&aggregates[..6]);
            let queries = [forward, backward, quantiles];

            let plan = QueryPlan::new(&store, &queries[0]).unwrap();
            let partial = scan_window(&store, &plan, plan.trial_start, plan.trial_end);
            let results = finalize(
                &queries,
                &plan.keys,
                &plan.segment_counts(),
                plan.num_trials(),
                &partial,
            );
            let mut order: Vec<usize> = (0..plan.num_groups()).collect();
            order.sort_by(|&a, &b| DimValue::compare_keys(&plan.keys[a], &plan.keys[b]));
            empty_groups += order
                .iter()
                .filter(|&&g| partial.year[g].is_empty())
                .count();
            for (query, result) in queries.iter().zip(&results) {
                assert_eq!(result.rows.len(), order.len(), "case {case}");
                for (row, &group) in result.rows.iter().zip(&order) {
                    assert_eq!(
                        value_bits(&row.values),
                        value_bits(&sorted_oracle(&query.aggregates, &partial, group)),
                        "case {case}, group {:?}",
                        row.key
                    );
                }
            }
        }
        assert!(empty_groups > 0, "some loss range must empty a group");
    }
}
