//! The partial grid: cells, their cacheable partial aggregates, and the
//! exact combine that turns them back into one scan's worth of data.
//!
//! Every snapshot a query runs over is an S×T [`Grid`] of (segment-range
//! × trial-window) **cells** — a flat store is 1×1, a segment-axis union
//! S×1, a trial-axis union 1×T — and every batch of queries, served or
//! in-process, takes the same path over it:
//!
//! 1. [`group_by_key`] on [`Query::scan_spec`](crate::Query::scan_spec):
//!    queries sharing a filter and grouping share one plan, one set of
//!    cell partials and one finalisation;
//! 2. [`plan_cells`]: the plan's [`Cell`]s (the alignment rule decides
//!    whether the segment axis may be cut at all);
//! 3. [`scan_trial_partials_fused`]: one walk of a (cell, window) emits a
//!    [`TrialPartial`] for every plan that needs it;
//! 4. [`combine`]: concatenation along trials, element-wise sum/max along
//!    segments — both exact;
//! 5. [`finalize`](crate::exec::finalize): metric kernels, once per spec.
//!
//! The per-cell partial is the natural unit of cache reuse — QuPARA's
//! multi-GPU follow-up makes the same observation for its per-partition
//! aggregates: when one shard refreshes, only its cells need rescanning,
//! and every other cell's cached partial re-combines unchanged.  A
//! [`TrialPartial`] therefore carries just enough self-description to
//! survive being cached across batches and re-combined later: decoded
//! group **keys** (not plan-local group indices — indices are an artifact
//! of one plan's first-appearance order), per-group **segment counts**,
//! and the global **trial window** it covers.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hash;

use crate::exec::{self, PartialAggregate};
use crate::plan::QueryPlan;
use crate::query::Query;
use crate::result::{DimValue, QueryResult};
use crate::store::SegmentSource;
use crate::{QueryError, Result};

/// One cell's contribution to a scan spec: the partial aggregate of the
/// cell's segments over the cell's trial window, keyed by decoded group
/// keys so it can be cached and re-combined across batches.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialPartial {
    /// Decoded group keys, in the producing plan's group order.
    pub keys: Vec<Vec<DimValue>>,
    /// Segments contributing to each group.
    pub segment_counts: Vec<usize>,
    /// The global trial window `[start, end)` this partial covers.
    pub window: (usize, usize),
    /// The accumulated loss vectors per group over the window.
    pub aggregate: PartialAggregate,
}

impl TrialPartial {
    fn new(plan: &QueryPlan, window: (usize, usize), aggregate: PartialAggregate) -> Self {
        Self {
            keys: plan.keys.clone(),
            segment_counts: plan.segment_counts(),
            window,
            aggregate,
        }
    }

    /// Approximate heap bytes of the partial's loss vectors (cache
    /// accounting).
    pub fn memory_bytes(&self) -> usize {
        self.aggregate
            .year
            .iter()
            .chain(&self.aggregate.maxocc)
            .map(|column| column.len() * std::mem::size_of::<f64>())
            .sum()
    }
}

/// Scans one window of one planned query through the **reference**
/// (unfused) loop [`execute`](crate::exec::execute) uses — what the
/// equivalence batteries compare [`scan_trial_partials_fused`] against,
/// and what the serving layer's self-heal rescans with.
///
/// The window must lie inside the plan's trial window; an empty window
/// yields a valid zero-trial partial, so cells outside the query's trial
/// filter still combine exactly.
pub fn scan_trial_partial<S: SegmentSource + ?Sized>(
    store: &S,
    plan: &QueryPlan,
    start: usize,
    end: usize,
) -> TrialPartial {
    let aggregate = exec::scan_window(store, plan, start, end);
    TrialPartial::new(plan, (start, end), aggregate)
}

/// One fused pass over the trial window `[start, end)` emitting a
/// [`TrialPartial`] per plan: each segment's loss slices are read once
/// per trial block and routed to every plan, so a batch costs one walk
/// of the window instead of one per plan.  Each returned partial is
/// bit-identical to [`scan_trial_partial`] of its plan alone.
///
/// Plans are scanned as given — dedup is the caller's job, by scan spec
/// ([`group_by_key`]), *before* planning.  Every plan's trial window must
/// contain `[start, end)`; an empty window yields valid zero-trial
/// partials.
pub fn scan_trial_partials_fused<S: SegmentSource + ?Sized>(
    store: &S,
    plans: &[&QueryPlan],
    start: usize,
    end: usize,
) -> Vec<TrialPartial> {
    plans
        .iter()
        .zip(exec::fused_scan_plans(store, plans, start, end))
        .map(|(plan, aggregate)| TrialPartial::new(plan, (start, end), aggregate))
        .collect()
}

/// Groups `items` by key, groups and members both in first-appearance
/// order — the one dedup rule of the grid path.  Keyed on
/// [`Query::scan_spec`](crate::Query::scan_spec) (`Eq + Hash` with a
/// total, NaN-free float treatment) it shares a scan between queries;
/// keyed on a cell it fuses every spec missing that cell into one walk.
/// Hashed, so linear in the batch size.
pub fn group_by_key<K: Copy + Eq + Hash, T>(
    items: impl IntoIterator<Item = (K, T)>,
) -> Vec<(K, Vec<T>)> {
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    let mut index: HashMap<K, usize> = HashMap::new();
    for (key, item) in items {
        let slot = *index.entry(key).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(item);
    }
    groups
}

/// How a snapshot is cut into cells.  An empty slice means "not cut
/// along this axis", so `Grid::default()` is the 1×1 grid of a flat
/// store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Grid<'a> {
    /// The global segment range `[lo, hi)` each shard of a segment-axis
    /// union contributes, in shard order; the ranges partition the
    /// union's segments.
    pub segment_ranges: &'a [(usize, usize)],
    /// The global trial window `[start, end)` each shard of a trial-axis
    /// union covers, in shard order; the windows partition the union's
    /// trials.
    pub trial_windows: &'a [(usize, usize)],
}

/// One cell of a plan's grid: what to scan, and where its partial lives.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's index in the grid, trial-window major
    /// (`window * segment_ranges + range`) — the slot a cell cache files
    /// the partial under and the index of the generation stamp that
    /// retires it.
    pub slot: usize,
    /// The global segment range `[lo, hi)` the cell covers.
    pub segments: (usize, usize),
    /// The cell's trial window clipped to the plan's (clamping is
    /// monotone, so clipped windows stay adjacent and a cell outside the
    /// plan's trial filter is an exact zero-trial partial).
    pub window: (usize, usize),
    /// The plan restricted to `segments`, loss range stripped (see
    /// [`split_plan_by_segments`]) — `None` when the cell spans every
    /// segment, where the plan itself is scanned, loss range included.
    pub plan: Option<QueryPlan>,
}

/// Enumerates the cells `plan` touches on `grid` over a source of
/// `num_segments` segments, in combine order (trial-window major), plus
/// the number of segment cells per trial window [`combine`] needs.
///
/// The trial axis is always cut: partials of adjacent windows
/// concatenate exactly.  The segment axis is cut only for **aligned**
/// plans ([`split_plan_by_segments`]); a plan that is not aligned is
/// **one cell spanning the whole union**, whatever the grid.  A plan
/// with a single cell has nothing worth caching per cell: its key would
/// carry exactly the information a whole-result cache key does.
pub fn plan_cells(plan: &QueryPlan, grid: Grid<'_>, num_segments: usize) -> (Vec<Cell>, usize) {
    let whole = (plan.trial_start, plan.trial_end);
    let spanning = |slot: usize, window: (usize, usize)| Cell {
        slot,
        segments: (0, num_segments),
        window,
        plan: None,
    };
    let windows: Vec<(usize, usize)> = match grid.trial_windows {
        [] => vec![whole],
        cut => cut
            .iter()
            .map(|&(start, end)| (start.clamp(whole.0, whole.1), end.clamp(whole.0, whole.1)))
            .collect(),
    };
    if grid.segment_ranges.len() < 2 {
        let cells = windows.into_iter().enumerate();
        return (
            cells.map(|(slot, window)| spanning(slot, window)).collect(),
            1,
        );
    }
    let Some(shards) = split_plan_by_segments(plan, grid.segment_ranges) else {
        return (vec![spanning(0, whole)], 1);
    };
    let mut cells = Vec::with_capacity(windows.len() * shards.len());
    for window in windows {
        for (shard, &segments) in shards.iter().zip(grid.segment_ranges) {
            cells.push(Cell {
                slot: cells.len(),
                segments,
                window,
                plan: Some(shard.clone()),
            });
        }
    }
    (cells, shards.len())
}

/// Splits `plan` along the segment `ranges` of a segment-axis grid: one
/// restricted plan per range — group indices remapped range-locally (in
/// order of first appearance, preserving global segment order), groups
/// with no segment in the range dropped, and the loss-range predicate
/// **stripped** ([`combine`] applies it once the ranges have been
/// summed) — or `None` when the plan is not **aligned**: some group
/// draws segments from more than one range (or a segment lies in none).
///
/// Alignment is the gate for cutting the segment axis.  Per-range
/// partials combine by element-wise sum, and floating-point addition is
/// not associative — a group spanning ranges would see a different
/// accumulation bracketing than the flat union scan and could differ in
/// the last ulp.  When every group lives in one range, exactly one range
/// contributes a non-identity vector per group, the (normalised,
/// `-0.0`-free) zero vector is a *bitwise* identity for `+`/`max`, and
/// the combined result is exactly the flat scan's bits.
pub fn split_plan_by_segments(
    plan: &QueryPlan,
    ranges: &[(usize, usize)],
) -> Option<Vec<QueryPlan>> {
    let empty = QueryPlan {
        trial_start: plan.trial_start,
        trial_end: plan.trial_end,
        ..QueryPlan::default()
    };
    let mut shards = vec![empty; ranges.len()];
    // owner[group] = (range, range-local group index)
    let mut owner: Vec<Option<(usize, usize)>> = vec![None; plan.num_groups()];
    for (&segment, &group) in plan.segments.iter().zip(&plan.groups) {
        let range = ranges
            .iter()
            .position(|&(lo, hi)| lo <= segment && segment < hi)?;
        let shard = &mut shards[range];
        let local = match owner[group] {
            Some((own, local)) if own == range => local,
            Some(_) => return None,
            None => {
                shard.keys.push(plan.keys[group].clone());
                owner[group] = Some((range, shard.keys.len() - 1));
                shard.keys.len() - 1
            }
        };
        shard.segments.push(segment);
        shard.groups.push(local);
    }
    Some(shards)
}

/// The one combine: a plan's cell partials, in [`plan_cells`] order with
/// `segment_cells` cells per trial window, back into the plan-wide loss
/// vectors — bit-identical to one scan of the whole plan.
///
/// * **Along segments** (`segment_cells > 1`): the cells of one window
///   are re-aligned **by key** (a range's local group order survives
///   other ranges' refreshes; a key a range does not carry contributes
///   the identity) and summed element-wise through the same add/max
///   kernel the scan uses, into the `±0.0`-normalised zero vector.
/// * **Along trials**: the windows concatenate in order; each must start
///   where the previous ended, from the plan's window start to its end.
/// * **The loss range** is applied at the first point a group's total is
///   complete: inside the scan when a cell spans every segment
///   (`segment_cells == 1` — those partials arrive already filtered),
///   here after the element-wise sum otherwise.  Either way the filter
///   sees the same complete per-trial totals, and compaction preserves
///   trial order, so the bits cannot depend on where it ran.
///
/// A plan with a single spanning cell combines **without copying**: the
/// result borrows the part.  Parts that do not describe `plan` (foreign
/// keys, a gap between windows, vectors not spanning their window) are
/// an error, never a wrong answer — a serving layer self-heals on it.
pub fn combine<'a>(
    plan: &QueryPlan,
    parts: &[&'a TrialPartial],
    segment_cells: usize,
) -> Result<Cow<'a, PartialAggregate>> {
    let mismatch = |what: &str| Err(QueryError::Store(format!("cell partials {what}")));
    let groups = plan.num_groups();
    // Only the element-wise sum re-aligns by key; the common single-cell
    // and trial-only combines never pay for the index.
    let mut group_of: HashMap<&Vec<DimValue>, usize> = HashMap::new();
    if segment_cells > 1 {
        group_of.extend(plan.keys.iter().enumerate().map(|(g, key)| (key, g)));
    }
    let mut windows: Vec<Cow<'a, PartialAggregate>> = Vec::new();
    let mut at = plan.trial_start;
    for cells in parts.chunks(segment_cells.max(1)) {
        let window = cells[0].window;
        if window.0 != at || cells.iter().any(|part| part.window != window) {
            return mismatch("do not tile the plan's trial window");
        }
        at = window.1;
        if segment_cells == 1 {
            if cells[0].keys != plan.keys {
                return mismatch("disagree on group keys; they describe different snapshots");
            }
            windows.push(Cow::Borrowed(&cells[0].aggregate));
            continue;
        }
        let mut sum = PartialAggregate::identity(groups, window.1 - window.0);
        for part in cells {
            for (j, key) in part.keys.iter().enumerate() {
                let (year, occ) = (&part.aggregate.year[j], &part.aggregate.maxocc[j]);
                match group_of.get(key) {
                    Some(&group)
                        if year.len() == sum.year[group].len() && occ.len() == year.len() =>
                    {
                        sum.accumulate(group, year, occ)
                    }
                    _ => return mismatch("describe a different snapshot of their segment range"),
                }
            }
        }
        windows.push(Cow::Owned(sum));
    }
    if at != plan.trial_end || windows.is_empty() {
        return mismatch("do not cover the plan's trial window");
    }
    let mut total = if windows.len() == 1 {
        windows.pop().expect("one window")
    } else {
        let concat = |column: fn(&PartialAggregate) -> &Vec<Vec<f64>>| -> Vec<Vec<f64>> {
            (0..groups)
                .map(|group| {
                    let mut merged =
                        Vec::with_capacity(windows.iter().map(|w| column(w)[group].len()).sum());
                    for window in &windows {
                        merged.extend_from_slice(&column(window)[group]);
                    }
                    merged
                })
                .collect()
        };
        Cow::Owned(PartialAggregate {
            year: concat(|aggregate| &aggregate.year),
            maxocc: concat(|aggregate| &aggregate.maxocc),
        })
    };
    if let (true, Some(range)) = (segment_cells > 1, plan.loss) {
        total.to_mut().retain_by_year(range);
    }
    Ok(total)
}

/// Stitches the partials of adjacent trial windows (in window order)
/// into the final [`QueryResult`], bit-identical to scanning the whole
/// window at once — [`combine`] along trials plus
/// [`finalize`](crate::exec::finalize) for callers that hold parts but
/// no plan.  The parts must agree on their group keys.
pub fn combine_trial_partial_refs(query: &Query, parts: &[&TrialPartial]) -> Result<QueryResult> {
    let (Some(first), Some(last)) = (parts.first(), parts.last()) else {
        return Err(QueryError::Store(
            "no trial partials to combine".to_string(),
        ));
    };
    // All `combine` reads of a plan: its keys, window and loss range.
    let plan = QueryPlan {
        trial_start: first.window.0,
        trial_end: last.window.1,
        keys: first.keys.clone(),
        ..QueryPlan::default()
    };
    let aggregate = combine(&plan, parts, 1)?;
    let mut results = exec::finalize(
        [query],
        &first.keys,
        &first.segment_counts,
        plan.num_trials(),
        &aggregate,
    );
    Ok(results.pop().expect("one result per query"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::query::{Aggregate, Basis, QueryBuilder};
    use crate::store::ResultStore;
    use crate::Dimension;
    use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;

    use crate::dims::{LineOfBusiness, SegmentMeta};

    fn store() -> ResultStore {
        let mut store = ResultStore::new(6);
        let segs = [
            (0u32, Peril::Hurricane, [1.0, 0.0, 4.0, 2.0, 7.0, 0.0]),
            (1, Peril::Flood, [2.0, 5.0, 0.0, 1.0, 0.0, 3.0]),
            (2, Peril::Hurricane, [0.0, 1.0, 1.0, 0.0, 2.0, 9.0]),
        ];
        for (layer, peril, losses) in segs {
            let outcomes = losses
                .iter()
                .map(|&l| TrialOutcome {
                    year_loss: l,
                    max_occurrence_loss: l * 0.5,
                    nonzero_events: 0,
                })
                .collect();
            store
                .ingest(
                    &YearLossTable::new(LayerId(layer), outcomes),
                    SegmentMeta::new(
                        LayerId(layer),
                        peril,
                        Region::Europe,
                        LineOfBusiness::Property,
                    ),
                )
                .unwrap();
        }
        store
    }

    fn queries() -> Vec<Query> {
        vec![
            QueryBuilder::new()
                .group_by(Dimension::Peril)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::Tvar { level: 0.9 })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .trials(1..5)
                .aggregate(Aggregate::EpCurve {
                    basis: Basis::Oep,
                    points: 3,
                })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .loss_at_least(2.0)
                .group_by(Dimension::Layer)
                .aggregate(Aggregate::MaxLoss)
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn stitched_partials_reproduce_execute_bitwise() {
        let store = store();
        for query in queries() {
            let plan = QueryPlan::new(&store, &query).unwrap();
            // Split the plan window into up to three chunks, including a
            // possibly-empty middle chunk.
            let (lo, hi) = (plan.trial_start, plan.trial_end);
            let a = lo + (hi - lo) / 3;
            let b = lo + 2 * (hi - lo) / 3;
            let parts = [
                scan_trial_partial(&store, &plan, lo, a),
                scan_trial_partial(&store, &plan, a, b),
                scan_trial_partial(&store, &plan, b, hi),
            ];
            assert!(parts[0].memory_bytes() <= parts[0].aggregate.year.len() * (hi - lo) * 16);
            let stitched =
                combine_trial_partial_refs(&query, &parts.iter().collect::<Vec<_>>()).unwrap();
            assert_eq!(
                stitched,
                execute(&store, &query).unwrap(),
                "stitched partials must be bit-identical to a whole-window scan"
            );
        }
    }

    #[test]
    fn empty_window_partials_are_identity() {
        let store = store();
        let query = QueryBuilder::new()
            .trials(0..3)
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).unwrap();
        // A shard whose window lies entirely outside the query's trial
        // filter contributes a zero-trial partial.
        let parts = [
            scan_trial_partial(&store, &plan, 0, 3),
            scan_trial_partial(&store, &plan, 3, 3),
        ];
        let stitched = combine_trial_partial_refs(&query, &[&parts[0], &parts[1]]).unwrap();
        assert_eq!(stitched, execute(&store, &query).unwrap());
    }

    #[test]
    fn misaligned_partials_are_rejected() {
        let store = store();
        let query = queries().remove(0);
        let plan = QueryPlan::new(&store, &query).unwrap();
        let a = scan_trial_partial(&store, &plan, 0, 2);
        let c = scan_trial_partial(&store, &plan, 4, 6);
        // A gap between windows is rejected.
        assert!(matches!(
            combine_trial_partial_refs(&query, &[&a, &c]),
            Err(QueryError::Store(_))
        ));
        // So are parts whose group keys disagree.
        let other_query = QueryBuilder::new()
            .group_by(Dimension::Layer)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let other_plan = QueryPlan::new(&store, &other_query).unwrap();
        let miskeyed = scan_trial_partial(&store, &other_plan, 2, 6);
        assert!(matches!(
            combine_trial_partial_refs(&query, &[&a, &miskeyed]),
            Err(QueryError::Store(_))
        ));
        // And an empty part list.
        assert!(combine_trial_partial_refs(&query, &[]).is_err());
    }
}
