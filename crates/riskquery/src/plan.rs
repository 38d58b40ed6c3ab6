//! Query planning: filter pushdown over segment tags and group-key
//! assignment, before any loss data is touched.

use std::collections::HashMap;

use crate::query::{Filter, LossRange, Query};
use crate::result::DimValue;
use crate::store::SegmentSource;
use crate::{QueryError, Result};

/// The resolved execution plan of one query against one store: the
/// surviving segments (filter pushdown), their group assignment, and the
/// trial window.  The default is the empty plan: no segments, no groups,
/// the empty window.
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// Half-open trial window `[start, end)` actually scanned.
    pub trial_start: usize,
    /// End of the trial window.
    pub trial_end: usize,
    /// Per-trial year-loss range each group is conditioned on, applied
    /// inside the scan.
    pub loss: Option<LossRange>,
    /// Surviving segment indices in store order.
    pub segments: Vec<usize>,
    /// `groups[i]` is the group index of `segments[i]`.
    pub groups: Vec<usize>,
    /// Group keys, indexed by group (ordered by first appearance in
    /// segment order; [`finalize`](crate::exec::finalize) sorts the rows
    /// canonically).
    pub keys: Vec<Vec<DimValue>>,
}

impl QueryPlan {
    /// Checks that `query` can be planned against `store` without
    /// materialising the plan.
    ///
    /// Trial-window resolution is the only fallible step of
    /// [`QueryPlan::new`] (filtering and grouping by segment tags are
    /// total), so this is the complete admission check — a serving
    /// front-end calls it per submit at O(1) instead of paying the
    /// O(segments) planning pass it would immediately discard.
    pub fn validate<S: SegmentSource + ?Sized>(store: &S, query: &Query) -> Result<()> {
        Self::validate_trials(store.num_trials(), query)
    }

    /// [`QueryPlan::validate`] from the trial count alone.
    ///
    /// A store's trial count is fixed for its whole lifetime (refreshes
    /// add segments, never trials), so a serving front-end can admit
    /// queries against a cached count without touching — or locking —
    /// the store itself.
    pub fn validate_trials(num_trials: usize, query: &Query) -> Result<()> {
        resolve_trial_window(num_trials, &query.filter).map(|_| ())
    }

    /// Plans `query` against `store`.
    pub fn new<S: SegmentSource + ?Sized>(store: &S, query: &Query) -> Result<QueryPlan> {
        let (trial_start, trial_end) = resolve_trial_window(store.num_trials(), &query.filter)?;

        let mut segments = Vec::new();
        let mut groups = Vec::new();
        let mut keys: Vec<Vec<DimValue>> = Vec::new();
        let mut key_index: HashMap<Vec<DimValue>, usize> = HashMap::new();

        for (segment, meta) in store.metas().iter().enumerate() {
            if !query.filter.matches(meta) {
                continue;
            }
            let key: Vec<DimValue> = query.group_by.iter().map(|&dim| meta.value(dim)).collect();
            let group = *key_index.entry(key).or_insert_with_key(|key| {
                keys.push(key.clone());
                keys.len() - 1
            });
            segments.push(segment);
            groups.push(group);
        }

        Ok(QueryPlan {
            trial_start,
            trial_end,
            loss: query.filter.loss,
            segments,
            groups,
            keys,
        })
    }

    /// Number of result groups.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Number of trials in the scanned window.
    pub fn num_trials(&self) -> usize {
        self.trial_end - self.trial_start
    }

    /// Segments contributing to each group, indexed by group — what a
    /// result row reports as its `segments`.
    pub fn segment_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_groups()];
        for &group in &self.groups {
            counts[group] += 1;
        }
        counts
    }

    /// Attribution of scanning this plan's whole trial window — what a
    /// trace's `scan` span reports.
    pub fn attribution(&self) -> ScanAttribution {
        self.attribution_for_window(self.trial_start, self.trial_end)
    }

    /// Attribution of scanning this plan restricted to the global trial
    /// window `[start, end)` (the per-shard window of a trial-partial
    /// rescan).
    pub fn attribution_for_window(&self, start: usize, end: usize) -> ScanAttribution {
        let trials = end.saturating_sub(start);
        ScanAttribution {
            segments: self.segments.len(),
            trials,
            groups: self.num_groups(),
            bytes: self.segments.len() * trials * 2 * std::mem::size_of::<f64>(),
        }
    }
}

/// Numeric attribution of one scan, derived from the plan after filter
/// pushdown: how much work answering the query actually took.  These are
/// the counts a request trace attaches to its `scan` / `scan_shard` spans
/// (see `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanAttribution {
    /// Segments surviving filter pushdown (whole-segment pruning happens
    /// before any loss data is touched, so this is the scanned count, not
    /// the store's).
    pub segments: usize,
    /// Trials in the scanned window.
    pub trials: usize,
    /// Result groups the segments were assigned to.
    pub groups: usize,
    /// Loss-column bytes decoded: two `f64` columns (year loss and max
    /// occurrence loss) per segment per trial.
    pub bytes: usize,
}

fn resolve_trial_window(num_trials: usize, filter: &Filter) -> Result<(usize, usize)> {
    if num_trials == 0 {
        return Err(QueryError::Store(
            "the store holds no trials; aggregates over an empty trial set are undefined"
                .to_string(),
        ));
    }
    match filter.trials {
        None => Ok((0, num_trials)),
        Some((start, end)) => {
            if start >= end {
                return Err(QueryError::InvalidQuery(format!(
                    "empty trial window {start}..{end}"
                )));
            }
            if end > num_trials {
                return Err(QueryError::InvalidQuery(format!(
                    "trial window {start}..{end} exceeds the store's {num_trials} trials"
                )));
            }
            Ok((start, end))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::{Dimension, LineOfBusiness, SegmentMeta};
    use crate::query::{Aggregate, QueryBuilder};
    use crate::store::ResultStore;
    use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;

    fn store() -> ResultStore {
        let mut store = ResultStore::new(4);
        let outcomes = vec![
            TrialOutcome {
                year_loss: 1.0,
                max_occurrence_loss: 1.0,
                nonzero_events: 1
            };
            4
        ];
        for (layer, peril, region, lob) in [
            (
                0,
                Peril::Hurricane,
                Region::Europe,
                LineOfBusiness::Property,
            ),
            (0, Peril::Flood, Region::Europe, LineOfBusiness::Property),
            (1, Peril::Hurricane, Region::Japan, LineOfBusiness::Marine),
            (1, Peril::Earthquake, Region::Japan, LineOfBusiness::Marine),
        ] {
            store
                .ingest(
                    &YearLossTable::new(LayerId(layer), outcomes.clone()),
                    SegmentMeta::new(LayerId(layer), peril, region, lob),
                )
                .unwrap();
        }
        store
    }

    #[test]
    fn validate_agrees_with_planning() {
        let store = store();
        for (build, fine) in [
            (
                QueryBuilder::new().aggregate(Aggregate::Mean),
                true, // unconstrained
            ),
            (
                QueryBuilder::new().trials(0..4).aggregate(Aggregate::Mean),
                true, // exact window
            ),
            (
                QueryBuilder::new().trials(2..9).aggregate(Aggregate::Mean),
                false, // past the store's 4 trials
            ),
        ] {
            let query = build.build().unwrap();
            assert_eq!(QueryPlan::validate(&store, &query).is_ok(), fine);
            assert_eq!(QueryPlan::new(&store, &query).is_ok(), fine);
        }
    }

    #[test]
    fn pushdown_prunes_segments() {
        let store = store();
        let query = QueryBuilder::new()
            .with_perils([Peril::Hurricane])
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).unwrap();
        assert_eq!(plan.segments, vec![0, 2]);
        assert_eq!(plan.num_groups(), 1, "no group-by: everything in one group");
        assert_eq!(plan.num_trials(), 4);
        // Attribution reflects pushdown: 2 surviving segments x 4 trials x
        // two f64 columns.
        let attribution = plan.attribution();
        assert_eq!(
            attribution,
            ScanAttribution {
                segments: 2,
                trials: 4,
                groups: 1,
                bytes: 2 * 4 * 16,
            }
        );
        assert_eq!(plan.attribution_for_window(1, 3).trials, 2);
        assert_eq!(plan.attribution_for_window(3, 3).bytes, 0);
    }

    #[test]
    fn grouping_assigns_stable_keys() {
        let store = store();
        let query = QueryBuilder::new()
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).unwrap();
        assert_eq!(plan.num_groups(), 2);
        assert_eq!(plan.groups, vec![0, 0, 1, 1]);
        assert_eq!(plan.segment_counts(), vec![2, 2]);
    }

    #[test]
    fn unknown_filter_values_match_nothing() {
        let store = store();
        let query = QueryBuilder::new()
            .with_perils([Peril::Wildfire])
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).unwrap();
        assert!(plan.segments.is_empty());
    }

    #[test]
    fn trial_window_is_validated() {
        let store = store();
        let query = QueryBuilder::new()
            .trials(2..9)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert!(matches!(
            QueryPlan::new(&store, &query),
            Err(QueryError::InvalidQuery(_))
        ));
        let query = QueryBuilder::new()
            .trials(1..3)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&store, &query).unwrap();
        assert_eq!((plan.trial_start, plan.trial_end), (1, 3));
    }

    #[test]
    fn zero_trial_store_errors_instead_of_panicking() {
        let mut store = ResultStore::new(0);
        store
            .ingest(
                &YearLossTable::new(LayerId(0), vec![]),
                SegmentMeta::new(
                    LayerId(0),
                    Peril::Hurricane,
                    Region::Europe,
                    LineOfBusiness::Property,
                ),
            )
            .unwrap();
        let query = QueryBuilder::new()
            .aggregate(Aggregate::Var { level: 0.99 })
            .build()
            .unwrap();
        assert!(matches!(
            crate::exec::execute(&store, &query),
            Err(QueryError::Store(_))
        ));
    }
}
