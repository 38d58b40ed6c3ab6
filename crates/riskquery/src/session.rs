//! Batched query sessions: many queries answered in (close to) one scan.
//!
//! The in-process form of the grid path (see [`crate::partial`]): analysts
//! (or a test oracle) submit a *batch* of queries against one store, which
//! is a 1×1 grid with no cell cache.  The session
//!
//! 1. **deduplicates scan specs** — queries that share a filter and
//!    grouping (`Query::scan_spec`) share one scan and one set of grouped
//!    loss vectors, so "mean, VaR, TVaR and an EP curve of the same slice"
//!    costs one scan instead of four;
//! 2. **fuses the remaining scans** — specs over the same trial window are
//!    evaluated in a single pass: within each trial block every segment's
//!    loss slice is read once and routed to every spec that selected it,
//!    while the slice is hot in cache, instead of re-streaming the loss
//!    columns once per query;
//! 3. **shares order statistics** — sorted copies of each group's loss
//!    vector (needed by VaR/TVaR/PML/EP) are computed once per spec and
//!    reused by every query in the batch.
//!
//! This mirrors QuPARA's design of pushing a whole query batch through one
//! MapReduce job over the shared YLT file.

use crate::exec;
use crate::partial::{combine, group_by_key, scan_trial_partials_fused, TrialPartial};
use crate::plan::QueryPlan;
use crate::query::Query;
use crate::result::QueryResult;
use crate::store::{ResultStore, SegmentSource};
use crate::Result;

/// A batched query session over one store — any [`SegmentSource`], the
/// in-memory [`ResultStore`] (the default) or a persistent reader.
pub struct QuerySession<'a, S: SegmentSource + ?Sized = ResultStore> {
    store: &'a S,
}

impl<S: SegmentSource + ?Sized> std::fmt::Debug for QuerySession<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySession")
            .field("segments", &self.store.num_segments())
            .field("trials", &self.store.num_trials())
            .finish()
    }
}

impl<S: SegmentSource + ?Sized> Clone for QuerySession<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: SegmentSource + ?Sized> Copy for QuerySession<'_, S> {}

impl<'a, S: SegmentSource + ?Sized> QuerySession<'a, S> {
    /// Opens a session over `store`.
    pub fn new(store: &'a S) -> Self {
        Self { store }
    }

    /// Runs a batch of queries, returning one result per query in input
    /// order.  Equivalent to calling [`exec::execute`] per query — the
    /// batched path produces bit-identical results — but amortises scans
    /// across the batch.
    pub fn run(&self, queries: &[Query]) -> Result<Vec<QueryResult>> {
        // 1. One plan per scan spec.
        let specs = group_by_key(
            queries
                .iter()
                .enumerate()
                .map(|(qi, q)| (q.scan_spec(), qi)),
        );
        let plans = specs
            .iter()
            .map(|(_, members)| QueryPlan::new(self.store, &queries[members[0]]))
            .collect::<Result<Vec<QueryPlan>>>()?;

        // 2. On the 1×1 grid every plan is one cell spanning its own
        //    trial window: one fused scan per distinct window.
        let mut parts: Vec<Option<TrialPartial>> = plans.iter().map(|_| None).collect();
        let cells = plans.iter().enumerate();
        for ((start, end), members) in
            group_by_key(cells.map(|(si, plan)| ((plan.trial_start, plan.trial_end), si)))
        {
            let cell_plans: Vec<&QueryPlan> = members.iter().map(|&si| &plans[si]).collect();
            let scanned = scan_trial_partials_fused(self.store, &cell_plans, start, end);
            for (si, part) in members.into_iter().zip(scanned) {
                parts[si] = Some(part);
            }
        }

        // 3. Combine (a single part: borrowed, not copied) and finalise
        //    every query of a spec from its shared grouped data.
        let mut results: Vec<Option<QueryResult>> = (0..queries.len()).map(|_| None).collect();
        for (((_, members), plan), part) in specs.iter().zip(&plans).zip(&parts) {
            let aggregate = combine(plan, &[part.as_ref().expect("scanned above")], 1)?;
            let finals = exec::finalize(
                members.iter().map(|&qi| &queries[qi]),
                &plan.keys,
                &plan.segment_counts(),
                plan.num_trials(),
                &aggregate,
            );
            for (&qi, result) in members.iter().zip(finals) {
                results[qi] = Some(result);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every query finalised"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::{Dimension, LineOfBusiness, SegmentMeta};
    use crate::exec::execute;
    use crate::query::{Aggregate, Basis, QueryBuilder};
    use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;
    use catrisk_simkit::rng::RngFactory;

    fn random_store(trials: usize, segments: usize, seed: u64) -> ResultStore {
        let factory = RngFactory::new(seed);
        let mut store = ResultStore::new(trials);
        for s in 0..segments {
            let mut rng = factory.stream(s as u64);
            let outcomes: Vec<TrialOutcome> = (0..trials)
                .map(|_| {
                    let year = if rng.uniform() < 0.3 {
                        rng.uniform() * 1.0e6
                    } else {
                        0.0
                    };
                    TrialOutcome {
                        year_loss: year,
                        max_occurrence_loss: year * rng.uniform(),
                        nonzero_events: 0,
                    }
                })
                .collect();
            let meta = SegmentMeta::new(
                LayerId((s / 4) as u32),
                Peril::ALL[s % Peril::ALL.len()],
                Region::ALL[(s / 2) % Region::ALL.len()],
                LineOfBusiness::ALL[s % LineOfBusiness::ALL.len()],
            );
            store
                .ingest(&YearLossTable::new(LayerId(s as u32), outcomes), meta)
                .unwrap();
        }
        store
    }

    fn batch() -> Vec<Query> {
        vec![
            QueryBuilder::new()
                .with_perils([Peril::Hurricane, Peril::Flood])
                .group_by(Dimension::Region)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::Tvar { level: 0.99 })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .with_perils([Peril::Hurricane, Peril::Flood])
                .group_by(Dimension::Region)
                .aggregate(Aggregate::Var { level: 0.99 })
                .aggregate(Aggregate::EpCurve {
                    basis: Basis::Aep,
                    points: 10,
                })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .group_by(Dimension::Lob)
                .aggregate(Aggregate::Pml {
                    return_period: 100.0,
                    basis: Basis::Oep,
                })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .trials(0..64)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::StdDev)
                .build()
                .unwrap(),
            QueryBuilder::new()
                .group_by(Dimension::Region)
                .loss_at_least(1.0e5)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::Tvar { level: 0.9 })
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn batched_results_match_per_query_execution() {
        let store = random_store(257, 24, 99);
        let queries = batch();
        let batched = QuerySession::new(&store).run(&queries).unwrap();
        for (query, batched_result) in queries.iter().zip(&batched) {
            let single = execute(&store, query).unwrap();
            assert_eq!(
                &single, batched_result,
                "batched must be bit-identical to single"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let store = random_store(16, 4, 1);
        let results = QuerySession::new(&store).run(&[]).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn invalid_query_in_batch_errors() {
        let store = random_store(16, 4, 1);
        let bad = QueryBuilder::new()
            .trials(0..999)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert!(QuerySession::new(&store).run(&[bad]).is_err());
    }
}
