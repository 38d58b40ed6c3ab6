//! Routing one query scan across stores that partition the **trial
//! axis**: the paper's own parallelisation dimension.
//!
//! The source paper distributes its simulation by trials — each worker
//! simulates a disjoint window of trials for *every* layer, and exact
//! aggregation stitches the windows back together.  A production ingest
//! fleet mirrors that: writer `j` owns trials `[t_j, t_{j+1})` and
//! produces a store holding one segment per layer over its window.
//! [`TrialShardedSource`] presents N such stores as one logical store
//! whose trial axis is their concatenation `[0, t_1) [t_1, t_2) …`, so
//! the existing [`plan`](crate::plan), [`exec`](crate::exec) and
//! [`QuerySession`](crate::session::QuerySession) pipeline runs over the
//! stitched axis unchanged.
//!
//! This is the *other* sharding axis from
//! [`ShardedSource`](crate::sharded::ShardedSource), which unions
//! disjoint **segment** sets over one shared trial axis:
//!
//! ```text
//!                 segments →
//!   trials   ┌───────────────────┐      ShardedSource: vertical slices
//!     ↓      │ A A A │ B B │ C C │      (each shard owns whole segments)
//!            │ A A A │ B B │ C C │
//!            ├───────┴─────┴─────┤
//!            │ 1 1 1   1 1   1 1 │      TrialShardedSource: horizontal
//!            │ 2 2 2   2 2   2 2 │      slices (each shard owns a trial
//!            │ 2 2 2   2 2   2 2 │      window of every segment)
//!            └───────────────────┘
//! ```
//!
//! ## Layout contract
//!
//! Every shard must present the *same segments in the same order* (same
//! dimension tags), because segment `s` of the union is segment `s` of
//! every shard, restricted to that shard's trial window.  Construction
//! validates this by comparing every shard's tags with shard 0's (how
//! each writer coded them on disk is irrelevant; the tags must agree).
//! When shards disagree on segment *count* — the serve-while-ingesting
//! state, where one writer has committed a layer its peers have not yet —
//! the union clamps to the common committed prefix: a layer becomes
//! visible only once every shard has committed it, which is exactly when
//! its stitched loss vectors are complete.
//!
//! ## Exactness
//!
//! Results are **bit-identical** to a single store holding every
//! segment's full loss vectors: the scan already splits its trial blocks
//! at [`trial_cuts`](SegmentSource::trial_cuts) (so every slice access
//! lands inside one shard) and merges per-block partials with the exact
//! concatenation monoid
//! [`PartialAggregate::combine_adjacent`](crate::exec::PartialAggregate::combine_adjacent)
//! — shard boundaries are just more block boundaries, and block
//! boundaries provably never change results (see
//! `scan_is_block_count_invariant` in [`exec`](crate::exec)).  The
//! workspace's `tests/catalog_equivalence.rs` proves the property over
//! random trial splits.

use crate::dims::SegmentMeta;
use crate::store::SegmentSource;
use crate::{QueryError, Result};

/// N shards covering disjoint, adjacent trial windows, presented as one
/// [`SegmentSource`] over the concatenated trial axis.
///
/// Shards may be any mix of sources behind `S = dyn SegmentSource` (an
/// in-memory [`ResultStore`](crate::store::ResultStore) next to
/// persistent readers).  Shard order is window order: shard 0 covers
/// trials `[0, t_0)`, shard 1 covers `[t_0, t_0 + t_1)`, and so on — the
/// caller orders them (a catalog sorts by each store's persisted trial
/// offset).
pub struct TrialShardedSource<'a, S: SegmentSource + ?Sized> {
    shards: Vec<&'a S>,
    /// Cumulative trial offsets: `offsets[j]` is the global first trial
    /// of shard `j`; one extra trailing entry holds the total.
    offsets: Vec<usize>,
    /// Segments served: the common committed prefix across shards.
    prefix: usize,
}

impl<S: SegmentSource + ?Sized> std::fmt::Debug for TrialShardedSource<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrialShardedSource")
            .field("shards", &self.shards.len())
            .field("segments", &self.prefix)
            .field("trials", &self.offsets.last().unwrap())
            .finish()
    }
}

impl<'a, S: SegmentSource + ?Sized> TrialShardedSource<'a, S> {
    /// Builds the trial-axis union over `shards`, in window order.
    ///
    /// The served segment set is the common committed prefix
    /// (`min(shard.num_segments())`); every shard's dimension tags must
    /// agree over that prefix, or the shards do not describe the same
    /// portfolio and the union is rejected.
    pub fn new(shards: Vec<&'a S>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(QueryError::Store(
                "a trial-sharded source needs at least one shard".to_string(),
            ));
        };
        let prefix = shards
            .iter()
            .map(|shard| shard.num_segments())
            .min()
            .unwrap_or(0);
        let expected = &first.metas()[..prefix];
        for (index, shard) in shards.iter().enumerate().skip(1) {
            let metas = &shard.metas()[..prefix];
            if let Some(segment) = metas.iter().zip(expected).position(|(a, b)| a != b) {
                return Err(QueryError::Store(format!(
                    "trial shard {index} tags segment {segment} as {} but shard 0 tags it {}; \
                     trial shards must hold the same segments in the same order",
                    metas[segment], expected[segment]
                )));
            }
        }
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        offsets.push(0);
        for shard in &shards {
            offsets.push(offsets.last().unwrap() + shard.num_trials());
        }
        Ok(TrialShardedSource {
            shards,
            offsets,
            prefix,
        })
    }

    /// Number of shards (trial windows).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards in window order.
    pub fn shards(&self) -> &[&'a S] {
        &self.shards
    }

    /// The global trial window `[start, end)` of each shard, in order.
    pub fn shard_windows(&self) -> Vec<(usize, usize)> {
        self.offsets.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Maps a global trial to `(shard index, shard-local trial)`.
    ///
    /// # Panics
    /// If `trial` is at or past the total trial count.
    pub fn locate_trial(&self, trial: usize) -> (usize, usize) {
        assert!(
            trial < *self.offsets.last().unwrap(),
            "trial {trial} out of bounds ({} trials)",
            self.offsets.last().unwrap()
        );
        let shard = self.offsets.partition_point(|&start| start <= trial) - 1;
        (shard, trial - self.offsets[shard])
    }

    /// The windowed slices of `segment` for either loss column; `year`
    /// picks the column.  The window must lie inside one shard.
    fn slice_in(&self, segment: usize, start: usize, end: usize, year: bool) -> &[f64] {
        if start == end {
            return &[];
        }
        let (shard, local_start) = self.locate_trial(start);
        let shard_end = self.offsets[shard + 1];
        assert!(
            end <= shard_end,
            "trial window {start}..{end} straddles the shard cut at {shard_end}; scans must \
             split blocks at trial_cuts()"
        );
        let local_end = local_start + (end - start);
        if year {
            self.shards[shard].year_losses_in(segment, local_start, local_end)
        } else {
            self.shards[shard].max_occ_losses_in(segment, local_start, local_end)
        }
    }
}

impl<S: SegmentSource + ?Sized> SegmentSource for TrialShardedSource<'_, S> {
    fn num_trials(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    fn metas(&self) -> &[SegmentMeta] {
        &self.shards[0].metas()[..self.prefix]
    }

    /// Only a single-shard union is contiguous enough for a full-segment
    /// borrow; see the trait docs.
    ///
    /// # Panics
    /// When the union spans more than one shard — use
    /// [`year_losses_in`](SegmentSource::year_losses_in) with windows
    /// that respect [`trial_cuts`](SegmentSource::trial_cuts).
    fn year_losses(&self, segment: usize) -> &[f64] {
        assert!(
            self.shards.len() == 1,
            "a {}-shard TrialShardedSource has no contiguous full-segment slice; use the \
             windowed accessors",
            self.shards.len()
        );
        self.shards[0].year_losses(segment)
    }

    /// Same single-shard restriction as
    /// [`year_losses`](SegmentSource::year_losses).
    fn max_occ_losses(&self, segment: usize) -> &[f64] {
        assert!(
            self.shards.len() == 1,
            "a {}-shard TrialShardedSource has no contiguous full-segment slice; use the \
             windowed accessors",
            self.shards.len()
        );
        self.shards[0].max_occ_losses(segment)
    }

    fn year_losses_in(&self, segment: usize, start: usize, end: usize) -> &[f64] {
        self.slice_in(segment, start, end, true)
    }

    fn max_occ_losses_in(&self, segment: usize, start: usize, end: usize) -> &[f64] {
        self.slice_in(segment, start, end, false)
    }

    fn trial_cuts(&self) -> Vec<usize> {
        self.offsets[1..self.offsets.len() - 1].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::LineOfBusiness;
    use crate::exec::execute;
    use crate::query::{Aggregate, Basis, QueryBuilder};
    use crate::session::QuerySession;
    use crate::store::ResultStore;
    use crate::Dimension;
    use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;

    fn outcome(year: f64) -> TrialOutcome {
        TrialOutcome {
            year_loss: year,
            max_occurrence_loss: year * 0.5,
            nonzero_events: 0,
        }
    }

    fn seg(store: &mut ResultStore, layer: u32, peril: Peril, losses: &[f64]) {
        let outcomes = losses.iter().map(|&l| outcome(l)).collect();
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

    /// One 6-trial reference store and its split into windows of 2, 3
    /// and 1 trials.  The shards intern perils in different orders than
    /// each other (by ingesting segments in the same order, they don't
    /// here — so one shard gets an extra uncommitted segment instead to
    /// exercise prefix clamping separately).
    fn split() -> (Vec<ResultStore>, ResultStore) {
        let year = [
            (0, Peril::Hurricane, [1.0, 0.0, 4.0, 2.0, 7.0, 0.0]),
            (1, Peril::Flood, [2.0, 5.0, 0.0, 1.0, 0.0, 3.0]),
            (2, Peril::Hurricane, [0.0, 1.0, 1.0, 0.0, 2.0, 9.0]),
        ];
        let mut whole = ResultStore::new(6);
        for (layer, peril, losses) in &year {
            seg(&mut whole, *layer, *peril, losses);
        }
        let windows = [(0usize, 2usize), (2, 5), (5, 6)];
        let shards = windows
            .iter()
            .map(|&(start, end)| {
                let mut shard = ResultStore::new(end - start);
                for (layer, peril, losses) in &year {
                    seg(&mut shard, *layer, *peril, &losses[start..end]);
                }
                shard
            })
            .collect();
        (shards, whole)
    }

    #[test]
    fn stitched_axis_layout() {
        let (shards, _) = split();
        let refs: Vec<&ResultStore> = shards.iter().collect();
        let sharded = TrialShardedSource::new(refs).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(SegmentSource::num_trials(&sharded), 6);
        assert_eq!(SegmentSource::num_segments(&sharded), 3);
        assert_eq!(sharded.shard_windows(), vec![(0, 2), (2, 5), (5, 6)]);
        assert_eq!(sharded.trial_cuts(), vec![2, 5]);
        assert_eq!(sharded.locate_trial(0), (0, 0));
        assert_eq!(sharded.locate_trial(2), (1, 0));
        assert_eq!(sharded.locate_trial(4), (1, 2));
        assert_eq!(sharded.locate_trial(5), (2, 0));
        // Windowed access inside each shard.
        assert_eq!(sharded.year_losses_in(0, 0, 2), &[1.0, 0.0]);
        assert_eq!(sharded.year_losses_in(0, 2, 5), &[4.0, 2.0, 7.0]);
        assert_eq!(sharded.year_losses_in(0, 5, 6), &[0.0]);
        assert_eq!(sharded.max_occ_losses_in(2, 2, 4), &[0.5, 0.0]);
        assert!(sharded.year_losses_in(1, 3, 3).is_empty());
        assert_eq!(sharded.metas()[2].peril, Peril::Hurricane);
        assert_eq!(sharded.shards().len(), 3);
        assert!(format!("{sharded:?}").contains("TrialShardedSource"));
    }

    #[test]
    #[should_panic(expected = "straddles the shard cut")]
    fn windows_may_not_straddle_cuts() {
        let (shards, _) = split();
        let refs: Vec<&ResultStore> = shards.iter().collect();
        let sharded = TrialShardedSource::new(refs).unwrap();
        let _ = sharded.year_losses_in(0, 1, 3);
    }

    #[test]
    #[should_panic(expected = "no contiguous full-segment slice")]
    fn full_slice_access_panics_across_shards() {
        let (shards, _) = split();
        let refs: Vec<&ResultStore> = shards.iter().collect();
        let sharded = TrialShardedSource::new(refs).unwrap();
        let _ = sharded.year_losses(0);
    }

    #[test]
    fn trial_sharded_results_match_the_whole_store() {
        let (shards, whole) = split();
        let refs: Vec<&ResultStore> = shards.iter().collect();
        let sharded = TrialShardedSource::new(refs).unwrap();
        let queries = vec![
            QueryBuilder::new()
                .group_by(Dimension::Peril)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::Tvar { level: 0.9 })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .with_perils([Peril::Hurricane])
                .aggregate(Aggregate::MaxLoss)
                .aggregate(Aggregate::EpCurve {
                    basis: Basis::Oep,
                    points: 3,
                })
                .build()
                .unwrap(),
            // A trial window straddling both shard cuts.
            QueryBuilder::new()
                .trials(1..6)
                .aggregate(Aggregate::Mean)
                .build()
                .unwrap(),
            // A loss-range predicate evaluated per shard-window block.
            QueryBuilder::new()
                .loss_at_least(3.0)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::StdDev)
                .build()
                .unwrap(),
        ];
        for query in &queries {
            assert_eq!(
                execute(&sharded, query).unwrap(),
                execute(&whole, query).unwrap(),
                "trial-sharded execution must be bit-identical to the whole store"
            );
        }
        assert_eq!(
            QuerySession::new(&sharded).run(&queries).unwrap(),
            QuerySession::new(&whole).run(&queries).unwrap(),
            "the fused batched session must stitch identically too"
        );
    }

    #[test]
    fn single_shard_union_is_transparent() {
        let (shards, _) = split();
        let solo = TrialShardedSource::new(vec![&shards[1]]).unwrap();
        assert!(solo.trial_cuts().is_empty());
        assert_eq!(solo.year_losses(0), shards[1].year_losses(0));
        let query = QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert_eq!(
            execute(&solo, &query).unwrap(),
            execute(&shards[1], &query).unwrap()
        );
    }

    #[test]
    fn segment_prefix_clamps_to_the_slowest_shard() {
        let (mut shards, whole) = split();
        // Shard 1's writer has committed an extra layer its peers have
        // not: the union must keep serving the common prefix only.
        seg(&mut shards[1], 9, Peril::Tornado, &[8.0, 8.0, 8.0]);
        let refs: Vec<&ResultStore> = shards.iter().collect();
        let sharded = TrialShardedSource::new(refs).unwrap();
        assert_eq!(SegmentSource::num_segments(&sharded), 3);
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert_eq!(
            execute(&sharded, &query).unwrap(),
            execute(&whole, &query).unwrap(),
            "the uncommitted-everywhere layer must stay invisible"
        );
    }

    #[test]
    fn mismatched_layouts_and_empty_unions_are_rejected() {
        let (shards, _) = split();
        // A shard whose segment 0 is tagged differently.
        let mut liar = ResultStore::new(2);
        seg(&mut liar, 0, Peril::Earthquake, &[1.0, 0.0]);
        seg(&mut liar, 1, Peril::Flood, &[2.0, 5.0]);
        seg(&mut liar, 2, Peril::Hurricane, &[0.0, 1.0]);
        assert!(matches!(
            TrialShardedSource::new(vec![&shards[0], &liar]),
            Err(QueryError::Store(_))
        ));
        assert!(matches!(
            TrialShardedSource::<ResultStore>::new(vec![]),
            Err(QueryError::Store(_))
        ));
    }

    #[test]
    fn dynamic_shards_mix_source_types() {
        let (shards, whole) = split();
        let dyn_shards: Vec<&dyn SegmentSource> = shards
            .iter()
            .map(|shard| shard as &dyn SegmentSource)
            .collect();
        let sharded = TrialShardedSource::new(dyn_shards).unwrap();
        let query = QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert_eq!(
            execute(&sharded, &query).unwrap(),
            execute(&whole, &query).unwrap()
        );
    }
}
