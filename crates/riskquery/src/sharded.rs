//! Routing one query scan across many stores: the segment-union shard
//! view.
//!
//! A serving fleet does not hold its whole book in one store file:
//! portfolios are ingested into separate stores (per book, per region,
//! per ingest pipeline), and some of those stores are still being
//! appended to while analysts query.  [`ShardedSource`] presents N
//! independent [`SegmentSource`]s — *shards* — as one logical store whose
//! segment axis is their concatenation, so the existing
//! [`plan`](crate::plan), [`exec`](crate::exec) and
//! [`QuerySession`](crate::session::QuerySession) pipeline runs over a
//! whole catalog unchanged.
//!
//! ## Addressing
//!
//! The union's tags are the shards' tags concatenated in shard order
//! (O(total segments), no loss data touched); global segment index `g`
//! maps through a cumulative offset table to shard `j`'s local segment —
//! and thence to the shard-local column offset its loss slices live at —
//! so scan-time access stays zero-copy borrowing from the owning shard.
//!
//! ## Exactness
//!
//! Results are **bit-identical** to a single store holding every shard's
//! segments ingested in shard order: the fused scan accumulates segments
//! in global segment order within each trial block — exactly the order a
//! concatenated store would — and the per-block partial aggregates merge
//! by the same exact concatenation monoid.  The workspace's
//! `tests/catalog_equivalence.rs` proves this over random shard splits.

use crate::dims::SegmentMeta;
use crate::store::SegmentSource;
use crate::{QueryError, Result};

/// N shards presented as one [`SegmentSource`]: the union of their
/// segments over a common trial axis.
///
/// Borrowed shards may be any mix of sources behind `S = dyn
/// SegmentSource` (an in-memory [`ResultStore`](crate::store::ResultStore)
/// next to persistent readers).  Shards with zero segments are valid —
/// a store that is still being ingested contributes nothing until its
/// first commit becomes visible.
pub struct ShardedSource<'a, S: SegmentSource + ?Sized> {
    shards: Vec<&'a S>,
    /// `seg_starts[j]` is the global index of shard `j`'s first segment;
    /// one extra trailing entry holds the total.
    seg_starts: Vec<usize>,
    /// Every shard's tags, concatenated in shard order.
    metas: Vec<SegmentMeta>,
}

impl<S: SegmentSource + ?Sized> std::fmt::Debug for ShardedSource<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSource")
            .field("shards", &self.shards.len())
            .field("segments", &self.metas.len())
            .field("trials", &self.num_trials())
            .finish()
    }
}

impl<'a, S: SegmentSource + ?Sized> ShardedSource<'a, S> {
    /// Builds the union view over `shards`, validating that every shard
    /// holds the same number of trials (segments of different trial
    /// counts cannot share one scan) and concatenating their tags.
    pub fn new(shards: Vec<&'a S>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(QueryError::Store(
                "a sharded source needs at least one shard".to_string(),
            ));
        };
        let num_trials = first.num_trials();
        let mut seg_starts = vec![0];
        let mut metas = Vec::new();
        for (index, shard) in shards.iter().enumerate() {
            if shard.num_trials() != num_trials {
                return Err(QueryError::Store(format!(
                    "shard {index} holds {}-trial segments but shard 0 holds {num_trials}-trial \
                     segments",
                    shard.num_trials()
                )));
            }
            metas.extend_from_slice(shard.metas());
            seg_starts.push(metas.len());
        }
        Ok(ShardedSource {
            shards,
            seg_starts,
            metas,
        })
    }

    /// Number of shards in the union.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards in union order.
    pub fn shards(&self) -> &[&'a S] {
        &self.shards
    }

    /// The global segment range `[lo, hi)` each shard contributes, in
    /// shard order — the segment half of a [`Grid`](crate::partial::Grid),
    /// which the alignment rule
    /// ([`split_plan_by_segments`](crate::partial::split_plan_by_segments))
    /// cuts plans along.
    pub fn segment_ranges(&self) -> Vec<(usize, usize)> {
        self.seg_starts
            .windows(2)
            .map(|window| (window[0], window[1]))
            .collect()
    }

    /// Maps a global segment index to `(shard index, shard-local segment
    /// index)`.
    ///
    /// # Panics
    /// If `segment` is out of bounds, like the slice accessors.
    pub fn locate(&self, segment: usize) -> (usize, usize) {
        assert!(
            segment < self.metas.len(),
            "segment {segment} out of bounds ({} segments)",
            self.metas.len()
        );
        let shard = self.seg_starts.partition_point(|&start| start <= segment) - 1;
        (shard, segment - self.seg_starts[shard])
    }
}

impl<S: SegmentSource + ?Sized> SegmentSource for ShardedSource<'_, S> {
    fn num_trials(&self) -> usize {
        self.shards[0].num_trials()
    }

    fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    fn year_losses(&self, segment: usize) -> &[f64] {
        let (shard, local) = self.locate(segment);
        self.shards[shard].year_losses(local)
    }

    fn max_occ_losses(&self, segment: usize) -> &[f64] {
        let (shard, local) = self.locate(segment);
        self.shards[shard].max_occ_losses(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::LineOfBusiness;
    use crate::exec::execute;
    use crate::query::{Aggregate, QueryBuilder};
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

    fn seg(store: &mut ResultStore, layer: u32, peril: Peril, region: Region, losses: &[f64]) {
        let outcomes = losses.iter().map(|&l| outcome(l)).collect();
        store
            .ingest(
                &YearLossTable::new(LayerId(layer), outcomes),
                SegmentMeta::new(LayerId(layer), peril, region, LineOfBusiness::Property),
            )
            .unwrap();
    }

    /// Two shards that meet the shared dimension values in *different*
    /// orders (a store file would intern them under different codes).
    fn split_shards() -> (ResultStore, ResultStore, ResultStore) {
        let mut a = ResultStore::new(3);
        seg(
            &mut a,
            0,
            Peril::Hurricane,
            Region::Europe,
            &[1.0, 0.0, 4.0],
        );
        seg(&mut a, 1, Peril::Flood, Region::Japan, &[2.0, 5.0, 0.0]);
        let mut b = ResultStore::new(3);
        seg(&mut b, 2, Peril::Flood, Region::Europe, &[0.0, 1.0, 1.0]);
        seg(&mut b, 3, Peril::Hurricane, Region::Japan, &[3.0, 0.0, 2.0]);
        let mut whole = ResultStore::new(3);
        seg(
            &mut whole,
            0,
            Peril::Hurricane,
            Region::Europe,
            &[1.0, 0.0, 4.0],
        );
        seg(&mut whole, 1, Peril::Flood, Region::Japan, &[2.0, 5.0, 0.0]);
        seg(
            &mut whole,
            2,
            Peril::Flood,
            Region::Europe,
            &[0.0, 1.0, 1.0],
        );
        seg(
            &mut whole,
            3,
            Peril::Hurricane,
            Region::Japan,
            &[3.0, 0.0, 2.0],
        );
        (a, b, whole)
    }

    #[test]
    fn union_layout_and_tags() {
        let (a, b, whole) = split_shards();
        let sharded = ShardedSource::new(vec![&a, &b]).unwrap();
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!(sharded.num_segments(), 4);
        assert_eq!(SegmentSource::num_trials(&sharded), 3);
        assert_eq!(sharded.locate(0), (0, 0));
        assert_eq!(sharded.locate(1), (0, 1));
        assert_eq!(sharded.locate(2), (1, 0));
        assert_eq!(sharded.locate(3), (1, 1));
        // Global segment 3 is shard B's second segment.
        assert_eq!(sharded.year_losses(3), &[3.0, 0.0, 2.0]);
        // Shard B meets Flood before Hurricane; the union still presents
        // exactly the concatenated store's tags.
        assert_eq!(sharded.metas(), whole.metas());
        assert_eq!(sharded.segment_ranges(), vec![(0, 2), (2, 4)]);
        assert_eq!(sharded.metas()[2].peril, Peril::Flood);
        assert_eq!(sharded.metas()[2].region, Region::Europe);
        assert_eq!(sharded.shards().len(), 2);
        assert!(format!("{sharded:?}").contains("ShardedSource"));
    }

    #[test]
    fn sharded_results_match_concatenated_store() {
        let (a, b, whole) = split_shards();
        let sharded = ShardedSource::new(vec![&a, &b]).unwrap();
        let queries = vec![
            QueryBuilder::new()
                .group_by(Dimension::Peril)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::Tvar { level: 0.9 })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .with_perils([Peril::Hurricane])
                .group_by(Dimension::Region)
                .aggregate(Aggregate::MaxLoss)
                .build()
                .unwrap(),
            QueryBuilder::new()
                .trials(1..3)
                .loss_at_least(1.0)
                .aggregate(Aggregate::Mean)
                .build()
                .unwrap(),
        ];
        for query in &queries {
            assert_eq!(
                execute(&sharded, query).unwrap(),
                execute(&whole, query).unwrap(),
                "sharded execution must be bit-identical to the concatenated store"
            );
        }
        assert_eq!(
            QuerySession::new(&sharded).run(&queries).unwrap(),
            QuerySession::new(&whole).run(&queries).unwrap()
        );
    }

    #[test]
    fn single_shard_union_is_transparent() {
        let (a, _, _) = split_shards();
        let sharded = ShardedSource::new(vec![&a]).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert_eq!(
            execute(&sharded, &query).unwrap(),
            execute(&a, &query).unwrap()
        );
    }

    #[test]
    fn empty_shards_are_transparent() {
        let (a, b, whole) = split_shards();
        let empty = ResultStore::new(3);
        let sharded = ShardedSource::new(vec![&empty, &a, &empty, &b]).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert_eq!(
            execute(&sharded, &query).unwrap(),
            execute(&whole, &query).unwrap()
        );
    }

    #[test]
    fn mismatched_trial_counts_and_empty_unions_are_rejected() {
        let (a, _, _) = split_shards();
        let other = ResultStore::new(7);
        assert!(matches!(
            ShardedSource::new(vec![&a, &other]),
            Err(QueryError::Store(_))
        ));
        assert!(matches!(
            ShardedSource::<ResultStore>::new(vec![]),
            Err(QueryError::Store(_))
        ));
    }

    #[test]
    fn dynamic_shards_mix_source_types() {
        let (a, b, whole) = split_shards();
        let dyn_shards: Vec<&dyn SegmentSource> = vec![&a, &b];
        let sharded = ShardedSource::new(dyn_shards).unwrap();
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
