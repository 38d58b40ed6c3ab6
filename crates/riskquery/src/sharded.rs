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
//! ## Remapping
//!
//! Each shard carries its own dictionaries, so the same peril can sit
//! behind different codes in different shards.  Construction builds
//! *merged* dictionaries and remaps every shard's per-segment code
//! vectors into them (O(total segments), no loss data touched); global
//! segment index `g` remaps through a cumulative offset table to shard
//! `j`'s local segment — and thence to the shard-local column offset its
//! loss slices live at — so scan-time access stays zero-copy borrowing
//! from the owning shard.
//!
//! ## Exactness
//!
//! Results are **bit-identical** to a single store holding every shard's
//! segments ingested in shard order: the fused scan accumulates segments
//! in global segment order within each trial block — exactly the order a
//! concatenated store would — and the per-block partial aggregates merge
//! by the same exact concatenation monoid.  The workspace's
//! `tests/catalog_equivalence.rs` proves this over random shard splits.

use std::sync::Arc;

use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;

use crate::dict::Dictionary;
use crate::dims::{LineOfBusiness, SegmentMeta};
use crate::store::SegmentSource;
use crate::{QueryError, Result};

/// The shard-independent half of a union view: merged dictionaries,
/// remapped per-segment codes, and the global segment offsets.
///
/// Building it is the only O(total segments) step of
/// [`ShardedSource::new`], so a serving layer that snapshots the same
/// shards batch after batch memoizes it (behind an `Arc`, keyed on the
/// shards' generation stamps) and re-attaches it to fresh borrows with
/// [`ShardedSource::with_schema`].
#[derive(Debug)]
pub struct MergedSchema {
    /// `seg_starts[j]` is the global index of shard `j`'s first segment;
    /// one extra trailing entry holds the total.
    seg_starts: Vec<usize>,
    num_trials: usize,
    layer_dict: Dictionary<LayerId>,
    peril_dict: Dictionary<Peril>,
    region_dict: Dictionary<Region>,
    lob_dict: Dictionary<LineOfBusiness>,
    /// Per-segment codes remapped into the merged dictionaries, global
    /// segment order, dimension order layer / peril / region / lob.
    codes: [Vec<u32>; 4],
}

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
    schema: Arc<MergedSchema>,
}

impl<S: SegmentSource + ?Sized> std::fmt::Debug for ShardedSource<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSource")
            .field("shards", &self.shards.len())
            .field("segments", &self.num_segments())
            .field("trials", &self.schema.num_trials)
            .finish()
    }
}

impl<'a, S: SegmentSource + ?Sized> ShardedSource<'a, S> {
    /// Builds the union view over `shards`, validating that every shard
    /// holds the same number of trials (segments of different trial
    /// counts cannot share one scan) and merging the dictionaries.
    pub fn new(shards: Vec<&'a S>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(QueryError::Store(
                "a sharded source needs at least one shard".to_string(),
            ));
        };
        let num_trials = first.num_trials();
        let mut schema = MergedSchema {
            seg_starts: vec![0],
            num_trials,
            layer_dict: Dictionary::new(),
            peril_dict: Dictionary::new(),
            region_dict: Dictionary::new(),
            lob_dict: Dictionary::new(),
            codes: Default::default(),
        };
        for (index, shard) in shards.iter().enumerate() {
            if shard.num_trials() != num_trials {
                return Err(QueryError::Store(format!(
                    "shard {index} holds {}-trial segments but shard 0 holds {num_trials}-trial \
                     segments",
                    shard.num_trials()
                )));
            }
            schema.absorb_shard(*shard);
        }
        Ok(ShardedSource {
            shards,
            schema: Arc::new(schema),
        })
    }

    /// Re-attaches a previously built schema to fresh shard borrows,
    /// skipping the O(total segments) dictionary merge.
    ///
    /// Only the *shape* is validated (shard count, per-shard segment
    /// counts, trial count); the caller must guarantee the schema was
    /// built from these same shards in their current state — in a
    /// serving layer that means keying the memoized schema on the
    /// shards' generation stamps, so any visible change rebuilds it.
    pub fn with_schema(shards: Vec<&'a S>, schema: Arc<MergedSchema>) -> Result<Self> {
        if shards.len() + 1 != schema.seg_starts.len() {
            return Err(QueryError::Store(format!(
                "schema was built from {} shards, got {}",
                schema.seg_starts.len() - 1,
                shards.len()
            )));
        }
        for (index, (shard, window)) in shards.iter().zip(schema.seg_starts.windows(2)).enumerate()
        {
            if shard.num_trials() != schema.num_trials {
                return Err(QueryError::Store(format!(
                    "shard {index} holds {}-trial segments but the schema holds {}-trial \
                     segments",
                    shard.num_trials(),
                    schema.num_trials
                )));
            }
            if shard.num_segments() != window[1] - window[0] {
                return Err(QueryError::Store(format!(
                    "shard {index} holds {} segments but the schema mapped {}",
                    shard.num_segments(),
                    window[1] - window[0]
                )));
            }
        }
        Ok(ShardedSource { shards, schema })
    }

    /// The merged schema, shareable across snapshots of the same shards.
    pub fn schema(&self) -> &Arc<MergedSchema> {
        &self.schema
    }
}

impl MergedSchema {
    /// Merges one shard's dictionaries and appends its remapped codes.
    fn absorb_shard<S: SegmentSource + ?Sized>(&mut self, shard: &S) {
        // Per-dimension remap tables: shard-local code -> merged code.
        // O(dictionary entries) to build, O(1) per segment to apply.
        let layer_map: Vec<u32> = shard
            .layer_dict()
            .values()
            .iter()
            .map(|&v| self.layer_dict.intern(v))
            .collect();
        let peril_map: Vec<u32> = shard
            .peril_dict()
            .values()
            .iter()
            .map(|&v| self.peril_dict.intern(v))
            .collect();
        let region_map: Vec<u32> = shard
            .region_dict()
            .values()
            .iter()
            .map(|&v| self.region_dict.intern(v))
            .collect();
        let lob_map: Vec<u32> = shard
            .lob_dict()
            .values()
            .iter()
            .map(|&v| self.lob_dict.intern(v))
            .collect();
        for (d, (codes, map)) in [
            (shard.layer_codes(), &layer_map),
            (shard.peril_codes(), &peril_map),
            (shard.region_codes(), &region_map),
            (shard.lob_codes(), &lob_map),
        ]
        .into_iter()
        .enumerate()
        {
            self.codes[d].extend(codes.iter().map(|&c| map[c as usize]));
        }
        self.seg_starts
            .push(self.seg_starts.last().unwrap() + shard.num_segments());
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
}

impl<'a, S: SegmentSource + ?Sized> ShardedSource<'a, S> {
    /// Number of shards in the union.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards in union order.
    pub fn shards(&self) -> &[&'a S] {
        &self.shards
    }

    /// Maps a global segment index to `(shard index, shard-local segment
    /// index)`.
    ///
    /// # Panics
    /// If `segment` is out of bounds, like the slice accessors.
    pub fn locate(&self, segment: usize) -> (usize, usize) {
        assert!(
            segment < self.num_segments(),
            "segment {segment} out of bounds ({} segments)",
            self.num_segments()
        );
        let starts = &self.schema.seg_starts;
        let shard = starts.partition_point(|&start| start <= segment) - 1;
        (shard, segment - starts[shard])
    }

    /// The dimension tags of one global segment, decoded through the
    /// merged dictionaries.
    pub fn meta(&self, segment: usize) -> SegmentMeta {
        let schema = &self.schema;
        SegmentMeta::new(
            *schema.layer_dict.value(schema.codes[0][segment]),
            *schema.peril_dict.value(schema.codes[1][segment]),
            *schema.region_dict.value(schema.codes[2][segment]),
            *schema.lob_dict.value(schema.codes[3][segment]),
        )
    }
}

impl<S: SegmentSource + ?Sized> SegmentSource for ShardedSource<'_, S> {
    fn num_trials(&self) -> usize {
        self.schema.num_trials
    }

    fn num_segments(&self) -> usize {
        *self.schema.seg_starts.last().unwrap()
    }

    fn year_losses(&self, segment: usize) -> &[f64] {
        let (shard, local) = self.locate(segment);
        self.shards[shard].year_losses(local)
    }

    fn max_occ_losses(&self, segment: usize) -> &[f64] {
        let (shard, local) = self.locate(segment);
        self.shards[shard].max_occ_losses(local)
    }

    fn layer_codes(&self) -> &[u32] {
        &self.schema.codes[0]
    }

    fn peril_codes(&self) -> &[u32] {
        &self.schema.codes[1]
    }

    fn region_codes(&self) -> &[u32] {
        &self.schema.codes[2]
    }

    fn lob_codes(&self) -> &[u32] {
        &self.schema.codes[3]
    }

    fn layer_dict(&self) -> &Dictionary<LayerId> {
        &self.schema.layer_dict
    }

    fn peril_dict(&self) -> &Dictionary<Peril> {
        &self.schema.peril_dict
    }

    fn region_dict(&self) -> &Dictionary<Region> {
        &self.schema.region_dict
    }

    fn lob_dict(&self) -> &Dictionary<LineOfBusiness> {
        &self.schema.lob_dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::query::{Aggregate, QueryBuilder};
    use crate::session::QuerySession;
    use crate::store::ResultStore;
    use crate::Dimension;
    use catrisk_engine::ylt::{TrialOutcome, YearLossTable};

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

    /// Two shards whose dictionaries intern the shared dimension values in
    /// *different* orders, so the remap tables are actually exercised.
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
    fn union_layout_and_remapping() {
        let (a, b, _) = split_shards();
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
        // Shard B interned Flood before Hurricane; the merged dictionary
        // keeps shard A's order, so B's codes were remapped.
        assert_eq!(sharded.peril_codes(), &[0, 1, 1, 0]);
        assert_eq!(*sharded.peril_dict().value(0), Peril::Hurricane);
        assert_eq!(sharded.meta(2).peril, Peril::Flood);
        assert_eq!(sharded.meta(2).region, Region::Europe);
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
    fn reattached_schema_matches_a_fresh_build_and_validates_shape() {
        let (a, b, whole) = split_shards();
        let schema = Arc::clone(ShardedSource::new(vec![&a, &b]).unwrap().schema());
        let reused = ShardedSource::with_schema(vec![&a, &b], Arc::clone(&schema)).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Tvar { level: 0.9 })
            .build()
            .unwrap();
        assert_eq!(
            execute(&reused, &query).unwrap(),
            execute(&whole, &query).unwrap()
        );
        // Shape mismatches are rejected: wrong shard count, wrong segment
        // count, wrong trial count.
        assert!(ShardedSource::with_schema(vec![&a], Arc::clone(&schema)).is_err());
        assert!(ShardedSource::with_schema(vec![&b, &a], Arc::clone(&schema)).is_ok());
        let mut grown = ResultStore::new(3);
        seg(&mut grown, 9, Peril::Tornado, Region::Europe, &[0.0; 3]);
        assert!(ShardedSource::with_schema(vec![&a, &grown], Arc::clone(&schema)).is_err());
        let other_trials = ResultStore::new(7);
        assert!(ShardedSource::with_schema(vec![&a, &other_trials], schema).is_err());
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
