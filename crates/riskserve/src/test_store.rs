//! Shared test fixtures: a random in-memory store, the same store cut
//! into an on-disk catalog along either axis, and a mixed query batch.

use std::path::PathBuf;

use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::prelude::*;
use catrisk_riskstore::{StoreOptions, StoreWriter};
use catrisk_simkit::rng::RngFactory;

use crate::catalog::ShardAxis;

/// A store of `segments` random YLT segments over `trials` trials, with
/// all four dimensions populated.
pub fn random_store(trials: usize, segments: usize, seed: u64) -> ResultStore {
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
                    nonzero_events: u32::from(year > 0.0),
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

/// Cuts `store` into `shards` store files along `axis` — contiguous
/// segment ranges of the full trial axis, or offset-stamped trial windows
/// of every segment — so a [`StoreCatalog`](crate::catalog::StoreCatalog)
/// over the returned paths serves exactly `store`.  Files land in the
/// temp dir, named by `tag` and the process id; the caller removes them.
pub fn write_catalog(
    store: &ResultStore,
    axis: ShardAxis,
    shards: usize,
    tag: &str,
) -> Vec<PathBuf> {
    let (segments, trials) = (store.num_segments(), store.num_trials());
    (0..shards)
        .map(|shard| {
            let cut = |total: usize| (shard * total / shards, (shard + 1) * total / shards);
            let (segment_range, (start, end)) = match axis {
                ShardAxis::Segment => (cut(segments), (0, trials)),
                ShardAxis::Trial => ((0, segments), cut(trials)),
            };
            let mut path = std::env::temp_dir();
            path.push(format!("catrisk-{tag}-{}-{shard}.clm", std::process::id()));
            let options = StoreOptions {
                trial_offset: start as u64,
                ..StoreOptions::default()
            };
            let mut writer = StoreWriter::create_with(&path, end - start, options).unwrap();
            for s in segment_range.0..segment_range.1 {
                let (year, occ) = (store.year_losses(s), store.max_occ_losses(s));
                writer
                    .append_segment(*store.meta(s), &year[start..end], &occ[start..end])
                    .unwrap();
            }
            writer.finish().unwrap();
            path
        })
        .collect()
}

/// A small mixed batch: several scan specs, several metric sets.
pub fn sample_queries() -> Vec<Query> {
    vec![
        QueryBuilder::new()
            .with_perils([Peril::Hurricane, Peril::Flood])
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::Var { level: 0.99 })
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 8,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .loss_at_least(1.0e5)
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .aggregate(Aggregate::Pml {
                return_period: 100.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap(),
    ]
}
