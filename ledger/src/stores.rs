//! Synthetic tagged stores and the query streams run against them.
//!
//! The stores have the production shape the repo's benches use (books of
//! region × line of business, one segment per active peril, a quarter of
//! the trials with a loss) and are written straight through
//! `StoreWriter`, so the read-path workloads need no engine run.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::prelude::*;
use catrisk_riskstore::{StoreOptions, StoreWriter};
use catrisk_simkit::rng::{RngFactory, SimRng};

/// Dimension tags of segment `index`: books cycle regions and lines of
/// business, each book holds one segment per peril active in its region.
pub fn segment_metas(segments: usize) -> Vec<SegmentMeta> {
    let mut metas = Vec::with_capacity(segments);
    for book in 0.. {
        let region = Region::ALL[book % Region::ALL.len()];
        let lob = LineOfBusiness::ALL[book % LineOfBusiness::ALL.len()];
        for peril in region.active_perils() {
            if metas.len() == segments {
                return metas;
            }
            metas.push(SegmentMeta::new(LayerId(book as u32), *peril, region, lob));
        }
    }
    unreachable!("the book loop only ends by returning")
}

/// One segment's loss columns: a quarter of the trials carry a loss.
pub fn loss_columns(rng: &mut SimRng, trials: usize) -> (Vec<f64>, Vec<f64>) {
    let mut year = Vec::with_capacity(trials);
    let mut occ = Vec::with_capacity(trials);
    for _ in 0..trials {
        let loss = if rng.uniform() < 0.25 {
            rng.uniform() * 5.0e6
        } else {
            0.0
        };
        year.push(loss);
        occ.push(loss * rng.uniform());
    }
    (year, occ)
}

/// The trial windows `[start, end)` of `shards` equal cuts of the axis.
pub fn windows(trials: usize, shards: usize) -> Vec<(usize, usize)> {
    (0..shards)
        .map(|s| (trials * s / shards, trials * (s + 1) / shards))
        .collect()
}

/// Writes `segments` tagged segments over `trials` trials as `shards`
/// trial-window store files (one self-contained file when `shards == 1`)
/// under `dir`, each stamped with its window's offset.
pub fn write_catalog(
    dir: &Path,
    trials: usize,
    shards: usize,
    segments: usize,
    seed: u64,
) -> Vec<PathBuf> {
    let factory = RngFactory::new(seed).derive("ledger-store");
    let cuts = windows(trials, shards);
    let paths: Vec<PathBuf> = (0..shards)
        .map(|s| dir.join(format!("shard-{s}.clm")))
        .collect();
    let mut writers: Vec<StoreWriter> = paths
        .iter()
        .zip(&cuts)
        .map(|(path, &(start, end))| {
            let options = StoreOptions {
                trial_offset: start as u64,
                ..StoreOptions::default()
            };
            StoreWriter::create_with(path, end - start, options).expect("create store shard")
        })
        .collect();
    for (index, meta) in segment_metas(segments).into_iter().enumerate() {
        let (year, occ) = loss_columns(&mut factory.stream(index as u64), trials);
        for (writer, &(start, end)) in writers.iter_mut().zip(&cuts) {
            writer
                .append_segment(meta, &year[start..end], &occ[start..end])
                .expect("append segment");
        }
    }
    for writer in writers {
        writer.finish().expect("commit store shard");
    }
    paths
}

fn subset<T: Copy>(rng: &mut SimRng, all: &[T]) -> Vec<T> {
    let want = 1 + rng.below(3) as usize;
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < want.min(all.len()) {
        let i = rng.below(all.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked.into_iter().map(|i| all[i]).collect()
}

fn aggregate(rng: &mut SimRng) -> Aggregate {
    let level = [0.9, 0.95, 0.99, 0.995][rng.below(4) as usize];
    let basis = if rng.uniform() < 0.5 {
        Basis::Aep
    } else {
        Basis::Oep
    };
    match rng.below(8) {
        0 => Aggregate::Mean,
        1 => Aggregate::StdDev,
        2 => Aggregate::MaxLoss,
        3 => Aggregate::AttachProb,
        4 => Aggregate::Var { level },
        5 => Aggregate::Tvar { level },
        6 => Aggregate::Pml {
            return_period: [50.0, 100.0, 250.0][rng.below(3) as usize],
            basis,
        },
        _ => Aggregate::EpCurve { basis, points: 10 },
    }
}

/// Analyst queries are dealt in blocks of 16 from three decks — shuffled,
/// not drawn — so every second of a run carries the same mix of heavy and
/// light queries and its median is not a lottery.
///
/// Trial-window lengths, as divisors of the axis: the geometric skew of
/// `loadgen::skewed_mix` (half scan the whole axis, a few a sliver).
const WINDOW_DECK: [usize; 16] = [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 8, 16];
/// Which dimensions the filter constrains: bit 0 perils, 1 regions, 2 lobs.
const FILTER_DECK: [u8; 16] = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 4, 4, 3, 5];
/// The grouping dimension, if any.
const GROUP_DECK: [Option<Dimension>; 16] = {
    let (p, r, l) = (
        Some(Dimension::Peril),
        Some(Dimension::Region),
        Some(Dimension::Lob),
    );
    [
        None, None, None, None, None, None, None, p, p, p, r, r, r, l, l, l,
    ]
};

fn shuffle<T>(deck: &mut [T], rng: &mut SimRng) {
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `count` pairwise-distinct analyst queries: peril / region / lob filters,
/// skewed trial windows and group-bys dealt from the decks above, random
/// subsets, window offsets, loss thresholds and aggregate sets.
pub fn analyst_queries(trials: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = RngFactory::new(seed).derive("ledger-analyst").stream(0);
    let mut seen: HashSet<Query> = HashSet::with_capacity(count);
    let mut queries = Vec::with_capacity(count);
    let (mut windows, mut filters, mut groups) = (WINDOW_DECK, FILTER_DECK, GROUP_DECK);
    let mut dealt = usize::MAX;
    while queries.len() < count {
        let slot = queries.len() % 16;
        if slot == 0 && dealt != queries.len() {
            dealt = queries.len();
            shuffle(&mut windows, &mut rng);
            shuffle(&mut filters, &mut rng);
            shuffle(&mut groups, &mut rng);
        }
        let mut builder = QueryBuilder::new();
        if filters[slot] & 1 != 0 {
            builder = builder.with_perils(subset(&mut rng, &Peril::ALL));
        }
        if filters[slot] & 2 != 0 {
            builder = builder.in_regions(subset(&mut rng, &Region::ALL));
        }
        if filters[slot] & 4 != 0 {
            builder = builder.for_lobs(subset(&mut rng, &LineOfBusiness::ALL));
        }
        let len = trials / windows[slot];
        let start = rng.below((trials - len) as u64 + 1) as usize;
        builder = builder.trials(start..start + len);
        if rng.uniform() < 0.3 {
            builder = builder.loss_at_least(10f64.powf(4.0 + 2.5 * rng.uniform()));
        }
        if let Some(dimension) = groups[slot] {
            builder = builder.group_by(dimension);
        }
        for _ in 0..1 + rng.below(3) {
            builder = builder.aggregate(aggregate(&mut rng));
        }
        // A draw the builder rejects (a duplicated aggregate, say) or that
        // was dealt before is simply redrawn for the same slot: the stream
        // stays a pure function of the seed.
        if let Ok(query) = builder.build() {
            if seen.insert(query.clone()) {
                queries.push(query);
            }
        }
    }
    queries
}

/// The 48 dashboard panels: 4 groupings × 4 filters × 3 aggregate sets.
/// Panel 0 is the unfiltered, ungrouped headline figure.
pub fn dashboard_queries() -> Vec<Query> {
    let groupings = [
        None,
        Some(Dimension::Region),
        Some(Dimension::Peril),
        Some(Dimension::Lob),
    ];
    let aggregate_sets: [&[Aggregate]; 3] = [
        &[Aggregate::Mean, Aggregate::Tvar { level: 0.99 }],
        &[
            Aggregate::Var { level: 0.99 },
            Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 10,
            },
        ],
        &[Aggregate::MaxLoss, Aggregate::AttachProb],
    ];
    let mut queries = Vec::with_capacity(48);
    for grouping in groupings {
        for filter in 0..4 {
            for aggregates in aggregate_sets {
                let mut builder = QueryBuilder::new();
                builder = match filter {
                    0 => builder,
                    1 => builder.with_perils([Peril::Hurricane, Peril::Flood]),
                    2 => builder.in_regions([Region::Europe, Region::Japan]),
                    _ => builder.loss_at_least(1.0e5),
                };
                if let Some(dimension) = grouping {
                    builder = builder.group_by(dimension);
                }
                for aggregate in aggregates {
                    builder = builder.aggregate(aggregate.clone());
                }
                queries.push(builder.build().expect("dashboard panels are valid"));
            }
        }
    }
    queries
}

/// Zipf(1) sampler over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Bit-equality of two results that also holds for NaN aggregates.
pub fn same_result(a: &QueryResult, b: &QueryResult) -> bool {
    a == b || format!("{a:?}") == format!("{b:?}")
}

/// Bytes of loss columns a query's scan reads, computed from the plan:
/// surviving segments × trial window × two `f64` columns.
pub fn computed_scan_bytes<S: SegmentSource + ?Sized>(store: &S, query: &Query) -> u64 {
    let plan = catrisk_riskquery::QueryPlan::new(store, query).expect("a served query plans");
    plan.attribution().bytes as u64
}
