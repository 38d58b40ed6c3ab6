//! Scheduling and lane width can never change bits: scan results are
//! bit-identical across thread counts (1/2/8), scan granularities, shim
//! chunking and SIMD lane widths — the invariant that lets the
//! self-scheduling claim loop and the SIMD kernel replace the old static
//! scalar scan without a results audit.
//!
//! The per-trial-block partials merge by exact adjacent-window
//! concatenation in block order, so neither block boundaries (thread
//! count × granularity) nor claim interleaving (which executor ran
//! which block) can reach the arithmetic.  `kernel::tests` holds the
//! kernel itself to the same bit-for-bit contract on raw slices; here
//! the whole pipeline is pinned across schedules and lane widths.

use proptest::prelude::*;

use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::kernel::{self, SimdLevel};
use catrisk_riskquery::prelude::*;
use catrisk_simkit::rng::RngFactory;

/// Restores the lane-width, scan-granularity and shim-chunking knobs on
/// scope exit, so a failed check cannot leak them into the other tests.
struct RestoreKnobs;

impl Drop for RestoreKnobs {
    fn drop(&mut self) {
        kernel::force_level(None);
        kernel::set_scan_chunks_per_thread(None);
        rayon::set_chunks_per_worker(None);
    }
}

fn random_store(trials: usize, segments: usize, seed: u64) -> ResultStore {
    let factory = RngFactory::new(seed).derive("scan-determinism");
    let mut store = ResultStore::new(trials);
    for s in 0..segments {
        let mut rng = factory.stream(s as u64);
        let outcomes: Vec<TrialOutcome> = (0..trials)
            .map(|_| {
                let year = if rng.uniform() < 0.4 {
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
            LayerId((s / 2) as u32),
            Peril::ALL[s % Peril::ALL.len()],
            Region::ALL[(s / 3) % Region::ALL.len()],
            LineOfBusiness::ALL[s % LineOfBusiness::ALL.len()],
        );
        store
            .ingest(&YearLossTable::new(LayerId((s / 2) as u32), outcomes), meta)
            .expect("ingest");
    }
    store
}

fn query_batch(trials: usize) -> Vec<Query> {
    vec![
        QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.97 })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Region)
            .loss_at_least(3.0e5)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Pml {
                return_period: 50.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .trials(1..trials.max(2) - 1)
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 5,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::StdDev)
            .aggregate(Aggregate::MaxLoss)
            .build()
            .unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The 1-vs-N invariant: any thread count, scan granularity and shim
    /// chunk granularity reproduces the single-threaded scan bit for
    /// bit, through both `execute` and the batched session.
    #[test]
    fn scan_is_bit_identical_across_schedules(
        trials in 8..160usize,
        segments in 1..14usize,
        seed in 0..400u64,
    ) {
        let _restore = RestoreKnobs;
        let store = random_store(trials, segments, seed);
        let queries = query_batch(trials);

        kernel::set_scan_chunks_per_thread(Some(1));
        let single = catrisk_simkit::parallel::build_pool(1);
        let expected: Vec<QueryResult> = single.install(|| {
            queries.iter().map(|q| execute(&store, q).expect("query")).collect()
        });
        let expected_batch = single
            .install(|| QuerySession::new(&store).run(&queries))
            .expect("batch");

        for threads in [2usize, 8] {
            let pool = catrisk_simkit::parallel::build_pool(threads);
            for granularity in [1usize, 3, 8] {
                kernel::set_scan_chunks_per_thread(Some(granularity));
                for chunking in [1usize, 4] {
                    rayon::set_chunks_per_worker(Some(chunking));
                    let got: Vec<QueryResult> = pool.install(|| {
                        queries.iter().map(|q| execute(&store, q).expect("query")).collect()
                    });
                    prop_assert_eq!(
                        &got, &expected,
                        "execute diverged at threads={} granularity={} chunking={}",
                        threads, granularity, chunking
                    );
                    let got_batch = pool
                        .install(|| QuerySession::new(&store).run(&queries))
                        .expect("batch");
                    prop_assert_eq!(
                        &got_batch, &expected_batch,
                        "session diverged at threads={} granularity={} chunking={}",
                        threads, granularity, chunking
                    );
                }
            }
        }
    }
}

/// Deterministic pseudo-random losses with awkward cases mixed in:
/// zeros, `-0.0`, denormals and huge magnitudes.
fn loss_slices(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = (state >> 11) as f64 / (1u64 << 53) as f64;
        match state % 11 {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324,
            3 => 1.0e18 * x,
            _ => 1.0e6 * x,
        }
    };
    (
        (0..n).map(|_| next()).collect(),
        (0..n).map(|_| next()).collect(),
    )
}

/// A store shaped like production output with awkward magnitudes:
/// several segments per peril and region, sparse losses, denormals, a
/// non-round trial count.
fn awkward_store(trials: usize, segments: usize, seed: u64) -> ResultStore {
    let mut store = ResultStore::new(trials);
    for s in 0..segments {
        let (year, occ) = loss_slices(trials, seed.wrapping_add(5000 + s as u64));
        let outcomes: Vec<TrialOutcome> = year
            .iter()
            .zip(&occ)
            .map(|(&y, &o)| TrialOutcome {
                year_loss: y.abs(),
                max_occurrence_loss: o.abs().min(y.abs()),
                nonzero_events: u32::from(y != 0.0),
            })
            .collect();
        let meta = SegmentMeta::new(
            LayerId((s / 2) as u32),
            Peril::ALL[s % Peril::ALL.len()],
            Region::ALL[s % Region::ALL.len()],
            LineOfBusiness::ALL[s % LineOfBusiness::ALL.len()],
        );
        store
            .ingest(&YearLossTable::new(LayerId((s / 2) as u32), outcomes), meta)
            .expect("ingest");
    }
    store
}

/// A query batch touching every kernel: plain accumulation, grouping,
/// loss-range compaction (both columns), trial windows and order
/// statistics.
fn awkward_queries(trials: usize) -> Vec<Query> {
    vec![
        QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.95 })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Region)
            .loss_at_least(1.0e4)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Pml {
                return_period: 25.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .trials(3..trials - 2)
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 7,
            })
            .aggregate(Aggregate::StdDev)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::MaxLoss)
            .aggregate(Aggregate::AttachProb)
            .build()
            .unwrap(),
    ]
}

/// Every detected lane width × thread count (1/2/8) × scan granularity
/// (1 = the old static split, 4 = the self-scheduling default) answers a
/// mixed query batch exactly as the single-threaded scalar static scan
/// does.
#[test]
fn every_lane_width_reproduces_the_scalar_pipeline() {
    let _restore = RestoreKnobs;
    let store = awkward_store(101, 9, 424242);
    let queries = awkward_queries(101);

    kernel::force_level(Some(SimdLevel::Scalar));
    kernel::set_scan_chunks_per_thread(Some(1));
    let reference: Vec<QueryResult> = catrisk_simkit::parallel::build_pool(1).install(|| {
        queries
            .iter()
            .map(|q| execute(&store, q).expect("reference query"))
            .collect()
    });

    let levels = kernel::available_levels();
    assert!(levels.contains(&SimdLevel::Scalar));
    for threads in [1usize, 2, 8] {
        let pool = catrisk_simkit::parallel::build_pool(threads);
        for granularity in [1usize, 4] {
            kernel::set_scan_chunks_per_thread(Some(granularity));
            for &level in &levels {
                kernel::force_level(Some(level));
                for (query, expected) in queries.iter().zip(&reference) {
                    let got = pool.install(|| execute(&store, query)).expect("query");
                    assert_eq!(
                        &got,
                        expected,
                        "pipeline diverged at threads={threads} granularity={granularity} \
                         level={}",
                        level.name()
                    );
                }
            }
        }
    }
}
