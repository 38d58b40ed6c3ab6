//! Catalog-path equivalence properties: sharded + refreshed + cached
//! serving must be bit-identical to a sequential single-store session.
//!
//! Five layers of the serving shape are pinned here:
//!
//! 1. [`ShardedSource`] over *random segment-axis splits* of a store
//!    answers every query bit-identically to the single concatenated
//!    store — including through the batched `QuerySession`.
//! 2. [`TrialShardedSource`] over *random trial-axis splits* does the
//!    same along the paper's own partition dimension.
//! 3. A [`StoreCatalog`]-backed server keeps that equivalence across a
//!    *refresh mid-session*: segments committed to one shard while the
//!    server runs become visible and the results match a store that held
//!    them all along.
//! 4. The generation-keyed result cache hits on repeats and **must miss
//!    after a refresh** — a cached reply can never survive its snapshot.
//! 5. On a trial-axis catalog, a refresh of one shard rescans *only that
//!    shard's window*: the stats counters prove the other shards'
//!    cached partial aggregates were re-served.

use std::path::PathBuf;

use proptest::prelude::*;

use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::prelude::*;
use catrisk_riskserve::{Server, ServerConfig, ShardAxis, SourceProvider, StoreCatalog};
use catrisk_riskstore::{StoreOptions, StoreWriter};
use catrisk_simkit::rng::RngFactory;

/// One generated segment: its loss outcomes plus its dimension tags.
#[derive(Clone)]
struct RawSegment {
    outcomes: Vec<TrialOutcome>,
    meta: SegmentMeta,
}

/// Generates `segments` random tagged segments over `trials` trials.
fn random_segments(trials: usize, segments: usize, seed: u64) -> Vec<RawSegment> {
    let factory = RngFactory::new(seed).derive("catalog-equivalence");
    (0..segments)
        .map(|s| {
            let mut rng = factory.stream(s as u64);
            let outcomes: Vec<TrialOutcome> = (0..trials)
                .map(|_| {
                    let year = if rng.uniform() < 0.35 {
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
                LayerId((s / 3) as u32),
                Peril::ALL[s % Peril::ALL.len()],
                Region::ALL[(s / 2) % Region::ALL.len()],
                LineOfBusiness::ALL[s % LineOfBusiness::ALL.len()],
            );
            RawSegment { outcomes, meta }
        })
        .collect()
}

fn ingest(store: &mut ResultStore, segment: &RawSegment) {
    store
        .ingest(
            &YearLossTable::new(segment.meta.layer, segment.outcomes.clone()),
            segment.meta,
        )
        .expect("ingest");
}

/// A mixed query batch covering scalar metrics, order statistics, curves,
/// filters, trial windows and loss ranges.
fn query_batch(trials: usize) -> Vec<Query> {
    vec![
        QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .with_perils([Peril::Hurricane, Peril::Flood])
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Var { level: 0.95 })
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 6,
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
            .trials(0..trials.div_ceil(2))
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::StdDev)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Layer)
            .loss_at_least(2.0e5)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::MaxLoss)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .aggregate(Aggregate::AttachProb)
            .build()
            .unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ShardedSource over a random split ≡ the concatenated single store,
    /// bit for bit, through both `execute` and the batched session.
    #[test]
    fn random_shard_splits_are_bit_identical(
        trials in 8..120usize,
        segments in 1..24usize,
        shards in 1..5usize,
        seed in 0..500u64,
    ) {
        let raw = random_segments(trials, segments, seed);
        // Random-ish but deterministic shard assignment.
        let assignment: Vec<usize> = (0..segments)
            .map(|s| (s.wrapping_mul(7).wrapping_add(seed as usize)) % shards)
            .collect();

        let mut shard_stores: Vec<ResultStore> =
            (0..shards).map(|_| ResultStore::new(trials)).collect();
        for (segment, &shard) in raw.iter().zip(&assignment) {
            ingest(&mut shard_stores[shard], segment);
        }
        // The reference holds every shard's segments in shard-major
        // (union) order.
        let mut reference = ResultStore::new(trials);
        for shard in 0..shards {
            for (segment, &owner) in raw.iter().zip(&assignment) {
                if owner == shard {
                    ingest(&mut reference, segment);
                }
            }
        }

        let shard_refs: Vec<&ResultStore> = shard_stores.iter().collect();
        let sharded = ShardedSource::new(shard_refs).unwrap();
        let queries = query_batch(trials);
        for query in &queries {
            prop_assert_eq!(
                execute(&sharded, query).unwrap(),
                execute(&reference, query).unwrap(),
                "per-query sharded execution diverged"
            );
        }
        prop_assert_eq!(
            QuerySession::new(&sharded).run(&queries).unwrap(),
            QuerySession::new(&reference).run(&queries).unwrap(),
            "batched sharded session diverged"
        );
    }

    /// TrialShardedSource over a random trial split ≡ the whole store,
    /// bit for bit, through `execute`, the batched session, and the
    /// batched server path (the server additionally answers from
    /// stitched per-shard partials, so this also pins the partial
    /// combine against the fused scan).
    #[test]
    fn random_trial_splits_are_bit_identical(
        trials in 8..120usize,
        segments in 1..12usize,
        shards in 1..5usize,
        seed in 0..500u64,
    ) {
        let raw = random_segments(trials, segments, seed);
        let mut reference = ResultStore::new(trials);
        for segment in &raw {
            ingest(&mut reference, segment);
        }
        // Deterministic, seed-dependent window bounds.
        let shards = shards.min(trials);
        let mut bounds: Vec<usize> = (0..shards - 1)
            .map(|k| 1 + (seed as usize * 31 + k * 17 + k * k * 7) % (trials - 1))
            .collect();
        bounds.push(0);
        bounds.push(trials);
        bounds.sort_unstable();
        bounds.dedup();

        let shard_stores: Vec<ResultStore> = bounds
            .windows(2)
            .map(|window| {
                let (start, end) = (window[0], window[1]);
                let mut shard = ResultStore::new(end - start);
                for segment in &raw {
                    shard
                        .ingest(
                            &YearLossTable::new(
                                segment.meta.layer,
                                segment.outcomes[start..end].to_vec(),
                            ),
                            segment.meta,
                        )
                        .expect("ingest window");
                }
                shard
            })
            .collect();
        let shard_refs: Vec<&ResultStore> = shard_stores.iter().collect();
        let sharded = TrialShardedSource::new(shard_refs).unwrap();
        let queries = query_batch(trials);
        for query in &queries {
            prop_assert_eq!(
                execute(&sharded, query).unwrap(),
                execute(&reference, query).unwrap(),
                "per-query trial-sharded execution diverged"
            );
        }
        prop_assert_eq!(
            QuerySession::new(&sharded).run(&queries).unwrap(),
            QuerySession::new(&reference).run(&queries).unwrap(),
            "batched trial-sharded session diverged"
        );
    }
}

fn temp_shard(name: &str, index: usize) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "catrisk-catalog-eq-{}-{}-{}.clm",
        std::process::id(),
        name,
        index
    ));
    path
}

/// One fused batch over the catalog's current snapshot — no server, no
/// cache: the raw on-disk union / stitch.
fn snapshot_batch(catalog: &StoreCatalog, queries: &[Query]) -> Vec<QueryResult> {
    catalog.with_source(|snapshot| {
        QuerySession::new(snapshot.source)
            .run(queries)
            .expect("snapshot batch")
    })
}

fn write_shard(path: &PathBuf, trials: usize, segments: &[RawSegment]) {
    let mut writer = StoreWriter::create(path, trials).unwrap();
    for segment in segments {
        writer
            .append_ylt(
                &YearLossTable::new(segment.meta.layer, segment.outcomes.clone()),
                segment.meta,
            )
            .unwrap();
    }
    writer.finish().unwrap();
}

/// The full tentpole property on disk: a catalog-backed server serving
/// two shard files, refreshed mid-session while an ingest writer commits,
/// with the result cache on — always bit-identical to a sequential
/// session over a single store holding the same segments, and the cache
/// must hit on repeats but miss after every refresh.
#[test]
fn catalog_server_refresh_and_cache_match_sequential_session() {
    let trials = 64;
    let raw = random_segments(trials, 10, 2012);
    let (initial_a, rest) = raw.split_at(4);
    let (initial_b, appended) = rest.split_at(3);

    let path_a = temp_shard("live", 0);
    let path_b = temp_shard("live", 1);
    write_shard(&path_a, trials, initial_a);
    write_shard(&path_b, trials, initial_b);

    let catalog = StoreCatalog::open([&path_a, &path_b]).unwrap();
    assert_eq!(catalog.num_shards(), 2);
    let queries = query_batch(trials);

    // Phase 1: the catalog over the initial commits ≡ a single store
    // holding shard A's then shard B's segments — as a raw snapshot
    // first, then through the server.
    let mut reference = ResultStore::new(trials);
    for segment in initial_a.iter().chain(initial_b) {
        ingest(&mut reference, segment);
    }
    let expected = QuerySession::new(&reference).run(&queries).unwrap();
    assert_eq!(
        snapshot_batch(&catalog, &queries),
        expected,
        "the on-disk union diverged from the in-memory store"
    );
    let server = Server::new(catalog, ServerConfig::default());
    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(
            &server.query(query.clone()).unwrap().result,
            expected,
            "catalog serving diverged from the sequential session"
        );
    }
    let misses_phase1 = server.stats().cache_misses;
    assert!(misses_phase1 >= queries.len() as u64);

    // Repeats hit the cache, results unchanged.
    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(&server.query(query.clone()).unwrap().result, expected);
    }
    let stats = server.stats();
    assert!(
        stats.cache_hits >= queries.len() as u64,
        "repeats must hit: {stats:?}"
    );
    assert_eq!(
        stats.cache_misses, misses_phase1,
        "repeats must not rescan: {stats:?}"
    );

    // Phase 2: an ingest writer commits new segments to shard B while the
    // server keeps running (refresh-mid-session).
    let mut writer = StoreWriter::open_append(&path_b).unwrap();
    for segment in appended {
        writer
            .append_ylt(
                &YearLossTable::new(segment.meta.layer, segment.outcomes.clone()),
                segment.meta,
            )
            .unwrap();
    }
    writer.commit().unwrap();
    drop(writer);

    // The union order is shard-major: A's segments, then all of B's.
    let mut reference = ResultStore::new(trials);
    for segment in initial_a.iter().chain(initial_b).chain(appended) {
        ingest(&mut reference, segment);
    }
    let expected_after = QuerySession::new(&reference).run(&queries).unwrap();
    for (index, (query, expected)) in queries.iter().zip(&expected_after).enumerate() {
        assert_eq!(
            &server.query(query.clone()).unwrap().result,
            expected,
            "query {index} diverged after the mid-session refresh"
        );
    }
    let stats = server.stats();
    assert!(
        stats.refreshes >= 1,
        "the commit must be picked up: {stats:?}"
    );
    // Cache-hit-after-refresh-must-miss: every query re-scanned.
    assert!(
        stats.cache_misses >= misses_phase1 + queries.len() as u64,
        "stale cache entries served across a refresh: {stats:?}"
    );
    assert_ne!(
        expected, expected_after,
        "the appended segments must actually change some result"
    );

    // And the refreshed cache serves the *new* snapshot on repeats.
    let miss_floor = server.stats().cache_misses;
    for (query, expected) in queries.iter().zip(&expected_after) {
        assert_eq!(&server.query(query.clone()).unwrap().result, expected);
    }
    assert_eq!(
        server.stats().cache_misses,
        miss_floor,
        "post-refresh repeats must hit the refreshed cache"
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

/// Writes the trial window `[start, end)` of `segments` as one shard
/// file stamped with its offset.
fn write_trial_window(path: &PathBuf, segments: &[RawSegment], start: usize, end: usize) {
    let mut writer = StoreWriter::create_with(
        path,
        end - start,
        StoreOptions {
            trial_offset: start as u64,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    for segment in segments {
        writer
            .append_ylt(
                &YearLossTable::new(segment.meta.layer, segment.outcomes[start..end].to_vec()),
                segment.meta,
            )
            .unwrap();
    }
    writer.finish().unwrap();
}

/// The trial-axis tentpole on disk: a catalog-backed server stitching
/// three trial-window shard files answers bit-identically to a
/// sequential session over the unsplit store, and after a *single-shard*
/// refresh the stats counters prove only that shard's window was
/// rescanned — every other shard's cached partial aggregate was
/// re-served.
#[test]
fn trial_sharded_server_rescans_only_the_refreshed_shard() {
    let trials = 48;
    let raw = random_segments(trials, 7, 4242);
    let cuts = [0usize, 17, 30, 48];
    let paths: Vec<PathBuf> = (0..3).map(|k| temp_shard("trial", k)).collect();
    for (path, window) in paths.iter().zip(cuts.windows(2)) {
        write_trial_window(path, &raw, window[0], window[1]);
    }

    let catalog = StoreCatalog::open(&paths).unwrap();
    assert_eq!(catalog.axis(), ShardAxis::Trial);
    assert_eq!(catalog.num_shards(), 3);
    let queries = query_batch(trials);

    let mut reference = ResultStore::new(trials);
    for segment in &raw {
        ingest(&mut reference, segment);
    }
    let expected = QuerySession::new(&reference).run(&queries).unwrap();
    assert_eq!(
        snapshot_batch(&catalog, &queries),
        expected,
        "the on-disk stitch diverged from the in-memory store"
    );
    let server = Server::new(catalog, ServerConfig::default());
    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(
            &server.query(query.clone()).unwrap().result,
            expected,
            "trial-sharded serving diverged from the sequential session"
        );
    }
    let stats = server.stats();
    // Every unique query scanned every window exactly once, cold.
    assert_eq!(stats.partial_misses, 3 * queries.len() as u64, "{stats:?}");
    assert_eq!(stats.partial_hits, 0, "{stats:?}");

    // An ingest writer commits a new layer to the *middle* window only:
    // its generation moves, the result cache correctly misses, but the
    // two untouched windows must re-serve their cached partials — and
    // the answers are unchanged, because a layer missing from two
    // windows is not yet servable (common-prefix clamp).
    let extra = random_segments(trials, 8, 77).pop().unwrap();
    let mut writer = StoreWriter::open_append(&paths[1]).unwrap();
    writer
        .append_ylt(
            &YearLossTable::new(LayerId(7_000), extra.outcomes[cuts[1]..cuts[2]].to_vec()),
            SegmentMeta::new(
                LayerId(7_000),
                extra.meta.peril,
                extra.meta.region,
                extra.meta.lob,
            ),
        )
        .unwrap();
    writer.commit().unwrap();
    drop(writer);

    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(&server.query(query.clone()).unwrap().result, expected);
    }
    let stats = server.stats();
    assert!(stats.refreshes >= 1, "{stats:?}");
    assert_eq!(
        stats.partial_hits,
        2 * queries.len() as u64,
        "the two untouched windows must hit their cached partials: {stats:?}"
    );
    assert_eq!(
        stats.partial_misses,
        4 * queries.len() as u64,
        "only the refreshed window rescans: {stats:?}"
    );

    // The other windows catch up with their slices of the same layer:
    // the segment prefix grows, the layer becomes servable, and the
    // served answers match a store that held it all along.
    for (shard, window) in [(0usize, (cuts[0], cuts[1])), (2, (cuts[2], cuts[3]))] {
        let mut writer = StoreWriter::open_append(&paths[shard]).unwrap();
        writer
            .append_ylt(
                &YearLossTable::new(LayerId(7_000), extra.outcomes[window.0..window.1].to_vec()),
                SegmentMeta::new(
                    LayerId(7_000),
                    extra.meta.peril,
                    extra.meta.region,
                    extra.meta.lob,
                ),
            )
            .unwrap();
        writer.commit().unwrap();
    }
    let mut grown = reference.clone();
    grown
        .ingest(
            &YearLossTable::new(LayerId(7_000), extra.outcomes.clone()),
            SegmentMeta::new(
                LayerId(7_000),
                extra.meta.peril,
                extra.meta.region,
                extra.meta.lob,
            ),
        )
        .unwrap();
    let expected_grown = QuerySession::new(&grown).run(&queries).unwrap();
    for (query, expected) in queries.iter().zip(&expected_grown) {
        assert_eq!(
            &server.query(query.clone()).unwrap().result,
            expected,
            "the stitched new layer diverged from the reference"
        );
    }
    assert_ne!(
        expected, expected_grown,
        "the new layer must change results"
    );

    server.shutdown();
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}

/// The segment-axis refinement of the tentpole: a catalog-backed server
/// serving two **segment**-axis shard files answers shard-aligned
/// queries from per-segment-shard partial aggregates, and after a
/// *single-shard* commit the stats counters prove exactly one shard was
/// rescanned — including when the *first* shard grows and every later
/// shard's global segment indices shift (the cached partials align by
/// decoded key, not index).
#[test]
fn segment_sharded_server_rescans_only_the_refreshed_shard() {
    let trials = 40;
    // Shard A owns layers 0-1, shard B owns layers 2-3: every
    // layer-grouped plan is shard-aligned.
    let mut raw = random_segments(trials, 8, 1212);
    for (index, segment) in raw.iter_mut().enumerate() {
        segment.meta = SegmentMeta::new(
            LayerId((index / 2) as u32),
            segment.meta.peril,
            segment.meta.region,
            segment.meta.lob,
        );
    }
    let (side_a, side_b) = raw.split_at(4);
    let path_a = temp_shard("segment", 0);
    let path_b = temp_shard("segment", 1);
    write_shard(&path_a, trials, side_a);
    write_shard(&path_b, trials, side_b);

    let catalog = StoreCatalog::open([&path_a, &path_b]).unwrap();
    assert_eq!(catalog.axis(), ShardAxis::Segment);
    let server = Server::new(catalog, ServerConfig::default());
    // Every query groups by Layer, so each group's segments live in one
    // shard and the whole batch takes the segment-partial path — the
    // counter arithmetic below depends on that.
    let queries = vec![
        QueryBuilder::new()
            .group_by(Dimension::Layer)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Layer)
            .loss_at_least(2.0e5)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::MaxLoss)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Layer)
            .trials(0..trials / 2)
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 5,
            })
            .build()
            .unwrap(),
    ];
    let shards = 2u64;
    let queries_u64 = queries.len() as u64;

    let mut reference = ResultStore::new(trials);
    for segment in side_a.iter().chain(side_b) {
        ingest(&mut reference, segment);
    }
    let expected = QuerySession::new(&reference).run(&queries).unwrap();
    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(
            &server.query(query.clone()).unwrap().result,
            expected,
            "segment-partial serving diverged from the sequential session"
        );
    }
    let stats = server.stats();
    // Cold: every query probed (and missed) both shards.
    assert_eq!(stats.partial_misses, shards * queries_u64, "{stats:?}");
    assert_eq!(stats.partial_hits, 0, "{stats:?}");
    assert!(
        stats.fused_partial_scans > 0 && stats.fused_partial_scans <= stats.partial_misses,
        "the rescans must have run through fused scans: {stats:?}"
    );

    // Commit a new layer to shard B only: B's generation moves, the
    // result cache misses, and exactly B rescans — shard A's partials
    // are re-served from the cache.
    let extra = random_segments(trials, 9, 99).pop().unwrap();
    let mut writer = StoreWriter::open_append(&path_b).unwrap();
    writer
        .append_ylt(
            &YearLossTable::new(LayerId(9), extra.outcomes.clone()),
            SegmentMeta::new(
                LayerId(9),
                extra.meta.peril,
                extra.meta.region,
                extra.meta.lob,
            ),
        )
        .unwrap();
    writer.commit().unwrap();
    drop(writer);

    let mut reference = ResultStore::new(trials);
    for segment in side_a.iter().chain(side_b) {
        ingest(&mut reference, segment);
    }
    reference
        .ingest(
            &YearLossTable::new(LayerId(9), extra.outcomes.clone()),
            SegmentMeta::new(
                LayerId(9),
                extra.meta.peril,
                extra.meta.region,
                extra.meta.lob,
            ),
        )
        .unwrap();
    let expected_b = QuerySession::new(&reference).run(&queries).unwrap();
    for (query, expected) in queries.iter().zip(&expected_b) {
        assert_eq!(
            &server.query(query.clone()).unwrap().result,
            expected,
            "segment-partial serving diverged after the shard-B commit"
        );
    }
    let stats = server.stats();
    assert!(stats.refreshes >= 1, "{stats:?}");
    assert_eq!(
        stats.partial_hits, queries_u64,
        "shard A's partials must be re-served from the cache: {stats:?}"
    );
    assert_eq!(
        stats.partial_misses,
        (shards + 1) * queries_u64,
        "only the refreshed shard rescans: {stats:?}"
    );

    // Commit a new layer to shard A: every shard-B segment's *global*
    // index shifts by one, but B's cached partials still hit and still
    // combine correctly, because the combine aligns by decoded key.
    let extra_a = random_segments(trials, 10, 123).pop().unwrap();
    let mut writer = StoreWriter::open_append(&path_a).unwrap();
    writer
        .append_ylt(
            &YearLossTable::new(LayerId(8), extra_a.outcomes.clone()),
            SegmentMeta::new(
                LayerId(8),
                extra_a.meta.peril,
                extra_a.meta.region,
                extra_a.meta.lob,
            ),
        )
        .unwrap();
    writer.commit().unwrap();
    drop(writer);

    // Union order is shard-major: A's segments (new one last), then B's.
    let mut reference = ResultStore::new(trials);
    for segment in side_a {
        ingest(&mut reference, segment);
    }
    reference
        .ingest(
            &YearLossTable::new(LayerId(8), extra_a.outcomes.clone()),
            SegmentMeta::new(
                LayerId(8),
                extra_a.meta.peril,
                extra_a.meta.region,
                extra_a.meta.lob,
            ),
        )
        .unwrap();
    for segment in side_b {
        ingest(&mut reference, segment);
    }
    reference
        .ingest(
            &YearLossTable::new(LayerId(9), extra.outcomes.clone()),
            SegmentMeta::new(
                LayerId(9),
                extra.meta.peril,
                extra.meta.region,
                extra.meta.lob,
            ),
        )
        .unwrap();
    let expected_a = QuerySession::new(&reference).run(&queries).unwrap();
    for (query, expected) in queries.iter().zip(&expected_a) {
        assert_eq!(
            &server.query(query.clone()).unwrap().result,
            expected,
            "segment-partial serving diverged after the index-shifting shard-A commit"
        );
    }
    let stats = server.stats();
    assert_eq!(
        stats.partial_hits,
        2 * queries_u64,
        "shard B's partials must survive the index shift: {stats:?}"
    );
    assert_eq!(
        stats.partial_misses,
        (shards + 2) * queries_u64,
        "only shard A rescans: {stats:?}"
    );
    assert_ne!(expected, expected_a, "the new layers must change results");

    server.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

/// An uncommitted shard joining the catalog serves nothing until its
/// first commit, then exactly its committed prefix — the canonical
/// serve-while-ingesting startup shape.
#[test]
fn empty_shard_fills_in_live() {
    let trials = 32;
    let raw = random_segments(trials, 6, 77);
    let (seeded, later) = raw.split_at(3);

    let path_a = temp_shard("fill", 0);
    let path_b = temp_shard("fill", 1);
    write_shard(&path_a, trials, seeded);
    // Shard B exists but holds nothing committed yet.
    drop(StoreWriter::create(&path_b, trials).unwrap());

    let catalog = StoreCatalog::open([&path_a, &path_b]).unwrap();
    let server = Server::new(catalog, ServerConfig::default());
    let query = QueryBuilder::new()
        .group_by(Dimension::Peril)
        .aggregate(Aggregate::Mean)
        .build()
        .unwrap();

    let mut reference = ResultStore::new(trials);
    for segment in seeded {
        ingest(&mut reference, segment);
    }
    assert_eq!(
        server.query(query.clone()).unwrap().result,
        execute(&reference, &query).unwrap()
    );

    let mut writer = StoreWriter::open_append(&path_b).unwrap();
    for segment in later {
        writer
            .append_ylt(
                &YearLossTable::new(segment.meta.layer, segment.outcomes.clone()),
                segment.meta,
            )
            .unwrap();
    }
    writer.commit().unwrap();
    drop(writer);

    for segment in later {
        ingest(&mut reference, segment);
    }
    assert_eq!(
        server.query(query.clone()).unwrap().result,
        execute(&reference, &query).unwrap(),
        "the first commit of an initially-empty shard must become servable"
    );

    server.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}
