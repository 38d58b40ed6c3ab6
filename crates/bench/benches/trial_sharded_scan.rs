//! Trial-sharded catalog benchmark: the stitched scan over 1/2/4 trial
//! windows, and the per-shard partial-aggregate cache cold vs warm.
//!
//! The same store is cut into 1, 2 and 4 trial-window shard files (the
//! paper's partition axis), so every catalog stitches an identical axis
//! and the scan cost differences isolate the trial-sharding layer itself
//! (window location, cut-aligned blocks, adjacent-window combine).  The
//! cache benchmarks measure the tentpole claim: after a *single-shard*
//! commit, a served query rescans one window and re-combines the other
//! windows' cached partials, instead of rescanning the whole axis the
//! way the whole-result cache alone would.  The `trial_equivalence`
//! target asserts bit-identity across all window counts and that the
//! partial cache actually hit.  `CATRISK_BENCH_QUICK=1` shrinks the
//! workload for smoke runs.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use catrisk_bench::workload::build_store;
use catrisk_eventgen::peril::Region;
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::prelude::*;
use catrisk_riskserve::{Server, ServerConfig, ShardAxis, SourceProvider, StoreCatalog};
use catrisk_riskstore::{StoreOptions, StoreWriter};

fn quick() -> bool {
    std::env::var("CATRISK_BENCH_QUICK").is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

fn trials() -> usize {
    if quick() {
        4_000
    } else {
        20_000
    }
}

/// Cuts the base store's trial axis into `windows` equal shard files
/// (each holding every segment over its window, stamped with its
/// offset) and opens them as a trial-axis catalog.
fn write_trial_catalog(
    base: &ResultStore,
    windows: usize,
    tag: &str,
) -> (Vec<PathBuf>, StoreCatalog) {
    let trials = base.num_trials();
    let per_window = trials / windows;
    let extra = trials % windows;
    let mut paths = Vec::new();
    let mut start = 0usize;
    for window in 0..windows {
        let len = per_window + usize::from(window < extra);
        let end = start + len;
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-trial-bench-{}-{tag}-{windows}-{window}.clm",
            std::process::id()
        ));
        let mut writer = StoreWriter::create_with(
            &path,
            len,
            StoreOptions {
                trial_offset: start as u64,
                ..StoreOptions::default()
            },
        )
        .expect("create window shard");
        for segment in 0..base.num_segments() {
            writer
                .append_segment(
                    *base.meta(segment),
                    &base.year_losses(segment)[start..end],
                    &base.max_occ_losses(segment)[start..end],
                )
                .expect("append");
        }
        writer.finish().expect("commit window shard");
        paths.push(path);
        start = end;
    }
    let catalog = StoreCatalog::open(&paths).expect("open trial catalog");
    if windows > 1 {
        assert_eq!(catalog.axis(), ShardAxis::Trial);
    }
    (paths, catalog)
}

fn remove(paths: &[PathBuf]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// The mixed batch answered per iteration (same mix as the segment-axis
/// bench, so the two reports are comparable).
fn query_mix() -> Vec<Query> {
    vec![
        QueryBuilder::new()
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
                points: 10,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::MaxLoss)
            .aggregate(Aggregate::AttachProb)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Region)
            .loss_at_least(1.0e5)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .aggregate(Aggregate::Tvar { level: 0.95 })
            .build()
            .unwrap(),
    ]
}

/// One fused batch over the catalog's current snapshot, bypassing every
/// cache — the raw stitched scan cost.
fn fused_batch(catalog: &StoreCatalog, queries: &[Query]) -> Vec<QueryResult> {
    catalog.with_source(|snapshot| {
        QuerySession::new(snapshot.source)
            .run(queries)
            .expect("batch")
    })
}

/// Submits the mix and waits for every reply.
fn drive(server: &Server<StoreCatalog>, queries: &[Query]) {
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.clone()).expect("admitted"))
        .collect();
    for ticket in tickets {
        criterion::black_box(ticket.wait().expect("served"));
    }
}

fn trial_sharded_scan(c: &mut Criterion) {
    let base = Arc::new(build_store(trials(), 8, 2012, "trial-sharded-bench"));
    let queries = query_mix();
    let mut group = c.benchmark_group("trial_sharded_fused_batch");
    group.sample_size(10);
    for windows in [1usize, 2, 4] {
        let (paths, catalog) = write_trial_catalog(&base, windows, "scan");
        group.bench_function(format!("{windows}_windows"), |b| {
            b.iter(|| criterion::black_box(fused_batch(&catalog, &queries)))
        });
        remove(&paths);
    }
    group.finish();
}

fn partial_cache_cold_vs_warm(c: &mut Criterion) {
    let base = Arc::new(build_store(trials(), 8, 2012, "trial-sharded-bench"));
    let queries = query_mix();
    let trials = base.num_trials();
    let mut group = c.benchmark_group("trial_partial_cache");
    group.sample_size(10);

    let (paths, catalog) = write_trial_catalog(&base, 4, "cache");
    let server = Server::new(
        catalog,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );

    // Cold: every iteration's queries carry a never-seen trial window,
    // so each batch misses both caches and rescans all 4 windows.
    let mut window = 0usize;
    group.bench_function("cold_all_windows_rescan", |b| {
        b.iter(|| {
            window += 1;
            let end = trials - (window % (trials / 2));
            let unique: Vec<Query> = queries
                .iter()
                .map(|q| {
                    let mut q = q.clone();
                    q.filter.trials = Some((0, end));
                    q
                })
                .collect();
            let tickets: Vec<_> = unique
                .into_iter()
                .map(|q| server.submit(q).expect("admitted"))
                .collect();
            for ticket in tickets {
                criterion::black_box(ticket.wait().expect("served"));
            }
        })
    });

    // Warm partials after a single-shard refresh: each iteration commits
    // one fresh segment to window 0 only (its generation moves, the
    // common prefix stays — the layer is missing from the other
    // windows), so the repeated mix misses the result cache but rescans
    // only window 0's quarter of the axis, re-combining the other three
    // windows' cached partials.
    drive(&server, &queries); // populate the partial cache
    let window0_trials = trials.div_ceil(4);
    let mut layer = 800_000u32;
    group.bench_function("single_shard_refresh_rescans_one_window", |b| {
        b.iter(|| {
            layer += 1;
            let mut writer = StoreWriter::open_append(&paths[0]).expect("append window 0");
            let losses = vec![1.0; window0_trials];
            writer
                .append_segment(
                    SegmentMeta::new(
                        LayerId(layer),
                        catrisk_eventgen::peril::Peril::WinterStorm,
                        Region::Europe,
                        LineOfBusiness::Property,
                    ),
                    &losses,
                    &losses,
                )
                .expect("append");
            writer.commit().expect("commit");
            drop(writer);
            drive(&server, &queries);
        })
    });

    // Fully warm: the same mix repeats with no commit in between, so
    // every reply comes from the whole-result cache.
    group.bench_function("warm_result_cache_hit", |b| {
        b.iter(|| drive(&server, &queries))
    });
    group.finish();

    let stats = server.stats();
    assert!(
        stats.partial_hits > 0,
        "single-shard refreshes must re-serve cached partials: {stats:?}"
    );
    assert!(
        stats.cache_hits > 0,
        "the warm path must hit the result cache: {stats:?}"
    );
    server.shutdown();
    remove(&paths);
}

/// Prints the acceptance numbers and pins the equivalence: every window
/// count answers the mix bit-identically to the in-memory store, and a
/// single-shard refresh re-serves the untouched windows' partials.
fn trial_equivalence(_c: &mut Criterion) {
    let base = Arc::new(build_store(trials(), 8, 2012, "trial-sharded-bench"));
    let queries = query_mix();
    let expected = QuerySession::new(&*base).run(&queries).expect("reference");

    for windows in [1usize, 2, 4] {
        let (paths, catalog) = write_trial_catalog(&base, windows, "equiv");
        let results = fused_batch(&catalog, &queries);
        assert_eq!(
            results, expected,
            "{windows}-window trial catalog diverged from the in-memory store"
        );
        assert_eq!(catalog.num_shards(), windows);
        remove(&paths);
    }

    let (paths, catalog) = write_trial_catalog(&base, 4, "equiv-cache");
    let window0_trials = catalog.shard_windows()[0].1;
    let server = Server::new(catalog, ServerConfig::default());
    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(
            &server.query(query.clone()).expect("served").result,
            expected
        );
    }
    // One window commits a layer its peers don't have: results must be
    // unchanged (prefix clamp) and only that window rescans.
    let mut writer = StoreWriter::open_append(&paths[0]).expect("append");
    let losses = vec![1.0; window0_trials];
    writer
        .append_segment(
            SegmentMeta::new(
                LayerId(900_000),
                catrisk_eventgen::peril::Peril::WinterStorm,
                Region::Europe,
                LineOfBusiness::Property,
            ),
            &losses,
            &losses,
        )
        .expect("append");
    writer.commit().expect("commit");
    drop(writer);
    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(
            &server.query(query.clone()).expect("served").result,
            expected,
            "a layer missing from three of four windows must stay invisible"
        );
    }
    let stats = server.stats();
    assert_eq!(
        stats.partial_hits,
        3 * queries.len() as u64,
        "exactly the three untouched windows re-serve partials: {stats:?}"
    );
    println!(
        "trial_equivalence: {} queries x 1/2/4 windows bit-identical; partial cache \
         hits {} / rescans {} (hit rate {:.0}%) after a single-window commit",
        queries.len(),
        stats.partial_hits,
        stats.partial_misses,
        stats.partial_hit_rate() * 100.0
    );
    server.shutdown();
    remove(&paths);
}

criterion_group!(
    benches,
    trial_sharded_scan,
    partial_cache_cold_vs_warm,
    trial_equivalence
);
criterion_main!(benches);
