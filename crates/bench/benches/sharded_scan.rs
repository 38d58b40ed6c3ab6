//! Sharded-catalog benchmark: the fused batch path over 1/2/4-shard
//! catalogs, and the generation-keyed result cache cold vs warm.
//!
//! The same segment set is written contiguously into 1, 2 and 4 store
//! files, so every catalog presents an identical union and the scan cost
//! differences isolate the sharding layer itself (segment-index
//! remapping, merged dictionaries, per-shard read locks).  The
//! `sharded_equivalence` target asserts the results are bit-identical
//! across all shard counts — sharding is routing, not approximation —
//! and that a warm cache actually answers without scanning.
//! `CATRISK_BENCH_QUICK=1` shrinks the workload for smoke runs.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use catrisk_bench::workload::build_store;
use catrisk_riskquery::prelude::*;
use catrisk_riskserve::{Server, ServerConfig, SourceProvider, StoreCatalog};
use catrisk_riskstore::StoreWriter;

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

/// Splits the base store's segments contiguously into `shards` files and
/// opens them as a catalog.  The union order equals the base store's
/// segment order for every shard count, so results are comparable bit
/// for bit.
fn write_catalog(base: &ResultStore, shards: usize, tag: &str) -> (Vec<PathBuf>, StoreCatalog) {
    let per_shard = base.num_segments().div_ceil(shards);
    let mut paths = Vec::new();
    for shard in 0..shards {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-sharded-bench-{}-{tag}-{shards}-{shard}.clm",
            std::process::id()
        ));
        let mut writer = StoreWriter::create(&path, base.num_trials()).expect("create shard");
        let start = shard * per_shard;
        let end = ((shard + 1) * per_shard).min(base.num_segments());
        for segment in start..end {
            writer
                .append_segment(
                    *base.meta(segment),
                    base.year_losses(segment),
                    base.max_occ_losses(segment),
                )
                .expect("append");
        }
        writer.finish().expect("commit shard");
        paths.push(path);
    }
    let catalog = StoreCatalog::open(&paths).expect("open catalog");
    (paths, catalog)
}

fn remove(paths: &[PathBuf]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// The mixed batch the fused scan answers per iteration.
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

/// One fused batch over the catalog's current snapshot, bypassing the
/// cache — the raw sharded scan cost.
fn fused_batch(catalog: &StoreCatalog, queries: &[Query]) -> Vec<QueryResult> {
    catalog.with_source(|snapshot| {
        QuerySession::new(snapshot.source)
            .run(queries)
            .expect("batch")
    })
}

fn sharded_scan(c: &mut Criterion) {
    let base = Arc::new(build_store(trials(), 8, 2012, "sharded-bench"));
    let queries = query_mix();
    let mut group = c.benchmark_group("sharded_fused_batch");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let (paths, catalog) = write_catalog(&base, shards, "scan");
        group.bench_function(format!("{shards}_shards"), |b| {
            b.iter(|| criterion::black_box(fused_batch(&catalog, &queries)))
        });
        remove(&paths);
    }
    group.finish();
}

fn cache_cold_vs_warm(c: &mut Criterion) {
    let base = Arc::new(build_store(trials(), 8, 2012, "sharded-bench"));
    let queries = query_mix();
    let trials = base.num_trials();
    let mut group = c.benchmark_group("catalog_result_cache");
    group.sample_size(10);

    let (paths, catalog) = write_catalog(&base, 2, "cache");
    let server = Server::new(
        catalog,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );

    // Cold: every iteration's queries carry a never-seen trial window, so
    // each batch misses the cache and pays the fused scan.
    let mut window = 0usize;
    group.bench_function("cold_miss_per_batch", |b| {
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

    // Warm: the same mix repeats, so after the first batch every reply
    // comes from the generation-keyed cache.
    group.bench_function("warm_hit_per_batch", |b| {
        b.iter(|| {
            let tickets: Vec<_> = queries
                .iter()
                .map(|q| server.submit(q.clone()).expect("admitted"))
                .collect();
            for ticket in tickets {
                criterion::black_box(ticket.wait().expect("served"));
            }
        })
    });
    group.finish();

    let stats = server.stats();
    assert!(
        stats.cache_hits > 0,
        "the warm path must hit the cache: {stats:?}"
    );
    server.shutdown();
    remove(&paths);
}

/// Prints the acceptance numbers and pins the equivalence: every shard
/// count answers the mix bit-identically to the in-memory store, and a
/// warm cache answers without scanning.
fn sharded_equivalence(_c: &mut Criterion) {
    let base = Arc::new(build_store(trials(), 8, 2012, "sharded-bench"));
    let queries = query_mix();
    let expected = QuerySession::new(&*base).run(&queries).expect("reference");

    for shards in [1usize, 2, 4] {
        let (paths, catalog) = write_catalog(&base, shards, "equiv");
        let results = fused_batch(&catalog, &queries);
        assert_eq!(
            results, expected,
            "{shards}-shard catalog diverged from the in-memory store"
        );
        assert_eq!(catalog.num_shards(), shards);
        remove(&paths);
    }

    let (paths, catalog) = write_catalog(&base, 2, "equiv-cache");
    let server = Server::new(catalog, ServerConfig::default());
    for _ in 0..3 {
        for (query, expected) in queries.iter().zip(&expected) {
            assert_eq!(
                &server.query(query.clone()).expect("served").result,
                expected
            );
        }
    }
    let stats = server.stats();
    assert!(stats.cache_hits >= 2 * queries.len() as u64, "{stats:?}");
    println!(
        "sharded_equivalence: {} queries x 1/2/4 shards bit-identical; \
         cache hits {} misses {} (hit rate {:.0}%)",
        queries.len(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_rate() * 100.0
    );
    server.shutdown();
    remove(&paths);
}

criterion_group!(
    benches,
    sharded_scan,
    cache_cold_vs_warm,
    sharded_equivalence
);
criterion_main!(benches);
