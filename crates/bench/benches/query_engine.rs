//! Query-engine benchmarks: single-query scan latency and batched-query
//! throughput over a production-shaped columnar store.
//!
//! The batched bench compares the `QuerySession` path (scan-spec dedup +
//! fused single-pass scan + shared order statistics) against the naive
//! baseline of executing every query independently — one full scan of the
//! loss columns per query.  The session must hold a ≥ 2× advantage on a
//! ≥ 10k-trial workload; the `batched_speedup` target prints the measured
//! ratio.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use catrisk_bench::workload::build_store;
use catrisk_eventgen::peril::Peril;
use catrisk_riskquery::prelude::*;

/// A representative ad-hoc batch: three distinct scan specs, each asked for
/// several metric sets (the typical "mean + VaR + TVaR + EP curve of the
/// same slice" pattern).
fn query_batch() -> Vec<Query> {
    let spec_a = |builder: QueryBuilder| {
        builder
            .with_perils([Peril::Hurricane, Peril::Flood])
            .group_by(Dimension::Region)
    };
    let spec_b = |builder: QueryBuilder| builder.group_by(Dimension::Lob);
    let spec_c = |builder: QueryBuilder| {
        builder
            .with_perils([Peril::Earthquake])
            .group_by(Dimension::Layer)
    };
    vec![
        spec_a(QueryBuilder::new())
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap(),
        spec_a(QueryBuilder::new())
            .aggregate(Aggregate::Var { level: 0.99 })
            .build()
            .unwrap(),
        spec_a(QueryBuilder::new())
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap(),
        spec_a(QueryBuilder::new())
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 20,
            })
            .build()
            .unwrap(),
        spec_b(QueryBuilder::new())
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap(),
        spec_b(QueryBuilder::new())
            .aggregate(Aggregate::StdDev)
            .build()
            .unwrap(),
        spec_b(QueryBuilder::new())
            .aggregate(Aggregate::Pml {
                return_period: 250.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap(),
        spec_b(QueryBuilder::new())
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Oep,
                points: 20,
            })
            .build()
            .unwrap(),
        spec_c(QueryBuilder::new())
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap(),
        spec_c(QueryBuilder::new())
            .aggregate(Aggregate::Tvar { level: 0.995 })
            .build()
            .unwrap(),
        spec_c(QueryBuilder::new())
            .aggregate(Aggregate::MaxLoss)
            .build()
            .unwrap(),
        spec_c(QueryBuilder::new())
            .aggregate(Aggregate::AttachProb)
            .build()
            .unwrap(),
    ]
}

fn single_query_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_single_latency");
    group.sample_size(20);
    for &trials in &[10_000usize, 40_000] {
        let store = build_store(trials, 12, 2012, "query-bench");
        let query = QueryBuilder::new()
            .with_perils([Peril::Hurricane, Peril::Flood])
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(trials), &store, |b, store| {
            b.iter(|| execute(store, &query).unwrap())
        });
    }
    group.finish();
}

fn batched_vs_naive(c: &mut Criterion) {
    let store = build_store(20_000, 12, 2012, "query-bench");
    let queries = query_batch();
    let mut group = c.benchmark_group("query_batched_throughput");
    group.sample_size(15);
    group.bench_function("naive_scan_per_query", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| execute(&store, q).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("batched_session", |b| {
        let session = QuerySession::new(&store);
        b.iter(|| session.run(&queries).unwrap())
    });
    group.finish();
}

/// Prints the measured batched-vs-naive speedup (the acceptance number).
fn batched_speedup(_c: &mut Criterion) {
    let store = build_store(20_000, 12, 2012, "query-bench");
    let queries = query_batch();
    let session = QuerySession::new(&store);
    // Warm up and verify equivalence once.
    let naive: Vec<_> = queries
        .iter()
        .map(|q| execute(&store, q).unwrap())
        .collect();
    let batched = session.run(&queries).unwrap();
    assert_eq!(naive, batched, "batched must be bit-identical to naive");

    let samples = 10;
    let naive_secs = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let _ = queries
                .iter()
                .map(|q| execute(&store, q).unwrap())
                .collect::<Vec<_>>();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let batched_secs = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let _ = session.run(&queries).unwrap();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "batched_speedup: naive {:.2} ms, session {:.2} ms -> {:.2}x \
         ({} queries, {} segments, {} trials)",
        naive_secs * 1e3,
        batched_secs * 1e3,
        naive_secs / batched_secs,
        queries.len(),
        store.num_segments(),
        store.num_trials()
    );
}

criterion_group!(
    query_engine,
    single_query_latency,
    batched_vs_naive,
    batched_speedup
);
criterion_main!(query_engine);
