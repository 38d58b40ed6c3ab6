//! Serving-layer equivalence and backpressure properties.
//!
//! The contract of `catrisk-riskserve` is that micro-batching is *only* a
//! throughput optimisation: M queries submitted concurrently from N
//! threads return **bit-identical** results to running them sequentially
//! through a `QuerySession`, for any batch window, batch-size cap or
//! worker count; and overload produces typed `Overloaded` rejections —
//! never a panic, never an accepted request whose reply is dropped.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use catrisk_eventgen::peril::{Peril, Region};
use catrisk_riskquery::prelude::*;
use catrisk_riskquery::{split_plan_by_segments, QueryPlan};
use catrisk_riskserve::test_store::{random_store, write_catalog};
use catrisk_riskserve::{
    ServeError, Server, ServerConfig, ShardAxis, SourceProvider, StoreCatalog, Ticket,
};
use catrisk_simkit::rng::RngFactory;

/// Draws `count` random valid queries against a `trials`-trial store:
/// random aggregate sets (scalar metrics, quantile metrics, EP curves),
/// random group-bys, random dimension filters, trial windows and loss
/// ranges — with duplicates likely, so cross-submitter dedup is
/// exercised.
fn random_queries(trials: usize, count: usize, seed: u64) -> Vec<Query> {
    let factory = RngFactory::new(seed).derive("serve-queries");
    let mut rng = factory.stream(0);
    let mut pick = |n: usize| (rng.uniform() * n as f64) as usize % n;
    (0..count)
        .map(|_| {
            let mut builder = QueryBuilder::new();
            for _ in 0..1 + pick(2) {
                builder = builder.aggregate(match pick(8) {
                    0 => Aggregate::Mean,
                    1 => Aggregate::StdDev,
                    2 => Aggregate::MaxLoss,
                    3 => Aggregate::AttachProb,
                    4 => Aggregate::Var {
                        level: [0.9, 0.95, 0.99][pick(3)],
                    },
                    5 => Aggregate::Tvar {
                        level: [0.9, 0.95, 0.99][pick(3)],
                    },
                    6 => Aggregate::Pml {
                        return_period: [10.0, 100.0, 250.0][pick(3)],
                        basis: if pick(2) == 0 { Basis::Aep } else { Basis::Oep },
                    },
                    _ => Aggregate::EpCurve {
                        basis: if pick(2) == 0 { Basis::Aep } else { Basis::Oep },
                        points: 2 + pick(10),
                    },
                });
            }
            for dim in [
                Dimension::Layer,
                Dimension::Peril,
                Dimension::Region,
                Dimension::Lob,
            ] {
                if pick(4) == 0 {
                    builder = builder.group_by(dim);
                }
            }
            if pick(3) == 0 {
                builder = builder
                    .with_perils((0..1 + pick(3)).map(|i| Peril::ALL[(i * 2) % Peril::ALL.len()]));
            }
            if pick(4) == 0 {
                builder = builder.in_regions([Region::ALL[pick(Region::ALL.len())]]);
            }
            if pick(4) == 0 {
                let start = pick(trials);
                let len = 1 + pick(trials - start);
                builder = builder.trials(start..start + len);
            }
            if pick(3) == 0 {
                let min = pick(200_000) as f64;
                builder = if pick(2) == 0 {
                    builder.loss_at_least(min)
                } else {
                    builder.loss_in(min, min + pick(1_000_000) as f64)
                };
            }
            builder.build().expect("generated query is valid")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// M queries from N threads through the server are bit-identical to a
    /// sequential session run, for any batch window / batch cap / worker
    /// count.
    #[test]
    fn concurrent_serving_matches_sequential_session(
        trials in 16..160usize,
        segments in 2..16usize,
        threads in 1..6usize,
        per_thread in 1..6usize,
        window_us in 0..1_500u64,
        max_batch in 1..40usize,
        workers in 1..4usize,
        seed in 0..1_000u64,
    ) {
        let store = Arc::new(random_store(trials, segments, seed));
        let queries = random_queries(trials, threads * per_thread, seed ^ 0xD5);

        // The ground truth: one thread, one session, declaration order.
        let expected = QuerySession::new(&*store).run(&queries).unwrap();

        let server = Server::new(
            Arc::clone(&store),
            ServerConfig {
                max_batch,
                batch_window: Duration::from_micros(window_us),
                queue_depth: usize::MAX,
                workers,
                ..ServerConfig::default()
            },
        );
        let results: Vec<Vec<QueryResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let slice = &queries[t * per_thread..(t + 1) * per_thread];
                    let server = &server;
                    scope.spawn(move || {
                        // Submit everything first (so requests from many
                        // threads coexist in the queue), then wait.
                        let tickets: Vec<Ticket> = slice
                            .iter()
                            .map(|q| server.submit(q.clone()).expect("admitted"))
                            .collect();
                        tickets
                            .into_iter()
                            .map(|ticket| ticket.wait().expect("served").result)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, thread_results) in results.into_iter().enumerate() {
            for (k, served) in thread_results.into_iter().enumerate() {
                prop_assert_eq!(
                    &served,
                    &expected[t * per_thread + k],
                    "thread {} query {} diverged from the sequential session",
                    t,
                    k
                );
            }
        }
        let stats = server.stats();
        prop_assert_eq!(stats.completed, (threads * per_thread) as u64);
        prop_assert_eq!(stats.rejected, 0);
    }
}

/// Overload produces typed `Overloaded` rejections; every *accepted*
/// request is still answered.  A long batch window with a single worker
/// pins requests in the queue, so the depth bound is actually hit.
#[test]
fn backpressure_rejects_typed_and_drops_nothing() {
    let store = Arc::new(random_store(64, 6, 77));
    let depth = 4;
    let server = Server::new(
        Arc::clone(&store),
        ServerConfig {
            max_batch: 64,
            batch_window: Duration::from_millis(300),
            queue_depth: depth,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let query = QueryBuilder::new()
        .group_by(Dimension::Region)
        .aggregate(Aggregate::Mean)
        .build()
        .unwrap();

    let mut accepted: Vec<Ticket> = Vec::new();
    let mut rejections = 0usize;
    // Twice the depth: the tail must see typed Overloaded errors, because
    // the single worker is holding its 300ms window open.
    for _ in 0..2 * depth {
        match server.submit(query.clone()) {
            Ok(ticket) => accepted.push(ticket),
            Err(ServeError::Overloaded { depth: observed }) => {
                assert!(observed >= depth, "rejected below the configured depth");
                rejections += 1;
            }
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert!(rejections > 0, "overload never triggered");
    assert!(!accepted.is_empty());
    let expected = catrisk_riskquery::execute(&*store, &query).unwrap();
    for ticket in accepted {
        // No dropped replies: every accepted ticket resolves, correctly.
        let reply = ticket.wait().expect("accepted requests are answered");
        assert_eq!(reply.result, expected);
    }
    assert_eq!(server.stats().rejected, rejections as u64);
    server.shutdown();
}

/// Shutdown drains: requests accepted before shutdown are all answered,
/// requests after are refused with the typed `ShuttingDown` error.
#[test]
fn shutdown_answers_accepted_requests_then_refuses() {
    let store = Arc::new(random_store(64, 6, 99));
    let server = Server::new(
        Arc::clone(&store),
        ServerConfig {
            // A window far longer than the test: only shutdown's drain can
            // release these requests.
            batch_window: Duration::from_secs(30),
            max_batch: 1_000,
            queue_depth: 1_000,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let query = QueryBuilder::new()
        .aggregate(Aggregate::Tvar { level: 0.9 })
        .build()
        .unwrap();
    let tickets: Vec<Ticket> = (0..8)
        .map(|_| server.submit(query.clone()).expect("admitted"))
        .collect();
    server.shutdown();
    let expected = catrisk_riskquery::execute(&*store, &query).unwrap();
    for ticket in tickets {
        assert_eq!(ticket.wait().expect("drained").result, expected);
    }
    assert!(matches!(
        server.submit(query),
        Err(ServeError::ShuttingDown)
    ));
}

/// Many threads hammering a tiny queue: the sum of successes and typed
/// rejections accounts for every submit — nothing panics, nothing is
/// silently lost.
#[test]
fn hammering_a_tiny_queue_loses_nothing() {
    let store = Arc::new(random_store(48, 8, 123));
    let server = Server::new(
        Arc::clone(&store),
        ServerConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(200),
            queue_depth: 2,
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let queries = random_queries(48, 8, 5);
    let per_thread = 40usize;
    let threads = 8usize;
    let (ok, overloaded) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let server = &server;
                let queries = &queries;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut overloaded = 0u64;
                    for k in 0..per_thread {
                        match server.submit(queries[(t + k) % queries.len()].clone()) {
                            Ok(ticket) => {
                                ticket.wait().expect("accepted => answered");
                                ok += 1;
                            }
                            Err(ServeError::Overloaded { .. }) => overloaded += 1,
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    (ok, overloaded)
                })
            })
            .collect();
        handles.into_iter().fold((0u64, 0u64), |acc, h| {
            let (ok, over) = h.join().unwrap();
            (acc.0 + ok, acc.1 + over)
        })
    });
    assert_eq!(ok + overloaded, (threads * per_thread) as u64);
    assert!(ok > 0, "some requests must get through");
    let stats = server.stats();
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.rejected, overloaded);
}

/// One batch over a segment catalog mixing shard-aligned and unaligned
/// plans, and queries that share a scan spec but differ in aggregates:
/// every reply is bit-equal to `execute`, every touched cell is scanned
/// by exactly one fused scan, and the cell cache holds one entry per
/// (scan spec, cell) — not per query — which later batches prove by
/// hitting it with aggregates the server has never seen.
#[test]
fn mixed_alignment_batch_over_a_segment_catalog_takes_one_grid_path() {
    let trials = 80;
    let store = random_store(trials, 8, 17);
    let paths = write_catalog(&store, ShardAxis::Segment, 2, "serve-mixed");
    let catalog = StoreCatalog::open(&paths).unwrap();
    assert_eq!(catalog.axis(), ShardAxis::Segment);
    let server = Server::new(
        catalog,
        ServerConfig {
            // One worker and a window far wider than a burst of submits:
            // each burst below is exactly one batch.
            batch_window: Duration::from_millis(300),
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let build =
        |builder: QueryBuilder, aggregate: Aggregate| builder.aggregate(aggregate).build().unwrap();
    let by_region = || QueryBuilder::new().group_by(Dimension::Region);
    let by_layer = || QueryBuilder::new().group_by(Dimension::Layer);
    let windowed = || by_region().trials(10..trials / 2).loss_at_least(1.0e5);
    let total = QueryBuilder::new;
    let tvar = Aggregate::Tvar { level: 0.9 };

    // The topology the arithmetic below relies on, from the public
    // planner: grouped plans are aligned, the ungrouped total is not.
    let aligned = |query: &Query| {
        server.provider().with_source(|snapshot| {
            assert_eq!(snapshot.grid.segment_ranges.len(), 2);
            let plan = QueryPlan::new(snapshot.source, query).unwrap();
            split_plan_by_segments(&plan, snapshot.grid.segment_ranges).is_some()
        })
    };
    assert!(aligned(&build(by_region(), Aggregate::Mean)));
    assert!(aligned(&build(by_layer(), Aggregate::Mean)));
    assert!(aligned(&build(windowed(), Aggregate::Mean)));
    assert!(!aligned(&build(total(), Aggregate::Mean)));

    let burst = |queries: Vec<Query>| {
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| server.submit(q.clone()).expect("admitted"))
            .collect();
        for (ticket, query) in tickets.into_iter().zip(&queries) {
            assert_eq!(
                ticket.wait().expect("served").result,
                catrisk_riskquery::execute(&store, query).unwrap(),
                "the grid path diverged from execute for {query:?}"
            );
        }
        server.stats()
    };

    // Burst 1: four scan specs behind six queries.  Aligned specs have
    // two cells each (by_region, by_layer and windowed: 6 pairs), the
    // unaligned total is one cell spanning the union (1 pair).
    let stats = burst(vec![
        build(by_region(), Aggregate::Mean),
        build(by_region(), tvar.clone()),
        build(by_layer(), Aggregate::Mean),
        build(windowed(), Aggregate::Mean),
        build(total(), Aggregate::Mean),
        build(total(), Aggregate::StdDev),
    ]);
    assert_eq!(stats.batches, 1, "{stats:?}");
    assert_eq!(stats.cache_misses, 6, "{stats:?}");
    assert_eq!(
        (stats.partial_hits, stats.partial_misses),
        (0, 7),
        "{stats:?}"
    );
    // Touched cells: each shard over the whole window (shared by
    // by_region and by_layer), each shard over the clipped window, and
    // the spanning cell — one fused scan apiece.
    assert_eq!(stats.fused_partial_scans, 5, "{stats:?}");

    // Burst 2: never-seen aggregates over cached specs.  A cache keyed
    // per query would miss all of these; keyed per (spec, cell) the three
    // aligned specs hit their 6 entries, and only the single-cell total
    // — which is never cell-cached — rescans.
    let stats = burst(vec![
        build(by_region(), Aggregate::StdDev),
        build(by_layer(), tvar.clone()),
        build(windowed(), tvar),
        build(total(), Aggregate::MaxLoss),
    ]);
    assert_eq!(stats.batches, 2, "{stats:?}");
    assert_eq!(stats.cache_misses, 10, "{stats:?}");
    assert_eq!(
        (stats.partial_hits, stats.partial_misses),
        (6, 8),
        "{stats:?}"
    );
    assert_eq!(stats.fused_partial_scans, 6, "{stats:?}");

    server.shutdown();
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}
