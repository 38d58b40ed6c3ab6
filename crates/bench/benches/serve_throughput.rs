//! Serving-throughput gate: the micro-batched server against the
//! one-scan-per-request baseline, at 32 concurrent clients.
//!
//! The baseline models serving without the batching layer: every client
//! request runs its own `execute` — one full scan of the loss columns per
//! request, which is exactly what a naive "thread per request" front-end
//! over the query engine would do.  The server coalesces whatever the 32
//! clients have in flight into batch windows and answers each batch with
//! one fused scan, so the same request stream costs ~`distinct scan
//! specs` scans per window instead of `requests` scans.
//!
//! The gate asserts served replies are bit-identical to direct execution,
//! then prints the measured ratio and enforces the acceptance bar: the
//! batched server must hold >= 2x the baseline's throughput, with
//! telemetry at its serving defaults and again with tracing at
//! sampling=always.  The workload is the CI-sized shape the bar has been
//! gated on since it landed; absolute serving numbers are ledger rows
//! (`serve_qps`, `riskserve.*`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use catrisk_bench::workload::build_store;
use catrisk_eventgen::peril::Peril;
use catrisk_riskquery::prelude::*;
use catrisk_riskserve::{Server, ServerConfig, Ticket};

const CLIENTS: usize = 32;

/// Requests each client fires per timed run.
const REQUESTS_PER_CLIENT: usize = 4;

fn ci_sized_store() -> ResultStore {
    build_store(5_000, 12, 2012, "serve-bench")
}

/// The mixed interactive workload: several distinct scan specs, several
/// metric sets per spec — the request stream the 32 clients cycle
/// through.
fn query_mix() -> Vec<Query> {
    let hu_fl = |b: QueryBuilder| {
        b.with_perils([Peril::Hurricane, Peril::Flood])
            .group_by(Dimension::Region)
    };
    vec![
        hu_fl(QueryBuilder::new())
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap(),
        hu_fl(QueryBuilder::new())
            .aggregate(Aggregate::Var { level: 0.99 })
            .aggregate(Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 10,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::StdDev)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::Pml {
                return_period: 250.0,
                basis: Basis::Oep,
            })
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Region)
            .loss_at_least(1.0e5)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::MaxLoss)
            .aggregate(Aggregate::AttachProb)
            .build()
            .unwrap(),
        QueryBuilder::new()
            .aggregate(Aggregate::Tvar { level: 0.95 })
            .build()
            .unwrap(),
    ]
}

/// 32 clients, each scanning per request — no batching layer.
fn run_baseline(store: &ResultStore, mix: &[Query], per_client: usize) {
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let mix = &mix;
            scope.spawn(move || {
                for k in 0..per_client {
                    let query = &mix[(client + k) % mix.len()];
                    black_box(execute(store, query).expect("baseline query"));
                }
            });
        }
    });
}

/// 32 clients submitting to the shared micro-batching server.
fn run_batched(server: &Server<Arc<ResultStore>>, mix: &[Query], per_client: usize) {
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let mix = &mix;
            scope.spawn(move || {
                // Keep one request in flight per client, like a TCP
                // connection handler does.
                for k in 0..per_client {
                    let query = mix[(client + k) % mix.len()].clone();
                    let ticket: Ticket = server.submit(query).expect("admitted");
                    black_box(ticket.wait().expect("served"));
                }
            });
        }
    });
}

fn serving_config() -> ServerConfig {
    ServerConfig {
        max_batch: 64,
        batch_window: Duration::from_micros(500),
        queue_depth: 4096,
        workers: 2,
        // Both caches are disabled so the gate keeps measuring the
        // *batching* speedup alone.
        cache_capacity: 0,
        partial_cache_capacity: 0,
        // Telemetry stays at its serving defaults: the speedup bar below
        // is also the regression gate proving the stage histograms and
        // recorder don't tax the hot path.
        ..ServerConfig::default()
    }
}

/// The serving config with tracing at sampling=always: every request
/// builds its span tree and stamps exemplars.  The speedup bar gates the
/// full tracing cost, not just the off-by-default branch.
fn traced_config() -> ServerConfig {
    ServerConfig {
        trace_sample_every: 1,
        ..serving_config()
    }
}

/// Prints the measured speedup (the acceptance number) and verifies the
/// served results are bit-identical to direct execution.
fn serve_speedup() {
    let store = Arc::new(ci_sized_store());
    let mix = query_mix();
    let server = Server::new(Arc::clone(&store), serving_config());

    // Equivalence: a served reply matches a direct scan, bit for bit.
    for query in &mix {
        let served = server.query(query.clone()).expect("served").result;
        let direct = execute(&*store, query).expect("direct");
        assert_eq!(served, direct, "served must be bit-identical to direct");
    }

    // Warm both paths once, then take the best of several runs each.
    run_baseline(&store, &mix, 2);
    run_batched(&server, &mix, 2);
    let samples = 5;
    let baseline_secs = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run_baseline(&store, &mix, REQUESTS_PER_CLIENT);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let batched_secs = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run_batched(&server, &mix, REQUESTS_PER_CLIENT);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let requests = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let speedup = baseline_secs / batched_secs;
    println!(
        "serve_speedup: {requests:.0} requests from {CLIENTS} clients: \
         baseline {:.0} req/s, batched {:.0} req/s, speedup {speedup:.2}x \
         (stats: {:?})",
        requests / baseline_secs,
        requests / batched_secs,
        server.stats()
    );
    assert!(
        speedup >= 2.0,
        "micro-batched serving must be >= 2x the scan-per-request baseline, got {speedup:.2}x"
    );
    server.shutdown();

    // The same bar with tracing at sampling=always: span trees and
    // exemplars must not eat the batching speedup.
    let traced_server = Server::new(Arc::clone(&store), traced_config());
    run_batched(&traced_server, &mix, 2);
    let traced_secs = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run_batched(&traced_server, &mix, REQUESTS_PER_CLIENT);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let traced_speedup = baseline_secs / traced_secs;
    let traced_stats = traced_server.stats();
    println!(
        "serve_speedup (traced, sampling=always): {:.0} req/s, speedup {traced_speedup:.2}x, \
         {} traces started",
        requests / traced_secs,
        traced_stats.traces_started
    );
    assert_eq!(
        traced_stats.traces_started, traced_stats.submitted,
        "sampling=always must trace every request"
    );
    assert!(
        traced_speedup >= 2.0,
        "tracing at sampling=always must keep the >= 2x bar, got {traced_speedup:.2}x"
    );
    traced_server.shutdown();
}

fn main() {
    serve_speedup();
}
