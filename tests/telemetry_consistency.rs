//! Telemetry consistency: the stage histograms exposed over `metrics`
//! must agree *exactly* with the serving counters exposed over `stats`.
//!
//! The invariants are structural, not statistical — each one holds
//! because the instrumentation records exactly one sample per unit of
//! work the corresponding counter counts — and since every result-cache
//! miss takes the one grid path, each holds on **every topology** (flat
//! store, segment catalog, trial catalog), which is how they are
//! asserted here (OBSERVABILITY.md §3.1):
//!
//! * `stage_queue_micros.count == completed + failed` (one queue-wait
//!   sample per answered request);
//! * `stage_scan_micros.count == cache_misses` (one scan sample per
//!   result-cache miss — hits never scan);
//! * `partial_hits + partial_misses` == the (missing scan spec, cell)
//!   pairs the batches planned (each pair is probed exactly once);
//! * `stage_scan_shard_micros.count == fused_partial_scans <=
//!   partial_misses` (one sample per fused cell scan, each covering at
//!   least one missing pair);
//! * `stage_stitch_micros.count` == the answered misses;
//! * `batch_exec_micros.count == batches`,
//!   `stage_admission_micros.count == submitted`.
//!
//! If an instrumentation refactor ever samples twice, skips an error
//! path, or counts a unit the stats layer does not, these equalities
//! break immediately.

use std::sync::Arc;
use std::time::Duration;

use catrisk_riskquery::prelude::*;
use catrisk_riskquery::{plan_cells, QueryPlan};
use catrisk_riskserve::telemetry::stage;
use catrisk_riskserve::test_store::{random_store, write_catalog};
use catrisk_riskserve::{Server, ServerConfig, ShardAxis, SourceProvider, StoreCatalog, Ticket};

/// Four distinct scan specs, each asked with `aggregate`: a separate
/// result-cache entry per (spec, aggregate), one set of cells per spec.
fn query_shapes(aggregate: Aggregate) -> Vec<Query> {
    [
        QueryBuilder::new().group_by(Dimension::Region),
        QueryBuilder::new().group_by(Dimension::Lob),
        QueryBuilder::new(),
        QueryBuilder::new().group_by(Dimension::Peril),
    ]
    .into_iter()
    .map(|b| b.aggregate(aggregate.clone()).build().unwrap())
    .collect()
}

/// Submits every query, waits for all replies, and returns how many were
/// answered successfully.  Waiting between calls puts successive rounds
/// in separate batches, so repeats hit the result cache.
fn drive(server: &Server<impl SourceProvider>, queries: &[Query]) -> u64 {
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| server.submit(q.clone()).expect("admitted"))
        .collect();
    let mut answered = 0;
    for ticket in tickets {
        ticket.wait().expect("answered");
        answered += 1;
    }
    answered
}

/// Drives `provider` through cold misses, result-cache hits, and misses
/// that share the earlier scan specs, then asserts every §3.1 count
/// contract.  `multi_cell` says whether the topology cuts plans into
/// more than one cell (so the cell cache is in play).
fn assert_count_contracts<P: SourceProvider>(provider: P, multi_cell: bool) {
    let server = Server::new(
        provider,
        ServerConfig {
            batch_window: Duration::from_micros(200),
            recorder_capacity: 64,
            ..ServerConfig::default()
        },
    );
    let cold = query_shapes(Aggregate::Mean);
    let mut answered = 0;
    for _ in 0..3 {
        answered += drive(&server, &cold);
    }
    // Same four specs, new aggregates: result-cache misses whose cells
    // are already cached wherever cells are cached at all.
    let warm = query_shapes(Aggregate::Tvar { level: 0.95 });
    answered += drive(&server, &warm);
    assert_eq!(answered, 4 * cold.len() as u64);

    // The (spec, cell) pairs the two missing rounds planned, from the
    // public planner over the server's own snapshot.
    let planned_pairs: u64 = server.provider().with_source(|snapshot| {
        let cells = |query: &Query| {
            let plan = QueryPlan::new(snapshot.source, query).expect("plan");
            plan_cells(&plan, snapshot.grid, snapshot.source.num_segments())
                .0
                .len() as u64
        };
        cold.iter().chain(&warm).map(cells).sum()
    });

    let stats = server.stats();
    let metrics = server.metrics();
    let count = |name: &str| metrics.histogram(name).expect(name).count;

    assert_eq!(
        count(stage::QUEUE),
        stats.completed + stats.failed,
        "one queue sample per answered request: {stats:?}"
    );
    assert_eq!(stats.cache_misses, 2 * cold.len() as u64, "{stats:?}");
    assert!(stats.cache_hits > 0, "the repeated shapes must hit");
    assert_eq!(
        count(stage::SCAN),
        stats.cache_misses,
        "one scan sample per result-cache miss: {stats:?}"
    );
    assert_eq!(
        stats.partial_hits + stats.partial_misses,
        planned_pairs,
        "every (missing scan spec, cell) pair is one hit or one miss: {stats:?}"
    );
    if multi_cell {
        assert!(planned_pairs > 2 * cold.len() as u64, "{planned_pairs}");
        assert!(
            stats.partial_hits > 0,
            "shared specs must reuse cells: {stats:?}"
        );
    } else {
        assert_eq!(
            stats.partial_hits, 0,
            "single-cell plans skip the cell cache"
        );
        assert_eq!(stats.partial_misses, stats.cache_misses, "{stats:?}");
    }
    assert_eq!(
        count(stage::SCAN_SHARD),
        stats.fused_partial_scans,
        "one cell-scan sample per fused scan: {stats:?}"
    );
    assert!(
        stats.fused_partial_scans > 0 && stats.fused_partial_scans <= stats.partial_misses,
        "a fused scan covers at least one missing (spec, cell) pair: {stats:?}"
    );
    assert_eq!(
        count(stage::STITCH),
        stats.cache_misses,
        "one stitch sample per answered miss: {stats:?}"
    );
    assert_eq!(
        count(stage::BATCH_EXEC),
        stats.batches,
        "one sample per batch"
    );
    assert_eq!(
        count(stage::ADMISSION),
        stats.submitted,
        "one admission sample per submit"
    );

    // Counter exposition mirrors the stats snapshot (same atomics).
    assert_eq!(metrics.counter("completed"), Some(stats.completed));
    assert_eq!(metrics.counter("cache_misses"), Some(stats.cache_misses));
    assert_eq!(metrics.counter("batches"), Some(stats.batches));
    assert_eq!(
        metrics.gauge("largest_batch").map(|v| v.max(0) as u64),
        Some(stats.largest_batch)
    );

    // Percentile sanity on a live histogram.
    let queue = metrics.histogram(stage::QUEUE).expect("queue histogram");
    assert!(queue.percentile(50.0) <= queue.percentile(99.0));
    assert!(queue.percentile(99.0) <= queue.max);

    // The Prometheus rendering exposes every stage by its documented name.
    let text = metrics.to_prometheus();
    for name in [stage::QUEUE, stage::SCAN, stage::BATCH_EXEC, "completed"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }

    // The flight recorder saw the batches.
    let events = server.recorder_dump();
    assert!(
        events.iter().any(|e| e.kind == "batch"),
        "no batch event in {events:?}"
    );
    server.shutdown();
}

#[test]
fn count_contracts_hold_on_a_flat_store() {
    assert_count_contracts(Arc::new(random_store(96, 8, 42)), false);
}

/// The same contracts over a catalog of two shard files cut from one
/// store along `axis`.
fn assert_count_contracts_on_catalog(axis: ShardAxis, tag: &str) {
    let paths = write_catalog(&random_store(64, 8, 31), axis, 2, tag);
    let catalog = StoreCatalog::open(&paths).unwrap();
    assert_eq!(catalog.axis(), axis);
    assert_count_contracts(catalog, true);
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn count_contracts_hold_on_a_segment_catalog() {
    assert_count_contracts_on_catalog(ShardAxis::Segment, "telemetry-segment");
}

#[test]
fn count_contracts_hold_on_a_trial_catalog() {
    assert_count_contracts_on_catalog(ShardAxis::Trial, "telemetry-trial");
}
