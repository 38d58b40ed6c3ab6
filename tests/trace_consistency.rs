//! Request-trace consistency: the span-tree execution profiles must
//! agree *exactly* with the timings, counters and histograms built from
//! the same clock reads.
//!
//! The invariants are structural, not statistical:
//!
//! * `trace.total_micros == queue_micros + exec_micros` for every traced
//!   reply — the trace is assembled from the identical `u64`s that fill
//!   the reply's `RequestTimings`, so the equality is exact, never
//!   approximate;
//! * with sampling set to "always" (`trace_sample_every = 1`),
//!   `traces_started == submitted` — the sampling decision rides the
//!   admission critical section;
//! * a traced request's `scan_shard` span count equals the server's
//!   `partial_misses` delta across that request — on a flat store, a
//!   segment catalog and a trial catalog alike;
//! * child span durations never sum past their parent, recursively, and
//!   every child interval nests inside its parent's;
//! * every nonzero histogram exemplar id resolves to a retained-or-
//!   evicted trace, never to an id the store never issued.

use std::sync::Arc;
use std::time::Duration;

use catrisk_riskquery::prelude::*;
use catrisk_riskserve::test_store::{random_store, write_catalog};
use catrisk_riskserve::{
    Server, ServerConfig, ShardAxis, SourceProvider, StoreCatalog, Ticket, TraceLookup, TraceSpan,
};

/// Four distinct query shapes — each a separate result-cache entry.
fn query_shapes() -> Vec<Query> {
    [
        QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .group_by(Dimension::Region),
        QueryBuilder::new()
            .aggregate(Aggregate::Tvar { level: 0.95 })
            .group_by(Dimension::Lob),
        QueryBuilder::new().aggregate(Aggregate::MaxLoss),
        QueryBuilder::new()
            .aggregate(Aggregate::StdDev)
            .group_by(Dimension::Peril),
    ]
    .into_iter()
    .map(|b| b.build().unwrap())
    .collect()
}

/// Asserts, recursively, that `span`'s children sum to no more than the
/// span itself and that every child interval nests inside the parent's.
fn assert_tree_arithmetic(span: &TraceSpan) {
    let child_sum: u64 = span.children.iter().map(|c| c.micros).sum();
    assert!(
        child_sum <= span.micros,
        "children of `{}` sum to {child_sum}us > parent {}us",
        span.name,
        span.micros
    );
    for child in &span.children {
        assert!(
            child.start_micros >= span.start_micros
                && child.start_micros + child.micros <= span.start_micros + span.micros,
            "child `{}` [{}..{}] escapes parent `{}` [{}..{}]",
            child.name,
            child.start_micros,
            child.start_micros + child.micros,
            span.name,
            span.start_micros,
            span.start_micros + span.micros
        );
        assert_tree_arithmetic(child);
    }
}

#[test]
fn trace_totals_match_reply_timings_exactly() {
    let store = Arc::new(random_store(96, 8, 42));
    let server = Server::new(
        Arc::clone(&store),
        ServerConfig {
            batch_window: Duration::from_micros(200),
            trace_sample_every: 1,
            ..ServerConfig::default()
        },
    );
    let queries = query_shapes();
    for _ in 0..3 {
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| server.submit(q.clone()).expect("admitted"))
            .collect();
        for ticket in tickets {
            let reply = ticket.wait().expect("answered");
            let trace = reply.trace.expect("sampling=always traces everything");
            // THE contract: the trace totals the same u64s the timings
            // carry — equality is exact because they share clock reads.
            assert_eq!(
                trace.total_micros,
                reply.timings.queue_micros + reply.timings.exec_micros,
                "trace {} disagrees with its own reply's timings",
                trace.id
            );
            assert_eq!(trace.root.name, "request");
            assert_eq!(trace.root.micros, trace.total_micros);
            // The first level re-states the timings verbatim.
            let queue = trace.root.find("queue").expect("queue span");
            assert_eq!(queue.micros, reply.timings.queue_micros);
            let exec = trace.root.find("exec").expect("exec span");
            assert_eq!(exec.micros, reply.timings.exec_micros);
            assert_tree_arithmetic(&trace.root);
        }
    }

    let stats = server.stats();
    assert_eq!(
        stats.traces_started, stats.submitted,
        "sampling=always must trace every admitted request: {stats:?}"
    );
    assert!(stats.traces_retained > 0);

    // Every nonzero exemplar stamped into the stage histograms resolves
    // to a trace the store actually issued — retained or evicted, never
    // unknown.
    let metrics = server.metrics();
    let mut exemplars = 0;
    for (name, histogram) in &metrics.histograms {
        for &(_, id) in &histogram.exemplars {
            exemplars += 1;
            assert_ne!(
                server.trace(id),
                TraceLookup::Unknown,
                "histogram `{name}` carries exemplar id {id} that was never issued"
            );
        }
    }
    assert!(exemplars > 0, "traced load must stamp exemplars");
    server.shutdown();
}

/// One request at a time through `provider`, so the stats delta around
/// each query is attributable to exactly that request's trace: its
/// `scan_shard` span count must equal the `partial_misses` delta — on
/// every topology, since every miss takes the one grid path.
fn assert_scan_shard_spans_match_partial_misses<P: SourceProvider>(provider: P) {
    let server = Server::new(
        provider,
        ServerConfig {
            trace_sample_every: 1,
            ..ServerConfig::default()
        },
    );
    let mut saw_rescans = false;
    for round in 0..2 {
        for query in query_shapes() {
            let before = server.stats();
            let reply = server.query(query).expect("answered");
            let after = server.stats();
            let trace = reply.trace.expect("sampling=always");
            let rescans = trace.root.count_named("scan_shard") as u64;
            assert_eq!(
                rescans,
                after.partial_misses - before.partial_misses,
                "round {round}: trace {} claims {rescans} cell rescans, \
                 counters moved by {}",
                trace.id,
                after.partial_misses - before.partial_misses
            );
            saw_rescans |= rescans > 0;
            if rescans > 0 {
                // A rescanning trace also records the stitch that
                // recombined the cells, and attributes its scan.
                assert_eq!(trace.root.count_named("stitch"), 1);
                let scan = trace.root.find("scan").expect("scan span");
                assert!(scan.attrs.iter().any(|(k, _)| k == "segments"));
            }
            assert_tree_arithmetic(&trace.root);
        }
    }
    assert!(saw_rescans, "first-round queries must rescan their cells");

    let stats = server.stats();
    assert_eq!(stats.traces_started, stats.submitted, "{stats:?}");
    server.shutdown();
}

#[test]
fn scan_shard_span_count_matches_partial_miss_delta_on_a_flat_store() {
    assert_scan_shard_spans_match_partial_misses(Arc::new(random_store(64, 8, 31)));
}

/// The same contract over two shard files cut from one store along
/// `axis`.
fn assert_scan_shard_spans_on_catalog(axis: ShardAxis, tag: &str) {
    let paths = write_catalog(&random_store(64, 8, 31), axis, 2, tag);
    let catalog = StoreCatalog::open(&paths).unwrap();
    assert_eq!(catalog.axis(), axis);
    assert_scan_shard_spans_match_partial_misses(catalog);
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn scan_shard_span_count_matches_partial_miss_delta_on_a_segment_catalog() {
    assert_scan_shard_spans_on_catalog(ShardAxis::Segment, "trace-segment");
}

#[test]
fn scan_shard_span_count_matches_partial_miss_delta_on_a_trial_catalog() {
    assert_scan_shard_spans_on_catalog(ShardAxis::Trial, "trace-trial");
}

#[test]
fn forced_traces_work_with_sampling_off_and_zero_capacity() {
    let store = Arc::new(random_store(48, 4, 7));
    // Sampling off, retention off: a forced trace still rides its reply
    // inline; lookups answer `evicted`, never `unknown`, for issued ids.
    let server = Server::new(
        Arc::clone(&store),
        ServerConfig {
            trace_sample_every: 0,
            trace_capacity: 0,
            ..ServerConfig::default()
        },
    );
    let query = query_shapes().remove(0);

    let plain = server.query(query.clone()).expect("answered");
    assert!(plain.trace.is_none(), "sampling off: no trace unasked");

    let reply = server
        .submit_traced(query)
        .expect("admitted")
        .wait()
        .expect("answered");
    let trace = reply.trace.expect("forced trace rides the reply");
    assert_eq!(
        trace.total_micros,
        reply.timings.queue_micros + reply.timings.exec_micros
    );
    assert_eq!(server.trace(trace.id), TraceLookup::Evicted);
    assert_eq!(server.trace(trace.id + 1000), TraceLookup::Unknown);
    assert!(server.slowest_traces(5).is_empty());

    let stats = server.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.traces_started, 1, "only the forced submit traced");
    assert_eq!(stats.traces_retained, 0);
    server.shutdown();
}
