//! Fused multi-query partial scans: one shard-window walk for the whole
//! batch vs one walk per query.
//!
//! The workload is the tentpole's acceptance shape: 50 distinct queries
//! (10 unique plans × 5 aggregate variants) over a 4-window trial-axis
//! catalog.  The per-query path scans `queries × windows = 200` times;
//! the grid executor dedups the batch to its 10 scan specs, groups their
//! missing cells by `(segment range, clipped window)` and scans each
//! window **once**, so the served batch performs at most 8 cell scans
//! (4 per batch, tolerating one batch split).  The
//! `fused_equivalence` target asserts bit-identity first — every fused
//! partial equals its lone per-query scan and every stitched result
//! equals the in-memory session — then gates the fused path at ≥3× the
//! per-query throughput and pins the `fused_partial_scans` counter.
//! Absolute fused-scan cost is the ledger's `riskquery.session_fused_ms`
//! / `partial_scan_ms` / `combine_ms`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use catrisk_bench::workload::build_store;
use catrisk_riskquery::prelude::*;
use catrisk_riskquery::{
    combine_trial_partial_refs, group_by_key, scan_trial_partial, scan_trial_partials_fused,
    QueryPlan, TrialPartial,
};
use catrisk_riskserve::{Server, ServerConfig, ShardAxis, StoreCatalog};
use catrisk_riskstore::{StoreOptions, StoreWriter};

const TRIALS: usize = 4_000;

/// 50 distinct full-axis queries that dedup to 10 unique plans: five
/// grouping shapes × (no clip | a per-shape loss threshold), each asked
/// with five different aggregate sets.  This is the dashboard-fleet
/// shape the fusion exists for — many queries, few distinct scans.
fn query_fleet(count: usize) -> Vec<Query> {
    let dims = [
        None,
        Some(Dimension::Region),
        Some(Dimension::Peril),
        Some(Dimension::Lob),
        Some(Dimension::Layer),
    ];
    (0..count)
        .map(|index| {
            let mut builder = QueryBuilder::new();
            if let Some(dim) = dims[index % dims.len()] {
                builder = builder.group_by(dim);
            }
            let shape = index % 10;
            if shape >= 5 {
                builder = builder.loss_at_least(1.0e5 * (shape - 4) as f64);
            }
            let builder = match index / 10 {
                0 => builder.aggregate(Aggregate::Mean),
                1 => builder.aggregate(Aggregate::Tvar { level: 0.99 }),
                2 => builder.aggregate(Aggregate::Var { level: 0.99 }),
                3 => builder
                    .aggregate(Aggregate::MaxLoss)
                    .aggregate(Aggregate::AttachProb),
                _ => builder.aggregate(Aggregate::EpCurve {
                    basis: Basis::Aep,
                    points: 8,
                }),
            };
            builder.build().expect("query")
        })
        .collect()
}

/// Equal trial cuts: the 4 windows the catalog shards the axis into.
fn window_cuts(trials: usize, windows: usize) -> Vec<(usize, usize)> {
    let per_window = trials / windows;
    let extra = trials % windows;
    let mut cuts = Vec::with_capacity(windows);
    let mut start = 0usize;
    for window in 0..windows {
        let end = start + per_window + usize::from(window < extra);
        cuts.push((start, end));
        start = end;
    }
    cuts
}

/// Cuts the base store into `windows` trial shard files and opens them
/// as a trial-axis catalog.
fn write_trial_catalog(
    base: &ResultStore,
    windows: usize,
    tag: &str,
) -> (Vec<PathBuf>, StoreCatalog) {
    let mut paths = Vec::new();
    for (window, &(start, end)) in window_cuts(base.num_trials(), windows).iter().enumerate() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-fused-bench-{}-{tag}-{windows}-{window}.clm",
            std::process::id()
        ));
        let mut writer = StoreWriter::create_with(
            &path,
            end - start,
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
    }
    let catalog = StoreCatalog::open(&paths).expect("open trial catalog");
    assert_eq!(catalog.axis(), ShardAxis::Trial);
    (paths, catalog)
}

fn remove(paths: &[PathBuf]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// All 50 queries' partials for every window through the fused scan:
/// 4 walks total, over the 10 plans the queries' scan specs dedup to
/// (`group_by_key`, the serving executor's one dedup rule), fanned back
/// out per query.
fn fused_partials(
    store: &ResultStore,
    queries: &[Query],
    plans: &[QueryPlan],
    cuts: &[(usize, usize)],
) -> Vec<Vec<TrialPartial>> {
    let specs = group_by_key(
        queries
            .iter()
            .enumerate()
            .map(|(index, query)| (query.scan_spec(), index)),
    );
    let unique: Vec<&QueryPlan> = specs
        .iter()
        .map(|(_, members)| &plans[members[0]])
        .collect();
    let mut parts: Vec<Vec<TrialPartial>> = (0..plans.len()).map(|_| Vec::new()).collect();
    for &(start, end) in cuts {
        let scanned = scan_trial_partials_fused(store, &unique, start, end);
        for ((_, members), partial) in specs.iter().zip(scanned) {
            for &member in members {
                parts[member].push(partial.clone());
            }
        }
    }
    parts
}

/// The same partials through the lone per-query scan: `plans × windows`
/// walks.
fn solo_partials(
    store: &ResultStore,
    plans: &[QueryPlan],
    cuts: &[(usize, usize)],
) -> Vec<Vec<TrialPartial>> {
    plans
        .iter()
        .map(|plan| {
            cuts.iter()
                .map(|&(start, end)| scan_trial_partial(store, plan, start, end))
                .collect()
        })
        .collect()
}

/// Prints the acceptance numbers and pins the contracts: bit-identity
/// first (fused ≡ per-query ≡ the in-memory session), then the ≥3×
/// throughput gate, then the served batch's ≤8 shard scans for the
/// 50 × 4 workload.
fn fused_equivalence() {
    let base = Arc::new(build_store(TRIALS, 8, 2012, "fused-partials-bench"));
    let queries = query_fleet(50);
    let expected = QuerySession::new(&*base).run(&queries).expect("reference");
    let plans: Vec<QueryPlan> = queries
        .iter()
        .map(|query| QueryPlan::new(&*base, query).expect("plan"))
        .collect();
    let cuts = window_cuts(base.num_trials(), 4);

    // Bit-equality is asserted before any throughput claim.  The gate
    // compares each path's best of three runs, so a noisy-neighbour
    // stall on CI cannot fake (or hide) a regression.
    let mut fused = Vec::new();
    let mut fused_elapsed = Duration::MAX;
    let mut solo = Vec::new();
    let mut solo_elapsed = Duration::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        fused = fused_partials(&base, &queries, &plans, &cuts);
        fused_elapsed = fused_elapsed.min(started.elapsed());
        let started = Instant::now();
        solo = solo_partials(&base, &plans, &cuts);
        solo_elapsed = solo_elapsed.min(started.elapsed());
    }
    assert_eq!(
        fused, solo,
        "fused partials must be bit-identical to the per-query scans"
    );
    for ((query, parts), expected) in queries.iter().zip(&fused).zip(&expected) {
        let refs: Vec<&TrialPartial> = parts.iter().collect();
        assert_eq!(
            &combine_trial_partial_refs(query, &refs).expect("stitch"),
            expected,
            "stitched fused partials must match the in-memory session"
        );
    }
    let speedup = solo_elapsed.as_secs_f64() / fused_elapsed.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 3.0,
        "fused scan must be >=3x the per-query path, got {speedup:.2}x \
         (fused {fused_elapsed:?} vs per-query {solo_elapsed:?})"
    );

    // The served batch: 50 queries, 4 windows, at most 8 shard scans
    // (one per window per batch, tolerating one batch split).
    let (paths, catalog) = write_trial_catalog(&base, 4, "serve");
    let server = Server::new(
        catalog,
        ServerConfig {
            max_batch: 64,
            batch_window: Duration::from_millis(50),
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let tickets: Vec<_> = queries
        .iter()
        .map(|query| server.submit(query.clone()).expect("admitted"))
        .collect();
    for (ticket, expected) in tickets.into_iter().zip(&expected) {
        assert_eq!(
            &ticket.wait().expect("served").result,
            expected,
            "served fused batch diverged from the in-memory session"
        );
    }
    let stats = server.stats();
    // One worker: a spec's cells are published before any later batch
    // probes them, so each (scan spec, window) cell misses exactly once
    // however the 50 queries split into batches.
    let specs = group_by_key(queries.iter().map(|query| (query.scan_spec(), ()))).len();
    assert_eq!(
        stats.partial_misses,
        (specs * cuts.len()) as u64,
        "every (scan spec, window) cell misses cold, once: {stats:?}"
    );
    assert!(
        stats.fused_partial_scans <= 8,
        "50 queries x 4 windows must fuse to at most 8 shard scans: {stats:?}"
    );
    println!(
        "fused_equivalence: {} queries x {} windows bit-identical; \
         {} fused shard scans answered {} partial misses; \
         fused scan {:.1}x the per-query path ({:?} vs {:?})",
        queries.len(),
        cuts.len(),
        stats.fused_partial_scans,
        stats.partial_misses,
        speedup,
        fused_elapsed,
        solo_elapsed
    );
    server.shutdown();
    remove(&paths);
}

fn main() {
    fused_equivalence();
}
