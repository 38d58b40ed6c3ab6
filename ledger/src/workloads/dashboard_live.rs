//! `dashboard_live` — the same `riskquery` / `riskstore` code as
//! `analyst_scan` used the opposite way: a dashboard re-asking 48 panels in
//! bursts of 32 against a 4-shard trial-axis catalog while the driver itself
//! commits a new layer every 128th burst.  Micro-batching, dedup, the result
//! and partial caches and the refresh probes do the work, the scan almost
//! none.  A second, traced-only leg puts the same server behind TCP.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::prelude::*;
use catrisk_riskquery::{combine_trial_partial_refs, scan_trial_partials_fused, QueryPlan};
use catrisk_riskserve::{
    loadgen, parse_request, LoadgenOptions, Request, Server, ServerConfig, SourceProvider,
    StoreCatalog, TcpFrontEnd,
};
use catrisk_riskstore::{StoreReader, StoreWriter};
use catrisk_simkit::rng::{RngFactory, SimRng};

use crate::harness::{fresh_dir, nproc, timed, Ctx, OpLog, Samples, Scale};
use crate::stores::{dashboard_queries, loss_columns, same_result, windows, write_catalog, Zipf};
use crate::workloads::{server_config, set_stage_metrics};

/// Tickets in flight per burst.
const BURST: usize = 32;
/// A commit precedes every this-many-th burst.  After a commit the 48
/// panels are recomputed as the Zipf draws reach them, which takes ~30
/// bursts; at 128 three quarters of the requests ride pure cache-hit
/// bursts, so the median is the cached path and the tail (p99.9, inside the
/// first post-commit burst's 0.8 %) is the refresh + rescan + stitch path —
/// neither sits on the boundary between the two.
const COMMIT_EVERY: usize = 128;

struct World {
    dir: PathBuf,
    paths: Vec<PathBuf>,
    panels: Vec<Query>,
    /// One fresh layer's columns per shard window, reused for every commit
    /// (each commit still carries a never-seen layer id).
    fresh: Vec<(Vec<f64>, Vec<f64>)>,
}

fn build(seed: u64, scale: Scale) -> World {
    let dir = fresh_dir("dashboard");
    let trials = scale.pick(40_000, 4_000);
    let paths = write_catalog(&dir, trials, 4, scale.pick(64, 16), seed);
    let factory = RngFactory::new(seed).derive("ledger-dashboard-fresh");
    let fresh = windows(trials, 4)
        .into_iter()
        .enumerate()
        .map(|(shard, (start, end))| loss_columns(&mut factory.stream(shard as u64), end - start))
        .collect();
    World {
        dir,
        paths,
        panels: dashboard_queries(),
        fresh,
    }
}

fn open_server(world: &World, config: ServerConfig) -> Server<StoreCatalog> {
    let catalog = StoreCatalog::open(&world.paths).expect("open the dashboard catalog");
    catalog.set_refresh_interval(Duration::ZERO);
    Server::new(catalog, config)
}

/// The ingest side, played by the driver so that commits land at the same
/// point of the request stream in every run.
struct Ingest {
    writers: Vec<StoreWriter>,
    commits: u64,
}

impl Ingest {
    fn open(world: &World) -> Self {
        Self {
            writers: world
                .paths
                .iter()
                .map(|p| StoreWriter::open_append(p).expect("append to a shard"))
                .collect(),
            commits: 0,
        }
    }

    /// Appends and commits one layer to the next shard round-robin.
    /// Returns true when this commit completes a layer across all shards,
    /// i.e. the catalog must serve it from now on.
    fn commit_next(&mut self, ctx: &mut Ctx, world: &World) -> bool {
        let rec = ctx.rec.clone();
        let shard = (self.commits % 4) as usize;
        let meta = SegmentMeta::new(
            LayerId(1_000_000 + (self.commits / 4) as u32),
            Peril::WinterStorm,
            Region::Europe,
            LineOfBusiness::Property,
        );
        let (year, occ) = &world.fresh[shard];
        let writer = &mut self.writers[shard];
        let appended = rec.span("riskstore", "append_segment", self.commits, || {
            writer.append_segment(meta, year, occ)
        });
        let committed = rec.span("riskstore", "commit", self.commits, || writer.commit());
        ctx.check(
            appended.is_ok() && committed.is_ok(),
            "the driver's append + commit must succeed",
        );
        self.commits += 1;
        self.commits.is_multiple_of(4)
    }
}

#[derive(Default)]
struct LoopStats {
    requests: OpLog,
    submit_s: Samples,
    commit_visible_s: Samples,
    bursts: u64,
    commits: u64,
}

/// Closed-loop bursts until `seconds` have passed.  Ticket 0 of every
/// burst is the headline panel; the other 31 are Zipf draws, so a burst
/// carries duplicates.  With `ingest`, a commit precedes burst 0 and every
/// 128th after it.
fn burst_loop(
    ctx: &mut Ctx,
    world: &World,
    server: &Server<StoreCatalog>,
    mut ingest: Option<&mut Ingest>,
    rng: &mut SimRng,
    seconds: f64,
) -> LoopStats {
    let rec = ctx.rec.clone();
    let zipf = Zipf::new(world.panels.len());
    let mut stats = LoopStats::default();
    let mut headline: Option<QueryResult> = None;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        // `Some(true)`: a layer just became complete and must show up;
        // `Some(false)`: a partial layer must stay invisible.
        let mut committed: Option<(bool, Instant)> = None;
        if let Some(ingest) = ingest.as_deref_mut() {
            if stats.bursts % COMMIT_EVERY as u64 == 0 {
                // The workload's period is a round of four commits, one per
                // shard: the fourth completes a layer, every shard's visible
                // prefix grows and all four rescan, so that cycle is heavier.
                if stats.commits > 0 && stats.commits % 4 == 0 {
                    stats.requests.end_period();
                }
                let visible = ingest.commit_next(ctx, world);
                committed = Some((visible, Instant::now()));
                stats.commits += 1;
            }
        }

        let op = stats.bursts;
        let burst = rec.enter("riskserve", "burst", op);
        let mut tickets = Vec::with_capacity(BURST);
        for slot in 0..BURST {
            let panel = if slot == 0 { 0 } else { zipf.draw(rng) };
            let query = world.panels[panel].clone();
            let sent = Instant::now();
            let sent_ns = rec.now_ns();
            let (ticket, secs) =
                rec.span("riskserve", "submit", op, || timed(|| server.submit(query)));
            stats.submit_s.push(secs);
            tickets.push((ticket, sent, sent_ns));
        }
        let waiting = rec.enter("riskserve", "wait", op);
        for (slot, (ticket, sent, sent_ns)) in tickets.into_iter().enumerate() {
            let reply = ticket.and_then(|t| t.wait());
            let latency = sent.elapsed().as_secs_f64();
            stats
                .requests
                .push(started.elapsed().as_secs_f64(), latency);
            match reply {
                Ok(reply) => {
                    ctx.attempt(1);
                    // In-flight requests overlap: recorded for the trace,
                    // left out of the self-time partition.
                    let request = rec.attach(
                        burst,
                        "riskserve",
                        "request",
                        op,
                        sent_ns,
                        (latency * 1e9) as u64,
                        true,
                    );
                    let queued = reply.timings.queue_micros * 1_000;
                    let exec = reply.timings.exec_micros * 1_000;
                    let queue =
                        rec.attach(request, "riskserve", "queue", op, sent_ns, queued, true);
                    rec.attach(
                        request,
                        "riskserve",
                        "exec",
                        op,
                        rec.end_of(queue),
                        exec,
                        true,
                    );
                    if slot == 0 {
                        check_headline(ctx, &mut headline, reply.result, committed, &mut stats);
                    }
                }
                Err(err) => ctx.check(false, &format!("dashboard request failed: {err}")),
            }
        }
        rec.exit(waiting);
        rec.exit(burst);
        stats.bursts += 1;
    }
    stats
}

/// The headline panel (unfiltered mean / TVaR) must move exactly when a
/// layer becomes complete across all four shards.
fn check_headline(
    ctx: &mut Ctx,
    headline: &mut Option<QueryResult>,
    now: QueryResult,
    committed: Option<(bool, Instant)>,
    stats: &mut LoopStats,
) {
    if let Some(before) = headline.as_ref() {
        match committed {
            Some((true, at)) => {
                stats.commit_visible_s.push(at.elapsed().as_secs_f64());
                ctx.check(
                    !same_result(before, &now),
                    "a layer committed to every shard must appear in the next burst",
                );
            }
            _ => ctx.check(
                same_result(before, &now),
                "the headline must not move without a complete new layer",
            ),
        }
    }
    *headline = Some(now);
}

/// Final replies against `execute` on a freshly opened catalog, and the
/// server's own bookkeeping.
fn verify(ctx: &mut Ctx, world: &World, server: &Server<StoreCatalog>) {
    let fresh = StoreCatalog::open(&world.paths).expect("reopen the final catalog");
    for panel in &world.panels {
        let served = server.query(panel.clone()).map(|reply| reply.result);
        let direct = fresh.with_source(|snapshot| execute(snapshot.source, panel));
        let same = match (&served, &direct) {
            (Ok(served), Ok(direct)) => same_result(served, direct),
            _ => false,
        };
        ctx.check(
            same,
            "a final reply must bit-equal execute on the final catalog",
        );
    }
    let stats = server.stats();
    ctx.check(
        stats.submitted == stats.completed + stats.failed && stats.rejected == 0,
        "every submitted request must be answered exactly once",
    );
}

/// Fills every cache: all 48 panels once, then one ordinary burst.
fn warm_up(ctx: &mut Ctx, world: &World, server: &Server<StoreCatalog>, rng: &mut SimRng) {
    let tickets: Vec<_> = world
        .panels
        .iter()
        .map(|panel| server.submit(panel.clone()))
        .collect();
    for ticket in tickets {
        let ok = ticket.and_then(|t| t.wait()).is_ok();
        ctx.check(ok, "a warm-up request must be served");
    }
    let _ = burst_loop(ctx, world, server, None, rng, 0.05);
}

fn probe_refresh(ctx: &mut Ctx, world: &World, ingest: &mut Ingest) {
    let rec = ctx.rec.clone();
    let mut reader = StoreReader::open(&world.paths[0]).expect("open shard 0");
    let mut noop = Samples::default();
    for _ in 0..200 {
        let (moved, secs) = rec.span("riskstore", "refresh", 0, || timed(|| reader.refresh()));
        ctx.check(
            matches!(moved, Ok(false)),
            "a refresh without a commit is a no-op",
        );
        noop.push(secs);
    }
    ctx.set("riskstore.refresh_noop_us", noop.median() * 1e6);
    let mut after_commit = Samples::default();
    for _ in 0..8 {
        // Whole rounds, so shard 0 commits once per round.
        for _ in 0..4 {
            ingest.commit_next(ctx, world);
        }
        let (moved, secs) = rec.span("riskstore", "refresh", 0, || timed(|| reader.refresh()));
        ctx.check(
            matches!(moved, Ok(true)),
            "a refresh after a commit must advance",
        );
        after_commit.push(secs);
    }
    ctx.set("riskstore.refresh_commit_ms", after_commit.median() * 1e3);
}

/// The fused session and the per-shard partial scan + combine, on one
/// dashboard burst, outside the server.
fn probe_query_layer(ctx: &mut Ctx, world: &World, server: &Server<StoreCatalog>) {
    let rec = ctx.rec.clone();
    let burst: Vec<Query> = world.panels.iter().take(BURST).cloned().collect();
    let catalog = server.provider();
    let shard_windows = catalog.shard_windows();
    catalog.with_source(|snapshot| {
        let mut fused = Samples::default();
        for _ in 0..5 {
            let (results, secs) = rec.span("riskquery", "session.run", 0, || {
                timed(|| QuerySession::new(snapshot.source).run(&burst))
            });
            ctx.check(results.is_ok(), "the fused session must answer the burst");
            fused.push(secs);
        }
        ctx.set("riskquery.session_fused_ms", fused.median() * 1e3);

        let plans: Vec<QueryPlan> = rec.span("riskquery", "plan", 0, || {
            burst
                .iter()
                .map(|q| QueryPlan::new(snapshot.source, q).expect("a panel plans"))
                .collect()
        });
        let plan_refs: Vec<&QueryPlan> = plans.iter().collect();
        let mut scans = Samples::default();
        let mut per_window = Vec::new();
        for &(start, end) in &shard_windows {
            let (partials, secs) = rec.span("riskquery", "scan_trial_partials_fused", 0, || {
                timed(|| scan_trial_partials_fused(snapshot.source, &plan_refs, start, end))
            });
            scans.push(secs);
            per_window.push(partials);
        }
        ctx.set("riskquery.partial_scan_ms", scans.median() * 1e3);
        let mut combines = Samples::default();
        for (index, query) in burst.iter().enumerate() {
            let parts: Vec<_> = per_window.iter().map(|window| &window[index]).collect();
            let (combined, secs) = rec.span("riskquery", "combine_trial_partial_refs", 0, || {
                timed(|| combine_trial_partial_refs(query, &parts))
            });
            combines.push(secs);
            // A full scan each: a few panels pin the stitch, not all 32.
            if index < 4 {
                let same = rec.span("bench", "verify", 0, || {
                    match (&combined, &execute(snapshot.source, query)) {
                        (Ok(combined), Ok(direct)) => same_result(combined, direct),
                        _ => false,
                    }
                });
                ctx.check(same, "stitched partials must bit-equal execute");
            }
        }
        ctx.set("riskquery.combine_ms", combines.median() * 1e3);
    });
}

/// Served throughput of cached bursts with request tracing at
/// sampling=always over the same with tracing off (the base).
fn probe_telemetry(ctx: &mut Ctx, world: &World, rng: &mut SimRng, seconds: f64) {
    let mut qps = [0.0f64; 2];
    for (slot, sample_every) in [0u64, 1].into_iter().enumerate() {
        let server = open_server(
            world,
            ServerConfig {
                trace_sample_every: sample_every,
                ..server_config()
            },
        );
        warm_up(ctx, world, &server, rng);
        let (stats, wall_s) = timed(|| burst_loop(ctx, world, &server, None, rng, seconds));
        let traced = server.stats().traces_started;
        ctx.check(
            (sample_every == 0) == (traced == 0),
            "request tracing must follow trace_sample_every",
        );
        qps[slot] = stats.requests.len() as f64 / wall_s;
        server.shutdown();
    }
    ctx.set("telemetry.trace_overhead_ratio", qps[1] / qps[0]);
}

/// Leg B: the same server behind the TCP front end, driven by
/// `loadgen::run` (which reaches it through `riskclient`).
fn probe_wire(ctx: &mut Ctx, server: Server<StoreCatalog>, requests: usize) {
    let rec = ctx.rec.clone();
    let lines = loadgen::default_mix();
    // The same cached queries in process, one at a time: the base the wire
    // overhead is taken against.
    let mut in_process = Samples::default();
    for k in 0..requests / 4 {
        let line = &lines[k % lines.len()];
        let Ok(Some(Request::Query { query, .. })) = parse_request(line) else {
            ctx.check(false, "a loadgen line must parse to a query");
            return;
        };
        let (reply, secs) = rec.span("riskserve", "query", k as u64, || {
            timed(|| server.query(query))
        });
        ctx.check(reply.is_ok(), "an in-process request must be served");
        in_process.push(secs);
    }

    let front = match TcpFrontEnd::bind(server, "127.0.0.1:0") {
        Ok(front) => front,
        Err(err) => {
            ctx.check(false, &format!("cannot bind the TCP front end: {err}"));
            return;
        }
    };
    let options = LoadgenOptions {
        addrs: vec![front.local_addr().to_string()],
        clients: nproc(),
        requests,
        queries: lines,
        ..LoadgenOptions::default()
    };
    let report = rec.span("tcp", "loadgen.run", 0, || loadgen::run(&options));
    front.stop();
    ctx.check(
        front.wait().is_ok(),
        "the TCP front end must shut down cleanly",
    );
    match report {
        Ok(report) => {
            ctx.attempt(report.sent);
            ctx.check(
                report.ok == report.sent && report.errors == 0 && report.overloaded == 0,
                "every wire request must be answered",
            );
            let hits = report.server_stats.map_or(0, |s| s.cache_hits);
            ctx.check(
                hits > 0,
                "the wire leg must be served from the result cache",
            );
            ctx.set("wire_p50_ms", report.p50_micros as f64 / 1e3);
            ctx.set("riskserve.tcp.qps", report.throughput);
            ctx.set("riskserve.tcp.p99_us", report.p99_micros as f64);
            ctx.set(
                "riskserve.tcp.overhead_us",
                report.p50_micros as f64 - in_process.median() * 1e6,
            );
        }
        Err(err) => ctx.check(false, &format!("loadgen failed: {err}")),
    }
}

pub fn run(ctx: &mut Ctx) {
    let (seed, scale, seconds) = (ctx.args.seed, ctx.scale(), ctx.args.seconds);
    let rec = ctx.rec.clone();
    let root = if ctx.args.trace {
        rec.set_enabled(true);
        rec.enter("bench", "dashboard_live", 0)
    } else {
        None
    };
    let world = ctx.setup(|| rec.span("bench", "build_store", 0, || build(seed, scale)));
    let mut rng = RngFactory::new(seed)
        .derive("ledger-dashboard-draws")
        .stream(0);
    let server = rec.span("riskserve", "catalog.open", 0, || {
        open_server(&world, server_config())
    });
    let mut ingest = rec.span("riskstore", "open_append", 0, || Ingest::open(&world));
    rec.muted("warm_up", || warm_up(ctx, &world, &server, &mut rng));

    if !ctx.args.trace {
        let stats = burst_loop(ctx, &world, &server, Some(&mut ingest), &mut rng, seconds);
        ctx.set_loop_metrics(&stats.requests, 99.9);
        verify(ctx, &world, &server);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&world.dir);
        return;
    }

    let untraced = rec.muted("untraced_loop", || {
        burst_loop(
            ctx,
            &world,
            &server,
            Some(&mut ingest),
            &mut rng,
            seconds / 4.0,
        )
    });
    let before = server.stats();
    let loop_started = Instant::now();
    let stats = burst_loop(
        ctx,
        &world,
        &server,
        Some(&mut ingest),
        &mut rng,
        seconds / 2.0,
    );
    let loop_s = loop_started.elapsed().as_secs_f64();
    let after = server.stats();
    let latencies = stats.requests.latencies();
    ctx.set(
        "bench.trace_overhead_ratio",
        latencies.median() / untraced.requests.latencies().median(),
    );
    ctx.set("serve_qps", stats.requests.len() as f64 / loop_s);
    ctx.set("serve_p99_ms", latencies.percentile(99.0) * 1e3);
    ctx.set("riskserve.submit_us", stats.submit_s.median() * 1e6);
    ctx.set(
        "riskserve.commit_visible_ms",
        stats.commit_visible_s.median() * 1e3,
    );

    // Counters over the traced loop only, per burst or per commit, so they
    // do not depend on how many bursts the window held.
    let delta = |f: fn(&catrisk_riskserve::StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let commits = stats.commits.max(1) as f64;
    let (hits, misses) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
    let (part_hits, part_misses) = (delta(|s| s.partial_hits), delta(|s| s.partial_misses));
    let hit_ratio = hits / (hits + misses).max(1.0);
    ctx.set("riskserve.cache_hit_ratio", hit_ratio);
    ctx.set(
        "riskserve.partial_hit_ratio",
        part_hits / (part_hits + part_misses).max(1.0),
    );
    ctx.set(
        "riskserve.batches",
        delta(|s| s.batches) / stats.bursts.max(1) as f64,
    );
    ctx.set(
        "riskserve.mean_batch",
        delta(|s| s.completed) / delta(|s| s.batches).max(1.0),
    );
    ctx.set(
        "riskserve.fused_partial_scans",
        delta(|s| s.fused_partial_scans) / commits,
    );
    ctx.set("riskserve.refreshes", delta(|s| s.refreshes) / commits);
    ctx.set("riskserve.max_queue_depth", after.max_queue_depth as f64);
    set_stage_metrics(ctx, &server);
    ctx.check(
        hit_ratio > 0.5,
        "the dashboard must be served mostly from the result cache",
    );

    rec.span("bench", "verify", 0, || verify(ctx, &world, &server));
    probe_query_layer(ctx, &world, &server);
    probe_refresh(ctx, &world, &mut ingest);
    drop(ingest);
    probe_wire(ctx, server, scale.pick(6_000, 400));
    rec.muted("telemetry_probe", || {
        probe_telemetry(ctx, &world, &mut rng, scale.pick(0.75, 0.1))
    });
    let _ = std::fs::remove_dir_all(&world.dir);
    ctx.finish_trace(root);
}
