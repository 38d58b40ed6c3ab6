//! `analyst_scan` — one analyst firing pairwise-distinct ad-hoc queries at a
//! 205 MB mapped store behind an in-process server, one at a time.  More
//! distinct queries than the result cache holds and nothing repeats, so
//! every cache misses and batches are of one: plan + SIMD scan + finalise
//! is the whole latency.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use catrisk_riskquery::kernel::{self, SimdLevel};
use catrisk_riskquery::prelude::*;
use catrisk_riskserve::{loadgen, parse_request, Server};
use catrisk_riskstore::StoreReader;

use crate::harness::{fresh_dir, timed, Ctx, OpLog, Samples, Scale};
use crate::stores::{analyst_queries, computed_scan_bytes, same_result, write_catalog};
use crate::workloads::{server_config, set_stage_metrics};

struct World {
    dir: PathBuf,
    reader: Arc<StoreReader>,
    queries: Vec<Query>,
}

fn build(seed: u64, scale: Scale) -> World {
    let dir = fresh_dir("analyst");
    let trials = scale.pick(100_000, 4_000);
    let paths = write_catalog(&dir, trials, 1, scale.pick(128, 24), seed);
    let reader = StoreReader::open_shared(&paths[0]).expect("open the analyst store");
    // Far more than a run can execute, so the stream never wraps and no
    // query is ever seen twice.
    let queries = analyst_queries(trials, scale.pick(40_000, 1_500), seed);
    World {
        dir,
        reader,
        queries,
    }
}

#[derive(Default)]
struct LoopStats {
    requests: OpLog,
    submit_s: Samples,
    exec_micros: u64,
    executed: usize,
    /// Every 50th reply, kept for verification after the loop.
    kept: Vec<(usize, QueryResult)>,
}

fn query_loop(
    ctx: &mut Ctx,
    server: &Server<Arc<StoreReader>>,
    queries: &[Query],
    seconds: f64,
) -> LoopStats {
    let rec = ctx.rec.clone();
    let mut stats = LoopStats::default();
    let started = Instant::now();
    for (index, query) in queries.iter().enumerate() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let op = index as u64;
        let request = rec.enter("riskserve", "request", op);
        let sent = Instant::now();
        let (ticket, submit_s) = rec.span("riskserve", "submit", op, || {
            timed(|| server.submit(query.clone()))
        });
        let submitted_ns = rec.now_ns();
        let reply = ticket.and_then(|ticket| ticket.wait());
        let latency = sent.elapsed().as_secs_f64();
        rec.exit(request);
        stats
            .requests
            .push(started.elapsed().as_secs_f64(), latency);
        stats.submit_s.push(submit_s);
        stats.executed = index + 1;
        match reply {
            Ok(reply) => {
                // What the reply says about itself, laid end to end after
                // the submit call; the rest of the request is wake-up.
                let queued = reply.timings.queue_micros * 1_000;
                let exec = reply.timings.exec_micros * 1_000;
                let queue = rec.attach(
                    request,
                    "riskserve",
                    "queue",
                    op,
                    submitted_ns,
                    queued,
                    false,
                );
                rec.attach(
                    request,
                    "riskserve",
                    "exec",
                    op,
                    rec.end_of(queue),
                    exec,
                    false,
                );
                stats.exec_micros += reply.timings.exec_micros;
                ctx.attempt(1);
                if index % 50 == 0 {
                    stats.kept.push((index, reply.result));
                }
            }
            Err(err) => ctx.check(false, &format!("query {index} failed: {err}")),
        }
    }
    stats
}

/// `queries` is the slice the loop ran over: `kept` indexes into it.
fn verify(ctx: &mut Ctx, world: &World, queries: &[Query], stats: &LoopStats) {
    for (index, served) in &stats.kept {
        let same = execute(&*world.reader, &queries[*index])
            .is_ok_and(|direct| same_result(&direct, served));
        ctx.check(same, "a served reply must bit-equal bare execute");
    }
}

/// The fused add/max kernel at each lane width against a plain copy of
/// the same arrays, single-threaded.  Both stream the store's mapped
/// columns into a cache-resident destination, so the copy is a
/// *same-residency* ceiling, not DRAM bandwidth: this VM reports a 260 MiB
/// L3, and arrays four times that do not fit the run's budget.
fn probe_kernels(ctx: &mut Ctx, world: &World) {
    let rec = ctx.rec.clone();
    let store = &*world.reader;
    let trials = store.num_trials();
    let bytes = (store.num_segments() * trials * 16) as f64;
    let mut acc_year = vec![0.0f64; trials];
    let mut acc_occ = vec![0.0f64; trials];
    let mut best = 0.0f64;
    for (name, level) in [
        ("riskquery.kernel.scalar_gb_per_s", SimdLevel::Scalar),
        ("riskquery.kernel.sse2_gb_per_s", SimdLevel::F64x2),
        ("riskquery.kernel.avx_gb_per_s", SimdLevel::F64x4),
        ("riskquery.kernel.avx512_gb_per_s", SimdLevel::F64x8),
    ] {
        if !kernel::available_levels().contains(&level) {
            continue;
        }
        let mut passes = Samples::default();
        for _ in 0..3 {
            let (_, secs) = rec.span("riskquery", "kernel.accumulate_fused_at", 0, || {
                timed(|| {
                    for segment in 0..store.num_segments() {
                        kernel::accumulate_fused_at(
                            level,
                            &mut acc_year,
                            &mut acc_occ,
                            store.year_losses(segment),
                            store.max_occ_losses(segment),
                        );
                    }
                    black_box(&acc_year);
                })
            });
            passes.push(secs);
        }
        let rate = bytes / passes.median() / 1e9;
        ctx.set(name, rate);
        if level <= kernel::active_level() {
            best = rate;
        }
    }
    let mut passes = Samples::default();
    for _ in 0..3 {
        let (_, secs) = rec.span("bench", "host.copy", 0, || {
            timed(|| {
                for segment in 0..store.num_segments() {
                    acc_year.copy_from_slice(store.year_losses(segment));
                    acc_occ.copy_from_slice(store.max_occ_losses(segment));
                    black_box((&acc_year, &acc_occ));
                }
            })
        });
        passes.push(secs);
    }
    let copy = bytes / passes.median() / 1e9;
    ctx.set("host.copy_gb_per_s", copy);
    // Base: the plain copy; numerator: the kernel at the active level.
    ctx.set("riskquery.scan_ceiling_ratio", best / copy);
}

fn probe_query_layer(ctx: &mut Ctx, world: &World, seed: u64) {
    let rec = ctx.rec.clone();
    let lines = loadgen::skewed_mix(world.reader.num_trials(), 256, seed);
    let mut parse_s = Samples::default();
    for line in &lines {
        let (parsed, secs) = rec.span("riskquery", "parse", 0, || timed(|| parse_request(line)));
        ctx.check(
            matches!(parsed, Ok(Some(_))),
            "a generated query line must parse",
        );
        parse_s.push(secs);
    }
    ctx.set("riskquery.parse_us", parse_s.median() * 1e6);

    // The tail of the stream: queries the server has not seen.
    let mut execute_s = Samples::default();
    for query in world.queries.iter().rev().take(100) {
        let (result, secs) = rec.span("riskquery", "execute", 0, || {
            timed(|| execute(&*world.reader, query))
        });
        ctx.check(result.is_ok(), "bare execute must succeed");
        execute_s.push(secs);
    }
    ctx.set("riskquery.execute_ms", execute_s.median() * 1e3);
}

pub fn run(ctx: &mut Ctx) {
    let (seed, scale, seconds) = (ctx.args.seed, ctx.scale(), ctx.args.seconds);
    let rec = ctx.rec.clone();
    let root = if ctx.args.trace {
        rec.set_enabled(true);
        rec.enter("bench", "analyst_scan", 0)
    } else {
        None
    };
    let world = ctx.setup(|| rec.span("bench", "build_store", 0, || build(seed, scale)));
    let server = Server::new(Arc::clone(&world.reader), server_config());
    // Fault the mapped columns in before timing: users do not pay a cold
    // page cache on every query.
    let _ = server.query(
        QueryBuilder::new()
            .aggregate(Aggregate::MaxLoss)
            .build()
            .expect("valid query"),
    );

    if !ctx.args.trace {
        let stats = query_loop(ctx, &server, &world.queries, seconds);
        ctx.set_loop_metrics(&stats.requests, 99.0);
        verify(ctx, &world, &world.queries, &stats);
    } else {
        let quarter = world.queries.len() / 4;
        let untraced = rec.muted("untraced_loop", || {
            query_loop(ctx, &server, &world.queries[..quarter], seconds / 4.0)
        });
        let stats = query_loop(ctx, &server, &world.queries[quarter..], seconds / 2.0);
        let latencies = stats.requests.latencies();
        ctx.set(
            "bench.trace_overhead_ratio",
            latencies.median() / untraced.requests.latencies().median(),
        );
        ctx.set("query_p50_ms", latencies.median() * 1e3);
        ctx.set("query_p99_ms", latencies.percentile(99.0) * 1e3);
        ctx.set("riskserve.submit_us", stats.submit_s.median() * 1e6);
        let bytes: u64 = world.queries[quarter..quarter + stats.executed]
            .iter()
            .map(|query| computed_scan_bytes(&*world.reader, query))
            .sum();
        ctx.set("riskquery.bytes_scanned", bytes as f64);
        // Computed bytes (plan's segments × window × 16) over the time the
        // replies say their batches executed.
        ctx.set(
            "scan_gb_per_s",
            bytes as f64 / 1e9 / (stats.exec_micros as f64 / 1e6),
        );

        let served = server.stats();
        ctx.set("riskserve.mean_batch", served.mean_batch());
        ctx.set(
            "riskserve.batches",
            served.batches as f64 / served.completed.max(1) as f64,
        );
        ctx.set("riskserve.max_queue_depth", served.max_queue_depth as f64);
        ctx.set("riskserve.cache_hit_ratio", served.cache_hit_rate());
        set_stage_metrics(ctx, &server);
        ctx.check(
            served.cache_hits == 0,
            "distinct queries must never hit the result cache",
        );
        ctx.check(
            served.submitted == served.completed + served.failed && served.rejected == 0,
            "every submitted request must be answered exactly once",
        );

        probe_query_layer(ctx, &world, seed);
        probe_kernels(ctx, &world);
        rec.span("bench", "verify", 0, || {
            verify(ctx, &world, &world.queries[quarter..], &stats)
        });
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&world.dir);
    if ctx.args.trace {
        ctx.finish_trace(root);
    }
}
