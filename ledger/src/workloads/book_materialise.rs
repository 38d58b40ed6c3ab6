//! `book_materialise` — a wide, shallow book streamed out of the engine
//! into a store file, committed in batches, reopened and queried.  The
//! `riskstore` write path (transpose, page checksums, fsync'd commits,
//! CRC-verifying open) dominates; the engine is deliberately light.

use std::path::{Path, PathBuf};
use std::time::Instant;

use catrisk_bench::{build_input, WorkloadSpec};
use catrisk_engine::input::AnalysisInput;
use catrisk_engine::parallel::ParallelEngine;
use catrisk_engine::streaming::StreamingEngine;
use catrisk_riskquery::prelude::*;
use catrisk_riskstore::{RegionBacking, StoreReader, StoreWriter, StreamIngestor};

use crate::harness::{fresh_dir, timed, Ctx, OpLog, Samples, Scale};
use crate::stores::{same_result, segment_metas};

/// Segments per commit while spilling (`StreamIngestor::finish`).
const COMMIT_EVERY: usize = 8;

struct World {
    input: AnalysisInput,
    metas: Vec<SegmentMeta>,
    dir: PathBuf,
}

fn build(seed: u64, scale: Scale) -> World {
    let spec = WorkloadSpec {
        trials: scale.pick(30_000, 2_000),
        events_per_trial: 3.0,
        num_layers: scale.pick(96, 16),
        elts_per_layer: 1,
        seed,
        ..WorkloadSpec::bench_scale()
    };
    World {
        input: build_input(&spec),
        metas: segment_metas(spec.num_layers),
        dir: fresh_dir("book"),
    }
}

/// The first thing an analyst asks of a fresh book.
fn first_query() -> Query {
    QueryBuilder::new()
        .group_by(Dimension::Region)
        .aggregate(Aggregate::Mean)
        .aggregate(Aggregate::Tvar { level: 0.99 })
        .build()
        .expect("valid query")
}

#[derive(Default)]
struct LoopStats {
    /// The user-visible operation: run → durable → reopened → first answer.
    cycles: OpLog,
    materialise_s: Samples,
    engine_s: Samples,
    push_block_s: Samples,
    finish_s: Samples,
    open_s: Samples,
    first_query_s: Samples,
    file_bytes: u64,
    commits: u64,
    last_file: Option<PathBuf>,
}

/// One materialisation: engine blocks → ingestor → store file, durable
/// and queryable when `StoreWriter::finish` returns.  Returns the seconds
/// spent in (engine, push_block, finish) or the first error.
fn materialise(
    ctx: &Ctx,
    world: &World,
    path: &Path,
    op: u64,
) -> catrisk_riskstore::Result<(f64, f64, f64)> {
    let rec = &ctx.rec;
    let trials = world.input.num_trials();
    let mut writer = StoreWriter::create(path, trials)?;
    let mut ingestor = StreamIngestor::new(world.metas.len(), trials);
    let mut pushed = Ok(());
    let mut push_s = 0.0;
    let block = (trials / 4).max(1);
    let (_, run_s) = rec.span("engine", "streaming.run_with", op, || {
        timed(|| {
            StreamingEngine::new(block).run_with(&world.input, |_, _, output| {
                let (result, secs) = rec.span("riskstore", "push_block", op, || {
                    timed(|| ingestor.push_block(output))
                });
                push_s += secs;
                if pushed.is_ok() {
                    pushed = result;
                }
            })
        })
    });
    pushed?;
    let (spilled, spill_s) = rec.span("riskstore", "ingest_finish", op, || {
        timed(|| ingestor.finish(&mut writer, &world.metas, COMMIT_EVERY))
    });
    spilled?;
    let (closed, close_s) = rec.span("riskstore", "writer_finish", op, || {
        timed(|| writer.finish())
    });
    closed?;
    Ok((run_s - push_s, push_s, spill_s + close_s))
}

fn materialise_loop(ctx: &mut Ctx, world: &World, seconds: f64) -> LoopStats {
    let rec = ctx.rec.clone();
    let query = first_query();
    let mut stats = LoopStats::default();
    let mut first_result: Option<QueryResult> = None;
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let path = world.dir.join(format!("book-{op}.clm"));
        let cycle_started = Instant::now();
        let (outcome, secs) = timed(|| materialise(ctx, world, &path, op));
        stats.materialise_s.push(secs);
        match outcome {
            Ok((engine_s, push_s, finish_s)) => {
                stats.engine_s.push(engine_s);
                stats.push_block_s.push(push_s);
                stats.finish_s.push(finish_s);
            }
            Err(err) => ctx.check(false, &format!("materialise failed: {err}")),
        }

        // Reader-cold, not disk-cold: the pages just written are still in
        // the page cache; the open pays validation and mapping.
        let (opened, open_s) = rec.span("riskstore", "open", op, || {
            timed(|| StoreReader::open(&path))
        });
        stats.open_s.push(open_s);
        match opened {
            Ok(reader) => {
                let (result, query_s) = rec.span("riskquery", "execute", op, || {
                    timed(|| execute(&reader, &query))
                });
                stats.cycles.push(
                    started.elapsed().as_secs_f64(),
                    cycle_started.elapsed().as_secs_f64(),
                );
                stats.first_query_s.push(query_s);
                stats.commits = reader.commit_seq();
                ctx.check(
                    reader.num_segments() == world.metas.len(),
                    "every layer must be a committed segment",
                );
                match result {
                    Ok(result) => {
                        let expected = first_result.get_or_insert_with(|| result.clone());
                        ctx.check(
                            same_result(expected, &result),
                            "every materialisation must answer the first query identically",
                        );
                    }
                    Err(err) => ctx.check(false, &format!("first query failed: {err}")),
                }
            }
            Err(err) => ctx.check(false, &format!("reopen failed: {err}")),
        }
        stats.file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        if let Some(previous) = stats.last_file.replace(path) {
            let _ = std::fs::remove_file(previous);
        }
        op += 1;
    }
    stats
}

/// The last file against a fresh engine run held in memory: reopened
/// columns bit-equal the engine output, and the first query equals
/// `execute` on the in-memory store.
fn verify(ctx: &mut Ctx, world: &World, stats: &LoopStats) {
    let Some(path) = &stats.last_file else {
        ctx.check(false, "no materialisation completed");
        return;
    };
    let output = ParallelEngine::new().run(&world.input);
    let mut reference = ResultStore::new(world.input.num_trials());
    reference
        .ingest_output(&output, &world.metas)
        .expect("reference ingest");
    match StoreReader::open(path) {
        Ok(reader) => {
            let columns_equal = (0..reference.num_segments()).all(|s| {
                bit_equal(reader.year_losses(s), reference.year_losses(s))
                    && bit_equal(reader.max_occ_losses(s), reference.max_occ_losses(s))
            });
            ctx.check(
                columns_equal,
                "reopened columns must bit-equal the engine output",
            );
            let query = first_query();
            let same = match (execute(&reader, &query), execute(&reference, &query)) {
                (Ok(stored), Ok(direct)) => same_result(&stored, &direct),
                _ => false,
            };
            ctx.check(
                same,
                "the first query must equal execute on an in-memory store",
            );
        }
        Err(err) => ctx.check(false, &format!("reopen for verification failed: {err}")),
    }
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Explicit `append_segment` / `commit` calls and both open backings.
fn probe_store(ctx: &mut Ctx, world: &World, stats: &LoopStats) {
    let rec = ctx.rec.clone();
    let Some(path) = &stats.last_file else { return };
    let reader = StoreReader::open(path).expect("reopen the last file");
    let trials = reader.num_trials();
    let probe_path = world.dir.join("probe.clm");
    let mut writer = StoreWriter::create(&probe_path, trials).expect("create probe store");
    let (mut append_s, mut commit_s) = (Samples::default(), Samples::default());
    for segment in 0..reader.num_segments() {
        let (appended, secs) = rec.span("riskstore", "append_segment", 0, || {
            timed(|| {
                writer.append_segment(
                    *reader.meta(segment),
                    reader.year_losses(segment),
                    reader.max_occ_losses(segment),
                )
            })
        });
        ctx.check(appended.is_ok(), "append_segment must succeed");
        append_s.push(secs);
        if (segment + 1) % COMMIT_EVERY == 0 {
            let (committed, secs) =
                rec.span("riskstore", "commit", 0, || timed(|| writer.commit()));
            ctx.check(committed.is_ok(), "commit must succeed");
            commit_s.push(secs);
        }
    }
    drop(writer);
    let _ = std::fs::remove_file(&probe_path);
    ctx.set(
        "riskstore.append_mb_per_s",
        trials as f64 * 16.0 / 1e6 / append_s.median(),
    );
    ctx.set("riskstore.commit_ms", commit_s.median() * 1e3);

    for (name, backing) in [
        ("riskstore.open_mapped_ms", RegionBacking::Mapped),
        ("riskstore.open_loaded_ms", RegionBacking::Loaded),
    ] {
        let mut open_s = Samples::default();
        for _ in 0..11 {
            let (opened, secs) = rec.span("riskstore", "open_with_backing", 0, || {
                timed(|| StoreReader::open_with_backing(path, backing))
            });
            // Mapped is unavailable off Linux/macOS; Loaded must work.
            if opened.is_ok() {
                open_s.push(secs);
            } else {
                ctx.check(
                    backing == RegionBacking::Mapped,
                    "a loaded open must succeed",
                );
            }
        }
        ctx.set(name, open_s.median() * 1e3);
    }
}

pub fn run(ctx: &mut Ctx) {
    let (seed, scale, seconds) = (ctx.args.seed, ctx.scale(), ctx.args.seconds);
    let rec = ctx.rec.clone();
    let root = if ctx.args.trace {
        rec.set_enabled(true);
        rec.enter("bench", "book_materialise", 0)
    } else {
        None
    };
    let world = ctx.setup(|| rec.span("eventgen", "build_input", 0, || build(seed, scale)));

    if !ctx.args.trace {
        let stats = materialise_loop(ctx, &world, seconds);
        // A slice holds two operations: its tail is the slower.
        ctx.set_loop_metrics(&stats.cycles, 100.0);
        verify(ctx, &world, &stats);
        let _ = std::fs::remove_dir_all(&world.dir);
        return;
    }

    let build_s = ctx.get("setup_s").expect("set-up was timed");
    ctx.set("eventgen.yet_build_s", build_s);
    ctx.set(
        "eventgen.occurrences_per_s",
        world.input.yet().total_events() as f64 / build_s,
    );
    let untraced = rec.muted("untraced_loop", || {
        materialise_loop(ctx, &world, seconds / 4.0)
    });
    let stats = materialise_loop(ctx, &world, seconds / 2.0);
    let cycle_s = stats.cycles.latencies().median();
    ctx.set(
        "bench.trace_overhead_ratio",
        cycle_s / untraced.cycles.latencies().median(),
    );
    ctx.set("materialise_s", stats.materialise_s.median());
    let trials = world.input.num_trials() as f64;
    let segments = world.metas.len() as f64;
    ctx.set(
        "engine.streaming.trials_per_s",
        trials / stats.engine_s.median(),
    );
    // Share of the whole operation (to the first answer), not of the
    // write alone: the streaming engine's per-(trial, layer) floor is about
    // what the store spends writing the same 16 bytes.
    let engine_share = stats.engine_s.median() / cycle_s;
    ctx.set("engine.materialise_share", engine_share);
    // A statement about the full-scale sizing: on the smoke inputs the
    // engine's fixed costs dwarf a half-megabyte file.
    ctx.check(
        engine_share < 0.5 || scale == Scale::Smoke,
        "the engine must stay under half of the operation",
    );
    ctx.set("riskstore.push_block_s", stats.push_block_s.median());
    ctx.set("riskstore.finish_s", stats.finish_s.median());
    ctx.set("riskstore.commits", stats.commits as f64);
    ctx.set("riskstore.file_bytes", stats.file_bytes as f64);
    ctx.set(
        "ingest_mb_per_s",
        stats.file_bytes as f64 / 1e6 / (stats.push_block_s.median() + stats.finish_s.median()),
    );
    ctx.set(
        "store_amplification",
        stats.file_bytes as f64 / (segments * trials * 16.0),
    );
    ctx.set("cold_open_ms", stats.open_s.median() * 1e3);
    ctx.set(
        "riskquery.first_query_ms",
        stats.first_query_s.median() * 1e3,
    );

    probe_store(ctx, &world, &stats);
    rec.span("bench", "verify", 0, || verify(ctx, &world, &stats));
    let _ = std::fs::remove_dir_all(&world.dir);
    ctx.finish_trace(root);
}
