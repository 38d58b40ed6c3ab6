//! `quote_paper` — the paper's contract shape, quoted the way §IV
//! describes: an underwriter trying Cat XL / Aggregate XL / Combined terms
//! in turn while the client is on the phone.  `engine`, `lookup` and
//! `finterms` do essentially all the work; no store, no server.

use std::hint::black_box;
use std::time::Instant;

use catrisk_bench::{build_input, WorkloadSpec};
use catrisk_engine::chunked::ChunkedEngine;
use catrisk_engine::input::{AnalysisInput, PreparedLookup};
use catrisk_engine::parallel::ParallelEngine;
use catrisk_engine::phases::{
    PhaseBreakdown, PHASE_EVENT_FETCH, PHASE_FINANCIAL_TERMS, PHASE_LAYER_TERMS, PHASE_LOOKUP,
};
use catrisk_engine::sequential::SequentialEngine;
use catrisk_engine::streaming::StreamingEngine;
use catrisk_finterms::layer::{Layer, LayerId};
use catrisk_finterms::treaty::{Reinstatements, Treaty};
use catrisk_gpusim::executor::Executor;
use catrisk_gpusim::kernel::LaunchConfig;
use catrisk_gpusim::kernels::{run_gpu_analysis, total_simulated_seconds, GpuVariant};
use catrisk_lookup::LookupKind;
use catrisk_portfolio::pricing::{price_losses, PricingConfig, Quote};
use catrisk_portfolio::realtime::RealTimeQuoter;

use crate::harness::{nproc, timed, Ctx, OpLog, Samples, Scale};

struct World {
    input: AnalysisInput,
    quoter: RealTimeQuoter,
    elts: Vec<usize>,
}

/// Terms that attach often but rarely exhaust on this loss distribution,
/// so each quote prices a real tail rather than 0 or the full limit.
fn treaties() -> [Treaty; 3] {
    [
        Treaty::CatXl {
            retention: 4.0e6,
            limit: 4.0e6,
            reinstatements: Reinstatements::new(2, 1.0).expect("valid reinstatements"),
        },
        Treaty::AggregateXl {
            retention: 240.0e6,
            limit: 40.0e6,
        },
        Treaty::Combined {
            occ_retention: 1.0e6,
            occ_limit: 3.0e6,
            agg_retention: 30.0e6,
            agg_limit: 60.0e6,
        },
    ]
}

fn spec(seed: u64, scale: Scale) -> WorkloadSpec {
    match scale {
        Scale::Full => WorkloadSpec {
            seed,
            // An eighth of bench_scale's trials: the same contract shape
            // (1000 events x 15 ELTs over a 200K catalog), but ~0.3 s a
            // quote on one thread, so a run holds ~40 quotes, not ~5.
            trials: 2_500,
            ..WorkloadSpec::bench_scale()
        },
        // Same events per trial and record density, so the treaties attach
        // on the same loss scale; a tenth of the catalog, few trials.
        Scale::Smoke => WorkloadSpec {
            num_events: 20_000,
            trials: 150,
            elt_records: 1_500,
            seed,
            ..WorkloadSpec::bench_scale()
        },
    }
}

fn build(seed: u64, scale: Scale) -> World {
    let spec = spec(seed, scale);
    let input = build_input(&spec);
    let quoter =
        RealTimeQuoter::new(&input, None, PricingConfig::default()).expect("default pricing");
    World {
        input,
        quoter,
        elts: (0..spec.elts_per_layer).collect(),
    }
}

/// The layer `RealTimeQuoter::quote` builds for a treaty.
fn treaty_layer(treaty: &Treaty, elts: &[usize]) -> Layer {
    Layer {
        id: LayerId(0),
        elt_indices: elts.to_vec(),
        terms: treaty.layer_terms(),
        participation: treaty.cession_share(),
        description: treaty.describe(),
    }
}

/// The quote recomputed the slow way: sequential engine, then pricing.
fn reference_quote(input: &AnalysisInput, treaty: &Treaty, elts: &[usize]) -> Quote {
    let layered = input
        .with_layers(vec![treaty_layer(treaty, elts)])
        .expect("valid layer");
    let output = SequentialEngine::new().run(&layered);
    let share = treaty.cession_share();
    let losses: Vec<f64> = output
        .layer(0)
        .outcomes()
        .iter()
        .map(|o| o.year_loss * share)
        .collect();
    let terms = treaty.layer_terms();
    let annual_limit = if terms.agg_limit.is_finite() {
        terms.agg_limit
    } else {
        terms.occ_limit
    };
    price_losses(&losses, annual_limit * share, &PricingConfig::default())
}

struct LoopStats {
    quotes: OpLog,
    bare_runs: Samples,
}

/// Quotes the three treaties in turn until `seconds` have passed.  With
/// `bare` set every quote is followed by a bare `ParallelEngine::run` of
/// the same layer, so pricing cost is the difference of the two.
fn quote_loop(ctx: &mut Ctx, world: &World, seconds: f64, bare: bool) -> LoopStats {
    let rec = ctx.rec.clone();
    let treaties = treaties();
    let mut first: [Option<Quote>; 3] = [None; 3];
    let mut stats = LoopStats {
        quotes: OpLog::default(),
        bare_runs: Samples::default(),
    };
    let started = Instant::now();
    let mut op = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let treaty = treaties[op % 3];
        let (timed_quote, secs) = rec.span("portfolio", "quote", op as u64, || {
            timed(|| world.quoter.quote(treaty, &world.elts))
        });
        stats.quotes.push(started.elapsed().as_secs_f64(), secs);
        match timed_quote {
            Ok(tq) => {
                ctx.check(
                    tq.quote.gross_premium >= tq.quote.expected_loss
                        && tq.quote.expected_loss > 0.0,
                    "premium must be at least a positive expected loss",
                );
                let expected = *first[op % 3].get_or_insert(tq.quote);
                ctx.check(
                    expected == tq.quote,
                    "repeated quotes of one treaty must be identical",
                );
            }
            Err(err) => ctx.check(false, &format!("quote failed: {err}")),
        }
        if bare {
            let layered = world
                .input
                .with_layers(vec![treaty_layer(&treaty, &world.elts)])
                .expect("valid layer");
            let (_, secs) = rec.span("engine", "parallel.run", op as u64, || {
                timed(|| black_box(ParallelEngine::new().run(&layered)))
            });
            stats.bare_runs.push(secs);
        }
        op += 1;
    }
    stats
}

/// Bit-correctness on a trial slice small enough to recompute
/// sequentially: parallel ≡ sequential YLT, and every treaty's quote equals
/// sequential engine + pricing.
fn verify(ctx: &mut Ctx, world: &World) {
    let trials = world.input.num_trials().min(2_000);
    let slice = world
        .input
        .with_yet_slice(world.input.yet().slice_trials(0..trials));
    let sequential = SequentialEngine::new().run(&slice);
    let parallel = ParallelEngine::new().run(&slice);
    ctx.check(
        sequential.max_abs_difference(&parallel) == 0.0,
        "parallel YLT must equal the sequential YLT bit for bit",
    );
    let quoter = RealTimeQuoter::new(&world.input, Some(trials), PricingConfig::default())
        .expect("default pricing");
    for treaty in treaties() {
        let quoted = quoter.quote(treaty, &world.elts).map(|tq| tq.quote);
        let reference = reference_quote(&slice, &treaty, &world.elts);
        ctx.check(
            quoted.as_ref().ok() == Some(&reference),
            "a quote must equal sequential engine + pricing",
        );
    }
}

/// Engine variants and the Fig. 6b phase shares on the workload's input.
/// The measured loops compute on one thread; here the parallel variants
/// get `nproc` explicitly, so scaling stays a (noisy) row of the ledger.
fn probe_engines(ctx: &mut Ctx, world: &World) {
    let rec = ctx.rec.clone();
    let threads = nproc();
    let trials = world.input.num_trials();
    let input = &world.input;
    let rate = |secs: f64| trials as f64 / secs;

    let (_, seq) = rec.span("engine", "sequential.run", 0, || {
        timed(|| black_box(SequentialEngine::new().run(input)))
    });
    let (_, par) = rec.span("engine", "parallel.run", 0, || {
        timed(|| black_box(ParallelEngine::with_threads(threads).run(input)))
    });
    let (_, chunked) = rec.span("engine", "chunked.run", 0, || {
        timed(|| black_box(ChunkedEngine::with_threads(64, threads).run(input)))
    });
    let streaming_engine = StreamingEngine {
        block_size: (trials / 4).max(1),
        threads,
    };
    let (_, streaming) = rec.span("engine", "streaming.run_with", 0, || {
        timed(|| black_box(streaming_engine.run_summarized(input)))
    });
    ctx.set("engine.sequential.trials_per_s", rate(seq));
    ctx.set("engine.parallel.trials_per_s", rate(par));
    ctx.set("engine.chunked.trials_per_s", rate(chunked));
    ctx.set("engine.streaming.trials_per_s", rate(streaming));
    // Base: the sequential engine's rate times the threads asked for.
    ctx.set("engine.parallel_efficiency", seq / (par * threads as f64));

    let (_, timer) = rec.span("engine", "sequential.run_instrumented", 0, || {
        SequentialEngine::new().run_instrumented(input)
    });
    let phases = PhaseBreakdown::from_timer(&timer);
    let lookup_share = phases.share_of(PHASE_LOOKUP);
    ctx.set(
        "engine.phase.event_fetch_share",
        phases.share_of(PHASE_EVENT_FETCH),
    );
    ctx.set("engine.phase.elt_lookup_share", lookup_share);
    ctx.set(
        "engine.phase.financial_terms_share",
        phases.share_of(PHASE_FINANCIAL_TERMS),
    );
    ctx.set(
        "engine.phase.layer_terms_share",
        phases.share_of(PHASE_LAYER_TERMS),
    );
    let largest = [PHASE_EVENT_FETCH, PHASE_FINANCIAL_TERMS, PHASE_LAYER_TERMS]
        .iter()
        .all(|p| phases.share_of(p) <= lookup_share);
    ctx.check(
        largest,
        "ELT lookup must be the largest Fig. 6b phase share",
    );
}

/// Replays the workload's own event-id stream through each lookup
/// structure, built over the first ELT's records.
fn probe_lookups(ctx: &mut Ctx, world: &World) {
    let rec = ctx.rec.clone();
    let catalog = world.input.yet().catalog_size();
    let table = &world.input.elts()[0].lookup;
    let pairs: Vec<(u32, f64)> = (0..catalog)
        .map(|event| (event, table.get(event)))
        .filter(|(_, loss)| *loss != 0.0)
        .collect();
    let occurrences = world.input.yet().occurrences_flat();
    let replay = &occurrences[..occurrences.len().min(4_000_000)];
    let mut reference_sum = None;
    for kind in LookupKind::ALL {
        let lookup = PreparedLookup::build(kind, &pairs, catalog);
        let (sum, secs) = rec.span("lookup", "replay", 0, || {
            timed(|| {
                let mut sum = 0.0;
                for occurrence in replay {
                    sum += lookup.get(occurrence.event);
                }
                black_box(sum)
            })
        });
        let expected = *reference_sum.get_or_insert(sum);
        ctx.check(
            sum == expected,
            "every lookup structure must return the same losses",
        );
        let name = match kind {
            LookupKind::Direct => "lookup.direct.mlookups_per_s",
            LookupKind::Sorted => "lookup.sorted.mlookups_per_s",
            LookupKind::Hashed => "lookup.hashed.mlookups_per_s",
            LookupKind::Cuckoo => "lookup.cuckoo.mlookups_per_s",
        };
        ctx.set(name, replay.len() as f64 / secs / 1e6);
    }
    ctx.set(
        "lookup.direct.table_mb",
        world.input.lookup_memory_bytes() as f64 / 1e6,
    );
}

/// Simulated Tesla C2075 seconds for this input: model output, so it
/// repeats exactly — the drift guard for the paper's Fig. 6a rows.
fn probe_gpusim(ctx: &mut Ctx, world: &World) {
    let rec = ctx.rec.clone();
    let executor = Executor::tesla_c2075();
    for (name, variant, block) in [
        ("gpusim.basic_sim_s", GpuVariant::Basic, 256),
        (
            "gpusim.chunked_sim_s",
            GpuVariant::Chunked { chunk_size: 4 },
            64,
        ),
    ] {
        let launched = rec.span("gpusim", "run_gpu_analysis", 0, || {
            run_gpu_analysis(
                &executor,
                &world.input,
                variant,
                LaunchConfig::with_block_size(block),
            )
        });
        match launched {
            Ok((_, launches)) => ctx.set(name, total_simulated_seconds(&launches)),
            Err(err) => ctx.check(false, &format!("simulated launch failed: {err}")),
        }
    }
}

pub fn run(ctx: &mut Ctx) {
    let (seed, scale, seconds) = (ctx.args.seed, ctx.scale(), ctx.args.seconds);
    let rec = ctx.rec.clone();
    if !ctx.args.trace {
        let world = ctx.setup(|| build(seed, scale));
        // The first quote pays the page faults of the fresh tables.
        let _ = world.quoter.quote(treaties()[0], &world.elts);
        let stats = quote_loop(ctx, &world, seconds, false);
        // A slice holds three or four quotes: its tail is its slowest.
        ctx.set_loop_metrics(&stats.quotes, 100.0);
        verify(ctx, &world);
        return;
    }

    rec.set_enabled(true);
    let root = rec.enter("bench", "quote_paper", 0);
    let world = ctx.setup(|| rec.span("eventgen", "build_input", 0, || build(seed, scale)));
    let build_s = ctx.get("setup_s").expect("set-up was timed");
    ctx.set("eventgen.yet_build_s", build_s);
    ctx.set(
        "eventgen.occurrences_per_s",
        world.input.yet().total_events() as f64 / build_s,
    );
    let _ = rec.span("portfolio", "quote", u64::MAX, || {
        world.quoter.quote(treaties()[0], &world.elts)
    });

    let untraced = rec.muted("untraced_loop", || {
        quote_loop(ctx, &world, seconds / 4.0, false)
    });
    let traced = quote_loop(ctx, &world, seconds / 2.0, true);
    ctx.set(
        "bench.trace_overhead_ratio",
        traced.quotes.latencies().median() / untraced.quotes.latencies().median(),
    );
    let quote_s = traced.quotes.latencies().median();
    ctx.set("quote_s", quote_s);
    ctx.set(
        "portfolio.pricing_ms",
        (quote_s - traced.bare_runs.median()) * 1e3,
    );
    let lookups = world.input.total_lookups();
    ctx.set("engine.lookups", lookups as f64);
    ctx.set(
        "engine.mlookups_per_s",
        lookups as f64 / traced.bare_runs.median() / 1e6,
    );

    probe_engines(ctx, &world);
    probe_lookups(ctx, &world);
    probe_gpusim(ctx, &world);
    rec.span("bench", "verify", 0, || verify(ctx, &world));
    ctx.finish_trace(root);
}
