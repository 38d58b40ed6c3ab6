//! `figures` — regenerates the data series behind every table and figure of
//! the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p catrisk-bench --bin figures -- all
//! cargo run --release -p catrisk-bench --bin figures -- fig4 fig5a --scale medium
//! ```
//!
//! Each subcommand prints one table of rows (the series a figure plots).
//! CPU engines report wall-clock seconds on this host; GPU kernels report
//! the simulated Tesla C2075 time from `catrisk-gpusim`, plus an
//! extrapolation to the paper-scale workload (1 M trials × 1000 events × 15
//! ELTs) so the numbers can be read next to the paper's.

use std::time::Instant;

use catrisk_bench::{build_input, WorkloadSpec};
use catrisk_engine::chunked::ChunkedEngine;
use catrisk_engine::input::AnalysisInput;
use catrisk_engine::parallel::ParallelEngine;
use catrisk_engine::phases::PhaseBreakdown;
use catrisk_engine::sequential::SequentialEngine;
use catrisk_finterms::treaty::Treaty;
use catrisk_gpusim::executor::Executor;
use catrisk_gpusim::kernel::LaunchConfig;
use catrisk_gpusim::kernels::{run_gpu_analysis, total_simulated_seconds, GpuVariant};
use catrisk_lookup::LookupKind;
use catrisk_portfolio::pricing::PricingConfig;
use catrisk_portfolio::realtime::RealTimeQuoter;

/// Paper-scale lookup count used for extrapolated GPU estimates.
const PAPER_LOOKUPS: f64 = 15.0e9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        eprintln!("usage: figures [--scale small|medium] <table1|fig2a|fig2b|fig2c|fig2d|fig3a|fig3b|fig4|fig5a|fig5b|fig6a|fig6b|ablation-lookup|ablation-realtime|all> ...");
        std::process::exit(if args.is_empty() { 1 } else { 0 });
    }
    let scale = args
        .windows(2)
        .find(|w| w[0] == "--scale")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "small".to_string());
    let base = match scale.as_str() {
        "small" => WorkloadSpec {
            num_events: 100_000,
            trials: 4_000,
            events_per_trial: 1_000.0,
            num_elts: 15,
            elt_records: 10_000,
            num_layers: 1,
            elts_per_layer: 15,
            lookup: LookupKind::Direct,
            seed: 2012,
        },
        "medium" => WorkloadSpec {
            num_events: 500_000,
            trials: 40_000,
            events_per_trial: 1_000.0,
            num_elts: 15,
            elt_records: 15_000,
            num_layers: 1,
            elts_per_layer: 15,
            lookup: LookupKind::Direct,
            seed: 2012,
        },
        other => {
            eprintln!("unknown scale `{other}`");
            std::process::exit(1);
        }
    };

    let mut requested: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with("--") && *s != scale.as_str())
        .collect();
    if requested.contains(&"all") {
        requested = vec![
            "table1",
            "fig2a",
            "fig2b",
            "fig2c",
            "fig2d",
            "fig3a",
            "fig3b",
            "fig4",
            "fig5a",
            "fig5b",
            "fig6a",
            "fig6b",
            "ablation-lookup",
            "ablation-realtime",
        ];
    }
    println!("# catrisk figure harness (scale = {scale})");
    println!(
        "# base workload: {} trials x {:.0} events/trial, {} ELTs/layer, catalog {}",
        base.trials, base.events_per_trial, base.elts_per_layer, base.num_events
    );
    let mut ok = true;
    for figure in requested {
        match figure {
            "table1" => table1(),
            "fig2a" => fig2a(&base),
            "fig2b" => fig2b(&base),
            "fig2c" => fig2c(&base),
            "fig2d" => fig2d(&base),
            "fig3a" => fig3a(&base),
            "fig3b" => fig3b(&base),
            "fig4" => fig4(&base),
            "fig5a" => fig5a(&base),
            "fig5b" => fig5b(&base),
            "fig6a" => fig6a(&base),
            "fig6b" => fig6b(&base),
            "ablation-lookup" => ablation_lookup(&base),
            "ablation-realtime" => ok &= ablation_realtime(&base),
            other => eprintln!("unknown figure `{other}` (skipped)"),
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

fn wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn table1() {
    println!("\n## Table I — layer terms applicable to aggregate risk analysis");
    println!("{:<10} {:<22} description", "notation", "term");
    println!(
        "{:<10} {:<22} retention/deductible of the insured for an individual occurrence loss",
        "TOccR", "Occurrence Retention"
    );
    println!(
        "{:<10} {:<22} limit the insurer will pay for occurrence losses in excess of the retention",
        "TOccL", "Occurrence Limit"
    );
    println!(
        "{:<10} {:<22} retention/deductible of the insured for an annual cumulative loss",
        "TAggR", "Aggregate Retention"
    );
    println!("{:<10} {:<22} limit the insurer will pay for annual cumulative losses in excess of the aggregate retention", "TAggL", "Aggregate Limit");
}

fn run_sequential_seconds(spec: &WorkloadSpec) -> f64 {
    let input = build_input(spec);
    // Best of two runs to damp scheduling noise in the single-shot sweeps.
    let (_, first) = wall(|| SequentialEngine::new().run(&input));
    let (_, second) = wall(|| SequentialEngine::new().run(&input));
    first.min(second)
}

fn fig2a(base: &WorkloadSpec) {
    println!("\n## Fig 2a — sequential runtime vs ELTs per layer (paper: 3..15, linear)");
    println!("{:>14} {:>12}", "elts/layer", "seconds");
    for elts in [3, 6, 9, 12, 15] {
        let spec = base.with_elts_per_layer(elts);
        println!("{elts:>14} {:>12.3}", run_sequential_seconds(&spec));
    }
}

fn fig2b(base: &WorkloadSpec) {
    println!("\n## Fig 2b — sequential runtime vs number of trials (paper: 200k..1M, linear)");
    println!("{:>14} {:>12}", "trials", "seconds");
    for fraction in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let trials = ((base.trials as f64) * fraction) as usize;
        let spec = base.with_trials(trials.max(1));
        println!("{trials:>14} {:>12.3}", run_sequential_seconds(&spec));
    }
}

fn fig2c(base: &WorkloadSpec) {
    println!("\n## Fig 2c — sequential runtime vs number of layers (paper: 1..5, linear)");
    println!("{:>14} {:>12}", "layers", "seconds");
    for layers in 1..=5 {
        let spec = base.with_layers(layers);
        println!("{layers:>14} {:>12.3}", run_sequential_seconds(&spec));
    }
}

fn fig2d(base: &WorkloadSpec) {
    println!("\n## Fig 2d — sequential runtime vs events per trial (paper: 800..1200, linear)");
    println!("{:>14} {:>12}", "events/trial", "seconds");
    for events in [800.0, 900.0, 1000.0, 1100.0, 1200.0] {
        // The paper runs this sweep at a reduced trial count (100k of 1M).
        let spec = base
            .with_events_per_trial(events)
            .with_trials(base.trials / 2);
        println!("{events:>14.0} {:>12.3}", run_sequential_seconds(&spec));
    }
}

fn fig3a(base: &WorkloadSpec) {
    println!("\n## Fig 3a — multi-core runtime vs cores (paper: 1.5x @2, 2.2x @4, 2.6x @8)");
    let input = build_input(base);
    let (_, t1) = wall(|| ParallelEngine::with_threads(1).run(&input));
    println!("{:>8} {:>12} {:>10}", "cores", "seconds", "speedup");
    println!("{:>8} {:>12.3} {:>10.2}", 1, t1, 1.0);
    for threads in [2, 4, 8] {
        let (_, t) = wall(|| ParallelEngine::with_threads(threads).run(&input));
        println!("{threads:>8} {t:>12.3} {:>10.2}", t1 / t);
    }
}

fn fig3b(base: &WorkloadSpec) {
    println!("\n## Fig 3b — runtime vs total logical threads on 8 cores (paper: 135s -> 125s @ 2048 threads)");
    let input = build_input(base);
    println!("{:>16} {:>12}", "total threads", "seconds");
    for items_per_core in [1usize, 4, 16, 64, 256] {
        let engine = ParallelEngine::oversubscribed(8, items_per_core);
        let (_, t) = wall(|| engine.run(&input));
        println!("{:>16} {t:>12.3}", 8 * items_per_core);
    }
}

fn gpu_row(label: String, simulated: f64, input: &AnalysisInput) {
    let lookups = input.total_lookups() as f64;
    let paper_estimate = simulated * (PAPER_LOOKUPS / lookups);
    println!("{label} {simulated:>14.4} {paper_estimate:>18.1}");
}

fn fig4(base: &WorkloadSpec) {
    println!("\n## Fig 4 — GPU basic kernel vs threads per block (paper: best at 256, diminishing beyond)");
    let input = build_input(base);
    let executor = Executor::tesla_c2075();
    println!(
        "{:>14} {:>14} {:>18}",
        "threads/block", "sim seconds", "est. paper-scale s"
    );
    for tpb in [128u32, 192, 256, 320, 384, 512, 640] {
        let (_, launches) = run_gpu_analysis(
            &executor,
            &input,
            GpuVariant::Basic,
            LaunchConfig::with_block_size(tpb),
        )
        .expect("launch");
        gpu_row(
            format!("{tpb:>14}"),
            total_simulated_seconds(&launches),
            &input,
        );
    }
}

fn fig5a(base: &WorkloadSpec) {
    println!("\n## Fig 5a — GPU chunked kernel vs chunk size at 64 threads/block");
    println!("##          (paper: 38.47s -> 22.72s at chunk 4, flat to 12, degrades beyond)");
    let input = build_input(base);
    let executor = Executor::tesla_c2075();
    println!(
        "{:>14} {:>14} {:>18}",
        "chunk size", "sim seconds", "est. paper-scale s"
    );
    for chunk in [1usize, 2, 4, 6, 8, 10, 12, 14, 16, 24, 32] {
        let (_, launches) = run_gpu_analysis(
            &executor,
            &input,
            GpuVariant::Chunked { chunk_size: chunk },
            LaunchConfig::with_block_size(64),
        )
        .expect("launch");
        gpu_row(
            format!("{chunk:>14}"),
            total_simulated_seconds(&launches),
            &input,
        );
    }
}

fn fig5b(base: &WorkloadSpec) {
    println!("\n## Fig 5b — GPU chunked kernel vs threads per block at chunk size 4");
    println!("##          (paper: max 192 threads, small gradual improvement)");
    let input = build_input(base);
    let executor = Executor::tesla_c2075();
    println!(
        "{:>14} {:>14} {:>18}",
        "threads/block", "sim seconds", "est. paper-scale s"
    );
    for tpb in [32u32, 64, 96, 128, 160, 192] {
        let (_, launches) = run_gpu_analysis(
            &executor,
            &input,
            GpuVariant::Chunked { chunk_size: 4 },
            LaunchConfig::with_block_size(tpb),
        )
        .expect("launch");
        gpu_row(
            format!("{tpb:>14}"),
            total_simulated_seconds(&launches),
            &input,
        );
    }
}

fn fig6a(base: &WorkloadSpec) {
    println!("\n## Fig 6a — total time per engine (paper: GPU basic 3.2x, GPU chunked 5.4x vs 8-core CPU)");
    let input = build_input(base);
    let lookups = input.total_lookups() as f64;
    let executor = Executor::tesla_c2075();

    let (_, t_seq) = wall(|| SequentialEngine::new().run(&input));
    let (_, t_par1) = wall(|| ParallelEngine::with_threads(1).run(&input));
    let (_, t_par) = wall(|| ParallelEngine::with_threads(8).run(&input));
    let (_, t_all) = wall(|| ParallelEngine::new().run(&input));
    let (_, t_chunk_cpu) = wall(|| ChunkedEngine::new(64).run(&input));
    let (_, basic) = run_gpu_analysis(
        &executor,
        &input,
        GpuVariant::Basic,
        LaunchConfig::with_block_size(256),
    )
    .expect("launch");
    let (_, chunked) = run_gpu_analysis(
        &executor,
        &input,
        GpuVariant::Chunked { chunk_size: 4 },
        LaunchConfig::with_block_size(64),
    )
    .expect("launch");
    let t_basic = total_simulated_seconds(&basic);
    let t_chunked = total_simulated_seconds(&chunked);

    println!(
        "{:<26} {:>12} {:>10} {:>8} {:>20}",
        "engine", "seconds", "speed-up", "base", "est. paper-scale s"
    );
    // The parallel engine's kernel differs from the sequential engine's (one
    // collapsed-table read per occurrence, not one lookup per ELT), so its
    // multi-core speed-up is taken over its own one-thread run, as in Fig. 3.
    let row = |engine: &str, t: f64, base: &str, t_base: f64| {
        println!(
            "{engine:<26} {t:>12.3} {:>10.2} {base:>8} {:>20.1}",
            t_base / t,
            t * PAPER_LOOKUPS / lookups
        );
    };
    row("sequential (wall)", t_seq, "seq", t_seq);
    row("parallel 1 core (wall)", t_par1, "seq", t_seq);
    row("parallel 8 cores (wall)", t_par, "par-1", t_par1);
    row("parallel all cores (wall)", t_all, "par-1", t_par1);
    row("chunked cpu (wall)", t_chunk_cpu, "seq", t_seq);
    row("gpu basic (simulated)", t_basic, "seq", t_seq);
    row("gpu chunked (simulated)", t_chunked, "seq", t_seq);
    println!(
        "(simulated GPU rows are Tesla C2075 model time; CPU rows are wall clock on this host)"
    );
}

fn fig6b(base: &WorkloadSpec) {
    println!("\n## Fig 6b — share of time per phase (paper: ~78% ELT lookup)");
    let input = build_input(base);
    let (_, timer) = SequentialEngine::new().run_instrumented(&input);
    let breakdown = PhaseBreakdown::from_timer(&timer);
    print!("{}", breakdown.to_table());
}

fn ablation_lookup(base: &WorkloadSpec) {
    println!("\n## Ablation — ELT lookup structure (paper §III.B design discussion)");
    println!(
        "{:<10} {:>12} {:>10} {:>16}",
        "structure", "seconds", "vs direct", "lookup mem (MB)"
    );
    let mut direct_time = None;
    for kind in LookupKind::ALL {
        let spec = base.with_lookup(kind);
        let input = build_input(&spec);
        let mem = input.lookup_memory_bytes() as f64 / 1.0e6;
        // The per-ELT reference engine: the production kernel reads a
        // collapsed table, where the structures differ only in build time.
        let (_, t) = wall(|| SequentialEngine::new().run(&input));
        let baseline = *direct_time.get_or_insert(t);
        println!(
            "{:<10} {t:>12.3} {:>10.2} {mem:>16.1}",
            kind.label(),
            t / baseline
        );
    }
}

/// Returns `false` if any row printed a zero premium: a treaty that never
/// attaches prices nothing, and the latency column would time a no-op.
fn ablation_realtime(base: &WorkloadSpec) -> bool {
    println!("\n## Ablation — real-time pricing latency vs trial count (paper §IV: 50k trials, sub-second)");
    let spec = WorkloadSpec {
        trials: base.trials.max(50_000),
        ..*base
    };
    let input = build_input(&spec);
    println!("{:>10} {:>14} {:>16}", "trials", "quote seconds", "premium");
    let mut attached = true;
    for trials in [1_000usize, 5_000, 10_000, 50_000] {
        let trials = trials.min(input.num_trials());
        let quoter =
            RealTimeQuoter::new(&input, Some(trials), PricingConfig::default()).expect("quoter");
        let quoted = quoter
            .quote(
                // ELT financial terms cap each loss near 4.5 M, so the
                // treaty must attach below that (the ledger's
                // `quote_paper` terms).
                Treaty::cat_xl(4.0e6, 4.0e6),
                &(0..spec.elts_per_layer).collect::<Vec<_>>(),
            )
            .expect("quote");
        println!(
            "{trials:>10} {:>14.3} {:>16.0}",
            quoted.elapsed.as_secs_f64(),
            quoted.quote.gross_premium
        );
        attached &= quoted.quote.gross_premium >= 0.5;
    }
    if !attached {
        eprintln!("error: ablation-realtime printed a zero premium (the treaty never attached)");
    }
    attached
}
