//! `ledger` — the perf ledger: four pinned, seeded workloads driven through
//! the public entry points of every crate from `eventgen` to `riskclient`.
//!
//! ```text
//! ledger run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!            [--scale full|smoke] [--out FILE]
//! ledger run --all [...]        every workload, untraced then traced
//! ledger names                  every workload and metric name
//! ledger manifest               BENCHMARK.json, from the same tables
//! ledger diff A.jsonl B.jsonl   compare two sets of `--out` results
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics; see
//! README.md for what each means and how the bounds were calibrated.

mod diff;
mod harness;
mod spec;
mod stores;
mod workloads;

use harness::{Ctx, RunArgs, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: ledger run (--workload W | --all) [--seed N] [--seconds S] [--trace 0|1] \
         [--scale full|smoke] [--out FILE]\n       ledger names | manifest | diff A B"
    );
    std::process::exit(2);
}

fn parse_run(args: &[String]) -> (RunArgs, bool) {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 2012,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        out: None,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            all = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => run.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => run.trace = value == "1",
            "--scale" => {
                run.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => usage(),
                }
            }
            "--out" => run.out = Some(value.into()),
            _ => usage(),
        }
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        usage();
    }
    (run, all)
}

/// Runs every workload in turn, each in a process of its own (one process
/// runs one workload, so peak RSS and caches are that workload's alone).
fn run_all(args: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let passthrough: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut code = 0;
    for (workload, _) in spec::WORKLOADS {
        for trace in ["0", "1"] {
            println!("## {workload} --trace {trace}");
            let status = std::process::Command::new(&exe)
                .arg("run")
                .args(&passthrough)
                .args(["--workload", workload, "--trace", trace])
                .status()
                .expect("spawn a workload run");
            if !status.success() {
                code = 1;
            }
        }
    }
    code
}

/// Every measured loop computes on one thread.  On the reference sandbox
/// the second vCPU comes and goes for minutes at a time (a two-thread
/// engine run then takes exactly the sequential time while sequential
/// runs are untouched), which made every gated timing of `quote_paper`
/// swing by 30 % between runs of one binary.  `CATRISK_THREADS` is the
/// repository's existing pool-size setting, read once when the pool first
/// starts; it is set here, before any thread exists.  Scaling across
/// threads is still measured, per layer, by the traced probes that ask
/// for `nproc` threads explicitly.
fn pin_compute_to_one_thread() {
    std::env::set_var("CATRISK_THREADS", "1");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => {
            let (run, all) = parse_run(&args[1..]);
            if all {
                run_all(&args[1..])
            } else {
                let Some(workload) = workloads::find(&run.workload) else {
                    eprintln!("unknown workload `{}`", run.workload);
                    usage();
                };
                pin_compute_to_one_thread();
                let mut ctx = Ctx::new(run);
                workload(&mut ctx);
                ctx.report()
            }
        }
        Some("names") => {
            for (name, _) in spec::WORKLOADS {
                println!("workload {name}");
            }
            for def in spec::END_TO_END {
                println!("end_to_end {} {}", def.name, def.unit);
            }
            for def in spec::PER_LAYER {
                println!("per_layer {} {}", def.name, def.unit);
            }
            0
        }
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            0
        }
        Some("diff") if args.len() == 3 => diff::run(&args[1], &args[2]),
        _ => usage(),
    };
    std::process::exit(code);
}
