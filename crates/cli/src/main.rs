//! `catrisk` — command-line front end for the aggregate risk analysis
//! library.
//!
//! Subcommands:
//!
//! * `demo` — run the full synthetic pipeline (catalog → exposures → ELTs →
//!   YET → aggregate analysis → risk report);
//! * `quote` — interactive-speed quoting of a Cat XL layer with varying
//!   terms (the paper's real-time pricing scenario);
//! * `query` — ad-hoc aggregate risk queries (filters, group-bys, EP
//!   curves, VaR/TVaR, PML) over a columnar YLT store;
//! * `store` — persist engine results in an on-disk columnar store
//!   (`store write`, incremental) and query it back (`store query`);
//! * `serve` — a micro-batched TCP query server over a persistent store
//!   (concurrent requests coalesce into fused scans);
//! * `loadgen` — drive open-loop load at a running `serve` instance and
//!   print throughput and latency percentiles;
//! * `stats` — scrape a running `serve` instance's telemetry (counters,
//!   per-stage latency histograms, the flight-recorder event ring);
//! * `info` — print the simulated device and the SIMD level, worker
//!   threads and store backing this process runs with.
//!
//! Run `catrisk <command> --help` for the options of each command.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
