//! # catrisk-bench
//!
//! Workload generation, the harness that regenerates every table and
//! figure of the paper's evaluation (Section III), and the ratio gates.
//!
//! The [`workload`] module builds synthetic analysis inputs whose *shape*
//! (trials, events per trial, ELTs per layer, ELT record counts, catalog
//! size, layer count) is controlled exactly — the knobs the paper sweeps in
//! Fig. 2 — without running the full catastrophe-model pipeline, so the
//! benchmarks measure the aggregate risk engine rather than data
//! preparation.  [`workload::build_store`] materialises the same kind of
//! world into the columnar store the gates scan.
//!
//! Every measurement question has exactly one harness.  The paper's
//! evaluation is the `figures` binary under `src/bin/` (one table of rows
//! per subcommand, `figures all` for the lot):
//!
//! | experiment | figures subcommand |
//! |---|---|
//! | Table I | `table1` |
//! | Fig. 2a–d | `fig2a` … `fig2d` |
//! | Fig. 3a–b | `fig3a`, `fig3b` |
//! | Fig. 4 | `fig4` |
//! | Fig. 5a–b | `fig5a`, `fig5b` |
//! | Fig. 6a–b | `fig6a`, `fig6b` |
//! | lookup-structure ablation | `ablation-lookup` |
//! | real-time pricing ablation (§IV) | `ablation-realtime` |
//!
//! Three ratio gates live under `benches/` as plain `fn main()` programs
//! (`cargo bench -p catrisk-bench --bench <name>`); each asserts
//! bit-identity first, then its ratio, and exits non-zero on either:
//!
//! | gate | asserts |
//! |---|---|
//! | `serve_throughput` | micro-batched server ≥ 2× a scan-per-request baseline, telemetry on, and again with tracing at sampling=always |
//! | `scan_kernel` | active SIMD lane width ≥ 1.5× the per-element scalar reference; self-scheduling ≥ 1.2× the static split on a skewed catalog |
//! | `fused_partials` | fused multi-query cell scans ≥ 3× one scan per query, and ≤ 8 cell scans for 50 queries × 4 windows |
//!
//! These are *ratios against an in-gate baseline* on one small fixed
//! shape.  Every absolute number — end to end and per layer — lives in
//! the perf ledger (`ledger/README.md`, `BENCHMARK.json`), which builds
//! its inputs from [`workload::build_input`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod workload;

pub use workload::{build_input, build_store, WorkloadSpec};
