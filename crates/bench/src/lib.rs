//! # catrisk-bench
//!
//! Workload generation and the benchmark harness that regenerates every
//! table and figure of the paper's evaluation (Section III).
//!
//! The [`workload`] module builds synthetic analysis inputs whose *shape*
//! (trials, events per trial, ELTs per layer, ELT record counts, catalog
//! size, layer count) is controlled exactly — the knobs the paper sweeps in
//! Fig. 2 — without running the full catastrophe-model pipeline, so the
//! benchmarks measure the aggregate risk engine rather than data
//! preparation.
//!
//! The Criterion benches under `benches/` and the `figures` binary under
//! `src/bin/` consume these workloads:
//!
//! | experiment | bench target | figures subcommand |
//! |---|---|---|
//! | Table I | – (definition) | `figures table1` |
//! | Fig. 2a–d | `fig2_sequential` | `figures fig2a` … `fig2d` |
//! | Fig. 3a–b | `fig3_multicore` | `figures fig3a`, `fig3b` |
//! | Fig. 4 | `fig4_gpu_basic` | `figures fig4` |
//! | Fig. 5a–b | `fig5_gpu_chunked` | `figures fig5a`, `fig5b` |
//! | Fig. 6a–b | `fig6_summary` | `figures fig6a`, `fig6b` |
//! | lookup-structure ablation | – (ledger rows `lookup.*.mlookups_per_s`) | `figures ablation-lookup` |
//! | real-time pricing ablation | `ablation_realtime` | `figures ablation-realtime` |
//!
//! Beyond the paper's figures, the serving stack has its own gates (each
//! asserts bit-identity first, then its ratio):
//!
//! | bench target | measures / gates |
//! |---|---|
//! | `query_engine` | ad-hoc query engine: batched session vs naive per-query scans |
//! | `scan_kernel` | SIMD accumulate kernels per lane width vs the scalar reference (≥1.5×) |
//! | `store_cold_open` | persistent store: cold open, mapped vs loaded backing, first query |
//! | `serve_throughput` | micro-batched server vs a scan-per-request baseline (≥2×, telemetry on) |
//! | `sharded_scan` | segment-axis catalog scan vs the unsharded store |
//! | `trial_sharded_scan` | trial-axis catalog: stitched scan, single-shard refresh rescans one window |
//! | `fused_partials` | fused multi-query cell scans vs one scan per query (≥3×) |
//!
//! These are *ratios against an in-bench baseline*; absolute end-to-end
//! and per-layer numbers live in the perf ledger (`ledger/README.md`,
//! `BENCHMARK.json`).  The stores they scan come from
//! [`workload::build_store`].  Two environment variables support CI smoke
//! runs: `CATRISK_BENCH_SAMPLES` caps sample counts and
//! `CATRISK_BENCH_QUICK=1` shrinks the workloads of the benches that
//! honour it (see the criterion shim for `CATRISK_BENCH_JSON` summary
//! output).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod workload;

pub use workload::{build_input, build_store, WorkloadSpec};
