//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics.  `BENCHMARK.json` is this file
//! rendered by `ledger manifest`; `tests/smoke.rs` keeps the two equal.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "quote_paper",
        "paper-shaped quotes (2.5K trials x 1000 events x 15 ELTs over a 200K catalog): engine, lookup and finterms do all the work, store and server none",
    ),
    (
        "book_materialise",
        "wide shallow book streamed into a store file, committed and reopened: the riskstore write path dominates, the engine is light",
    ),
    (
        "analyst_scan",
        "pairwise-distinct ad-hoc queries over a 205 MB mapped store, one at a time: every cache misses, plan + SIMD scan is the latency",
    ),
    (
        "dashboard_live",
        "bursts of repeated dashboard panels on a 4-shard catalog while the driver commits layers: caches, batching and refresh do the work, the scan little",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees.  Every workload reports all five; the
/// operation is the workload's own (a quote, a materialisation, a query,
/// a dashboard request) — see README.md.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_p50_ms", "ms", Better::Lower, 0.20),
    e2e("op_tail_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.20),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer figures from the traced run.  A workload reports 0 for a
/// layer it never calls.
pub const PER_LAYER: &[MetricDef] = &[
    // The trace itself.
    lo("bench.traced_wall_s", "s"),
    lo("bench.unattributed_share", "ratio"),
    lo("bench.trace_overhead_ratio", "ratio"),
    lo("trace.self_s.bench", "s"),
    lo("trace.self_s.eventgen", "s"),
    lo("trace.self_s.engine", "s"),
    lo("trace.self_s.lookup", "s"),
    lo("trace.self_s.portfolio", "s"),
    lo("trace.self_s.gpusim", "s"),
    lo("trace.self_s.riskstore", "s"),
    lo("trace.self_s.riskquery", "s"),
    lo("trace.self_s.riskserve", "s"),
    lo("trace.self_s.tcp", "s"),
    // The workload's own end-to-end figures under their issue names.
    lo("quote_s", "s"),
    lo("materialise_s", "s"),
    hi("ingest_mb_per_s", "MB/s"),
    lo("cold_open_ms", "ms"),
    lo("store_amplification", "ratio"),
    hi("scan_gb_per_s", "GB/s"),
    lo("query_p50_ms", "ms"),
    lo("query_p99_ms", "ms"),
    hi("serve_qps", "1/s"),
    lo("serve_p99_ms", "ms"),
    lo("wire_p50_ms", "ms"),
    // eventgen / bench inputs.
    lo("eventgen.yet_build_s", "s"),
    hi("eventgen.occurrences_per_s", "1/s"),
    // lookup.
    hi("lookup.direct.mlookups_per_s", "M/s"),
    hi("lookup.sorted.mlookups_per_s", "M/s"),
    hi("lookup.hashed.mlookups_per_s", "M/s"),
    hi("lookup.cuckoo.mlookups_per_s", "M/s"),
    lo("lookup.direct.table_mb", "MB"),
    // engine.
    hi("engine.sequential.trials_per_s", "1/s"),
    hi("engine.parallel.trials_per_s", "1/s"),
    hi("engine.chunked.trials_per_s", "1/s"),
    hi("engine.streaming.trials_per_s", "1/s"),
    hi("engine.parallel_efficiency", "ratio"),
    lo("engine.lookups", "count"),
    hi("engine.mlookups_per_s", "M/s"),
    lo("engine.phase.event_fetch_share", "ratio"),
    lo("engine.phase.elt_lookup_share", "ratio"),
    lo("engine.phase.financial_terms_share", "ratio"),
    lo("engine.phase.layer_terms_share", "ratio"),
    lo("engine.materialise_share", "ratio"),
    // finterms / metrics / portfolio.
    lo("portfolio.pricing_ms", "ms"),
    // gpusim (model output: repeats exactly).
    lo("gpusim.basic_sim_s", "s"),
    lo("gpusim.chunked_sim_s", "s"),
    // riskstore.
    lo("riskstore.push_block_s", "s"),
    lo("riskstore.finish_s", "s"),
    lo("riskstore.commits", "count"),
    lo("riskstore.file_bytes", "bytes"),
    hi("riskstore.append_mb_per_s", "MB/s"),
    lo("riskstore.commit_ms", "ms"),
    lo("riskstore.open_mapped_ms", "ms"),
    lo("riskstore.open_loaded_ms", "ms"),
    lo("riskstore.refresh_noop_us", "us"),
    lo("riskstore.refresh_commit_ms", "ms"),
    // riskquery.
    lo("riskquery.parse_us", "us"),
    lo("riskquery.execute_ms", "ms"),
    lo("riskquery.first_query_ms", "ms"),
    lo("riskquery.session_fused_ms", "ms"),
    lo("riskquery.partial_scan_ms", "ms"),
    lo("riskquery.combine_ms", "ms"),
    lo("riskquery.bytes_scanned", "bytes"),
    hi("riskquery.kernel.scalar_gb_per_s", "GB/s"),
    hi("riskquery.kernel.sse2_gb_per_s", "GB/s"),
    hi("riskquery.kernel.avx_gb_per_s", "GB/s"),
    hi("riskquery.kernel.avx512_gb_per_s", "GB/s"),
    hi("host.copy_gb_per_s", "GB/s"),
    hi("riskquery.scan_ceiling_ratio", "ratio"),
    // riskserve.
    lo("riskserve.submit_us", "us"),
    hi("riskserve.mean_batch", "count"),
    lo("riskserve.batches", "count"),
    lo("riskserve.max_queue_depth", "count"),
    hi("riskserve.cache_hit_ratio", "ratio"),
    hi("riskserve.partial_hit_ratio", "ratio"),
    lo("riskserve.fused_partial_scans", "count"),
    lo("riskserve.refreshes", "count"),
    lo("riskserve.stage_queue_us", "us"),
    lo("riskserve.stage_cache_lookup_us", "us"),
    lo("riskserve.stage_scan_us", "us"),
    lo("riskserve.stage_scan_shard_us", "us"),
    lo("riskserve.stage_stitch_us", "us"),
    lo("riskserve.stage_finalize_us", "us"),
    lo("riskserve.stage_refresh_probe_us", "us"),
    lo("riskserve.batch_exec_us", "us"),
    lo("riskserve.commit_visible_ms", "ms"),
    // riskserve::tcp + riskclient.
    hi("riskserve.tcp.qps", "1/s"),
    lo("riskserve.tcp.p99_us", "us"),
    lo("riskserve.tcp.overhead_us", "us"),
    // telemetry.
    lo("telemetry.trace_overhead_ratio", "ratio"),
];

pub fn is_declared(name: &str) -> bool {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .any(|def| def.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|def| def.name == name)
}

/// The `trace.self_s.*` metric of a span layer.
pub fn self_time_metric(layer: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|def| def.name)
        .find(|name| name.strip_prefix("trace.self_s.") == Some(layer))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"ledger/Cargo.toml\", \"--bin\", \"ledger\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"ledger\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, def) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            def.name,
            def.unit,
            def.better.name(),
            def.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, def) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            def.name,
            def.unit,
            def.better.name()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
