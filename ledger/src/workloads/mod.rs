//! The four workloads.  Each sets its inputs up from the seed, measures
//! for `--seconds`, checks its outputs and leaves its metrics in the
//! context.

mod analyst_scan;
mod book_materialise;
mod dashboard_live;
mod quote_paper;

use catrisk_riskserve::telemetry::stage;
use catrisk_riskserve::{Server, ServerConfig, SourceProvider};

use crate::harness::Ctx;

pub fn find(name: &str) -> Option<fn(&mut Ctx)> {
    match name {
        "quote_paper" => Some(quote_paper::run),
        "book_materialise" => Some(book_materialise::run),
        "analyst_scan" => Some(analyst_scan::run),
        "dashboard_live" => Some(dashboard_live::run),
        _ => None,
    }
}

/// One driver, one worker: the driver blocks on every reply, and the
/// worker executes each batch itself (the rayon pool is one thread wide).
fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// The `riskserve.stage_*` rows of both serving workloads: p50 of the
/// server's public stage histograms, in microseconds.
fn set_stage_metrics<P: SourceProvider>(ctx: &mut Ctx, server: &Server<P>) {
    let metrics = server.metrics();
    for (name, stage_name) in [
        ("riskserve.stage_queue_us", stage::QUEUE),
        ("riskserve.stage_cache_lookup_us", stage::CACHE_LOOKUP),
        ("riskserve.stage_scan_us", stage::SCAN),
        ("riskserve.stage_scan_shard_us", stage::SCAN_SHARD),
        ("riskserve.stage_stitch_us", stage::STITCH),
        ("riskserve.stage_finalize_us", stage::FINALIZE),
        ("riskserve.stage_refresh_probe_us", stage::REFRESH_PROBE),
        ("riskserve.batch_exec_us", stage::BATCH_EXEC),
    ] {
        let p50 = metrics
            .histogram(stage_name)
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.percentile(50.0) as f64);
        ctx.set(name, p50);
    }
}
