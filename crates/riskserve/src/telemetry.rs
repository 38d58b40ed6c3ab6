//! The server's telemetry bundle: stage histograms, the metric registry
//! and the flight recorder.
//!
//! Every [`Server`](crate::server::Server) owns one `ServerTelemetry` —
//! a per-server [`Registry`] (never a process global, so in-process
//! servers running side by side cannot contaminate each other's counts)
//! plus resolved `Arc` handles for each stage of the batch pipeline, so
//! the hot path never takes the registry's name-lookup mutex.
//!
//! The stage taxonomy, metric names and flight-recorder event schema are
//! documented normatively in `docs/OBSERVABILITY.md`.

use std::sync::Arc;

use catrisk_telemetry::{FlightRecorder, Histogram, Registry, TraceStore};

/// Metric names of the per-stage latency histograms (all in microseconds).
///
/// These names are the wire contract of the `metrics` protocol command:
/// loadgen, the CLI `stats` subcommand and the CI smokes look metrics up
/// by these exact strings.
pub mod stage {
    /// Admission: one sample per `submit` call (accepted or rejected),
    /// covering validation plus queue insertion.
    pub const ADMISSION: &str = "stage_admission_micros";
    /// Queue wait: one sample per admitted request, from `submit` to the
    /// start of the batch execution it rode in.  Total count equals
    /// `completed + failed`.
    pub const QUEUE: &str = "stage_queue_micros";
    /// Refresh probe: one sample per batch, the cost of
    /// `SourceProvider::refresh` (header peeks plus any reader refreshes).
    pub const REFRESH_PROBE: &str = "stage_refresh_probe_micros";
    /// Union assembly: one sample per catalog snapshot that assembles a
    /// multi-shard union (concatenating segment tags, or checking that
    /// trial windows agree on them).  The name predates the removal of
    /// the memo it once timed and is kept for the wire.
    pub const SCHEMA_MEMO: &str = "stage_schema_memo_micros";
    /// Result-cache lookup: one sample per batch, the generation-keyed
    /// probe of every unique query under the cache lock.
    pub const CACHE_LOOKUP: &str = "stage_cache_lookup_micros";
    /// Scan: one sample per result-cache **miss** — the end-to-end cost of
    /// answering that unique query by scanning (partial-cache stitch on a
    /// trial-sharded catalog, its share of the fused scan otherwise).
    /// Total count equals the `cache_misses` counter.
    pub const SCAN: &str = "stage_scan_micros";
    /// Fused per-shard rescans: one sample per **fused scan** the
    /// partial-cache planner runs — all of a batch's missing queries on
    /// one shard window share one scan and one sample.  Total count
    /// equals `fused_partial_scans` (and is `<= partial_misses`, with
    /// equality only when no two queries ever miss the same shard
    /// together).
    pub const SCAN_SHARD: &str = "stage_scan_shard_micros";
    /// Stitch: one sample per partial-cache query, the adjacent-window
    /// combine of the per-shard partials.
    pub const STITCH: &str = "stage_stitch_micros";
    /// Finalize: one sample per batch, building every reply (the driver
    /// fulfils the reply slots right after).
    pub const FINALIZE: &str = "stage_finalize_micros";
    /// Whole batch execution: one sample per batch (refresh + cache +
    /// scans + finalize).  This is the value the slow-batch threshold is
    /// compared against.
    pub const BATCH_EXEC: &str = "batch_exec_micros";
    /// Store opens: one sample per shard reader opened (or fully
    /// reloaded) by a catalog.
    pub const STORE_OPEN: &str = "store_open_micros";
    /// Store refreshes: one sample per `StoreReader::refresh` call on a
    /// catalog shard.
    pub const STORE_REFRESH: &str = "store_refresh_micros";
}

/// Resolved telemetry handles shared by the submit path and the workers.
pub(crate) struct ServerTelemetry {
    /// The server's metric registry (counters, gauges and the stage
    /// histograms below).
    pub registry: Arc<Registry>,
    /// Ring buffer of recent structured events.
    pub recorder: Arc<FlightRecorder>,
    /// Batches slower than this many microseconds emit a `slow-batch`
    /// flight-recorder event; 0 disables the check.
    pub slow_batch_threshold_micros: u64,
    /// Retained request traces plus the trace-id allocator.
    pub traces: TraceStore,
    /// Trace every Nth admitted request (1 = every request, 0 = never).
    pub trace_sample_every: u64,
    pub admission: Arc<Histogram>,
    pub queue: Arc<Histogram>,
    pub refresh_probe: Arc<Histogram>,
    pub cache_lookup: Arc<Histogram>,
    pub scan: Arc<Histogram>,
    pub scan_shard: Arc<Histogram>,
    pub stitch: Arc<Histogram>,
    pub finalize: Arc<Histogram>,
    pub batch_exec: Arc<Histogram>,
}

impl ServerTelemetry {
    /// Builds the bundle: a fresh registry, a recorder of the given
    /// capacity, a trace store, and every stage histogram pre-resolved.
    pub fn new(
        recorder_capacity: usize,
        slow_batch_threshold_micros: u64,
        trace_sample_every: u64,
        trace_capacity: usize,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            recorder: Arc::new(FlightRecorder::new(recorder_capacity)),
            slow_batch_threshold_micros,
            traces: TraceStore::new(trace_capacity),
            trace_sample_every,
            admission: registry.histogram(stage::ADMISSION),
            queue: registry.histogram(stage::QUEUE),
            refresh_probe: registry.histogram(stage::REFRESH_PROBE),
            cache_lookup: registry.histogram(stage::CACHE_LOOKUP),
            scan: registry.histogram(stage::SCAN),
            scan_shard: registry.histogram(stage::SCAN_SHARD),
            stitch: registry.histogram(stage::STITCH),
            finalize: registry.histogram(stage::FINALIZE),
            batch_exec: registry.histogram(stage::BATCH_EXEC),
            registry,
        }
    }
}
