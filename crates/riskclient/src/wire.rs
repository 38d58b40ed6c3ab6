//! The serving protocol's wire-level reply types, shared by every client
//! and by the server that produces them.
//!
//! These types used to live in `catrisk-riskserve`; they moved here so
//! clients (the CLI's `stats` scraper, the load generator, the fleet's
//! health prober) can parse replies without linking the whole serving
//! stack — `catrisk-riskserve` re-exports them at their old paths and
//! remains the crate that *constructs* query/error replies (the
//! server-side constructors need its `Reply`/`ServeError` types).  The
//! normative wire specification is `docs/PROTOCOL.md` at the repository
//! root.

use catrisk_telemetry::{EventRecord, MetricsSnapshot, TraceLookup, TraceRecord};
use serde::{Deserialize, Serialize};

/// Per-request timing attribution, attached to every successful reply.
///
/// `queue_micros` covers admission to batch-execution start — it includes
/// the batch window the scheduler deliberately held the request for.
/// `exec_micros` is the wall-clock of the fused batch scan the request rode
/// in (shared by every request of the batch, not divided among them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestTimings {
    /// Microseconds between `submit` and the start of the batch execution.
    pub queue_micros: u64,
    /// Microseconds the batch execution took.
    pub exec_micros: u64,
    /// Number of requests coalesced into the batch this request rode in.
    pub batch_size: u32,
}

/// A point-in-time copy of the server counters (the `stats` protocol
/// command returns this as JSON).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected by admission control (`Overloaded`).
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error after admission.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch executed.
    pub largest_batch: u64,
    /// Deepest queue observed at submit time.
    pub max_queue_depth: u64,
    /// Unique batch queries answered from the generation-keyed result
    /// cache without scanning.  Post-v1 field: defaults to 0 when absent,
    /// so a newer client can parse an older server's snapshot.
    #[serde(default)]
    pub cache_hits: u64,
    /// Unique batch queries that had to scan (then populated the cache).
    /// Post-v1 field, defaults to 0.
    #[serde(default)]
    pub cache_misses: u64,
    /// Cell partials reused from the cell cache: each hit is one
    /// `(scan spec, cell)` — one shard's trial window or segment range —
    /// that did **not** need rescanning for a query that missed the
    /// result cache.  Only plans cut into more than one cell (multi-shard
    /// catalogs) can hit.  Post-v1 field, defaults to 0.
    #[serde(default)]
    pub partial_hits: u64,
    /// `(scan spec, cell)` pairs that had to be scanned.  Counted on
    /// every topology: a flat store's plans are single cells that are
    /// never cell-cached, so there it equals the missing scan specs.
    /// Post-v1 field, defaults to 0.
    #[serde(default)]
    pub partial_misses: u64,
    /// Fused cell scans actually issued: the grid executor groups all
    /// missing `(scan spec, cell)` pairs of a batch by what they scan
    /// and walks each group's window **once**, so this counts walks, not
    /// pairs — `fused_partial_scans <= partial_misses`, with equality
    /// only when no two missing specs shared a cell.  The
    /// `stage_scan_shard_micros` histogram records exactly one sample per
    /// fused scan, so its count equals this counter.  Post-v1 field,
    /// defaults to 0.
    #[serde(default)]
    pub fused_partial_scans: u64,
    /// Store refreshes that made newly committed segments visible.
    /// Post-v1 field, defaults to 0.
    #[serde(default)]
    pub refreshes: u64,
    /// Requests admitted with a trace id assigned.  With sampling set to
    /// "always" (`trace_sample_every = 1`) this equals `submitted`
    /// exactly — the id is allocated inside the admission critical
    /// section, next to the `submitted` bump.  Post-v1 field, defaults
    /// to 0.
    #[serde(default)]
    pub traces_started: u64,
    /// Completed traces retained by the trace store (recency ring or
    /// slowest pool).  Post-v1 field, defaults to 0.
    #[serde(default)]
    pub traces_retained: u64,
    /// Store files auto-discovered in a watched catalog directory and
    /// added to the serving set mid-run.  Post-v1 field, defaults to 0.
    #[serde(default)]
    pub discovered_stores: u64,
}

impl StatsSnapshot {
    /// Mean requests per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.batches as f64
        }
    }

    /// Fraction of unique batch queries answered from the result cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of probed `(scan spec, cell)` pairs served from cached
    /// cell partials (0 on a flat store, whose plans are never
    /// cell-cached).
    pub fn partial_hit_rate(&self) -> f64 {
        let total = self.partial_hits + self.partial_misses;
        if total == 0 {
            0.0
        } else {
            self.partial_hits as f64 / total as f64
        }
    }
}

/// The `p`-th percentile (0–100) of an **ascending-sorted** sample set,
/// by the nearest-rank method.  Returns 0 for an empty set.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A wire-level error payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable kind: `parse`, `invalid`, `evicted`,
    /// `overloaded`, `shutting-down` or `internal`.
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// One reply line, serialised as a single JSON object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireReply {
    /// False exactly when `error` is set.
    pub ok: bool,
    /// `result`, `pong`, `stats`, `metrics`, `recorder`, `trace`,
    /// `traces`, `bye`, `shutting-down` or `error`.
    pub kind: String,
    /// The query result, for `kind == "result"`.
    pub result: Option<catrisk_riskquery::QueryResult>,
    /// The error payload, for `kind == "error"`.
    pub error: Option<WireError>,
    /// The counters snapshot, for `kind == "stats"`.
    pub stats: Option<StatsSnapshot>,
    /// The metric snapshot, for `kind == "metrics"`.  Post-v1 field: a
    /// v1 server never sends it, so it defaults to `None` on parse.
    #[serde(default)]
    pub metrics: Option<MetricsSnapshot>,
    /// The flight-recorder dump, for `kind == "recorder"`.  Post-v1
    /// field, defaults to `None`.
    #[serde(default)]
    pub recorder: Option<Vec<EventRecord>>,
    /// The execution profile of a traced query (`kind == "result"` with
    /// the `trace` request prefix) or of a `trace <id>` lookup
    /// (`kind == "trace"`).  Post-v1 field, defaults to `None`.
    #[serde(default)]
    pub trace: Option<TraceRecord>,
    /// The slowest retained traces, for `kind == "traces"`.  Post-v1
    /// field, defaults to `None`.
    #[serde(default)]
    pub traces: Option<Vec<TraceRecord>>,
    /// Latency attribution of a `result` reply.
    pub timings: RequestTimings,
}

impl WireReply {
    /// A successful reply skeleton of the given kind with every payload
    /// empty — the base the typed constructors (and the server's
    /// query-reply conversion) fill in.
    pub fn base(kind: &str) -> Self {
        Self {
            ok: true,
            kind: kind.to_string(),
            result: None,
            error: None,
            stats: None,
            metrics: None,
            recorder: None,
            trace: None,
            traces: None,
            timings: RequestTimings::default(),
        }
    }

    /// A `pong` reply.
    pub fn pong() -> Self {
        Self::base("pong")
    }

    /// A counters-snapshot reply.
    pub fn stats(snapshot: StatsSnapshot) -> Self {
        Self {
            stats: Some(snapshot),
            ..Self::base("stats")
        }
    }

    /// A metric-snapshot reply.
    pub fn metrics(snapshot: MetricsSnapshot) -> Self {
        Self {
            metrics: Some(snapshot),
            ..Self::base("metrics")
        }
    }

    /// A flight-recorder dump reply.
    pub fn recorder(events: Vec<EventRecord>) -> Self {
        Self {
            recorder: Some(events),
            ..Self::base("recorder")
        }
    }

    /// The reply to a `trace <id>` lookup: the retained record, or a
    /// typed error distinguishing "was sampled but evicted" from "never
    /// issued".
    pub fn trace_lookup(id: u64, lookup: TraceLookup) -> Self {
        match lookup {
            TraceLookup::Retained(record) => Self {
                trace: Some(record),
                ..Self::base("trace")
            },
            TraceLookup::Evicted => Self::error(
                "evicted",
                format!("trace {id} was recorded but has been evicted from the trace store"),
            ),
            TraceLookup::Unknown => {
                Self::error("invalid", format!("trace id {id} was never issued"))
            }
        }
    }

    /// The reply to `trace slowest [n]`.
    pub fn traces(records: Vec<TraceRecord>) -> Self {
        Self {
            traces: Some(records),
            ..Self::base("traces")
        }
    }

    /// The goodbye reply to `quit`.
    pub fn bye() -> Self {
        Self::base("bye")
    }

    /// The acknowledgement of a `shutdown` request.
    pub fn shutting_down() -> Self {
        Self::base("shutting-down")
    }

    /// An error reply with an explicit kind.
    pub fn error(kind: &str, message: impl Into<String>) -> Self {
        Self {
            ok: false,
            error: Some(WireError {
                kind: kind.to_string(),
                message: message.into(),
            }),
            ..Self::base("error")
        }
    }

    /// Serialises the reply as one line of JSON (no interior newlines —
    /// JSON strings escape them).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire replies always serialise")
    }

    /// Parses one reply line.
    pub fn from_line(line: &str) -> Result<Self, String> {
        serde_json::from_str(line.trim()).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn stats_snapshot_parses_v1_wire_shape() {
        // A protocol-v1 server sends only the seven original counters; every
        // later field must default to 0 instead of failing the parse.
        let v1 = r#"{"submitted":5,"rejected":1,"completed":4,"failed":0,
                     "batches":2,"largest_batch":3,"max_queue_depth":2}"#;
        let snap: StatsSnapshot = serde_json::from_str(v1).expect("v1 stats must parse");
        assert_eq!(snap.submitted, 5);
        assert_eq!(snap.largest_batch, 3);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.refreshes, 0);
        assert_eq!(snap.discovered_stores, 0);
    }

    #[test]
    fn wire_replies_round_trip() {
        let reply = WireReply::error("overloaded", "server overloaded: 64 requests queued");
        let line = reply.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(WireReply::from_line(&line).unwrap(), reply);

        let pong = WireReply::pong().to_line();
        let parsed = WireReply::from_line(&pong).unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.kind, "pong");

        let stats = WireReply::stats(StatsSnapshot::default());
        let parsed = WireReply::from_line(&stats.to_line()).unwrap();
        assert_eq!(parsed.stats, Some(StatsSnapshot::default()));

        assert!(WireReply::from_line("not json").is_err());
    }

    #[test]
    fn v1_replies_without_metrics_fields_still_parse() {
        // A protocol-v1 server's reply has no `metrics` / `recorder`
        // fields; a newer client must parse it with both defaulting to
        // null rather than failing.
        let v1 = r#"{"ok":true,"kind":"pong","result":null,"error":null,
                     "stats":null,
                     "timings":{"queue_micros":0,"exec_micros":0,"batch_size":0}}"#;
        let parsed = WireReply::from_line(v1).expect("v1 reply must parse");
        assert_eq!(parsed.kind, "pong");
        assert_eq!(parsed.metrics, None);
        assert_eq!(parsed.recorder, None);
        assert_eq!(parsed.trace, None);
        assert_eq!(parsed.traces, None);
    }
}
