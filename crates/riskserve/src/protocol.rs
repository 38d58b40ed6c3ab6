//! The line-oriented wire protocol: one query text per line in, one JSON
//! object per line out.
//!
//! **The normative specification of this protocol is
//! `docs/PROTOCOL.md` at the repository root** — framing, the full
//! request grammar, the reply schema field by field, error/`Overloaded`
//! semantics and the versioning rules live there; this module
//! documentation is a working summary, and this module is the
//! implementation the spec's round-trip tests pin.
//!
//! # Request grammar
//!
//! Every request is a single line of UTF-8 text.  A query line is
//!
//! ```text
//! select <aggregates> [where <constraints>] [group by <dimensions>]
//! ```
//!
//! where the three clause bodies use exactly the textual forms of the CLI's
//! `--select` / `--where` / `--group-by` options (they are parsed by the
//! same `catrisk_riskquery::parse` functions):
//!
//! ```text
//! select mean, tvar(0.99), aep(10) where peril=HU|FL loss>=1e6 group by region
//! ```
//!
//! The keywords `select`, `where` and `group` are matched
//! case-insensitively at token boundaries and are reserved: clause bodies
//! never contain them (aggregates are a closed set, constraints always
//! contain `=`, `>` or `<`, dimensions are a closed set).
//!
//! A query line may be prefixed with `trace` to request the server's
//! execution profile alongside the result:
//!
//! ```text
//! trace select mean where peril=HU
//! ```
//!
//! Command lines are recognised instead of a query:
//!
//! * `ping` — liveness probe, answered with a `pong` reply;
//! * `stats` — a snapshot of the server counters;
//! * `metrics` — a snapshot of every metric (counters, gauges and the
//!   per-stage latency histograms); render it as Prometheus text with
//!   [`MetricsSnapshot::to_prometheus`](catrisk_telemetry::MetricsSnapshot::to_prometheus);
//! * `recorder` — the flight recorder's recent structured events;
//! * `recorder since <seq>` — only events with `seq >= <seq>`
//!   (incremental scrape);
//! * `trace <id>` — look up a retained trace by id (an evicted id
//!   answers `error.kind = "evicted"`, an unknown id `"invalid"`);
//! * `trace slowest [n]` — the `n` (default 5) slowest retained traces;
//! * `quit` — close this connection (the server keeps running);
//! * `shutdown` — drain and stop the whole server (the reply is sent
//!   before the listener winds down).
//!
//! Empty (or all-whitespace) lines are ignored.
//!
//! # Reply schema
//!
//! Every reply is one line of JSON (a [`WireReply`]):
//!
//! ```json
//! {"ok":true,"kind":"result","result":{...},"error":null,"stats":null,
//!  "timings":{"queue_micros":184,"exec_micros":950,"batch_size":7}}
//! ```
//!
//! `kind` is one of `result`, `pong`, `stats`, `trace`, `traces`, `bye`,
//! `shutting-down` or `error`.  Failed requests carry `ok=false` and an
//! `error` object whose `kind` is `parse`, `invalid`, `evicted`,
//! `overloaded`, `shutting-down` or `internal` — an overloaded rejection
//! is a well-formed reply, not a dropped connection, so clients can
//! implement typed backoff.

use catrisk_riskquery::{parse_query, Query};

use crate::server::{Reply, ServeError};

// The reply types live in `catrisk-riskclient` (clients parse them
// without linking the serving stack); re-exported here at their
// long-standing paths.  This crate supplies the server-side
// constructors as `From` conversions below — `Reply` and `ServeError`
// are this crate's types, so the impls cannot live client-side.
pub use catrisk_riskclient::{WireError, WireReply};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An ad-hoc query to submit for batched execution.
    Query {
        /// The parsed query.
        query: Query,
        /// True when the line carried the `trace` prefix: the reply
        /// should include the request's execution profile.
        trace: bool,
    },
    /// Liveness probe.
    Ping,
    /// Server-counters snapshot.
    Stats,
    /// Full metric snapshot (counters, gauges, stage histograms).
    Metrics,
    /// Flight-recorder dump.
    Recorder,
    /// Incremental flight-recorder dump: events with `seq >= since`.
    RecorderSince(u64),
    /// Look up one retained trace by id.
    Trace(u64),
    /// The `n` slowest retained traces.
    TraceSlowest(usize),
    /// Close this connection.
    Quit,
    /// Drain and stop the whole server.
    Shutdown,
}

/// Parses one request line.  Returns `Ok(None)` for blank lines.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    match line.to_ascii_lowercase().as_str() {
        "ping" => return Ok(Some(Request::Ping)),
        "stats" => return Ok(Some(Request::Stats)),
        "metrics" => return Ok(Some(Request::Metrics)),
        "recorder" => return Ok(Some(Request::Recorder)),
        "quit" | "bye" => return Ok(Some(Request::Quit)),
        "shutdown" => return Ok(Some(Request::Shutdown)),
        _ => {}
    }
    let first = line.split_whitespace().next().unwrap_or("");
    if first.eq_ignore_ascii_case("trace") {
        return parse_trace_line(&line[first.len()..]).map(Some);
    }
    if first.eq_ignore_ascii_case("recorder") {
        return parse_recorder_since(&line[first.len()..]).map(Some);
    }
    parse_query_line(line).map(|query| {
        Some(Request::Query {
            query,
            trace: false,
        })
    })
}

/// Parses what follows the `trace` keyword: a traced query (`trace
/// select ...`), a lookup (`trace <id>`) or the slowest listing (`trace
/// slowest [n]`).
fn parse_trace_line(rest: &str) -> Result<Request, String> {
    let rest = rest.trim();
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    match tokens.first() {
        None => Err(
            "`trace` needs an argument: `trace select ...`, `trace <id>` or `trace slowest [n]`"
                .to_string(),
        ),
        Some(t) if t.eq_ignore_ascii_case("select") => {
            parse_query_line(rest).map(|query| Request::Query { query, trace: true })
        }
        Some(t) if t.eq_ignore_ascii_case("slowest") => {
            if tokens.len() > 2 {
                return Err("`trace slowest` takes at most one count argument".to_string());
            }
            let n = match tokens.get(1) {
                None => 5,
                Some(raw) => raw
                    .parse::<usize>()
                    .map_err(|_| format!("`trace slowest` count must be a number, got `{raw}`"))?,
            };
            Ok(Request::TraceSlowest(n))
        }
        Some(raw) => {
            if tokens.len() > 1 {
                return Err("`trace <id>` takes exactly one trace id".to_string());
            }
            raw.parse::<u64>().map(Request::Trace).map_err(|_| {
                format!("`trace` expects a numeric id, `slowest` or `select ...`, got `{raw}`")
            })
        }
    }
}

/// Parses what follows the `recorder` keyword when it is not the bare
/// command: only `since <seq>` is recognised.
fn parse_recorder_since(rest: &str) -> Result<Request, String> {
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    match tokens.as_slice() {
        [since, seq] if since.eq_ignore_ascii_case("since") => seq
            .parse::<u64>()
            .map(Request::RecorderSince)
            .map_err(|_| format!("`recorder since` expects a numeric seq, got `{seq}`")),
        _ => Err("after `recorder`, only `since <seq>` is recognised".to_string()),
    }
}

/// Splits a query line into its clauses and builds the [`Query`].
fn parse_query_line(line: &str) -> Result<Query, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if !tokens
        .first()
        .is_some_and(|t| t.eq_ignore_ascii_case("select"))
    {
        return Err(format!(
            "a request is `[trace] select ... [where ...] [group by ...]` or one of \
             ping/stats/metrics/recorder/trace/quit/shutdown, got `{line}`"
        ));
    }
    const SELECT: usize = 0;
    const WHERE: usize = 1;
    const GROUP: usize = 2;
    let mut clauses: [Vec<&str>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut seen = [true, false, false];
    let mut current = SELECT;
    let mut index = 1;
    while index < tokens.len() {
        let token = tokens[index];
        if token.eq_ignore_ascii_case("where") {
            if seen[WHERE] {
                return Err("duplicate `where` clause".to_string());
            }
            seen[WHERE] = true;
            current = WHERE;
            index += 1;
            continue;
        }
        if token.eq_ignore_ascii_case("group") {
            if !tokens
                .get(index + 1)
                .is_some_and(|t| t.eq_ignore_ascii_case("by"))
            {
                return Err("`group` must be followed by `by`".to_string());
            }
            if seen[GROUP] {
                return Err("duplicate `group by` clause".to_string());
            }
            seen[GROUP] = true;
            current = GROUP;
            index += 2;
            continue;
        }
        clauses[current].push(token);
        index += 1;
    }
    let select_text = clauses[SELECT].join(" ");
    let where_text = clauses[WHERE].join(" ");
    let group_text = clauses[GROUP].join(" ");
    if select_text.is_empty() {
        return Err("empty select clause".to_string());
    }
    if seen[WHERE] && where_text.is_empty() {
        return Err("empty where clause".to_string());
    }
    if seen[GROUP] && group_text.is_empty() {
        return Err("empty group by clause".to_string());
    }
    parse_query(&select_text, &where_text, &group_text).map_err(|e| e.to_string())
}

impl From<Reply> for WireReply {
    /// A successful query reply.  The trace rides along exactly when the
    /// server sampled the request *and* the caller asked for it (the
    /// connection handler clears it otherwise).
    fn from(reply: Reply) -> Self {
        Self {
            result: Some(reply.result),
            trace: reply.trace,
            timings: reply.timings,
            ..Self::base("result")
        }
    }
}

impl From<&ServeError> for WireReply {
    /// The error reply for a typed serving error.
    fn from(err: &ServeError) -> Self {
        Self::error(err.kind(), err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catrisk_eventgen::peril::Peril;
    use catrisk_riskquery::prelude::*;

    #[test]
    fn commands_parse() {
        assert_eq!(parse_request("  "), Ok(None));
        assert_eq!(parse_request("ping"), Ok(Some(Request::Ping)));
        assert_eq!(parse_request("STATS"), Ok(Some(Request::Stats)));
        assert_eq!(parse_request("metrics"), Ok(Some(Request::Metrics)));
        assert_eq!(parse_request("Recorder"), Ok(Some(Request::Recorder)));
        assert_eq!(parse_request("quit"), Ok(Some(Request::Quit)));
        assert_eq!(parse_request("bye"), Ok(Some(Request::Quit)));
        assert_eq!(parse_request("Shutdown"), Ok(Some(Request::Shutdown)));
    }

    #[test]
    fn trace_and_recorder_since_commands_parse() {
        assert_eq!(parse_request("trace 42"), Ok(Some(Request::Trace(42))));
        assert_eq!(parse_request("TRACE 7"), Ok(Some(Request::Trace(7))));
        assert_eq!(
            parse_request("trace slowest"),
            Ok(Some(Request::TraceSlowest(5)))
        );
        assert_eq!(
            parse_request("trace Slowest 3"),
            Ok(Some(Request::TraceSlowest(3)))
        );
        assert_eq!(
            parse_request("recorder since 17"),
            Ok(Some(Request::RecorderSince(17)))
        );
        assert_eq!(
            parse_request("Recorder SINCE 0"),
            Ok(Some(Request::RecorderSince(0)))
        );

        let traced = parse_request("trace select mean where peril=HU")
            .unwrap()
            .unwrap();
        let Request::Query { query, trace } = traced else {
            panic!("expected a traced query");
        };
        assert!(trace);
        assert_eq!(query.aggregates.len(), 1);

        for line in [
            "trace",
            "trace nope",
            "trace 1 2",
            "trace slowest x",
            "trace slowest 1 2",
            "recorder since",
            "recorder since x",
            "recorder nonsense",
        ] {
            assert!(parse_request(line).is_err(), "`{line}` must fail");
        }
    }

    #[test]
    fn query_lines_parse_into_full_queries() {
        let request = parse_request(
            "select mean, tvar(0.99), aep(4) where peril=HU|FL loss>=1e6 group by region, lob",
        )
        .unwrap()
        .unwrap();
        let Request::Query { query, trace } = request else {
            panic!("expected a query");
        };
        assert!(!trace);
        assert_eq!(query.aggregates.len(), 3);
        assert_eq!(
            query.filter.perils,
            Some(vec![Peril::Hurricane, Peril::Flood])
        );
        assert_eq!(query.filter.loss, Some(LossRange::at_least(1.0e6)));
        assert_eq!(query.group_by, vec![Dimension::Region, Dimension::Lob]);

        // Clauses are optional and keywords case-insensitive.
        let minimal = parse_request("SELECT mean").unwrap().unwrap();
        let Request::Query { query, .. } = minimal else {
            panic!("expected a query");
        };
        assert_eq!(query.aggregates, vec![Aggregate::Mean]);
        assert!(query.group_by.is_empty());
    }

    #[test]
    fn malformed_lines_error_without_panicking() {
        for line in [
            "frobnicate",
            "select",
            "select nope",
            "select mean where",
            "select mean group region",
            "select mean group by",
            "select mean group by continent",
            "select mean where galaxy=milkyway",
            "select mean where peril=HU where peril=FL",
            "select mean group by region group by lob",
        ] {
            assert!(parse_request(line).is_err(), "`{line}` must fail");
        }
    }

    #[test]
    fn wire_replies_round_trip_with_live_telemetry_payloads() {
        // The pure wire-schema round trips live in `catrisk-riskclient`;
        // this pins the server-built payloads (metrics registry, flight
        // recorder) through the same serialisation.
        let registry = catrisk_telemetry::Registry::new();
        registry.counter("completed").add(3);
        registry.histogram("stage_scan_micros").record(120);
        let metrics = WireReply::metrics(registry.snapshot());
        let parsed = WireReply::from_line(&metrics.to_line()).unwrap();
        assert_eq!(parsed.kind, "metrics");
        let snapshot = parsed.metrics.unwrap();
        assert_eq!(snapshot.counter("completed"), Some(3));
        assert_eq!(snapshot.histogram("stage_scan_micros").unwrap().count, 1);

        let recorder = catrisk_telemetry::FlightRecorder::new(4);
        recorder.record("batch", [("size", 2u64.into())]);
        let parsed = WireReply::from_line(&WireReply::recorder(recorder.dump()).to_line()).unwrap();
        assert_eq!(parsed.kind, "recorder");
        assert_eq!(parsed.recorder.unwrap().len(), 1);
    }

    #[test]
    fn trace_replies_round_trip_and_map_lookup_outcomes() {
        use catrisk_telemetry::{TraceLookup, TraceRecord, TraceSpan};
        let record = TraceRecord {
            id: 9,
            total_micros: 120,
            root: TraceSpan::new("request", 0, 120).attr("batch_size", 2),
        };

        let retained = WireReply::trace_lookup(9, TraceLookup::Retained(record.clone()));
        let parsed = WireReply::from_line(&retained.to_line()).unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.kind, "trace");
        assert_eq!(parsed.trace, Some(record.clone()));

        let evicted = WireReply::trace_lookup(3, TraceLookup::Evicted);
        assert!(!evicted.ok);
        assert_eq!(evicted.error.as_ref().unwrap().kind, "evicted");

        let unknown = WireReply::trace_lookup(999, TraceLookup::Unknown);
        assert_eq!(unknown.error.as_ref().unwrap().kind, "invalid");

        let slowest = WireReply::traces(vec![record.clone()]);
        let parsed = WireReply::from_line(&slowest.to_line()).unwrap();
        assert_eq!(parsed.kind, "traces");
        assert_eq!(parsed.traces, Some(vec![record]));
    }

    #[test]
    fn serve_errors_map_to_wire_kinds() {
        let reply = WireReply::from(&ServeError::Overloaded { depth: 9 });
        assert!(!reply.ok);
        assert_eq!(reply.error.as_ref().unwrap().kind, "overloaded");
        let reply = WireReply::from(&ServeError::InvalidQuery("x".to_string()));
        assert_eq!(reply.error.as_ref().unwrap().kind, "invalid");
        let reply = WireReply::from(&ServeError::Internal("boom".to_string()));
        let error = reply.error.unwrap();
        assert_eq!(
            (error.kind.as_str(), error.message.as_str()),
            ("internal", "internal error: boom")
        );
    }
}
