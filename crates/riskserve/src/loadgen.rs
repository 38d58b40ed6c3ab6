//! Open-loop load generation against a running TCP front-end, with an
//! optional ingest-writer companion that commits segments mid-run.
//!
//! Each client thread owns one [`RoutedClient`] over the listed replica
//! addresses and fires its share of the request schedule; with several
//! addresses the load spreads round-robin and a request whose replica
//! dies mid-exchange is resubmitted to a live sibling (counted in
//! [`LoadReport::failovers`]).  In open-loop mode (`rps > 0`) send times are fixed
//! up front — request `k` of a client is due at `start + k / client_rate`
//! — and a request's latency is measured from its *scheduled* time, so a
//! slow server accrues queueing delay instead of silently slowing the
//! generator down (no coordinated omission).  With `rps = 0` every client
//! runs closed-loop, firing as fast as replies return.
//!
//! With [`LoadgenOptions::refresh_writers`] set, a writer thread appends
//! and commits segments to the listed shard files *while the clients
//! run* — the serve-while-ingesting exercise.  One path exercises a
//! segment-axis catalog shard; listing every shard of a **trial**-axis
//! catalog appends the same new layer to each trial window per round
//! (the union only serves a layer once every window holds it), which
//! also drives the server's per-shard partial cache: between the
//! per-shard commits, queries rescan only the committed window and reuse
//! the other windows' cached partials.  The run then reports, alongside
//! the
//! usual throughput and percentiles: how many segments/commits landed,
//! whether a probe query observed rows from segments committed after the
//! run started (refresh visibility), the server's cache hit/miss/refresh
//! counters, and the latency percentiles of requests that overlapped a
//! commit-and-refresh window versus steady-state requests — the measured
//! latency impact of refresh.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskclient::{round_trip, ClientConfig, ClientError, RoutedClient};
use catrisk_riskquery::{LineOfBusiness, SegmentMeta};
use catrisk_riskstore::StoreWriter;

use catrisk_telemetry::{MetricsSnapshot, TraceRecord};

use crate::stats::{percentile, StatsSnapshot};
use crate::telemetry::stage;

/// Load-generation options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server addresses, e.g. `127.0.0.1:7433`.  One entry is classic
    /// single-server load; several entries are treated as replicas of
    /// one fleet — each client spreads requests round-robin across them
    /// through a [`RoutedClient`] and fails over to a sibling when the
    /// replica serving it dies mid-run.
    pub addrs: Vec<String>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Open-loop target rate in requests/second across all clients;
    /// `0.0` = closed loop (each client fires as fast as replies return).
    pub rps: f64,
    /// The query-line mix, cycled through per client.
    pub queries: Vec<String>,
    /// Seconds to keep retrying the initial connect (lets a just-spawned
    /// server finish opening its store).
    pub connect_timeout_secs: u64,
    /// Send a `shutdown` line after the run, stopping the server.
    pub shutdown: bool,
    /// Append+commit segments to these store files while the clients run
    /// (empty = off).  Each file must be one of the shards the server is
    /// catalog-serving, or the commits will never become visible; for a
    /// trial-axis catalog list *every* shard (each round appends the
    /// same new layer to each window, which is when the union can serve
    /// it).
    pub refresh_writers: Vec<String>,
    /// Commits the ingest writer makes (one fresh segment each).
    pub refresh_commits: usize,
    /// Pause between ingest commits, in milliseconds.
    pub refresh_every_ms: u64,
    /// Fail the run (nonzero exit from the CLI) when the post-run `stats`
    /// or `metrics` scrape cannot be fetched — CI smokes set this so a
    /// silently absent server-side report cannot pass.
    pub require_stats: bool,
    /// Send every Nth request per client with the `trace` prefix (0 =
    /// never): the reply carries the server's execution profile, and the
    /// report keeps the slowest one seen.
    pub trace_every: u64,
    /// Replace the query mix with the skewed power-law trial-window
    /// preset (see [`skewed_mix`]): the run probes the server for its
    /// trial count, then generates windowed queries whose lengths halve
    /// geometrically — a few full-axis scans among many small windows,
    /// the imbalanced per-request costs the self-scheduling scan layer
    /// exists for.  Takes precedence over [`LoadgenOptions::queries`].
    pub skewed: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addrs: vec!["127.0.0.1:7433".to_string()],
            clients: 32,
            requests: 3200,
            rps: 0.0,
            queries: default_mix(),
            connect_timeout_secs: 30,
            shutdown: false,
            refresh_writers: Vec::new(),
            refresh_commits: 4,
            refresh_every_ms: 250,
            require_stats: false,
            trace_every: 0,
            skewed: false,
        }
    }
}

/// The default mixed-query workload: distinct scan specs and metric sets,
/// so batches exercise dedup, fusion and shared order statistics.
pub fn default_mix() -> Vec<String> {
    [
        "select mean, tvar(0.99) where peril=HU|FL group by region",
        "select var(0.99), aep(10) where peril=HU|FL group by region",
        "select mean, stddev group by lob",
        "select opml(250) group by lob",
        "select mean where loss>=1e5 group by region",
        "select maxloss, attach group by peril",
        "select tvar(0.95)",
    ]
    .map(str::to_string)
    .to_vec()
}

/// The skewed power-law trial-window mix: `lines` query lines whose
/// windows start uniformly across the axis and whose lengths halve
/// geometrically (a ~`2^-k` length distribution), cycling through a few
/// select/group-by shapes.  Most requests scan a small window while a
/// few scan most of the axis — the per-request cost skew that drives
/// the scan layer's chunked self-scheduling (a static split would park
/// whole workers behind the rare long scans).  Deterministic in
/// `(trials, lines, seed)`, so a smoke run is reproducible.
pub fn skewed_mix(trials: usize, lines: usize, seed: u64) -> Vec<String> {
    let trials = trials.max(2);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let selects = ["mean", "mean, maxloss", "stddev", "tvar(0.95)", "attach"];
    let groups = ["", " group by peril", "", " group by region"];
    (0..lines.max(1))
        .map(|k| {
            let mut len = trials;
            while len > 2 && next() < 0.5 {
                len /= 2;
            }
            let start = (next() * (trials - len) as f64) as usize;
            format!(
                "select {} where trial={start}..{}{}",
                selects[k % selects.len()],
                start + len,
                groups[k % groups.len()]
            )
        })
        .collect()
}

/// The probe line the skewed preset uses to learn the served trial
/// count before generating its windows.
const TRIALS_PROBE_QUERY: &str = "select maxloss";

/// The served trial count, fetched through the control-plane router.
fn probe_trials(control: &RoutedClient) -> Result<usize, String> {
    let reply = control
        .round_trip(TRIALS_PROBE_QUERY)
        .map_err(|e| e.to_string())?;
    match reply.result {
        Some(result) if reply.ok => Ok(result.trials),
        _ => Err(format!("trial-count probe failed: {reply:?}")),
    }
}

/// The probe line the ingest exercise uses to detect refresh visibility:
/// freshly committed segments carry never-seen layer ids, so the row
/// count of a per-layer grouping strictly grows when they become visible.
const PROBE_QUERY: &str = "select maxloss group by layer";

/// What the ingest-writer companion measured.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// Segments appended and committed during the run.
    pub segments: u64,
    /// Commits published during the run.
    pub commits: u64,
    /// Whether a probe query observed rows from segments committed
    /// *after* the run started — the serve-while-ingesting signal.
    pub visible: bool,
    /// p50 latency of requests overlapping a commit+refresh window, µs.
    pub during_p50_micros: u64,
    /// p99 latency of requests overlapping a commit+refresh window, µs.
    pub during_p99_micros: u64,
    /// Requests that overlapped a commit+refresh window.
    pub during_samples: u64,
    /// p50 latency of the remaining (steady-state) requests, µs.
    pub steady_p50_micros: u64,
    /// p99 latency of the remaining (steady-state) requests, µs.
    pub steady_p99_micros: u64,
    /// Steady-state requests.
    pub steady_samples: u64,
}

/// What one load run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Successful `result` replies.
    pub ok: u64,
    /// Typed `overloaded` rejections (well-formed backpressure, counted
    /// separately from errors).
    pub overloaded: u64,
    /// Any other error reply or transport failure.
    pub errors: u64,
    /// Requests resubmitted to a sibling replica after the one serving
    /// them died mid-exchange (always 0 in single-server runs).
    pub failovers: u64,
    /// Total result rows across successful replies.
    pub rows: u64,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Successful replies per second.
    pub throughput: f64,
    /// Latency percentiles over successful replies, in microseconds.
    pub p50_micros: u64,
    /// 90th percentile latency.
    pub p90_micros: u64,
    /// 99th percentile latency.
    pub p99_micros: u64,
    /// Worst latency.
    pub max_micros: u64,
    /// Mean batch size reported by the server across replies.
    pub mean_batch: f64,
    /// The server's counters snapshot, fetched after the run (before any
    /// shutdown) — carries the cache hit/miss and refresh counts.
    pub server_stats: Option<StatsSnapshot>,
    /// The server's full metric registry, fetched after the run (before
    /// any shutdown) — carries the per-stage latency histograms, so CI
    /// smokes can assert on *server-side* p99 per stage rather than only
    /// the client-observed round trip.
    pub server_metrics: Option<MetricsSnapshot>,
    /// The ingest-writer companion's report, when one ran.
    pub ingest: Option<IngestReport>,
    /// The slowest execution profile among traced replies (requests sent
    /// with the `trace` prefix under [`LoadgenOptions::trace_every`]).
    pub slowest_trace: Option<TraceRecord>,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} requests in {:.2}s: {} ok, {} overloaded, {} errors ({} rows)",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.ok,
            self.overloaded,
            self.errors,
            self.rows
        )?;
        writeln!(f, "throughput: {:.0} req/s", self.throughput)?;
        if self.failovers > 0 {
            writeln!(
                f,
                "failovers: {} requests resubmitted to a sibling replica",
                self.failovers
            )?;
        }
        writeln!(
            f,
            "latency: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            self.p50_micros as f64 / 1_000.0,
            self.p90_micros as f64 / 1_000.0,
            self.p99_micros as f64 / 1_000.0,
            self.max_micros as f64 / 1_000.0
        )?;
        write!(f, "mean batch size: {:.1}", self.mean_batch)?;
        if let Some(stats) = &self.server_stats {
            write!(
                f,
                "\nserver: {} batches, cache hits {} / misses {} (hit rate {:.0}%), \
                 {} refreshes",
                stats.batches,
                stats.cache_hits,
                stats.cache_misses,
                stats.cache_hit_rate() * 100.0,
                stats.refreshes
            )?;
            if stats.partial_hits + stats.partial_misses > 0 {
                write!(
                    f,
                    "\nserver partial cache: {} cell hits / {} cell scans \
                     (hit rate {:.0}%)",
                    stats.partial_hits,
                    stats.partial_misses,
                    stats.partial_hit_rate() * 100.0
                )?;
            }
        }
        if let Some(metrics) = &self.server_metrics {
            let mut stages = Vec::new();
            for (label, name) in [
                ("queue", stage::QUEUE),
                ("scan", stage::SCAN),
                ("batch exec", stage::BATCH_EXEC),
            ] {
                if let Some(h) = metrics.histogram(name) {
                    if h.count > 0 {
                        stages.push(format!(
                            "{label} p50 {:.2} / p99 {:.2} ms ({} samples)",
                            h.percentile(50.0) as f64 / 1_000.0,
                            h.percentile(99.0) as f64 / 1_000.0,
                            h.count
                        ));
                    }
                }
            }
            if !stages.is_empty() {
                write!(f, "\nserver stages: {}", stages.join("; "))?;
            }
        }
        if let Some(trace) = &self.slowest_trace {
            write!(f, "\nslowest traced request:\n{trace}")?;
        }
        if let Some(ingest) = &self.ingest {
            write!(
                f,
                "\ningest: {} segments in {} commits, refresh visible: {}\n\
                 latency during refresh: p50 {:.2} ms, p99 {:.2} ms ({} samples); \
                 steady: p50 {:.2} ms, p99 {:.2} ms ({} samples)",
                ingest.segments,
                ingest.commits,
                if ingest.visible { "yes" } else { "NO" },
                ingest.during_p50_micros as f64 / 1_000.0,
                ingest.during_p99_micros as f64 / 1_000.0,
                ingest.during_samples,
                ingest.steady_p50_micros as f64 / 1_000.0,
                ingest.steady_p99_micros as f64 / 1_000.0,
                ingest.steady_samples
            )?;
        }
        Ok(())
    }
}

/// Per-client tallies, merged into the report at the end.
#[derive(Debug, Default)]
struct ClientOutcome {
    sent: u64,
    ok: u64,
    overloaded: u64,
    errors: u64,
    rows: u64,
    batch_sum: u64,
    /// Requests this client's router resubmitted to a sibling replica.
    failovers: u64,
    /// `(send offset since run start, latency)` per successful reply, µs.
    samples: Vec<(u64, u64)>,
    /// The slowest execution profile among this client's traced replies.
    slowest_trace: Option<TraceRecord>,
}

impl ClientOutcome {
    /// Keeps `candidate` when it is slower than the current record.
    fn keep_slowest(&mut self, candidate: Option<TraceRecord>) {
        if let Some(candidate) = candidate {
            if self
                .slowest_trace
                .as_ref()
                .is_none_or(|current| candidate.total_micros > current.total_micros)
            {
                self.slowest_trace = Some(candidate);
            }
        }
    }
}

/// Row count of the layer-grouping probe query, fetched through the
/// run's control-plane router (any live replica serves the same union).
fn probe_layer_rows(control: &RoutedClient) -> Result<usize, String> {
    let reply = control.round_trip(PROBE_QUERY).map_err(|e| e.to_string())?;
    match reply.result {
        Some(result) if reply.ok => Ok(result.rows.len()),
        _ => Err(format!("probe query failed: {reply:?}")),
    }
}

/// The ingest writer's raw outcome: what landed, and when.
#[derive(Debug, Default)]
struct IngestOutcome {
    segments: u64,
    commits: u64,
    /// Commit windows as `(start, end)` offsets since run start, µs.
    windows: Vec<(u64, u64)>,
}

/// Appends and commits fresh segments to every path in `paths` while the
/// clients run: one new layer per round, appended and committed to each
/// listed shard in turn (on a trial-axis catalog that is each window's
/// slice of the same logical layer; the union serves it once the last
/// window commits).  Stops after `commits` rounds, or earlier when the
/// clients are done and at least one round has landed.
fn run_refresh_writer(
    paths: &[String],
    commits: usize,
    every: Duration,
    run_start: Instant,
    clients_done: &AtomicBool,
) -> Result<IngestOutcome, String> {
    let mut writers = paths
        .iter()
        .map(|path| {
            StoreWriter::open_append(path)
                .map_err(|e| format!("refresh writer cannot append to `{path}`: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut outcome = IngestOutcome::default();
    // Fresh layer ids no store-write world would produce, so the probe's
    // per-layer row count strictly grows when a commit becomes visible.
    let layer_base = 900_000u32 + (writers[0].num_segments() as u32);
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (writers[0].num_trials() as u64);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for k in 0..commits.max(1) {
        // A round must complete across every listed shard (a trial-axis
        // union only serves a layer once its last window commits), so
        // the early-out sits at round boundaries only.
        if k > 0 && clients_done.load(Ordering::Relaxed) && outcome.commits > 0 {
            break;
        }
        let meta = SegmentMeta::new(
            LayerId(layer_base + k as u32),
            Peril::ALL[k % Peril::ALL.len()],
            Region::ALL[k % Region::ALL.len()],
            LineOfBusiness::ALL[k % LineOfBusiness::ALL.len()],
        );
        for writer in &mut writers {
            // Pace before *every* commit, not per round: the lead-in
            // gives live traffic time to populate the caches, and on a
            // multi-shard round the gap between one shard's commit and
            // the next is exactly when the server's per-shard partial
            // cache proves itself (the committed shard rescans, the
            // others re-serve cached partials).
            std::thread::sleep(every);
            let started = run_start.elapsed().as_micros() as u64;
            let trials = writer.num_trials();
            let mut year = Vec::with_capacity(trials);
            let mut occ = Vec::with_capacity(trials);
            for _ in 0..trials {
                let loss = if next() < 0.3 { next() * 1.0e6 } else { 0.0 };
                year.push(loss);
                occ.push(loss * next());
            }
            writer
                .append_segment(meta, &year, &occ)
                .map_err(|e| e.to_string())?;
            writer.commit().map_err(|e| e.to_string())?;
            outcome.segments += 1;
            outcome.commits += 1;
            outcome
                .windows
                .push((started, run_start.elapsed().as_micros() as u64));
        }
    }
    Ok(outcome)
}

/// Extra slack after a commit window during which request latencies are
/// still attributed to the refresh: the server picks the commit up at the
/// start of its *next* batch, so the impact trails the commit slightly.
const REFRESH_SLACK_MICROS: u64 = 50_000;

/// Splits latency samples into refresh-overlapped and steady-state sets
/// and fills the ingest report's percentile fields.
fn attribute_refresh_latency(
    report: &mut IngestReport,
    samples: &[(u64, u64)],
    windows: &[(u64, u64)],
) {
    let mut during: Vec<u64> = Vec::new();
    let mut steady: Vec<u64> = Vec::new();
    for &(sent, latency) in samples {
        let reply_at = sent + latency;
        let overlaps = windows
            .iter()
            .any(|&(start, end)| sent <= end + REFRESH_SLACK_MICROS && reply_at >= start);
        if overlaps {
            during.push(latency);
        } else {
            steady.push(latency);
        }
    }
    during.sort_unstable();
    steady.sort_unstable();
    report.during_samples = during.len() as u64;
    report.during_p50_micros = percentile(&during, 50.0);
    report.during_p99_micros = percentile(&during, 99.0);
    report.steady_samples = steady.len() as u64;
    report.steady_p50_micros = percentile(&steady, 50.0);
    report.steady_p99_micros = percentile(&steady, 99.0);
}

/// Runs the load and gathers a report.  Transport-level failures are
/// counted per request, not fatal; only a total connection failure of
/// every client errors out.
pub fn run(options: &LoadgenOptions) -> Result<LoadReport, String> {
    let clients = options.clients.max(1);
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(options.connect_timeout_secs),
        read_timeout: Some(Duration::from_secs(60)),
    };
    // Control-plane router for the probes and post-run scrapes; the data
    // plane gets one router per client thread.
    let control = RoutedClient::new(options.addrs.iter().cloned(), config);
    let queries = if options.skewed {
        let trials = probe_trials(&control)?;
        skewed_mix(trials, 16, 0x5EED ^ trials as u64)
    } else if options.queries.is_empty() {
        default_mix()
    } else {
        options.queries.clone()
    };
    let ingesting = !options.refresh_writers.is_empty();

    // Baseline for the visibility probe, before any mid-run commit.
    let rows_before = if ingesting {
        Some(probe_layer_rows(&control)?)
    } else {
        None
    };

    let started = Instant::now();
    let clients_done = AtomicBool::new(false);
    let (outcomes, ingest_outcome): (Vec<Result<ClientOutcome, String>>, _) =
        std::thread::scope(|scope| {
            let writer_handle = ingesting.then(|| {
                let clients_done = &clients_done;
                let options = &options;
                scope.spawn(move || {
                    run_refresh_writer(
                        &options.refresh_writers,
                        options.refresh_commits,
                        Duration::from_millis(options.refresh_every_ms),
                        started,
                        clients_done,
                    )
                })
            });
            let handles: Vec<_> = (0..clients)
                .map(|client_index| {
                    // Split `requests` across clients, remainder to the first.
                    let share = options.requests / clients
                        + usize::from(client_index < options.requests % clients);
                    let queries = &queries;
                    let options = &options;
                    scope.spawn(move || {
                        run_client(options, client_index, share, queries, config, started)
                    })
                })
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|handle| handle.join().expect("loadgen client panicked"))
                .collect();
            clients_done.store(true, Ordering::Relaxed);
            let ingest = writer_handle
                .map(|handle| handle.join().expect("refresh writer panicked"))
                .transpose();
            (outcomes, ingest)
        });
    let elapsed = started.elapsed();
    let ingest_outcome = ingest_outcome?;

    let mut merged = ClientOutcome::default();
    let mut connect_failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(outcome) => {
                merged.sent += outcome.sent;
                merged.ok += outcome.ok;
                merged.overloaded += outcome.overloaded;
                merged.errors += outcome.errors;
                merged.rows += outcome.rows;
                merged.batch_sum += outcome.batch_sum;
                merged.failovers += outcome.failovers;
                merged.samples.extend(outcome.samples);
                merged.keep_slowest(outcome.slowest_trace);
            }
            Err(err) => connect_failures.push(err),
        }
    }
    if merged.sent == 0 {
        return Err(connect_failures
            .first()
            .cloned()
            .unwrap_or_else(|| "no requests sent".to_string()));
    }

    // Visibility probe + ingest attribution, before any shutdown.
    let ingest = match ingest_outcome {
        None => None,
        Some(outcome) => {
            let mut report = IngestReport {
                segments: outcome.segments,
                commits: outcome.commits,
                ..IngestReport::default()
            };
            let before = rows_before.unwrap_or(0);
            for _ in 0..50 {
                match probe_layer_rows(&control) {
                    Ok(rows) if rows > before => {
                        report.visible = true;
                        break;
                    }
                    _ => std::thread::sleep(Duration::from_millis(100)),
                }
            }
            attribute_refresh_latency(&mut report, &merged.samples, &outcome.windows);
            Some(report)
        }
    };

    // Server counters (cache hit rate, refreshes) and the full metric
    // registry (per-stage histograms), both before any shutdown.  A
    // failed scrape warns but only fails the run under `require_stats` —
    // and the shutdown still goes out first, so a CI server never
    // lingers behind the nonzero exit.
    let server_stats = match control.round_trip("stats") {
        Ok(reply) => reply.stats,
        Err(err) => {
            eprintln!("warning: server stats fetch failed: {err}");
            None
        }
    };
    let server_metrics = match control.round_trip("metrics") {
        Ok(reply) => reply.metrics,
        Err(err) => {
            eprintln!("warning: server metrics fetch failed: {err}");
            None
        }
    };

    if options.shutdown {
        send_shutdown(&options.addrs, config)?;
    }
    if options.require_stats && (server_stats.is_none() || server_metrics.is_none()) {
        let missing = match (&server_stats, &server_metrics) {
            (None, None) => "stats and metrics",
            (None, _) => "stats",
            _ => "metrics",
        };
        return Err(format!(
            "--require-stats: could not fetch the server's {missing} report"
        ));
    }

    let mut latencies: Vec<u64> = merged.samples.iter().map(|&(_, l)| l).collect();
    latencies.sort_unstable();
    Ok(LoadReport {
        sent: merged.sent,
        ok: merged.ok,
        overloaded: merged.overloaded,
        errors: merged.errors + connect_failures.len() as u64,
        failovers: merged.failovers,
        rows: merged.rows,
        elapsed,
        throughput: merged.ok as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_micros: percentile(&latencies, 50.0),
        p90_micros: percentile(&latencies, 90.0),
        p99_micros: percentile(&latencies, 99.0),
        max_micros: latencies.last().copied().unwrap_or(0),
        mean_batch: if merged.ok == 0 {
            0.0
        } else {
            merged.batch_sum as f64 / merged.ok as f64
        },
        server_stats,
        server_metrics,
        ingest,
        slowest_trace: merged.slowest_trace,
    })
}

fn run_client(
    options: &LoadgenOptions,
    client_index: usize,
    share: usize,
    queries: &[String],
    config: ClientConfig,
    run_start: Instant,
) -> Result<ClientOutcome, String> {
    let mut outcome = ClientOutcome::default();
    if share == 0 {
        return Ok(outcome);
    }
    // Each client owns a router over the whole fleet, rotated by client
    // index so the pooled connections spread across replicas from the
    // first request on.  The probe both preserves the old "total connect
    // failure is fatal" semantics and seeds the health marks.
    let mut addrs = options.addrs.clone();
    if addrs.is_empty() {
        return Err("no server address configured".to_string());
    }
    let offset = client_index % addrs.len();
    addrs.rotate_left(offset);
    let routed = RoutedClient::new(addrs, config);
    if !routed.probe().iter().any(|&alive| alive) {
        return Err(format!(
            "connect: no replica of {:?} is reachable",
            options.addrs
        ));
    }

    // Open-loop pacing: this client's inter-arrival gap.
    let clients = options.clients.max(1);
    let gap = if options.rps > 0.0 {
        Duration::from_secs_f64(clients as f64 / options.rps)
    } else {
        Duration::ZERO
    };
    let start = Instant::now();
    outcome.samples.reserve(share);
    for k in 0..share {
        let scheduled = start + gap.mul_f64(k as f64);
        if gap > Duration::ZERO {
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
        }
        let query = &queries[(client_index + k) % queries.len()];
        // Every Nth request per client asks the server for its execution
        // profile; the slowest one surfaces in the report.
        let traced = options.trace_every > 0 && (k as u64).is_multiple_of(options.trace_every);
        let prefix = if traced { "trace " } else { "" };
        outcome.sent += 1;
        let sent_at = Instant::now();
        // Open loop measures from the *scheduled* send (so falling behind
        // schedule shows up as latency), closed loop from the actual one.
        let reference = if gap > Duration::ZERO {
            scheduled
        } else {
            sent_at
        };
        match routed.round_trip(&format!("{prefix}{query}")) {
            Ok(reply) if reply.ok => {
                let latency = Instant::now().saturating_duration_since(reference);
                outcome.ok += 1;
                outcome.rows += reply.result.map_or(0, |r| r.rows.len() as u64);
                outcome.batch_sum += u64::from(reply.timings.batch_size);
                outcome.keep_slowest(reply.trace);
                outcome.samples.push((
                    reference.saturating_duration_since(run_start).as_micros() as u64,
                    latency.as_micros() as u64,
                ));
            }
            Ok(reply) => {
                if reply.error.is_some_and(|e| e.kind == "overloaded") {
                    outcome.overloaded += 1;
                } else {
                    outcome.errors += 1;
                }
            }
            Err(ClientError::Transport(_)) => {
                outcome.errors += 1;
                break; // every replica is unreachable; stop this client
            }
            Err(ClientError::Protocol(_)) => outcome.errors += 1,
        }
    }
    outcome.failovers = routed.failover_count();
    Ok(outcome)
}

/// Sends a `shutdown` line to every replica and waits for the acks.
/// Replicas that already died (e.g. were killed mid-run in a failover
/// exercise) are warned about, not fatal; only a fleet where *no*
/// replica acknowledges fails.  Connect retries are capped so a dead
/// replica cannot stall the teardown for the full connect timeout.
fn send_shutdown(addrs: &[String], config: ClientConfig) -> Result<(), String> {
    let config = ClientConfig {
        connect_timeout: config.connect_timeout.min(Duration::from_secs(1)),
        ..config
    };
    let mut acked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for addr in addrs {
        match round_trip(addr, config, "shutdown") {
            Ok(reply) if reply.kind == "shutting-down" => acked += 1,
            Ok(reply) => failures.push(format!("unexpected shutdown ack from {addr}: {reply:?}")),
            Err(err) => failures.push(format!("shutdown of {addr}: {err}")),
        }
    }
    if acked == 0 {
        return Err(failures
            .first()
            .cloned()
            .unwrap_or_else(|| "no replica to shut down".to_string()));
    }
    for failure in &failures {
        eprintln!("warning: {failure}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StoreCatalog;
    use crate::server::{Server, ServerConfig};
    use crate::tcp::TcpFrontEnd;
    use crate::test_store::random_store;
    use std::sync::Arc;

    #[test]
    fn loadgen_drives_a_server_and_shuts_it_down() {
        let store = Arc::new(random_store(256, 16, 21));
        let front = TcpFrontEnd::bind(
            Server::new(
                Arc::clone(&store),
                ServerConfig {
                    batch_window: Duration::from_micros(200),
                    ..ServerConfig::default()
                },
            ),
            "127.0.0.1:0",
        )
        .expect("bind");
        let options = LoadgenOptions {
            addrs: vec![front.local_addr().to_string()],
            clients: 8,
            requests: 64,
            shutdown: true,
            trace_every: 4,
            ..LoadgenOptions::default()
        };
        let report = run(&options).expect("load run");
        assert_eq!(report.sent, 64);
        assert_eq!(report.ok, 64, "{report}");
        assert_eq!(report.errors, 0, "{report}");
        assert!(report.rows > 0);
        assert!(report.mean_batch >= 1.0);
        assert!(report.p50_micros <= report.p99_micros);
        assert!(report.p99_micros <= report.max_micros);
        let stats = report.server_stats.expect("stats fetched before shutdown");
        assert!(stats.completed >= 64);
        assert!(
            stats.cache_hits > 0,
            "the cycled query mix must produce cache hits: {stats:?}"
        );
        let metrics = report
            .server_metrics
            .as_ref()
            .expect("metrics fetched before shutdown");
        let queue = metrics.histogram(stage::QUEUE).expect("queue histogram");
        assert_eq!(
            queue.count,
            stats.completed + stats.failed,
            "one queue sample per answered request"
        );
        let scan = metrics.histogram(stage::SCAN).expect("scan histogram");
        assert_eq!(scan.count, stats.cache_misses, "one scan sample per miss");
        assert!(format!("{report}").contains("server stages:"), "{report}");
        // Every 4th request per client was traced; the report keeps the
        // slowest profile, whose arithmetic matches its reply's timings.
        let trace = report.slowest_trace.as_ref().expect("a traced reply");
        assert!(trace.id > 0);
        assert_eq!(trace.root.name, "request");
        assert!(format!("{report}").contains("slowest traced request:"));
        front.wait().expect("server exited cleanly");
    }

    #[test]
    fn refresh_writer_ingests_into_a_served_catalog() {
        // A catalog shard on disk, initially holding a couple of segments.
        let mut path = std::env::temp_dir();
        path.push(format!("catrisk-loadgen-ingest-{}.clm", std::process::id()));
        {
            let store = random_store(64, 3, 17);
            let mut writer = catrisk_riskstore::StoreWriter::create(&path, 64).unwrap();
            for s in 0..store.num_segments() {
                writer
                    .append_segment(
                        *store.meta(s),
                        store.year_losses(s),
                        store.max_occ_losses(s),
                    )
                    .unwrap();
            }
            writer.finish().unwrap();
        }
        let catalog = StoreCatalog::open([&path]).unwrap();
        let front = TcpFrontEnd::bind(Server::new(catalog, ServerConfig::default()), "127.0.0.1:0")
            .expect("bind");
        let options = LoadgenOptions {
            addrs: vec![front.local_addr().to_string()],
            clients: 4,
            requests: 48,
            refresh_writers: vec![path.to_string_lossy().into_owned()],
            refresh_commits: 2,
            refresh_every_ms: 20,
            shutdown: true,
            ..LoadgenOptions::default()
        };
        let report = run(&options).expect("load run");
        assert_eq!(report.errors, 0, "{report}");
        let ingest = report.ingest.as_ref().expect("ingest report");
        assert!(ingest.commits >= 1, "{report}");
        assert!(
            ingest.visible,
            "segments committed mid-run must become visible: {report}"
        );
        assert_eq!(
            ingest.during_samples + ingest.steady_samples,
            report.ok,
            "every successful reply is attributed"
        );
        let stats = report.server_stats.expect("stats");
        assert!(stats.refreshes >= 1, "{stats:?}");
        front.wait().expect("clean shutdown");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refresh_writers_drive_a_trial_sharded_catalog() {
        // Two trial-window shard files cut from one 64-trial store.
        let store = random_store(64, 3, 29);
        let mut paths = Vec::new();
        for (index, (start, end)) in [(0usize, 32usize), (32, 64)].into_iter().enumerate() {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "catrisk-loadgen-trial-{}-{index}.clm",
                std::process::id()
            ));
            let mut writer = catrisk_riskstore::StoreWriter::create_with(
                &path,
                end - start,
                catrisk_riskstore::StoreOptions {
                    trial_offset: start as u64,
                    ..catrisk_riskstore::StoreOptions::default()
                },
            )
            .unwrap();
            for s in 0..store.num_segments() {
                writer
                    .append_segment(
                        *store.meta(s),
                        &store.year_losses(s)[start..end],
                        &store.max_occ_losses(s)[start..end],
                    )
                    .unwrap();
            }
            writer.finish().unwrap();
            paths.push(path);
        }
        let catalog = StoreCatalog::open(&paths).unwrap();
        assert_eq!(catalog.axis(), crate::catalog::ShardAxis::Trial);
        let front = TcpFrontEnd::bind(Server::new(catalog, ServerConfig::default()), "127.0.0.1:0")
            .expect("bind");
        // Open-loop pacing stretches the run across the ingest rounds'
        // commit points, so traffic flows both before the first commit
        // (populating per-shard partials) and between the two shards'
        // commits (where the untouched shard's partials must hit).
        let options = LoadgenOptions {
            addrs: vec![front.local_addr().to_string()],
            clients: 4,
            requests: 120,
            rps: 300.0,
            refresh_writers: paths
                .iter()
                .map(|p| p.to_string_lossy().into_owned())
                .collect(),
            refresh_commits: 1,
            refresh_every_ms: 120,
            shutdown: true,
            ..LoadgenOptions::default()
        };
        let report = run(&options).expect("load run");
        assert_eq!(report.errors, 0, "{report}");
        let ingest = report.ingest.as_ref().expect("ingest report");
        assert_eq!(ingest.commits, 2, "one round across two windows");
        assert!(
            ingest.visible,
            "the layer must become servable once both windows commit: {report}"
        );
        let stats = report.server_stats.expect("stats");
        assert!(stats.refreshes >= 2, "{stats:?}");
        assert!(
            stats.partial_hits > 0,
            "between the two windows' commits, the untouched window must re-serve \
             its cached partials: {stats:?}"
        );
        assert!(format!("{report}").contains("partial cache"));
        front.wait().expect("clean shutdown");
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn skewed_mix_is_deterministic_and_power_law() {
        let mix = skewed_mix(10_000, 32, 7);
        assert_eq!(mix, skewed_mix(10_000, 32, 7), "same inputs, same mix");
        let mut lengths = Vec::new();
        for line in &mix {
            assert!(line.starts_with("select "), "{line}");
            let window = line
                .split("trial=")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .expect("every line carries a trial window");
            let (start, end) = window.split_once("..").expect("start..end");
            let (start, end): (usize, usize) = (start.parse().unwrap(), end.parse().unwrap());
            assert!(start < end && end <= 10_000, "{line}");
            lengths.push(end - start);
        }
        // Power law: both tails present — full-axis scans and windows at
        // least 8x shorter.
        let max = *lengths.iter().max().unwrap();
        let min = *lengths.iter().min().unwrap();
        assert!(max == 10_000, "the mix must include full-axis scans");
        assert!(min * 8 <= max, "the mix must include much shorter windows");
    }

    #[test]
    fn skewed_preset_probes_the_server_and_runs_windowed_queries() {
        let store = Arc::new(random_store(512, 8, 13));
        let front = TcpFrontEnd::bind(Server::with_defaults(Arc::clone(&store)), "127.0.0.1:0")
            .expect("bind");
        let options = LoadgenOptions {
            addrs: vec![front.local_addr().to_string()],
            clients: 4,
            requests: 32,
            skewed: true,
            shutdown: true,
            ..LoadgenOptions::default()
        };
        let report = run(&options).expect("load run");
        assert_eq!(report.ok, 32, "{report}");
        assert_eq!(report.errors, 0, "{report}");
        assert!(report.rows > 0);
        front.wait().expect("clean shutdown");
    }

    #[test]
    fn open_loop_pacing_measures_from_schedule() {
        let store = Arc::new(random_store(64, 4, 5));
        let front = TcpFrontEnd::bind(Server::with_defaults(store), "127.0.0.1:0").expect("bind");
        let options = LoadgenOptions {
            addrs: vec![front.local_addr().to_string()],
            clients: 2,
            requests: 10,
            rps: 200.0,
            shutdown: false,
            ..LoadgenOptions::default()
        };
        let report = run(&options).expect("load run");
        assert_eq!(report.ok, 10);
        // 10 requests at 200 rps across 2 clients: the schedule spans
        // ~40ms, so the run cannot finish instantly.
        assert!(report.elapsed >= Duration::from_millis(30), "{report:?}");
        front.stop();
        front.wait().expect("clean stop");
    }

    #[test]
    fn connect_failure_is_a_typed_error() {
        let options = LoadgenOptions {
            addrs: vec!["127.0.0.1:1".to_string()],
            clients: 2,
            requests: 4,
            connect_timeout_secs: 0,
            ..LoadgenOptions::default()
        };
        assert!(run(&options).is_err());
    }

    #[test]
    fn loadgen_routes_around_a_dead_replica() {
        let store = Arc::new(random_store(64, 4, 11));
        let live = TcpFrontEnd::bind(Server::with_defaults(Arc::clone(&store)), "127.0.0.1:0")
            .expect("bind");
        let dead = TcpFrontEnd::bind(Server::with_defaults(Arc::clone(&store)), "127.0.0.1:0")
            .expect("bind");
        let dead_addr = dead.local_addr().to_string();
        dead.stop();
        dead.wait().expect("clean stop");
        // The dead replica is listed *first*, so round-robin routing must
        // skip it for every request; all load lands on the live one.
        let options = LoadgenOptions {
            addrs: vec![dead_addr, live.local_addr().to_string()],
            clients: 4,
            requests: 32,
            connect_timeout_secs: 1,
            shutdown: false,
            ..LoadgenOptions::default()
        };
        let report = run(&options).expect("load run");
        assert_eq!(report.ok, 32, "{report}");
        assert_eq!(report.errors, 0, "{report}");
        live.stop();
        live.wait().expect("clean stop");
    }

    #[test]
    fn refresh_latency_attribution_splits_on_windows() {
        let mut report = IngestReport::default();
        // One commit window at 1000..2000µs.  Sample A overlaps, B is
        // steady, C lands inside the post-commit slack.
        let samples = [
            (500, 1_000),
            (500_000, 2_000),
            (2_000 + REFRESH_SLACK_MICROS - 1, 10),
        ];
        attribute_refresh_latency(&mut report, &samples, &[(1_000, 2_000)]);
        assert_eq!(report.during_samples, 2);
        assert_eq!(report.steady_samples, 1);
        assert_eq!(report.steady_p50_micros, 2_000);
        assert!(report.during_p99_micros >= report.during_p50_micros);
    }
}
