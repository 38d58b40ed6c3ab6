//! The batch core: one drained batch in, one reply per request out.
//!
//! [`BatchCore::step`] runs refresh → dedup → result cache → grid →
//! replies over the caches, counters and telemetry it owns.  It never
//! waits, never touches the queue or a reply slot, and never reads the
//! clock to decide anything: the driver in [`server`](crate::server)
//! supplies the instant the batch started and delivers what `step`
//! returns, and the batch window is the pure policy [`close_at`].  Clock
//! reads here only measure stage durations.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use catrisk_riskquery::{
    combine, finalize, group_by_key, plan_cells, scan_trial_partial, scan_trial_partials_fused,
    Cell, PartialAggregate, Query, QueryPlan, QueryResult, SegmentSource, TrialPartial,
};
use catrisk_telemetry::{EventValue, Span, TraceRecord, TraceSpan};

use crate::cache::{PartialCache, ResultCache, SpecKey};
use crate::server::{Reply, ServeError, ServerConfig};
use crate::source::{SourceProvider, SourceSnapshot};
use crate::stats::{Counters, RequestTimings};
use crate::sync::lock;
use crate::telemetry::ServerTelemetry;

/// One admitted request as the core sees it.
pub(crate) struct Request {
    pub query: Query,
    pub enqueued: Instant,
    /// The request's trace id, 0 when it was not sampled for tracing.
    pub trace_id: u64,
}

/// When a batch window opened at `opened` closes with `pending` requests
/// queued: at once when a full batch is waiting, `batch_window` after it
/// opened otherwise (a zero window never coalesces).
pub(crate) fn close_at(opened: Instant, pending: usize, config: &ServerConfig) -> Instant {
    if pending >= config.max_batch {
        opened
    } else {
        opened + config.batch_window
    }
}

/// How one unique query of a batch was answered: its outcome, and the
/// index of the grid spec that scanned it (`None` for a result-cache hit
/// or a plan failure).
type Answer = (Result<QueryResult, ServeError>, Option<usize>);

/// Everything a batch step reads and writes: the provider, the clamped
/// configuration, both caches, the counters and the telemetry.
pub(crate) struct BatchCore<P> {
    pub provider: P,
    pub config: ServerConfig,
    pub cache: Mutex<ResultCache>,
    pub partials: Mutex<PartialCache>,
    pub counters: Counters,
    pub telemetry: ServerTelemetry,
}

impl<P: SourceProvider> BatchCore<P> {
    /// A core over `provider`, with `max_batch` and `workers` clamped to
    /// at least 1.
    pub fn new(provider: P, config: ServerConfig) -> Self {
        let telemetry = ServerTelemetry::new(
            config.recorder_capacity,
            config.metrics_threshold_us,
            config.trace_sample_every,
            config.trace_capacity,
        );
        // The provider hooks its own metrics (store opens, refresh costs,
        // union assembly) into the same registry the serving stages
        // record into, so one `metrics` scrape covers the whole path.
        provider.attach_telemetry(&telemetry.registry);
        Self {
            provider,
            config: ServerConfig {
                max_batch: config.max_batch.max(1),
                workers: config.workers.max(1),
                ..config
            },
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            partials: Mutex::new(PartialCache::new(config.partial_cache_capacity)),
            counters: Counters::register(&telemetry.registry),
            telemetry,
        }
    }

    /// Executes one batch that started at `started`: refreshes the
    /// provider (newly committed segments become visible and stale cache
    /// generations retire), dedups identical queries across submitters,
    /// answers what it can from the result cache, runs the remaining
    /// misses through [`run_grid`](Self::run_grid), and returns one reply
    /// per request, in batch order.
    ///
    /// When any member of the batch is traced, the batch-level stage
    /// timings (refresh, cache lookup, scan) are captured once from the
    /// spans' own clock reads and fanned back out into each traced
    /// member's span tree — a trace can never disagree with the
    /// histograms because both consumed the same measured value.
    pub fn step(&self, started: Instant, batch: &[Request]) -> Vec<Result<Reply, ServeError>> {
        // First traced member, if any: the batch-level exemplar id (stamped
        // on the batch-exec histogram bucket and the slow-batch event).
        let batch_trace = first_traced(batch.iter().map(|request| request.trace_id));
        let (refresh_micros, refreshed_shards) = self.refresh();
        // Identical queries share one answer.  A unique query's trace id
        // is its first traced member's: scan-stage exemplars and the
        // spec's child spans are attributed to it.
        let unique = group_by_key(batch.iter().enumerate().map(|(i, r)| (&r.query, i)));
        let traces: Vec<u64> = unique
            .iter()
            .map(|(_, members)| first_traced(members.iter().map(|&i| batch[i].trace_id)))
            .collect();

        let (answers, grid, cache_lookup_micros) = self.provider.with_source(|snapshot| {
            // 1. The generation-keyed cache: a hit is bit-identical to a
            //    fresh scan of this snapshot by the cache's key contract.
            let (cached, cache_lookup_micros) = {
                let cache_lookup = Span::enter(&self.telemetry.cache_lookup);
                let mut cache = lock(&self.cache);
                let cached: Vec<Option<QueryResult>> = unique
                    .iter()
                    .map(|(query, _)| cache.get(query, snapshot.generations))
                    .collect();
                (cached, cache_lookup.finish_with_exemplar(batch_trace))
            };
            let misses: Vec<usize> = (0..unique.len()).filter(|&u| cached[u].is_none()).collect();
            let hits = unique.len() - misses.len();
            self.counters.cache_hits.add(hits as u64);
            self.counters.cache_misses.add(misses.len() as u64);
            let mut answers: Vec<(usize, Answer)> = (cached.into_iter().enumerate())
                .filter_map(|(u, hit)| Some((u, (Ok(hit?), None))))
                .collect();
            // 2. Every miss, on every topology, takes the one grid path.
            let grid = self.run_grid(&snapshot, &unique, &traces, &misses, &mut answers);
            // Hits and misses partition the unique queries, so in unique
            // order there is exactly one answer per unique query.
            answers.sort_unstable_by_key(|&(u, _)| u);
            (answers, grid, cache_lookup_micros)
        });
        let batch_misses = grid.misses;
        let mut assignment = vec![0; batch.len()];
        for (u, (_, members)) in unique.iter().enumerate() {
            for &member in members {
                assignment[member] = u;
            }
        }

        let exec_micros = started.elapsed().as_micros() as u64;
        self.telemetry
            .batch_exec
            .record_with_exemplar(exec_micros, batch_trace);
        let batch_size = batch.len() as u32;
        // Counters bump before the driver fulfils any slot, so a client
        // that just received its reply already sees itself counted.
        self.counters.batches.inc();
        self.counters.largest_batch.bump_max(i64::from(batch_size));
        self.telemetry.recorder.record(
            "batch",
            [
                ("size", EventValue::from(batch.len())),
                ("unique", EventValue::from(unique.len())),
                ("cache_hits", EventValue::from(unique.len() - batch_misses)),
                ("cache_misses", EventValue::from(batch_misses)),
                ("exec_micros", EventValue::from(exec_micros)),
            ],
        );
        let threshold = self.telemetry.slow_batch_threshold_micros;
        if threshold > 0 && exec_micros > threshold {
            self.telemetry.recorder.record(
                "slow-batch",
                [
                    ("exec_micros", EventValue::from(exec_micros)),
                    ("threshold_micros", EventValue::from(threshold)),
                    ("batch_size", EventValue::from(batch.len())),
                    // Exemplar: the first traced member of the slow batch
                    // (0 when none was sampled) — resolvable via `trace <id>`.
                    ("trace", EventValue::from(batch_trace)),
                ],
            );
        }
        let unique_count = unique.len() as u64;
        let _finalize = Span::enter(&self.telemetry.finalize);
        let replies = batch.iter().zip(assignment).map(|(request, u)| {
            let (outcome, spec) = &answers[u].1;
            let queue_micros = self.account(started, request, outcome.is_ok());
            let timings = RequestTimings {
                queue_micros,
                exec_micros,
                batch_size,
            };
            let spec = spec.map(|si| &grid.specs[si]);
            // The trace is assembled from the *same* u64 values the stats
            // and histograms consumed — `queue_micros` and `exec_micros`
            // above — never a fresh clock read, which is what makes
            // `trace.total_micros == queue_micros + exec_micros` an exact
            // contract rather than an approximation.
            let trace = (request.trace_id != 0).then(|| {
                let total_micros = queue_micros + exec_micros;
                let mut root = TraceSpan::new("request", 0, total_micros);
                root.push_child(TraceSpan::new("queue", 0, queue_micros));
                let mut exec_span = TraceSpan::new("exec", queue_micros, exec_micros)
                    .attr("batch_size", u64::from(batch_size))
                    .attr("batch_unique", unique_count);
                exec_span.push_child(
                    TraceSpan::new("refresh", exec_span.next_child_start(), refresh_micros)
                        .attr("shards", refreshed_shards),
                );
                exec_span.push_child(
                    TraceSpan::new(
                        "cache_lookup",
                        exec_span.next_child_start(),
                        cache_lookup_micros,
                    )
                    .attr("hit", u64::from(spec.is_none())),
                );
                if let Some(spec) = spec {
                    let scan_start = exec_span.next_child_start();
                    let attribution = spec.plan.attribution();
                    let mut scan_span = TraceSpan::new("scan", scan_start, grid.micros)
                        .attr("segments", attribution.segments as u64)
                        .attr("trials", attribution.trials as u64)
                        .attr("groups", attribution.groups as u64)
                        .attr("bytes", attribution.bytes as u64)
                        .attr("partial_hits", spec.hits)
                        .attr("partial_misses", spec.cells.len() as u64 - spec.hits);
                    for child in &spec.children {
                        scan_span.push_child(child.shifted(scan_start));
                    }
                    exec_span.push_child(scan_span);
                }
                root.push_child(exec_span);
                TraceRecord {
                    id: request.trace_id,
                    total_micros,
                    root,
                }
            });
            // Retain the trace *before* the reply goes out, so a client
            // that just received its traced reply can resolve the id.
            if let Some(trace) = &trace {
                if self.telemetry.traces.insert(trace.clone()) {
                    self.counters.traces_retained.inc();
                }
            }
            outcome.clone().map(|result| Reply {
                result,
                timings,
                trace,
            })
        });
        replies.collect()
    }

    /// The replies of a batch whose [`step`](Self::step) panicked with
    /// `message`: each member fails with [`ServeError::Internal`] and is
    /// counted once, and the recorder logs one `worker-panic` event.
    /// Stage samples the step recorded before it panicked are not rolled
    /// back.
    pub fn fail(
        &self,
        started: Instant,
        batch: &[Request],
        message: &str,
    ) -> Vec<Result<Reply, ServeError>> {
        let size = EventValue::from(batch.len());
        let fields = [("batch_size", size), ("message", EventValue::from(message))];
        self.telemetry.recorder.record("worker-panic", fields);
        let fail = |request| {
            self.account(started, request, false);
            Err(ServeError::Internal(message.to_string()))
        };
        batch.iter().map(fail).collect()
    }

    /// Counts one reply to `request`: its queue wait up to `started` (one
    /// sample per admitted request, so the queue histogram's count always
    /// equals `completed + failed`) and one `completed` or `failed`.
    /// Returns the wait.
    fn account(&self, started: Instant, request: &Request, ok: bool) -> u64 {
        let wait = started.saturating_duration_since(request.enqueued);
        let wait = wait.as_micros() as u64;
        let queue = &self.telemetry.queue;
        queue.record_with_exemplar(wait, request.trace_id);
        let outcome = if ok {
            &self.counters.completed
        } else {
            &self.counters.failed
        };
        outcome.inc();
        wait
    }

    /// Refreshes the provider before the batch snapshots it, so a query
    /// submitted after a commit was published observes it; the cost is
    /// attributed to the batch's exec time.  Returns the refresh-stage
    /// duration and the number of shards that advanced.
    fn refresh(&self) -> (u64, u64) {
        let refresh_span = Span::enter(&self.telemetry.refresh_probe);
        let refreshed = self.provider.refresh();
        let refresh_micros = refresh_span.finish();
        if !refreshed.is_empty() {
            self.counters.refreshes.add(refreshed.len() as u64);
            self.telemetry.recorder.record(
                "refresh",
                [
                    ("shards", EventValue::from(refreshed.len())),
                    ("indices", EventValue::from(format!("{refreshed:?}"))),
                ],
            );
        }
        // Stores a watching catalog adopted during that refresh surface as
        // one counter bump and one recorder event per store, so the fleet
        // smoke can cross-check `discovered_stores` against the event log.
        let discovered = self.provider.drain_discovered();
        self.counters.discovered_stores.add(discovered.len() as u64);
        for path in &discovered {
            self.telemetry.recorder.record(
                "store-discovered",
                [("path", EventValue::from(path.display().to_string()))],
            );
        }
        (refresh_micros, refreshed.len() as u64)
    }

    /// The one way a result-cache miss is answered, on every topology: the
    /// snapshot is a grid of (segment-range × trial-window) cells — 1×1
    /// for a flat store — and the batch's misses (indices into `unique`)
    /// go
    ///
    /// 1. **plan**: grouped by scan spec, planned once per spec, each plan
    ///    cut into its cells ([`plan_cells`]);
    /// 2. **probe**: multi-cell specs look their cells up in the cell
    ///    cache (a cached window is verified against the cell's, so a
    ///    mismatch is a miss, never a wrong combine);
    /// 3. **scan**: the still-missing `(spec, cell)` pairs are grouped by
    ///    what they scan, and each group rides **one** fused scan — with
    ///    no cache lock held (scans are the expensive part and other
    ///    workers may be probing);
    /// 4. **publish**: each group's fresh partials of multi-cell specs
    ///    enter the cell cache — the same allocations the combine reads,
    ///    no copy;
    /// 5. **combine + finalise**: once per spec, every member query
    ///    finalised from the shared loss vectors, results published to the
    ///    result cache.
    ///
    /// Each miss adds exactly one `(unique index, answer)` pair to
    /// `answers`.
    ///
    /// Count contracts (OBSERVABILITY.md §3.1): every `(spec, cell)` pair
    /// is one `partial_hits` or one `partial_misses`; every fused scan is
    /// one `scan_shard` sample and one `fused_partial_scans`; every
    /// answered miss is one `stitch` sample carrying its spec's combine +
    /// finalise time; every miss (plan failures included) is one
    /// scan-stage sample carrying the whole phase's elapsed time, since
    /// all misses rode the same pass.  A traced member's span tree gets
    /// its spec's children, so its `scan_shard` count equals the spec's
    /// contribution to `partial_misses`.
    fn run_grid(
        &self,
        snapshot: &SourceSnapshot<'_>,
        unique: &[(&Query, Vec<usize>)],
        traces: &[u64],
        misses: &[usize],
        answers: &mut Vec<(usize, Answer)>,
    ) -> GridRun {
        let phase_started = Instant::now();
        let (source, generations) = (snapshot.source, snapshot.generations);

        // 1. Plan.
        let mut specs: Vec<SpecMiss> = Vec::new();
        let by_spec = group_by_key(misses.iter().map(|&i| (unique[i].0.scan_spec(), i)));
        for (_, members) in by_spec {
            let query = unique[members[0]].0;
            match QueryPlan::new(source, query) {
                Ok(plan) => {
                    let (cells, segment_cells) =
                        plan_cells(&plan, snapshot.grid, source.num_segments());
                    specs.push(SpecMiss {
                        trace: first_traced(members.iter().map(|&i| traces[i])),
                        key: (cells.len() > 1)
                            .then(|| (query.filter.clone(), query.group_by.clone())),
                        parts: vec![None; cells.len()],
                        members,
                        plan,
                        cells,
                        segment_cells,
                        hits: 0,
                        children: Vec::new(),
                        next_start: 0,
                    });
                }
                // Unreachable in practice — every query was validated at
                // submit time and the trial count never shrinks — but each
                // member still gets its own typed reply.
                Err(err) => answers.extend(members.into_iter().map(|index| {
                    let err = ServeError::InvalidQuery(err.to_string());
                    (index, (Err(err), None))
                })),
            }
        }

        // 2. Probe, under one short lock.
        let stamp = |cell: &Cell| (generations[cell.slot], cell.segments.1 - cell.segments.0);
        {
            let mut partials = lock(&self.partials);
            for spec in &mut specs {
                let Some(key) = &spec.key else { continue };
                for (part, cell) in spec.parts.iter_mut().zip(&spec.cells) {
                    *part = partials
                        .get(key, cell.slot, stamp(cell))
                        .filter(|partial| partial.window == cell.window);
                }
                spec.hits = spec.parts.iter().flatten().count() as u64;
            }
        }
        let hits: u64 = specs.iter().map(|spec| spec.hits).sum();
        let probed: u64 = specs.iter().map(|spec| spec.cells.len() as u64).sum();
        self.counters.partial_hits.add(hits);
        self.counters.partial_misses.add(probed - hits);

        // 3. Scan: one fused pass per distinct (segment range, window).
        let missing = specs.iter().enumerate().flat_map(|(si, spec)| {
            let unfilled = spec
                .cells
                .iter()
                .enumerate()
                .filter(|(ci, _)| spec.parts[*ci].is_none());
            unfilled.map(move |(ci, cell)| ((cell.segments, cell.window), (si, ci)))
        });
        for ((_, (start, end)), members) in group_by_key(missing) {
            let exemplar = first_traced(members.iter().map(|&(si, _)| specs[si].trace));
            let (fresh, micros) = {
                let plans: Vec<&QueryPlan> = members
                    .iter()
                    .map(|&(si, ci)| specs[si].cell_plan(ci))
                    .collect();
                let cell_scan = Span::enter(&self.telemetry.scan_shard);
                let fresh = scan_trial_partials_fused(source, &plans, start, end);
                (fresh, cell_scan.finish_with_exemplar(exemplar))
            };
            self.counters.fused_partial_scans.inc();
            // 4. Publish the fresh partials of multi-cell specs — the same
            //    allocations the combine below reads, no copy.
            let mut partials = lock(&self.partials);
            for ((si, ci), partial) in members.into_iter().zip(fresh) {
                let spec = &mut specs[si];
                if spec.trace != 0 {
                    let attribution = spec.cell_plan(ci).attribution_for_window(start, end);
                    spec.children.push(
                        TraceSpan::new("scan_shard", spec.next_start, micros)
                            .attr("shard", spec.cells[ci].slot as u64)
                            .attr("window_start", start as u64)
                            .attr("window_end", end as u64)
                            .attr("segments", attribution.segments as u64)
                            .attr("bytes", attribution.bytes as u64),
                    );
                    spec.next_start += micros;
                }
                let partial = Arc::new(partial);
                if let Some(key) = &spec.key {
                    let cell = &spec.cells[ci];
                    partials.insert(key, cell.slot, stamp(cell), Arc::clone(&partial));
                }
                spec.parts[ci] = Some(partial);
            }
        }

        // 5. Combine + finalise, once per spec.  The spec's parts go here;
        //    what stays is what its members' traces read.
        for (si, spec) in specs.iter_mut().enumerate() {
            let stitch_started = Instant::now();
            let finals = {
                let owned = std::mem::take(&mut spec.parts);
                let parts: Vec<&TrialPartial> = owned
                    .iter()
                    .map(|part| part.as_deref().expect("probed or scanned"))
                    .collect();
                let aggregate = match combine(&spec.plan, &parts, spec.segment_cells) {
                    Ok(aggregate) => aggregate,
                    Err(_) => Cow::Owned(self.self_heal(source, spec)),
                };
                finalize(
                    spec.members.iter().map(|&index| unique[index].0),
                    &spec.plan.keys,
                    &spec.plan.segment_counts(),
                    spec.plan.num_trials(),
                    &aggregate,
                )
            };
            let stitch_micros = stitch_started.elapsed().as_micros() as u64;
            if spec.trace != 0 {
                spec.children.push(
                    TraceSpan::new("stitch", spec.next_start, stitch_micros)
                        .attr("parts", spec.cells.len() as u64),
                );
            }
            let mut cache = lock(&self.cache);
            for (&index, result) in spec.members.iter().zip(finals) {
                self.telemetry
                    .stitch
                    .record_with_exemplar(stitch_micros, traces[index]);
                cache.insert(unique[index].0.clone(), generations, result.clone());
                answers.push((index, (Ok(result), Some(si))));
            }
        }

        // One scan-stage sample per miss, each carrying the whole phase.
        let micros = phase_started.elapsed().as_micros() as u64;
        for &index in misses {
            self.telemetry
                .scan
                .record_with_exemplar(micros, traces[index]);
        }
        GridRun {
            specs,
            micros,
            misses: misses.len(),
        }
    }

    /// The self-heal path after a failed combine: cached cells that cannot
    /// combine disagree with each other, so none of them can be trusted —
    /// unreachable while the cache key contract holds, but a valid query
    /// must never error over cache state.  Purges the spec's cells so the
    /// next execution rescans cleanly, and answers this one by rescanning
    /// the plan as one cell spanning the union, through the reference
    /// scan.
    fn self_heal(&self, source: &dyn SegmentSource, spec: &SpecMiss) -> PartialAggregate {
        let cells = spec.cells.len();
        self.telemetry.recorder.record(
            "stitch-fallback",
            [
                ("shards", EventValue::from(cells)),
                ("cached_parts", EventValue::from(spec.hits)),
                ("rescanned", EventValue::from(cells as u64 - spec.hits)),
            ],
        );
        if let Some(key) = &spec.key {
            lock(&self.partials).purge(key);
        }
        self.telemetry
            .recorder
            .record("cache-purge", [("shards", EventValue::from(cells))]);
        scan_trial_partial(
            source,
            &spec.plan,
            spec.plan.trial_start,
            spec.plan.trial_end,
        )
        .aggregate
    }
}

/// The first traced id among `ids` (0 when none is): the exemplar stamped
/// on a shared stage sample.
fn first_traced(mut ids: impl Iterator<Item = u64>) -> u64 {
    ids.find(|&id| id != 0).unwrap_or(0)
}

/// What [`BatchCore::run_grid`] leaves for the replies besides the
/// answers: the specs the answers name, the phase's elapsed time (what
/// every miss's scan-stage sample carried) and the number of misses.
struct GridRun {
    specs: Vec<SpecMiss>,
    micros: u64,
    misses: usize,
}

/// One result-cache-missing scan spec mid-flight through
/// [`BatchCore::run_grid`]: the queries sharing it, its plan and cells,
/// the cell partials being filled, its cell-cache traffic, and (when a
/// member is traced) the child spans accumulated so far.
struct SpecMiss {
    /// Indices into the batch's unique queries of the spec's members.
    members: Vec<usize>,
    plan: QueryPlan,
    cells: Vec<Cell>,
    /// Segment cells per trial window — what [`combine`] chunks by.
    segment_cells: usize,
    /// The cell-cache key; `None` for a single-cell plan, which skips the
    /// cell cache (its key would carry exactly the result cache's
    /// information, at twice the memory).
    key: Option<SpecKey>,
    /// One slot per cell, in cell order; `None` until probed or scanned.
    parts: Vec<Option<Arc<TrialPartial>>>,
    hits: u64,
    /// The first traced member's id (0 when none): the exemplar of the
    /// spec's stage samples, and the switch for its child spans.
    trace: u64,
    /// `scan_shard` / `stitch` child spans, start offsets packed
    /// sequentially relative to the scan stage's start.
    children: Vec<TraceSpan>,
    next_start: u64,
}

impl SpecMiss {
    /// The plan cell `ci` scans: the cell's own restriction, or the
    /// spec's plan when the cell spans every segment.
    fn cell_plan(&self, ci: usize) -> &QueryPlan {
        self.cells[ci].plan.as_ref().unwrap_or(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_store::random_store;
    use catrisk_riskquery::prelude::*;
    use std::time::Duration;

    #[test]
    fn a_full_queue_closes_the_window_at_once() {
        let config = ServerConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(200),
            ..ServerConfig::default()
        };
        let opened = Instant::now();
        assert_eq!(close_at(opened, 4, &config), opened);
        assert_eq!(close_at(opened, 9, &config), opened);
        let below = close_at(opened, 3, &config);
        assert_eq!(below, opened + Duration::from_micros(200));
        assert_eq!(close_at(opened, 0, &config), below);
    }

    #[test]
    fn a_zero_window_never_coalesces() {
        let config = ServerConfig {
            batch_window: Duration::ZERO,
            ..ServerConfig::default()
        };
        let opened = Instant::now();
        assert_eq!(close_at(opened, 1, &config), opened);
    }

    #[test]
    fn a_step_measures_queue_waits_from_the_supplied_start() {
        let store = Arc::new(random_store(64, 8, 21));
        let core = BatchCore::new(Arc::clone(&store), ServerConfig::default());
        let query = |aggregate| {
            QueryBuilder::new()
                .group_by(Dimension::Region)
                .aggregate(aggregate)
                .build()
                .unwrap()
        };
        let queries = [
            query(Aggregate::Mean),
            query(Aggregate::Tvar { level: 0.9 }),
        ];
        let started = Instant::now();
        let batch: Vec<Request> = queries
            .iter()
            .zip([300, 100])
            .map(|(query, waited)| Request {
                query: query.clone(),
                enqueued: started - Duration::from_micros(waited),
                trace_id: 0,
            })
            .collect();
        let replies = core.step(started, &batch);
        let waits: Vec<u64> = replies
            .iter()
            .map(|reply| reply.as_ref().unwrap().timings.queue_micros)
            .collect();
        assert_eq!(waits, [300, 100]);
        for (reply, query) in replies.into_iter().zip(&queries) {
            assert_eq!(reply.unwrap().result, execute(&*store, query).unwrap());
        }
        assert_eq!(core.counters.snapshot().completed, 2);
    }
}
