//! The micro-batching server core: bounded queue → batch window →
//! refresh → cache → fused scan → reply slots.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use catrisk_riskquery::{
    combine, finalize, group_by_key, plan_cells, scan_trial_partial, scan_trial_partials_fused,
    Cell, PartialAggregate, Query, QueryPlan, QueryResult, ScanAttribution, SegmentSource,
    TrialPartial,
};
use catrisk_telemetry::{
    EventRecord, EventValue, MetricsSnapshot, Span, TraceLookup, TraceRecord, TraceSpan,
};

use crate::cache::{PartialCache, ResultCache, SpecKey};
use crate::source::{SourceProvider, SourceSnapshot};
use crate::stats::{Counters, RequestTimings, StatsSnapshot};
use crate::sync::{lock, wait, wait_timeout};
use crate::telemetry::ServerTelemetry;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// A batch window closes as soon as this many requests are pending.
    pub max_batch: usize,
    /// How long a worker holds a window open for more requests to coalesce
    /// after it has picked up the first one.  Zero disables coalescing —
    /// every request executes as soon as a worker is free.
    pub batch_window: Duration,
    /// Admission-control bound: a submit finding this many requests queued
    /// is rejected with [`ServeError::Overloaded`] instead of queueing.
    pub queue_depth: usize,
    /// Worker threads pulling batches off the queue.  Each batch execution
    /// is itself trial-block-parallel on the rayon pool, so a small number
    /// of workers saturates the machine; more workers trade batching
    /// efficiency for lower window latency under light load.
    pub workers: usize,
    /// Entries the generation-keyed result cache holds (0 disables it).
    /// An entry is one unique query's full result; it is served again
    /// without scanning until any shard's committed generation moves.
    pub cache_capacity: usize,
    /// Entries the per-cell partial-aggregate cache holds (0 disables
    /// it).  Exercised by multi-shard catalogs on either axis: an entry
    /// is one `(scan spec, cell)` partial, valid until *that cell's
    /// shard's* generation moves (or the keyed segment count changes), so
    /// a single-shard refresh rescans one trial window (trial axis) or
    /// one shard's segments (segment axis, shard-aligned plans) instead
    /// of everything.  Plans with a single cell — every plan on a flat
    /// store — never enter it: the result cache already holds all a
    /// one-cell key could.
    pub partial_cache_capacity: usize,
    /// Batches whose execution exceeds this many microseconds emit a
    /// `slow-batch` flight-recorder event.  0 (the default) disables the
    /// check.
    pub metrics_threshold_us: u64,
    /// Events the flight recorder retains (0 disables the recorder).
    pub recorder_capacity: usize,
    /// Trace every Nth admitted request: 1 traces every request, 0 (the
    /// default) disables tracing entirely — the only hot-path cost of the
    /// tracing machinery is then one branch per stage sample.  The
    /// sampling decision (and the trace-id allocation) happens inside the
    /// admission critical section, so with a value of 1 the
    /// `traces_started` counter equals `submitted` exactly.
    pub trace_sample_every: u64,
    /// Completed traces the trace store's recency ring retains (the
    /// slowest-trace pool is a separate fixed
    /// [`SLOWEST_POOL`](catrisk_telemetry::SLOWEST_POOL) entries).  0
    /// disables retention: traced requests still carry their trace inline
    /// in the reply, but `trace <id>` lookups answer `evicted`.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            batch_window: Duration::from_micros(200),
            queue_depth: 1024,
            workers: 2,
            cache_capacity: 1024,
            partial_cache_capacity: 4096,
            metrics_threshold_us: 0,
            recorder_capacity: 256,
            trace_sample_every: 0,
            trace_capacity: 256,
        }
    }
}

/// Typed serving errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the queue already held
    /// `depth` requests.  The client should back off and retry.
    Overloaded {
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// The query cannot run against this server's store (bad trial window,
    /// invalid aggregate, ...).  Rejected at submit time, before queueing.
    InvalidQuery(String),
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "server overloaded: {depth} requests queued")
            }
            ServeError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A wire-independent name for each error variant (the TCP protocol and
/// the load generator key on it).
impl ServeError {
    /// Stable machine-readable error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::InvalidQuery(_) => "invalid",
            ServeError::ShuttingDown => "shutting-down",
        }
    }
}

/// A successful reply: the query result plus its latency attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The query's result, bit-identical to a sequential
    /// [`execute`](catrisk_riskquery::execute) of the same query.
    pub result: QueryResult,
    /// Where this request's latency went.
    pub timings: RequestTimings,
    /// The request's execution trace, when it was sampled for tracing
    /// (`None` otherwise).  The trace is built from the **same** clock
    /// reads as `timings`, so `trace.total_micros ==
    /// timings.queue_micros + timings.exec_micros` holds exactly.
    pub trace: Option<TraceRecord>,
}

/// One-shot reply slot shared between a queued request and its
/// [`Ticket`].
#[derive(Debug, Default)]
struct ReplySlot {
    outcome: Mutex<Option<Result<Reply, ServeError>>>,
    ready: Condvar,
}

impl ReplySlot {
    fn fulfil(&self, outcome: Result<Reply, ServeError>) {
        *lock(&self.outcome) = Some(outcome);
        self.ready.notify_all();
    }
}

/// The claim check a [`Server::submit`] returns: redeem it with
/// [`Ticket::wait`] for the reply.  Every accepted ticket is fulfilled
/// exactly once — workers drain the queue on shutdown, so accepted
/// requests are never dropped.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl Ticket {
    /// Blocks until the reply is ready.
    pub fn wait(self) -> Result<Reply, ServeError> {
        let mut outcome = lock(&self.slot.outcome);
        loop {
            if let Some(reply) = outcome.take() {
                return reply;
            }
            outcome = wait(&self.slot.ready, outcome);
        }
    }

    /// Returns the reply if it is already ready, or the ticket back.
    pub fn try_wait(self) -> Result<Result<Reply, ServeError>, Ticket> {
        let ready = lock(&self.slot.outcome).take();
        match ready {
            Some(reply) => Ok(reply),
            None => Err(self),
        }
    }
}

/// One admitted request waiting in the queue.
struct Pending {
    query: Query,
    slot: Arc<ReplySlot>,
    enqueued: Instant,
    /// The request's trace id, 0 when it was not sampled for tracing.
    trace_id: u64,
}

/// Queue state guarded by one mutex: the pending requests plus the
/// shutdown latch the workers observe.
#[derive(Default)]
struct QueueState {
    pending: VecDeque<Pending>,
    /// Requests ever admitted — the trace-sampling modulus ticks off this
    /// count inside the admission critical section, so "every Nth" is
    /// exact even under concurrent submitters.
    admitted: u64,
    shutting_down: bool,
}

struct Shared<P> {
    provider: P,
    config: ServerConfig,
    queue: Mutex<QueueState>,
    /// Signalled on every admit and on shutdown; workers wait on it both
    /// when idle and while a batch window is open.
    arrived: Condvar,
    cache: Mutex<ResultCache>,
    partials: Mutex<PartialCache>,
    counters: Counters,
    telemetry: ServerTelemetry,
}

/// A micro-batching query server over any [`SourceProvider`] — a shared
/// immutable `Arc<SegmentSource>` or a refreshable
/// [`StoreCatalog`](crate::catalog::StoreCatalog) of persistent shards.
///
/// Many client threads [`submit`](Server::submit) parsed queries
/// concurrently; worker threads coalesce whatever is pending — closing
/// each batch window after [`ServerConfig::max_batch`] requests or
/// [`ServerConfig::batch_window`], whichever comes first.  Each batch
/// first refreshes the provider (newly committed segments become
/// visible), then consults the generation-keyed result cache, and pushes
/// only the cache misses through the one grid executor (plan → cells →
/// fused scan → combine → finalise) over the snapshot — so N concurrent
/// requests over the same slices cost ~1 fused scan instead of N, and
/// repeated queries cost no scan at all until new data lands.  Results
/// are bit-identical to running each query alone against the current
/// snapshot.
///
/// Dropping the server shuts it down: queued requests are still answered
/// (never dropped), subsequent submits fail with
/// [`ServeError::ShuttingDown`].
pub struct Server<P: SourceProvider> {
    shared: Arc<Shared<P>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<P: SourceProvider> std::fmt::Debug for Server<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("segments", &self.shared.provider.num_segments())
            .field("config", &self.shared.config)
            .finish()
    }
}

impl<P: SourceProvider> Server<P> {
    /// Starts a server over `provider` with the given configuration.
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
        let shared = Arc::new(Shared {
            provider,
            config: ServerConfig {
                max_batch: config.max_batch.max(1),
                workers: config.workers.max(1),
                ..config
            },
            queue: Mutex::new(QueueState::default()),
            arrived: Condvar::new(),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            partials: Mutex::new(PartialCache::new(config.partial_cache_capacity)),
            counters: Counters::register(&telemetry.registry),
            telemetry,
        });
        let workers = (0..shared.config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("riskserve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn riskserve worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Starts a server with the default configuration.
    pub fn with_defaults(provider: P) -> Self {
        Self::new(provider, ServerConfig::default())
    }

    /// The provider this server answers queries over.
    pub fn provider(&self) -> &P {
        &self.shared.provider
    }

    /// The active configuration (after clamping).
    pub fn config(&self) -> ServerConfig {
        self.shared.config
    }

    /// Submits one query for batched execution.
    ///
    /// Validates the query against the provider's (lifetime-fixed) trial
    /// count up front — without touching the snapshot locks — so a
    /// planning failure is returned here as [`ServeError::InvalidQuery`]
    /// and one client's malformed query can never fail a batch it shares
    /// with others.  Applies admission control: past
    /// [`ServerConfig::queue_depth`] pending requests the submit is
    /// rejected with a typed [`ServeError::Overloaded`] instead of
    /// queueing without bound.
    pub fn submit(&self, query: Query) -> Result<Ticket, ServeError> {
        self.submit_inner(query, false)
    }

    /// Submits one query with tracing forced on, whatever the sampling
    /// knob says: the reply always carries its execution profile.  This
    /// backs the wire protocol's per-request `trace` prefix.
    pub fn submit_traced(&self, query: Query) -> Result<Ticket, ServeError> {
        self.submit_inner(query, true)
    }

    fn submit_inner(&self, query: Query, force_trace: bool) -> Result<Ticket, ServeError> {
        // One admission sample per attempt, whatever the outcome — the
        // span records on every exit path below.
        let _admission = Span::enter(&self.shared.telemetry.admission);
        if let Err(err) = QueryPlan::validate_trials(self.shared.provider.num_trials(), &query) {
            return Err(ServeError::InvalidQuery(err.to_string()));
        }
        let slot = Arc::new(ReplySlot::default());
        let trace_id = {
            let mut queue = lock(&self.shared.queue);
            if queue.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            let depth = queue.pending.len();
            if depth >= self.shared.config.queue_depth {
                self.shared.counters.rejected.inc();
                self.shared
                    .telemetry
                    .recorder
                    .record("overload", [("depth", EventValue::from(depth))]);
                return Err(ServeError::Overloaded { depth });
            }
            // The sampling decision rides the admission critical section:
            // every Nth *admitted* request gets an id, so with N = 1 the
            // `traces_started` counter equals `submitted` exactly.  With
            // sampling off this is one branch.
            let sample_every = self.shared.telemetry.trace_sample_every;
            let trace_id = if force_trace
                || (sample_every > 0 && queue.admitted.is_multiple_of(sample_every))
            {
                self.shared.telemetry.traces.allocate()
            } else {
                0
            };
            queue.admitted += 1;
            queue.pending.push_back(Pending {
                query,
                slot: Arc::clone(&slot),
                enqueued: Instant::now(),
                trace_id,
            });
            self.shared
                .counters
                .max_queue_depth
                .bump_max(depth as i64 + 1);
            trace_id
        };
        self.shared.counters.submitted.inc();
        if trace_id != 0 {
            self.shared.counters.traces_started.inc();
        }
        self.shared.arrived.notify_one();
        Ok(Ticket { slot })
    }

    /// Submits a query and blocks for its reply — the one-call convenience
    /// path.
    pub fn query(&self, query: Query) -> Result<Reply, ServeError> {
        self.submit(query)?.wait()
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.counters.snapshot()
    }

    /// A snapshot of every metric: the counters plus the per-stage latency
    /// histograms (see [`crate::telemetry::stage`] for the taxonomy).
    /// This is what the `metrics` protocol command returns.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.telemetry.registry.snapshot()
    }

    /// The flight recorder's current contents, oldest first.  This is
    /// what the `recorder` protocol command returns.
    pub fn recorder_dump(&self) -> Vec<EventRecord> {
        self.shared.telemetry.recorder.dump()
    }

    /// The recorder events with `seq >= since`, oldest first — the
    /// incremental scrape behind the `recorder since <seq>` protocol
    /// command (sequence numbers never reset, so repeated scrapes
    /// correlate exactly).
    pub fn recorder_dump_since(&self, since: u64) -> Vec<EventRecord> {
        self.shared.telemetry.recorder.dump_since(since)
    }

    /// Looks up a trace by id — the `trace <id>` protocol command.
    /// Distinguishes retained, evicted (a real id whose record aged out)
    /// and unknown (never issued by this server).
    pub fn trace(&self, id: u64) -> TraceLookup {
        self.shared.telemetry.traces.lookup(id)
    }

    /// The `n` slowest retained traces, slowest first — the
    /// `trace slowest N` protocol command.
    pub fn slowest_traces(&self, n: usize) -> Vec<TraceRecord> {
        self.shared.telemetry.traces.slowest(n)
    }

    /// Stops accepting requests, drains the queue (every accepted ticket
    /// is fulfilled) and joins the workers.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = lock(&self.shared.queue);
            queue.shutting_down = true;
        }
        self.shared.arrived.notify_all();
        for worker in lock(&self.workers).drain(..) {
            let _ = worker.join();
        }
    }
}

impl<P: SourceProvider> Drop for Server<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker body: wait for a request, hold the batch window open, drain up
/// to `max_batch`, execute the batch, deliver replies; on shutdown keep
/// draining until the queue is empty, then exit.
fn worker_loop<P: SourceProvider>(shared: &Shared<P>) {
    loop {
        let batch: Vec<Pending> = {
            let mut queue = lock(&shared.queue);
            loop {
                if !queue.pending.is_empty() {
                    break;
                }
                if queue.shutting_down {
                    return;
                }
                queue = wait(&shared.arrived, queue);
            }
            // The window opens when a worker first sees the queue
            // non-empty and closes at `batch_window` or `max_batch`,
            // whichever comes first.  Shutdown closes it immediately.
            let deadline = Instant::now() + shared.config.batch_window;
            while queue.pending.len() < shared.config.max_batch && !queue.shutting_down {
                let now = Instant::now();
                if now >= deadline || queue.pending.is_empty() {
                    break;
                }
                queue = wait_timeout(&shared.arrived, queue, deadline - now);
            }
            let take = queue.pending.len().min(shared.config.max_batch);
            queue.pending.drain(..take).collect()
        };
        // Another worker may have drained the queue while this one held
        // the window open.
        if batch.is_empty() {
            continue;
        }
        execute_batch(shared, batch);
    }
}

/// Per-unique-query scan detail captured while a batch executes, for
/// traced member requests: the scan-stage duration (the same clock read
/// the scan histogram recorded), the plan-derived attribution, the cell
/// cache traffic of the query's scan spec and the spec's per-cell child
/// spans (start offsets relative to the scan's own start).
struct ScanDetail {
    micros: u64,
    attribution: ScanAttribution,
    partial_hits: u64,
    partial_misses: u64,
    children: Vec<TraceSpan>,
}

/// Executes one batch: refreshes the provider (newly committed segments
/// become visible and stale cache generations retire), dedups identical
/// queries across submitters, answers what it can from the result cache,
/// runs the remaining misses through [`run_grid`], and fulfils every
/// reply slot.
///
/// When any member of the batch is traced, the batch-level stage timings
/// (refresh, cache lookup, scan) are captured once from the spans' own
/// clock reads and fanned back out into each traced member's span tree —
/// a trace can never disagree with the histograms because both consumed
/// the same measured value.
fn execute_batch<P: SourceProvider>(shared: &Shared<P>, batch: Vec<Pending>) {
    let started = Instant::now();
    // First traced member, if any: the batch-level exemplar id (stamped
    // on the batch-exec histogram bucket and the slow-batch event).
    let batch_trace = first_traced(batch.iter().map(|pending| pending.trace_id));
    let any_traced = batch_trace != 0;
    // Refresh before snapshotting, so a query submitted after a commit
    // was published observes it; the refresh cost is attributed to this
    // batch's exec time.
    let refresh_span = Span::enter(&shared.telemetry.refresh_probe);
    let refreshed = shared.provider.refresh();
    let refresh_micros = refresh_span.finish();
    let refreshed_shards = refreshed.len() as u64;
    if !refreshed.is_empty() {
        shared.counters.refreshes.add(refreshed.len() as u64);
        shared.telemetry.recorder.record(
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
    let discovered = shared.provider.drain_discovered();
    if !discovered.is_empty() {
        shared
            .counters
            .discovered_stores
            .add(discovered.len() as u64);
        for path in &discovered {
            shared.telemetry.recorder.record(
                "store-discovered",
                [("path", EventValue::from(path.display().to_string()))],
            );
        }
    }

    let mut unique: Vec<Query> = Vec::with_capacity(batch.len());
    let mut index_of: HashMap<&Query, usize> = HashMap::with_capacity(batch.len());
    let assignment: Vec<usize> = batch
        .iter()
        .map(|pending| match index_of.entry(&pending.query) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let index = unique.len();
                slot.insert(index);
                unique.push(pending.query.clone());
                index
            }
        })
        .collect();
    drop(index_of);

    // The representative trace id of each unique query: the first traced
    // member that mapped to it.  Scan-stage exemplars and per-shard child
    // spans are attributed to the representative.
    let mut rep_trace: Vec<u64> = vec![0; unique.len()];
    if any_traced {
        for (pending, &index) in batch.iter().zip(&assignment) {
            if pending.trace_id != 0 && rep_trace[index] == 0 {
                rep_trace[index] = pending.trace_id;
            }
        }
    }

    let mut batch_hits = 0usize;
    let mut batch_misses = 0usize;
    let mut cache_lookup_micros = 0u64;
    let mut scan_details: Vec<Option<ScanDetail>> = (0..unique.len()).map(|_| None).collect();
    let outcomes: Vec<Result<QueryResult, ServeError>> = shared.provider.with_source(|snapshot| {
        let generations = snapshot.generations;
        let mut results: Vec<Option<Result<QueryResult, ServeError>>> =
            (0..unique.len()).map(|_| None).collect();
        // 1. The generation-keyed cache: a hit is bit-identical to a
        //    fresh scan of this snapshot by the cache's key contract.
        let mut misses: Vec<usize> = Vec::new();
        {
            let cache_lookup = Span::enter(&shared.telemetry.cache_lookup);
            let mut cache = lock(&shared.cache);
            for (index, query) in unique.iter().enumerate() {
                match cache.get(query, generations) {
                    Some(result) => results[index] = Some(Ok(result)),
                    None => misses.push(index),
                }
            }
            cache_lookup_micros = cache_lookup.finish_with_exemplar(batch_trace);
        }
        batch_hits = unique.len() - misses.len();
        batch_misses = misses.len();
        shared.counters.cache_hits.add(batch_hits as u64);
        shared.counters.cache_misses.add(batch_misses as u64);

        // 2. Every miss, on every topology, takes the one grid path.
        if !misses.is_empty() {
            run_grid(
                shared,
                &snapshot,
                &unique,
                &rep_trace,
                &misses,
                &mut results,
                &mut scan_details,
            );
        }
        results
            .into_iter()
            .map(|outcome| outcome.expect("every unique query resolved"))
            .collect()
    });

    let exec_micros = started.elapsed().as_micros() as u64;
    shared
        .telemetry
        .batch_exec
        .record_with_exemplar(exec_micros, batch_trace);
    let batch_size = batch.len() as u32;
    // Counters bump before the slots are fulfilled, so a client that just
    // received its reply already sees itself counted.
    shared.counters.batches.inc();
    shared
        .counters
        .largest_batch
        .bump_max(i64::from(batch_size));
    shared.telemetry.recorder.record(
        "batch",
        [
            ("size", EventValue::from(batch.len())),
            ("unique", EventValue::from(unique.len())),
            ("cache_hits", EventValue::from(batch_hits)),
            ("cache_misses", EventValue::from(batch_misses)),
            ("exec_micros", EventValue::from(exec_micros)),
        ],
    );
    let threshold = shared.telemetry.slow_batch_threshold_micros;
    if threshold > 0 && exec_micros > threshold {
        shared.telemetry.recorder.record(
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
    let _finalize = Span::enter(&shared.telemetry.finalize);
    for (pending, unique_index) in batch.into_iter().zip(assignment) {
        let queue_micros = started
            .saturating_duration_since(pending.enqueued)
            .as_micros() as u64;
        // One queue sample per admitted request, so the queue histogram's
        // count always equals `completed + failed`.
        shared
            .telemetry
            .queue
            .record_with_exemplar(queue_micros, pending.trace_id);
        let timings = RequestTimings {
            queue_micros,
            exec_micros,
            batch_size,
        };
        // The trace is assembled from the *same* u64 values the stats and
        // histograms consumed — `queue_micros` and `exec_micros` above —
        // never a fresh clock read, which is what makes
        // `trace.total_micros == queue_micros + exec_micros` an exact
        // contract rather than an approximation.
        let trace = (pending.trace_id != 0).then(|| {
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
            let detail = &scan_details[unique_index];
            exec_span.push_child(
                TraceSpan::new(
                    "cache_lookup",
                    exec_span.next_child_start(),
                    cache_lookup_micros,
                )
                .attr("hit", u64::from(detail.is_none())),
            );
            if let Some(detail) = detail {
                let scan_start = exec_span.next_child_start();
                let mut scan_span = TraceSpan::new("scan", scan_start, detail.micros)
                    .attr("segments", detail.attribution.segments as u64)
                    .attr("trials", detail.attribution.trials as u64)
                    .attr("groups", detail.attribution.groups as u64)
                    .attr("bytes", detail.attribution.bytes as u64)
                    .attr("partial_hits", detail.partial_hits)
                    .attr("partial_misses", detail.partial_misses);
                for child in &detail.children {
                    scan_span.push_child(child.shifted(scan_start));
                }
                exec_span.push_child(scan_span);
            }
            root.push_child(exec_span);
            TraceRecord {
                id: pending.trace_id,
                total_micros,
                root,
            }
        });
        // Retain the trace *before* fulfilling the slot, so a client that
        // just received its traced reply can immediately resolve the id.
        if let Some(trace) = &trace {
            if shared.telemetry.traces.insert(trace.clone()) {
                shared.counters.traces_retained.inc();
            }
        }
        let outcome = match &outcomes[unique_index] {
            Ok(result) => {
                shared.counters.completed.inc();
                Ok(Reply {
                    result: result.clone(),
                    timings,
                    trace,
                })
            }
            Err(err) => {
                shared.counters.failed.inc();
                Err(err.clone())
            }
        };
        pending.slot.fulfil(outcome);
    }
}

/// The first traced id among `ids` (0 when none is): the exemplar stamped
/// on a shared stage sample.
fn first_traced(mut ids: impl Iterator<Item = u64>) -> u64 {
    ids.find(|&id| id != 0).unwrap_or(0)
}

/// One result-cache-missing scan spec mid-flight through [`run_grid`]:
/// the queries sharing it, its plan and cells, the cell partials being
/// filled, its cell-cache traffic, and (when a member is traced) the
/// child spans accumulated so far.
struct SpecMiss {
    /// Indices into the batch's `unique` queries of the spec's members.
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

/// The one way a result-cache miss is answered, on every topology: the
/// snapshot is a grid of (segment-range × trial-window) cells — 1×1 for
/// a flat store — and the batch's misses go
///
/// 1. **plan**: grouped by scan spec, planned once per spec, each plan
///    cut into its cells ([`plan_cells`]);
/// 2. **probe**: multi-cell specs look their cells up in the cell cache
///    (a cached window is verified against the cell's, so a mismatch is
///    a miss, never a wrong combine);
/// 3. **scan**: the still-missing `(spec, cell)` pairs are grouped by
///    what they scan, and each group rides **one** fused scan — with no
///    cache lock held (scans are the expensive part and other workers
///    may be probing);
/// 4. **publish**: each group's fresh partials of multi-cell specs enter
///    the cell cache — the same allocations the combine reads, no copy;
/// 5. **combine + finalise**: once per spec, every member query
///    finalised from the shared loss vectors, results published to the
///    result cache.
///
/// Count contracts (OBSERVABILITY.md §3.1): every `(spec, cell)` pair is
/// one `partial_hits` or one `partial_misses`; every fused scan is one
/// `scan_shard` sample and one `fused_partial_scans`; every answered
/// miss is one `stitch` sample carrying its spec's combine + finalise
/// time; every miss (plan failures included) is one scan-stage sample
/// carrying the whole phase's elapsed time, since all misses rode the
/// same pass.  A traced member's span tree gets its spec's children, so
/// its `scan_shard` count equals the spec's contribution to
/// `partial_misses`.
fn run_grid<P: SourceProvider>(
    shared: &Shared<P>,
    snapshot: &SourceSnapshot<'_>,
    unique: &[Query],
    rep_trace: &[u64],
    misses: &[usize],
    results: &mut [Option<Result<QueryResult, ServeError>>],
    scan_details: &mut [Option<ScanDetail>],
) {
    let phase_started = Instant::now();
    let (source, generations) = (snapshot.source, snapshot.generations);

    // 1. Plan.
    let mut specs: Vec<SpecMiss> = Vec::new();
    let by_spec = group_by_key(misses.iter().map(|&i| (unique[i].scan_spec(), i)));
    for (_, members) in by_spec {
        let query = &unique[members[0]];
        match QueryPlan::new(source, query) {
            Ok(plan) => {
                let (cells, segment_cells) =
                    plan_cells(&plan, snapshot.grid, source.num_segments());
                specs.push(SpecMiss {
                    trace: first_traced(members.iter().map(|&i| rep_trace[i])),
                    key: (cells.len() > 1).then(|| (query.filter.clone(), query.group_by.clone())),
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
            Err(err) => {
                for index in members {
                    results[index] = Some(Err(ServeError::InvalidQuery(err.to_string())));
                }
            }
        }
    }

    // 2. Probe, under one short lock.
    let stamp = |cell: &Cell| (generations[cell.slot], cell.segments.1 - cell.segments.0);
    {
        let mut partials = lock(&shared.partials);
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
    shared.counters.partial_hits.add(hits);
    shared.counters.partial_misses.add(probed - hits);

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
            let cell_scan = Span::enter(&shared.telemetry.scan_shard);
            let fresh = scan_trial_partials_fused(source, &plans, start, end);
            (fresh, cell_scan.finish_with_exemplar(exemplar))
        };
        shared.counters.fused_partial_scans.inc();
        // 4. Publish the fresh partials of multi-cell specs — the same
        //    allocations the combine below reads, no copy.
        let mut partials = lock(&shared.partials);
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

    // 5. Combine + finalise, once per spec.
    for spec in &mut specs {
        let stitch_started = Instant::now();
        let finals = {
            let parts: Vec<&TrialPartial> = spec
                .parts
                .iter()
                .map(|part| part.as_deref().expect("probed or scanned"))
                .collect();
            let aggregate = match combine(&spec.plan, &parts, spec.segment_cells) {
                Ok(aggregate) => aggregate,
                Err(_) => Cow::Owned(self_heal(shared, source, spec)),
            };
            finalize(
                spec.members.iter().map(|&index| &unique[index]),
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
        let mut cache = lock(&shared.cache);
        for (&index, result) in spec.members.iter().zip(finals) {
            shared
                .telemetry
                .stitch
                .record_with_exemplar(stitch_micros, rep_trace[index]);
            cache.insert(unique[index].clone(), generations, result.clone());
            results[index] = Some(Ok(result));
        }
    }

    // One scan-stage sample per miss, each carrying the whole phase.
    let phase_micros = phase_started.elapsed().as_micros() as u64;
    for &index in misses {
        shared
            .telemetry
            .scan
            .record_with_exemplar(phase_micros, rep_trace[index]);
    }
    for spec in &specs {
        for &index in spec.members.iter().filter(|&&index| rep_trace[index] != 0) {
            scan_details[index] = Some(ScanDetail {
                micros: phase_micros,
                attribution: spec.plan.attribution(),
                partial_hits: spec.hits,
                partial_misses: spec.cells.len() as u64 - spec.hits,
                children: spec.children.clone(),
            });
        }
    }
}

/// The self-heal path after a failed combine: cached cells that cannot
/// combine disagree with each other, so none of them can be trusted —
/// unreachable while the cache key contract holds, but a valid query
/// must never error over cache state.  Purges the spec's cells so the
/// next execution rescans cleanly, and answers this one by rescanning
/// the plan as one cell spanning the union, through the reference scan.
fn self_heal<P: SourceProvider>(
    shared: &Shared<P>,
    source: &dyn SegmentSource,
    spec: &SpecMiss,
) -> PartialAggregate {
    let cells = spec.cells.len();
    shared.telemetry.recorder.record(
        "stitch-fallback",
        [
            ("shards", EventValue::from(cells)),
            ("cached_parts", EventValue::from(spec.hits)),
            ("rescanned", EventValue::from(cells as u64 - spec.hits)),
        ],
    );
    if let Some(key) = &spec.key {
        lock(&shared.partials).purge(key);
    }
    shared
        .telemetry
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_store::{random_store, sample_queries};
    use catrisk_riskquery::prelude::*;

    #[test]
    fn served_replies_match_sequential_session() {
        let store = Arc::new(random_store(512, 24, 42));
        let queries = sample_queries();
        let expected = QuerySession::new(&*store).run(&queries).unwrap();

        let server = Server::new(
            Arc::clone(&store),
            ServerConfig {
                max_batch: 4,
                batch_window: Duration::from_micros(500),
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| server.submit(q.clone()).unwrap())
            .collect();
        for (ticket, expected) in tickets.into_iter().zip(&expected) {
            let reply = ticket.wait().unwrap();
            assert_eq!(&reply.result, expected);
            assert!(reply.timings.batch_size >= 1);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, queries.len() as u64);
        assert_eq!(stats.rejected, 0);
        assert!(stats.batches >= 1);
        assert!(stats.mean_batch() >= 1.0);
    }

    #[test]
    fn discovered_stores_surface_in_stats_and_recorder() {
        use crate::catalog::StoreCatalog;
        use catrisk_eventgen::peril::{Peril, Region};
        use catrisk_finterms::layer::LayerId;
        use catrisk_riskstore::StoreWriter;

        let dir = {
            let mut dir = std::env::temp_dir();
            dir.push(format!("catrisk-server-discover-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        };
        let write = |name: &str, layers: std::ops::Range<u32>| {
            let mut writer = StoreWriter::create(dir.join(name), 8).unwrap();
            for layer in layers {
                let losses: Vec<f64> = (0..8).map(|t| (layer as usize + t) as f64).collect();
                let meta = SegmentMeta::new(
                    LayerId(layer),
                    Peril::ALL[layer as usize % Peril::ALL.len()],
                    Region::Europe,
                    LineOfBusiness::Property,
                );
                writer.append_segment(meta, &losses, &losses).unwrap();
            }
            writer.finish().unwrap();
        };
        write("a.clm", 0..2);
        let catalog = StoreCatalog::open_dir(&dir).unwrap();
        catalog.set_refresh_interval(Duration::ZERO);
        let server = Server::with_defaults(catalog);
        let query = QueryBuilder::new()
            .group_by(Dimension::Layer)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let rows_before = server.query(query.clone()).unwrap().result.rows.len();
        assert_eq!(server.stats().discovered_stores, 0);

        // The ingest writer drops a sibling shard; the next batch's
        // refresh adopts it and announces it through both channels.
        write("b.clm", 2..4);
        let rows_after = server.query(query).unwrap().result.rows.len();
        assert_eq!(rows_after, rows_before + 2);
        let stats = server.stats();
        assert_eq!(stats.discovered_stores, 1);
        let events: Vec<_> = server
            .recorder_dump()
            .into_iter()
            .filter(|e| e.kind == "store-discovered")
            .collect();
        assert_eq!(
            events.len() as u64,
            stats.discovered_stores,
            "counter and recorder events must agree"
        );
        assert!(
            matches!(&events[0].fields[0].1, EventValue::Str(path) if path.contains("b.clm")),
            "the event names the adopted file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_queries_are_rejected_at_submit() {
        let store = Arc::new(random_store(16, 4, 1));
        let server = Server::with_defaults(store);
        let bad = QueryBuilder::new()
            .trials(0..999_999)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        match server.submit(bad) {
            Err(ServeError::InvalidQuery(msg)) => assert!(!msg.is_empty()),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        // The good query still flows.
        let good = QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert!(server.query(good).is_ok());
    }

    #[test]
    fn shutdown_refuses_new_work_and_is_idempotent() {
        let store = Arc::new(random_store(16, 4, 1));
        let server = Server::with_defaults(store);
        server.shutdown();
        server.shutdown();
        let query = QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert!(matches!(
            server.submit(query),
            Err(ServeError::ShuttingDown)
        ));
        assert_eq!(ServeError::ShuttingDown.kind(), "shutting-down");
    }

    #[test]
    fn repeated_queries_hit_the_result_cache() {
        let store = Arc::new(random_store(128, 8, 33));
        let server = Server::new(Arc::clone(&store), ServerConfig::default());
        let query = QueryBuilder::new()
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Tvar { level: 0.99 })
            .build()
            .unwrap();
        let first = server.query(query.clone()).unwrap().result;
        let stats = server.stats();
        assert_eq!(stats.cache_misses, 1);
        // Same query again: a hit, and bit-identical.
        let second = server.query(query.clone()).unwrap().result;
        assert_eq!(first, second);
        let stats = server.stats();
        assert!(stats.cache_hits >= 1, "{stats:?}");
        assert_eq!(stats.cache_misses, 1);
        assert!(stats.cache_hit_rate() > 0.0);
        // A static provider never refreshes.
        assert_eq!(stats.refreshes, 0);
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let store = Arc::new(random_store(64, 4, 7));
        let server = Server::new(
            Arc::clone(&store),
            ServerConfig {
                cache_capacity: 0,
                ..ServerConfig::default()
            },
        );
        let query = QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let expected = catrisk_riskquery::execute(&*store, &query).unwrap();
        for _ in 0..3 {
            assert_eq!(server.query(query.clone()).unwrap().result, expected);
        }
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 3);
    }

    #[test]
    fn flat_misses_never_enter_the_cell_cache() {
        let store = Arc::new(random_store(128, 8, 5));
        let server = Server::with_defaults(Arc::clone(&store));
        let queries = sample_queries();
        let misses = queries.len() as u64;
        for query in &queries {
            let expected = catrisk_riskquery::execute(&*store, query).unwrap();
            assert_eq!(server.query(query.clone()).unwrap().result, expected);
        }
        // Each distinct miss is one single-cell plan: probed (a miss),
        // scanned by its own fused pass, and never cached per cell — its
        // key would carry exactly the result cache's information.
        let stats = server.stats();
        assert_eq!(stats.cache_misses, misses, "{stats:?}");
        assert_eq!(stats.partial_hits, 0, "{stats:?}");
        assert_eq!(stats.partial_misses, misses, "{stats:?}");
        assert_eq!(stats.fused_partial_scans, misses, "{stats:?}");
        assert_eq!(lock(&server.shared.partials).len(), 0);
        assert_eq!(lock(&server.shared.cache).len(), queries.len());
    }

    /// A flat store presented as a two-window trial grid: the executor
    /// sees only the grid, so the multi-cell path needs no shard files.
    struct TwoWindows(Arc<ResultStore>);

    impl SourceProvider for TwoWindows {
        fn num_trials(&self) -> usize {
            self.0.num_trials()
        }

        fn num_segments(&self) -> usize {
            self.0.num_segments()
        }

        fn with_source<R>(&self, f: impl FnOnce(SourceSnapshot<'_>) -> R) -> R {
            let trials = self.0.num_trials();
            let windows = [(0, trials / 2), (trials / 2, trials)];
            f(SourceSnapshot {
                source: &*self.0,
                generations: &[0, 0],
                grid: catrisk_riskquery::Grid {
                    trial_windows: &windows,
                    ..Default::default()
                },
            })
        }
    }

    #[test]
    fn poisoned_cell_self_heals_through_a_spanning_rescan() {
        let store = Arc::new(random_store(64, 8, 11));
        let server = Server::with_defaults(TwoWindows(Arc::clone(&store)));
        let by_region = |aggregate| {
            QueryBuilder::new()
                .group_by(Dimension::Region)
                .aggregate(aggregate)
                .build()
                .unwrap()
        };
        let first = by_region(Aggregate::Mean);
        let key: SpecKey = (first.filter.clone(), first.group_by.clone());
        server.query(first).unwrap();
        assert_eq!(lock(&server.shared.partials).len(), 2, "one entry per cell");

        // Poison cell 0 with a partial that passes every cache check (its
        // stamp and window are right) but is keyed for another grouping,
        // so it cannot combine with cell 1.
        let by_lob = QueryBuilder::new()
            .group_by(Dimension::Lob)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let plan = QueryPlan::new(&*store, &by_lob).unwrap();
        let poison = scan_trial_partial(&*store, &plan, 0, 32);
        lock(&server.shared.partials).insert(&key, 0, (0, 8), Arc::new(poison));

        // Same spec, new aggregate: a result-cache miss that hits both
        // cells, fails to combine, and must still answer exactly.
        let second = by_region(Aggregate::Tvar { level: 0.9 });
        let healed = server.query(second.clone()).unwrap().result;
        assert_eq!(
            healed,
            catrisk_riskquery::execute(&*store, &second).unwrap()
        );
        assert_eq!(server.stats().partial_hits, 2);

        let events = server.recorder_dump();
        let of_kind = |kind: &str| events.iter().filter(|e| e.kind == kind).collect::<Vec<_>>();
        let fallback = of_kind("stitch-fallback");
        assert_eq!(fallback.len(), 1, "{events:?}");
        let fields: Vec<(&str, &EventValue)> = fallback[0]
            .fields
            .iter()
            .map(|(name, value)| (name.as_str(), value))
            .collect();
        assert_eq!(
            fields,
            [
                ("shards", &EventValue::U64(2)),
                ("cached_parts", &EventValue::U64(2)),
                ("rescanned", &EventValue::U64(0)),
            ]
        );
        assert_eq!(of_kind("cache-purge").len(), 1, "{events:?}");
        assert_eq!(
            lock(&server.shared.partials).len(),
            0,
            "the spec's cells are purged, and the heal publishes nothing"
        );

        // The next miss of the spec rescans both cells cleanly.
        let third = by_region(Aggregate::StdDev);
        assert_eq!(
            server.query(third.clone()).unwrap().result,
            catrisk_riskquery::execute(&*store, &third).unwrap()
        );
        assert_eq!(lock(&server.shared.partials).len(), 2);
        assert_eq!(of_kind("stitch-fallback").len(), 1, "no second fallback");
    }

    #[test]
    fn identical_queries_from_many_submitters_dedup() {
        let store = Arc::new(random_store(256, 8, 9));
        let server = Server::new(
            Arc::clone(&store),
            ServerConfig {
                // A wide-open window so every submit lands in one batch.
                batch_window: Duration::from_millis(50),
                ..ServerConfig::default()
            },
        );
        let query = QueryBuilder::new()
            .group_by(Dimension::Region)
            .aggregate(Aggregate::Tvar { level: 0.95 })
            .build()
            .unwrap();
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| server.submit(query.clone()).unwrap())
            .collect();
        let expected = catrisk_riskquery::execute(&*store, &query).unwrap();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().result, expected);
        }
    }
}
