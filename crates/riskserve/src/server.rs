//! The micro-batching server: a thin driver around the crate-private
//! batch core (`batch.rs`) — bounded queue → batch window → one core step
//! per batch → reply slots.  The driver owns the threads, the queue and
//! the clock; the core owns everything a batch reads and writes.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use catrisk_riskquery::{Query, QueryPlan, QueryResult};
use catrisk_telemetry::{EventRecord, EventValue, MetricsSnapshot, Span, TraceLookup, TraceRecord};

use crate::batch::{close_at, BatchCore, Request};
use crate::source::SourceProvider;
use crate::stats::{RequestTimings, StatsSnapshot};
use crate::sync::{lock, wait, wait_timeout};

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
    /// Executing the request's batch panicked; the message is the panic's.
    /// Every member of that batch gets this reply, and the server goes on
    /// serving.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "server overloaded: {depth} requests queued")
            }
            ServeError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
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
            ServeError::Internal(_) => "internal",
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

/// Queue state guarded by one mutex: the pending requests with their
/// reply slots, plus the shutdown latch the workers observe.
#[derive(Default)]
struct QueueState {
    pending: VecDeque<(Request, Arc<ReplySlot>)>,
    /// Requests ever admitted — the trace-sampling modulus ticks off this
    /// count inside the admission critical section, so "every Nth" is
    /// exact even under concurrent submitters.
    admitted: u64,
    shutting_down: bool,
}

struct Shared<P> {
    core: BatchCore<P>,
    queue: Mutex<QueueState>,
    /// Signalled on every admit and on shutdown; workers wait on it both
    /// when idle and while a batch window is open.
    arrived: Condvar,
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
            .field("segments", &self.shared.core.provider.num_segments())
            .field("config", &self.shared.core.config)
            .finish()
    }
}

impl<P: SourceProvider> Server<P> {
    /// Starts a server over `provider` with the given configuration.
    pub fn new(provider: P, config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            core: BatchCore::new(provider, config),
            queue: Mutex::new(QueueState::default()),
            arrived: Condvar::new(),
        });
        let workers = (0..shared.core.config.workers)
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
        &self.shared.core.provider
    }

    /// The active configuration (after clamping).
    pub fn config(&self) -> ServerConfig {
        self.shared.core.config
    }

    /// Submits one query for batched execution.
    ///
    /// Validates the query against the provider's (lifetime-fixed) trial
    /// count up front — without building a snapshot — so a
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
        let core = &self.shared.core;
        let _admission = Span::enter(&core.telemetry.admission);
        if let Err(err) = QueryPlan::validate_trials(core.provider.num_trials(), &query) {
            return Err(ServeError::InvalidQuery(err.to_string()));
        }
        let slot = Arc::new(ReplySlot::default());
        let trace_id = {
            let mut queue = lock(&self.shared.queue);
            if queue.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            let depth = queue.pending.len();
            if depth >= core.config.queue_depth {
                core.counters.rejected.inc();
                core.telemetry
                    .recorder
                    .record("overload", [("depth", EventValue::from(depth))]);
                return Err(ServeError::Overloaded { depth });
            }
            // The sampling decision rides the admission critical section:
            // every Nth *admitted* request gets an id, so with N = 1 the
            // `traces_started` counter equals `submitted` exactly.  With
            // sampling off this is one branch.
            let sample_every = core.telemetry.trace_sample_every;
            let trace_id = if force_trace
                || (sample_every > 0 && queue.admitted.is_multiple_of(sample_every))
            {
                core.telemetry.traces.allocate()
            } else {
                0
            };
            queue.admitted += 1;
            let request = Request {
                query,
                enqueued: Instant::now(),
                trace_id,
            };
            queue.pending.push_back((request, Arc::clone(&slot)));
            core.counters.max_queue_depth.bump_max(depth as i64 + 1);
            trace_id
        };
        core.counters.submitted.inc();
        if trace_id != 0 {
            core.counters.traces_started.inc();
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
        self.shared.core.counters.snapshot()
    }

    /// A snapshot of every metric: the counters plus the per-stage latency
    /// histograms (see [`crate::telemetry::stage`] for the taxonomy).
    /// This is what the `metrics` protocol command returns.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.core.telemetry.registry.snapshot()
    }

    /// The flight recorder's current contents, oldest first.  This is
    /// what the `recorder` protocol command returns.
    pub fn recorder_dump(&self) -> Vec<EventRecord> {
        self.shared.core.telemetry.recorder.dump()
    }

    /// The recorder events with `seq >= since`, oldest first — the
    /// incremental scrape behind the `recorder since <seq>` protocol
    /// command (sequence numbers never reset, so repeated scrapes
    /// correlate exactly).
    pub fn recorder_dump_since(&self, since: u64) -> Vec<EventRecord> {
        self.shared.core.telemetry.recorder.dump_since(since)
    }

    /// Looks up a trace by id — the `trace <id>` protocol command.
    /// Distinguishes retained, evicted (a real id whose record aged out)
    /// and unknown (never issued by this server).
    pub fn trace(&self, id: u64) -> TraceLookup {
        self.shared.core.telemetry.traces.lookup(id)
    }

    /// The `n` slowest retained traces, slowest first — the
    /// `trace slowest N` protocol command.
    pub fn slowest_traces(&self, n: usize) -> Vec<TraceRecord> {
        self.shared.core.telemetry.traces.slowest(n)
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

/// Worker body: wait for a request, hold the batch window open until
/// [`close_at`], drain up to `max_batch`, step the core and deliver its
/// replies; on shutdown keep draining until the queue is empty, then exit.
///
/// A panic inside a step fails that batch's requests with
/// [`ServeError::Internal`] instead of stranding their tickets, and the
/// worker goes on to the next batch.
fn worker_loop<P: SourceProvider>(shared: &Shared<P>) {
    let core = &shared.core;
    loop {
        let (batch, slots): (Vec<Request>, Vec<Arc<ReplySlot>>) = {
            let mut queue = lock(&shared.queue);
            while queue.pending.is_empty() {
                if queue.shutting_down {
                    return;
                }
                queue = wait(&shared.arrived, queue);
            }
            // The window opens when a worker first sees the queue
            // non-empty.  Shutdown closes it immediately.
            let opened = Instant::now();
            loop {
                let close = close_at(opened, queue.pending.len(), &core.config);
                let now = Instant::now();
                if now >= close || queue.pending.is_empty() || queue.shutting_down {
                    break;
                }
                queue = wait_timeout(&shared.arrived, queue, close - now);
            }
            let take = queue.pending.len().min(core.config.max_batch);
            queue.pending.drain(..take).unzip()
        };
        // Another worker may have drained the queue while this one held
        // the window open.
        if batch.is_empty() {
            continue;
        }
        let started = Instant::now();
        let replies = catch_unwind(AssertUnwindSafe(|| core.step(started, &batch)))
            .unwrap_or_else(|payload| core.fail(started, &batch, panic_message(&*payload)));
        for (slot, reply) in slots.iter().zip(replies) {
            slot.fulfil(reply);
        }
    }
}

/// The text a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    let formatted = payload.downcast_ref::<String>().map(String::as_str);
    let literal = || payload.downcast_ref::<&str>().copied();
    formatted.or_else(literal).unwrap_or("batch step panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SpecKey;
    use crate::source::SourceSnapshot;
    use crate::test_store::{random_store, sample_queries};
    use catrisk_riskquery::prelude::*;
    use catrisk_riskquery::scan_trial_partial;

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
        assert_eq!(lock(&server.shared.core.partials).len(), 0);
        assert_eq!(lock(&server.shared.core.cache).len(), queries.len());
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
        assert_eq!(
            lock(&server.shared.core.partials).len(),
            2,
            "one entry per cell"
        );

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
        lock(&server.shared.core.partials).insert(&key, 0, (0, 8), Arc::new(poison));

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
            lock(&server.shared.core.partials).len(),
            0,
            "the spec's cells are purged, and the heal publishes nothing"
        );

        // The next miss of the spec rescans both cells cleanly.
        let third = by_region(Aggregate::StdDev);
        assert_eq!(
            server.query(third.clone()).unwrap().result,
            catrisk_riskquery::execute(&*store, &third).unwrap()
        );
        assert_eq!(lock(&server.shared.core.partials).len(), 2);
        assert_eq!(of_kind("stitch-fallback").len(), 1, "no second fallback");
    }

    #[test]
    fn a_panicking_batch_fails_typed_and_the_worker_serves_on() {
        use crate::telemetry::stage;
        use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
        use catrisk_eventgen::peril::{Peril, Region};
        use catrisk_finterms::layer::LayerId;

        // A finite Hurricane segment and a Flood segment holding one NaN
        // year loss, which the order-statistics sort refuses.
        let mut store = ResultStore::new(16);
        for (layer, peril) in [(0, Peril::Hurricane), (1, Peril::Flood)] {
            let outcomes = (0..16)
                .map(|t| TrialOutcome {
                    year_loss: if peril == Peril::Flood && t == 5 {
                        f64::NAN
                    } else {
                        t as f64 * 1.0e3
                    },
                    max_occurrence_loss: t as f64,
                    nonzero_events: 1,
                })
                .collect();
            let meta = SegmentMeta::new(
                LayerId(layer),
                peril,
                Region::Europe,
                LineOfBusiness::Property,
            );
            store
                .ingest(&YearLossTable::new(LayerId(layer), outcomes), meta)
                .unwrap();
        }
        let store = Arc::new(store);
        let server = Server::new(
            Arc::clone(&store),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let var_of = |peril| {
            QueryBuilder::new()
                .with_perils([peril])
                .aggregate(Aggregate::Var { level: 0.99 })
                .build()
                .unwrap()
        };
        // Wait on a helper thread, so a stranded ticket fails this test
        // instead of hanging it (the helper is joined only once it has
        // delivered).
        let ask = |query| {
            let ticket = server.submit(query).unwrap();
            let (sender, receiver) = std::sync::mpsc::channel();
            let helper = std::thread::spawn(move || {
                let _ = sender.send(ticket.wait());
            });
            let reply = receiver
                .recv_timeout(Duration::from_secs(5))
                .expect("a reply within 5 s");
            helper.join().unwrap();
            reply
        };

        match ask(var_of(Peril::Flood)) {
            Err(ServeError::Internal(message)) => assert!(message.contains("finite"), "{message}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        let hurricane = var_of(Peril::Hurricane);
        assert_eq!(
            ask(hurricane.clone()).unwrap().result,
            catrisk_riskquery::execute(&*store, &hurricane).unwrap()
        );
        let stats = server.stats();
        assert_eq!((stats.completed, stats.failed), (1, 1), "{stats:?}");
        let metrics = server.metrics();
        assert_eq!(metrics.histogram(stage::QUEUE).unwrap().count, 2);
        let panics: Vec<_> = server
            .recorder_dump()
            .into_iter()
            .filter(|event| event.kind == "worker-panic")
            .collect();
        assert_eq!(panics.len(), 1);
        assert_eq!(
            panics[0].fields[0],
            ("batch_size".into(), EventValue::U64(1))
        );
    }

    #[test]
    fn a_nan_loss_in_a_store_fails_every_order_statistic_typed() {
        use crate::catalog::StoreCatalog;
        use catrisk_eventgen::peril::{Peril, Region};
        use catrisk_finterms::layer::LayerId;
        use catrisk_riskstore::StoreWriter;

        // A store file with a finite Hurricane segment and a Flood segment
        // holding one NaN year loss.  An order key would rank that NaN (its
        // bits sort above +inf), so every quantile-family answer over it —
        // even `var(0)`, whose rank the NaN never reaches — must refuse.
        let mut path = std::env::temp_dir();
        path.push(format!("catrisk-server-nan-{}.clm", std::process::id()));
        let trials = 64;
        let mut writer = StoreWriter::create(&path, trials).unwrap();
        for (layer, peril) in [(0, Peril::Hurricane), (1, Peril::Flood)] {
            let year: Vec<f64> = (0..trials)
                .map(|t| {
                    if peril == Peril::Flood && t == 17 {
                        f64::NAN
                    } else {
                        (t % 7) as f64 * 1.0e3
                    }
                })
                .collect();
            let occ: Vec<f64> = (0..trials).map(|t| (t % 5) as f64).collect();
            let meta = SegmentMeta::new(
                LayerId(layer),
                peril,
                Region::Europe,
                LineOfBusiness::Property,
            );
            writer.append_segment(meta, &year, &occ).unwrap();
        }
        writer.finish().unwrap();
        let server = Server::new(
            StoreCatalog::open([&path]).unwrap(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let query = |peril, aggregate| {
            QueryBuilder::new()
                .with_perils([peril])
                .aggregate(aggregate)
                .build()
                .unwrap()
        };
        let ask = |query| {
            let ticket = server.submit(query).unwrap();
            let (sender, receiver) = std::sync::mpsc::channel();
            let helper = std::thread::spawn(move || {
                let _ = sender.send(ticket.wait());
            });
            let reply = receiver
                .recv_timeout(Duration::from_secs(5))
                .expect("a reply within 5 s");
            helper.join().unwrap();
            reply
        };

        let order_statistics = [
            Aggregate::Var { level: 0.0 },
            Aggregate::Var { level: 0.99 },
            Aggregate::Tvar { level: 1.0 },
            Aggregate::Pml {
                return_period: 100.0,
                basis: Basis::Aep,
            },
            Aggregate::EpCurve {
                basis: Basis::Aep,
                points: 5,
            },
        ];
        for aggregate in &order_statistics {
            match ask(query(Peril::Flood, aggregate.clone())) {
                Err(ServeError::Internal(message)) => {
                    assert!(
                        message.contains("finite losses"),
                        "{aggregate:?}: {message}"
                    )
                }
                other => panic!("{aggregate:?}: expected Internal, got {other:?}"),
            }
        }
        let reader = catrisk_riskstore::StoreReader::open(&path).unwrap();
        for aggregate in &order_statistics {
            let hurricane = query(Peril::Hurricane, aggregate.clone());
            let expected = catrisk_riskquery::execute(&reader, &hurricane).unwrap();
            assert_eq!(ask(hurricane).unwrap().result, expected);
        }
        drop(reader);
        let stats = server.stats();
        assert_eq!((stats.completed, stats.failed), (5, 5), "{stats:?}");
        drop(server);
        std::fs::remove_file(&path).unwrap();
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
