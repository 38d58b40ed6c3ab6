//! # catrisk-riskserve
//!
//! The async serving front-end over the query engine: micro-batched
//! execution of many concurrent analyst queries against one shared store.
//!
//! The ROADMAP north star is a serving system under heavy interactive
//! traffic.  QuPARA (Rau-Chaplin et al.) got its throughput by pushing a
//! *whole batch* of analyst queries through one pass over the shared YLT
//! file; `catrisk-riskquery` reproduced that as
//! [`QuerySession`](catrisk_riskquery::QuerySession) — a fused
//! scan answering a batch of queries bit-identically to running each
//! alone.  What was missing is the layer that turns *concurrent client
//! requests* into those batches.  This crate is that layer.
//!
//! ## Architecture: queue → window → batch step → reply
//!
//! ```text
//!  clients      admission          driver (worker threads)         batch core
//!  ───────      ─────────          ───────────────────────         ──────────
//!  submit ──▶ bounded queue ──▶ window closes at max_batch ──▶ step: refresh → dedup
//!  submit ──▶  (Overloaded      or batch_window µs,            → result cache → grid
//!  submit ──▶   past depth)     whichever first                (plan → cells → fused
//!                                                              scan → combine → finalise)
//!                                                                   │
//!  Ticket::wait ◀── reply slots (result + latency attribution) ◀────┘
//! ```
//!
//! * **Admission** ([`Server::submit`]): the query is validated against
//!   the store up front (a malformed query is rejected here and can never
//!   fail a batch it would have shared with other clients), then appended
//!   to a bounded queue.  Past [`ServerConfig::queue_depth`] pending
//!   requests the submit returns a typed [`ServeError::Overloaded`] —
//!   backpressure is an answer, not a dropped connection.
//! * **Batch window**: a worker that finds the queue non-empty holds a
//!   window open, closing it after [`ServerConfig::max_batch`] requests
//!   or [`ServerConfig::batch_window`] microseconds, whichever comes
//!   first.  Everything pending rides one batch.  The closing instant is
//!   a pure function of the opening instant, the queue length and the
//!   configuration.
//! * **Core and driver**: the [`Server`] is a thin driver — worker
//!   threads, the queue and the real clock — around a crate-private
//!   batch core that owns the caches, counters and telemetry.  The driver
//!   drains a batch and hands it to one core step together with the
//!   instant it started; the step never waits, never touches the queue
//!   or a reply slot, and reads the clock only to measure stages.  A
//!   panic inside a step fails that batch's requests with
//!   [`ServeError::Internal`] and the worker takes the next batch, so no
//!   ticket is stranded.
//! * **Grid path**: a step deduplicates identical queries from different
//!   submitters (— [`Query`](catrisk_riskquery::Query) is `Eq + Hash`
//!   with a total, NaN-free float treatment precisely so this cannot
//!   collide or miss), answers what it can from the result cache, and
//!   sends every miss, on every topology, through one grid executor:
//!   misses grouped by scan spec and planned once per spec, each plan cut
//!   into (segment-range × trial-window) cells, every missing cell
//!   scanned in one fused pass shared by all specs that miss it, then
//!   combined and finalised once per spec.  N concurrent "mean/TVaR/EP of
//!   slice X" requests cost ~1 scan, not N.
//! * **Reply**: every request's [`Ticket`] resolves to the result plus
//!   [`RequestTimings`] — queue wait, batch execution time, batch size —
//!   so tail latency is attributable.  Accepted tickets are always
//!   answered, including across shutdown (workers drain the queue before
//!   exiting).
//!
//! Results are **bit-identical** to running each query sequentially
//! through a `QuerySession` — batching is a throughput optimisation, not
//! an approximation (`tests/serve_equivalence.rs` in the workspace proves
//! this property under concurrency, for arbitrary batch windows).
//!
//! ## Three ways in
//!
//! 1. **Library**: [`Server::submit`] → [`Ticket`] → [`Reply`], from any
//!    number of threads.
//! 2. **TCP** ([`TcpFrontEnd`]): a line-oriented protocol on `std::net` —
//!    one query text per line in, one JSON reply per line out; the
//!    normative wire specification is `docs/PROTOCOL.md` at the
//!    repository root ([`protocol`] summarises it and implements the
//!    framing).  No async runtime: one OS thread per connection, which
//!    is exactly the concurrency the batch scheduler coalesces.
//! 3. **CLI**: `catrisk serve` (start a front-end over a persistent
//!    store) and `catrisk loadgen` (drive open-loop load and print
//!    throughput/p50/p99) in the `catrisk-cli` crate.
//!
//! ## The data plane: providers, catalogs, refresh, cache
//!
//! The store side is a [`SourceProvider`] — the abstraction that hands
//! every batch a consistent snapshot of the data plus the *generation
//! stamps* the result cache keys on:
//!
//! * any `Arc<SegmentSource>` (an in-memory store, an immutable
//!   `catrisk_riskstore::StoreReader`) serves as a single static shard;
//! * a [`StoreCatalog`] serves **many persistent stores as one logical
//!   store**, along either sharding axis (detected at open from the
//!   stores' persisted trial offsets, see [`ShardAxis`]) — per batch it
//!   takes the one published snapshot of every shard, with no lock held
//!   across the batch, and presents a **segment**-axis catalog's
//!   union through [`ShardedSource`](catrisk_riskquery::ShardedSource)
//!   and a **trial**-axis catalog (the paper's partition dimension:
//!   shards own disjoint trial windows of the same segments) through
//!   [`TrialShardedSource`](catrisk_riskquery::TrialShardedSource),
//!   bit-identically to one store holding everything.
//!
//! Before each batch the scheduler calls
//! [`SourceProvider::refresh`]: a catalog probes each shard's committed
//! generation from its 128-byte header, maps newly committed segments
//! into a clone of the shard's reader (`StoreReader::refresh`) and
//! publishes the next snapshot, so the server keeps answering while
//! ingest writers commit — *serve while ingesting*.  Batches then consult
//! a generation-keyed result cache (keyed on the total `Eq + Hash`
//! [`Query`](catrisk_riskquery::Query), stamped with every shard's
//! generation): repeated queries cost no scan at all, and a shard's
//! entries go stale precisely when its refresh observes a new commit —
//! cached replies are bit-identical to a fresh scan of the current
//! snapshot, never a stale approximation.
//!
//! On a multi-shard catalog (either axis) the result cache is backed by a
//! **per-cell partial-aggregate cache**: every snapshot is a grid of
//! (segment-range × trial-window) cells, and each `(scan spec, cell)`
//! pair caches the cell's [`TrialPartial`](catrisk_riskquery::TrialPartial),
//! stamped with only that cell's shard's generation (plus the cell's
//! segment count).  A refresh of one shard therefore rescans *one cell*
//! per cached spec and re-combines the other cells' cached partials
//! exactly — where the whole-result cache alone would have rescanned
//! everything for every cached query.  Every result-cache miss, on every
//! topology, takes the same plan → cells → fused scan → combine →
//! finalise path; the [`StatsSnapshot`] `partial_hits` /
//! `partial_misses` counters account for its cell traffic.  See
//! `docs/ARCHITECTURE.md` at the repository root for the grid and the
//! full refresh / generation / invalidation protocol.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod batch;
mod cache;
mod sync;

pub mod catalog;
pub mod fleet;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod source;
pub mod stats;
pub mod tcp;
pub mod telemetry;

pub use catalog::{ShardAxis, StoreCatalog};
pub use fleet::{Fleet, FleetError, FleetOptions, ReplicaHealth};
pub use loadgen::{default_mix, IngestReport, LoadReport, LoadgenOptions};
pub use protocol::{parse_request, Request, WireError, WireReply};
pub use server::{Reply, ServeError, Server, ServerConfig, Ticket};
pub use source::{SourceProvider, SourceSnapshot};
pub use stats::{percentile, RequestTimings, StatsSnapshot};
pub use tcp::TcpFrontEnd;

pub use catrisk_telemetry::{TraceLookup, TraceRecord, TraceSpan};

/// Test fixtures (a random tagged store, a mixed query batch) shared with
/// the workspace's integration tests via the `testkit` feature; this
/// crate's own tests always see them.
#[cfg(any(test, feature = "testkit"))]
pub mod test_store;
