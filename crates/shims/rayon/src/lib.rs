//! Minimal stand-in for `rayon` implemented over `std::thread::scope`.
//!
//! The build environment has no access to crates.io, so this crate vendors
//! the subset of the rayon API the workspace uses: `into_par_iter` /
//! `par_iter` with the `map`, `map_init`, `filter_map` and `fold` adapters,
//! the `collect` / `reduce` / `sum` terminals, and explicit thread pools
//! (`ThreadPoolBuilder`, `ThreadPool::install`).
//!
//! Execution model: terminals split the materialised items into
//! **fine-grained chunks** — [`chunks_per_worker`] chunks per worker
//! rather than one — and run them with **chunked self-scheduling**: the
//! chunks sit behind a shared atomic claim index, and every executor
//! (the persistent pool's workers *and* the submitting thread, which
//! helps rather than blocking) loops claim-next-chunk → run → store
//! until the supply is drained.  A worker that lands on a cheap chunk
//! simply claims another, so skewed workloads (uneven segment sizes,
//! cut-split trial blocks) keep all cores busy without deque-based
//! stealing.  Results are stored by chunk index and concatenated (or
//! reduced) **in chunk order**, so `collect` preserves input order
//! exactly like rayon's indexed collect and `reduce` combines partials
//! deterministically — claim interleaving can never change output
//! order, which is what lets bit-exact callers tolerate any schedule.
//! The persistent pool is lazily started and process-wide; nested
//! terminals — a parallel iterator used inside a worker's chunk — fall
//! back to scoped threads running the same claim loop, which keeps the
//! pool deadlock-free.
//!
//! Shim extensions:
//!
//! * the `CATRISK_THREADS` environment variable (upstream:
//!   `RAYON_NUM_THREADS`) pins the default worker count — both
//!   [`current_num_threads`]'s default and the size of the persistent
//!   pool — so benches and tests can run deterministically sized
//!   (`CATRISK_THREADS=1` runs every terminal inline on the calling
//!   thread);
//! * [`set_chunks_per_worker`] (no upstream equivalent) overrides the
//!   self-scheduling granularity, a constant 4 otherwise; `1` reproduces
//!   the old static one-contiguous-chunk-per-worker split, which is the
//!   baseline the `scan_kernel` gate compares against.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Thread-count plumbing
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("CATRISK_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// No-override sentinel for the granularity setter (0 chunks is
/// meaningless).
const CHUNKS_UNSET: usize = 0;

static CHUNKS_PER_WORKER: AtomicUsize = AtomicUsize::new(CHUNKS_UNSET);

/// Default self-scheduling granularity: enough chunks per worker that
/// the claim loop can rebalance skew, few enough that per-chunk
/// dispatch overhead stays negligible.
const DEFAULT_CHUNKS_PER_WORKER: usize = 4;

/// Chunks each terminal splits its items into, per worker thread (a
/// shim extension; upstream rayon splits adaptively): 4 unless
/// [`set_chunks_per_worker`] overrides it.  `1` reproduces the old static
/// one-chunk-per-worker split.
pub fn chunks_per_worker() -> usize {
    match CHUNKS_PER_WORKER.load(Ordering::Relaxed) {
        CHUNKS_UNSET => DEFAULT_CHUNKS_PER_WORKER,
        chunks => chunks,
    }
}

/// Overrides [`chunks_per_worker`] programmatically (a shim extension
/// used by the scheduling gate and granularity-invariance tests).
/// `None` clears the override.  Chunk
/// granularity never changes what a terminal returns — results are
/// always collected in chunk order — only how evenly chunks schedule.
pub fn set_chunks_per_worker(chunks: Option<usize>) {
    CHUNKS_PER_WORKER.store(chunks.map_or(CHUNKS_UNSET, |c| c.max(1)), Ordering::Relaxed);
}

/// Number of worker threads terminals on this thread will use: the
/// innermost installed pool's size, or the number of logical CPUs.
pub fn current_num_threads() -> usize {
    let n = CURRENT_THREADS.with(Cell::get);
    if n == 0 {
        default_threads()
    } else {
        n
    }
}

/// Error returned by [`ThreadPoolBuilder::build`] (never produced by the
/// shim; kept for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for an explicit-size [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (0 = one per logical CPU).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// A "thread pool": in the shim, a resolved worker count that terminals
/// running under [`ThreadPool::install`] will use.  It owns no threads of
/// its own — chunks execute on the shared process-wide worker pool (or on
/// scoped fallback threads when nested); `install` only scopes how many
/// chunks a terminal splits its input into.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

struct ThreadsGuard {
    prev: usize,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        CURRENT_THREADS.with(|c| c.set(self.prev));
    }
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count active on the current thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let guard = ThreadsGuard {
            prev: CURRENT_THREADS.with(Cell::get),
        };
        CURRENT_THREADS.with(|c| c.set(self.threads));
        let result = op();
        drop(guard);
        result
    }

    /// This pool's worker-thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

// ---------------------------------------------------------------------------
// Parallel execution core
// ---------------------------------------------------------------------------

thread_local! {
    /// True on threads owned by the global worker pool; used to detect
    /// nested terminals.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide persistent worker pool.
///
/// Started lazily on the first multi-chunk terminal; one worker per
/// logical CPU (or `CATRISK_THREADS` when set), fed from a single
/// queue.  Workers live for the rest of
/// the process (the submitting side blocks until its jobs finish, so an
/// idle pool merely parks in `recv`).
struct WorkerPool {
    sender: Mutex<mpsc::Sender<Job>>,
}

impl WorkerPool {
    fn submit(&self, job: Job) {
        self.sender
            .lock()
            .expect("rayon shim: pool sender poisoned")
            .send(job)
            .expect("rayon shim: worker pool hung up");
    }
}

fn worker_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for index in 0..default_threads() {
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("rayon-shim-{index}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|flag| flag.set(true));
                    loop {
                        // Hold the receiver lock only while dequeuing.
                        let job = receiver
                            .lock()
                            .expect("rayon shim: pool receiver poisoned")
                            .recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    }
                })
                .expect("rayon shim: failed to spawn pool worker");
        }
        WorkerPool {
            sender: Mutex::new(sender),
        }
    })
}

/// A counts-down-to-zero gate the submitting thread waits on.
struct Latch {
    remaining: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            zero: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("rayon shim: latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("rayon shim: latch poisoned");
        while *remaining > 0 {
            remaining = self
                .zero
                .wait(remaining)
                .expect("rayon shim: latch poisoned");
        }
    }
}

/// The shared state of one self-scheduled terminal: fine-grained chunks
/// behind an atomic claim index, with a result slot per chunk so output
/// order is chunk order no matter which executor ran what.
struct ChunkQueue<T, R> {
    /// Unclaimed chunks; an executor that wins index `i` takes the chunk
    /// out of slot `i` exactly once.
    pending: Vec<Mutex<Option<Vec<T>>>>,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Per-chunk outcomes, stored at the chunk's index.
    results: Vec<Mutex<Option<std::thread::Result<R>>>>,
}

impl<T: Send, R: Send> ChunkQueue<T, R> {
    fn new(chunks: Vec<Vec<T>>) -> Self {
        let results = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
        Self {
            pending: chunks.into_iter().map(|c| Mutex::new(Some(c))).collect(),
            next: AtomicUsize::new(0),
            results,
        }
    }

    /// The claim loop every executor runs: claim the next chunk index,
    /// run it, store the outcome at that index; repeat until the supply
    /// is drained.  Never blocks on other executors, so an executor
    /// stuck behind a heavy chunk simply stops claiming while the rest
    /// drain the queue — self-scheduling without a deque.
    fn drain(&self, per_chunk: &(impl Fn(Vec<T>) -> R + Sync)) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.pending.len() {
                break;
            }
            let chunk = self.pending[index]
                .lock()
                .expect("rayon shim: chunk slot poisoned")
                .take()
                .expect("rayon shim: chunk claimed twice");
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| per_chunk(chunk)));
            *self.results[index]
                .lock()
                .expect("rayon shim: result slot poisoned") = Some(outcome);
        }
    }

    /// Unpacks the outcomes in chunk order, re-raising the first
    /// panicking chunk's payload on the calling thread.
    fn into_results(self) -> Vec<R> {
        self.results
            .into_iter()
            .map(|slot| {
                let outcome = slot
                    .into_inner()
                    .expect("rayon shim: result slot poisoned")
                    .expect("rayon shim: chunk finished without a result");
                match outcome {
                    Ok(result) => result,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })
            .collect()
    }
}

/// Splits `items` into [`chunks_per_worker`] contiguous chunks per
/// worker and self-schedules them — on the persistent pool (with the
/// submitting thread claiming chunks too), or on scoped threads when
/// already running inside a pool worker (nested parallelism) — and
/// returns the per-chunk results in chunk order.
fn run_chunks<T: Send, R: Send>(items: Vec<T>, per_chunk: impl Fn(Vec<T>) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads().max(1);
    if threads == 1 || items.len() <= 1 {
        return vec![per_chunk(items)];
    }
    let chunk_size = items.len().div_ceil(threads * chunks_per_worker()).max(1);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(items.len().div_ceil(chunk_size));
    let mut rest = items;
    while rest.len() > chunk_size {
        let tail = rest.split_off(chunk_size);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    chunks.push(rest);
    if IS_POOL_WORKER.with(Cell::get) {
        run_chunks_scoped(chunks, &per_chunk, threads)
    } else {
        run_chunks_pooled(chunks, &per_chunk, threads)
    }
}

/// Self-schedules the chunks across the persistent pool *and* the
/// submitting thread: up to `threads - 1` pool jobs each run the claim
/// loop, and the submitter runs it too instead of blocking — so
/// progress never depends on pool capacity, and a pool smaller than the
/// installed thread count just rebalances over fewer executors.  The
/// first panicking chunk's payload is re-raised on the submitting
/// thread after all chunks ran.
fn run_chunks_pooled<T: Send, R: Send>(
    chunks: Vec<Vec<T>>,
    per_chunk: &(impl Fn(Vec<T>) -> R + Sync),
    threads: usize,
) -> Vec<R> {
    let pool = worker_pool();
    // The submitter is one executor; extra claimants beyond the chunk
    // count could never win a claim, so don't submit them.
    let helpers = (threads - 1).min(chunks.len().saturating_sub(1));
    let queue = ChunkQueue::new(chunks);
    let latch = Latch::new(helpers);
    {
        let queue = &queue;
        let latch = &latch;
        for _ in 0..helpers {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                queue.drain(per_chunk);
                latch.count_down();
            });
            // SAFETY: the job borrows `per_chunk`, `queue` and `latch`
            // from this stack frame.  `latch.wait()` below blocks until
            // every submitted job has run its closure to completion (the
            // count-down is the closure's last action), so the erased
            // borrows never outlive their referents — the same latch
            // argument real rayon's scoped injection rests on.
            let job: Job = unsafe { std::mem::transmute(job) };
            pool.submit(job);
        }
        // Claim chunks on this thread too — the submitter is the one
        // executor guaranteed to exist even when the pool is saturated
        // by other terminals.
        queue.drain(per_chunk);
        latch.wait();
    }
    queue.into_results()
}

/// Scoped-thread fallback used for nested terminals: a chunk running on
/// a pool worker cannot wait for queue capacity without risking
/// deadlock, so nested splits run the same claim loop on their own
/// short-lived scope instead (at most one scoped thread per chunk).
fn run_chunks_scoped<T: Send, R: Send>(
    chunks: Vec<Vec<T>>,
    per_chunk: &(impl Fn(Vec<T>) -> R + Sync),
    threads: usize,
) -> Vec<R> {
    let workers = threads.min(chunks.len()).max(1);
    let queue = ChunkQueue::new(chunks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = &queue;
            scope.spawn(move || {
                // Deeper nesting must keep using scoped threads: the
                // pool's workers may all be blocked under this very
                // call chain.
                IS_POOL_WORKER.with(|flag| flag.set(true));
                queue.drain(per_chunk);
            });
        }
    });
    queue.into_results()
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// A materialised parallel iterator: the source of every adapter chain.
pub struct IterBase<T> {
    items: Vec<T>,
}

/// Conversion into a parallel iterator (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Converts `self` into a parallel iterator over its elements.
    fn into_par_iter(self) -> IterBase<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IterBase<T> {
        IterBase { items: self }
    }
}

macro_rules! range_into_par_iter {
    ($($ty:ty),*) => {$(
        impl IntoParallelIterator for Range<$ty> {
            type Item = $ty;
            fn into_par_iter(self) -> IterBase<$ty> {
                IterBase { items: self.collect() }
            }
        }
    )*};
}

range_into_par_iter!(u32, u64, usize);

/// Borrowing conversion for slices and vectors (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed element type.
    type Item: Send;
    /// Returns a parallel iterator over references to the elements.
    fn par_iter(&'a self) -> IterBase<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> IterBase<&'a T> {
        IterBase {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> IterBase<&'a T> {
        IterBase {
            items: self.iter().collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Adapters and terminals
// ---------------------------------------------------------------------------

/// `map` adapter.
pub struct Map<T, F> {
    items: Vec<T>,
    f: F,
}

/// `map_init` adapter.
pub struct MapInit<T, INIT, F> {
    items: Vec<T>,
    init: INIT,
    f: F,
}

/// `filter_map` adapter.
pub struct FilterMap<T, F> {
    items: Vec<T>,
    f: F,
}

/// `fold` adapter: a parallel iterator of per-chunk accumulators.
pub struct Fold<T, ID, F> {
    items: Vec<T>,
    identity: ID,
    fold: F,
}

impl<T: Send> IterBase<T> {
    /// Maps each element through `f`.
    pub fn map<O, F: Fn(T) -> O + Sync>(self, f: F) -> Map<T, F> {
        Map {
            items: self.items,
            f,
        }
    }

    /// Maps with per-worker scratch state created by `init`.
    pub fn map_init<S, O, INIT, F>(self, init: INIT, f: F) -> MapInit<T, INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> O + Sync,
    {
        MapInit {
            items: self.items,
            init,
            f,
        }
    }

    /// Maps and filters in one pass.
    pub fn filter_map<O, F: Fn(T) -> Option<O> + Sync>(self, f: F) -> FilterMap<T, F> {
        FilterMap {
            items: self.items,
            f,
        }
    }

    /// Folds each worker's chunk into a private accumulator.
    pub fn fold<A, ID, F>(self, identity: ID, fold: F) -> Fold<T, ID, F>
    where
        ID: Fn() -> A + Sync,
        F: Fn(A, T) -> A + Sync,
    {
        Fold {
            items: self.items,
            identity,
            fold,
        }
    }

    /// Collects the elements unchanged.
    pub fn collect<C: From<Vec<T>>>(self) -> C {
        C::from(self.items)
    }
}

impl<T: Send, O: Send, F: Fn(T) -> O + Sync> Map<T, F> {
    /// Runs the map in parallel and collects results in input order.
    pub fn collect<C: From<Vec<O>>>(self) -> C {
        let f = &self.f;
        let chunks = run_chunks(self.items, |chunk| {
            chunk.into_iter().map(f).collect::<Vec<O>>()
        });
        C::from(chunks.into_iter().flatten().collect())
    }

    /// Reduces mapped elements with `combine`, starting each worker (and the
    /// final combination) from `identity()`.  Partial results are combined
    /// in chunk order.
    pub fn reduce<ID, C>(self, identity: ID, combine: C) -> O
    where
        ID: Fn() -> O + Sync,
        C: Fn(O, O) -> O + Sync,
    {
        let f = &self.f;
        let id = &identity;
        let combine_ref = &combine;
        let partials = run_chunks(self.items, |chunk| {
            chunk.into_iter().map(f).fold(id(), combine_ref)
        });
        partials.into_iter().fold(identity(), combine)
    }

    /// Sums the mapped elements (combined in input order).
    pub fn sum<S: std::iter::Sum<O> + std::iter::Sum<S> + Send>(self) -> S {
        let f = &self.f;
        let partials = run_chunks(self.items, |chunk| chunk.into_iter().map(f).sum::<S>());
        partials.into_iter().sum()
    }
}

impl<T, S, O, INIT, F> MapInit<T, INIT, F>
where
    T: Send,
    O: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> O + Sync,
{
    /// Runs the map in parallel (one scratch state per worker) and collects
    /// results in input order.
    pub fn collect<C: From<Vec<O>>>(self) -> C {
        let f = &self.f;
        let init = &self.init;
        let chunks = run_chunks(self.items, |chunk| {
            let mut state = init();
            chunk
                .into_iter()
                .map(|item| f(&mut state, item))
                .collect::<Vec<O>>()
        });
        C::from(chunks.into_iter().flatten().collect())
    }
}

impl<T: Send, O: Send, F: Fn(T) -> Option<O> + Sync> FilterMap<T, F> {
    /// Runs the filter-map in parallel and collects retained results in
    /// input order.
    pub fn collect<C: From<Vec<O>>>(self) -> C {
        let f = &self.f;
        let chunks = run_chunks(self.items, |chunk| {
            chunk.into_iter().filter_map(f).collect::<Vec<O>>()
        });
        C::from(chunks.into_iter().flatten().collect())
    }
}

impl<T, A, ID, F> Fold<T, ID, F>
where
    T: Send,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, T) -> A + Sync,
{
    /// Combines the per-chunk accumulators in chunk order.
    pub fn reduce<ID2, C>(self, identity: ID2, combine: C) -> A
    where
        ID2: Fn() -> A + Sync,
        C: Fn(A, A) -> A + Sync,
    {
        let fold = &self.fold;
        let id = &self.identity;
        let partials = run_chunks(self.items, |chunk| chunk.into_iter().fold(id(), fold));
        partials.into_iter().fold(identity(), combine)
    }
}

/// The traits a `use rayon::prelude::*` is expected to bring into scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let data = vec![1u64, 2, 3, 4];
        let out: Vec<u64> = data.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4, 5]);
    }

    #[test]
    fn fold_reduce_sums() {
        let id = || 0u64;
        let total = (0..10_000u64)
            .into_par_iter()
            .fold(&id, |acc, i| acc + i)
            .reduce(&id, |a, b| a + b);
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn map_reduce_deterministic() {
        let out =
            (0..100usize)
                .into_par_iter()
                .map(|i| vec![i])
                .reduce(Vec::new, |mut a, mut b| {
                    a.append(&mut b);
                    a
                });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(current_num_threads);
        assert_eq!(seen, 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn filter_map_drops_elements() {
        let out: Vec<usize> = (0..100usize)
            .into_par_iter()
            .filter_map(|i| (i % 2 == 0).then_some(i))
            .collect();
        assert_eq!(out.len(), 50);
        assert_eq!(out[1], 2);
    }

    #[test]
    fn pool_is_a_process_singleton() {
        // Force the pool up, then check no new pool is built per terminal.
        let _: Vec<u32> = (0..64u32).into_par_iter().map(|i| i).collect();
        let pool = worker_pool();
        let _: Vec<u32> = (0..64u32).into_par_iter().map(|i| i + 1).collect();
        let again = worker_pool();
        assert!(std::ptr::eq(pool, again), "the pool is a process singleton");
    }

    #[test]
    fn nested_terminals_complete_without_deadlock() {
        let out: Vec<u64> = (0..16u64)
            .into_par_iter()
            .map(|i| {
                // A parallel terminal inside a pool worker's chunk.
                (0..100u64).into_par_iter().map(|j| i + j).sum::<u64>()
            })
            .collect();
        assert_eq!(out.len(), 16);
        assert_eq!(out[0], 99 * 100 / 2);
        assert_eq!(out[1], 99 * 100 / 2 + 100);
    }

    #[test]
    fn panics_propagate_to_the_submitting_thread() {
        let result = std::panic::catch_unwind(|| {
            let _: Vec<u32> = (0..1000u32)
                .into_par_iter()
                .map(|i| {
                    if i == 997 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .collect();
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool survives a panicked job and keeps serving.
        let out: Vec<u32> = (0..100u32).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(out[99], 297);
    }

    #[test]
    fn chunk_granularity_never_changes_output() {
        let expected: Vec<usize> = (0..500).map(|i| i * i).collect();
        for chunks in [1, 2, 4, 16] {
            set_chunks_per_worker(Some(chunks));
            let out: Vec<usize> = (0..500usize).into_par_iter().map(|i| i * i).collect();
            assert_eq!(out, expected, "chunks_per_worker={chunks}");
        }
        set_chunks_per_worker(None);
    }

    #[test]
    fn self_scheduling_runs_every_item_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let out: Vec<usize> = (0..333usize)
            .into_par_iter()
            .map(|i| {
                count.fetch_add(1, Ordering::Relaxed);
                i
            })
            .collect();
        assert_eq!(out, (0..333).collect::<Vec<_>>());
        assert_eq!(count.load(Ordering::Relaxed), 333);
    }

    #[test]
    fn map_init_reuses_state_per_worker() {
        let out: Vec<usize> = (0..100usize)
            .into_par_iter()
            .map_init(Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                i
            })
            .collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }
}
