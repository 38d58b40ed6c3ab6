//! The sharded store catalog: many persistent YLT stores served as one
//! refreshable logical store, along either sharding axis.
//!
//! A [`StoreCatalog`] owns one verifying [`StoreReader`] per shard file
//! and publishes the readers, with the stamps and trial windows that
//! describe them, as one immutable snapshot behind an `Arc`.  A batch
//! clones that `Arc` and scans with no lock held; a refresh or a
//! directory adoption builds the next snapshot beside it and swaps it
//! in, so neither waits for a scan and no scan sees half a change.  At
//! open the catalog detects which **axis** the shards partition (see
//! [`ShardAxis`]) from the stores' persisted trial offsets:
//!
//! * all offsets zero — a **segment**-axis catalog: shards hold disjoint
//!   segment sets over one shared trial count, unioned per batch by
//!   [`ShardedSource`];
//! * distinct offsets — a **trial**-axis catalog, the source paper's own
//!   partition dimension: shards hold the *same* segments over adjacent
//!   trial windows `[0, t_1) [t_1, t_2) …` (sorted by offset, validated
//!   gap-free), stitched per batch by
//!   [`TrialShardedSource`] — and the snapshot
//!   additionally carries the per-shard windows so the server can cache
//!   per-shard *partial aggregates* and rescan only the shard whose
//!   generation moved.
//!
//! Per batch, [`SourceProvider::with_source`] builds the zero-copy union
//! over the published snapshot (concatenating or checking a few hundred
//! segment tags — cheap enough to redo every batch, so nothing is
//! memoized) and hands the scheduler a [`SourceSnapshot`] whose
//! generation vector belongs to that same published snapshot — so the
//! stamps and the data can never disagree.  A stamp is the shard's
//! commit counter tagged with a replacement epoch: an *observed*
//! replacement (one whose commit counter or segment count differs at
//! probe time — stores are append-only by contract, so replacement
//! handling is best-effort recovery, and a replacement that exactly
//! reproduces both is indistinguishable from no change) retires every
//! stamp the old store produced, even if the new store's counter later
//! reaches the old value, so the result cache can never serve across an
//! observed replacement; a replacement that changes the trial count
//! excludes the shard from scans (on the segment axis the rest keep
//! serving; on the trial axis the windows are no longer gap-free, so the
//! catalog serves the empty shape) instead of failing batches.
//!
//! [`StoreCatalog::refresh`] is the serve-while-ingesting path, one
//! refresh at a time: for each shard it probes the file's committed
//! generation and footer fingerprint from the 128-byte header region
//! alone ([`StoreReader::peek_header`]), and only when a new commit is
//! visible clones the shard's reader, refreshes the clone — mapping just
//! the newly committed segments (see the riskstore crate's refresh
//! protocol) — and publishes a snapshot holding it.  A shard whose file
//! is temporarily unreadable keeps serving its current reader; the
//! failure is counted, not propagated.

use std::collections::HashSet;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use catrisk_riskquery::{Grid, ResultStore, SegmentSource, ShardedSource, TrialShardedSource};
use catrisk_riskstore::{StoreError, StoreReader};
use catrisk_telemetry::{Histogram, Registry};

use crate::source::{SourceProvider, SourceSnapshot};
use crate::sync::lock;
use crate::telemetry::stage;

/// Low 48 bits of a generation stamp hold the shard's commit counter;
/// the high 16 hold a *replacement epoch*, bumped whenever a refresh
/// observes a file whose commit counter did not advance past the
/// previous snapshot (a replaced/rewritten store) or whose trial count
/// diverged.  Stamps therefore never repeat across a replacement, so a
/// result cached against the old store can never match the new one even
/// if the new file's commit counter later lands on the old value.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

fn stamp(epoch: u64, commit_seq: u64) -> u64 {
    (epoch << SEQ_BITS) | (commit_seq & SEQ_MASK)
}

/// Which dimension a catalog's shards partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAxis {
    /// Shards hold disjoint segment sets over one shared trial axis
    /// (every store's trial offset is zero); the union concatenates
    /// their segment lists.
    Segment,
    /// Shards hold the same segments over adjacent trial windows (the
    /// stores carry distinct trial offsets); the union stitches the
    /// windows back into one trial axis — the paper's partition axis.
    Trial,
}

impl std::fmt::Display for ShardAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardAxis::Segment => "segment",
            ShardAxis::Trial => "trial",
        })
    }
}

/// A stable identity for duplicate-shard detection.  Canonicalisation
/// resolves symlinks and relative respellings; when it fails (the path
/// must still open as a store later, so this is rare), fall back to a
/// *lexically* normalised absolute path so `./a.clm` and `a.clm` still
/// collide instead of silently double-counting a shard.
fn path_identity(path: &Path) -> PathBuf {
    if let Ok(canonical) = std::fs::canonicalize(path) {
        return canonical;
    }
    let absolute = if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::env::current_dir()
            .map(|cwd| cwd.join(path))
            .unwrap_or_else(|_| path.to_path_buf())
    };
    let mut normalised = PathBuf::new();
    for component in absolute.components() {
        match component {
            Component::CurDir => {}
            Component::ParentDir => {
                if !normalised.pop() {
                    normalised.push(component.as_os_str());
                }
            }
            other => normalised.push(other.as_os_str()),
        }
    }
    normalised
}

/// Every `.clm` file directly inside `dir`, sorted by path for a
/// deterministic open/adopt order.
fn list_store_files(dir: &Path) -> std::result::Result<Vec<PathBuf>, StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| {
        StoreError::InvalidArgument(format!(
            "cannot read catalog directory `{}`: {e}",
            dir.display()
        ))
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "clm") && path.is_file())
        .collect();
    paths.sort();
    Ok(paths)
}

/// One published state of the catalog: the shard readers a batch scans
/// and everything derived from them.  Immutable once published — a batch
/// holds it by `Arc` for as long as it scans, and a refresh or an
/// adoption publishes a new one instead of touching it.
#[derive(Clone)]
struct Snapshot {
    /// Shards in serving order: open order for the segment axis, window
    /// order (ascending trial offset) for the trial axis.
    readers: Vec<Arc<StoreReader>>,
    /// One stamp per shard (see [`SEQ_BITS`]), describing `readers`.
    generations: Vec<u64>,
    /// Trials every scan sees: the shared per-shard count on the segment
    /// axis, the window total on the trial axis.
    num_trials: usize,
    axis: ShardAxis,
    /// The global trial window of each shard, in shard order — only
    /// meaningful (non-empty) on the trial axis.
    windows: Vec<(usize, usize)>,
}

impl Snapshot {
    /// Detects the sharding axis from the shards' persisted trial
    /// offsets and validates they fit together on it (the rules
    /// documented on [`StoreCatalog::open`]).
    fn build(mut readers: Vec<StoreReader>) -> std::result::Result<Snapshot, StoreError> {
        if readers.is_empty() {
            return Err(StoreError::InvalidArgument(
                "a catalog needs at least one store".to_string(),
            ));
        }
        let axis = if readers.iter().all(|reader| reader.trial_offset() == 0) {
            ShardAxis::Segment
        } else {
            ShardAxis::Trial
        };
        let mut windows = Vec::new();
        let num_trials = match axis {
            ShardAxis::Segment => {
                let trials = readers[0].num_trials();
                for reader in &readers[1..] {
                    if reader.num_trials() != trials {
                        return Err(StoreError::InvalidArgument(format!(
                            "shard `{}` holds {}-trial segments but the catalog's first shard \
                             holds {trials}-trial segments",
                            reader.path().display(),
                            reader.num_trials()
                        )));
                    }
                }
                trials
            }
            ShardAxis::Trial => {
                // Window order is offset order, whatever order the shards
                // were listed in.
                readers.sort_by_key(StoreReader::trial_offset);
                let mut at = 0usize;
                for reader in &readers {
                    if reader.trial_offset() != at as u64 {
                        return Err(StoreError::InvalidArgument(format!(
                            "trial shard `{}` covers trials {}..{} but the preceding shards \
                             end at trial {at}; trial windows must tile [0, total) with no \
                             gap or overlap",
                            reader.path().display(),
                            reader.trial_offset(),
                            reader.trial_offset() + reader.num_trials() as u64,
                        )));
                    }
                    windows.push((at, at + reader.num_trials()));
                    at += reader.num_trials();
                }
                at
            }
        };
        Ok(Snapshot {
            generations: readers.iter().map(|r| stamp(0, r.commit_seq())).collect(),
            readers: readers.into_iter().map(Arc::new).collect(),
            num_trials,
            axis,
            windows,
        })
    }

    /// This snapshot grown by a discovered store, when its geometry
    /// fits: another segment-axis shard sharing the catalog trial count,
    /// or the store whose trial window starts exactly where the current
    /// axis ends (which may convert a single-shard segment-axis catalog
    /// into a trial-axis one — a one-window axis is both).  Anything else
    /// is a topology the catalog cannot serve exactly, and is rejected.
    fn adopt(&self, reader: StoreReader) -> std::result::Result<Snapshot, StoreError> {
        let path = reader.path().display();
        let trials = reader.num_trials();
        let offset = reader.trial_offset();
        if offset == 0 {
            if self.axis != ShardAxis::Segment {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{path}` has trial offset 0, which overlaps the trial-axis \
                     catalog's first window"
                )));
            }
            if trials != self.num_trials {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{path}` holds {trials}-trial segments but the catalog serves \
                     {}-trial segments",
                    self.num_trials
                )));
            }
        } else {
            if offset != self.num_trials as u64 {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{path}` covers trials {offset}..{} but the catalog's axis ends \
                     at trial {}; a discovered window must start exactly there",
                    offset + trials as u64,
                    self.num_trials
                )));
            }
            if self.axis == ShardAxis::Segment && self.readers.len() > 1 {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{path}` opens a trial window, but the catalog already unions \
                     {} segment-axis shards",
                    self.readers.len()
                )));
            }
        }
        let mut next = self.clone();
        if offset != 0 {
            if next.axis == ShardAxis::Segment {
                // One offset-0 shard is equally window [0, n): reinterpret.
                next.axis = ShardAxis::Trial;
                next.windows = vec![(0, next.num_trials)];
            }
            next.windows
                .push((next.num_trials, next.num_trials + trials));
            next.num_trials += trials;
        }
        next.generations.push(stamp(0, reader.commit_seq()));
        next.readers.push(Arc::new(reader));
        Ok(next)
    }

    /// Whether `reader` still has the geometry shard `index` was admitted
    /// with: offset zero and the catalog trial count on the segment axis,
    /// exactly its window on the trial axis.
    fn fits(&self, index: usize, reader: &StoreReader) -> bool {
        let (start, end) = match self.axis {
            ShardAxis::Segment => (0, self.num_trials),
            ShardAxis::Trial => self.windows[index],
        };
        reader.trial_offset() == start as u64 && reader.num_trials() == end - start
    }
}

/// Directory-watch state for catalog auto-discovery (see
/// [`StoreCatalog::open_dir`]).
struct DirWatch {
    dir: PathBuf,
    /// Identities (see [`path_identity`]) of every adopted store, so a
    /// sweep never re-opens what is already serving.
    adopted: HashSet<PathBuf>,
    /// Identities whose geometry can never join this catalog (wrong
    /// trial count, out-of-sequence window): rejected once, with one
    /// error count, instead of re-failing every sweep.
    rejected: HashSet<PathBuf>,
}

/// A shard's refresh-side state, in snapshot shard order.
#[derive(Clone, Copy, Default)]
struct Probe {
    /// Replacement epoch (see [`SEQ_BITS`]).
    epoch: u64,
    /// Footer offset and length observed by the last header probe
    /// (`None` = never probed).  Together with the commit counter this
    /// fingerprints the committed state: every commit appends a fresh
    /// footer at the growing end of file, so any change a refresh could
    /// observe moves at least one of the three.
    seen_footer: Option<(u64, u64)>,
}

/// Everything refresh and discovery own.  One refresh holds it at a
/// time; a batch never does.
#[derive(Default)]
struct Refresher {
    probes: Vec<Probe>,
    /// `Some` when the catalog watches a directory for new stores.
    watch: Option<DirWatch>,
    /// Paths adopted by discovery since the server last drained them
    /// (the server turns the drain into counters + recorder events).
    discovered: Vec<PathBuf>,
    /// Minimum time between on-disk generation probes (zero = probe on
    /// every [`SourceProvider::refresh`] call).
    interval: Duration,
    /// When the last probe sweep ran (`None` = never).
    last_probe: Option<Instant>,
}

/// N persistent stores served as one logical, refreshable store.
pub struct StoreCatalog {
    /// The published snapshot.  The lock is held only to clone or swap
    /// the `Arc`, never across a batch.
    current: Mutex<Arc<Snapshot>>,
    /// Refresh, discovery and their throttle, one at a time; the only
    /// writers of `current`.
    refresher: Mutex<Refresher>,
    /// Total stores adopted by discovery over the catalog's lifetime.
    discovered: AtomicU64,
    refreshes: AtomicU64,
    refresh_errors: AtomicU64,
    /// Set by [`SourceProvider::attach_telemetry`] when the catalog backs
    /// an instrumented server; unset for a bare catalog.
    telemetry: OnceLock<CatalogTelemetry>,
}

/// The catalog's resolved metric handles (see [`crate::telemetry::stage`]).
struct CatalogTelemetry {
    /// Snapshot-assembly cost: building the batch's union.
    assembly: Arc<Histogram>,
    /// Store-open cost, also recorded for stores adopted by discovery.
    store_open: Arc<Histogram>,
    /// Refresh cost, attached to every reader including discovered ones.
    store_refresh: Arc<Histogram>,
}

impl std::fmt::Debug for StoreCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.published();
        f.debug_struct("StoreCatalog")
            .field("axis", &snapshot.axis)
            .field("shards", &snapshot.readers.len())
            .field("trials", &snapshot.num_trials)
            .finish()
    }
}

impl StoreCatalog {
    /// Opens every shard file, detects the sharding axis from the
    /// stores' persisted trial offsets, and validates the shards fit
    /// together on it: a segment-axis catalog (all offsets zero) needs
    /// one shared trial count; a trial-axis catalog (distinct offsets)
    /// needs its windows — sorted by offset — to tile `[0, total)` with
    /// no gap or overlap.  Shards with no committed segments are
    /// accepted — that is exactly the serve-while-ingesting starting
    /// state; their segments appear at the first refresh after their
    /// first commit.
    pub fn open(
        paths: impl IntoIterator<Item = impl AsRef<Path>>,
    ) -> std::result::Result<StoreCatalog, StoreError> {
        let mut readers = Vec::new();
        let mut identities = std::collections::HashSet::new();
        for path in paths {
            let path = path.as_ref();
            // A duplicated shard would silently double-count every one of
            // its segments (or serve one trial window twice); reject it
            // (resolving symlinks — and lexically normalising when
            // canonicalisation fails — so `serve x.clm ./x.clm` is caught
            // too).
            if !identities.insert(path_identity(path)) {
                return Err(StoreError::InvalidArgument(format!(
                    "shard `{}` is listed more than once",
                    path.display()
                )));
            }
            readers.push(StoreReader::open(path)?);
        }
        let snapshot = Snapshot::build(readers)?;
        Ok(StoreCatalog {
            refresher: Mutex::new(Refresher {
                probes: vec![Probe::default(); snapshot.readers.len()],
                ..Refresher::default()
            }),
            current: Mutex::new(Arc::new(snapshot)),
            discovered: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            refresh_errors: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        })
    }

    /// Opens every `.clm` store file in `dir` as a catalog and keeps
    /// **watching the directory**: each refresh sweep (throttled by the
    /// same [`StoreCatalog::set_refresh_interval`] knob as the header
    /// probes) re-lists the directory, and a new store file whose
    /// geometry fits the serving axis — another segment-axis shard with
    /// the shared trial count, or the exact next trial window — is
    /// adopted and served without a restart.  That is how `store split`
    /// output or a fresh `--trial-offset` window dropped by an ingest
    /// writer joins a running fleet.  Files that fail to open (typically
    /// still being written) are retried on later sweeps; files whose
    /// geometry can never fit are rejected once and counted in
    /// [`StoreCatalog::refresh_error_count`].
    pub fn open_dir(dir: impl AsRef<Path>) -> std::result::Result<StoreCatalog, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let paths = list_store_files(&dir)?;
        if paths.is_empty() {
            return Err(StoreError::InvalidArgument(format!(
                "directory `{}` holds no .clm store files",
                dir.display()
            )));
        }
        let adopted = paths.iter().map(|p| path_identity(p)).collect();
        let catalog = Self::open(&paths)?;
        lock(&catalog.refresher).watch = Some(DirWatch {
            dir,
            adopted,
            rejected: HashSet::new(),
        });
        Ok(catalog)
    }

    /// Total store files adopted by directory discovery since open.
    pub fn discovered_count(&self) -> u64 {
        self.discovered.load(Ordering::Relaxed)
    }

    /// The published snapshot, held by the caller for as long as it
    /// likes: the catalog lock is released on return.
    fn published(&self) -> Arc<Snapshot> {
        Arc::clone(&lock(&self.current))
    }

    /// One discovery sweep: re-list the watched directory and publish a
    /// grown snapshot for every store file not yet serving that fits —
    /// each adoption on its own, together with its probe state.  No-op
    /// without a watch.
    fn discover(&self, state: &mut Refresher) {
        let Some(watch) = state.watch.as_mut() else {
            return;
        };
        let candidates = match list_store_files(&watch.dir) {
            Ok(paths) => paths,
            Err(_) => {
                // The directory itself went unreadable; the shards keep
                // serving and the sweep retries later.
                self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        for path in candidates {
            let identity = path_identity(&path);
            if watch.adopted.contains(&identity) || watch.rejected.contains(&identity) {
                continue;
            }
            // An unopenable file is usually a store still being written
            // (the header commits last): retry on the next sweep.
            let Ok(mut reader) = StoreReader::open(&path) else {
                continue;
            };
            let open_micros = reader.open_micros();
            if let Some(telemetry) = self.telemetry.get() {
                reader.attach_refresh_histogram(Arc::clone(&telemetry.store_refresh));
            }
            match self.published().adopt(reader) {
                Ok(grown) => {
                    if let Some(telemetry) = self.telemetry.get() {
                        telemetry.store_open.record(open_micros);
                    }
                    *lock(&self.current) = Arc::new(grown);
                    state.probes.push(Probe::default());
                    watch.adopted.insert(identity);
                    self.discovered.fetch_add(1, Ordering::Relaxed);
                    state.discovered.push(path);
                }
                Err(_) => {
                    watch.rejected.insert(identity);
                    self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.published().readers.len()
    }

    /// The axis this catalog's shards partition.
    pub fn axis(&self) -> ShardAxis {
        self.published().axis
    }

    /// The global trial window of each shard, in shard order — empty for
    /// a segment-axis catalog (whose shards all share the full axis).
    pub fn shard_windows(&self) -> Vec<(usize, usize)> {
        self.published().windows.clone()
    }

    /// The current generation vector: one stamp per shard (commit
    /// counter + replacement epoch), changing exactly when that shard's
    /// visible data changes and never repeating across a file
    /// replacement.
    pub fn generations(&self) -> Vec<u64> {
        self.published().generations.clone()
    }

    /// Per-shard committed segment counts.
    pub fn shard_segments(&self) -> Vec<usize> {
        let snapshot = self.published();
        snapshot.readers.iter().map(|r| r.num_segments()).collect()
    }

    /// Resident bytes of every shard's loaded loss columns (zero-copy
    /// mapped columns count their mapped extent).
    pub fn memory_bytes(&self) -> usize {
        let snapshot = self.published();
        snapshot.readers.iter().map(|r| r.memory_bytes()).sum()
    }

    /// Caps how often [`SourceProvider::refresh`] actually probes the
    /// shard files.  The default (zero) probes on every call — one
    /// 128-byte header read per shard per batch, which is fine on a
    /// local filesystem; serving many shards from a networked or
    /// cold-cache filesystem should raise this to bound the per-batch
    /// syscall cost, at the price of commits becoming visible up to the
    /// interval later.
    pub fn set_refresh_interval(&self, interval: Duration) {
        lock(&self.refresher).interval = interval;
    }

    /// Refreshes that made new commits visible (across all shards).
    pub fn refresh_count(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Refresh attempts that failed (the shard kept its old snapshot).
    pub fn refresh_error_count(&self) -> u64 {
        self.refresh_errors.load(Ordering::Relaxed)
    }

    /// One human-readable line per shard, for serving logs.
    pub fn describe(&self) -> String {
        let snapshot = self.published();
        snapshot
            .readers
            .iter()
            .enumerate()
            .map(|(index, reader)| {
                let window = match snapshot.axis {
                    ShardAxis::Segment => String::new(),
                    ShardAxis::Trial => {
                        let (start, end) = snapshot.windows[index];
                        format!(" covering trials {start}..{end}")
                    }
                };
                format!(
                    "{}: {} segments x {} trials{window} ({:.1} MB resident), commit {}",
                    reader.path().display(),
                    reader.num_segments(),
                    reader.num_trials(),
                    reader.memory_bytes() as f64 / 1.0e6,
                    reader.commit_seq()
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Runs `f` over the degraded empty-store shape: queries still
    /// answer (with no rows) instead of hanging or panicking a worker.
    fn with_empty<R>(
        &self,
        num_trials: usize,
        generations: &[u64],
        f: impl FnOnce(SourceSnapshot<'_>) -> R,
    ) -> R {
        let empty = ResultStore::new(num_trials);
        f(SourceSnapshot {
            source: &empty,
            generations,
            grid: Grid::default(),
        })
    }
}

impl SourceProvider for StoreCatalog {
    fn num_trials(&self) -> usize {
        self.published().num_trials
    }

    fn num_segments(&self) -> usize {
        let snapshot = self.published();
        let counts = snapshot.readers.iter().map(|r| r.num_segments());
        match snapshot.axis {
            ShardAxis::Segment => counts.sum(),
            // The served set is the common committed prefix.
            ShardAxis::Trial => counts.min().unwrap_or(0),
        }
    }

    /// Probes every shard's committed generation (a 128-byte header
    /// read) and refreshes a clone of each shard whose file moved.  A
    /// watching catalog first sweeps its directory for new store files
    /// to adopt (same throttle).  Publishes one new snapshot when any
    /// shard advanced — batches still holding the old one finish on it —
    /// and returns the shards whose visible state advanced.
    fn refresh(&self) -> Vec<usize> {
        let mut state = lock(&self.refresher);
        if state
            .last_probe
            .is_some_and(|last| last.elapsed() < state.interval)
        {
            return Vec::new();
        }
        state.last_probe = Some(Instant::now());
        self.discover(&mut state);
        let published = self.published();
        let mut next = Arc::clone(&published);
        let mut advanced = Vec::new();
        for (index, probe) in state.probes.iter_mut().enumerate() {
            let reader = &next.readers[index];
            let seen_seq = next.generations[index] & SEQ_MASK;
            let header = match StoreReader::peek_header(reader.path()) {
                Ok(header) => header,
                Err(_) => {
                    self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            // Probe against the full committed-state fingerprint, not
            // just the commit counter: a replaced file whose counter
            // happens to match still moves the footer.
            let footer = Some((header.footer_offset, header.footer_len));
            if header.commit_seq & SEQ_MASK == seen_seq && footer == probe.seen_footer {
                continue;
            }
            // Record the probed fingerprint whatever the outcome, so a
            // change the reader cannot observe (a same-shape
            // replacement) does not re-copy the reader every batch.
            probe.seen_footer = footer;
            let mut fresh = StoreReader::clone(reader);
            match fresh.refresh() {
                Ok(true) => {
                    let new_seq = fresh.commit_seq() & SEQ_MASK;
                    // The shard's geometry (trial count, and on the trial
                    // axis its window offset) is fixed at admission; only
                    // a file replacement can change it.
                    let mismatched = !next.fits(index, &fresh);
                    if new_seq <= seen_seq || mismatched {
                        // The file was replaced (the reader took its
                        // full-reload fallback): retire every stamp the
                        // old store ever produced.
                        probe.epoch += 1;
                    }
                    if mismatched {
                        // A replacement changed the shard's geometry: it
                        // cannot join the catalog's scans any more
                        // (with_source excludes it) — surface that.
                        self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    let next = Arc::make_mut(&mut next);
                    next.generations[index] = stamp(probe.epoch, new_seq);
                    next.readers[index] = Arc::new(fresh);
                    self.refreshes.fetch_add(1, Ordering::Relaxed);
                    advanced.push(index);
                }
                Ok(false) => {}
                Err(_) => {
                    // The shard keeps serving its current reader.
                    self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if !Arc::ptr_eq(&next, &published) {
            *lock(&self.current) = next;
        }
        advanced
    }

    /// Hooks the catalog into the server's registry: records what each
    /// shard's open cost (already paid at [`StoreCatalog::open`]), wires
    /// every reader's future refreshes into `store_refresh_micros`, and
    /// arms the snapshot-assembly (`stage_schema_memo_micros`) timer.
    fn attach_telemetry(&self, registry: &Registry) {
        // Holding the refresher keeps a refresh from publishing between
        // the read and the swap below.
        let _refresher = lock(&self.refresher);
        let telemetry = self.telemetry.get_or_init(|| CatalogTelemetry {
            assembly: registry.histogram(stage::SCHEMA_MEMO),
            store_open: registry.histogram(stage::STORE_OPEN),
            store_refresh: registry.histogram(stage::STORE_REFRESH),
        });
        let mut next = Snapshot::clone(&self.published());
        for reader in &mut next.readers {
            telemetry.store_open.record(reader.open_micros());
            Arc::make_mut(reader).attach_refresh_histogram(Arc::clone(&telemetry.store_refresh));
        }
        *lock(&self.current) = Arc::new(next);
    }

    fn drain_discovered(&self) -> Vec<PathBuf> {
        std::mem::take(&mut lock(&self.refresher).discovered)
    }

    fn with_source<R>(&self, f: impl FnOnce(SourceSnapshot<'_>) -> R) -> R {
        // The batch owns an `Arc` of the published snapshot, so no lock
        // is held while it scans: a refresh publishing meanwhile swaps
        // the catalog's `Arc`, never this one, and the stamps below
        // describe exactly these readers.
        let snapshot = self.published();
        let generations = &snapshot.generations;
        let assembly = self.telemetry.get().map(|telemetry| &telemetry.assembly);

        if snapshot.axis == ShardAxis::Trial {
            // Every window must still be covered by the store registered
            // for it; a geometry-changing replacement leaves a hole in
            // the trial axis, and a partial axis cannot answer exactly.
            let intact = snapshot
                .readers
                .iter()
                .enumerate()
                .all(|(index, reader)| snapshot.fits(index, reader));
            let refs: Vec<&dyn SegmentSource> = snapshot
                .readers
                .iter()
                .map(|reader| &**reader as &dyn SegmentSource)
                .collect();
            let assembly_started = Instant::now();
            let stitched = intact.then(|| TrialShardedSource::new(refs));
            if let Some(histogram) = assembly {
                histogram.record(assembly_started.elapsed().as_micros() as u64);
            }
            return match stitched {
                // Shards that stopped describing the same segments (a
                // mid-ingest layout divergence) cannot stitch either.
                Some(Ok(stitched)) => f(SourceSnapshot {
                    source: &stitched,
                    generations,
                    grid: Grid {
                        trial_windows: &snapshot.windows,
                        ..Grid::default()
                    },
                }),
                _ => self.with_empty(snapshot.num_trials, generations, f),
            };
        }

        // A shard whose file was replaced with a different trial count
        // cannot join the scan; exclude it (keep serving the rest)
        // rather than panicking a worker and stranding the batch.
        let usable: Vec<&dyn SegmentSource> = snapshot
            .readers
            .iter()
            .filter(|reader| reader.num_trials() == snapshot.num_trials)
            .map(|reader| &**reader as &dyn SegmentSource)
            .collect();
        match usable.as_slice() {
            [] => {
                // Every shard diverged: serve the empty store shape so
                // queries still answer (with no rows) instead of hanging.
                self.with_empty(snapshot.num_trials, generations, f)
            }
            [only] => f(SourceSnapshot {
                source: *only,
                generations,
                grid: Grid::default(),
            }),
            _ => {
                // Cell `j` is stamped with `generations[j]`, so the
                // shard-indexed ranges are only sound when no shard was
                // excluded above; a degraded union serves uncut.
                let all_usable = usable.len() == snapshot.readers.len();
                let assembly_started = Instant::now();
                let sharded = ShardedSource::new(usable)
                    .expect("usable shards all share the catalog trial count");
                if let Some(histogram) = assembly {
                    histogram.record(assembly_started.elapsed().as_micros() as u64);
                }
                let ranges = if all_usable {
                    sharded.segment_ranges()
                } else {
                    Vec::new()
                };
                f(SourceSnapshot {
                    source: &sharded,
                    generations,
                    grid: Grid {
                        segment_ranges: &ranges,
                        ..Grid::default()
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;
    use catrisk_riskquery::prelude::*;
    use catrisk_riskstore::{StoreOptions, StoreWriter};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-catalog-{}-{}.clm",
            std::process::id(),
            name
        ));
        path
    }

    fn meta(layer: u32, peril: Peril) -> SegmentMeta {
        SegmentMeta::new(
            LayerId(layer),
            peril,
            Region::Europe,
            LineOfBusiness::Property,
        )
    }

    fn write_shard(path: &Path, trials: usize, layers: std::ops::Range<u32>) {
        let mut writer = StoreWriter::create(path, trials).unwrap();
        for layer in layers {
            let losses: Vec<f64> = (0..trials).map(|t| (layer as usize + t) as f64).collect();
            writer
                .append_segment(
                    meta(layer, Peril::ALL[layer as usize % Peril::ALL.len()]),
                    &losses,
                    &losses,
                )
                .unwrap();
        }
        writer.finish().unwrap();
    }

    /// Splits the trial axis of a synthetic 3-layer portfolio into
    /// window shard files at `cuts`, returning the windowed paths plus
    /// an in-memory store holding the full axis.
    fn write_trial_shards(
        name: &str,
        trials: usize,
        cuts: &[usize],
    ) -> (Vec<PathBuf>, ResultStore) {
        let layers = 3u32;
        let column = |layer: u32| -> Vec<f64> {
            (0..trials)
                .map(|t| ((layer as usize * 7 + t * 3) % 11) as f64)
                .collect()
        };
        let mut whole = ResultStore::new(trials);
        for layer in 0..layers {
            let losses = column(layer);
            let outcomes = losses
                .iter()
                .map(|&l| catrisk_engine::ylt::TrialOutcome {
                    year_loss: l,
                    max_occurrence_loss: l * 0.5,
                    nonzero_events: 0,
                })
                .collect();
            whole
                .ingest(
                    &catrisk_engine::ylt::YearLossTable::new(LayerId(layer), outcomes),
                    meta(layer, Peril::ALL[layer as usize % Peril::ALL.len()]),
                )
                .unwrap();
        }
        let mut bounds = vec![0usize];
        bounds.extend_from_slice(cuts);
        bounds.push(trials);
        let mut paths = Vec::new();
        for (index, window) in bounds.windows(2).enumerate() {
            let (start, end) = (window[0], window[1]);
            let path = temp_path(&format!("{name}-w{index}"));
            let mut writer = StoreWriter::create_with(
                &path,
                end - start,
                StoreOptions {
                    trial_offset: start as u64,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            for layer in 0..layers {
                let losses = column(layer);
                let occ: Vec<f64> = losses[start..end].iter().map(|&l| l * 0.5).collect();
                writer
                    .append_segment(
                        meta(layer, Peril::ALL[layer as usize % Peril::ALL.len()]),
                        &losses[start..end],
                        &occ,
                    )
                    .unwrap();
            }
            writer.finish().unwrap();
            paths.push(path);
        }
        (paths, whole)
    }

    #[test]
    fn catalog_unions_shards_and_refreshes_live() {
        let a = temp_path("union-a");
        let b = temp_path("union-b");
        write_shard(&a, 8, 0..3);
        write_shard(&b, 8, 3..5);

        let catalog = StoreCatalog::open([&a, &b]).unwrap();
        assert_eq!(catalog.num_shards(), 2);
        assert_eq!(catalog.axis(), ShardAxis::Segment);
        assert!(catalog.shard_windows().is_empty());
        assert_eq!(SourceProvider::num_trials(&catalog), 8);
        assert_eq!(SourceProvider::num_segments(&catalog), 5);
        assert_eq!(catalog.shard_segments(), vec![3, 2]);
        assert!(catalog.memory_bytes() >= 5 * 2 * 8 * 8);
        assert!(catalog.describe().lines().count() == 2);

        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let before = catalog.with_source(|snapshot| {
            assert_eq!(snapshot.generations.len(), 2);
            assert!(snapshot.grid.trial_windows.is_empty());
            execute(snapshot.source, &query).unwrap()
        });

        // Nothing committed since open: refresh is a no-op.
        assert!(SourceProvider::refresh(&catalog).is_empty());
        assert_eq!(catalog.refresh_count(), 0);

        // An ingest writer appends to shard B mid-serve.
        let mut writer = StoreWriter::open_append(&b).unwrap();
        let losses = vec![100.0; 8];
        writer
            .append_segment(meta(99, Peril::WinterStorm), &losses, &losses)
            .unwrap();
        writer.commit().unwrap();
        drop(writer);

        assert_eq!(SourceProvider::refresh(&catalog), vec![1]);
        assert_eq!(catalog.refresh_count(), 1);
        assert_eq!(SourceProvider::num_segments(&catalog), 6);
        let generations = catalog.generations();
        let after = catalog.with_source(|snapshot| {
            assert_eq!(snapshot.generations, generations.as_slice());
            execute(snapshot.source, &query).unwrap()
        });
        assert_ne!(before, after, "the new segment must be visible");

        // The refreshed union matches a cold-open union bit for bit.
        let cold = StoreCatalog::open([&a, &b]).unwrap();
        assert_eq!(
            cold.with_source(|s| execute(s.source, &query).unwrap()),
            after
        );

        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn a_refresh_publishes_while_a_batch_holds_its_snapshot() {
        let a = temp_path("held-snapshot");
        write_shard(&a, 8, 0..2);
        let catalog = Arc::new(StoreCatalog::open([&a]).unwrap());
        let query = QueryBuilder::new()
            .group_by(Dimension::Layer)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let before = catalog.with_source(|s| execute(s.source, &query).unwrap());

        let (refreshed, refresher, held, held_stamps) = catalog.with_source(|snapshot| {
            let mut writer = StoreWriter::open_append(&a).unwrap();
            writer
                .append_segment(meta(9, Peril::Flood), &[5.0; 8], &[5.0; 8])
                .unwrap();
            writer.commit().unwrap();
            drop(writer);
            // A spawned, not scoped, thread: a refresh that waited for
            // this batch must time out here, not deadlock the test.
            let (sender, receiver) = std::sync::mpsc::channel();
            let shared = Arc::clone(&catalog);
            let refresher = std::thread::spawn(move || {
                let _ = sender.send(SourceProvider::refresh(&*shared));
            });
            let refreshed = receiver.recv_timeout(Duration::from_secs(5));
            let held = execute(snapshot.source, &query).unwrap();
            (refreshed, refresher, held, snapshot.generations.to_vec())
        });
        refresher.join().expect("the refresh thread panicked");
        assert_eq!(
            refreshed,
            Ok(vec![0]),
            "a refresh must not wait for a batch holding its snapshot"
        );
        assert_eq!(held, before, "the held snapshot answers as before");
        assert_ne!(held_stamps, catalog.generations());
        let after = catalog.with_source(|s| execute(s.source, &query).unwrap());
        assert_eq!(after.rows.len(), before.rows.len() + 1);
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn trial_axis_catalog_stitches_windows_bit_identically() {
        let trials = 24;
        let (paths, whole) = write_trial_shards("trial-union", trials, &[9, 16]);

        // Shards listed out of window order: the catalog sorts by the
        // persisted trial offset.
        let catalog = StoreCatalog::open([&paths[2], &paths[0], &paths[1]]).unwrap();
        assert_eq!(catalog.axis(), ShardAxis::Trial);
        assert_eq!(catalog.shard_windows(), &[(0, 9), (9, 16), (16, 24)]);
        assert_eq!(SourceProvider::num_trials(&catalog), trials);
        assert_eq!(SourceProvider::num_segments(&catalog), 3);
        assert!(catalog.describe().contains("covering trials 9..16"));

        let queries = [
            QueryBuilder::new()
                .group_by(Dimension::Peril)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::Tvar { level: 0.9 })
                .build()
                .unwrap(),
            QueryBuilder::new()
                .trials(5..20)
                .loss_at_least(3.0)
                .aggregate(Aggregate::Mean)
                .aggregate(Aggregate::MaxLoss)
                .build()
                .unwrap(),
        ];
        for query in &queries {
            let stitched = catalog.with_source(|snapshot| {
                assert_eq!(snapshot.grid.trial_windows, [(0, 9), (9, 16), (16, 24)]);
                execute(snapshot.source, query).unwrap()
            });
            assert_eq!(
                stitched,
                execute(&whole, query).unwrap(),
                "the stitched trial axis must be bit-identical to the whole store"
            );
        }
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn trial_axis_prefix_clamps_until_every_shard_commits() {
        let trials = 12;
        let (paths, _) = write_trial_shards("trial-clamp", trials, &[5]);
        let catalog = StoreCatalog::open([&paths[0], &paths[1]]).unwrap();
        assert_eq!(SourceProvider::num_segments(&catalog), 3);
        let query = QueryBuilder::new()
            .group_by(Dimension::Layer)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let rows_before = catalog.with_source(|s| execute(s.source, &query).unwrap().rows.len());

        // One window's writer commits layer 9 before its peer: the union
        // must keep serving the 3-segment prefix.
        let mut writer = StoreWriter::open_append(&paths[0]).unwrap();
        writer
            .append_segment(meta(9, Peril::WinterStorm), &[7.0; 5], &[7.0; 5])
            .unwrap();
        writer.commit().unwrap();
        drop(writer);
        assert_eq!(SourceProvider::refresh(&catalog), vec![0]);
        assert_eq!(SourceProvider::num_segments(&catalog), 3);
        assert_eq!(
            catalog.with_source(|s| execute(s.source, &query).unwrap().rows.len()),
            rows_before,
            "a layer committed to only one window must stay invisible"
        );

        // The peer catches up: the stitched layer appears.
        let mut writer = StoreWriter::open_append(&paths[1]).unwrap();
        writer
            .append_segment(meta(9, Peril::WinterStorm), &[3.0; 7], &[3.0; 7])
            .unwrap();
        writer.commit().unwrap();
        drop(writer);
        assert_eq!(SourceProvider::refresh(&catalog), vec![1]);
        assert_eq!(SourceProvider::num_segments(&catalog), 4);
        assert_eq!(
            catalog.with_source(|s| execute(s.source, &query).unwrap().rows.len()),
            rows_before + 1
        );
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn server_over_trial_catalog_rescans_only_the_refreshed_shard() {
        use crate::server::{Server, ServerConfig};
        let trials = 18;
        let (paths, whole) = write_trial_shards("trial-partials", trials, &[7, 12]);
        let catalog = StoreCatalog::open([&paths[0], &paths[1], &paths[2]]).unwrap();
        let server = Server::new(catalog, ServerConfig::default());
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.9 })
            .build()
            .unwrap();

        // Cold: every window rescans, and the stitch matches the
        // unsharded store bit for bit.
        let first = server.query(query.clone()).unwrap().result;
        assert_eq!(first, execute(&whole, &query).unwrap());
        let stats = server.stats();
        assert_eq!(stats.partial_misses, 3, "{stats:?}");
        assert_eq!(stats.partial_hits, 0, "{stats:?}");

        // Warm repeat: the whole-result cache answers; partials untouched.
        assert_eq!(server.query(query.clone()).unwrap().result, first);
        let stats = server.stats();
        assert_eq!(stats.partial_misses, 3, "{stats:?}");
        assert!(stats.cache_hits >= 1, "{stats:?}");

        // One window's writer commits a layer its peers don't have yet:
        // the result cache must miss (that shard's stamp moved), but the
        // partial cache re-serves the two untouched windows — only the
        // committed window rescans, and the result is unchanged because
        // the common prefix is.
        let mut writer = StoreWriter::open_append(&paths[1]).unwrap();
        writer
            .append_segment(meta(9, Peril::WinterStorm), &[7.0; 5], &[7.0; 5])
            .unwrap();
        writer.commit().unwrap();
        drop(writer);
        assert_eq!(server.query(query.clone()).unwrap().result, first);
        let stats = server.stats();
        assert_eq!(
            stats.partial_hits, 2,
            "the untouched windows must re-serve their cached partials: {stats:?}"
        );
        assert_eq!(
            stats.partial_misses, 4,
            "exactly the refreshed window rescans: {stats:?}"
        );
        assert!(stats.refreshes >= 1, "{stats:?}");

        // The peers catch up: the segment prefix grows, so every cached
        // partial is (correctly) too narrow and the whole axis rescans.
        for path in [&paths[0], &paths[2]] {
            let mut writer = StoreWriter::open_append(path).unwrap();
            let trials = writer.num_trials();
            writer
                .append_segment(
                    meta(9, Peril::WinterStorm),
                    &vec![7.0; trials],
                    &vec![7.0; trials],
                )
                .unwrap();
            writer.commit().unwrap();
        }
        let grown = server.query(query.clone()).unwrap().result;
        assert_ne!(grown, first, "the stitched new layer must be visible");
        let stats = server.stats();
        assert_eq!(stats.partial_misses, 7, "{stats:?}");

        server.shutdown();
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn trial_axis_rejects_gaps_overlaps_and_missing_zero() {
        let trials = 12;
        let (paths, _) = write_trial_shards("trial-gaps", trials, &[5]);
        // Only the second window: the axis does not start at 0.
        assert!(matches!(
            StoreCatalog::open([&paths[1]]),
            Err(StoreError::InvalidArgument(_))
        ));
        // Overlap: window 1 served twice under different names — the
        // second copy's offset lands where trial 12 should start.
        let copy = temp_path("trial-gaps-copy");
        std::fs::copy(&paths[1], &copy).unwrap();
        assert!(matches!(
            StoreCatalog::open([&paths[0], &paths[1], &copy]),
            Err(StoreError::InvalidArgument(_))
        ));
        let _ = std::fs::remove_file(&copy);
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn catalog_rejects_mismatched_trials_and_empty_lists() {
        let a = temp_path("mismatch-a");
        let b = temp_path("mismatch-b");
        write_shard(&a, 8, 0..1);
        write_shard(&b, 16, 0..1);
        assert!(matches!(
            StoreCatalog::open([&a, &b]),
            Err(StoreError::InvalidArgument(_))
        ));
        assert!(matches!(
            StoreCatalog::open(Vec::<PathBuf>::new()),
            Err(StoreError::InvalidArgument(_))
        ));
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn duplicate_shard_paths_are_rejected() {
        let a = temp_path("dup");
        write_shard(&a, 4, 0..1);
        assert!(matches!(
            StoreCatalog::open([&a, &a]),
            Err(StoreError::InvalidArgument(_))
        ));
        // A relative respelling of the same file is caught too.
        let relative = {
            let mut p = a.clone();
            let name = p.file_name().unwrap().to_owned();
            p.pop();
            p.push(".");
            p.push(name);
            p
        };
        assert!(matches!(
            StoreCatalog::open([a.clone(), relative]),
            Err(StoreError::InvalidArgument(_))
        ));
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn path_identity_normalises_lexically_when_canonicalize_fails() {
        // Nonexistent paths cannot canonicalise; the lexical fallback
        // must still unify `.` hops and relative respellings.
        let missing = temp_path("never-written");
        let respelled = {
            let mut p = missing.clone();
            let name = p.file_name().unwrap().to_owned();
            p.pop();
            p.push(".");
            p.push(".");
            p.push(name);
            p
        };
        assert_eq!(path_identity(&missing), path_identity(&respelled));
        // `..` hops resolve lexically too.
        let dotted = {
            let mut p = missing.clone();
            let name = p.file_name().unwrap().to_owned();
            p.pop();
            p.push("sub");
            p.push("..");
            p.push(name);
            p
        };
        assert_eq!(path_identity(&missing), path_identity(&dotted));
        // Relative paths resolve against the current directory.
        assert!(path_identity(Path::new("x.clm")).is_absolute());
    }

    #[test]
    fn same_commit_counter_replacement_is_detected_by_the_footer_fingerprint() {
        let a = temp_path("fingerprint");
        // Two commits, two segments.
        let mut writer = StoreWriter::create(&a, 4).unwrap();
        for layer in 0..2 {
            writer
                .append_segment(meta(layer, Peril::Hurricane), &[1.0; 4], &[1.0; 4])
                .unwrap();
            writer.commit().unwrap();
        }
        drop(writer);
        let catalog = StoreCatalog::open([&a]).unwrap();
        assert!(SourceProvider::refresh(&catalog).is_empty());
        let before = catalog.generations();

        // Replaced by a different store that also ends at commit_seq 2
        // but holds three segments: the commit counter alone cannot tell
        // them apart, the footer fingerprint can.
        let mut writer = StoreWriter::create(&a, 4).unwrap();
        writer
            .append_segment(meta(10, Peril::Flood), &[9.0; 4], &[9.0; 4])
            .unwrap();
        writer.commit().unwrap();
        for layer in 11..13 {
            writer
                .append_segment(meta(layer, Peril::Flood), &[9.0; 4], &[9.0; 4])
                .unwrap();
        }
        writer.commit().unwrap();
        drop(writer);
        assert_eq!(StoreReader::peek_commit_seq(&a).unwrap(), 2);

        assert_eq!(SourceProvider::refresh(&catalog), vec![0]);
        assert_eq!(SourceProvider::num_segments(&catalog), 3);
        assert_ne!(catalog.generations(), before, "stamps must retire");
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn refresh_interval_throttles_header_probes() {
        let a = temp_path("throttle");
        write_shard(&a, 4, 0..1);
        let catalog = StoreCatalog::open([&a]).unwrap();
        catalog.set_refresh_interval(Duration::from_secs(3600));

        // First refresh after open always probes.
        assert!(SourceProvider::refresh(&catalog).is_empty());

        // A commit lands, but the throttle window is still open: the
        // probe is skipped and the commit stays invisible for now.
        let mut writer = StoreWriter::open_append(&a).unwrap();
        writer
            .append_segment(meta(9, Peril::Flood), &[1.0; 4], &[1.0; 4])
            .unwrap();
        writer.commit().unwrap();
        drop(writer);
        assert!(SourceProvider::refresh(&catalog).is_empty());
        assert_eq!(SourceProvider::num_segments(&catalog), 1);

        // Dropping the throttle surfaces it on the next refresh.
        catalog.set_refresh_interval(Duration::ZERO);
        assert_eq!(SourceProvider::refresh(&catalog), vec![0]);
        assert_eq!(SourceProvider::num_segments(&catalog), 2);
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn replaced_file_retires_old_generation_stamps() {
        let a = temp_path("epoch-a");
        // Three commits: the original store ends at commit_seq 3.
        let mut writer = StoreWriter::create(&a, 4).unwrap();
        for layer in 0..3 {
            writer
                .append_segment(meta(layer, Peril::Hurricane), &[1.0; 4], &[1.0; 4])
                .unwrap();
            writer.commit().unwrap();
        }
        drop(writer);
        let catalog = StoreCatalog::open([&a]).unwrap();
        let original = catalog.generations();

        // The file is replaced by a different store with fewer commits;
        // the refresh takes the reader's full-reload fallback and the
        // epoch retires the old stamps.
        let mut writer = StoreWriter::create(&a, 4).unwrap();
        writer
            .append_segment(meta(10, Peril::Flood), &[9.0; 4], &[9.0; 4])
            .unwrap();
        writer.commit().unwrap();
        assert_eq!(SourceProvider::refresh(&catalog), vec![0]);

        // The new store is then committed until its counter reaches the
        // old value of 3: the stamp must still differ from the original.
        for layer in 11..13 {
            writer
                .append_segment(meta(layer, Peril::Flood), &[9.0; 4], &[9.0; 4])
                .unwrap();
            writer.commit().unwrap();
        }
        drop(writer);
        assert_eq!(SourceProvider::refresh(&catalog), vec![0]);
        let replaced = catalog.generations();
        assert_ne!(
            original, replaced,
            "a replaced store reaching the old commit counter must not \
             reproduce the old generation stamp"
        );
        catalog.with_source(|snapshot| {
            assert_eq!(snapshot.generations, replaced.as_slice());
        });
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn trial_count_replacement_excludes_the_shard_without_panicking() {
        let a = temp_path("mismatch-live-a");
        let b = temp_path("mismatch-live-b");
        write_shard(&a, 8, 0..2);
        write_shard(&b, 8, 2..4);
        let catalog = StoreCatalog::open([&a, &b]).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let only_a = {
            let solo = StoreCatalog::open([&a]).unwrap();
            solo.with_source(|s| execute(s.source, &query).unwrap())
        };

        // Shard B is replaced by a store with a different trial count —
        // a misconfiguration refresh must survive.  (Two commits, so the
        // cheap header probe sees the counter move.)
        std::fs::remove_file(&b).unwrap();
        let mut writer = StoreWriter::create(&b, 16).unwrap();
        for layer in 2..4 {
            writer
                .append_segment(meta(layer, Peril::Flood), &[9.0; 16], &[9.0; 16])
                .unwrap();
            writer.commit().unwrap();
        }
        drop(writer);
        assert_eq!(SourceProvider::refresh(&catalog), vec![1]);
        assert!(catalog.refresh_error_count() >= 1);
        // The catalog keeps serving shard A; the divergent shard is
        // excluded rather than panicking the batch.
        let served = catalog.with_source(|s| execute(s.source, &query).unwrap());
        assert_eq!(served, only_a);
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn trial_axis_geometry_replacement_degrades_to_empty() {
        let trials = 10;
        let (paths, _) = write_trial_shards("trial-degrade", trials, &[4]);
        let catalog = StoreCatalog::open([&paths[0], &paths[1]]).unwrap();
        let query = QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert!(!catalog
            .with_source(|s| execute(s.source, &query).unwrap())
            .rows
            .is_empty());

        // Window 1's file is replaced by a store with a different
        // window: the trial axis now has a hole, so the catalog serves
        // the empty shape instead of a wrong stitch.
        std::fs::remove_file(&paths[1]).unwrap();
        let mut writer = StoreWriter::create_with(
            &paths[1],
            3,
            StoreOptions {
                trial_offset: 99,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        writer
            .append_segment(meta(0, Peril::Flood), &[1.0; 3], &[1.0; 3])
            .unwrap();
        writer.commit().unwrap();
        writer
            .append_segment(meta(1, Peril::Flood), &[1.0; 3], &[1.0; 3])
            .unwrap();
        writer.commit().unwrap();
        drop(writer);
        assert_eq!(SourceProvider::refresh(&catalog), vec![1]);
        assert!(catalog.refresh_error_count() >= 1);
        catalog.with_source(|snapshot| {
            assert!(
                snapshot.grid.trial_windows.is_empty(),
                "degraded snapshots are unsharded"
            );
            assert!(execute(snapshot.source, &query).unwrap().rows.is_empty());
        });
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    /// A fresh, empty temp directory for discovery tests.
    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "catrisk-catalog-dir-{}-{}",
            std::process::id(),
            name
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_dir_discovers_segment_shards_dropped_later() {
        let dir = temp_dir("discover-segment");
        write_shard(&dir.join("a.clm"), 8, 0..3);
        // Non-store files in the directory are ignored.
        std::fs::write(dir.join("notes.txt"), "not a store").unwrap();

        let catalog = StoreCatalog::open_dir(&dir).unwrap();
        assert_eq!(catalog.num_shards(), 1);
        assert_eq!(catalog.discovered_count(), 0);

        let query = QueryBuilder::new()
            .group_by(Dimension::Layer)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let rows_before = catalog.with_source(|s| execute(s.source, &query).unwrap().rows.len());

        // An ingest pipeline drops a second shard into the directory.
        write_shard(&dir.join("b.clm"), 8, 3..5);
        assert!(SourceProvider::refresh(&catalog).is_empty());
        assert_eq!(catalog.num_shards(), 2);
        assert_eq!(catalog.discovered_count(), 1);
        assert_eq!(
            SourceProvider::drain_discovered(&catalog),
            vec![dir.join("b.clm")]
        );
        assert!(
            SourceProvider::drain_discovered(&catalog).is_empty(),
            "the drain is a take, not a read"
        );
        assert_eq!(
            catalog.with_source(|s| execute(s.source, &query).unwrap().rows.len()),
            rows_before + 2,
            "the discovered shard's layers must be served"
        );
        // Bit-identical to a cold open over both files.
        let cold = StoreCatalog::open([dir.join("a.clm"), dir.join("b.clm")]).unwrap();
        assert_eq!(
            catalog.with_source(|s| execute(s.source, &query).unwrap()),
            cold.with_source(|s| execute(s.source, &query).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_dir_discovers_the_next_trial_window() {
        let trials = 16;
        let (paths, whole) = write_trial_shards("discover-window", trials, &[10]);
        let dir = temp_dir("discover-trial");
        // Start with only window [0, 10): a one-window axis opens as a
        // (trivially) segment-axis catalog.
        std::fs::copy(&paths[0], dir.join("w0.clm")).unwrap();
        let catalog = StoreCatalog::open_dir(&dir).unwrap();
        assert_eq!(catalog.axis(), ShardAxis::Segment);
        assert_eq!(SourceProvider::num_trials(&catalog), 10);

        // The ingest writer drops the next trial window: the catalog
        // reinterprets its single shard as window 0 and grows the axis.
        std::fs::copy(&paths[1], dir.join("w1.clm")).unwrap();
        SourceProvider::refresh(&catalog);
        assert_eq!(catalog.axis(), ShardAxis::Trial);
        assert_eq!(SourceProvider::num_trials(&catalog), trials);
        assert_eq!(catalog.shard_windows(), vec![(0, 10), (10, 16)]);
        assert_eq!(catalog.discovered_count(), 1);

        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.9 })
            .build()
            .unwrap();
        assert_eq!(
            catalog.with_source(|s| execute(s.source, &query).unwrap()),
            execute(&whole, &query).unwrap(),
            "the grown axis must stitch bit-identically to the whole store"
        );
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incompatible_discovered_stores_are_rejected_once() {
        let dir = temp_dir("discover-reject");
        write_shard(&dir.join("a.clm"), 8, 0..2);
        let catalog = StoreCatalog::open_dir(&dir).unwrap();

        // Wrong trial count: can never join the 8-trial union.
        write_shard(&dir.join("bad.clm"), 16, 0..1);
        // Not a store at all: unopenable, retried (not rejected) in case
        // it is still being written.
        std::fs::write(dir.join("torn.clm"), b"garbage").unwrap();

        SourceProvider::refresh(&catalog);
        assert_eq!(catalog.num_shards(), 1);
        assert_eq!(catalog.discovered_count(), 0);
        let errors_after_first = catalog.refresh_error_count();
        assert!(errors_after_first >= 1, "the rejection must be counted");

        // The rejection is remembered: later sweeps do not re-count it.
        SourceProvider::refresh(&catalog);
        assert_eq!(catalog.refresh_error_count(), errors_after_first);
        assert_eq!(catalog.num_shards(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_dir_rejects_storeless_directories() {
        let dir = temp_dir("discover-empty");
        assert!(matches!(
            StoreCatalog::open_dir(&dir),
            Err(StoreError::InvalidArgument(_))
        ));
        assert!(StoreCatalog::open_dir(dir.join("never-made")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discovery_respects_the_refresh_throttle() {
        let dir = temp_dir("discover-throttle");
        write_shard(&dir.join("a.clm"), 8, 0..2);
        let catalog = StoreCatalog::open_dir(&dir).unwrap();
        catalog.set_refresh_interval(Duration::from_secs(3600));
        // First refresh after open always probes (and sweeps).
        SourceProvider::refresh(&catalog);

        write_shard(&dir.join("b.clm"), 8, 2..3);
        SourceProvider::refresh(&catalog);
        assert_eq!(
            catalog.num_shards(),
            1,
            "the sweep must wait out the same throttle as the header probes"
        );
        catalog.set_refresh_interval(Duration::ZERO);
        SourceProvider::refresh(&catalog);
        assert_eq!(catalog.num_shards(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_shard_keeps_serving_its_snapshot() {
        let a = temp_path("unreadable-a");
        write_shard(&a, 4, 0..2);
        let catalog = StoreCatalog::open([&a]).unwrap();
        std::fs::remove_file(&a).unwrap();
        assert!(SourceProvider::refresh(&catalog).is_empty());
        assert_eq!(catalog.refresh_error_count(), 1);
        assert_eq!(SourceProvider::num_segments(&catalog), 2);
        let query = QueryBuilder::new()
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        catalog.with_source(|snapshot| {
            assert!(execute(snapshot.source, &query).is_ok());
        });
    }
}
