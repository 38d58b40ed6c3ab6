//! The sharded store catalog: many persistent YLT stores served as one
//! refreshable logical store, along either sharding axis.
//!
//! A [`StoreCatalog`] owns one verifying
//! [`StoreReader`] per shard file, each
//! behind its own `RwLock` so any number of batch scans share a shard
//! concurrently while a refresh swaps new commits in between scans.  At
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
//! Per batch, [`SourceProvider::with_source`] takes all shard read locks
//! (in shard order, one lock level — no deadlock), builds the zero-copy
//! union (concatenating or checking a few hundred segment tags — cheap
//! enough to redo every batch, so nothing is memoized),
//! and hands the scheduler a [`SourceSnapshot`] whose generation vector
//! is taken *under those same locks* — so the stamps and the data can
//! never disagree.  A stamp is the shard's commit counter tagged with a
//! replacement epoch: an *observed* replacement (one whose commit
//! counter or segment count differs at probe time — stores are
//! append-only by contract, so replacement handling is best-effort
//! recovery, and a replacement that exactly reproduces both is
//! indistinguishable from no change) retires every stamp the old store
//! produced, even if the new store's counter later reaches the old
//! value, so the result cache can never serve across an observed
//! replacement; a replacement that changes the trial count excludes the
//! shard from scans (on the segment axis the rest keep serving; on the
//! trial axis the windows are no longer gap-free, so the catalog serves
//! the empty shape) instead of failing batches.
//!
//! [`StoreCatalog::refresh`] is the serve-while-ingesting path: for each
//! shard it probes the file's committed generation and footer
//! fingerprint from the 128-byte header region alone
//! ([`StoreReader::peek_header`]) and only takes
//! the shard's write lock when a new commit is actually visible, mapping
//! just the newly committed segments (see the riskstore crate's refresh
//! protocol).  A shard whose file is temporarily unreadable keeps serving
//! its current snapshot; the failure is counted, not propagated.

use std::collections::HashSet;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use catrisk_riskquery::{Grid, ResultStore, SegmentSource, ShardedSource, TrialShardedSource};
use catrisk_riskstore::{StoreError, StoreReader};
use catrisk_telemetry::{Histogram, Registry};

use crate::source::{SourceProvider, SourceSnapshot};
use crate::sync::{lock, read_lock, write_lock};
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

/// One shard: a store file, its live reader, and its visible generation.
struct CatalogShard {
    path: PathBuf,
    reader: RwLock<StoreReader>,
    /// Trials this shard held at open — its fixed contribution to the
    /// union (the segment axis shares one value; the trial axis sums
    /// them).  A refresh observing a different count excludes the shard.
    num_trials: usize,
    /// The shard's persisted trial offset at open.
    trial_offset: u64,
    /// The shard's current generation stamp (see [`SEQ_BITS`]), readable
    /// without the lock (kept in sync by `refresh`); the cheap "is a
    /// refresh worth a write lock?" comparand.
    generation: AtomicU64,
    /// Replacement epoch, only ever written under the shard's write
    /// lock, so reading it under a read lock is snapshot-consistent.
    epoch: AtomicU64,
    /// Footer offset observed by the last header probe (`u64::MAX` =
    /// never probed).  Together with the commit counter and footer
    /// length this fingerprints the committed state: every commit
    /// appends a fresh footer at the growing end of file, so any change
    /// a refresh could observe moves at least one of the three.
    seen_footer_offset: AtomicU64,
    /// Footer length observed by the last header probe.
    seen_footer_len: AtomicU64,
}

impl CatalogShard {
    fn new(path: PathBuf, reader: StoreReader) -> CatalogShard {
        CatalogShard {
            num_trials: reader.num_trials(),
            trial_offset: reader.trial_offset(),
            generation: AtomicU64::new(stamp(0, reader.commit_seq())),
            epoch: AtomicU64::new(0),
            seen_footer_offset: AtomicU64::new(u64::MAX),
            seen_footer_len: AtomicU64::new(u64::MAX),
            reader: RwLock::new(reader),
            path,
        }
    }
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

/// The catalog's shard topology — everything that changes when a new
/// store file is adopted by directory discovery, grouped under one
/// `RwLock` so a scan always sees shards, axis and windows from the
/// same instant.  For a catalog opened over a fixed file list the
/// topology never changes after open.
struct Topology {
    /// Shards in serving order: open order for the segment axis, window
    /// order (ascending trial offset) for the trial axis.
    shards: Vec<CatalogShard>,
    /// Trials every scan sees: the shared per-shard count on the segment
    /// axis, the window total on the trial axis.
    num_trials: usize,
    axis: ShardAxis,
    /// The global trial window of each shard, in shard order — only
    /// meaningful (non-empty) on the trial axis.
    windows: Vec<(usize, usize)>,
}

impl Topology {
    /// Detects the sharding axis from the shards' persisted trial
    /// offsets and validates they fit together on it (the rules
    /// documented on [`StoreCatalog::open`]).
    fn build(mut shards: Vec<CatalogShard>) -> std::result::Result<Topology, StoreError> {
        if shards.is_empty() {
            return Err(StoreError::InvalidArgument(
                "a catalog needs at least one store".to_string(),
            ));
        }
        let axis = if shards.iter().all(|shard| shard.trial_offset == 0) {
            ShardAxis::Segment
        } else {
            ShardAxis::Trial
        };
        let mut windows = Vec::new();
        let num_trials = match axis {
            ShardAxis::Segment => {
                let trials = shards[0].num_trials;
                for shard in &shards[1..] {
                    if shard.num_trials != trials {
                        return Err(StoreError::InvalidArgument(format!(
                            "shard `{}` holds {}-trial segments but the catalog's first shard \
                             holds {trials}-trial segments",
                            shard.path.display(),
                            shard.num_trials
                        )));
                    }
                }
                trials
            }
            ShardAxis::Trial => {
                // Window order is offset order, whatever order the shards
                // were listed in.
                shards.sort_by_key(|shard| shard.trial_offset);
                let mut at = 0usize;
                for shard in &shards {
                    if shard.trial_offset != at as u64 {
                        return Err(StoreError::InvalidArgument(format!(
                            "trial shard `{}` covers trials {}..{} but the preceding shards \
                             end at trial {at}; trial windows must tile [0, total) with no \
                             gap or overlap",
                            shard.path.display(),
                            shard.trial_offset,
                            shard.trial_offset + shard.num_trials as u64,
                        )));
                    }
                    windows.push((at, at + shard.num_trials));
                    at += shard.num_trials;
                }
                at
            }
        };
        Ok(Topology {
            shards,
            num_trials,
            axis,
            windows,
        })
    }

    /// Adopts a discovered store into the serving topology, when its
    /// geometry fits: another segment-axis shard sharing the catalog
    /// trial count, or the store whose trial window starts exactly where
    /// the current axis ends (which may convert a single-shard
    /// segment-axis catalog into a trial-axis one — a one-window axis is
    /// both).  Anything else is a topology the catalog cannot serve
    /// exactly, and is rejected.
    fn adopt(&mut self, path: PathBuf, reader: StoreReader) -> std::result::Result<(), StoreError> {
        let trials = reader.num_trials();
        let offset = reader.trial_offset();
        if offset == 0 {
            if self.axis != ShardAxis::Segment {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{}` has trial offset 0, which overlaps the trial-axis \
                     catalog's first window",
                    path.display()
                )));
            }
            if trials != self.num_trials {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{}` holds {trials}-trial segments but the catalog serves \
                     {}-trial segments",
                    path.display(),
                    self.num_trials
                )));
            }
        } else {
            if offset != self.num_trials as u64 {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{}` covers trials {offset}..{} but the catalog's axis ends \
                     at trial {}; a discovered window must start exactly there",
                    path.display(),
                    offset + trials as u64,
                    self.num_trials
                )));
            }
            if self.axis == ShardAxis::Segment && self.shards.len() > 1 {
                return Err(StoreError::InvalidArgument(format!(
                    "store `{}` opens a trial window, but the catalog already unions \
                     {} segment-axis shards",
                    path.display(),
                    self.shards.len()
                )));
            }
            if self.axis == ShardAxis::Segment {
                // One offset-0 shard is equally window [0, n): reinterpret.
                self.axis = ShardAxis::Trial;
                self.windows = vec![(0, self.num_trials)];
            }
            self.windows
                .push((self.num_trials, self.num_trials + trials));
            self.num_trials += trials;
        }
        self.shards.push(CatalogShard::new(path, reader));
        Ok(())
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

/// N persistent stores served as one logical, refreshable store.
pub struct StoreCatalog {
    /// The live shard topology; read by every batch, written only when
    /// discovery adopts a new store.
    topology: RwLock<Topology>,
    /// `Some` when the catalog watches a directory for new stores.
    watch: Mutex<Option<DirWatch>>,
    /// Paths adopted by discovery since the server last drained them
    /// (the server turns the drain into counters + recorder events).
    discovered_queue: Mutex<Vec<PathBuf>>,
    /// Total stores adopted by discovery over the catalog's lifetime.
    discovered: AtomicU64,
    /// Epoch for the probe throttle clock.
    opened: Instant,
    /// Minimum µs between on-disk generation probes (0 = probe on every
    /// [`SourceProvider::refresh`] call).
    probe_interval_micros: AtomicU64,
    /// `opened`-relative µs of the last probe sweep (`u64::MAX` =
    /// never).
    last_probe_micros: AtomicU64,
    refreshes: AtomicU64,
    refresh_errors: AtomicU64,
    /// Set by [`SourceProvider::attach_telemetry`] when the catalog backs
    /// an instrumented server; `None` for a bare catalog.
    telemetry: Mutex<Option<CatalogTelemetry>>,
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
        let topology = read_lock(&self.topology);
        f.debug_struct("StoreCatalog")
            .field("axis", &topology.axis)
            .field("shards", &topology.shards.len())
            .field("trials", &topology.num_trials)
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
        let mut shards = Vec::new();
        let mut identities = std::collections::HashSet::new();
        for path in paths {
            let path = path.as_ref().to_path_buf();
            // A duplicated shard would silently double-count every one of
            // its segments (or serve one trial window twice); reject it
            // (resolving symlinks — and lexically normalising when
            // canonicalisation fails — so `serve x.clm ./x.clm` is caught
            // too).
            if !identities.insert(path_identity(&path)) {
                return Err(StoreError::InvalidArgument(format!(
                    "shard `{}` is listed more than once",
                    path.display()
                )));
            }
            let reader = StoreReader::open(&path)?;
            shards.push(CatalogShard::new(path, reader));
        }
        Ok(StoreCatalog {
            topology: RwLock::new(Topology::build(shards)?),
            watch: Mutex::new(None),
            discovered_queue: Mutex::new(Vec::new()),
            discovered: AtomicU64::new(0),
            opened: Instant::now(),
            probe_interval_micros: AtomicU64::new(0),
            last_probe_micros: AtomicU64::new(u64::MAX),
            refreshes: AtomicU64::new(0),
            refresh_errors: AtomicU64::new(0),
            telemetry: Mutex::new(None),
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
        *lock(&catalog.watch) = Some(DirWatch {
            dir,
            adopted,
            rejected: HashSet::new(),
        });
        Ok(catalog)
    }

    /// The directory this catalog watches for new stores, when opened
    /// via [`StoreCatalog::open_dir`].
    pub fn watched_dir(&self) -> Option<PathBuf> {
        lock(&self.watch).as_ref().map(|watch| watch.dir.clone())
    }

    /// Total store files adopted by directory discovery since open.
    pub fn discovered_count(&self) -> u64 {
        self.discovered.load(Ordering::Relaxed)
    }

    /// One discovery sweep: re-list the watched directory and try to
    /// adopt every store file not yet serving.  No-op without a watch.
    fn discover(&self) {
        let mut watch_slot = lock(&self.watch);
        let Some(watch) = watch_slot.as_mut() else {
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
            let Ok(reader) = StoreReader::open(&path) else {
                continue;
            };
            let mut topology = write_lock(&self.topology);
            match topology.adopt(path.clone(), reader) {
                Ok(()) => {
                    if let Some(telemetry) = lock(&self.telemetry).as_ref() {
                        let shard = topology.shards.last().expect("just adopted");
                        let mut reader = write_lock(&shard.reader);
                        telemetry.store_open.record(reader.open_micros());
                        reader.attach_refresh_histogram(Arc::clone(&telemetry.store_refresh));
                    }
                    drop(topology);
                    watch.adopted.insert(identity);
                    self.discovered.fetch_add(1, Ordering::Relaxed);
                    lock(&self.discovered_queue).push(path);
                }
                Err(_) => {
                    drop(topology);
                    watch.rejected.insert(identity);
                    self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        read_lock(&self.topology).shards.len()
    }

    /// The axis this catalog's shards partition.
    pub fn axis(&self) -> ShardAxis {
        read_lock(&self.topology).axis
    }

    /// The global trial window of each shard, in shard order — empty for
    /// a segment-axis catalog (whose shards all share the full axis).
    pub fn shard_windows(&self) -> Vec<(usize, usize)> {
        read_lock(&self.topology).windows.clone()
    }

    /// The shard files in shard order (window order on the trial axis).
    pub fn shard_paths(&self) -> Vec<PathBuf> {
        read_lock(&self.topology)
            .shards
            .iter()
            .map(|s| s.path.clone())
            .collect()
    }

    /// The current generation vector: one stamp per shard (commit
    /// counter + replacement epoch), changing exactly when that shard's
    /// visible data changes and never repeating across a file
    /// replacement.
    pub fn generations(&self) -> Vec<u64> {
        read_lock(&self.topology)
            .shards
            .iter()
            .map(|s| s.generation.load(Ordering::Acquire))
            .collect()
    }

    /// Per-shard committed segment counts.
    pub fn shard_segments(&self) -> Vec<usize> {
        read_lock(&self.topology)
            .shards
            .iter()
            .map(|s| read_lock(&s.reader).num_segments())
            .collect()
    }

    /// Resident bytes of every shard's loaded loss columns (zero-copy
    /// mapped columns count their mapped extent).
    pub fn memory_bytes(&self) -> usize {
        read_lock(&self.topology)
            .shards
            .iter()
            .map(|s| read_lock(&s.reader).memory_bytes())
            .sum()
    }

    /// Caps how often [`SourceProvider::refresh`] actually probes the
    /// shard files.  The default (zero) probes on every call — one
    /// 128-byte header read per shard per batch, which is fine on a
    /// local filesystem; serving many shards from a networked or
    /// cold-cache filesystem should raise this to bound the per-batch
    /// syscall cost, at the price of commits becoming visible up to the
    /// interval later.
    pub fn set_refresh_interval(&self, interval: Duration) {
        self.probe_interval_micros
            .store(interval.as_micros() as u64, Ordering::Relaxed);
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
        let topology = read_lock(&self.topology);
        topology
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let reader = read_lock(&shard.reader);
                let window = match topology.axis {
                    ShardAxis::Segment => String::new(),
                    ShardAxis::Trial => {
                        let (start, end) = topology.windows[index];
                        format!(" covering trials {start}..{end}")
                    }
                };
                format!(
                    "{}: {} segments x {} trials{window} ({:.1} MB resident), commit {}",
                    shard.path.display(),
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
        read_lock(&self.topology).num_trials
    }

    fn num_segments(&self) -> usize {
        match self.axis() {
            ShardAxis::Segment => self.shard_segments().iter().sum(),
            // The served set is the common committed prefix.
            ShardAxis::Trial => self.shard_segments().into_iter().min().unwrap_or(0),
        }
    }

    /// Probes every shard's committed generation (a 128-byte header
    /// read, no locks) and maps new commits in under the shard's write
    /// lock.  A watching catalog first sweeps its directory for new
    /// store files to adopt (same throttle).  Returns the shards whose
    /// visible state advanced.
    fn refresh(&self) -> Vec<usize> {
        let interval = self.probe_interval_micros.load(Ordering::Relaxed);
        if interval > 0 {
            let now = self.opened.elapsed().as_micros() as u64;
            let last = self.last_probe_micros.load(Ordering::Relaxed);
            if last != u64::MAX && now.saturating_sub(last) < interval {
                return Vec::new();
            }
            // Racing workers may both probe; the store is best-effort.
            self.last_probe_micros.store(now, Ordering::Relaxed);
        }
        self.discover();
        let topology = read_lock(&self.topology);
        let mut advanced = Vec::new();
        for (index, shard) in topology.shards.iter().enumerate() {
            let seen_seq = shard.generation.load(Ordering::Acquire) & SEQ_MASK;
            let header = match StoreReader::peek_header(&shard.path) {
                Ok(header) => header,
                Err(_) => {
                    self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            // Probe against the full committed-state fingerprint, not
            // just the commit counter: a replaced file whose counter
            // happens to match still moves the footer.
            if header.commit_seq & SEQ_MASK == seen_seq
                && header.footer_offset == shard.seen_footer_offset.load(Ordering::Relaxed)
                && header.footer_len == shard.seen_footer_len.load(Ordering::Relaxed)
            {
                continue;
            }
            let mut reader = write_lock(&shard.reader);
            let outcome = reader.refresh();
            // Record the probed fingerprint whatever the outcome, so a
            // change the reader cannot observe (a same-shape
            // replacement) does not re-take the write lock every batch.
            shard
                .seen_footer_offset
                .store(header.footer_offset, Ordering::Relaxed);
            shard
                .seen_footer_len
                .store(header.footer_len, Ordering::Relaxed);
            match outcome {
                Ok(true) => {
                    let new_seq = reader.commit_seq() & SEQ_MASK;
                    let mut epoch = shard.epoch.load(Ordering::Acquire);
                    let replaced = new_seq <= seen_seq;
                    // The shard's geometry (trial count, and on the trial
                    // axis its window offset) is fixed at open; only a
                    // file replacement can change it.
                    let mismatched = reader.num_trials() != shard.num_trials
                        || reader.trial_offset() != shard.trial_offset;
                    if replaced || mismatched {
                        // The file was replaced (the reader took its
                        // full-reload fallback): retire every stamp the
                        // old store ever produced.
                        epoch += 1;
                        shard.epoch.store(epoch, Ordering::Release);
                    }
                    if mismatched {
                        // A replacement changed the shard's geometry: it
                        // cannot join the catalog's scans any more
                        // (with_source excludes it) — surface that.
                        self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    shard
                        .generation
                        .store(stamp(epoch, new_seq), Ordering::Release);
                    self.refreshes.fetch_add(1, Ordering::Relaxed);
                    advanced.push(index);
                }
                Ok(false) => {}
                Err(_) => {
                    // The shard keeps serving its current snapshot.
                    self.refresh_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        advanced
    }

    /// Hooks the catalog into the server's registry: records what each
    /// shard's open cost (already paid at [`StoreCatalog::open`]), wires
    /// every reader's future refreshes into `store_refresh_micros`, and
    /// arms the snapshot-assembly (`stage_schema_memo_micros`) timer.
    fn attach_telemetry(&self, registry: &Registry) {
        let open_hist = registry.histogram(stage::STORE_OPEN);
        let refresh_hist = registry.histogram(stage::STORE_REFRESH);
        for shard in &read_lock(&self.topology).shards {
            let mut reader = write_lock(&shard.reader);
            open_hist.record(reader.open_micros());
            reader.attach_refresh_histogram(Arc::clone(&refresh_hist));
        }
        *lock(&self.telemetry) = Some(CatalogTelemetry {
            assembly: registry.histogram(stage::SCHEMA_MEMO),
            store_open: open_hist,
            store_refresh: refresh_hist,
        });
    }

    fn drain_discovered(&self) -> Vec<PathBuf> {
        std::mem::take(&mut *lock(&self.discovered_queue))
    }

    fn with_source<R>(&self, f: impl FnOnce(SourceSnapshot<'_>) -> R) -> R {
        // The topology read lock pins the shard set for the whole batch
        // (discovery adopts under the write lock); then all shard read
        // locks are taken in shard order and held for the whole batch —
        // refresh takes write locks one shard at a time under the same
        // topology read lock, so there is no ordering cycle.
        let topology = read_lock(&self.topology);
        let guards: Vec<RwLockReadGuard<'_, StoreReader>> = topology
            .shards
            .iter()
            .map(|s| read_lock(&s.reader))
            .collect();
        // Stamps combine the locked reader's commit counter with the
        // shard's replacement epoch — the epoch is only ever written
        // under the shard's write lock, which cannot be held while we
        // hold the read lock, so stamp and data describe exactly this
        // snapshot.
        let generations: Vec<u64> = topology
            .shards
            .iter()
            .zip(&guards)
            .map(|(shard, guard)| stamp(shard.epoch.load(Ordering::Acquire), guard.commit_seq()))
            .collect();
        let assembly: Option<Arc<Histogram>> = lock(&self.telemetry)
            .as_ref()
            .map(|telemetry| Arc::clone(&telemetry.assembly));

        if topology.axis == ShardAxis::Trial {
            // Every window must still be covered by the store registered
            // for it; a geometry-changing replacement leaves a hole in
            // the trial axis, and a partial axis cannot answer exactly.
            let intact = topology.shards.iter().zip(&guards).all(|(shard, guard)| {
                guard.num_trials() == shard.num_trials && guard.trial_offset() == shard.trial_offset
            });
            let refs: Vec<&dyn SegmentSource> = guards
                .iter()
                .map(|guard| &**guard as &dyn SegmentSource)
                .collect();
            let assembly_started = Instant::now();
            let stitched = intact.then(|| TrialShardedSource::new(refs));
            if let Some(histogram) = &assembly {
                histogram.record(assembly_started.elapsed().as_micros() as u64);
            }
            return match stitched {
                // Shards that stopped describing the same segments (a
                // mid-ingest layout divergence) cannot stitch either.
                Some(Ok(stitched)) => f(SourceSnapshot {
                    source: &stitched,
                    generations: &generations,
                    grid: Grid {
                        trial_windows: &topology.windows,
                        ..Grid::default()
                    },
                }),
                _ => self.with_empty(topology.num_trials, &generations, f),
            };
        }

        // A shard whose file was replaced with a different trial count
        // cannot join the scan; exclude it (keep serving the rest)
        // rather than panicking a worker and stranding the batch.
        let usable: Vec<&dyn SegmentSource> = guards
            .iter()
            .filter(|guard| guard.num_trials() == topology.num_trials)
            .map(|guard| &**guard as &dyn SegmentSource)
            .collect();
        match usable.as_slice() {
            [] => {
                // Every shard diverged: serve the empty store shape so
                // queries still answer (with no rows) instead of hanging.
                self.with_empty(topology.num_trials, &generations, f)
            }
            [only] => f(SourceSnapshot {
                source: *only,
                generations: &generations,
                grid: Grid::default(),
            }),
            _ => {
                // Cell `j` is stamped with `generations[j]`, so the
                // shard-indexed ranges are only sound when no shard was
                // excluded above; a degraded union serves uncut.
                let all_usable = usable.len() == guards.len();
                let assembly_started = Instant::now();
                let sharded = ShardedSource::new(usable)
                    .expect("usable shards all share the catalog trial count");
                if let Some(histogram) = &assembly {
                    histogram.record(assembly_started.elapsed().as_micros() as u64);
                }
                let ranges = if all_usable {
                    sharded.segment_ranges()
                } else {
                    Vec::new()
                };
                f(SourceSnapshot {
                    source: &sharded,
                    generations: &generations,
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
        assert_eq!(catalog.shard_paths().len(), 2);
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
        assert_eq!(catalog.watched_dir().as_deref(), Some(dir.as_path()));
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
