//! The serving data plane: how the batch scheduler sees its storage.
//!
//! A [`SourceProvider`] hands every batch a *consistent snapshot* of the
//! data — a [`SourceSnapshot`] bundling the scannable union, the
//! generation stamps the caches key on, and the [`Grid`] that cuts the
//! union into the (segment-range × trial-window) cells the server scans,
//! caches and combines by.  Two providers exist:
//!
//! * any `Arc<S: SegmentSource>` — the static single-store form (an
//!   in-memory `ResultStore`, an immutable `StoreReader`): one shard,
//!   generation pinned at zero, refresh a no-op;
//! * [`StoreCatalog`](crate::catalog::StoreCatalog) — N persistent
//!   stores served as one union, refreshable while ingest writers keep
//!   committing, along either sharding axis (segment or trial).
//!
//! The server is generic over this trait, so the queue / batch-window /
//! fused-scan scheduler is written once and re-proven once.

use std::sync::Arc;

use catrisk_riskquery::{Grid, SegmentSource};

/// One batch's consistent view of the data: the scannable source plus
/// the cache-keying metadata that was captured under the same snapshot.
pub struct SourceSnapshot<'a> {
    /// The union all scans of this batch run over.
    pub source: &'a dyn SegmentSource,
    /// One monotonic stamp per shard, taken under the same snapshot as
    /// `source`: a stamp changes exactly when that shard's visible data
    /// changes, so `(query, generations)` is a sound whole-result cache
    /// key and `(scan spec, cell, generations[cell.slot])` a sound
    /// per-cell partial cache key.
    pub generations: &'a [u64],
    /// How `source` is cut into cells.  A cut grid has one cell per
    /// shard — a trial-sharded catalog cuts the trial axis, a
    /// segment-axis catalog with every shard usable cuts the segment axis
    /// — and cell `j` ([`Cell::slot`](catrisk_riskquery::Cell::slot))
    /// corresponds to `generations[j]`, which is what lets the server
    /// rescan only the cells whose stamp moved.  A single store, and a
    /// degraded catalog whose shard indices no longer line up with its
    /// stamps, are the uncut 1×1 `Grid::default()`.
    pub grid: Grid<'a>,
}

/// Storage behind a [`Server`](crate::server::Server): snapshots,
/// generations, refresh.
pub trait SourceProvider: Send + Sync + 'static {
    /// Trials every scan sees.  This may *grow* over the provider's
    /// lifetime — a directory-watching catalog that adopts the next
    /// trial window appends trials — but never shrinks or reorders, so
    /// any query that was admitted stays valid and the admission path
    /// can read the current value without holding it across the batch.
    /// For a trial-sharded catalog this is the *total* over the shard
    /// windows.
    fn num_trials(&self) -> usize;

    /// Total committed segments currently visible (diagnostics).
    fn num_segments(&self) -> usize;

    /// Picks up newly committed data, if the backing storage supports
    /// it.  Returns the indices of the shards whose visible state
    /// advanced.  The default is the immutable no-op.
    fn refresh(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Store files a watching provider adopted since the last drain (see
    /// [`StoreCatalog::open_dir`](crate::catalog::StoreCatalog::open_dir));
    /// the server turns the drained paths into the `discovered_stores`
    /// counter and `store-discovered` recorder events.  The default (for
    /// providers that never discover anything) is always empty.
    fn drain_discovered(&self) -> Vec<std::path::PathBuf> {
        Vec::new()
    }

    /// Hooks the provider's own metrics into the server's registry, once,
    /// at server construction.  A refreshable catalog records store-open
    /// costs, attaches refresh-latency histograms to its readers and
    /// times its union assembly; the default (for immutable providers with
    /// nothing to measure) is a no-op.
    fn attach_telemetry(&self, _registry: &catrisk_telemetry::Registry) {}

    /// Runs `f` over a consistent snapshot of the data; every field of
    /// the [`SourceSnapshot`] describes the same instant.
    fn with_source<R>(&self, f: impl FnOnce(SourceSnapshot<'_>) -> R) -> R;
}

/// The static single-store provider: one immutable shard at generation
/// zero.
impl<S: SegmentSource + Send + Sync + 'static> SourceProvider for Arc<S> {
    fn num_trials(&self) -> usize {
        SegmentSource::num_trials(&**self)
    }

    fn num_segments(&self) -> usize {
        SegmentSource::num_segments(&**self)
    }

    fn with_source<R>(&self, f: impl FnOnce(SourceSnapshot<'_>) -> R) -> R {
        f(SourceSnapshot {
            source: &**self,
            generations: &[0],
            grid: Grid::default(),
        })
    }
}
