//! The verifying, zero-copy store reader — openable once, refreshable
//! forever.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use catrisk_riskquery::{QuerySession, SegmentMeta, SegmentSource};

use crate::commit::{read_committed_state, CommittedState};
use crate::footer::Footer;
use crate::format::{crc32, read_up_to, Header, HEADER_LEN};
use crate::mmap::MapExtent;
use crate::{Result, StoreError};

/// How a [`StoreReader`] backs its loss columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionBacking {
    /// Columns are `mmap(2)`-mapped shared and read-only straight from
    /// the store file: no copy at open, and N serving processes over the
    /// same shard files share one set of page-cache pages.  The default
    /// on platforms that support it (little-endian Linux/macOS).
    #[default]
    Mapped,
    /// Columns are read into a private heap allocation at open — the
    /// pre-mmap behaviour, and the fallback on platforms without shared
    /// maps (or on big-endian hosts, which must byte-swap a copy anyway).
    Loaded,
}

impl RegionBacking {
    /// The backing [`StoreReader::open`] uses on this host: [`Mapped`]
    /// where the platform supports it, overridable to the heap region
    /// with `CATRISK_STORE_BACKING=loaded`.
    ///
    /// [`Mapped`]: RegionBacking::Mapped
    pub fn default_for_host() -> RegionBacking {
        static CHOICE: std::sync::OnceLock<RegionBacking> = std::sync::OnceLock::new();
        *CHOICE.get_or_init(|| {
            if !crate::mmap::supported() {
                return RegionBacking::Loaded;
            }
            match std::env::var("CATRISK_STORE_BACKING").as_deref() {
                Ok("loaded") | Ok("heap") => RegionBacking::Loaded,
                _ => RegionBacking::Mapped,
            }
        })
    }
}

/// One block of loss columns absorbed by an open or a refresh.
#[derive(Debug)]
enum Extent {
    /// A private heap copy, packed segment-major (`[seg_k year | seg_k
    /// occ | ...]`).  The allocation is `u64`s, so reinterpreting any
    /// sub-range as `f64`s is free: same size, same alignment, and every
    /// bit pattern is a valid `f64`.
    Loaded(Vec<u64>),
    /// A shared read-only map of the file, addressed by absolute file
    /// offset.  The writer 8-aligns every segment's `data_offset` and lays
    /// its two columns out contiguously, so each segment is one aligned
    /// slice of the map.  The safety contract — why slicing a shared map
    /// is sound, and how truncation underneath it is handled — is
    /// documented on [`MapExtent`](crate::mmap::MapExtent).
    Mapped(MapExtent),
}

impl Extent {
    /// `values` losses starting at `offset`: a value index into a loaded
    /// extent, an absolute file offset into a mapped one.
    fn losses(&self, offset: u64, values: usize) -> &[f64] {
        let bytes = match self {
            Extent::Loaded(bits) => {
                let start = offset as usize;
                as_bytes(&bits[start..start + values])
            }
            Extent::Mapped(map) => map
                .slice(offset, values * 8)
                .expect("segment spans are bounds-checked at map time"),
        };
        // SAFETY: both arms are 8-aligned — heap `u64`s, or an 8-aligned
        // file offset (validated at map time) into a page-aligned map —
        // and span `values * 8` bytes.  Loaded bits were made native-endian
        // at load, the mapped backing only exists on little-endian hosts,
        // and every u64 bit pattern is a valid f64.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), values) }
    }

    /// Bytes this extent pins: heap bytes, or mapped address space
    /// (mapped pages are file-backed and evictable, so that is an upper
    /// bound on residency).
    fn len(&self) -> usize {
        match self {
            Extent::Loaded(bits) => bits.len() * 8,
            Extent::Mapped(map) => map.len(),
        }
    }
}

/// Byte view of heap values, for checksum verification.
fn as_bytes(bits: &[u64]) -> &[u8] {
    // SAFETY: `u64` has no padding or invalid bit patterns, the slice is
    // valid for `len * 8` bytes, and `u8` has alignment 1.
    unsafe { std::slice::from_raw_parts(bits.as_ptr().cast::<u8>(), bits.len() * 8) }
}

/// Mutable byte view of heap values, for loading from the file.
fn as_bytes_mut(bits: &mut [u64]) -> &mut [u8] {
    // SAFETY: as in `as_bytes`, exclusively borrowed.
    unsafe { std::slice::from_raw_parts_mut(bits.as_mut_ptr().cast::<u8>(), bits.len() * 8) }
}

/// The loss columns of every committed segment: a list of shared
/// [`Extent`]s, one per open or refresh that absorbed segments, and one
/// span per segment naming the extent and offset that hold it.
///
/// Every backing hands the query scan the same thing — a contiguous
/// `&[f64]` pair (year column then occurrence column) per segment,
/// borrowed with no copy and no deserialisation.  A refresh appends *only
/// the newly committed tail* as one more extent, leaving existing extents
/// (and any page-cache pages other serving processes share) untouched.
/// Extents sit behind `Arc`s, so cloning a region copies its span list,
/// never its loss columns.  [`StoreReader`] fixes the backing at open and
/// stages every refresh with the same kind.
#[derive(Debug, Default, Clone)]
struct ColumnRegion {
    extents: Vec<Arc<Extent>>,
    /// Per segment: the extent holding it and its offset there (see
    /// [`Extent::losses`]), bounds-checked at load time.
    spans: Vec<(u32, u64)>,
}

impl ColumnRegion {
    /// One segment's contiguous column pair: `trials` year losses
    /// followed by `trials` occurrence losses.
    fn segment_pair(&self, segment: usize, trials: usize) -> &[f64] {
        let (extent, offset) = self.spans[segment];
        self.extents[extent as usize].losses(offset, 2 * trials)
    }

    /// Bytes this region pins, summed over its extents.
    fn region_bytes(&self) -> usize {
        self.extents.iter().map(|extent| extent.len()).sum()
    }

    /// Appends a staged tail region behind the existing segments (used by
    /// refresh to absorb newly committed segments).
    fn append(&mut self, tail: ColumnRegion) {
        let base = self.extents.len() as u32;
        self.extents.extend(tail.extents);
        self.spans.extend(
            tail.spans
                .into_iter()
                .map(|(extent, offset)| (extent + base, offset)),
        );
    }
}

/// What absorbing a footer into an existing reader concluded.
enum Absorb {
    /// The footer extends this reader's committed prefix; the new
    /// segments were mapped in.
    Applied,
    /// The footer does not extend this reader's state — the file was
    /// replaced or rewritten, so only a full reload can be trusted.
    Diverged,
}

/// Read-only view of the committed prefix of a store file.
///
/// Opening validates everything the queries will touch — header and footer
/// checksums, dictionary pages, code columns, and the CRC of every loss
/// page — so scan-time access is unchecked slicing.  The reader implements
/// [`SegmentSource`]: pass it to `catrisk_riskquery::execute` or wrap it
/// in a [`QuerySession`] via [`StoreReader::session`], and the parallel
/// scan consumes its column slices exactly as it consumes the in-memory
/// `ResultStore`'s.
///
/// ## Refresh: what a reader observes across commits
///
/// A reader is a snapshot of one commit: later commits to the same file
/// stay invisible until [`StoreReader::refresh`] is called.  Because the
/// commit protocol is append-only (committed bytes are never rewritten —
/// see the crate docs), refresh is *incremental*: it re-reads the
/// dual-slot header, and when the commit counter has advanced it decodes
/// the new footer, validates that the footer extends this reader's
/// committed prefix (dictionary order, code columns and segment offsets
/// are append-only), and then loads and CRC-verifies **only the newly
/// committed segments' pages**, mapping them behind the already-loaded
/// columns.  Segment indices are stable across refreshes: refresh `n`
/// segments in, segment `k` still holds the same losses it held before.
/// If the file at the path no longer extends the observed prefix (it was
/// truncated, replaced or rewritten), refresh falls back to a full
/// reload — the reader then reflects whatever store now lives there.
/// Replacement detection is best-effort recovery, not part of the
/// protocol: stores are append-only by contract, and a replacement that
/// exactly reproduces the observed commit counter *and* segment count is
/// indistinguishable from no change, so it will not be observed.
///
/// [`StoreReader::commit_seq`] is the reader's *generation stamp*: it
/// advances exactly when visible data changes, which is what lets a
/// serving layer key per-query result caches on `(query, commit_seq per
/// shard)` and invalidate a shard's entries precisely when its refresh
/// observes a new commit.  [`StoreReader::peek_commit_seq`] probes a
/// file's committed generation from its 128-byte header region alone,
/// without opening, so "is a refresh worth a reader copy?" is a
/// two-sector read.
///
/// A reader is immutable between refreshes, so it is `Send + Sync` and
/// one instance can back any number of concurrent scans — a serving
/// front-end shares a single reader across all of its batch workers
/// without locking.  [`StoreReader::open_shared`] is the convenience
/// constructor for that form; it is the same open path as
/// [`StoreReader::open`] behind an `Arc`.  Refresh needs `&mut self`, so
/// a refreshing server never refreshes a reader a scan may hold: when
/// [`StoreReader::peek_commit_seq`] reports a new commit it clones the
/// reader, refreshes the clone and publishes it, while scans still
/// holding the original keep reading the old commit.  A clone is cheap:
/// the loss columns sit in shared, immutable extents, so it copies the
/// segment directory only, and a refresh appends a new extent instead
/// of touching the old ones.  A clone inherits the refresh histogram.
#[derive(Debug, Default, Clone)]
pub struct StoreReader {
    path: PathBuf,
    num_trials: usize,
    page_trials: u32,
    trial_offset: u64,
    commit_seq: u64,
    metas: Vec<SegmentMeta>,
    /// The absorbed footer's raw dictionary pages, code columns and data
    /// offsets: the prefix fingerprint refresh validates.
    dict_values: [Vec<u32>; 4],
    codes: [Vec<u32>; 4],
    data_offsets: Vec<u64>,
    columns: ColumnRegion,
    /// Backing fixed at open: every refresh stages with the same kind.
    backing: RegionBacking,
    /// One past the highest committed byte this reader has mapped or
    /// loaded — the watermark refresh probes against the live file length
    /// to detect truncation underneath a mapping before touching it.
    committed_end: u64,
    /// Wall-clock microseconds the last full open (or full reload) took.
    open_micros: u64,
    /// Optional latency sink for [`StoreReader::refresh`] calls; attached
    /// by a serving layer, never by the reader itself.
    refresh_histogram: Option<std::sync::Arc<catrisk_telemetry::Histogram>>,
}

impl StoreReader {
    /// Opens and fully validates the committed prefix of a store file,
    /// with the host's default [`RegionBacking`] (mmap where supported).
    pub fn open(path: impl AsRef<Path>) -> Result<StoreReader> {
        Self::open_with_backing(path, RegionBacking::default_for_host())
    }

    /// Opens a store with an explicit column backing.  `Mapped` fails
    /// with an I/O error on platforms without shared-map support; use
    /// [`StoreReader::open`] to take the host default.
    pub fn open_with_backing(
        path: impl AsRef<Path>,
        backing: RegionBacking,
    ) -> Result<StoreReader> {
        let opened_at = std::time::Instant::now();
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let state = read_committed_state(&mut file)?;
        let mut reader = StoreReader {
            path,
            num_trials: state.num_trials,
            page_trials: state.header.page_trials,
            trial_offset: state.header.trial_offset,
            commit_seq: state.header.commit_seq,
            backing,
            committed_end: state.committed_end,
            ..StoreReader::default()
        };
        if let Some(footer) = &state.footer {
            match reader.absorb_footer(&mut file, &state, footer)? {
                Absorb::Applied => {}
                // A fresh reader has no prefix to diverge from.
                Absorb::Diverged => unreachable!("an empty reader accepts any valid footer"),
            }
        }
        reader.open_micros = opened_at.elapsed().as_micros() as u64;
        Ok(reader)
    }

    /// Wall-clock microseconds the open (validation included) took — what a
    /// serving layer records into its `store_open_micros` histogram when it
    /// attaches a freshly opened reader.
    pub fn open_micros(&self) -> u64 {
        self.open_micros
    }

    /// Attaches a latency histogram that every subsequent
    /// [`refresh`](StoreReader::refresh) records its wall-clock microseconds
    /// into.  The attachment survives the full-reload path of refresh.
    pub fn attach_refresh_histogram(
        &mut self,
        histogram: std::sync::Arc<catrisk_telemetry::Histogram>,
    ) {
        self.refresh_histogram = Some(histogram);
    }

    /// Opens a store and wraps the reader for concurrent sharing — the
    /// form a non-refreshing multi-threaded serving front-end consumes.
    /// Identical to [`StoreReader::open`] behind an `Arc`; the open and
    /// verification path is shared, not duplicated.
    pub fn open_shared(path: impl AsRef<Path>) -> Result<std::sync::Arc<StoreReader>> {
        Ok(std::sync::Arc::new(StoreReader::open(path)?))
    }

    /// Reads the committed generation (commit counter) of a store file
    /// from its header region alone — the cheap probe a catalog runs
    /// before deciding whether a [`refresh`](StoreReader::refresh) is
    /// worth running.
    pub fn peek_commit_seq(path: impl AsRef<Path>) -> Result<u64> {
        Ok(Self::peek_header(path)?.commit_seq)
    }

    /// Decodes a store file's 128-byte dual-slot header region without
    /// opening the store.  Beyond the commit counter, the header's
    /// footer offset and length act as a commit *fingerprint*: every
    /// commit appends a fresh footer at the (strictly growing) end of
    /// file, so any change a [`refresh`](StoreReader::refresh) could
    /// observe — including a replacement whose commit counter happens to
    /// match — moves at least one of the three values.
    pub fn peek_header(path: impl AsRef<Path>) -> Result<Header> {
        let mut file = File::open(path.as_ref())?;
        let mut header_bytes = [0u8; HEADER_LEN as usize];
        let got = read_up_to(&mut file, &mut header_bytes)?;
        Header::decode(&header_bytes[..got])
    }

    /// Picks up commits published since this reader's snapshot.
    ///
    /// Returns `Ok(true)` when new state became visible (newly committed
    /// segments were mapped in, or the file was replaced and fully
    /// reloaded) and `Ok(false)` when the committed generation is
    /// unchanged.  See the type-level docs for the exact observation
    /// model.  On error the reader is left exactly as it was — it keeps
    /// serving its current snapshot.
    pub fn refresh(&mut self) -> Result<bool> {
        let started = std::time::Instant::now();
        let result = self.refresh_inner();
        if let Some(histogram) = &self.refresh_histogram {
            histogram.record(started.elapsed().as_micros() as u64);
        }
        result
    }

    fn refresh_inner(&mut self) -> Result<bool> {
        let mut file = File::open(&self.path)?;
        let state = read_committed_state(&mut file)?;
        // Truncation probe: the committed region this reader absorbed must
        // still be present in full.  A shorter file means the append-only
        // contract was violated underneath us (for the mapped backing,
        // faulting the vanished pages in would SIGBUS), so nothing about
        // the current prefix can be trusted or extended: skip straight to
        // a full reload, which re-validates — and, when mapped, re-maps —
        // from scratch.  A shrunk file that no longer decodes surfaces a
        // typed [`StoreError::Truncated`] from `read_committed_state`
        // rather than a fault.
        let shrank = state.file_len < self.committed_end;
        if !shrank
            && state.header.commit_seq == self.commit_seq
            && state.num_trials == self.num_trials
            && state.footer.as_ref().map_or(0, |f| f.segments.len()) == self.metas.len()
        {
            return Ok(false);
        }
        let diverged = shrank
            || state.header.commit_seq < self.commit_seq
            || state.num_trials != self.num_trials
            || state.header.page_trials != self.page_trials
            || state.header.trial_offset != self.trial_offset;
        if !diverged {
            if let Some(footer) = &state.footer {
                if let Absorb::Applied = self.absorb_footer(&mut file, &state, footer)? {
                    return Ok(true);
                }
            }
            // A newer commit with *no* footer cannot extend anything.
        }
        // The file does not extend this reader's prefix: reload from
        // scratch and swap in the result only on success.  The telemetry
        // attachment belongs to the serving layer, not the snapshot, so it
        // carries over to the reloaded reader.
        let mut reloaded = StoreReader::open_with_backing(&self.path, self.backing)?;
        reloaded.refresh_histogram = self.refresh_histogram.take();
        *self = reloaded;
        Ok(true)
    }

    /// Absorbs a decoded footer into this reader: validates that it
    /// extends the already-absorbed prefix, then loads and verifies only
    /// the segments past it.  On [`Absorb::Applied`] the reader reflects
    /// the footer (except `commit_seq`, owned by the caller); on
    /// [`Absorb::Diverged`] and on errors the reader is untouched.
    fn absorb_footer(
        &mut self,
        file: &mut File,
        state: &CommittedState,
        footer: &Footer,
    ) -> Result<Absorb> {
        // Dictionary pages, code columns and the segment directory all
        // grow append-only: anything else inside the known prefix means
        // the file was replaced.
        let known = self.metas.len();
        let extends = footer.segments.len() >= known
            && (0..4).all(|dim| {
                footer.dict_values[dim]
                    .iter()
                    .zip(&self.dict_values[dim])
                    .all(|(new, old)| new == old)
                    && footer.codes[dim][..known] == self.codes[dim][..known]
            })
            && footer.segments[..known]
                .iter()
                .zip(&self.data_offsets)
                .all(|(entry, &offset)| entry.data_offset == offset);
        if !extends {
            return Ok(Absorb::Diverged);
        }
        let metas = footer.metas()?;

        // Load (or map) and CRC-verify the new segments into a staging
        // region, so an I/O error mid-load leaves this reader untouched.
        let tail = load_segment_columns(file, state, footer, known, self.num_trials, self.backing)?;

        self.columns.append(tail);
        self.committed_end = state.committed_end;
        self.metas = metas;
        for dim in 0..4 {
            // A (hand-built) page shorter than the absorbed one keeps the
            // longer prefix to check later footers against.
            if footer.dict_values[dim].len() > self.dict_values[dim].len() {
                self.dict_values[dim] = footer.dict_values[dim].clone();
            }
        }
        self.codes = footer.codes.clone();
        self.data_offsets = footer
            .segments
            .iter()
            .map(|entry| entry.data_offset)
            .collect();
        self.commit_seq = state.header.commit_seq;
        Ok(Absorb::Applied)
    }

    /// Trials every segment holds.
    pub fn num_trials(&self) -> usize {
        self.num_trials
    }

    /// First global trial this store covers: the store holds trials
    /// `[trial_offset, trial_offset + num_trials)` of a larger logical
    /// trial axis.  Zero for a self-contained store (and for every file
    /// written before trial-axis sharding existed).  A serving catalog
    /// uses distinct offsets to detect that its shards partition the
    /// trial axis rather than the segment axis.
    pub fn trial_offset(&self) -> u64 {
        self.trial_offset
    }

    /// Trials per checksummed loss page — fixed at store creation.
    pub fn page_trials(&self) -> u32 {
        self.page_trials
    }

    /// Committed segments visible to this reader.
    pub fn num_segments(&self) -> usize {
        self.metas.len()
    }

    /// True when the store has no committed segments.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The commit sequence this reader observed — the reader's generation
    /// stamp.  Later commits to the same file are invisible (and this
    /// stamp is unchanged) until [`StoreReader::refresh`] picks them up.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// The file this reader opened (and re-reads on refresh).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The dimension tags of one segment.
    pub fn meta(&self, segment: usize) -> &SegmentMeta {
        &self.metas[segment]
    }

    /// All segment tags in segment order.
    pub fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    /// Bytes of loss columns this reader pins: heap bytes for the loaded
    /// backing, mapped address-space bytes for the mmap backing (an upper
    /// bound on residency — mapped pages are file-backed, shared across
    /// processes, and evictable).
    pub fn memory_bytes(&self) -> usize {
        self.columns.region_bytes()
    }

    /// How this reader backs its loss columns ([`RegionBacking::Mapped`]
    /// unless the host forced or defaulted to the heap region).
    pub fn backing(&self) -> RegionBacking {
        self.backing
    }

    /// A batched query session over this reader — the open-from-file
    /// serving path.
    pub fn session(&self) -> QuerySession<'_, StoreReader> {
        QuerySession::new(self)
    }
}

/// Loads (or maps) the loss columns of `footer.segments[from..]` into a
/// fresh staging region, verifying every directory entry's bounds and
/// every page checksum against the footer watermarks.  This is the single
/// checksum verification path — cold opens and incremental refreshes,
/// mapped and loaded backings, all go through it.
///
/// For the mapped backing, verification doubles as the fault-in pass:
/// every page of the new extent is touched while the bounds just probed
/// (directory entries against the observed file length) still hold, so a
/// file honouring the append-only contract can never SIGBUS afterwards —
/// see [`MapExtent`] for the full safety contract.
fn load_segment_columns(
    file: &mut File,
    state: &CommittedState,
    footer: &Footer,
    from: usize,
    trials: usize,
    backing: RegionBacking,
) -> Result<ColumnRegion> {
    let file_len = state.file_len;
    // Validate every directory entry against the real file size before
    // allocating anything: header and footer values are file-controlled,
    // and a corrupt (or hostile, CRCs are forgeable) file must produce a
    // typed error, not a capacity panic or a wild allocation.  The
    // bounds below also cap the region size: per entry, two columns of
    // `trials` f64s must fit inside the file.
    let new_segments = footer.segments.len() - from;
    let segment_bytes = (trials as u64)
        .checked_mul(16)
        .filter(|&bytes| bytes <= file_len)
        .ok_or_else(|| StoreError::Truncated {
            what: format!("a {trials}-trial segment needs more bytes than the file's {file_len}"),
        });
    let segment_bytes = if new_segments == 0 { 0 } else { segment_bytes? };
    for (index, entry) in footer.segments.iter().enumerate().skip(from) {
        if entry.data_offset < HEADER_LEN
            || entry
                .data_offset
                .checked_add(segment_bytes)
                .is_none_or(|end| end > file_len)
        {
            return Err(StoreError::Truncated {
                what: format!(
                    "segment {index} data at offset {} exceeds the file's {file_len} bytes",
                    entry.data_offset
                ),
            });
        }
    }
    // Honest segments are disjoint, so their combined bytes fit in the
    // file; this caps the region allocation at the actual file size.
    if (new_segments as u64)
        .checked_mul(segment_bytes)
        .is_none_or(|total| total > file_len)
    {
        return Err(StoreError::Corrupt(format!(
            "{new_segments} segments of {segment_bytes} bytes each exceed the file's \
             {file_len} bytes"
        )));
    }
    if new_segments == 0 {
        return Ok(ColumnRegion::default());
    }

    let page_bytes = state.header.page_trials as usize * 8;
    let mut spans = Vec::with_capacity(new_segments);
    let extent = match backing {
        RegionBacking::Mapped if trials > 0 => {
            // Mapping hands the scan aligned `&[f64]` views straight into
            // the file, so the alignment the writer guarantees becomes a
            // hard admission requirement here: an unaligned directory
            // offset (a corrupt or foreign file) must be a typed error,
            // not undefined behaviour.
            let mut start = u64::MAX;
            let mut end = 0u64;
            for (index, entry) in footer.segments.iter().enumerate().skip(from) {
                if entry.data_offset % 8 != 0 {
                    return Err(StoreError::Corrupt(format!(
                        "segment {index} data offset {} is not 8-aligned; cannot map",
                        entry.data_offset
                    )));
                }
                start = start.min(entry.data_offset);
                end = end.max(entry.data_offset + segment_bytes);
            }
            // One extent covers every new segment (the writer appends, so
            // the new tail is one contiguous committed range, padding and
            // interleaved footers included).  Bounds were validated above,
            // so `end <= file_len`.
            let extent = MapExtent::map(file, start, end).map_err(StoreError::Io)?;
            for (index, entry) in footer.segments.iter().enumerate().skip(from) {
                let bytes = extent
                    .slice(entry.data_offset, 2 * trials * 8)
                    .expect("entry bounds validated against file length");
                verify_segment_pages(bytes, entry, page_bytes, index)?;
                spans.push((0, entry.data_offset));
            }
            Extent::Mapped(extent)
        }
        // The heap backing — and zero-width segments on either backing,
        // which have nothing to map.
        _ => {
            let mut bits = vec![0u64; new_segments * 2 * trials];
            for (index, entry) in footer.segments.iter().enumerate().skip(from) {
                let start = (index - from) * 2 * trials;
                let segment = &mut bits[start..start + 2 * trials];
                file.seek(SeekFrom::Start(entry.data_offset))?;
                file.read_exact(as_bytes_mut(segment))?;
                verify_segment_pages(as_bytes(segment), entry, page_bytes, index)?;
                spans.push((0, start as u64));
            }
            // The file stores little-endian bits.
            if cfg!(target_endian = "big") {
                bits.iter_mut()
                    .for_each(|value| *value = u64::from_le(*value));
            }
            Extent::Loaded(bits)
        }
    };
    Ok(ColumnRegion {
        extents: vec![Arc::new(extent)],
        spans,
    })
}

/// CRC-verifies one segment's column pair (`trials` year losses then
/// `trials` occurrence losses) against its directory entry's per-page
/// checksums.
fn verify_segment_pages(
    segment_bytes: &[u8],
    entry: &crate::footer::SegmentEntry,
    page_bytes: usize,
    index: usize,
) -> Result<()> {
    let (year_bytes, occ_bytes) = segment_bytes.split_at(segment_bytes.len() / 2);
    for (column, crcs, what) in [
        (year_bytes, &entry.year_page_crcs, "year-loss"),
        (occ_bytes, &entry.occ_page_crcs, "occurrence-loss"),
    ] {
        for (page_index, page) in column.chunks(page_bytes.max(1)).enumerate() {
            if crc32(page) != crcs[page_index] {
                return Err(StoreError::ChecksumMismatch {
                    what: format!("segment {index} {what} page {page_index}"),
                });
            }
        }
    }
    Ok(())
}

// The serving front-end shares one reader across worker and connection
// threads; regress this at compile time rather than at a distant use site.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<StoreReader>();
};

impl SegmentSource for StoreReader {
    fn num_trials(&self) -> usize {
        self.num_trials
    }

    fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    fn year_losses(&self, segment: usize) -> &[f64] {
        &self.columns.segment_pair(segment, self.num_trials)[..self.num_trials]
    }

    fn max_occ_losses(&self, segment: usize) -> &[f64] {
        &self.columns.segment_pair(segment, self.num_trials)[self.num_trials..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{StoreOptions, StoreWriter};
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;
    use catrisk_riskquery::prelude::*;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-reader-{}-{}.clm",
            std::process::id(),
            name
        ));
        path
    }

    fn meta(layer: u32, peril: Peril, region: Region) -> SegmentMeta {
        SegmentMeta::new(LayerId(layer), peril, region, LineOfBusiness::Property)
    }

    #[test]
    fn round_trips_columns_and_dimensions() {
        let path = temp_path("roundtrip");
        let mut writer = StoreWriter::create_with(
            &path,
            3,
            StoreOptions {
                page_trials: 2,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        writer
            .append_segment(
                meta(0, Peril::Hurricane, Region::Europe),
                &[1.0, 0.0, 5.5],
                &[0.5, 0.0, 5.5],
            )
            .unwrap();
        writer
            .append_segment(
                meta(1, Peril::Flood, Region::Japan),
                &[2.0, 4.0, 0.0],
                &[2.0, 3.0, 0.0],
            )
            .unwrap();
        writer.finish().unwrap();

        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_trials(), 3);
        assert_eq!(reader.num_segments(), 2);
        assert_eq!(reader.path(), path.as_path());
        assert_eq!(SegmentSource::year_losses(&reader, 0), &[1.0, 0.0, 5.5]);
        assert_eq!(SegmentSource::max_occ_losses(&reader, 0), &[0.5, 0.0, 5.5]);
        assert_eq!(SegmentSource::year_losses(&reader, 1), &[2.0, 4.0, 0.0]);
        assert_eq!(reader.meta(1).peril, Peril::Flood);
        assert_eq!(reader.meta(1).region, Region::Japan);
        assert_eq!(reader.metas().len(), 2);
        assert!(reader.memory_bytes() >= 2 * 2 * 3 * 8);
        assert!(!reader.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_uncommitted_stores_read_as_empty() {
        let path = temp_path("empty");
        let mut writer = StoreWriter::create(&path, 8).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_segments(), 0);
        assert!(reader.is_empty());
        assert_eq!(reader.num_trials(), 8);

        // Appended but uncommitted segments stay invisible.
        writer
            .append_segment(
                meta(0, Peril::Hurricane, Region::Europe),
                &[0.0; 8],
                &[0.0; 8],
            )
            .unwrap();
        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_segments(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_sees_committed_prefix_while_writer_appends() {
        let path = temp_path("prefix");
        let mut writer = StoreWriter::create(&path, 2).unwrap();
        writer
            .append_segment(
                meta(0, Peril::Hurricane, Region::Europe),
                &[1.0, 2.0],
                &[1.0, 2.0],
            )
            .unwrap();
        writer.commit().unwrap();

        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_segments(), 1);
        let seq = reader.commit_seq();

        // The writer keeps going: appends + a second commit.
        writer
            .append_segment(
                meta(1, Peril::Flood, Region::Japan),
                &[3.0, 4.0],
                &[3.0, 4.0],
            )
            .unwrap();
        writer.commit().unwrap();

        // The old reader's data is untouched (committed bytes are never
        // overwritten); a fresh open sees both segments.
        assert_eq!(SegmentSource::year_losses(&reader, 0), &[1.0, 2.0]);
        let fresh = StoreReader::open(&path).unwrap();
        assert_eq!(fresh.num_segments(), 2);
        assert_eq!(fresh.commit_seq(), seq + 1);
        assert_eq!(SegmentSource::year_losses(&fresh, 1), &[3.0, 4.0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refresh_maps_newly_committed_segments() {
        let path = temp_path("refresh");
        let mut writer = StoreWriter::create_with(
            &path,
            4,
            StoreOptions {
                page_trials: 2,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        writer
            .append_segment(
                meta(0, Peril::Hurricane, Region::Europe),
                &[1.0, 2.0, 3.0, 4.0],
                &[1.0, 1.0, 2.0, 2.0],
            )
            .unwrap();
        writer.commit().unwrap();

        let mut original = StoreReader::open(&path).unwrap();
        assert_eq!(original.num_segments(), 1);
        let seq = original.commit_seq();
        assert_eq!(StoreReader::peek_commit_seq(&path).unwrap(), seq);

        // Nothing new: refresh is a cheap no-op.
        assert!(!original.refresh().unwrap());
        assert_eq!(original.commit_seq(), seq);

        // The commits below are absorbed by a clone; the original must
        // keep serving its own commit, bit for bit.
        let column_bits = |reader: &StoreReader, segments: usize| -> Vec<Vec<u64>> {
            (0..segments)
                .flat_map(|s| {
                    [
                        SegmentSource::year_losses(reader, s),
                        SegmentSource::max_occ_losses(reader, s),
                    ]
                })
                .map(|column| column.iter().map(|l| l.to_bits()).collect())
                .collect()
        };
        let original_bits = column_bits(&original, 1);
        let mut reader = original.clone();

        // Two more commits land — one with a brand-new dictionary value.
        writer
            .append_segment(
                meta(1, Peril::Flood, Region::Japan),
                &[5.0, 6.0, 7.0, 8.0],
                &[5.0, 5.0, 6.0, 6.0],
            )
            .unwrap();
        writer.commit().unwrap();
        writer
            .append_segment(
                meta(2, Peril::Earthquake, Region::NorthAmericaEast),
                &[9.0, 0.0, 1.0, 2.0],
                &[9.0, 0.0, 1.0, 1.0],
            )
            .unwrap();
        writer.commit().unwrap();
        assert_eq!(StoreReader::peek_commit_seq(&path).unwrap(), seq + 2);

        assert!(reader.refresh().unwrap());
        assert_eq!(reader.commit_seq(), seq + 2);
        assert_eq!(reader.num_segments(), 3);
        // Old segments are untouched, new ones are mapped and readable.
        assert_eq!(
            SegmentSource::year_losses(&reader, 0),
            &[1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(
            SegmentSource::year_losses(&reader, 1),
            &[5.0, 6.0, 7.0, 8.0]
        );
        assert_eq!(
            SegmentSource::year_losses(&reader, 2),
            &[9.0, 0.0, 1.0, 2.0]
        );
        assert_eq!(reader.meta(2).peril, Peril::Earthquake);
        assert_eq!(original.commit_seq(), seq);
        assert_eq!(original.num_segments(), 1);
        assert_eq!(column_bits(&original, 1), original_bits);
        assert_eq!(column_bits(&reader, 1), original_bits);

        // The refreshed reader answers queries identically to a fresh one.
        let fresh = StoreReader::open(&path).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.9 })
            .build()
            .unwrap();
        assert_eq!(
            execute(&reader, &query).unwrap(),
            execute(&fresh, &query).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refresh_reloads_a_replaced_file() {
        let path = temp_path("replaced");
        let mut writer = StoreWriter::create(&path, 2).unwrap();
        writer
            .append_segment(
                meta(0, Peril::Hurricane, Region::Europe),
                &[1.0, 2.0],
                &[1.0, 2.0],
            )
            .unwrap();
        writer.commit().unwrap();
        let mut reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_segments(), 1);
        drop(writer);

        // A different store is written over the same path: more commits
        // (so the commit counter moves forward) and different contents.
        let mut writer = StoreWriter::create(&path, 2).unwrap();
        for layer in 0..3 {
            writer
                .append_segment(
                    meta(layer, Peril::Flood, Region::Japan),
                    &[9.0, 9.0],
                    &[9.0, 9.0],
                )
                .unwrap();
            writer.commit().unwrap();
        }
        drop(writer);

        assert!(reader.refresh().unwrap());
        assert_eq!(reader.num_segments(), 3);
        assert_eq!(reader.meta(0).peril, Peril::Flood);
        assert_eq!(SegmentSource::year_losses(&reader, 0), &[9.0, 9.0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_refresh_keeps_the_old_snapshot() {
        let path = temp_path("failed-refresh");
        let mut writer = StoreWriter::create(&path, 2).unwrap();
        writer
            .append_segment(
                meta(0, Peril::Hurricane, Region::Europe),
                &[1.0, 2.0],
                &[1.0, 2.0],
            )
            .unwrap();
        writer.commit().unwrap();
        let mut reader = StoreReader::open(&path).unwrap();
        drop(writer);

        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(reader.refresh().is_err(), "the file is gone");
        // The snapshot still serves.
        assert_eq!(reader.num_segments(), 1);
        assert_eq!(SegmentSource::year_losses(&reader, 0), &[1.0, 2.0]);

        // The file comes back (say, a mount flap): refresh recovers.
        std::fs::write(&path, &bytes).unwrap();
        assert!(!reader.refresh().unwrap(), "same commit, nothing new");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_reader_scans_concurrently() {
        let path = temp_path("shared");
        let mut writer = StoreWriter::create(&path, 16).unwrap();
        for s in 0..6u32 {
            let losses: Vec<f64> = (0..16).map(|t| (s * 16 + t) as f64).collect();
            writer
                .append_segment(
                    meta(s, Peril::ALL[s as usize % Peril::ALL.len()], Region::Europe),
                    &losses,
                    &losses,
                )
                .unwrap();
        }
        writer.finish().unwrap();

        let reader = StoreReader::open_shared(&path).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.9 })
            .build()
            .unwrap();
        let expected = execute(&*reader, &query).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = std::sync::Arc::clone(&reader);
                let query = query.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    assert_eq!(execute(&*reader, &query).unwrap(), expected);
                });
            }
        });
        let _ = std::fs::remove_file(&path);
    }

    /// Writes a small multi-commit store and returns its path.
    fn build_store(name: &str, trials: usize, commits: usize) -> PathBuf {
        let path = temp_path(name);
        let mut writer = StoreWriter::create_with(
            &path,
            trials,
            StoreOptions {
                page_trials: 2,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for c in 0..commits as u32 {
            let losses: Vec<f64> = (0..trials)
                .map(|t| (c as usize * trials + t) as f64)
                .collect();
            writer
                .append_segment(
                    meta(c, Peril::ALL[c as usize % Peril::ALL.len()], Region::Europe),
                    &losses,
                    &losses,
                )
                .unwrap();
            writer.commit().unwrap();
        }
        path
    }

    #[test]
    fn mapped_and_loaded_backings_are_bit_identical() {
        let path = build_store("backing-equivalence", 5, 4);
        let loaded = StoreReader::open_with_backing(&path, RegionBacking::Loaded).unwrap();
        assert_eq!(loaded.backing(), RegionBacking::Loaded);
        if !crate::mmap::supported() {
            let _ = std::fs::remove_file(&path);
            return;
        }
        let mapped = StoreReader::open_with_backing(&path, RegionBacking::Mapped).unwrap();
        assert_eq!(mapped.backing(), RegionBacking::Mapped);
        assert_eq!(mapped.num_segments(), loaded.num_segments());
        for segment in 0..loaded.num_segments() {
            // Bit-identical column views, not just numerically equal.
            let bits = |losses: &[f64]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(SegmentSource::year_losses(&mapped, segment)),
                bits(SegmentSource::year_losses(&loaded, segment))
            );
            assert_eq!(
                bits(SegmentSource::max_occ_losses(&mapped, segment)),
                bits(SegmentSource::max_occ_losses(&loaded, segment))
            );
            assert_eq!(mapped.meta(segment), loaded.meta(segment));
        }

        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .aggregate(Aggregate::Tvar { level: 0.9 })
            .build()
            .unwrap();
        assert_eq!(
            execute(&mapped, &query).unwrap(),
            execute(&loaded, &query).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_refresh_maps_only_new_segments() {
        if !crate::mmap::supported() {
            return;
        }
        let path = build_store("mapped-refresh", 4, 1);
        let mut reader = StoreReader::open_with_backing(&path, RegionBacking::Mapped).unwrap();
        let extents_after_open = reader.columns.extents.len();
        assert_eq!(extents_after_open, 1);

        let mut writer = StoreWriter::open_append(&path).unwrap();
        writer
            .append_segment(
                meta(9, Peril::Flood, Region::Japan),
                &[5.0, 6.0, 7.0, 8.0],
                &[5.0, 5.0, 6.0, 6.0],
            )
            .unwrap();
        writer.commit().unwrap();

        assert!(reader.refresh().unwrap());
        // The already-mapped prefix is untouched; the new tail is one
        // additional extent.
        assert_eq!(reader.columns.extents.len(), extents_after_open + 1);
        assert_eq!(reader.num_segments(), 2);
        assert_eq!(
            SegmentSource::year_losses(&reader, 1),
            &[5.0, 6.0, 7.0, 8.0]
        );
        // Results match a cold open of the same commit bit-for-bit.
        let fresh = StoreReader::open(&path).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        assert_eq!(
            execute(&reader, &query).unwrap(),
            execute(&fresh, &query).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_underneath_surfaces_typed_error() {
        let path = build_store("truncated-under", 4, 2);
        let mut reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_segments(), 2);

        // The file shrinks underneath the reader — an append-only
        // violation.  The refresh probe must report a typed error (here
        // the committed-state decode finds the footer past EOF), never
        // fault, and the snapshot keeps serving previously verified data.
        let committed_len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(committed_len - 16).unwrap();
        drop(file);
        match reader.refresh() {
            Err(StoreError::Truncated { .. }) | Err(StoreError::ChecksumMismatch { .. }) => {}
            other => panic!("expected a typed truncation error, got {other:?}"),
        }
        assert_eq!(reader.num_segments(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn queries_run_against_the_reader() {
        let path = temp_path("query");
        let mut writer = StoreWriter::create(&path, 4).unwrap();
        writer
            .append_segment(
                meta(0, Peril::Hurricane, Region::Europe),
                &[1.0, 0.0, 4.0, 2.0],
                &[1.0, 0.0, 3.0, 2.0],
            )
            .unwrap();
        writer
            .append_segment(
                meta(1, Peril::Flood, Region::Europe),
                &[0.0, 5.0, 1.0, 3.0],
                &[0.0, 4.0, 1.0, 3.0],
            )
            .unwrap();
        writer.finish().unwrap();

        let reader = StoreReader::open(&path).unwrap();
        let query = QueryBuilder::new()
            .group_by(Dimension::Peril)
            .aggregate(Aggregate::Mean)
            .build()
            .unwrap();
        let result = execute(&reader, &query).unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].values[0], AggValue::Scalar(7.0 / 4.0));
        assert_eq!(result.rows[1].values[0], AggValue::Scalar(9.0 / 4.0));

        // And through the batched session facade.
        let batched = reader.session().run(std::slice::from_ref(&query)).unwrap();
        assert_eq!(batched[0], result);
        let _ = std::fs::remove_file(&path);
    }
}
