//! # catrisk-riskstore
//!
//! Persistent columnar Year Loss Table stores: a versioned on-disk format
//! so simulation results outlive the process that produced them, the
//! premise of QuPARA-style ad-hoc analysis (an analyst fleet querying
//! previously materialised portfolio results).
//!
//! [`StoreWriter`] spills segments — one YLT tagged with its dimensions —
//! into an append-only file; [`StoreReader`] reopens it, verifies every
//! checksum, `mmap(2)`s the committed loss columns shared and read-only
//! (falling back to one loaded 8-aligned heap region where maps are
//! unavailable — see [`RegionBacking`]), and implements
//! `catrisk-riskquery`'s
//! [`SegmentSource`](catrisk_riskquery::SegmentSource), so the parallel
//! query scan reads column slices borrowed straight from the page cache —
//! no per-query deserialisation of loss pages into fresh `Vec`s, and N
//! serving processes over the same shard files share one set of pages.
//! Segment tags cross that boundary decoded: the reader hands the query
//! engine one [`SegmentMeta`](catrisk_riskquery::SegmentMeta) per segment.
//! The dictionary coding below — per-dimension dictionary pages plus
//! per-segment code columns — is this file format's private detail, known
//! only to the footer codec, the writer's interner and the reader's
//! refresh check; no code outside this crate sees a code.
//!
//! Incremental ingest is first-class: [`StoreWriter::append_segment`] adds
//! segments to an existing store and [`StoreWriter::commit`] publishes
//! them; a reader opening the file mid-write always sees the latest
//! *committed* prefix, never a torn state.
//!
//! ## On-disk layout (format version 1)
//!
//! This section is the format contract: a reader can be reimplemented from
//! it alone.  All integers are **little-endian**; all CRCs are CRC-32
//! (IEEE/zlib polynomial, as produced by [`format::crc32`]).  Loss values
//! are IEEE-754 `f64` stored as their little-endian bit pattern.  The file
//! is **append-only** except for the 128-byte header region, whose two
//! slots are alternately re-patched on each commit.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//! HEADER REGION (128 bytes, fixed, at offset 0): two 64-byte slots.
//!   Readers validate both slots independently and use the valid slot
//!   with the highest commit_seq; the writer of commit N re-writes only
//!   slot N mod 2, so a torn header write can damage at most the stale
//!   slot and the previous commit always survives.  Each slot:
//!      0     8  magic "CRSKYLT1"
//!      8     4  format version (1)
//!     12     4  page_trials: trials per checksummed loss page (> 0)
//!     16     8  num_trials: trials per segment column
//!     24     8  footer_offset: offset of the latest committed footer
//!               (0 = nothing committed yet: a valid, empty store)
//!     32     8  footer_len: byte length of that footer
//!     40     8  commit_seq: monotonic commit counter, echoed by the footer
//!     48     8  trial_offset: first global trial this store covers — the
//!               store holds trials [trial_offset, trial_offset+num_trials)
//!               of a larger logical trial axis (0 = self-contained store;
//!               this byte range was a zeroed reserved field before
//!               trial-axis sharding, so older files decode as offset 0)
//!     56     4  CRC32 of slot bytes [0, 56)
//!     60     4  zero padding
//!
//! SEGMENT DATA (8-aligned, between header region and footer(s))
//!   Per segment, at the 8-aligned offset recorded in its directory entry:
//!     year_loss column:     num_trials × 8 bytes (f64 LE)
//!     max_occ_loss column:  num_trials × 8 bytes, immediately after
//!   Each column is divided into pages of page_trials trials (the last
//!   page holds the remainder); pages have no inline framing — their CRCs
//!   live in the footer directory, keeping the data region raw f64s that
//!   can be mapped and scanned in place.
//!
//! FOOTER (at footer_offset, footer_len bytes)
//!      0     8  footer magic "CRSKFTR1"
//!      8     8  commit_seq (must equal the header's)
//!     16     8  num_segments
//!   4 × dictionary page, dimension order layer, peril, region, lob:
//!            4  count
//!    count × 4  raw values in code order (layer: LayerId.0;
//!               peril/region/lob: the enum discriminants fixed by
//!               footer::encode_peril & co.); a page never repeats
//!               a value — decoding rejects one as corrupt
//!            4  CRC32 of the page (count + values bytes)
//!   4 × code column, same dimension order:
//!   num_segments × 4  per-segment dictionary codes
//!            4  CRC32 of the column bytes
//!   num_segments × directory entry, segment order:
//!            8  data_offset: absolute offset of the year column
//!    ppc  × 4  CRC32 per year-loss page   (ppc = ceil(num_trials /
//!    ppc  × 4  CRC32 per occurrence page         page_trials))
//!            4  CRC32 of all preceding footer bytes
//! ```
//!
//! ## Commit protocol (incremental ingest)
//!
//! [`StoreWriter::append_segment`] writes loss pages at the end of the
//! file, starting *after* the latest committed footer — committed bytes
//! are never overwritten.  [`StoreWriter::commit`] then
//!
//! 1. flushes and syncs the appended data pages,
//! 2. writes a fresh footer (covering *all* committed segments) at the
//!    8-aligned end of file and syncs it,
//! 3. writes a new 64-byte header slot — `footer_offset` / `footer_len` /
//!    `commit_seq` — into slot `commit_seq mod 2` and syncs again.
//!
//! A valid header slot therefore always points at a fully-written footer
//! whose directory references fully-written data pages: the per-page CRCs
//! in the footer are the ingest watermarks.  A reader racing a writer sees
//! either the old commit or the new one — both consistent prefixes.
//! Superseded footers become dead space inside the data region (directory
//! offsets make the gaps transparent); store files are write-mostly, so
//! trading a few hundred bytes per commit for never invalidating a
//! concurrent reader is the right call.  A crash at any point leaves the
//! previous commit reachable: steps 1–2 only append, and a torn slot write
//! in step 3 damages the *stale* slot while the other slot still points at
//! the previous footer.  [`StoreWriter::open_append`] truncates any bytes
//! past the committed footer before resuming.
//!
//! ## Refresh protocol (serving while ingesting)
//!
//! The append-only commit protocol above is what makes *live readers*
//! possible: a [`StoreReader`] opened on commit *N* can later pick up
//! commit *N+k* **in place** with [`StoreReader::refresh`], without
//! invalidating any slice a concurrent scan previously borrowed rules
//! around (refresh takes `&mut self`, so a serving layer swaps behind a
//! lock between scans).  What a reader observes across commits:
//!
//! 1. **Monotonic committed prefixes.**  Every snapshot the reader ever
//!    serves is a prefix of every later one: segment `k` holds the same
//!    losses and the same tags forever, refreshes only append segments
//!    `n..m`.  Dictionaries grow append-only too, so existing dimension
//!    codes never change meaning.
//! 2. **Incremental verification.**  A refresh re-reads the 128-byte
//!    dual-slot header; if the commit counter is unchanged it stops (the
//!    cheap path — [`StoreReader::peek_commit_seq`] exposes the same
//!    probe without a reader).  Otherwise it decodes the new footer,
//!    checks that it extends the observed prefix (dictionary order, code
//!    columns, directory offsets), and loads + CRC-verifies **only the
//!    new segments' pages** — through the same verification path a cold
//!    [`StoreReader::open`] uses.
//! 3. **Generation stamp.**  [`StoreReader::commit_seq`] advances exactly
//!    when the visible data changes.  This is the cache-invalidation
//!    rule serving layers rely on: a per-query result cache keyed on
//!    `(query, commit_seq of every shard)` is hit-correct — a shard's
//!    entries go stale precisely when its refresh observes a new commit,
//!    and never otherwise.
//! 4. **Full-reload fallback.**  If the file no longer extends the
//!    observed prefix (truncated, replaced, rewritten), refresh falls
//!    back to a complete reopen; on any error the reader keeps serving
//!    its current snapshot unchanged.
//!
//! ## Version negotiation
//!
//! The header carries the single format version. Readers reject files
//! whose version differs from [`format::VERSION`] with
//! [`StoreError::UnsupportedVersion`] (and unknown magic with
//! [`StoreError::BadMagic`]) — within a major version the layout above is
//! frozen; evolutions bump the version and must keep decoding version-1
//! files.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod commit;
pub mod footer;
pub mod format;
pub mod ingest;
mod mmap;
pub mod reader;
pub mod writer;

pub use ingest::StreamIngestor;
pub use reader::{RegionBacking, StoreReader};
pub use writer::{StoreOptions, StoreWriter};

/// Errors produced while writing, opening or validating store files.
///
/// Every corruption mode a reader can encounter maps to a typed variant —
/// malformed files never panic.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a store file.
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not supported by this reader.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// A checksummed region (header, footer, dictionary page, code column
    /// or loss page) failed CRC validation.
    ChecksumMismatch {
        /// Which region failed.
        what: String,
    },
    /// The file ends before a region it promises to contain.
    Truncated {
        /// Which region was cut short.
        what: String,
    },
    /// Structurally invalid contents behind valid checksums (impossible
    /// offsets, unknown dimension values, dangling codes...).
    Corrupt(String),
    /// The caller handed the writer inconsistent data (wrong column
    /// length, mismatched layer count...).
    InvalidArgument(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a catrisk store file (magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported store format version {found} (this build reads version {supported})"
            ),
            StoreError::ChecksumMismatch { what } => {
                write!(f, "checksum mismatch in {what}")
            }
            StoreError::Truncated { what } => write!(f, "store file truncated: {what}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
            StoreError::InvalidArgument(msg) => write!(f, "invalid store argument: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;
