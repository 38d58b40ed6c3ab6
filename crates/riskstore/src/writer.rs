//! The buffered, incremental store writer.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use catrisk_engine::ylt::YearLossTable;
use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::{Dictionary, LineOfBusiness, SegmentMeta};

use crate::commit::read_committed_state;
use crate::footer::{encode_layer, encode_lob, encode_peril, encode_region, Footer, SegmentEntry};
use crate::format::{align8, crc32, pages_per_column, Header, DEFAULT_PAGE_TRIALS, HEADER_LEN};
use crate::{Result, StoreError};

/// Tunables for a new store file.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Trials per checksummed loss page (must be positive).
    pub page_trials: u32,
    /// First global trial this store covers: the store holds trials
    /// `[trial_offset, trial_offset + num_trials)` of a larger logical
    /// trial axis.  Zero (the default) marks a self-contained store; a
    /// trial-sharded ingest fleet gives each writer its own offset so a
    /// serving catalog can stitch the shards back together in order.
    /// Fixed at creation, like the page size.
    pub trial_offset: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            page_trials: DEFAULT_PAGE_TRIALS,
            trial_offset: 0,
        }
    }
}

/// Writes segments into a store file, buffered, with explicit commits.
///
/// Appended segments become durable and reader-visible only at
/// [`commit`](StoreWriter::commit) (or [`finish`](StoreWriter::finish),
/// which commits and closes) — see the crate docs for the commit protocol.
/// Between commits the writer holds only the footer state (dictionaries,
/// codes, page checksums) in memory; loss pages go straight to the file.
#[derive(Debug)]
pub struct StoreWriter {
    file: File,
    path: PathBuf,
    num_trials: usize,
    page_trials: u32,
    trial_offset: u64,
    commit_seq: u64,
    /// Next append offset (always ≥ the end of committed bytes).
    end: u64,
    /// Segments included in the last committed footer.
    committed_segments: usize,
    layer_dict: Dictionary<LayerId>,
    peril_dict: Dictionary<Peril>,
    region_dict: Dictionary<Region>,
    lob_dict: Dictionary<LineOfBusiness>,
    codes: [Vec<u32>; 4],
    directory: Vec<SegmentEntry>,
}

impl StoreWriter {
    /// Creates a new store file for `num_trials`-trial segments,
    /// truncating any existing file at `path`.
    pub fn create(path: impl AsRef<Path>, num_trials: usize) -> Result<StoreWriter> {
        Self::create_with(path, num_trials, StoreOptions::default())
    }

    /// Creates a new store file with explicit options.
    pub fn create_with(
        path: impl AsRef<Path>,
        num_trials: usize,
        options: StoreOptions,
    ) -> Result<StoreWriter> {
        if options.page_trials == 0 {
            return Err(StoreError::InvalidArgument(
                "page_trials must be positive".to_string(),
            ));
        }
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let header = Header {
            num_trials: num_trials as u64,
            page_trials: options.page_trials,
            footer_offset: 0,
            footer_len: 0,
            commit_seq: 0,
            trial_offset: options.trial_offset,
        };
        // Both header slots start identical; commits then alternate slots
        // so a torn header write can never lose the store.
        let slot = header.encode();
        file.write_all(&slot)?;
        file.write_all(&slot)?;
        file.sync_data()?;
        Ok(StoreWriter {
            file,
            path,
            num_trials,
            page_trials: options.page_trials,
            trial_offset: options.trial_offset,
            commit_seq: 0,
            end: HEADER_LEN,
            committed_segments: 0,
            layer_dict: Dictionary::new(),
            peril_dict: Dictionary::new(),
            region_dict: Dictionary::new(),
            lob_dict: Dictionary::new(),
            codes: Default::default(),
            directory: Vec::new(),
        })
    }

    /// Reopens an existing store for appending.
    ///
    /// The committed state (header, footer, dictionaries, directory) is
    /// validated and loaded — through the same decode path
    /// [`StoreReader::open`](crate::StoreReader::open) uses — and any
    /// bytes past the committed footer — an interrupted earlier append —
    /// are truncated away before new segments are written.
    pub fn open_append(path: impl AsRef<Path>) -> Result<StoreWriter> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let state = read_committed_state(&mut file)?;

        let mut writer = StoreWriter {
            file,
            path,
            num_trials: state.num_trials,
            page_trials: state.header.page_trials,
            trial_offset: state.header.trial_offset,
            commit_seq: state.header.commit_seq,
            end: state.committed_end,
            committed_segments: 0,
            layer_dict: Dictionary::new(),
            peril_dict: Dictionary::new(),
            region_dict: Dictionary::new(),
            lob_dict: Dictionary::new(),
            codes: Default::default(),
            directory: Vec::new(),
        };
        if let Some(footer) = state.footer {
            writer.load_footer(&footer)?;
            writer.committed_segments = footer.segments.len();
            writer.directory = footer.segments;
        }

        // Drop uncommitted bytes from an interrupted append.
        writer.file.set_len(writer.end)?;
        Ok(writer)
    }

    /// Rebuilds the in-memory dictionaries and code vectors from a decoded
    /// footer (intern order is code order, so codes are preserved).
    fn load_footer(&mut self, footer: &Footer) -> Result<()> {
        for &raw in &footer.dict_values[0] {
            self.layer_dict.intern(crate::footer::decode_layer(raw)?);
        }
        for &raw in &footer.dict_values[1] {
            self.peril_dict.intern(crate::footer::decode_peril(raw)?);
        }
        for &raw in &footer.dict_values[2] {
            self.region_dict.intern(crate::footer::decode_region(raw)?);
        }
        for &raw in &footer.dict_values[3] {
            self.lob_dict.intern(crate::footer::decode_lob(raw)?);
        }
        self.codes = footer.codes.clone();
        Ok(())
    }

    /// Trials every segment must hold.
    pub fn num_trials(&self) -> usize {
        self.num_trials
    }

    /// Trials per checksummed loss page — fixed at store creation.
    pub fn page_trials(&self) -> u32 {
        self.page_trials
    }

    /// First global trial this store covers — fixed at store creation
    /// (zero for a self-contained store).
    pub fn trial_offset(&self) -> u64 {
        self.trial_offset
    }

    /// Total segments appended (committed or not).
    pub fn num_segments(&self) -> usize {
        self.directory.len()
    }

    /// Segments appended since the last commit.
    pub fn uncommitted_segments(&self) -> usize {
        self.directory.len() - self.committed_segments
    }

    /// Commits published so far.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one segment (its two loss columns plus dimension tags),
    /// returning the segment index.  Not visible to readers until
    /// [`commit`](StoreWriter::commit).
    pub fn append_segment(
        &mut self,
        meta: SegmentMeta,
        year: &[f64],
        max_occ: &[f64],
    ) -> Result<usize> {
        if year.len() != self.num_trials || max_occ.len() != self.num_trials {
            return Err(StoreError::InvalidArgument(format!(
                "segment {meta} columns hold {} / {} trials but the store holds \
                 {}-trial segments",
                year.len(),
                max_occ.len(),
                self.num_trials
            )));
        }
        let data_offset = align8(self.end);
        self.file.seek(SeekFrom::Start(self.end))?;
        if data_offset > self.end {
            self.file
                .write_all(&vec![0u8; (data_offset - self.end) as usize])?;
        }

        let year_page_crcs = self.write_column(year)?;
        let occ_page_crcs = self.write_column(max_occ)?;
        self.end = data_offset + 2 * (self.num_trials as u64) * 8;

        self.codes[0].push(self.layer_dict.intern(meta.layer));
        self.codes[1].push(self.peril_dict.intern(meta.peril));
        self.codes[2].push(self.region_dict.intern(meta.region));
        self.codes[3].push(self.lob_dict.intern(meta.lob));
        self.directory.push(SegmentEntry {
            data_offset,
            year_page_crcs,
            occ_page_crcs,
        });
        Ok(self.directory.len() - 1)
    }

    /// Appends one YLT, reading its columns out of the trial outcomes.
    pub fn append_ylt(&mut self, ylt: &YearLossTable, meta: SegmentMeta) -> Result<usize> {
        let mut year = Vec::with_capacity(ylt.num_trials());
        let mut occ = Vec::with_capacity(ylt.num_trials());
        for outcome in ylt.outcomes() {
            year.push(outcome.year_loss);
            occ.push(outcome.max_occurrence_loss);
        }
        self.append_segment(meta, &year, &occ)
    }

    /// Writes one loss column as checksummed pages at the current file
    /// position, returning the per-page CRCs.
    fn write_column(&mut self, column: &[f64]) -> Result<Vec<u32>> {
        let mut crcs = Vec::with_capacity(pages_per_column(self.num_trials, self.page_trials));
        let mut page_bytes = Vec::with_capacity(self.page_trials as usize * 8);
        for page in column.chunks(self.page_trials as usize) {
            page_bytes.clear();
            for &loss in page {
                page_bytes.extend_from_slice(&loss.to_le_bytes());
            }
            crcs.push(crc32(&page_bytes));
            self.file.write_all(&page_bytes)?;
        }
        Ok(crcs)
    }

    /// Publishes every appended segment: syncs the data pages, writes a
    /// footer at the (8-aligned) end of file, syncs it, then re-patches
    /// the header to point at it.  Returns the new commit sequence.
    /// A no-op returning the current sequence when nothing is pending and
    /// a footer already exists.
    pub fn commit(&mut self) -> Result<u64> {
        if self.uncommitted_segments() == 0 && self.commit_seq > 0 {
            return Ok(self.commit_seq);
        }
        self.file.sync_data()?;

        let footer_offset = align8(self.end);
        self.commit_seq += 1;
        let footer = Footer {
            commit_seq: self.commit_seq,
            dict_values: [
                self.layer_dict
                    .values()
                    .iter()
                    .map(|&l| encode_layer(l))
                    .collect(),
                self.peril_dict
                    .values()
                    .iter()
                    .map(|&p| encode_peril(p))
                    .collect(),
                self.region_dict
                    .values()
                    .iter()
                    .map(|&r| encode_region(r))
                    .collect(),
                self.lob_dict
                    .values()
                    .iter()
                    .map(|&l| encode_lob(l))
                    .collect(),
            ],
            codes: self.codes.clone(),
            segments: self.directory.clone(),
        };
        let footer_bytes = footer.encode();
        self.file.seek(SeekFrom::Start(self.end))?;
        if footer_offset > self.end {
            self.file
                .write_all(&vec![0u8; (footer_offset - self.end) as usize])?;
        }
        self.file.write_all(&footer_bytes)?;
        self.file.sync_data()?;

        let header = Header {
            num_trials: self.num_trials as u64,
            page_trials: self.page_trials,
            footer_offset,
            footer_len: footer_bytes.len() as u64,
            commit_seq: self.commit_seq,
            trial_offset: self.trial_offset,
        };
        // Alternate header slots: a crash tearing this write damages only
        // the slot holding the stale twin of the *previous* commit, so a
        // reader always finds a valid header pointing at a valid footer.
        self.file
            .seek(SeekFrom::Start(Header::slot_offset(self.commit_seq)))?;
        self.file.write_all(&header.encode())?;
        self.file.sync_data()?;

        self.end = footer_offset + footer_bytes.len() as u64;
        self.committed_segments = self.directory.len();
        Ok(self.commit_seq)
    }

    /// Commits pending segments and closes the writer, returning the total
    /// number of committed segments.
    pub fn finish(mut self) -> Result<usize> {
        self.commit()?;
        Ok(self.directory.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StoreReader;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "catrisk-writer-{}-{}.clm",
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

    #[test]
    fn writer_validates_inputs() {
        let path = temp_path("validate");
        assert!(matches!(
            StoreWriter::create_with(
                &path,
                4,
                StoreOptions {
                    page_trials: 0,
                    ..StoreOptions::default()
                }
            ),
            Err(StoreError::InvalidArgument(_))
        ));
        let mut writer = StoreWriter::create(&path, 4).unwrap();
        assert!(matches!(
            writer.append_segment(meta(0, Peril::Flood), &[1.0], &[1.0]),
            Err(StoreError::InvalidArgument(_))
        ));
        assert_eq!(writer.num_trials(), 4);
        assert_eq!(writer.num_segments(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_append_truncates_uncommitted_tail() {
        let path = temp_path("truncate");
        let mut writer = StoreWriter::create(&path, 2).unwrap();
        writer
            .append_segment(meta(0, Peril::Hurricane), &[1.0, 2.0], &[1.0, 1.5])
            .unwrap();
        writer.commit().unwrap();
        let committed_len = std::fs::metadata(&path).unwrap().len();
        // Append without committing, then drop the writer (simulating a
        // crash): the bytes past the footer are garbage.
        writer
            .append_segment(meta(1, Peril::Flood), &[3.0, 4.0], &[2.0, 2.0])
            .unwrap();
        drop(writer);
        assert!(std::fs::metadata(&path).unwrap().len() > committed_len);

        let reopened = StoreWriter::open_append(&path).unwrap();
        assert_eq!(reopened.num_segments(), 1);
        assert_eq!(reopened.uncommitted_segments(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed_len);
        drop(reopened);

        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_segments(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_without_changes_is_a_noop() {
        let path = temp_path("noop");
        let mut writer = StoreWriter::create(&path, 1).unwrap();
        writer
            .append_segment(meta(0, Peril::Hurricane), &[1.0], &[1.0])
            .unwrap();
        let seq = writer.commit().unwrap();
        assert_eq!(writer.commit().unwrap(), seq);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(writer.commit().unwrap(), seq);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        let _ = std::fs::remove_file(&path);
    }
}
