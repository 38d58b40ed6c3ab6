//! The buffered, incremental store writer.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use catrisk_engine::ylt::YearLossTable;
use catrisk_riskquery::SegmentMeta;

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

/// One dimension's dictionary page under construction: raw dimension
/// values in order of first appearance, each coded by its position.
#[derive(Debug, Default)]
struct Dictionary {
    values: Vec<u32>,
    codes: HashMap<u32, u32>,
}

impl Dictionary {
    /// Returns the code of `value`, appending it to the page if new.
    fn intern(&mut self, value: u32) -> u32 {
        *self.codes.entry(value).or_insert_with(|| {
            self.values.push(value);
            u32::try_from(self.values.len() - 1).expect("dictionary overflow")
        })
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
    /// Dictionary pages, dimension order layer / peril / region / lob.
    dicts: [Dictionary; 4],
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
            dicts: Default::default(),
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
            dicts: Default::default(),
            codes: Default::default(),
            directory: Vec::new(),
        };
        if let Some(footer) = state.footer {
            // Every tag must decode, exactly as for a reader.
            footer.metas()?;
            // Decoding rejected repeated values, so re-interning each page
            // in order reproduces its codes exactly.
            for (dict, values) in writer.dicts.iter_mut().zip(&footer.dict_values) {
                for &value in values {
                    dict.intern(value);
                }
            }
            writer.codes = footer.codes;
            writer.committed_segments = footer.segments.len();
            writer.directory = footer.segments;
        }

        // Drop uncommitted bytes from an interrupted append.
        writer.file.set_len(writer.end)?;
        Ok(writer)
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

        let raw = [
            encode_layer(meta.layer),
            encode_peril(meta.peril),
            encode_region(meta.region),
            encode_lob(meta.lob),
        ];
        for ((codes, dict), value) in self.codes.iter_mut().zip(&mut self.dicts).zip(raw) {
            codes.push(dict.intern(value));
        }
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
            dict_values: self.dicts.each_ref().map(|dict| dict.values.clone()),
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
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;
    use catrisk_riskquery::LineOfBusiness;

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

    #[test]
    fn dictionary_codes_values_by_first_appearance() {
        let mut dict = Dictionary::default();
        assert_eq!((dict.intern(7), dict.intern(3), dict.intern(7)), (0, 1, 0));
        assert_eq!(dict.values, vec![7, 3]);
    }

    /// Republishes the committed footer of `path` with its peril page and
    /// code column replaced, as one further commit: a CRC-valid footer the
    /// writer itself would never produce.
    fn recommit_with_perils(path: &Path, page: Vec<u32>, codes: Vec<u32>) {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let state = read_committed_state(&mut file).unwrap();
        let mut footer = state.footer.unwrap();
        footer.commit_seq += 1;
        footer.dict_values[1] = page;
        footer.codes[1] = codes;
        let bytes = footer.encode();
        let offset = align8(state.committed_end);
        file.set_len(offset).unwrap();
        file.seek(SeekFrom::Start(offset)).unwrap();
        file.write_all(&bytes).unwrap();
        let header = Header {
            footer_offset: offset,
            footer_len: bytes.len() as u64,
            commit_seq: footer.commit_seq,
            ..state.header
        };
        file.seek(SeekFrom::Start(Header::slot_offset(header.commit_seq)))
            .unwrap();
        file.write_all(&header.encode()).unwrap();
    }

    fn repeats_a_value<T>(result: Result<T>) -> bool {
        matches!(result, Err(StoreError::Corrupt(message)) if message.contains("repeats a value"))
    }

    #[test]
    fn a_repeated_dictionary_value_is_corrupt_on_every_open_path() {
        let path = temp_path("repeated-dict");
        let mut writer = StoreWriter::create(&path, 2).unwrap();
        writer
            .append_segment(meta(0, Peril::Hurricane), &[1.0, 2.0], &[1.0, 1.5])
            .unwrap();
        writer
            .append_segment(meta(1, Peril::Flood), &[3.0, 4.0], &[2.0, 2.0])
            .unwrap();
        writer.commit().unwrap();
        drop(writer);
        let mut reader = StoreReader::open(&path).unwrap();

        // Hurricane twice: re-interning the page would shorten it to
        // [HU, FL], so an append's next commit would leave code 2 past
        // its end and the file unreadable.
        let hurricane = encode_peril(Peril::Hurricane);
        let page = vec![hurricane, hurricane, encode_peril(Peril::Flood)];
        recommit_with_perils(&path, page, vec![0, 2]);

        assert!(repeats_a_value(StoreWriter::open_append(&path)));
        assert!(repeats_a_value(StoreReader::open(&path)));
        assert!(repeats_a_value(reader.refresh()));
        assert_eq!(reader.num_segments(), 2, "the old snapshot keeps serving");
        let _ = std::fs::remove_file(&path);
    }
}
