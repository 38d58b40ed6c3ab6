//! Footer encoding and decoding: dictionary pages, per-segment code
//! vectors, and the checksummed segment directory (the per-block
//! watermarks).
//!
//! Dictionary coding is this file format's private detail: readers of
//! the crate see decoded [`SegmentMeta`] tags ([`Footer::metas`]), never
//! codes.

use std::collections::HashSet;

use catrisk_eventgen::peril::{Peril, Region};
use catrisk_finterms::layer::LayerId;
use catrisk_riskquery::{LineOfBusiness, SegmentMeta};

use crate::format::{crc32, Decoder, Encoder, FOOTER_MAGIC};
use crate::{Result, StoreError};

/// Directory entry of one committed segment: where its loss columns live
/// and the checksum of every trial-block page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Absolute file offset of the segment's year-loss column (the
    /// occurrence column follows it immediately).
    pub data_offset: u64,
    /// CRC32 of each year-loss page, in page order.
    pub year_page_crcs: Vec<u32>,
    /// CRC32 of each occurrence-loss page, in page order.
    pub occ_page_crcs: Vec<u32>,
}

/// The decoded footer: everything a reader needs beyond the header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footer {
    /// Commit counter; must echo the header's.
    pub commit_seq: u64,
    /// Dictionary entries (raw `u32` dimension values) in code order, one
    /// list per dimension; no list repeats a value.
    pub dict_values: [Vec<u32>; 4],
    /// Per-segment dictionary codes, one vector per dimension.
    pub codes: [Vec<u32>; 4],
    /// Per-segment directory in segment order.
    pub segments: Vec<SegmentEntry>,
}

impl Footer {
    /// Encodes the footer, including its trailing CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_bytes(&FOOTER_MAGIC);
        enc.put_u64(self.commit_seq);
        enc.put_u64(self.segments.len() as u64);
        for values in &self.dict_values {
            let mut page = Encoder::new();
            page.put_u32(values.len() as u32);
            for &value in values {
                page.put_u32(value);
            }
            let crc = crc32(page.bytes());
            enc.put_bytes(page.bytes());
            enc.put_u32(crc);
        }
        for codes in &self.codes {
            let mut page = Encoder::new();
            for &code in codes {
                page.put_u32(code);
            }
            let crc = crc32(page.bytes());
            enc.put_bytes(page.bytes());
            enc.put_u32(crc);
        }
        for segment in &self.segments {
            enc.put_u64(segment.data_offset);
            for &crc in segment.year_page_crcs.iter().chain(&segment.occ_page_crcs) {
                enc.put_u32(crc);
            }
        }
        let crc = crc32(enc.bytes());
        enc.put_u32(crc);
        enc.into_bytes()
    }

    /// Decodes and fully validates a footer region.
    ///
    /// `expected_commit_seq` is the header's commit counter — a mismatch
    /// means the header points at a footer from a different commit, i.e.
    /// the file is corrupt.  `pages_per_column` is derived from the
    /// header's trial counts and fixes the directory entry size.
    pub fn decode(
        bytes: &[u8],
        expected_commit_seq: u64,
        pages_per_column: usize,
    ) -> Result<Footer> {
        if bytes.len() < 4 {
            return Err(StoreError::Truncated {
                what: format!("footer: region holds only {} bytes", bytes.len()),
            });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != stored {
            return Err(StoreError::ChecksumMismatch {
                what: "footer".to_string(),
            });
        }

        let mut dec = Decoder::new(body, "footer");
        let magic: [u8; 8] = dec.take(8)?.try_into().unwrap();
        if magic != FOOTER_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "footer magic mismatch: found {magic:02x?}"
            )));
        }
        let commit_seq = dec.get_u64()?;
        if commit_seq != expected_commit_seq {
            return Err(StoreError::Corrupt(format!(
                "footer commit {commit_seq} does not match header commit {expected_commit_seq}"
            )));
        }
        let num_segments = usize::try_from(dec.get_u64()?)
            .map_err(|_| StoreError::Corrupt("footer: absurd segment count".to_string()))?;
        // Counts come from the file; bound every one against the bytes the
        // region can actually hold *before* allocating, so a hostile or
        // absurd (but CRC-consistent) footer yields a typed error rather
        // than a capacity panic or an enormous allocation.  Each segment
        // owns at least 16 bytes of code columns.
        if num_segments > body.len() / 16 {
            return Err(StoreError::Corrupt(format!(
                "footer: {} segments cannot fit in a {}-byte footer",
                num_segments,
                body.len()
            )));
        }

        let mut dict_values: [Vec<u32>; 4] = Default::default();
        for (dim, slot) in dict_values.iter_mut().enumerate() {
            let start = dec.position();
            let count = dec.get_u32()? as usize;
            if count > (body.len() - dec.position()) / 4 {
                return Err(StoreError::Corrupt(format!(
                    "footer: dictionary page {dim} claims {count} entries, more than the \
                     region holds"
                )));
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(dec.get_u32()?);
            }
            let page_bytes = &dec.consumed()[start..];
            let stored = dec.get_u32()?;
            if crc32(page_bytes) != stored {
                return Err(StoreError::ChecksumMismatch {
                    what: format!("dictionary page {dim}"),
                });
            }
            // A repeated value would make two codes mean one tag, and a
            // writer re-interning the page on append would shorten it.
            let mut seen = HashSet::with_capacity(count);
            if let Some(code) = values.iter().position(|&value| !seen.insert(value)) {
                return Err(StoreError::Corrupt(format!(
                    "footer dictionary {dim} repeats a value at code {code}"
                )));
            }
            *slot = values;
        }

        let mut codes: [Vec<u32>; 4] = Default::default();
        for (dim, slot) in codes.iter_mut().enumerate() {
            let start = dec.position();
            let mut column = Vec::with_capacity(num_segments);
            for _ in 0..num_segments {
                column.push(dec.get_u32()?);
            }
            let page_bytes = &dec.consumed()[start..];
            let stored = dec.get_u32()?;
            if crc32(page_bytes) != stored {
                return Err(StoreError::ChecksumMismatch {
                    what: format!("code column {dim}"),
                });
            }
            for &code in &column {
                if code as usize >= dict_values[dim].len() {
                    return Err(StoreError::Corrupt(format!(
                        "code column {dim}: code {code} exceeds dictionary of {}",
                        dict_values[dim].len()
                    )));
                }
            }
            *slot = column;
        }

        // The directory's size is fixed by (num_segments, pages_per_column);
        // verify it fits before the per-entry `with_capacity` allocations.
        let entry_bytes = pages_per_column
            .checked_mul(8)
            .and_then(|crcs| crcs.checked_add(8));
        let directory_bytes = entry_bytes.and_then(|e| e.checked_mul(num_segments));
        match directory_bytes {
            Some(required) if required <= body.len() - dec.position() => {}
            _ => {
                return Err(StoreError::Truncated {
                    what: format!(
                        "footer directory: {num_segments} segments x {pages_per_column} pages \
                         per column exceed the region's {} remaining bytes",
                        body.len() - dec.position()
                    ),
                });
            }
        }

        let mut segments = Vec::with_capacity(num_segments);
        for _ in 0..num_segments {
            let data_offset = dec.get_u64()?;
            let mut year_page_crcs = Vec::with_capacity(pages_per_column);
            for _ in 0..pages_per_column {
                year_page_crcs.push(dec.get_u32()?);
            }
            let mut occ_page_crcs = Vec::with_capacity(pages_per_column);
            for _ in 0..pages_per_column {
                occ_page_crcs.push(dec.get_u32()?);
            }
            segments.push(SegmentEntry {
                data_offset,
                year_page_crcs,
                occ_page_crcs,
            });
        }
        if dec.position() != body.len() {
            return Err(StoreError::Corrupt(format!(
                "footer: {} trailing bytes after the segment directory",
                body.len() - dec.position()
            )));
        }

        Ok(Footer {
            commit_seq,
            dict_values,
            codes,
            segments,
        })
    }

    /// The decoded dimension tags of every segment, in segment order.
    /// Every dictionary value must decode, referenced or not.
    ///
    /// # Panics
    /// If a code column is shorter than the directory or a code points
    /// past its dictionary page — never for a footer [`Footer::decode`]
    /// returned, which rejects both.
    pub fn metas(&self) -> Result<Vec<SegmentMeta>> {
        fn decode_page<T>(raw: &[u32], decode: fn(u32) -> Result<T>) -> Result<Vec<T>> {
            raw.iter().map(|&value| decode(value)).collect()
        }
        let layers = decode_page(&self.dict_values[0], decode_layer)?;
        let perils = decode_page(&self.dict_values[1], decode_peril)?;
        let regions = decode_page(&self.dict_values[2], decode_region)?;
        let lobs = decode_page(&self.dict_values[3], decode_lob)?;
        Ok((0..self.segments.len())
            .map(|segment| {
                let code = |dim: usize| self.codes[dim][segment] as usize;
                SegmentMeta::new(
                    layers[code(0)],
                    perils[code(1)],
                    regions[code(2)],
                    lobs[code(3)],
                )
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Dimension value codec
// ---------------------------------------------------------------------------

/// Encodes a layer id as its raw `u32`.
pub fn encode_layer(layer: LayerId) -> u32 {
    layer.0
}

/// Encodes a peril as its (stable, documented) enum discriminant.
pub fn encode_peril(peril: Peril) -> u32 {
    peril as u32
}

/// Encodes a region as its enum discriminant.
pub fn encode_region(region: Region) -> u32 {
    region as u32
}

/// Encodes a line of business as its enum discriminant.
pub fn encode_lob(lob: LineOfBusiness) -> u32 {
    lob as u32
}

/// Decodes a layer id (any `u32` is valid).
pub fn decode_layer(raw: u32) -> Result<LayerId> {
    Ok(LayerId(raw))
}

/// Decodes a peril discriminant written by [`encode_peril`].
pub fn decode_peril(raw: u32) -> Result<Peril> {
    Peril::ALL
        .into_iter()
        .find(|&p| p as u32 == raw)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown peril code {raw} in dictionary")))
}

/// Decodes a region discriminant written by [`encode_region`].
pub fn decode_region(raw: u32) -> Result<Region> {
    Region::ALL
        .into_iter()
        .find(|&r| r as u32 == raw)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown region code {raw} in dictionary")))
}

/// Decodes a line-of-business discriminant written by [`encode_lob`].
pub fn decode_lob(raw: u32) -> Result<LineOfBusiness> {
    LineOfBusiness::ALL
        .into_iter()
        .find(|&l| l as u32 == raw)
        .ok_or_else(|| {
            StoreError::Corrupt(format!("unknown line-of-business code {raw} in dictionary"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Footer {
        Footer {
            commit_seq: 3,
            dict_values: [
                vec![0, 1],
                vec![encode_peril(Peril::Hurricane), encode_peril(Peril::Flood)],
                vec![encode_region(Region::Europe)],
                vec![encode_lob(LineOfBusiness::Property)],
            ],
            codes: [vec![0, 1, 1], vec![0, 0, 1], vec![0, 0, 0], vec![0, 0, 0]],
            segments: (0..3)
                .map(|i| SegmentEntry {
                    data_offset: 64 + i * 160,
                    year_page_crcs: vec![1, 2],
                    occ_page_crcs: vec![3, 4],
                })
                .collect(),
        }
    }

    #[test]
    fn footer_round_trips() {
        let footer = sample();
        let bytes = footer.encode();
        assert_eq!(Footer::decode(&bytes, 3, 2).unwrap(), footer);
    }

    #[test]
    fn footer_rejects_corruption() {
        let footer = sample();
        let bytes = footer.encode();

        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            Footer::decode(&flipped, 3, 2),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            Footer::decode(&bytes, 4, 2),
            Err(StoreError::Corrupt(_))
        ));

        assert!(matches!(
            Footer::decode(&bytes[..10], 3, 2),
            Err(StoreError::ChecksumMismatch { .. } | StoreError::Truncated { .. })
        ));

        // CRC-valid but not a dictionary: a page that repeats a value.
        let mut repeated = sample();
        repeated.dict_values[1].push(encode_peril(Peril::Hurricane));
        assert!(matches!(
            Footer::decode(&repeated.encode(), 3, 2),
            Err(StoreError::Corrupt(message)) if message.contains("repeats a value at code 2")
        ));
    }

    #[test]
    fn metas_decode_codes_through_the_dictionary_pages() {
        let metas = sample().metas().unwrap();
        assert_eq!(metas.len(), 3);
        assert_eq!(metas[1].layer, LayerId(1));
        assert_eq!(metas[2].peril, Peril::Flood);
        assert_eq!(metas[2].region, Region::Europe);
        // An unknown value fails even when no segment references it.
        let mut unknown = sample();
        unknown.dict_values[2].push(999);
        assert!(matches!(unknown.metas(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn dimension_codec_round_trips() {
        for peril in Peril::ALL {
            assert_eq!(decode_peril(encode_peril(peril)).unwrap(), peril);
        }
        for region in Region::ALL {
            assert_eq!(decode_region(encode_region(region)).unwrap(), region);
        }
        for lob in LineOfBusiness::ALL {
            assert_eq!(decode_lob(encode_lob(lob)).unwrap(), lob);
        }
        assert_eq!(decode_layer(7).unwrap(), LayerId(7));
        assert!(decode_peril(999).is_err());
        assert!(decode_region(999).is_err());
        assert!(decode_lob(999).is_err());
    }
}
