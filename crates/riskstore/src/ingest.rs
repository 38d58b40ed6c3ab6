//! Bridging the streaming engine's trial-block output into segment
//! appends.
//!
//! The streaming engine emits *trial-major* blocks (all layers × one trial
//! window), while the store's data region is *segment-major* (all trials
//! of one layer, contiguously — that is what makes a query scan stream
//! linearly through one column).  A transposition therefore has to buffer
//! one side, and the ingestor buffers the cheap side: two `f64`s per trial
//! per layer (16 bytes), versus the 24-byte `TrialOutcome`s a full
//! `AnalysisOutput` would hold — and it starts spilling the moment the
//! run finishes, segment by segment, committing in batches so readers can
//! follow an ingest in progress.

use catrisk_engine::ylt::AnalysisOutput;
use catrisk_riskquery::SegmentMeta;

use crate::writer::StoreWriter;
use crate::{Result, StoreError};

/// Accumulates streamed trial blocks and spills them into a
/// [`StoreWriter`] as complete segments.
///
/// ```no_run
/// use catrisk_riskstore::{StoreWriter, StreamIngestor};
/// # fn demo(
/// #     input: &catrisk_engine::input::AnalysisInput,
/// #     metas: &[catrisk_riskquery::SegmentMeta],
/// # ) -> catrisk_riskstore::Result<()> {
/// let mut writer = StoreWriter::create("portfolio.clm", input.num_trials())?;
/// let mut ingestor = StreamIngestor::new(input.layers().len(), input.num_trials());
/// catrisk_engine::streaming::StreamingEngine::new(8_192).run_with(input, |_, _, block| {
///     ingestor.push_block(block).expect("uniform block shape");
/// });
/// let segments = ingestor.finish(&mut writer, metas, 8)?;
/// writer.finish()?;
/// # let _ = segments;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamIngestor {
    num_trials: usize,
    year: Vec<Vec<f64>>,
    max_occ: Vec<Vec<f64>>,
}

impl StreamIngestor {
    /// An ingestor expecting `num_layers` layers over `num_trials` trials.
    pub fn new(num_layers: usize, num_trials: usize) -> Self {
        Self {
            num_trials,
            year: vec![Vec::with_capacity(num_trials); num_layers],
            max_occ: vec![Vec::with_capacity(num_trials); num_layers],
        }
    }

    /// Appends one streamed block (every layer's outcomes over one trial
    /// window, in trial order).
    pub fn push_block(&mut self, block: &AnalysisOutput) -> Result<()> {
        if block.num_layers() != self.year.len() {
            return Err(StoreError::InvalidArgument(format!(
                "streamed block has {} layers, expected {}",
                block.num_layers(),
                self.year.len()
            )));
        }
        for (layer, ylt) in block.layers().iter().enumerate() {
            for outcome in ylt.outcomes() {
                self.year[layer].push(outcome.year_loss);
                self.max_occ[layer].push(outcome.max_occurrence_loss);
            }
        }
        Ok(())
    }

    /// Spills every buffered layer into `writer` as one segment each
    /// (`metas[i]` tags layer `i`), committing after every
    /// `commit_every` segments (0 = a single commit at the end).
    /// Returns the number of segments appended.
    pub fn finish(
        self,
        writer: &mut StoreWriter,
        metas: &[SegmentMeta],
        commit_every: usize,
    ) -> Result<usize> {
        if metas.len() != self.year.len() {
            return Err(StoreError::InvalidArgument(format!(
                "{} layers but {} segment tags",
                self.year.len(),
                metas.len()
            )));
        }
        for (layer, ((year, max_occ), meta)) in
            self.year.iter().zip(&self.max_occ).zip(metas).enumerate()
        {
            if year.len() != self.num_trials {
                return Err(StoreError::InvalidArgument(format!(
                    "layer {layer} streamed {} trials, expected {}",
                    year.len(),
                    self.num_trials
                )));
            }
            writer.append_segment(*meta, year, max_occ)?;
            if commit_every > 0 && (layer + 1) % commit_every == 0 {
                writer.commit()?;
            }
        }
        writer.commit()?;
        Ok(metas.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StoreReader;
    use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;
    use catrisk_riskquery::{LineOfBusiness, SegmentSource};

    fn outcome(loss: f64) -> TrialOutcome {
        TrialOutcome {
            year_loss: loss,
            max_occurrence_loss: loss * 0.5,
            nonzero_events: u32::from(loss > 0.0),
        }
    }

    fn block(layer_losses: &[&[f64]]) -> AnalysisOutput {
        AnalysisOutput::new(
            layer_losses
                .iter()
                .enumerate()
                .map(|(i, losses)| {
                    YearLossTable::new(
                        LayerId(i as u32),
                        losses.iter().map(|&l| outcome(l)).collect(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn blocks_reassemble_into_segments() {
        let mut path = std::env::temp_dir();
        path.push(format!("catrisk-ingest-{}.clm", std::process::id()));

        let mut ingestor = StreamIngestor::new(2, 5);
        ingestor
            .push_block(&block(&[&[1.0, 2.0], &[10.0, 20.0]]))
            .unwrap();
        ingestor
            .push_block(&block(&[&[3.0, 4.0, 5.0], &[30.0, 40.0, 50.0]]))
            .unwrap();
        assert!(ingestor.push_block(&block(&[&[9.0]])).is_err());

        let metas = [
            SegmentMeta::new(
                LayerId(0),
                Peril::Hurricane,
                Region::Europe,
                LineOfBusiness::Property,
            ),
            SegmentMeta::new(
                LayerId(1),
                Peril::Flood,
                Region::Japan,
                LineOfBusiness::Marine,
            ),
        ];
        let mut writer = StoreWriter::create(&path, 5).unwrap();
        assert_eq!(ingestor.finish(&mut writer, &metas, 1).unwrap(), 2);
        // One commit per segment plus the final no-op-or-real commit.
        assert!(writer.commit_seq() >= 2);
        writer.finish().unwrap();

        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.num_segments(), 2);
        assert_eq!(
            SegmentSource::year_losses(&reader, 0),
            &[1.0, 2.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(
            SegmentSource::year_losses(&reader, 1),
            &[10.0, 20.0, 30.0, 40.0, 50.0]
        );
        assert_eq!(
            SegmentSource::max_occ_losses(&reader, 1),
            &[5.0, 10.0, 15.0, 20.0, 25.0]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finish_validates_shapes() {
        let mut path = std::env::temp_dir();
        path.push(format!("catrisk-ingest-short-{}.clm", std::process::id()));
        let ingestor = StreamIngestor::new(1, 4);
        let meta = SegmentMeta::new(
            LayerId(0),
            Peril::Hurricane,
            Region::Europe,
            LineOfBusiness::Property,
        );
        let mut writer = StoreWriter::create(&path, 4).unwrap();
        // Too few trials buffered.
        assert!(matches!(
            ingestor.finish(&mut writer, &[meta], 0),
            Err(StoreError::InvalidArgument(_))
        ));
        // Wrong tag count.
        let ingestor = StreamIngestor::new(1, 4);
        assert!(matches!(
            ingestor.finish(&mut writer, &[], 0),
            Err(StoreError::InvalidArgument(_))
        ));
        let _ = std::fs::remove_file(&path);
    }
}
