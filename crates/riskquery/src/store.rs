//! The columnar result store: ingested Year Loss Tables as cache-friendly
//! column vectors plus one decoded dimension tag per segment.

use catrisk_engine::ylt::{AnalysisOutput, YearLossTable};

use crate::dims::SegmentMeta;
use crate::{QueryError, Result};

/// Columnar segment storage the query engine can scan.
///
/// The planner ([`QueryPlan`](crate::plan::QueryPlan)), executor
/// ([`execute`](crate::exec::execute)) and
/// [`QuerySession`](crate::session::QuerySession) are generic over this
/// trait, so the same parallel scan runs over the in-memory [`ResultStore`]
/// and over persistence back-ends (the on-disk reader in `catrisk-riskstore`
/// hands out slices borrowed straight from its loaded column region — no
/// per-query deserialisation).
///
/// The contract mirrors [`ResultStore`]'s layout: every segment holds
/// exactly [`num_trials`](SegmentSource::num_trials) losses per column, and
/// [`metas`](SegmentSource::metas) holds one decoded tag per segment, in
/// segment order — all the planner reads before touching loss data.  How a
/// source stores its tags (a store file dictionary-codes them) is its own
/// business.  Implementations must be `Sync`: the scan shares `&self`
/// across worker threads.
pub trait SegmentSource: Sync {
    /// Number of trials every segment holds.
    fn num_trials(&self) -> usize;

    /// The dimension tags of every segment, in segment order.
    fn metas(&self) -> &[SegmentMeta];

    /// Number of segments.
    fn num_segments(&self) -> usize {
        self.metas().len()
    }

    /// The year-loss slice of one segment (one value per trial).
    ///
    /// Sources whose trial axis is not one contiguous allocation (a
    /// [`TrialShardedSource`](crate::trial_sharded::TrialShardedSource)
    /// over more than one shard) cannot hand out a full-segment borrow
    /// and panic here; scans must use the windowed accessors and keep
    /// every window inside one piece of [`trial_cuts`](Self::trial_cuts).
    fn year_losses(&self, segment: usize) -> &[f64];

    /// The maximum-occurrence-loss slice of one segment.
    ///
    /// Same contiguity caveat as [`year_losses`](Self::year_losses).
    fn max_occ_losses(&self, segment: usize) -> &[f64];

    /// The year losses of `segment` over the trial window
    /// `[start, end)`.
    ///
    /// The window must not straddle an interior cut reported by
    /// [`trial_cuts`](Self::trial_cuts) — within one piece the data is
    /// contiguous, so the default borrows out of the full-segment slice.
    fn year_losses_in(&self, segment: usize, start: usize, end: usize) -> &[f64] {
        &self.year_losses(segment)[start..end]
    }

    /// The maximum-occurrence losses of `segment` over the trial window
    /// `[start, end)` — same contract as
    /// [`year_losses_in`](Self::year_losses_in).
    fn max_occ_losses_in(&self, segment: usize, start: usize, end: usize) -> &[f64] {
        &self.max_occ_losses(segment)[start..end]
    }

    /// Interior trial offsets at which the loss columns change backing
    /// allocation, in ascending order (empty for the common contiguous
    /// case).  The scan splits its trial blocks at these cuts so every
    /// windowed slice access stays inside one allocation; because
    /// per-block partials merge by exact concatenation, extra cuts never
    /// change results — see
    /// [`PartialAggregate::combine_adjacent`](crate::exec::PartialAggregate::combine_adjacent).
    fn trial_cuts(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// Columnar store of simulation results.
///
/// Each ingested YLT becomes one *segment*: a contiguous run of
/// `num_trials` values inside two loss columns (`year_loss` for aggregate /
/// AEP analysis, `max_occ_loss` for occurrence / OEP analysis), plus its
/// dimension tags.  Layout:
///
/// ```text
/// year_loss:    [seg0 t0..tN | seg1 t0..tN | seg2 t0..tN | ...]
/// max_occ_loss: [seg0 t0..tN | seg1 t0..tN | seg2 t0..tN | ...]
/// metas:        [seg0, seg1, seg2, ...]        (one tag per segment)
/// ```
///
/// Scans therefore stream sequentially through memory one segment slice at
/// a time, and filters touch only the tiny per-segment tag vector — the
/// "pushdown" half of the QuPARA mapping.
#[derive(Debug, Clone, Default)]
pub struct ResultStore {
    num_trials: usize,
    year_loss: Vec<f64>,
    max_occ_loss: Vec<f64>,
    metas: Vec<SegmentMeta>,
}

impl ResultStore {
    /// Creates an empty store for results over `num_trials` trials.
    pub fn new(num_trials: usize) -> Self {
        Self {
            num_trials,
            ..Self::default()
        }
    }

    /// Ingests one YLT tagged with its dimensions, returning the new
    /// segment's index.
    pub fn ingest(&mut self, ylt: &YearLossTable, meta: SegmentMeta) -> Result<usize> {
        if ylt.num_trials() != self.num_trials {
            return Err(QueryError::Store(format!(
                "segment {meta} has {} trials but the store holds {}-trial results",
                ylt.num_trials(),
                self.num_trials
            )));
        }
        let segment = self.metas.len();
        self.year_loss.reserve(self.num_trials);
        self.max_occ_loss.reserve(self.num_trials);
        for outcome in ylt.outcomes() {
            self.year_loss.push(outcome.year_loss);
            self.max_occ_loss.push(outcome.max_occurrence_loss);
        }
        self.metas.push(meta);
        Ok(segment)
    }

    /// Ingests every layer of an engine run, one segment per layer, tagged
    /// with the corresponding metadata (`metas[i]` tags `output.layer(i)`).
    pub fn ingest_output(&mut self, output: &AnalysisOutput, metas: &[SegmentMeta]) -> Result<()> {
        if output.num_layers() != metas.len() {
            return Err(QueryError::Store(format!(
                "{} layers but {} segment tags",
                output.num_layers(),
                metas.len()
            )));
        }
        // Validate everything before mutating, so a failed ingest leaves the
        // store exactly as it was (all-or-nothing).
        for (ylt, meta) in output.layers().iter().zip(metas) {
            if ylt.num_trials() != self.num_trials {
                return Err(QueryError::Store(format!(
                    "segment {meta} has {} trials but the store holds {}-trial results",
                    ylt.num_trials(),
                    self.num_trials
                )));
            }
        }
        for (ylt, meta) in output.layers().iter().zip(metas) {
            self.ingest(ylt, *meta)?;
        }
        Ok(())
    }

    /// Number of trials every segment holds.
    pub fn num_trials(&self) -> usize {
        self.num_trials
    }

    /// Number of ingested segments.
    pub fn num_segments(&self) -> usize {
        self.metas.len()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The year-loss slice of one segment (one value per trial).
    #[inline]
    pub fn year_losses(&self, segment: usize) -> &[f64] {
        let start = segment * self.num_trials;
        &self.year_loss[start..start + self.num_trials]
    }

    /// The maximum-occurrence-loss slice of one segment.
    #[inline]
    pub fn max_occ_losses(&self, segment: usize) -> &[f64] {
        let start = segment * self.num_trials;
        &self.max_occ_loss[start..start + self.num_trials]
    }

    /// The dimension tags of one segment.
    pub fn meta(&self, segment: usize) -> &SegmentMeta {
        &self.metas[segment]
    }

    /// All segment tags in segment order.
    pub fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    /// Approximate heap memory of the loss columns, in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.year_loss.len() + self.max_occ_loss.len()) * std::mem::size_of::<f64>()
    }
}

impl SegmentSource for ResultStore {
    fn num_trials(&self) -> usize {
        self.num_trials
    }

    fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    fn year_losses(&self, segment: usize) -> &[f64] {
        ResultStore::year_losses(self, segment)
    }

    fn max_occ_losses(&self, segment: usize) -> &[f64] {
        ResultStore::max_occ_losses(self, segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::LineOfBusiness;
    use catrisk_engine::ylt::TrialOutcome;
    use catrisk_eventgen::peril::{Peril, Region};
    use catrisk_finterms::layer::LayerId;

    fn outcome(year: f64, occ: f64) -> TrialOutcome {
        TrialOutcome {
            year_loss: year,
            max_occurrence_loss: occ,
            nonzero_events: 0,
        }
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
    fn ingest_lays_out_columns() {
        let mut store = ResultStore::new(2);
        let s0 = store
            .ingest(
                &YearLossTable::new(LayerId(0), vec![outcome(1.0, 0.5), outcome(2.0, 2.0)]),
                meta(0, Peril::Hurricane),
            )
            .unwrap();
        let s1 = store
            .ingest(
                &YearLossTable::new(LayerId(1), vec![outcome(3.0, 3.0), outcome(0.0, 0.0)]),
                meta(1, Peril::Flood),
            )
            .unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(store.num_segments(), 2);
        assert_eq!(store.year_losses(0), &[1.0, 2.0]);
        assert_eq!(store.year_losses(1), &[3.0, 0.0]);
        assert_eq!(store.max_occ_losses(0), &[0.5, 2.0]);
        assert_eq!(store.metas()[1].peril, Peril::Flood);
        assert_eq!(store.meta(1).layer, LayerId(1));
        assert!(store.memory_bytes() >= 4 * 8);
        assert!(!store.is_empty());
    }

    #[test]
    fn ingest_rejects_trial_mismatch() {
        let mut store = ResultStore::new(3);
        let err = store
            .ingest(
                &YearLossTable::new(LayerId(0), vec![outcome(1.0, 1.0)]),
                meta(0, Peril::Hurricane),
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::Store(_)));
    }

    #[test]
    fn ingest_output_pairs_layers_with_tags() {
        let out = AnalysisOutput::new(vec![
            YearLossTable::new(LayerId(0), vec![outcome(1.0, 1.0)]),
            YearLossTable::new(LayerId(1), vec![outcome(2.0, 2.0)]),
        ]);
        let mut store = ResultStore::new(1);
        store
            .ingest_output(&out, &[meta(0, Peril::Hurricane), meta(1, Peril::Flood)])
            .unwrap();
        assert_eq!(store.num_segments(), 2);
        assert!(store
            .ingest_output(&out, &[meta(0, Peril::Hurricane)])
            .is_err());
    }
}
