//! Building dimension-sliced engine inputs.
//!
//! The query store answers dimension-sliced questions, so the engine must
//! produce YLTs at slicing granularity: one engine layer per *(book,
//! peril)* cell rather than one per book.  This module splits each book's
//! ELT by the catalog's per-event peril tag, assembles an
//! [`AnalysisInput`] with one layer per non-empty cell, and returns the
//! [`SegmentMeta`] tags to ingest any engine's output with — any of the
//! engine variants can run the input, and because they are bit-identical,
//! so are the query results.

use catrisk_engine::input::{AnalysisInput, AnalysisInputBuilder};
use catrisk_engine::ylt::AnalysisOutput;
use catrisk_eventgen::catalog::EventCatalog;
use catrisk_eventgen::peril::{Peril, Region};
use catrisk_eventgen::yet::YearEventTable;
use catrisk_eventgen::EventId;
use catrisk_finterms::layer::LayerId;
use catrisk_finterms::terms::{FinancialTerms, LayerTerms};

use crate::dims::{LineOfBusiness, SegmentMeta};
use crate::store::ResultStore;
use crate::{QueryError, Result};

/// One exposure book to segment: its ELT pairs plus the dimensions shared
/// by every segment carved out of it.
#[derive(Debug, Clone)]
pub struct SegmentedBook {
    /// `(event, mean loss)` pairs of the book's ELT.
    pub pairs: Vec<(EventId, f64)>,
    /// Financial terms applied to each event loss of the book.
    pub financial_terms: FinancialTerms,
    /// Layer terms applied per segment carved from the book.
    pub layer_terms: LayerTerms,
    /// Region of the book's exposures.
    pub region: Region,
    /// Line of business the book is written under.
    pub lob: LineOfBusiness,
}

/// A dimension-sliced engine input plus the tags describing each layer.
#[derive(Debug)]
pub struct SegmentedInput {
    /// Engine input with one layer per segment.
    pub input: AnalysisInput,
    /// `metas[i]` tags layer `i` of any engine's output.
    pub metas: Vec<SegmentMeta>,
}

impl SegmentedInput {
    /// Builds the segmented input: each book's ELT is split by peril and
    /// every non-empty `(book, peril)` cell becomes one ELT + one layer.
    /// The layer dimension tags segments with the *book* index, so grouping
    /// by layer reassembles books.
    pub fn build(
        yet: std::sync::Arc<YearEventTable>,
        catalog: &EventCatalog,
        books: &[SegmentedBook],
    ) -> Result<SegmentedInput> {
        if books.is_empty() {
            return Err(QueryError::Store("no books to segment".to_string()));
        }
        let mut builder = AnalysisInputBuilder::new();
        builder.set_yet_shared(yet);
        builder.with_catalog_size(catalog.len() as u32);
        let mut metas = Vec::new();
        for (book_index, book) in books.iter().enumerate() {
            for (peril, pairs) in split_pairs_by_peril(&book.pairs, catalog) {
                let elt = builder.add_elt(&pairs, book.financial_terms);
                builder.add_layer_over(&[elt], book.layer_terms);
                metas.push(SegmentMeta::new(
                    LayerId(book_index as u32),
                    peril,
                    book.region,
                    book.lob,
                ));
            }
        }
        if metas.is_empty() {
            return Err(QueryError::Store(
                "no segment has any ELT records; nothing to analyse".to_string(),
            ));
        }
        let input = builder
            .build()
            .map_err(|e| QueryError::Store(format!("segmented input invalid: {e}")))?;
        Ok(SegmentedInput { input, metas })
    }

    /// Ingests an engine output produced from [`SegmentedInput::input`]
    /// into a fresh store.
    pub fn ingest(&self, output: &AnalysisOutput) -> Result<ResultStore> {
        let mut store = ResultStore::new(self.input.num_trials());
        store.ingest_output(output, &self.metas)?;
        Ok(store)
    }
}

/// Splits ELT `(event, loss)` pairs by the catalog peril of each event,
/// preserving pair order within each peril.  Events unknown to the catalog
/// are dropped (they can produce no tagged loss).
pub fn split_pairs_by_peril(
    pairs: &[(EventId, f64)],
    catalog: &EventCatalog,
) -> Vec<(Peril, Vec<(EventId, f64)>)> {
    let mut by_peril: Vec<(Peril, Vec<(EventId, f64)>)> = Vec::new();
    for &(event, loss) in pairs {
        let Some(info) = catalog.event(event) else {
            continue;
        };
        match by_peril.iter_mut().find(|(p, _)| *p == info.peril) {
            Some((_, list)) => list.push((event, loss)),
            None => by_peril.push((info.peril, vec![(event, loss)])),
        }
    }
    by_peril
}

#[cfg(test)]
mod tests {
    use super::*;
    use catrisk_engine::sequential::SequentialEngine;
    use catrisk_eventgen::catalog::CatalogConfig;
    use catrisk_eventgen::simulate::{YetConfig, YetGenerator};
    use catrisk_simkit::rng::RngFactory;
    use std::sync::Arc;

    fn world() -> (Arc<YearEventTable>, EventCatalog) {
        let factory = RngFactory::new(7);
        let catalog = EventCatalog::generate(
            &CatalogConfig {
                num_events: 2_000,
                annual_event_budget: 150.0,
                rate_tail_index: 1.3,
            },
            &factory,
        )
        .unwrap();
        let yet = YetGenerator::new(&catalog, YetConfig::with_trials(64))
            .unwrap()
            .generate(&factory);
        (Arc::new(yet), catalog)
    }

    fn book(
        catalog: &EventCatalog,
        seed: u64,
        region: Region,
        lob: LineOfBusiness,
    ) -> SegmentedBook {
        let factory = RngFactory::new(seed);
        let mut rng = factory.stream(0);
        let pairs: Vec<(EventId, f64)> = (0..400)
            .map(|_| {
                (
                    rng.below(catalog.len() as u64) as EventId,
                    1_000.0 + rng.uniform() * 5.0e5,
                )
            })
            .collect();
        SegmentedBook {
            pairs,
            financial_terms: FinancialTerms::pass_through(),
            layer_terms: LayerTerms::unlimited(),
            region,
            lob,
        }
    }

    #[test]
    fn split_preserves_records_and_tags_perils() {
        let (_, catalog) = world();
        let pairs: Vec<(EventId, f64)> = (0..500u32).map(|e| (e, f64::from(e) + 1.0)).collect();
        let split = split_pairs_by_peril(&pairs, &catalog);
        let total: usize = split.iter().map(|(_, list)| list.len()).sum();
        assert_eq!(total, 500, "every known event lands in exactly one peril");
        for (peril, list) in &split {
            for (event, _) in list {
                assert_eq!(catalog.event(*event).unwrap().peril, *peril);
            }
        }
    }

    #[test]
    fn segmented_input_runs_and_ingests() {
        let (yet, catalog) = world();
        let books = vec![
            book(&catalog, 1, Region::Europe, LineOfBusiness::Property),
            book(&catalog, 2, Region::Japan, LineOfBusiness::Marine),
        ];
        let segmented = SegmentedInput::build(Arc::clone(&yet), &catalog, &books).unwrap();
        assert_eq!(segmented.input.layers().len(), segmented.metas.len());
        assert!(
            segmented.metas.len() > 2,
            "books split into multiple peril segments"
        );
        let output = SequentialEngine::new().run(&segmented.input);
        let store = segmented.ingest(&output).unwrap();
        assert_eq!(store.num_segments(), segmented.metas.len());
        assert_eq!(store.num_trials(), 64);
        // Book reassembly: layer dimension has one value per book.
        let layers: std::collections::HashSet<_> = store.metas().iter().map(|m| m.layer).collect();
        assert_eq!(layers.len(), 2);
    }

    #[test]
    fn empty_books_are_rejected() {
        let (yet, catalog) = world();
        assert!(SegmentedInput::build(Arc::clone(&yet), &catalog, &[]).is_err());
        let empty = SegmentedBook {
            pairs: vec![],
            financial_terms: FinancialTerms::pass_through(),
            layer_terms: LayerTerms::unlimited(),
            region: Region::Europe,
            lob: LineOfBusiness::Property,
        };
        assert!(SegmentedInput::build(yet, &catalog, &[empty]).is_err());
    }
}
