//! Analysis input assembly and preprocessing.
//!
//! The paper's algorithm has "a preprocessing stage in which data is loaded
//! into local memory" (§II.B): the Year Event Table, the Event Loss Tables
//! of every covered layer (materialised as direct access tables), and the
//! financial and layer terms.  [`AnalysisInput`] is that in-memory state and
//! is shared read-only by every engine implementation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use catrisk_eventgen::yet::YearEventTable;
use catrisk_eventgen::EventId;
use catrisk_finterms::layer::{Layer, LayerId};
use catrisk_finterms::terms::{FinancialTerms, LayerTerms};
use catrisk_lookup::{
    CuckooTable, DirectAccessTable, EventLookup, HashedTable, LookupKind, SortedTable,
};

use crate::steps;
use crate::{EngineError, Result};

/// A concrete lookup structure for one ELT.
///
/// An enum (rather than `Box<dyn EventLookup>`) keeps the per-event lookup
/// call monomorphic and inlinable in the hot loop while still letting the
/// ablation benchmark switch representations at run time.
#[derive(Debug, Clone)]
pub enum PreparedLookup {
    /// Dense direct access table (the paper's choice).
    Direct(DirectAccessTable),
    /// Sorted pairs with binary search.
    Sorted(SortedTable),
    /// Open-addressing hash table.
    Hashed(HashedTable),
    /// Cuckoo hash table.
    Cuckoo(CuckooTable),
}

impl PreparedLookup {
    /// Builds the lookup structure of the requested kind.
    pub fn build(kind: LookupKind, pairs: &[(EventId, f64)], catalog_size: u32) -> Self {
        match kind {
            LookupKind::Direct => {
                PreparedLookup::Direct(DirectAccessTable::from_pairs(pairs, catalog_size))
            }
            LookupKind::Sorted => PreparedLookup::Sorted(SortedTable::from_pairs(pairs)),
            LookupKind::Hashed => PreparedLookup::Hashed(HashedTable::from_pairs(pairs)),
            LookupKind::Cuckoo => PreparedLookup::Cuckoo(CuckooTable::from_pairs(pairs)),
        }
    }

    /// Loss of `event` (0.0 when absent).
    #[inline]
    pub fn get(&self, event: EventId) -> f64 {
        match self {
            PreparedLookup::Direct(t) => t.get(event),
            PreparedLookup::Sorted(t) => t.get(event),
            PreparedLookup::Hashed(t) => t.get(event),
            PreparedLookup::Cuckoo(t) => t.get(event),
        }
    }

    /// Which representation this is.
    pub fn kind(&self) -> LookupKind {
        match self {
            PreparedLookup::Direct(_) => LookupKind::Direct,
            PreparedLookup::Sorted(_) => LookupKind::Sorted,
            PreparedLookup::Hashed(_) => LookupKind::Hashed,
            PreparedLookup::Cuckoo(_) => LookupKind::Cuckoo,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        match self {
            PreparedLookup::Direct(t) => t.len(),
            PreparedLookup::Sorted(t) => t.len(),
            PreparedLookup::Hashed(t) => t.len(),
            PreparedLookup::Cuckoo(t) => t.len(),
        }
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap memory used, in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            PreparedLookup::Direct(t) => t.memory_bytes(),
            PreparedLookup::Sorted(t) => t.memory_bytes(),
            PreparedLookup::Hashed(t) => t.memory_bytes(),
            PreparedLookup::Cuckoo(t) => t.memory_bytes(),
        }
    }
}

/// One preprocessed ELT: its lookup structure plus its financial terms `I`.
#[derive(Debug, Clone)]
pub struct PreparedElt {
    /// Lookup structure over the ELT's `(event, loss)` pairs.
    pub lookup: PreparedLookup,
    /// Financial terms applied to each event loss taken from this ELT.
    pub terms: FinancialTerms,
    /// Number of non-zero records in the source ELT.
    pub record_count: usize,
}

/// Collapsed layer tables (see [`steps::collapse_layer`]) memoised per
/// *ordered* ELT index list: the per-event fold is order-sensitive in
/// floating point, so `[0, 1, 2]` and `[2, 0, 1]` are different tables.
///
/// A table is a function of the ELTs alone, so one memo is shared by every
/// input derived from the same ELTs (`clone`, `with_layers`,
/// `with_yet_slice`).  Its tables never hold more bytes than the input's
/// `lookup_memory_bytes()`.
type LayerTableMemo = HashMap<Vec<usize>, Arc<[f64]>>;

/// The fully preprocessed input of an aggregate analysis.
#[derive(Debug, Clone)]
pub struct AnalysisInput {
    yet: Arc<YearEventTable>,
    elts: Arc<Vec<PreparedElt>>,
    /// Exclusive upper bound of every ELT's event ids (the catalog the
    /// lookup structures were built over).
    elt_catalog_size: u32,
    layers: Vec<Layer>,
    layer_tables: Arc<Mutex<LayerTableMemo>>,
}

impl AnalysisInput {
    /// The Year Event Table.
    pub fn yet(&self) -> &YearEventTable {
        &self.yet
    }

    /// All preprocessed ELTs.
    pub fn elts(&self) -> &[PreparedElt] {
        &self.elts
    }

    /// All layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The preprocessed ELTs covered by one layer, in coverage order.
    pub fn layer_elts(&self, layer: &Layer) -> Vec<&PreparedElt> {
        layer.elt_indices.iter().map(|&i| &self.elts[i]).collect()
    }

    /// Number of trials in the YET.
    pub fn num_trials(&self) -> usize {
        self.yet.num_trials()
    }

    /// Total number of ELT lookups the analysis will perform
    /// (`events × ELTs`, summed over layers and trials) — the paper's
    /// "15 billion events" scale indicator.
    pub fn total_lookups(&self) -> u64 {
        let events = self.yet.total_events() as u64;
        let elts_per_layer: u64 = self.layers.iter().map(|l| l.num_elts() as u64).sum();
        events * elts_per_layer
    }

    /// Total heap memory of all prepared lookup structures.
    pub fn lookup_memory_bytes(&self) -> usize {
        self.elts.iter().map(|e| e.lookup.memory_bytes()).sum()
    }

    /// The collapsed table of `layer` — `table[event]` is the layer's
    /// per-occurrence loss of `event` net of ELT financial terms — when the
    /// production kernel should use one, `None` when it should walk the
    /// ELTs per occurrence.
    ///
    /// The choice is a function of the input alone.  A memoised table is
    /// always used.  Otherwise one is built when building is cheaper than
    /// not: a build sweeps `catalog × ELTs` sequential lookups to save
    /// `events × (ELTs − 1)` random ones, so it pays for a layer of two or
    /// more ELTs as soon as the YET holds at least a catalog's worth of
    /// occurrences.  Cached tables are capped at `lookup_memory_bytes()`
    /// in total; past the cap a table serves the one layer pass and is
    /// dropped.
    pub(crate) fn collapsed_layer_table(&self, layer: &Layer) -> Option<Arc<[f64]>> {
        // Held across the build, so concurrent runs over one ELT list wait
        // for the first builder instead of building again.
        let mut memo = self
            .layer_tables
            .lock()
            .expect("a layer table build panicked");
        if let Some(table) = memo.get(&layer.elt_indices) {
            return Some(Arc::clone(table));
        }
        if layer.num_elts() < 2 || self.yet.total_events() < self.elt_catalog_size as usize {
            return None;
        }
        let table: Arc<[f64]> =
            steps::collapse_layer(&self.layer_elts(layer), self.elt_catalog_size).into();
        let cached_bytes: usize = memo.values().map(|t| std::mem::size_of_val(&**t)).sum();
        if cached_bytes + std::mem::size_of_val(&*table) <= self.lookup_memory_bytes() {
            memo.insert(layer.elt_indices.clone(), Arc::clone(&table));
        }
        Some(table)
    }

    /// Clones this input with the YET replaced (used by the streaming engine
    /// to run block slices of the trial set).  Layers and memoised layer
    /// tables are shared; the prepared ELTs are deep-copied.
    pub fn with_yet_slice(&self, yet: YearEventTable) -> AnalysisInput {
        AnalysisInput {
            yet: Arc::new(yet),
            // Deliberately NOT `Arc::clone`: the frozen ledger's smoke-scale
            // `book_materialise` leans on this copy's time to keep its
            // unspanned file create/remove under the unattributed-share
            // gate (ROADMAP items 3 and 5).  Share once the harness spans
            // those calls.
            elts: Arc::new(self.elts.as_ref().clone()),
            elt_catalog_size: self.elt_catalog_size,
            layers: self.layers.clone(),
            layer_tables: Arc::clone(&self.layer_tables),
        }
    }

    /// This input with a different set of layers; the YET, the prepared
    /// ELTs and the memoised layer tables are shared, not copied (used by
    /// the real-time quoting workflow, which re-prices alternative layer
    /// terms against a fixed trial set).
    ///
    /// Every layer must reference only existing ELT indices.
    pub fn with_layers(&self, layers: Vec<Layer>) -> Result<AnalysisInput> {
        if layers.is_empty() {
            return Err(EngineError::InvalidInput(
                "at least one layer is required".into(),
            ));
        }
        for layer in &layers {
            layer
                .validate(self.elts.len())
                .map_err(|e| EngineError::InvalidInput(format!("layer {}: {e}", layer.id)))?;
        }
        Ok(AnalysisInput {
            yet: Arc::clone(&self.yet),
            elts: Arc::clone(&self.elts),
            elt_catalog_size: self.elt_catalog_size,
            layers,
            layer_tables: Arc::clone(&self.layer_tables),
        })
    }
}

/// Builder assembling an [`AnalysisInput`] from raw pieces.
#[derive(Debug)]
pub struct AnalysisInputBuilder {
    yet: Option<Arc<YearEventTable>>,
    lookup_kind: LookupKind,
    catalog_size: Option<u32>,
    elt_pairs: Vec<(Vec<(EventId, f64)>, FinancialTerms)>,
    layers: Vec<Layer>,
}

impl Default for AnalysisInputBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisInputBuilder {
    /// Starts an empty builder using direct access tables.
    pub fn new() -> Self {
        Self {
            yet: None,
            lookup_kind: LookupKind::Direct,
            catalog_size: None,
            elt_pairs: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Selects the lookup representation used for every ELT.
    pub fn with_lookup(&mut self, kind: LookupKind) -> &mut Self {
        self.lookup_kind = kind;
        self
    }

    /// Sets the Year Event Table.
    pub fn set_yet(&mut self, yet: YearEventTable) -> &mut Self {
        self.catalog_size.get_or_insert(yet.catalog_size());
        self.yet = Some(Arc::new(yet));
        self
    }

    /// Sets an already-shared Year Event Table without copying it.
    pub fn set_yet_shared(&mut self, yet: Arc<YearEventTable>) -> &mut Self {
        self.catalog_size.get_or_insert(yet.catalog_size());
        self.yet = Some(yet);
        self
    }

    /// Convenience for tests and examples: builds a YET from explicit
    /// per-trial `(event, time)` pairs over a catalog of `catalog_size`.
    pub fn set_yet_from_trials(
        &mut self,
        catalog_size: u32,
        trials: Vec<Vec<(EventId, f32)>>,
    ) -> &mut Self {
        let mut builder = catrisk_eventgen::yet::YetBuilder::new(catalog_size, trials.len(), 8);
        for trial in trials {
            builder.push_trial(
                trial
                    .into_iter()
                    .map(|(event, time)| catrisk_eventgen::yet::EventOccurrence { event, time })
                    .collect(),
            );
        }
        self.set_yet(builder.build())
    }

    /// Overrides the catalog size used to size direct access tables
    /// (defaults to the YET's catalog size).
    pub fn with_catalog_size(&mut self, catalog_size: u32) -> &mut Self {
        self.catalog_size = Some(catalog_size);
        self
    }

    /// Adds one ELT from `(event, loss)` pairs and returns its index.
    pub fn add_elt(&mut self, pairs: &[(EventId, f64)], terms: FinancialTerms) -> usize {
        self.elt_pairs.push((pairs.to_vec(), terms));
        self.elt_pairs.len() - 1
    }

    /// Adds a layer covering the given ELT indices under the given terms and
    /// returns its index.
    pub fn add_layer_over(&mut self, elt_indices: &[usize], terms: LayerTerms) -> usize {
        let id = LayerId(self.layers.len() as u32);
        self.layers.push(Layer {
            id,
            elt_indices: elt_indices.to_vec(),
            terms,
            participation: 1.0,
            description: String::new(),
        });
        self.layers.len() - 1
    }

    /// Adds a fully specified layer and returns its index.
    pub fn add_layer(&mut self, layer: Layer) -> usize {
        self.layers.push(layer);
        self.layers.len() - 1
    }

    /// Finalises the input: builds the lookup structures and validates the
    /// layers against the available ELTs.
    pub fn build(&mut self) -> Result<AnalysisInput> {
        let yet = self
            .yet
            .take()
            .ok_or_else(|| EngineError::InvalidInput("a Year Event Table is required".into()))?;
        if self.elt_pairs.is_empty() {
            return Err(EngineError::InvalidInput(
                "at least one ELT is required".into(),
            ));
        }
        if self.layers.is_empty() {
            return Err(EngineError::InvalidInput(
                "at least one layer is required".into(),
            ));
        }
        let catalog_size = self.catalog_size.unwrap_or_else(|| yet.catalog_size());
        for (i, (pairs, _)) in self.elt_pairs.iter().enumerate() {
            if let Some((event, _)) = pairs.iter().find(|(e, _)| *e >= catalog_size) {
                return Err(EngineError::InvalidInput(format!(
                    "ELT {i} references event {event} outside the catalog of size {catalog_size}"
                )));
            }
        }
        for layer in &self.layers {
            layer
                .validate(self.elt_pairs.len())
                .map_err(|e| EngineError::InvalidInput(format!("layer {}: {e}", layer.id)))?;
        }
        let elts = self
            .elt_pairs
            .drain(..)
            .map(|(pairs, terms)| PreparedElt {
                lookup: PreparedLookup::build(self.lookup_kind, &pairs, catalog_size),
                terms,
                record_count: pairs.len(),
            })
            .collect();
        Ok(AnalysisInput {
            yet,
            elts: Arc::new(elts),
            elt_catalog_size: catalog_size,
            layers: std::mem::take(&mut self.layers),
            layer_tables: Arc::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_builder() -> AnalysisInputBuilder {
        let mut b = AnalysisInputBuilder::new();
        b.set_yet_from_trials(100, vec![vec![(1, 10.0), (2, 20.0)], vec![(3, 5.0)]]);
        b
    }

    #[test]
    fn build_happy_path() {
        let mut b = tiny_builder();
        let e0 = b.add_elt(&[(1, 100.0)], FinancialTerms::pass_through());
        let e1 = b.add_elt(&[(2, 50.0), (3, 25.0)], FinancialTerms::pass_through());
        b.add_layer_over(&[e0, e1], LayerTerms::unlimited());
        let input = b.build().unwrap();
        assert_eq!(input.num_trials(), 2);
        assert_eq!(input.elts().len(), 2);
        assert_eq!(input.layers().len(), 1);
        assert_eq!(input.layer_elts(&input.layers()[0]).len(), 2);
        assert_eq!(input.total_lookups(), 3 * 2);
        assert!(input.lookup_memory_bytes() >= 100 * 8 * 2);
        assert_eq!(input.yet().num_trials(), 2);
        assert_eq!(input.elts()[1].record_count, 2);
    }

    #[test]
    fn all_lookup_kinds_agree() {
        for kind in LookupKind::ALL {
            let mut b = tiny_builder();
            b.with_lookup(kind);
            let e = b.add_elt(&[(1, 7.0), (3, 9.0)], FinancialTerms::pass_through());
            b.add_layer_over(&[e], LayerTerms::unlimited());
            let input = b.build().unwrap();
            let lookup = &input.elts()[0].lookup;
            assert_eq!(lookup.kind(), kind);
            assert_eq!(lookup.get(1), 7.0);
            assert_eq!(lookup.get(3), 9.0);
            assert_eq!(lookup.get(2), 0.0);
            assert_eq!(lookup.len(), 2);
            assert!(!lookup.is_empty());
            assert!(lookup.memory_bytes() > 0);
        }
    }

    #[test]
    fn build_requires_all_parts() {
        // Missing YET.
        let mut b = AnalysisInputBuilder::new();
        b.add_elt(&[(0, 1.0)], FinancialTerms::pass_through());
        b.add_layer_over(&[0], LayerTerms::unlimited());
        assert!(b.build().is_err());
        // Missing ELTs.
        let mut b = tiny_builder();
        b.add_layer_over(&[0], LayerTerms::unlimited());
        assert!(b.build().is_err());
        // Missing layers.
        let mut b = tiny_builder();
        b.add_elt(&[(0, 1.0)], FinancialTerms::pass_through());
        assert!(b.build().is_err());
    }

    #[test]
    fn build_rejects_bad_references() {
        // Layer referencing a non-existent ELT.
        let mut b = tiny_builder();
        b.add_elt(&[(0, 1.0)], FinancialTerms::pass_through());
        b.add_layer_over(&[3], LayerTerms::unlimited());
        assert!(b.build().is_err());
        // ELT referencing an event outside the catalog.
        let mut b = tiny_builder();
        b.add_elt(&[(500, 1.0)], FinancialTerms::pass_through());
        b.add_layer_over(&[0], LayerTerms::unlimited());
        assert!(b.build().is_err());
    }

    /// An input whose every multi-ELT layer satisfies the cost rule: 4 direct
    /// ELTs over a 64-event catalog, 40 trials x 5 occurrences.
    fn collapsible(layers: &[&[usize]]) -> AnalysisInput {
        let mut b = AnalysisInputBuilder::new();
        let trials = (0..40u32)
            .map(|t| (0..5).map(|i| ((t * 7 + i * 11) % 64, i as f32)).collect())
            .collect();
        b.set_yet_from_trials(64, trials);
        for e in 0..4u32 {
            let pairs: Vec<(EventId, f64)> = (e..64)
                .step_by(e as usize + 2)
                .map(|event| (event, 10.0 + f64::from(event * (e + 1))))
                .collect();
            b.add_elt(&pairs, FinancialTerms::new(5.0, 150.0, 0.9, 1.0).unwrap());
        }
        for elts in layers {
            b.add_layer_over(elts, LayerTerms::per_occurrence(20.0, 200.0).unwrap());
        }
        b.build().unwrap()
    }

    /// The memoised tables, in no particular order.
    fn memoised(input: &AnalysisInput) -> Vec<Arc<[f64]>> {
        input
            .layer_tables
            .lock()
            .unwrap()
            .values()
            .cloned()
            .collect()
    }

    #[test]
    fn layer_table_is_built_once_across_clones_and_streaming_blocks() {
        use crate::{ParallelEngine, SequentialEngine, StreamingEngine};
        let input = collapsible(&[&[0, 1, 2]]);
        let reference = SequentialEngine::new().run(&input);
        assert!(
            memoised(&input).is_empty(),
            "the reference engine builds none"
        );

        let layer = &input.layers()[0];
        let table = input.collapsed_layer_table(layer).unwrap();
        let relayered = input.with_layers(input.layers().to_vec()).unwrap();
        for derived in [&input, &relayered, &input.clone()] {
            let out = ParallelEngine::with_threads(2).run(derived);
            assert_eq!(reference.max_abs_difference(&out), 0.0);
        }
        // Blocks of 8 trials x 5 occurrences are below the cost rule on
        // their own: they collapse because the table is already memoised.
        let streaming = StreamingEngine {
            block_size: 8,
            threads: 1,
        };
        let mut streamed = Vec::new();
        streaming.run_with(&input, |_, _, block| {
            streamed.extend_from_slice(block.layer(0).outcomes())
        });
        assert_eq!(streamed, reference.layer(0).outcomes());

        // Every run above read the one table built first: nothing replaced
        // it, nothing was added, and derived inputs hand out the same one.
        let sliced = input.with_yet_slice(input.yet().slice_trials(0..1));
        for derived in [&input, &relayered, &sliced] {
            let memo = memoised(derived);
            assert_eq!(memo.len(), 1);
            assert!(Arc::ptr_eq(&table, &memo[0]));
            assert!(Arc::ptr_eq(
                &table,
                &derived.collapsed_layer_table(layer).unwrap()
            ));
        }
    }

    #[test]
    fn cost_rule_skips_single_elt_layers_and_sparse_yets() {
        let input = collapsible(&[&[3], &[0, 1]]);
        assert!(input.collapsed_layer_table(&input.layers()[0]).is_none());
        // 12 trials x 5 occurrences < 64 catalog events.
        let sparse = collapsible(&[&[0, 1]]);
        let sparse = sparse.with_yet_slice(sparse.yet().slice_trials(0..12));
        assert!(sparse.collapsed_layer_table(&sparse.layers()[0]).is_none());
        assert!(memoised(&sparse).is_empty());
        assert!(input.collapsed_layer_table(&input.layers()[1]).is_some());
    }

    #[test]
    fn different_elt_lists_never_share_a_table() {
        let input = collapsible(&[&[0, 1], &[1, 0], &[0, 1, 2]]);
        let tables: Vec<_> = input
            .layers()
            .iter()
            .map(|layer| input.collapsed_layer_table(layer).unwrap())
            .collect();
        assert_eq!(memoised(&input).len(), 3);
        for (i, a) in tables.iter().enumerate() {
            for b in &tables[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
    }

    #[test]
    fn cached_tables_never_exceed_the_lookup_memory() {
        use crate::{ParallelEngine, SequentialEngine};
        // 4 direct ELTs hold exactly 4 tables' worth of bytes; 9 distinct lists.
        let lists: [&[usize]; 9] = [
            &[0, 1],
            &[1, 0],
            &[0, 2],
            &[2, 0],
            &[1, 2],
            &[2, 1],
            &[0, 3],
            &[3, 0],
            &[0, 1, 2, 3],
        ];
        let input = collapsible(&lists);
        let reference = SequentialEngine::new().run(&input);
        // The second pass finds the memo full: uncached lists are rebuilt
        // for their layer pass and dropped again.
        for _ in 0..2 {
            let out = ParallelEngine::with_threads(1).run(&input);
            assert_eq!(reference.max_abs_difference(&out), 0.0);
            let cached_bytes: usize = memoised(&input).iter().map(|t| t.len() * 8).sum();
            assert!(cached_bytes <= input.lookup_memory_bytes());
            assert_eq!(cached_bytes, 4 * 64 * 8);
        }
    }

    #[test]
    fn explicit_catalog_size_override() {
        let mut b = tiny_builder();
        b.with_catalog_size(1_000);
        let e = b.add_elt(&[(999, 3.0)], FinancialTerms::pass_through());
        b.add_layer_over(&[e], LayerTerms::unlimited());
        let input = b.build().unwrap();
        assert_eq!(input.elts()[0].lookup.get(999), 3.0);
    }

    #[test]
    fn add_layer_with_full_struct() {
        let mut b = tiny_builder();
        let e = b.add_elt(&[(1, 1.0)], FinancialTerms::pass_through());
        let layer = catrisk_finterms::layer::LayerBuilder::new(LayerId(7))
            .covering(e)
            .with_terms(LayerTerms::aggregate(0.0, 100.0).unwrap())
            .build()
            .unwrap();
        b.add_layer(layer);
        let input = b.build().unwrap();
        assert_eq!(input.layers()[0].id, LayerId(7));
    }
}
