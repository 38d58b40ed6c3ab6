//! Synthetic workload construction with exactly controlled shape.

use catrisk_engine::input::{AnalysisInput, AnalysisInputBuilder};
use catrisk_engine::ylt::{TrialOutcome, YearLossTable};
use catrisk_eventgen::peril::Region;
use catrisk_eventgen::yet::{EventOccurrence, YetBuilder};
use catrisk_finterms::layer::LayerId;
use catrisk_finterms::terms::{FinancialTerms, LayerTerms};
use catrisk_lookup::LookupKind;
use catrisk_riskquery::{LineOfBusiness, ResultStore, SegmentMeta};
use catrisk_simkit::distributions::{Distribution, LogNormal, Poisson};
use catrisk_simkit::rng::RngFactory;

/// The shape of an aggregate-analysis workload.
///
/// The defaults are the *bench-scale* problem the perf ledger and the
/// `figures` harness start from; [`WorkloadSpec::paper_scale`] is the paper's
/// standard problem (1 M trials × 1000 events × 15 ELTs — ~15 billion
/// lookups), which is practical for the simulated-GPU timing model but slow
/// for wall-clock CPU sweeps on a laptop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Size of the stochastic event catalog (event ids are `0..num_events`).
    pub num_events: u32,
    /// Number of trials in the Year Event Table.
    pub trials: usize,
    /// Mean number of events per trial (Poisson distributed per trial).
    pub events_per_trial: f64,
    /// Number of ELTs available to layers.
    pub num_elts: usize,
    /// Number of `(event, loss)` records per ELT.
    pub elt_records: usize,
    /// Number of layers.
    pub num_layers: usize,
    /// Number of ELTs covered by each layer.
    pub elts_per_layer: usize,
    /// Lookup structure used for the ELTs.
    pub lookup: LookupKind,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::bench_scale()
    }
}

impl WorkloadSpec {
    /// The default bench-scale problem: large enough to be memory-access
    /// bound, small enough for repeated wall-clock measurement.
    pub fn bench_scale() -> Self {
        Self {
            num_events: 200_000,
            trials: 20_000,
            events_per_trial: 1_000.0,
            num_elts: 15,
            elt_records: 15_000,
            num_layers: 1,
            elts_per_layer: 15,
            lookup: LookupKind::Direct,
            seed: 2012,
        }
    }

    /// A small smoke-test problem used by unit tests.
    pub fn tiny() -> Self {
        Self {
            num_events: 2_000,
            trials: 200,
            events_per_trial: 50.0,
            num_elts: 4,
            elt_records: 300,
            num_layers: 2,
            elts_per_layer: 3,
            lookup: LookupKind::Direct,
            seed: 7,
        }
    }

    /// The paper's standard problem size (§III.B): 1 M trials, 1000 events
    /// per trial, one layer of 15 ELTs over a 2 M-event catalog.
    pub fn paper_scale() -> Self {
        Self {
            num_events: 2_000_000,
            trials: 1_000_000,
            events_per_trial: 1_000.0,
            num_elts: 15,
            elt_records: 20_000,
            num_layers: 1,
            elts_per_layer: 15,
            lookup: LookupKind::Direct,
            seed: 2012,
        }
    }

    /// Total expected number of ELT lookups (`trials × events/trial × ELTs
    /// per layer × layers`).
    pub fn expected_lookups(&self) -> f64 {
        self.trials as f64
            * self.events_per_trial
            * self.elts_per_layer as f64
            * self.num_layers as f64
    }

    /// Scales the trial count (used by Fig. 2b).
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Scales the events per trial (used by Fig. 2d).
    pub fn with_events_per_trial(mut self, events: f64) -> Self {
        self.events_per_trial = events;
        self
    }

    /// Sets ELTs per layer (used by Fig. 2a).
    pub fn with_elts_per_layer(mut self, elts: usize) -> Self {
        self.elts_per_layer = elts;
        self.num_elts = self.num_elts.max(elts);
        self
    }

    /// Sets the number of layers (used by Fig. 2c).
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.num_layers = layers;
        self
    }

    /// Sets the lookup structure (used by the lookup ablation).
    pub fn with_lookup(mut self, lookup: LookupKind) -> Self {
        self.lookup = lookup;
        self
    }
}

/// Builds the analysis input for a workload specification.
///
/// Event losses are log-normally distributed (heavy tailed, like real ELTs);
/// trial event counts are Poisson around `events_per_trial`; every layer
/// covers a distinct rotation of the ELT list and carries representative
/// per-occurrence and aggregate terms so all four steps of the algorithm do
/// real work.
pub fn build_input(spec: &WorkloadSpec) -> AnalysisInput {
    assert!(
        spec.elts_per_layer <= spec.num_elts,
        "layers cannot cover more ELTs than exist"
    );
    let factory = RngFactory::new(spec.seed).derive("bench-workload");
    let mut builder = AnalysisInputBuilder::new();
    builder.with_lookup(spec.lookup);

    // Year Event Table: Poisson number of uniformly drawn events per trial.
    let count_dist = Poisson::new(spec.events_per_trial).expect("positive mean");
    let mut yet = YetBuilder::new(
        spec.num_events,
        spec.trials,
        spec.events_per_trial as usize + 8,
    );
    let yet_factory = factory.derive("yet");
    let mut trial_buffer: Vec<EventOccurrence> = Vec::new();
    for t in 0..spec.trials {
        let mut rng = yet_factory.stream(t as u64);
        let n = count_dist.sample(&mut rng) as usize;
        trial_buffer.clear();
        trial_buffer.reserve(n);
        for i in 0..n {
            trial_buffer.push(EventOccurrence {
                event: rng.below(u64::from(spec.num_events)) as u32,
                time: 365.0 * (i as f32 + 0.5) / n.max(1) as f32,
            });
        }
        yet.push_sorted_trial(&trial_buffer);
    }
    builder.set_yet(yet.build());

    // ELTs: heavy-tailed losses over uniformly drawn event ids.
    let loss_dist = LogNormal::from_mean_cv(250_000.0, 2.0).expect("valid");
    let elt_factory = factory.derive("elts");
    for e in 0..spec.num_elts {
        let mut rng = elt_factory.stream(e as u64);
        let mut pairs = Vec::with_capacity(spec.elt_records);
        for _ in 0..spec.elt_records {
            pairs.push((
                rng.below(u64::from(spec.num_events)) as u32,
                loss_dist.sample(&mut rng),
            ));
        }
        let terms = FinancialTerms::new(10_000.0, 5_000_000.0, 0.9, 1.0).expect("valid");
        builder.add_elt(&pairs, terms);
    }

    // Layers: rotations of the ELT list under representative XL terms.
    for l in 0..spec.num_layers {
        let indices: Vec<usize> = (0..spec.elts_per_layer)
            .map(|i| (l + i) % spec.num_elts)
            .collect();
        let terms =
            LayerTerms::new(100_000.0, 2_000_000.0, 500_000.0, 10_000_000.0).expect("valid");
        builder.add_layer_over(&indices, terms);
    }

    builder
        .build()
        .expect("workload construction is internally consistent")
}

/// A production-shaped in-memory result store for the serving gates:
/// `books` books, each one `(region, line of business)` with a layer per
/// book and one segment per peril active in the region,
/// ~25 % of trials carrying a loss.  `stream` names the RNG stream, so
/// each gate keeps the exact store it has always measured.
pub fn build_store(trials: usize, books: usize, seed: u64, stream: &str) -> ResultStore {
    let factory = RngFactory::new(seed).derive(stream);
    let mut store = ResultStore::new(trials);
    let mut segment = 0u64;
    for book in 0..books {
        let region = Region::ALL[book % Region::ALL.len()];
        let lob = LineOfBusiness::ALL[book % LineOfBusiness::ALL.len()];
        for peril in region.active_perils() {
            let mut rng = factory.stream(segment);
            segment += 1;
            let outcomes: Vec<TrialOutcome> = (0..trials)
                .map(|_| {
                    let year = if rng.uniform() < 0.25 {
                        rng.uniform() * 5.0e6
                    } else {
                        0.0
                    };
                    TrialOutcome {
                        year_loss: year,
                        max_occurrence_loss: year * rng.uniform(),
                        nonzero_events: u32::from(year > 0.0),
                    }
                })
                .collect();
            let meta = SegmentMeta::new(LayerId(book as u32), *peril, region, lob);
            store
                .ingest(&YearLossTable::new(LayerId(book as u32), outcomes), meta)
                .expect("ingest");
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use catrisk_engine::sequential::SequentialEngine;

    #[test]
    fn tiny_workload_matches_spec() {
        let spec = WorkloadSpec::tiny();
        let input = build_input(&spec);
        assert_eq!(input.num_trials(), spec.trials);
        assert_eq!(input.elts().len(), spec.num_elts);
        assert_eq!(input.layers().len(), spec.num_layers);
        assert_eq!(input.layers()[0].num_elts(), spec.elts_per_layer);
        let avg = input.yet().avg_events_per_trial();
        assert!((avg - spec.events_per_trial).abs() < 5.0, "avg {avg}");
        // The workload produces non-trivial losses.
        let out = SequentialEngine::new().run(&input);
        assert!(out.layer(0).mean_loss() > 0.0);
    }

    #[test]
    fn workload_is_deterministic() {
        let spec = WorkloadSpec::tiny();
        let a = SequentialEngine::new().run(&build_input(&spec));
        let b = SequentialEngine::new().run(&build_input(&spec));
        assert_eq!(a.max_abs_difference(&b), 0.0);
    }

    #[test]
    fn sweep_helpers_adjust_shape() {
        let spec = WorkloadSpec::tiny()
            .with_trials(77)
            .with_events_per_trial(20.0);
        let input = build_input(&spec);
        assert_eq!(input.num_trials(), 77);
        assert!(input.yet().avg_events_per_trial() < 30.0);

        let spec = WorkloadSpec::tiny().with_elts_per_layer(4).with_layers(3);
        let input = build_input(&spec);
        assert_eq!(input.layers().len(), 3);
        assert_eq!(input.layers()[2].num_elts(), 4);

        let spec = WorkloadSpec::tiny().with_lookup(LookupKind::Sorted);
        let input = build_input(&spec);
        assert_eq!(input.elts()[0].lookup.kind(), LookupKind::Sorted);
    }

    #[test]
    fn expected_lookups_formula() {
        let spec = WorkloadSpec::paper_scale();
        assert!((spec.expected_lookups() - 15.0e9).abs() < 1.0);
        assert_eq!(WorkloadSpec::default(), WorkloadSpec::bench_scale());
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn invalid_spec_panics() {
        let mut spec = WorkloadSpec::tiny();
        spec.elts_per_layer = spec.num_elts + 1;
        build_input(&spec);
    }
}
