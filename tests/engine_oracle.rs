//! An engine oracle that shares no code with the engine.
//!
//! `cross_engine_equivalence` compares engines that all call into
//! `engine::steps` and `finterms::apply`, so it cannot see an error *in*
//! those.  [`algorithm_1`] below is a literal transcription of the paper's
//! basic algorithm (§II.B, lines 1–19) over `Vec` and `HashMap` only; every
//! engine — the per-ELT reference engines and the collapsed-table production
//! kernel alike — must reproduce it bit for bit.
//!
//! The inputs force both sides of the production kernel's cost rule (events
//! ≫ catalog and events < catalog; 1-ELT and multi-ELT layers), all four
//! lookup structures, non-trivial financial terms, zero and negative ELT
//! losses, event ids beyond the ELT catalog, and layers covering one ELT set
//! in different orders (the fold is order-sensitive in the last bits).

use std::collections::HashMap;

use catrisk::engine::chunked::ChunkedEngine;
use catrisk::engine::input::{AnalysisInput, AnalysisInputBuilder};
use catrisk::engine::parallel::ParallelEngine;
use catrisk::engine::sequential::SequentialEngine;
use catrisk::engine::streaming::StreamingEngine;
use catrisk::engine::ylt::{AnalysisOutput, TrialOutcome};
use catrisk::finterms::terms::{FinancialTerms, LayerTerms};
use catrisk::finterms::treaty::Treaty;
use catrisk::lookup::LookupKind;
use catrisk::portfolio::pricing::{price_losses, PricingConfig};
use catrisk::portfolio::realtime::RealTimeQuoter;

/// One ELT: its `event → loss` records and its financial terms
/// `(deductible, limit, share, fx_rate)`.
struct Elt {
    losses: HashMap<u32, f64>,
    terms: [f64; 4],
}

/// One layer: the ELTs it covers, in coverage order, and its terms
/// `(OccR, OccL, AggR, AggL)`.
struct OracleLayer {
    elts: Vec<usize>,
    terms: [f64; 4],
}

/// `(year loss, largest occurrence loss, occurrences with a loss)`.
type Row = (f64, f64, u32);

/// The paper's Algorithm 1; `trials[b]` is trial `b`'s event ids in time
/// order.  Returns one row per (layer, trial).
fn algorithm_1(trials: &[Vec<u32>], elts: &[Elt], layers: &[OracleLayer]) -> Vec<Vec<Row>> {
    let mut ylt = Vec::new();
    // Line 1: for all layers a.
    for layer in layers {
        let [occ_r, occ_l, agg_r, agg_l] = layer.terms;
        let mut rows = Vec::new();
        // Line 2: for all trials b.
        for trial in trials {
            let mut lx = vec![0.0f64; trial.len()];
            // Line 3: for all ELTs c covered by a.
            for &c in &layer.elts {
                let [deductible, limit, share, fx] = elts[c].terms;
                // Line 4: for all event occurrences d in b.
                for (d, event) in trial.iter().enumerate() {
                    // Line 5: x_d, the loss of the event in ELT c.
                    let x = elts[c].losses.get(event).copied().unwrap_or(0.0);
                    if x > 0.0 {
                        // Line 7: financial terms I; lines 8–9: sum over ELTs.
                        lx[d] += (x - deductible).max(0.0).min(limit) * share * fx;
                    }
                }
            }
            // Lines 10–11: occurrence terms.
            let (mut largest, mut with_loss) = (0.0f64, 0u32);
            for l in lx.iter_mut() {
                *l = (*l - occ_r).max(0.0).min(occ_l);
                if *l > 0.0 {
                    with_loss += 1;
                    largest = largest.max(*l);
                }
            }
            // Lines 12–13: cumulative sums.
            for d in 1..lx.len() {
                lx[d] += lx[d - 1];
            }
            // Lines 14–15: aggregate terms.
            for l in lx.iter_mut() {
                *l = (*l - agg_r).max(0.0).min(agg_l);
            }
            // Lines 16–19: difference back, sum into the year loss.
            let mut year_loss = 0.0;
            for d in 0..lx.len() {
                let previous = if d == 0 { 0.0 } else { lx[d - 1] };
                year_loss += lx[d] - previous;
            }
            rows.push((year_loss, largest, with_loss));
        }
        ylt.push(rows);
    }
    ylt
}

/// SplitMix64: the test's own generator, so inputs do not depend on simkit.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The same random analysis as plain data for the oracle and as an
/// [`AnalysisInput`] for the engines.
struct Case {
    trials: Vec<Vec<u32>>,
    elts: Vec<Elt>,
    layers: Vec<OracleLayer>,
    input: AnalysisInput,
}

/// `yet_catalog` bounds the YET's event ids, `elt_catalog <= yet_catalog`
/// the ELTs' (so some occurrences fall beyond every lookup structure).
fn case(
    seed: u64,
    kind: LookupKind,
    yet_catalog: u32,
    elt_catalog: u32,
    num_trials: usize,
    max_events: u32,
) -> Case {
    let mut rng = Rng(seed);
    let trials: Vec<Vec<u32>> = (0..num_trials)
        .map(|_| {
            (0..rng.below(max_events + 1))
                .map(|_| rng.below(yet_catalog))
                .collect()
        })
        .collect();

    let mut elts = Vec::new();
    for e in 0..4 {
        // Dense enough that most events sit in several ELTs.
        let mut losses = HashMap::new();
        for _ in 0..elt_catalog {
            let loss = match rng.below(10) {
                0 => 0.0,
                1 => -1.0e5 * rng.uniform(),
                _ => 1.0e6 * rng.uniform(),
            };
            losses.insert(rng.below(elt_catalog), loss);
        }
        let terms = match e {
            0 => [2.5e4, 6.0e5, 0.37, 1.0],
            1 => [0.0, f64::INFINITY, 1.0, 1.31],
            2 => [1.0e5, 4.0e5, 0.83, 0.77],
            // A negative deductible (unreachable through
            // `FinancialTerms::new`) makes `apply(x) > 0` for `x <= 0`, so
            // skipping line 6's `x > 0` guard is observable.
            _ => [-3.0e4, 7.5e5, 0.9, 1.0],
        };
        elts.push(Elt { losses, terms });
    }

    let layers = vec![
        OracleLayer {
            elts: vec![0, 1, 2],
            terms: [5.0e4, 9.0e5, 2.0e5, 6.0e6],
        },
        OracleLayer {
            elts: vec![2, 0, 1],
            terms: [5.0e4, 9.0e5, 2.0e5, 6.0e6],
        },
        OracleLayer {
            elts: vec![3],
            terms: [0.0, f64::INFINITY, 0.0, f64::INFINITY],
        },
        OracleLayer {
            elts: vec![3, 1, 0, 2],
            terms: [0.0, 1.2e6, 5.0e5, f64::INFINITY],
        },
        OracleLayer {
            elts: vec![1, 3],
            terms: [1.0e5, f64::INFINITY, 0.0, 3.0e6],
        },
    ];

    let mut b = AnalysisInputBuilder::new();
    b.with_lookup(kind);
    b.set_yet_from_trials(
        yet_catalog,
        trials
            .iter()
            .map(|t| {
                t.iter()
                    .zip(0u16..)
                    .map(|(&e, i)| (e, f32::from(i)))
                    .collect()
            })
            .collect(),
    );
    b.with_catalog_size(elt_catalog);
    for elt in &elts {
        let mut pairs: Vec<(u32, f64)> = elt.losses.iter().map(|(&e, &l)| (e, l)).collect();
        pairs.sort_by_key(|&(event, _)| event);
        let [deductible, limit, share, fx_rate] = elt.terms;
        b.add_elt(
            &pairs,
            FinancialTerms {
                deductible,
                limit,
                share,
                fx_rate,
            },
        );
    }
    for layer in &layers {
        let [occ_r, occ_l, agg_r, agg_l] = layer.terms;
        b.add_layer_over(
            &layer.elts,
            LayerTerms::new(occ_r, occ_l, agg_r, agg_l).unwrap(),
        );
    }
    Case {
        trials,
        elts,
        layers,
        input: b.build().unwrap(),
    }
}

fn assert_rows(expected: &[Row], outcomes: &[TrialOutcome], what: &str) {
    assert_eq!(expected.len(), outcomes.len(), "{what}: trial count");
    for (t, (row, outcome)) in expected.iter().zip(outcomes).enumerate() {
        let got = (
            outcome.year_loss.to_bits(),
            outcome.max_occurrence_loss.to_bits(),
            outcome.nonzero_events,
        );
        let want = (row.0.to_bits(), row.1.to_bits(), row.2);
        assert_eq!(
            got, want,
            "{what}: trial {t}: {outcome:?} vs oracle {row:?}"
        );
    }
}

fn assert_output(expected: &[Vec<Row>], output: &AnalysisOutput, what: &str) {
    assert_eq!(expected.len(), output.num_layers(), "{what}: layer count");
    for (l, rows) in expected.iter().enumerate() {
        assert_rows(
            rows,
            output.layer(l).outcomes(),
            &format!("{what}, layer {l}"),
        );
    }
}

/// Every engine against the oracle on one case.
fn check_engines(case: &Case, what: &str) {
    let expected = algorithm_1(&case.trials, &case.elts, &case.layers);
    assert!(
        expected.iter().all(|rows| rows.iter().any(|r| r.0 > 0.0)),
        "{what}: every layer must see losses"
    );
    let input = &case.input;
    let named = |engine: &str| format!("{what}, {engine}");
    assert_output(
        &expected,
        &SequentialEngine::new().run(input),
        &named("sequential"),
    );
    let (instrumented, _) = SequentialEngine::new().run_instrumented(input);
    assert_output(&expected, &instrumented, &named("instrumented"));
    for threads in [1, 3] {
        let output = ParallelEngine::with_threads(threads).run(input);
        assert_output(&expected, &output, &named(&format!("parallel x{threads}")));
    }
    let output = ParallelEngine::oversubscribed(2, 3).run(input);
    assert_output(&expected, &output, &named("oversubscribed 2x3"));
    let output = ChunkedEngine::with_threads(7, 2).run(input);
    assert_output(&expected, &output, &named("chunked 7"));

    let mut streamed: Vec<Vec<TrialOutcome>> = vec![Vec::new(); case.layers.len()];
    let streaming = StreamingEngine {
        block_size: 37,
        threads: 2,
    };
    streaming.run_with(input, |_, _, block| {
        for (l, ylt) in block.layers().iter().enumerate() {
            streamed[l].extend_from_slice(ylt.outcomes());
        }
    });
    for (l, rows) in expected.iter().enumerate() {
        assert_rows(rows, &streamed[l], &named(&format!("streaming, layer {l}")));
    }
}

#[test]
fn engines_match_algorithm_1_when_events_exceed_the_catalog() {
    // ~4 000 occurrences over 300 events: multi-ELT layers collapse.
    for (seed, kind) in (11..).zip(LookupKind::ALL) {
        let case = case(seed, kind, 300, 240, 200, 40);
        assert!(case.input.yet().total_events() > 10 * 300);
        check_engines(&case, &format!("dense {}", kind.label()));
    }
}

#[test]
fn engines_match_algorithm_1_when_the_catalog_exceeds_the_events() {
    // ~600 occurrences over 6 000 events: no layer collapses.
    for (seed, kind) in (23..).zip(LookupKind::ALL) {
        let case = case(seed, kind, 6_000, 5_000, 60, 20);
        assert!(case.input.yet().total_events() < 5_000);
        check_engines(&case, &format!("sparse {}", kind.label()));
    }
}

#[test]
fn repeated_quotes_match_algorithm_1_plus_pricing() {
    let treaties = [
        Treaty::cat_xl(5.0e4, 9.0e5),
        Treaty::AggregateXl {
            retention: 1.0e5,
            limit: 1.0e12,
        },
        Treaty::Combined {
            occ_retention: 1.0e5,
            occ_limit: 1.0e6,
            agg_retention: 5.0e5,
            agg_limit: 9.0e6,
        },
        Treaty::QuotaShare {
            cession: 0.4,
            event_limit: 7.0e5,
        },
    ];
    let pricing = PricingConfig::default();
    // A quote sums its trials, which absorbs a last-bit error in one
    // occurrence unless trials and occurrences are few: hence many tiny
    // cases (a dozen occurrences over 8 events, either side of the cost
    // rule) next to the two realistic ones.
    let tiny = (100..140).map(|seed| ("tiny", case(seed, LookupKind::Direct, 8, 8, 5, 4)));
    let realistic = [
        ("dense", case(5, LookupKind::Direct, 300, 300, 200, 40)),
        ("sparse", case(6, LookupKind::Direct, 6_000, 6_000, 60, 20)),
    ];
    for (what, case) in tiny.chain(realistic) {
        let quoter = RealTimeQuoter::new(&case.input, None, pricing).unwrap();
        // Two rounds, alternating the ELT order between quotes, so a table
        // memoised for one order is on offer to the other.
        for round in 0..2 {
            for treaty in treaties {
                for elts in [vec![0, 1, 2], vec![2, 0, 1], vec![3], vec![1, 3]] {
                    let terms = treaty.layer_terms();
                    let layer = OracleLayer {
                        elts: elts.clone(),
                        terms: [
                            terms.occ_retention,
                            terms.occ_limit,
                            terms.agg_retention,
                            terms.agg_limit,
                        ],
                    };
                    let rows = algorithm_1(&case.trials, &case.elts, &[layer]).remove(0);
                    let share = treaty.cession_share();
                    let losses: Vec<f64> = rows.iter().map(|r| r.0 * share).collect();
                    let annual_limit = if terms.agg_limit.is_finite() {
                        terms.agg_limit
                    } else {
                        terms.occ_limit
                    };
                    let expected = price_losses(&losses, annual_limit * share, &pricing);
                    let quoted = quoter.quote(treaty, &elts).unwrap().quote;
                    assert_eq!(
                        quoted, expected,
                        "{what}, round {round}, {treaty:?} over {elts:?}"
                    );
                }
            }
        }
    }
}
