//! `OrderStats` against the stable sort it replaced, bit for bit.
//!
//! Every quantile-family answer used to sort a copy of the losses with
//! `sort_by(partial_cmp)` and read `quantile_sorted`, `tail_mean_sorted`
//! or an `ExceedanceCurve` off the sorted slice.  The oracle below keeps
//! exactly that, and the kernel must reproduce its bits on inputs built to
//! stress the order keys: long zero and duplicate runs, negatives, `±inf`
//! and mixed `±0.0`, asked in different call orders on one instance
//! (the kernel's lazy state depends on the order).

use catrisk_metrics::ep::{self, ExceedanceCurve};
use catrisk_metrics::var::{tvar, var, var_tvar_profile};
use catrisk_simkit::stats::{quantile_sorted, tail_mean_sorted, OrderStats};

const LEVELS: [f64; 7] = [0.0, 0.5, 0.9, 0.95, 0.99, 0.995, 1.0];
/// `LEVELS[TAIL_LEVELS..]` are the levels whose TVaR sorts only a tail.
const TAIL_LEVELS: usize = 2;
const RETURN_PERIODS: [f64; 3] = [50.0, 100.0, 250.0];
const CURVE_POINTS: usize = 10;

/// SplitMix64: a self-contained, seedable stream for the case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A loss-like magnitude spanning twelve decades.
    fn magnitude(&mut self) -> f64 {
        let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (1.0 + mantissa) * 10f64.powi(self.below(12) as i32 - 2)
    }
}

/// One random loss vector: 1 to 5 000 values laid out as runs.
fn case(rng: &mut Rng, non_negative: bool) -> Vec<f64> {
    let len = match rng.below(3) {
        0 => 1 + rng.below(8) as usize,
        1 => 1 + rng.below(200) as usize,
        _ => 1 + rng.below(5_000) as usize,
    };
    let minus_zero = rng.chance(50);
    let negatives = !non_negative && rng.chance(40);
    let infinities = !non_negative && rng.chance(25);
    let mut values = Vec::with_capacity(len);
    while values.len() < len {
        let longest = if rng.chance(20) { 400 } else { 4 };
        let run = 1 + rng.below(longest) as usize;
        let value = match rng.below(10) {
            0..=2 => {
                if minus_zero && rng.chance(50) {
                    -0.0
                } else {
                    0.0
                }
            }
            3 if negatives => -rng.magnitude(),
            4 if infinities => {
                if !negatives || rng.chance(50) {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            _ => rng.magnitude(),
        };
        for _ in 0..run.min(len - values.len()) {
            // Zero runs interleave the two signs value by value.
            values.push(if value == 0.0 && minus_zero && rng.chance(30) {
                -value
            } else {
                value
            });
        }
    }
    values
}

fn stable_sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite losses"));
    sorted
}

/// The answers of one loss vector, as bits.
#[derive(Debug, PartialEq)]
struct Answers {
    var: Vec<u64>,
    tvar: Vec<u64>,
    pml: Vec<u64>,
    curve: Vec<(u64, u64)>,
}

/// Today's formulas over the stably sorted copy.
fn oracle(values: &[f64]) -> Answers {
    let sorted = stable_sorted(values);
    let lowest = 1.0 / sorted.len() as f64;
    Answers {
        var: LEVELS
            .iter()
            .map(|&q| quantile_sorted(&sorted, q).to_bits())
            .collect(),
        tvar: LEVELS
            .iter()
            .map(|&q| tail_mean_sorted(&sorted, q).to_bits())
            .collect(),
        pml: RETURN_PERIODS
            .iter()
            .map(|&years| quantile_sorted(&sorted, 1.0 - 1.0 / years).to_bits())
            .collect(),
        curve: (0..CURVE_POINTS)
            .map(|i| {
                let p = 1.0 - (1.0 - lowest) * (i as f64 / (CURVE_POINTS - 1) as f64);
                (p.to_bits(), quantile_sorted(&sorted, 1.0 - p).to_bits())
            })
            .collect(),
    }
}

#[derive(Clone, Copy, Debug)]
enum Ask {
    Var,
    Tvar,
    Pml,
    Curve,
}

/// The kernel's answers, asked in `order` on one instance.
fn kernel(values: &[f64], order: &[Ask]) -> Answers {
    let mut stats = OrderStats::new(values);
    let mut answers = Answers {
        var: Vec::new(),
        tvar: Vec::new(),
        pml: Vec::new(),
        curve: Vec::new(),
    };
    for ask in order {
        match ask {
            Ask::Var => {
                answers.var = LEVELS
                    .iter()
                    .map(|&q| stats.quantile(q).to_bits())
                    .collect()
            }
            Ask::Tvar => {
                // Tail levels only, highest first: each tail grows the
                // sorted suffix, which the other asks must then respect.
                // The lowest levels sort (nearly) everything, so they are
                // asked last, below.
                answers.tvar = LEVELS[TAIL_LEVELS..]
                    .iter()
                    .rev()
                    .map(|&q| stats.tail_mean(q).to_bits())
                    .collect();
            }
            Ask::Pml => {
                answers.pml = RETURN_PERIODS
                    .iter()
                    .map(|&years| ep::loss_at_return_period(years, |q| stats.quantile(q)).to_bits())
                    .collect()
            }
            Ask::Curve => {
                answers.curve = ep::curve_points(stats.len(), CURVE_POINTS, |q| stats.quantile(q))
                    .into_iter()
                    .map(|(p, loss)| (p.to_bits(), loss.to_bits()))
                    .collect()
            }
        }
    }
    answers.tvar.extend(
        LEVELS[..TAIL_LEVELS]
            .iter()
            .rev()
            .map(|&q| stats.tail_mean(q).to_bits()),
    );
    answers.tvar.reverse();
    answers
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn order_stats_match_the_stable_sort_bit_for_bit() {
    use Ask::*;
    let orders: [&[Ask]; 4] = [
        &[Var, Tvar, Pml, Curve],
        &[Curve, Pml, Tvar, Var],
        &[Tvar, Curve, Var, Pml],
        &[Pml, Var, Curve, Tvar],
    ];
    let mut rng = Rng(0x0DDE_57A7);
    for case_index in 0..400 {
        let values = case(&mut rng, false);
        let expected = oracle(&values);
        for order in orders {
            assert_eq!(
                kernel(&values, order),
                expected,
                "case {case_index} ({} values) asked {order:?}",
                values.len()
            );
        }
        // A few single ranks asked out of order, then the full sort.
        let sorted = stable_sorted(&values);
        let mut stats = OrderStats::new(&values);
        for _ in 0..4 {
            let k = rng.below(values.len() as u64) as usize;
            assert_eq!(
                stats.rank(k).to_bits(),
                sorted[k].to_bits(),
                "case {case_index} rank {k}"
            );
        }
        assert_eq!(
            bits(&stats.into_sorted()),
            bits(&sorted),
            "case {case_index}"
        );
        assert_eq!(
            bits(&OrderStats::from_vec(values.clone()).into_sorted()),
            bits(&sorted),
            "case {case_index}"
        );
    }
}

#[test]
fn metrics_and_curves_match_the_stable_sort() {
    let mut rng = Rng(0xC0FF_EE11);
    for case_index in 0..200 {
        let values = case(&mut rng, true);
        let sorted = stable_sorted(&values);
        let expected = oracle(&values);
        for (at, &level) in LEVELS.iter().enumerate() {
            assert_eq!(
                var(&values, level).to_bits(),
                expected.var[at],
                "case {case_index}"
            );
            assert_eq!(
                tvar(&values, level).to_bits(),
                expected.tvar[at],
                "case {case_index}"
            );
        }
        let profile: Vec<(u64, u64)> = var_tvar_profile(&values, &LEVELS)
            .into_iter()
            .map(|(_, v, t)| (v.to_bits(), t.to_bits()))
            .collect();
        let oracle_profile: Vec<(u64, u64)> = expected
            .var
            .iter()
            .copied()
            .zip(expected.tvar.iter().copied())
            .collect();
        assert_eq!(profile, oracle_profile, "case {case_index}");

        let curve = ExceedanceCurve::new(values.clone());
        assert_eq!(
            bits(curve.sorted_losses()),
            bits(&sorted),
            "case {case_index}"
        );
        let pml: Vec<u64> = RETURN_PERIODS
            .iter()
            .map(|&years| curve.loss_at_return_period(years).to_bits())
            .collect();
        assert_eq!(pml, expected.pml, "case {case_index}");
        let points: Vec<(u64, u64)> = curve
            .curve_points(CURVE_POINTS)
            .into_iter()
            .map(|(p, loss)| (p.to_bits(), loss.to_bits()))
            .collect();
        assert_eq!(points, expected.curve, "case {case_index}");
    }
}

#[test]
#[should_panic(expected = "finite losses")]
fn a_nan_among_losses_panics() {
    OrderStats::new(&[3.0, 0.0, f64::NAN, 1.0]);
}

#[test]
#[should_panic(expected = "finite losses")]
fn var_of_a_nan_panics() {
    var(&[1.0, f64::NAN], 0.99);
}
