//! Running statistics and the scalar loss kernels: quantiles and tail
//! means of sorted slices, and [`OrderStats`], the order-statistics
//! kernel that answers them without sorting a whole loss vector.
//!
//! These primitives back the Year Loss Table analytics in `catrisk-metrics`
//! (PML, VaR, TVaR), the query engine's quantile-family aggregates and the
//! distribution checks in the test suites.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance/min/max accumulator
/// (Welford's online algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds every observation in a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// Coefficient of variation (std/mean), 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Mean of a loss vector (0 when empty).
///
/// The shared scalar kernel behind `YearLossTable::mean_loss` and the query
/// engine's `mean` aggregate — both call this, so their results agree by
/// construction.
pub fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation (`n` divisor; 0 when fewer than two
/// observations), shared by `YearLossTable::loss_std_dev` and the query
/// engine's `stddev` aggregate.
pub fn population_std_dev(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mean = mean_or_zero(values);
    let variance = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    variance.sqrt()
}

/// Largest value, folding from 0 (so it is 0 when empty — losses are
/// non-negative), shared by `YearLossTable::max_loss` and the query
/// engine's `maxloss` aggregate.
pub fn max_or_zero(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Fraction of strictly positive values (0 when empty), shared by
/// `YearLossTable::nonzero_fraction` and the query engine's `attach`
/// aggregate.
pub fn positive_fraction(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().filter(|&&x| x > 0.0).count() as f64 / values.len() as f64
    }
}

/// Linear-interpolation quantile (R type-7 / Excel `PERCENTILE.INC`) of a
/// **sorted ascending** slice.
///
/// `q` is clamped into `[0, 1]`.  Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    quantile_by_rank(sorted.len(), q, |k| sorted[k])
}

/// The type-7 quantile of [`quantile_sorted`] over `len` observations
/// whose `k`-th smallest is `rank(k)` — the one home of the interpolation,
/// shared by sorted slices and [`OrderStats::quantile`].
///
/// `q` is clamped into `[0, 1]`.  Panics when `len` is 0.
fn quantile_by_rank(len: usize, q: f64, mut rank: impl FnMut(usize) -> f64) -> f64 {
    assert!(len > 0, "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if len == 1 {
        return rank(0);
    }
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (at_lo, at_hi) = (rank(lo), rank(hi));
    at_lo + (at_hi - at_lo) * frac
}

/// Mean of the observations at or above quantile `q` of a sorted slice —
/// the empirical tail conditional expectation used by TVaR.
pub fn tail_mean_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "tail_mean of empty slice");
    let tail = &sorted[tail_start(sorted.len(), q)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// First rank of the TVaR tail at level `q` (clamped into `[0, 1]`) of
/// `len > 0` observations: the tail always keeps at least the largest.
fn tail_start(len: usize, q: f64) -> usize {
    let q = q.clamp(0.0, 1.0);
    let start = ((len as f64) * q).floor() as usize;
    start.min(len - 1)
}

const SIGN: u64 = 1 << 63;
/// Order keys of `-0.0` and `+0.0`: adjacent, so the zeros of a sorted
/// key vector form one contiguous run.
const NEG_ZERO_KEY: u64 = !SIGN;
const POS_ZERO_KEY: u64 = SIGN;

/// The order key of a non-NaN `f64`: `bits | 1<<63` when the sign bit is
/// clear, `!bits` when it is set.  Unsigned key order is `f64::total_cmp`
/// order, which on non-NaN values is `partial_cmp` order except that it
/// puts `-0.0` strictly below `+0.0`.
#[inline]
fn order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    bits ^ (((bits as i64) >> 63) as u64 | SIGN)
}

/// Inverse of [`order_key`].
#[inline]
fn key_value(key: u64) -> f64 {
    f64::from_bits(key ^ (((!key as i64) >> 63) as u64 | SIGN))
}

/// Order statistics of a loss vector, answered by lazy selection instead
/// of one full sort — the kernel behind VaR, TVaR, PML and EP curves.
///
/// The vector is held as `u64` order keys (`bits | 1<<63` for a value
/// whose sign bit is clear, `!bits` otherwise).  [`rank`](Self::rank)
/// places one rank with `select_nth_unstable` inside the smallest interval
/// between ranks already placed, so a VaR costs a linear pass and a second
/// quantile a pass over what is left around it.  [`tail_mean`](Self::tail_mean)
/// places the tail start and sorts only the tail.  Any order of calls on
/// one instance gives the same values.
///
/// **Bit-identical to a stable `sort_by(partial_cmp)`.**  On non-NaN values
/// key order is `partial_cmp` order except for `±0.0`, and values that
/// compare equal otherwise have equal bits, so the value at every rank is
/// the stable sort's whatever order the selection leaves equal keys in.
/// An input holding a `-0.0` is sorted in full on construction instead,
/// with its run of zeros rewritten in input order (the stable sort's
/// order).  The query engine never hits that path — its partials
/// normalise `-0.0` to `+0.0` — but `catrisk-metrics` callers may.
///
/// The keys are why the selection is fast: a comparator over `f64` that
/// must reject NaN (`partial_cmp(..).expect(..)`) panics on a branch in
/// every comparison, which defeats the branchless partition that integer
/// keys get.  NaN is rejected once, on construction, with the message the
/// panicking comparator used ("finite losses").
#[derive(Debug)]
pub struct OrderStats {
    keys: Vec<u64>,
    /// Ranks already placed, ascending: `keys[p]` is final and every key
    /// before `p` is `<=` it, every key after `>=` it.
    placed: Vec<usize>,
    /// `keys[sorted_from..]` is final (`len` while no suffix is).
    sorted_from: usize,
}

impl OrderStats {
    /// Order statistics of `values` (any order; copied).
    ///
    /// # Panics
    /// If a value is NaN ("finite losses").
    pub fn new(values: &[f64]) -> Self {
        Self::from_values(values.iter().copied())
    }

    /// [`new`](Self::new) reusing `values`' allocation for the keys.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Self::from_values(values.into_iter())
    }

    fn from_values(values: impl Iterator<Item = f64>) -> Self {
        let (mut nan, mut neg_zero) = (false, false);
        let mut keys: Vec<u64> = values
            .map(|value| {
                nan |= value.is_nan();
                neg_zero |= value.to_bits() == (-0.0f64).to_bits();
                order_key(value)
            })
            .collect();
        assert!(!nan, "finite losses");
        let mut sorted_from = keys.len();
        if neg_zero {
            let zeros: Vec<u64> = keys
                .iter()
                .copied()
                .filter(|&key| key == NEG_ZERO_KEY || key == POS_ZERO_KEY)
                .collect();
            keys.sort_unstable();
            let first = keys.partition_point(|&key| key < NEG_ZERO_KEY);
            keys[first..first + zeros.len()].copy_from_slice(&zeros);
            sorted_from = 0;
        }
        Self {
            keys,
            placed: Vec::new(),
            sorted_from,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no observations.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The `k`-th smallest value (0-based).  Panics when `k >= len`.
    pub fn rank(&mut self, k: usize) -> f64 {
        assert!(
            k < self.keys.len(),
            "rank {k} of {} values",
            self.keys.len()
        );
        if k < self.sorted_from {
            if let Err(at) = self.placed.binary_search(&k) {
                let lo = if at == 0 { 0 } else { self.placed[at - 1] + 1 };
                let hi = self.placed.get(at).copied().unwrap_or(self.sorted_from);
                self.keys[lo..hi].select_nth_unstable(k - lo);
                self.placed.insert(at, k);
            }
        }
        key_value(self.keys[k])
    }

    /// The type-7 quantile at `q` ([`quantile_sorted`] of the sorted
    /// values).  Panics when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        quantile_by_rank(self.len(), q, |k| self.rank(k))
    }

    /// The mean of the values at or above quantile `q`
    /// ([`tail_mean_sorted`] of the sorted values).  Panics when empty.
    pub fn tail_mean(&mut self, q: f64) -> f64 {
        assert!(!self.is_empty(), "tail_mean of empty slice");
        let start = tail_start(self.len(), q);
        self.sort_from(start);
        let tail = &self.keys[start..];
        tail.iter().map(|&key| key_value(key)).sum::<f64>() / tail.len() as f64
    }

    /// The values sorted ascending, exactly as a stable
    /// `sort_by(partial_cmp)` orders them.
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.sort_from(0);
        self.keys.into_iter().map(key_value).collect()
    }

    /// Makes `keys[start..]` final: places `start`, then sorts what lies
    /// above it up to the already sorted suffix.
    fn sort_from(&mut self, start: usize) {
        if start >= self.sorted_from {
            return;
        }
        self.rank(start);
        self.keys[start + 1..self.sorted_from].sort_unstable();
        self.sorted_from = start;
        let below = self.placed.partition_point(|&p| p < start);
        self.placed.truncate(below);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        s.extend(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 10.0);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!(s.std_error() > 0.0);
        assert!(s.cv() > 0.0);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.variance(), 0.0);
        let mut s = RunningStats::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        whole.extend(&data);
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        a.extend(&data[..400]);
        b.extend(&data[400..]);
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());

        let mut empty = RunningStats::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        let mut w2 = whole;
        w2.merge(&RunningStats::new());
        assert_eq!(w2.count(), whole.count());
    }

    #[test]
    fn quantile_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert!((quantile_sorted(&v, 0.25) - 2.0).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.1) - 1.4).abs() < 1e-12);
        // Clamping out-of-range q.
        assert_eq!(quantile_sorted(&v, -1.0), 1.0);
        assert_eq!(quantile_sorted(&v, 2.0), 5.0);
        // Single element.
        assert_eq!(quantile_sorted(&[9.0], 0.3), 9.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn order_keys_round_trip_in_total_order() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for pair in values.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
        }
        for value in values {
            assert_eq!(key_value(order_key(value)).to_bits(), value.to_bits());
        }
        assert_eq!(order_key(-0.0), NEG_ZERO_KEY);
        assert_eq!(order_key(0.0), POS_ZERO_KEY);
    }

    #[test]
    fn order_stats_ranks_in_any_call_order() {
        let values: Vec<f64> = (0..97).map(|i| ((i * 37) % 97) as f64).collect();
        for ks in [[0usize, 96, 50, 49, 51], [50, 51, 49, 96, 0]] {
            let mut stats = OrderStats::new(&values);
            for k in ks {
                assert_eq!(stats.rank(k), k as f64);
            }
            assert_eq!(
                stats.tail_mean(0.9),
                tail_mean_sorted(&sorted(&values), 0.9)
            );
            assert_eq!(stats.rank(3), 3.0);
            assert_eq!(stats.into_sorted(), sorted(&values));
        }
        assert!(OrderStats::new(&[]).into_sorted().is_empty());
    }

    fn sorted(values: &[f64]) -> Vec<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted
    }

    #[test]
    fn a_minus_zero_keeps_the_zeros_in_input_order() {
        let values = [0.0, 2.0, -0.0, -1.0, 0.0, -0.0];
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(OrderStats::new(&values).into_sorted()),
            bits(sorted(&values))
        );
        assert_eq!(OrderStats::new(&values).rank(1).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            OrderStats::new(&values).rank(2).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "finite losses")]
    fn order_stats_reject_nan() {
        OrderStats::new(&[f64::NAN]);
    }

    #[test]
    fn tail_mean_matches_manual() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        // Top 20% = {9, 10}
        assert!((tail_mean_sorted(&v, 0.8) - 9.5).abs() < 1e-12);
        // q = 0 is the plain mean.
        assert!((tail_mean_sorted(&v, 0.0) - 5.5).abs() < 1e-12);
        // q = 1 degenerates to the maximum.
        assert_eq!(tail_mean_sorted(&v, 1.0), 10.0);
    }
}
