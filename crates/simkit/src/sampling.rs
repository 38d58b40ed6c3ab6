//! Fast sampling utilities: alias tables, shuffling and stratified index
//! partitioning.
//!
//! The Year Event Table generator draws hundreds of millions of events from
//! a weighted catalog, so O(1) weighted sampling matters; the alias method
//! (Walker/Vose) provides exactly that.

use crate::rng::SimRng;
use crate::{ParamError, Result};

/// Walker/Vose alias table for O(1) sampling from a discrete distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// The weights need not be normalised.  At least one weight must be
    /// positive and the number of categories must fit in a `u32`.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(ParamError::new("AliasTable requires at least one weight"));
        }
        if weights.len() > u32::MAX as usize {
            return Err(ParamError::new(
                "AliasTable supports at most 2^32-1 categories",
            ));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ParamError::new(
                "AliasTable weights must be finite and non-negative",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ParamError::new("AliasTable weights must not all be zero"));
        }
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];

        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Any leftovers are numerically 1.0.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        Ok(Self { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no categories (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one category index.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let i = rng.below(self.prob.len() as u64) as usize;
        if rng.uniform() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Splits `0..n` into `parts` contiguous, nearly equal ranges.
///
/// Used for stratified assignment of trials to worker threads; every index
/// appears in exactly one range and ranges are returned in order.
pub fn stratify(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if parts == 0 || n == 0 {
        return vec![];
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Fisher–Yates shuffle of a mutable slice.
pub fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    #[test]
    fn alias_table_matches_weights() {
        let weights = [0.1, 0.0, 0.4, 0.5];
        let table = AliasTable::new(&weights).unwrap();
        assert_eq!(table.len(), 4);
        let mut rng = RngFactory::new(1).stream(0);
        let n = 200_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        for (i, &w) in weights.iter().enumerate() {
            let observed = f64::from(counts[i]) / n as f64;
            assert!(
                (observed - w).abs() < 0.01,
                "category {i}: {observed} vs {w}"
            );
        }
    }

    #[test]
    fn alias_table_single_and_uniform() {
        let t = AliasTable::new(&[3.0]).unwrap();
        let mut rng = RngFactory::new(2).stream(0);
        assert_eq!(t.sample(&mut rng), 0);

        let t = AliasTable::new(&[1.0; 16]).unwrap();
        let mut counts = [0u32; 16];
        for _ in 0..160_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((f64::from(c) - 10_000.0).abs() < 1_000.0);
        }
    }

    #[test]
    fn alias_table_rejects_bad_input() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, -2.0]).is_err());
        assert!(AliasTable::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn stratify_covers_everything_once() {
        for (n, parts) in [(10, 3), (7, 7), (5, 9), (1000, 8), (0, 4), (4, 0)] {
            let ranges = stratify(n, parts);
            if parts == 0 {
                assert!(ranges.is_empty());
                continue;
            }
            let mut covered = vec![false; n];
            for r in &ranges {
                for i in r.clone() {
                    assert!(!covered[i], "index {i} covered twice");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "n={n} parts={parts}");
            if n > 0 && parts > 0 {
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = RngFactory::new(5).stream(0);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
