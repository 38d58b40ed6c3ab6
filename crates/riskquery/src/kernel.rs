//! Vectorized block-scan kernels: the innermost loops of every query.
//!
//! Each query bottoms out in two loops over a trial block's loss slices —
//! fused add/max accumulation ([`accumulate_fused`]) and loss-range
//! compaction ([`retain_fused`]).  This module owns those loops.  The
//! fused accumulation is one safe kernel body that the compiler
//! vectorises at each lane width, behind runtime dispatch, following the
//! paper's follow-up observation that for this kernel *vectorization*,
//! not core count, is the decisive hardware lever.
//!
//! ## Lane abstraction
//!
//! [`SimdLevel`] names the lane width a kernel runs at: `Scalar` (the
//! portable reference), `F64x2` (128-bit lanes, x86-64 SSE2 — always
//! present at the x86-64 baseline), `F64x4` (256-bit AVX) and `F64x8`
//! (512-bit AVX-512F), the wider two detected at runtime.  `Scalar` and
//! `F64x2` both run the body as compiled for the baseline; `F64x4` and
//! `F64x8` run it inside a `#[target_feature]` wrapper, so the compiler
//! emits the wider lanes.  [`active_level`] caches the detection;
//! `CATRISK_SIMD` (`scalar` / `f64x2` / `f64x4` / `f64x8`) caps it for
//! experiments, and [`force_level`] overrides it programmatically for the
//! gates and the bit-identity tests.
//!
//! ## Why SIMD cannot change bits
//!
//! Every level performs the *same operation on the same index*: lane `i`
//! of a vector add computes exactly `acc[i] + v[i]`, the one scalar add
//! the body performs at index `i` — elements never interact across
//! lanes, nothing is reassociated, and no fused-multiply-add contracts
//! two roundings into one (Rust never contracts without being asked).
//! The max merge is written as the lane select `if v > acc { v } else {
//! acc }` precisely because that is the documented per-lane semantics of
//! the x86 `MAXPD` family (on a NaN or equal compare the second operand —
//! the accumulator — is returned), so every width agrees bit-for-bit on
//! all inputs, including the `±0.0` tie `f64::max` leaves unspecified.
//! The unit tests check the body against `_mm_add_pd` / `_mm_max_pd` on
//! those ties, and `tests/scan_determinism.rs` checks whole queries at
//! every detected level.
//!
//! ## Scheduling granularity
//!
//! The scan splits its trial window into `scan_parts()` blocks —
//! [`scan_chunks_per_thread`] fine-grained chunks per worker rather than
//! one static chunk each — so the rayon shim's self-scheduling claim loop
//! can rebalance skewed work (cut-split blocks from trial-sharded
//! catalogs, uneven segment routing).  Block boundaries provably never
//! change results (partials merge by exact adjacent-window
//! concatenation), so granularity is a pure scheduling constant (4);
//! [`set_scan_chunks_per_thread`] overrides it for the invariance tests
//! and the scheduling gate, where `1` reproduces the old static
//! one-chunk-per-worker split.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use crate::query::LossRange;

/// Lane width the block kernels run at.  Variants are ordered narrowest
/// to widest so clamping a requested level to the hardware's best is a
/// plain `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The body as compiled for the target's baseline — the portable
    /// reference the wider lanes must match bit-for-bit.
    Scalar,
    /// 128-bit `f64x2` lanes (x86-64 SSE2, part of the baseline ISA).
    F64x2,
    /// 256-bit `f64x4` lanes (x86-64 AVX, runtime-detected).
    F64x4,
    /// 512-bit `f64x8` lanes (x86-64 AVX-512F, runtime-detected).
    F64x8,
}

impl SimdLevel {
    /// Number of `f64` lanes processed per vector operation.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::F64x2 => 2,
            SimdLevel::F64x4 => 4,
            SimdLevel::F64x8 => 8,
        }
    }

    /// Short lowercase name (`scalar`, `f64x2`, ...) — the values
    /// `CATRISK_SIMD` accepts.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::F64x2 => "f64x2",
            SimdLevel::F64x4 => "f64x4",
            SimdLevel::F64x8 => "f64x8",
        }
    }
}

/// Lane widths this machine can run, narrowest first.  Always contains
/// [`SimdLevel::Scalar`]; on x86-64 also `F64x2` (SSE2 is baseline) and,
/// when detected, `F64x4` / `F64x8`.
pub fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        levels.push(SimdLevel::F64x2);
        if std::arch::is_x86_feature_detected!("avx") {
            levels.push(SimdLevel::F64x4);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            levels.push(SimdLevel::F64x8);
        }
    }
    levels
}

const LEVEL_UNSET: u8 = 0;

/// Cached dispatch decision: 0 = not yet detected, otherwise
/// `encode(level)`.
static ACTIVE: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 1,
        SimdLevel::F64x2 => 2,
        SimdLevel::F64x4 => 3,
        SimdLevel::F64x8 => 4,
    }
}

fn decode(byte: u8) -> SimdLevel {
    match byte {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::F64x2,
        3 => SimdLevel::F64x4,
        _ => SimdLevel::F64x8,
    }
}

fn detect() -> SimdLevel {
    let best = *available_levels().last().expect("scalar always available");
    let requested = match std::env::var("CATRISK_SIMD") {
        Ok(value) => match value.trim().to_ascii_lowercase().as_str() {
            "scalar" => SimdLevel::Scalar,
            "f64x2" | "sse2" => SimdLevel::F64x2,
            "f64x4" | "avx" => SimdLevel::F64x4,
            "f64x8" | "avx512" => SimdLevel::F64x8,
            _ => best,
        },
        Err(_) => best,
    };
    // The available set is a prefix of the variant order, so clamping a
    // too-wide request to the hardware's best is a plain `min`.
    requested.min(best)
}

/// The lane width [`accumulate_fused`] dispatches to: the widest the
/// hardware supports, unless capped by `CATRISK_SIMD` or overridden by
/// [`force_level`].  The decision is made once and cached.
pub fn active_level() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let level = detect();
            ACTIVE.store(encode(level), Ordering::Relaxed);
            level
        }
        byte => decode(byte),
    }
}

/// Overrides [`active_level`] — the gate / test hook for pinning a
/// lane width.  `None` clears the override and re-detects.  Concurrent
/// scans observe the change on their next dispatch; results cannot
/// differ, only speed (the bit-identity contract above).
pub fn force_level(level: Option<SimdLevel>) {
    ACTIVE.store(level.map_or(LEVEL_UNSET, encode), Ordering::Relaxed);
}

/// Fused add/max accumulation of one segment's loss slices into a
/// group's accumulators, one pass over all four slices:
/// `acc_year[i] += year[i]` and `acc_occ[i] = max(occ[i], acc_occ[i])`
/// (the `MAXPD` select — see the module docs).  All four slices must
/// have equal length.  Dispatches on [`active_level`].
#[inline]
pub fn accumulate_fused(acc_year: &mut [f64], acc_occ: &mut [f64], year: &[f64], occ: &[f64]) {
    accumulate_fused_at(active_level(), acc_year, acc_occ, year, occ);
}

/// [`accumulate_fused`] at an explicit lane width — the entry point the
/// gates and benches use to compare levels on the same inputs.  A width
/// the hardware lacks falls back to the widest it has below it.
pub fn accumulate_fused_at(
    level: SimdLevel,
    acc_year: &mut [f64],
    acc_occ: &mut [f64],
    year: &[f64],
    occ: &[f64],
) {
    let n = year.len();
    assert!(
        acc_year.len() == n && acc_occ.len() == n && occ.len() == n,
        "accumulate_fused: slice lengths differ ({}/{}/{}/{})",
        acc_year.len(),
        acc_occ.len(),
        n,
        occ.len()
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x8 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: AVX-512F was detected on this CPU by the guard.
            unsafe { accumulate_avx512f(acc_year, acc_occ, year, occ) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x4 | SimdLevel::F64x8 if std::arch::is_x86_feature_detected!("avx") => {
            // SAFETY: AVX was detected on this CPU by the guard.
            unsafe { accumulate_avx(acc_year, acc_occ, year, occ) }
        }
        // `Scalar`, `F64x2` and any wider level this CPU lacks run the
        // body at the baseline, which on x86-64 includes SSE2's lanes.
        _ => accumulate_body(acc_year, acc_occ, year, occ),
    }
}

/// The one kernel body: the exact per-index operations, which the
/// compiler vectorises at whatever lane width the enclosing function is
/// compiled for.  The max is the lane select (`MAXPD` semantics), not
/// `f64::max`, so ±0.0 ties resolve identically everywhere.
#[inline(always)]
fn accumulate_body(acc_year: &mut [f64], acc_occ: &mut [f64], year: &[f64], occ: &[f64]) {
    for ((ay, &y), (ao, &o)) in acc_year
        .iter_mut()
        .zip(year)
        .zip(acc_occ.iter_mut().zip(occ))
    {
        *ay += y;
        *ao = if o > *ao { o } else { *ao };
    }
}

/// [`accumulate_body`] compiled with 256-bit AVX lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn accumulate_avx(acc_year: &mut [f64], acc_occ: &mut [f64], year: &[f64], occ: &[f64]) {
    accumulate_body(acc_year, acc_occ, year, occ)
}

/// [`accumulate_body`] compiled with 512-bit AVX-512F lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn accumulate_avx512f(acc_year: &mut [f64], acc_occ: &mut [f64], year: &[f64], occ: &[f64]) {
    accumulate_body(acc_year, acc_occ, year, occ)
}

/// Initialises empty accumulators from the *first* segment of a group —
/// bit-identical to accumulating into the zero identity (`0.0 + v` for
/// the year column, `max(v, 0.0)` for the occurrence column; both matter
/// for `-0.0`) without materialising the zeros.  This is the block-level
/// partial reuse that replaces `PartialAggregate::identity`'s per-block
/// zeroed allocations: the first segment writes each group's vectors
/// directly, later segments accumulate in place.
pub fn init_fused(acc_year: &mut Vec<f64>, acc_occ: &mut Vec<f64>, year: &[f64], occ: &[f64]) {
    debug_assert!(acc_year.is_empty() && acc_occ.is_empty());
    debug_assert_eq!(year.len(), occ.len());
    acc_year.reserve_exact(year.len());
    acc_occ.reserve_exact(occ.len());
    acc_year.extend(year.iter().map(|&v| 0.0 + v));
    acc_occ.extend(occ.iter().map(|&v| if v > 0.0 { v } else { 0.0 }));
}

/// Order-preserving loss-range compaction of one group's columns: keeps
/// exactly the trials whose *year* loss lies in `range`, masking the
/// occurrence column by the same trials.  Written branchless — every
/// iteration stores unconditionally at the write cursor and advances it
/// by the predicate — so the loop body has no data-dependent branch to
/// mispredict and vectorises cleanly.  Compaction order is trial order,
/// so adjacent-window concatenation stays exact.
pub fn retain_fused(year: &mut Vec<f64>, maxocc: &mut Vec<f64>, range: LossRange) {
    let n = year.len();
    debug_assert_eq!(n, maxocc.len());
    let (ys, os) = (&mut year[..], &mut maxocc[..]);
    let mut keep = 0usize;
    for t in 0..n {
        let y = ys[t];
        let o = os[t];
        // keep <= t always holds, so these writes never clobber unread
        // elements.
        ys[keep] = y;
        os[keep] = o;
        keep += usize::from(range.contains(y));
    }
    year.truncate(keep);
    maxocc.truncate(keep);
}

/// No-override sentinel for the granularity setter (0 chunks is
/// meaningless).
const CHUNKS_UNSET: usize = 0;

static SCAN_CHUNKS: AtomicUsize = AtomicUsize::new(CHUNKS_UNSET);

/// Default fine-grained chunks per worker thread: enough slack for the
/// self-scheduling claim loop to rebalance skewed blocks, small enough
/// that per-block overhead stays negligible.
const DEFAULT_SCAN_CHUNKS: usize = 4;

/// Trial-block chunks the scan creates per worker thread: 4 unless
/// [`set_scan_chunks_per_thread`] overrides it.  `1` reproduces the old
/// static one-block-per-worker split (the scheduling gate's baseline).
pub fn scan_chunks_per_thread() -> usize {
    match SCAN_CHUNKS.load(Ordering::Relaxed) {
        CHUNKS_UNSET => DEFAULT_SCAN_CHUNKS,
        chunks => chunks,
    }
}

/// Overrides [`scan_chunks_per_thread`] programmatically (the scheduling
/// gate, the granularity-invariance tests).  `None` clears the override.
/// Granularity can never change result bits — only how evenly the blocks
/// schedule.
pub fn set_scan_chunks_per_thread(chunks: Option<usize>) {
    SCAN_CHUNKS.store(chunks.map_or(CHUNKS_UNSET, |c| c.max(1)), Ordering::Relaxed);
}

/// Number of trial blocks a scan splits its window into:
/// `threads × scan_chunks_per_thread()`, or a single block when running
/// single-threaded (no scheduling to balance, so no reason to pay the
/// per-block merge).
pub(crate) fn scan_parts() -> usize {
    let threads = rayon::current_num_threads().max(1);
    if threads <= 1 {
        1
    } else {
        threads * scan_chunks_per_thread()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random losses with awkward cases mixed in:
    /// zeros, `-0.0`, denormals, huge values, and a non-multiple-of-8
    /// length so every tail path runs.
    fn test_slices(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            match state % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => 5e-324,
                3 => 1.0e18 * x,
                _ => 1.0e6 * x,
            }
        };
        (
            (0..n).map(|_| next()).collect(),
            (0..n).map(|_| next()).collect(),
        )
    }

    /// Slice lengths covering every lane-width tail path (0..=8
    /// remainders, unrolled or not) plus cache-line-straddling sizes.
    const LENGTHS: [usize; 19] = [
        0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 129, 1000, 1021,
    ];

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_level_matches_scalar_bitwise() {
        for (case, n) in LENGTHS.into_iter().enumerate() {
            let (year, occ) = test_slices(n, 42 + case as u64);
            let (acc_y0, acc_o0) = test_slices(n, 1042 + case as u64);
            let (mut ref_y, mut ref_o) = (acc_y0.clone(), acc_o0.clone());
            accumulate_fused_at(SimdLevel::Scalar, &mut ref_y, &mut ref_o, &year, &occ);
            for level in available_levels() {
                let (mut acc_y, mut acc_o) = (acc_y0.clone(), acc_o0.clone());
                accumulate_fused_at(level, &mut acc_y, &mut acc_o, &year, &occ);
                assert_eq!(bits(&acc_y), bits(&ref_y), "{} year n={n}", level.name());
                assert_eq!(bits(&acc_o), bits(&ref_o), "{} occ n={n}", level.name());
            }
        }
    }

    /// Every level runs one body, so comparing levels with each other
    /// cannot catch a wrong tie rule in that body.  This pins the body
    /// against the hardware's own `ADDPD` / `MAXPD` instead, on every
    /// pairing of signed zeros, denormals, equal values and NaN, plus the
    /// pseudo-random slices.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn body_matches_sse2_add_and_max_bitwise() {
        use core::arch::x86_64::{_mm_add_pd, _mm_cvtsd_f64, _mm_max_pd, _mm_set_sd};

        /// The fused pass element by element in lane 0 of the SSE2
        /// intrinsics.
        #[target_feature(enable = "sse2")]
        fn sse2_reference(
            acc_year: &[f64],
            acc_occ: &[f64],
            year: &[f64],
            occ: &[f64],
        ) -> (Vec<f64>, Vec<f64>) {
            let (mut sum, mut max) = (Vec::new(), Vec::new());
            for i in 0..year.len() {
                let (ay, y) = (_mm_set_sd(acc_year[i]), _mm_set_sd(year[i]));
                sum.push(_mm_cvtsd_f64(_mm_add_pd(ay, y)));
                // MAXPD(src1, src2) returns src2 on a tie or NaN: the
                // value goes first, the accumulator second.
                let (o, ao) = (_mm_set_sd(occ[i]), _mm_set_sd(acc_occ[i]));
                max.push(_mm_cvtsd_f64(_mm_max_pd(o, ao)));
            }
            (sum, max)
        }

        let awkward = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            1.0e18,
            f64::NAN,
        ];
        // Every (accumulator, value) pairing of the awkward values.
        let pairs = awkward
            .iter()
            .flat_map(|&a| awkward.iter().map(move |&v| (a, v)));
        let (acc, value): (Vec<f64>, Vec<f64>) = pairs.unzip();
        let mut cases = vec![(acc.clone(), acc, value.clone(), value)];
        for (case, n) in LENGTHS.into_iter().enumerate() {
            let (year, occ) = test_slices(n, 7 + case as u64);
            let (acc_year, acc_occ) = test_slices(n, 1007 + case as u64);
            cases.push((acc_year, acc_occ, year, occ));
        }
        for (acc_y0, acc_o0, year, occ) in &cases {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            let (want_y, want_o) = unsafe { sse2_reference(acc_y0, acc_o0, year, occ) };
            let n = year.len();
            for level in available_levels() {
                let (mut acc_y, mut acc_o) = (acc_y0.clone(), acc_o0.clone());
                accumulate_fused_at(level, &mut acc_y, &mut acc_o, year, occ);
                assert_eq!(bits(&acc_y), bits(&want_y), "{} year n={n}", level.name());
                assert_eq!(bits(&acc_o), bits(&want_o), "{} occ n={n}", level.name());
            }
        }
    }

    #[test]
    fn init_matches_accumulate_into_zero_identity() {
        for (case, n) in LENGTHS.into_iter().enumerate() {
            let (year, occ) = test_slices(n, 99 + case as u64);
            let (mut init_y, mut init_o) = (Vec::new(), Vec::new());
            init_fused(&mut init_y, &mut init_o, &year, &occ);
            let (mut zero_y, mut zero_o) = (vec![0.0; n], vec![0.0; n]);
            accumulate_fused_at(SimdLevel::Scalar, &mut zero_y, &mut zero_o, &year, &occ);
            assert_eq!(bits(&init_y), bits(&zero_y), "-0.0 must normalise to +0.0");
            assert_eq!(bits(&init_o), bits(&zero_o));
        }
    }

    #[test]
    fn retain_matches_branchy_reference() {
        let range = LossRange {
            min: 1.0e5,
            max: 8.0e5,
        };
        let mut dropped = 0;
        for (case, n) in LENGTHS.into_iter().chain([257]).enumerate() {
            let (year, occ) = test_slices(n, 1234 + case as u64);
            let (mut ref_y, mut ref_o) = (Vec::new(), Vec::new());
            for (&y, &o) in year.iter().zip(&occ) {
                if range.contains(y) {
                    ref_y.push(y);
                    ref_o.push(o);
                }
            }
            let (mut got_y, mut got_o) = (year.clone(), occ.clone());
            retain_fused(&mut got_y, &mut got_o, range);
            assert_eq!(bits(&got_y), bits(&ref_y), "year n={n}");
            assert_eq!(bits(&got_o), bits(&ref_o), "occ n={n}");
            dropped += year.len() - got_y.len();
        }
        assert!(dropped > 0, "range must actually drop trials");
    }

    #[test]
    fn forced_level_overrides_detection() {
        let detected = active_level();
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(active_level(), SimdLevel::Scalar);
        force_level(None);
        assert_eq!(active_level(), detected);
    }

    #[test]
    fn granularity_is_the_constant_unless_overridden() {
        // A literal, not an "ambient" read: the environment is not an
        // input, so no test runner's variables can move the default.
        assert_eq!(scan_chunks_per_thread(), 4);
        set_scan_chunks_per_thread(Some(1));
        assert_eq!(scan_chunks_per_thread(), 1);
        set_scan_chunks_per_thread(None);
        assert_eq!(scan_chunks_per_thread(), 4);
    }
}
