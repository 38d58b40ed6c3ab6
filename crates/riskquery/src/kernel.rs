//! Vectorized block-scan kernels: the innermost loops of every query.
//!
//! Each query bottoms out in two loops over a trial block's loss slices —
//! fused add/max accumulation ([`accumulate_fused`]) and loss-range
//! compaction ([`retain_fused`]).  This module owns those loops as
//! explicit-lane SIMD kernels over `core::arch`, with a portable scalar
//! fallback and runtime dispatch, following the paper's follow-up
//! observation that for this kernel *vectorization*, not core count, is
//! the decisive hardware lever.
//!
//! ## Lane abstraction
//!
//! [`SimdLevel`] names the lane width a kernel runs at: `Scalar` (one
//! element at a time, the portable reference), `F64x2` (128-bit lanes,
//! x86-64 SSE2 — always present at the x86-64 baseline), `F64x4`
//! (256-bit AVX) and `F64x8` (512-bit AVX-512F), the wider two detected
//! at runtime.  [`active_level`] caches the detection; `CATRISK_SIMD`
//! (`scalar` / `f64x2` / `f64x4` / `f64x8`) caps it for experiments, and
//! [`force_level`] overrides it programmatically for the gates and the
//! bit-identity oracle.
//!
//! ## Why SIMD cannot change bits
//!
//! Every kernel performs the *same operation on the same index* in the
//! same order regardless of lane width: lane `i` of a vector add computes
//! exactly `acc[i] + v[i]`, the one scalar add the reference performs at
//! index `i` — elements never interact across lanes, nothing is
//! reassociated, and no fused-multiply-add contracts two roundings into
//! one.  The max merge is written as the lane select `if v > acc { v }
//! else { acc }` in the scalar path precisely because that is the
//! documented per-lane semantics of the x86 `MAXPD` family (on a NaN or
//! equal compare the second operand — the accumulator — is returned), so
//! scalar and every SIMD width agree bit-for-bit on all inputs, including
//! the `±0.0` tie `f64::max` leaves unspecified.  `crates/gpusim`'s
//! `scan_oracle` module enforces this contract across all detected
//! levels.
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
    /// One element at a time — the portable reference the wider lanes
    /// must match bit-for-bit.
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

/// Overrides [`active_level`] — the gate / oracle hook for pinning a
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
/// oracle and benches use to compare levels on the same inputs.  A width
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
        SimdLevel::Scalar => accumulate_scalar(acc_year, acc_occ, year, occ),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x2 => unsafe { x86::accumulate_f64x2(acc_year, acc_occ, year, occ) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x4 => {
            if std::arch::is_x86_feature_detected!("avx") {
                unsafe { x86::accumulate_f64x4(acc_year, acc_occ, year, occ) }
            } else {
                unsafe { x86::accumulate_f64x2(acc_year, acc_occ, year, occ) }
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x8 => {
            if std::arch::is_x86_feature_detected!("avx512f") {
                unsafe { x86::accumulate_f64x8(acc_year, acc_occ, year, occ) }
            } else {
                accumulate_fused_at(SimdLevel::F64x4, acc_year, acc_occ, year, occ)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => accumulate_scalar(acc_year, acc_occ, year, occ),
    }
}

/// The scalar reference: the exact per-index operations every SIMD width
/// must reproduce.  The max is the lane select (`MAXPD` semantics), not
/// `f64::max`, so ±0.0 ties resolve identically everywhere.
fn accumulate_scalar(acc_year: &mut [f64], acc_occ: &mut [f64], year: &[f64], occ: &[f64]) {
    for ((ay, &y), (ao, &o)) in acc_year
        .iter_mut()
        .zip(year)
        .zip(acc_occ.iter_mut().zip(occ))
    {
        *ay += y;
        *ao = if o > *ao { o } else { *ao };
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::accumulate_scalar;
    use core::arch::x86_64::*;

    /// # Safety
    /// SSE2 is part of the x86-64 baseline; slices must have equal
    /// length (checked by the dispatcher).
    pub(super) unsafe fn accumulate_f64x2(
        acc_year: &mut [f64],
        acc_occ: &mut [f64],
        year: &[f64],
        occ: &[f64],
    ) {
        let n = year.len();
        let head = n - n % 2;
        let (ay, ao) = (acc_year.as_mut_ptr(), acc_occ.as_mut_ptr());
        let (y, o) = (year.as_ptr(), occ.as_ptr());
        let mut i = 0;
        // Two vectors per iteration: the per-index ops are independent,
        // so unrolling only overlaps loads — it cannot reorder results.
        while i + 4 <= head {
            // SAFETY: i + 4 <= head <= n for every slice.
            unsafe {
                let vy0 = _mm_loadu_pd(y.add(i));
                let va0 = _mm_loadu_pd(ay.add(i));
                let vy1 = _mm_loadu_pd(y.add(i + 2));
                let va1 = _mm_loadu_pd(ay.add(i + 2));
                _mm_storeu_pd(ay.add(i), _mm_add_pd(va0, vy0));
                _mm_storeu_pd(ay.add(i + 2), _mm_add_pd(va1, vy1));
                let vo0 = _mm_loadu_pd(o.add(i));
                let vb0 = _mm_loadu_pd(ao.add(i));
                let vo1 = _mm_loadu_pd(o.add(i + 2));
                let vb1 = _mm_loadu_pd(ao.add(i + 2));
                // MAXPD(vo, vb): per lane `vo > vb ? vo : vb` — the
                // select the scalar reference performs.
                _mm_storeu_pd(ao.add(i), _mm_max_pd(vo0, vb0));
                _mm_storeu_pd(ao.add(i + 2), _mm_max_pd(vo1, vb1));
            }
            i += 4;
        }
        while i < head {
            // SAFETY: i + 2 <= head <= n for every slice.
            unsafe {
                let vy = _mm_loadu_pd(y.add(i));
                let va = _mm_loadu_pd(ay.add(i));
                _mm_storeu_pd(ay.add(i), _mm_add_pd(va, vy));
                let vo = _mm_loadu_pd(o.add(i));
                let vb = _mm_loadu_pd(ao.add(i));
                _mm_storeu_pd(ao.add(i), _mm_max_pd(vo, vb));
            }
            i += 2;
        }
        accumulate_scalar(
            &mut acc_year[head..],
            &mut acc_occ[head..],
            &year[head..],
            &occ[head..],
        );
    }

    /// # Safety
    /// Caller must have verified AVX via `is_x86_feature_detected!`;
    /// slices must have equal length.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn accumulate_f64x4(
        acc_year: &mut [f64],
        acc_occ: &mut [f64],
        year: &[f64],
        occ: &[f64],
    ) {
        let n = year.len();
        let head = n - n % 4;
        let (ay, ao) = (acc_year.as_mut_ptr(), acc_occ.as_mut_ptr());
        let (y, o) = (year.as_ptr(), occ.as_ptr());
        let mut i = 0;
        // Two vectors per iteration (independent per-index ops — the
        // unroll overlaps loads without reordering any result).
        while i + 8 <= head {
            // SAFETY: i + 8 <= head <= n for every slice.
            unsafe {
                let vy0 = _mm256_loadu_pd(y.add(i));
                let va0 = _mm256_loadu_pd(ay.add(i));
                let vy1 = _mm256_loadu_pd(y.add(i + 4));
                let va1 = _mm256_loadu_pd(ay.add(i + 4));
                _mm256_storeu_pd(ay.add(i), _mm256_add_pd(va0, vy0));
                _mm256_storeu_pd(ay.add(i + 4), _mm256_add_pd(va1, vy1));
                let vo0 = _mm256_loadu_pd(o.add(i));
                let vb0 = _mm256_loadu_pd(ao.add(i));
                let vo1 = _mm256_loadu_pd(o.add(i + 4));
                let vb1 = _mm256_loadu_pd(ao.add(i + 4));
                _mm256_storeu_pd(ao.add(i), _mm256_max_pd(vo0, vb0));
                _mm256_storeu_pd(ao.add(i + 4), _mm256_max_pd(vo1, vb1));
            }
            i += 8;
        }
        while i < head {
            // SAFETY: i + 4 <= head <= n for every slice.
            unsafe {
                let vy = _mm256_loadu_pd(y.add(i));
                let va = _mm256_loadu_pd(ay.add(i));
                _mm256_storeu_pd(ay.add(i), _mm256_add_pd(va, vy));
                let vo = _mm256_loadu_pd(o.add(i));
                let vb = _mm256_loadu_pd(ao.add(i));
                _mm256_storeu_pd(ao.add(i), _mm256_max_pd(vo, vb));
            }
            i += 4;
        }
        accumulate_scalar(
            &mut acc_year[head..],
            &mut acc_occ[head..],
            &year[head..],
            &occ[head..],
        );
    }

    /// # Safety
    /// Caller must have verified AVX-512F via `is_x86_feature_detected!`;
    /// slices must have equal length.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn accumulate_f64x8(
        acc_year: &mut [f64],
        acc_occ: &mut [f64],
        year: &[f64],
        occ: &[f64],
    ) {
        let n = year.len();
        let head = n - n % 8;
        let (ay, ao) = (acc_year.as_mut_ptr(), acc_occ.as_mut_ptr());
        let (y, o) = (year.as_ptr(), occ.as_ptr());
        let mut i = 0;
        // Two vectors per iteration (independent per-index ops — the
        // unroll overlaps loads without reordering any result).
        while i + 16 <= head {
            // SAFETY: i + 16 <= head <= n for every slice.
            unsafe {
                let vy0 = _mm512_loadu_pd(y.add(i));
                let va0 = _mm512_loadu_pd(ay.add(i));
                let vy1 = _mm512_loadu_pd(y.add(i + 8));
                let va1 = _mm512_loadu_pd(ay.add(i + 8));
                _mm512_storeu_pd(ay.add(i), _mm512_add_pd(va0, vy0));
                _mm512_storeu_pd(ay.add(i + 8), _mm512_add_pd(va1, vy1));
                let vo0 = _mm512_loadu_pd(o.add(i));
                let vb0 = _mm512_loadu_pd(ao.add(i));
                let vo1 = _mm512_loadu_pd(o.add(i + 8));
                let vb1 = _mm512_loadu_pd(ao.add(i + 8));
                _mm512_storeu_pd(ao.add(i), _mm512_max_pd(vo0, vb0));
                _mm512_storeu_pd(ao.add(i + 8), _mm512_max_pd(vo1, vb1));
            }
            i += 16;
        }
        while i < head {
            // SAFETY: i + 8 <= head <= n for every slice.
            unsafe {
                let vy = _mm512_loadu_pd(y.add(i));
                let va = _mm512_loadu_pd(ay.add(i));
                _mm512_storeu_pd(ay.add(i), _mm512_add_pd(va, vy));
                let vo = _mm512_loadu_pd(o.add(i));
                let vb = _mm512_loadu_pd(ao.add(i));
                _mm512_storeu_pd(ao.add(i), _mm512_max_pd(vo, vb));
            }
            i += 8;
        }
        accumulate_scalar(
            &mut acc_year[head..],
            &mut acc_occ[head..],
            &year[head..],
            &occ[head..],
        );
    }
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

    #[test]
    fn every_level_matches_scalar_bitwise() {
        for n in [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000] {
            let (year, occ) = test_slices(n, 42);
            let (mut ref_y, mut ref_o) = test_slices(n, 7);
            for level in available_levels() {
                let (mut acc_y, mut acc_o) = (ref_y.clone(), ref_o.clone());
                accumulate_fused_at(level, &mut acc_y, &mut acc_o, &year, &occ);
                accumulate_fused_at(SimdLevel::Scalar, &mut ref_y, &mut ref_o, &year, &occ);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&acc_y), bits(&ref_y), "{} year n={n}", level.name());
                assert_eq!(bits(&acc_o), bits(&ref_o), "{} occ n={n}", level.name());
            }
        }
    }

    #[test]
    fn init_matches_accumulate_into_zero_identity() {
        let (year, occ) = test_slices(129, 99);
        let (mut init_y, mut init_o) = (Vec::new(), Vec::new());
        init_fused(&mut init_y, &mut init_o, &year, &occ);
        let (mut zero_y, mut zero_o) = (vec![0.0; 129], vec![0.0; 129]);
        accumulate_fused_at(SimdLevel::Scalar, &mut zero_y, &mut zero_o, &year, &occ);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&init_y), bits(&zero_y), "-0.0 must normalise to +0.0");
        assert_eq!(bits(&init_o), bits(&zero_o));
    }

    #[test]
    fn retain_matches_branchy_reference() {
        let (year, occ) = test_slices(257, 1234);
        let range = LossRange {
            min: 1.0e5,
            max: 8.0e5,
        };
        let (mut ref_y, mut ref_o) = (Vec::new(), Vec::new());
        for (&y, &o) in year.iter().zip(&occ) {
            if range.contains(y) {
                ref_y.push(y);
                ref_o.push(o);
            }
        }
        let (mut got_y, mut got_o) = (year.clone(), occ.clone());
        retain_fused(&mut got_y, &mut got_o, range);
        assert_eq!(got_y, ref_y);
        assert_eq!(got_o, ref_o);
        assert!(got_y.len() < year.len(), "range must actually drop trials");
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
