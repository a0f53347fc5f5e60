//! Explicitly unrolled fixed-width kernels with documented summation trees.
//!
//! Every reduction kernel in this module commits to **one** summation tree
//! and ships a scalar reference implementing the *same* tree, so the
//! unrolled fast path is bitwise-equal to its reference by construction —
//! floating-point addition is not associative, and the compiler is not
//! allowed to reassociate it, so agreeing on the tree is what makes the
//! equality exact rather than approximate. The determinism contract (see
//! the README's "Kernel determinism contract" section and
//! `tests/determinism.rs`) leans on exactly this property.
//!
//! # The fixed summation tree
//!
//! Reductions over `n` elements use [`LANES`] = 4 independent lane
//! accumulators: lane `l` sums the terms whose element index `j` satisfies
//! `j ≡ l (mod 4)`, in increasing `j`, and the lanes combine pairwise as
//!
//! ```text
//! (lane₀ + lane₁) + (lane₂ + lane₃)
//! ```
//!
//! The unrolled implementations walk the input in chunks of four (feeding
//! one term to each lane per chunk, which the backend can keep in four
//! registers or pack into SIMD lanes), and hand the `n mod 4` tail elements
//! to lanes `0..tail` — the same lane assignment the modular rule gives
//! them, so chunking changes nothing about the tree.
//!
//! Elementwise kernels ([`axpy`], [`scale_clamp_in_place`],
//! [`pairwise_sq_diffs`]) have no reduction, so their unrolling/tiling is
//! bitwise-neutral regardless of traversal order; their references pin the
//! per-element expression instead.
//!
//! # Changing a tree is an API break
//!
//! Swapping lane count or combine order changes results at the ULP level,
//! which the genetic algorithm's fitness comparisons can amplify into
//! different selections entirely. Any such change must regenerate the
//! golden snapshots in `tests/determinism.rs` and say so — never silently.

use crate::Matrix;

/// Number of independent accumulator lanes in every reduction kernel.
pub const LANES: usize = 4;

/// Row tile edge of the cache-tiled [`pairwise_sq_diffs`] builder: one tile
/// touches `2 · TILE` characteristic rows, which stays L1-resident for the
/// dimension counts the models use.
const SQDIFF_TILE: usize = 32;

fn check_same_len(op: &'static str, a: &[f64], b: &[f64]) {
    assert!(
        a.len() == b.len(),
        "{op}: length mismatch ({} vs {})",
        a.len(),
        b.len()
    );
}

/// Combines the four lane accumulators with the fixed pairwise tree.
#[inline(always)]
fn combine(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Scalar reference dot product over the fixed lane tree.
///
/// This is the *specification* of [`dot_unrolled`]: one plain loop assigning term
/// `j` to lane `j % LANES`, then the pairwise combine. Kept deliberately
/// un-unrolled so the tree is visible at a glance.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_ref(a: &[f64], b: &[f64]) -> f64 {
    check_same_len("dot_ref", a, b);
    let mut acc = [0.0f64; LANES];
    for (j, (x, y)) in a.iter().zip(b).enumerate() {
        acc[j % LANES] += x * y;
    }
    combine(acc)
}

/// Unrolled dot product, bitwise-equal to [`dot_ref`].
///
/// Walks both slices in chunks of [`LANES`], feeding one product to each
/// lane per chunk; the tail goes to lanes `0..tail`, matching the modular
/// lane assignment of the reference. Each chunk is reborrowed as a
/// `&[f64; LANES]` so the lane loop has compile-time bounds — that (not
/// the unroll itself) is what lets the backend keep the four lanes packed
/// in vector registers; the `chunks_exact` + runtime-length-slice form of
/// the same loop measured ~1.5× slower. Four-row blocking (amortizing `v`
/// loads across a GEMV row block) was tried and *lost* to this per-row
/// form on the SSE2 baseline: sixteen live accumulators exhaust the xmm
/// register file.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline(always)]
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    check_same_len("dot_unrolled", a, b);
    let n = a.len();
    let chunks = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    let mut j = 0;
    while j < chunks {
        let pa: &[f64; LANES] = a[j..j + LANES].try_into().expect("exact chunk");
        let pb: &[f64; LANES] = b[j..j + LANES].try_into().expect("exact chunk");
        for l in 0..LANES {
            acc[l] += pa[l] * pb[l];
        }
        j += LANES;
    }
    for (l, r) in (j..n).enumerate() {
        acc[l] += a[r] * b[r];
    }
    combine(acc)
}

/// Strided dot product `Σⱼ data[start + j·stride] · v[j]` over the fixed
/// lane tree — the GEMV inner loop for transposed/column views, where row
/// elements are not adjacent in memory. Bitwise-equal to gathering the
/// strided elements into a dense slice and calling [`dot_ref`].
///
/// # Panics
///
/// Panics if any touched index falls outside `data` (the last touched
/// index is `start + (v.len()−1)·stride`).
#[inline]
pub fn dot_strided(data: &[f64], start: usize, stride: usize, v: &[f64]) -> f64 {
    let n = v.len();
    let mut acc = [0.0f64; LANES];
    let mut j = 0;
    while j + LANES <= n {
        let p = start + j * stride;
        acc[0] += data[p] * v[j];
        acc[1] += data[p + stride] * v[j + 1];
        acc[2] += data[p + 2 * stride] * v[j + 2];
        acc[3] += data[p + 3 * stride] * v[j + 3];
        j += LANES;
    }
    for (l, r) in (j..n).enumerate() {
        acc[l] += data[start + r * stride] * v[r];
    }
    combine(acc)
}

/// Weighted squared distance `Σⱼ wⱼ·(aⱼ−bⱼ)²` — scalar reference over the
/// fixed lane tree, with the per-term expression `w · d · d` (left
/// associated) pinned to match what the distance code has always computed.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn weighted_sqdist_ref(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    check_same_len("weighted_sqdist_ref", a, b);
    check_same_len("weighted_sqdist_ref (weights)", a, w);
    let mut acc = [0.0f64; LANES];
    for (j, ((x, y), wi)) in a.iter().zip(b).zip(w).enumerate() {
        let d = x - y;
        acc[j % LANES] += wi * d * d;
    }
    combine(acc)
}

/// Unrolled weighted squared distance, bitwise-equal to
/// [`weighted_sqdist_ref`]. The k-nearest-neighbour index computes its
/// distances as `weighted_sqdist(..).sqrt()`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline(always)]
pub fn weighted_sqdist_unrolled(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    check_same_len("weighted_sqdist_unrolled", a, b);
    check_same_len("weighted_sqdist_unrolled (weights)", a, w);
    let n = a.len();
    let chunks = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    let mut j = 0;
    while j < chunks {
        let pa: &[f64; LANES] = a[j..j + LANES].try_into().expect("exact chunk");
        let pb: &[f64; LANES] = b[j..j + LANES].try_into().expect("exact chunk");
        let pw: &[f64; LANES] = w[j..j + LANES].try_into().expect("exact chunk");
        for l in 0..LANES {
            let d = pa[l] - pb[l];
            acc[l] += pw[l] * d * d;
        }
        j += LANES;
    }
    for (l, r) in (j..n).enumerate() {
        let d = a[r] - b[r];
        acc[l] += w[r] * d * d;
    }
    combine(acc)
}

/// In-place `a[j] += s · b[j]`, unrolled by [`LANES`].
///
/// Elementwise — no reduction, so the result is bitwise-equal to the plain
/// loop for any traversal order; the unroll only exposes four independent
/// fused update chains.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy(a: &mut [f64], s: f64, b: &[f64]) {
    check_same_len("axpy", a, b);
    let mut ca = a.chunks_exact_mut(LANES);
    let mut cb = b.chunks_exact(LANES);
    while let (Some(pa), Some(pb)) = (ca.next(), cb.next()) {
        pa[0] += s * pb[0];
        pa[1] += s * pb[1];
        pa[2] += s * pb[2];
        pa[3] += s * pb[3];
    }
    for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        *x += s * y;
    }
}

/// Fused in-place `x = clamp(x · s, lo, hi)` — one pass where a scale
/// followed by a clamp would stream the slice twice. Elementwise, so
/// bitwise-equal to applying the same per-element expression however the
/// slice is traversed; with `s = 1.0` the multiply is an exact identity on
/// every finite value and the kernel is a pure clamp.
///
/// Deliberately a plain loop rather than a manual [`LANES`] unroll: with
/// no reduction there are no loop-carried dependencies, the
/// auto-vectorizer handles the straight-line form best, and the measured
/// manual unroll was slower.
#[inline]
pub fn scale_clamp_in_place(xs: &mut [f64], s: f64, lo: f64, hi: f64) {
    for x in xs.iter_mut() {
        *x = (*x * s).clamp(lo, hi);
    }
}

/// Naive reference for [`pairwise_sq_diffs`]: visits each unordered pair
/// once and mirrors the write, exactly as the original builder did. Kept
/// as the specification of the output contents (row `i·b + j` holds the
/// elementwise squared differences of characteristic rows `i` and `j`;
/// diagonal rows are zero).
pub fn pairwise_sq_diffs_ref(chars: &Matrix) -> Matrix {
    let (b, d) = chars.shape();
    let mut out = Matrix::zeros(b * b, d);
    for i in 0..b {
        for j in (i + 1)..b {
            for dim in 0..d {
                let diff = chars[(i, dim)] - chars[(j, dim)];
                let sq = diff * diff;
                out[(i * b + j, dim)] = sq;
                out[(j * b + i, dim)] = sq;
            }
        }
    }
    out
}

/// Cache-tiled pairwise squared-difference builder: for `b` characteristic
/// rows of dimension `d`, fills the flat `(b·b) × d` matrix whose row
/// `i·b + j` is the elementwise squared difference of rows `i` and `j`.
///
/// The `b × b` pair grid is walked in 32 × 32 tiles (`SQDIFF_TILE`), so one
/// tile's worth of `i`-rows and `j`-rows (at most `2 · TILE · d` values)
/// is loaded once and reused across the whole tile instead of re-streaming
/// row `j` for every `i` of the full grid. Within a tile the output rows
/// `i·b + tj .. i·b + tj_end` are consecutive in the flat matrix, so every
/// write is one forward streak — the mirrored `(j, i)` half is *recomputed*
/// in its own tile rather than written out-of-streak, trading a cheap
/// elementwise subtract for write locality.
///
/// Squaring is elementwise (no reduction), so the output is bitwise-equal
/// to [`pairwise_sq_diffs_ref`].
pub fn pairwise_sq_diffs(chars: &Matrix) -> Matrix {
    let (b, d) = chars.shape();
    let mut out = Matrix::zeros(b * b, d);
    let mut ti = 0;
    while ti < b {
        let ti_end = (ti + SQDIFF_TILE).min(b);
        let mut tj = 0;
        while tj < b {
            let tj_end = (tj + SQDIFF_TILE).min(b);
            for i in ti..ti_end {
                for j in tj..tj_end {
                    if i == j {
                        continue; // diagonal rows stay zero
                    }
                    let (ri, rj) = (chars.row(i), chars.row(j));
                    let orow = out.row_mut(i * b + j);
                    for ((o, x), y) in orow.iter_mut().zip(ri).zip(rj) {
                        let diff = x - y;
                        *o = diff * diff;
                    }
                }
            }
            tj = tj_end;
        }
        ti = ti_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_value() {
        // 1·4 + 2·5 + 3·6 = 32, exact in f64.
        assert_eq!(dot_unrolled(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot_ref(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot_unrolled(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_length_mismatch() {
        let _ = dot_unrolled(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn strided_dot_equals_gathered_dot() {
        let stride = 3;
        let n = 7;
        let data: Vec<f64> = (0..stride * n).map(|i| (i as f64) * 0.17 - 1.5).collect();
        let v: Vec<f64> = (0..n).map(|j| (j as f64) * 0.4 - 1.0).collect();
        let gathered: Vec<f64> = (0..n).map(|j| data[1 + j * stride]).collect();
        assert_eq!(
            dot_strided(&data, 1, stride, &v).to_bits(),
            dot_ref(&gathered, &v).to_bits()
        );
    }

    #[test]
    fn scale_clamp_fuses_scale_and_clamp() {
        let mut xs = vec![-4.0, -0.5, 0.25, 3.0, 10.0];
        scale_clamp_in_place(&mut xs, 2.0, -1.0, 5.0);
        assert_eq!(xs, vec![-1.0, -1.0, 0.5, 5.0, 5.0]);
    }

    #[test]
    fn scale_clamp_with_unit_scale_is_pure_clamp() {
        let mut xs = vec![-0.0, 1.5, -7.0, 2.0_f64.powi(-1060)];
        let want: Vec<f64> = xs.iter().map(|x| x.clamp(-3.0, 1.0)).collect();
        scale_clamp_in_place(&mut xs, 1.0, -3.0, 1.0);
        for (a, b) in xs.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pairwise_sq_diffs_small_case() {
        let chars = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, -1.0]]).unwrap();
        let out = pairwise_sq_diffs(&chars);
        assert_eq!(out.shape(), (4, 2));
        assert_eq!(out.row(0), &[0.0, 0.0]); // (0,0) diagonal
        assert_eq!(out.row(1), &[4.0, 4.0]); // (0,1)
        assert_eq!(out.row(2), &[4.0, 4.0]); // (1,0) mirror
        assert_eq!(out.row(3), &[0.0, 0.0]); // (1,1) diagonal
    }
}
