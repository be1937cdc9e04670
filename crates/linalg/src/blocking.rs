//! The one place dense-kernel blocking is tuned.
//!
//! Three families of constants used to live scattered across the
//! workspace — the multi-RHS column block in `factor.rs`, the ≤64-chunk
//! fixed parallel decomposition repeated in LU and the RBF assembly
//! paths, and (new with the blocked kernels) the LU/matmul tile sizes.
//! They are gathered here so cache-tuning happens in one module, with the
//! determinism contract each constant participates in spelled out.
//!
//! # Tiling scheme (DESIGN.md §16)
//!
//! * [`LU_TILE`] — panel width of the tiled right-looking LU. Each outer
//!   step factors an `n×LU_TILE` panel unblocked, triangular-updates the
//!   `LU_TILE×(n−k)` U₁₂ strip, then applies one blocked GEMM-style
//!   update to the trailing submatrix with [`MULAD_UNROLL`]-wide fused
//!   multiplier chains. The trailing matrix streams through cache
//!   `n/LU_TILE` times instead of `n` times.
//! * [`MULAD_UNROLL`] — how many rank-1 updates the trailing kernels
//!   fuse per pass over an output row. Four multipliers per pass cuts
//!   output-row memory traffic 4× and gives the compiler independent
//!   mul-add chains to pipeline.
//! * [`SIMD_LANES`] — accumulator lanes of the chunks-of-8 dot kernel
//!   ([`dot8`]): eight independent partial sums the compiler keeps in
//!   SIMD registers, combined in a fixed tree. Eight lanes = one AVX-512
//!   register or two AVX2 registers of `f64`.
//!   [`dot8`] also drives the dense triangular solves: every row of
//!   `Lu::solve`'s forward (L) and back (U) sweeps, and the forward half
//!   of `Cholesky::solve`, is one `dot8` over the row prefix or suffix,
//!   so each row's rounding depends on its length alone.
//! * [`MULTI_RHS_BLOCK`] — column width of `Lu::solve_many`'s blocked
//!   substitution: wide enough to amortize streaming the `n²` factors,
//!   small enough that the `n×block` working set stays cache-resident.
//!   Each block runs [`dot8_cols`], which computes `dot8`'s lane
//!   structure for every column at once, so a batched column is bitwise
//!   equal to a standalone `Lu::solve` of it.
//! * [`PAR_BLOCKS`] — every parallel kernel decomposes its row range
//!   into *at most this many* fixed blocks (`rows.div_ceil(PAR_BLOCKS)`
//!   rows each), so chunk boundaries depend only on the problem size,
//!   never the pool width — the bitwise pool-width-invariance contract.

/// Panel width of the tiled right-looking LU factorization.
pub const LU_TILE: usize = 48;

/// Fused multiplier chains per pass of the trailing-update kernels
/// (blocked LU trailing GEMM and `DMat::matmul`).
pub const MULAD_UNROLL: usize = 4;

/// Accumulator lanes of the chunks-of-8 [`dot8`] kernel.
pub const SIMD_LANES: usize = 8;

/// Column-block width of `Lu::solve_many` (formerly
/// `Lu::MULTI_RHS_BLOCK`, which now re-exports this).
pub const MULTI_RHS_BLOCK: usize = 8;

/// Maximum fixed block count of every parallel row decomposition
/// (formerly the literal `64` repeated in `factor.rs`, `rbf::fd` and
/// `rbf::operators`).
pub const PAR_BLOCKS: usize = 64;

/// Dot product with [`SIMD_LANES`] independent accumulators.
///
/// The main loop walks both slices in chunks of eight, keeping eight
/// partial sums the compiler can hold in vector registers; the lanes are
/// then combined in a fixed tree (pairs at stride 4, then 2, then 1) and
/// the ragged tail is added sequentially. The operation order is a pure
/// function of the slice length — no data-dependent or thread-dependent
/// branching — so the result is deterministic everywhere it is used.
/// It is the one-column case of [`dot8_cols`].
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot8(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot8: length mismatch");
    let [s] = dot8_cols(a, b.as_chunks::<1>().0);
    s
}

/// `W` simultaneous [`dot8`]s of one row `a` against the `W` columns of a
/// row-major `len × W` block `x`: `out[c] = dot8(a, x[..][c])`.
///
/// Each column keeps [`dot8`]'s exact operation order — eight lanes
/// filled chunk by chunk, the same fixed combination tree, the same
/// sequential ragged tail — so column `c` of the result is bitwise equal
/// to a standalone `dot8` of that column. The `W` columns of a lane sit
/// side by side, which is what the compiler vectorises. This is the
/// kernel behind `Lu::solve_many`'s [`MULTI_RHS_BLOCK`]-wide substitution.
///
/// Panics if `a` and `x` differ in length.
// Forced inlining: with a plain `#[inline]` the eight-column kernel ran
// at twice the per-column cost of the narrower ones.
#[inline(always)]
pub fn dot8_cols<const W: usize>(a: &[f64], x: &[[f64; W]]) -> [f64; W] {
    assert_eq!(a.len(), x.len(), "dot8_cols: length mismatch");
    let mut lanes = [[0.0f64; W]; SIMD_LANES];
    let mut ca = a.chunks_exact(SIMD_LANES);
    let mut cx = x.chunks_exact(SIMD_LANES);
    for (pa, px) in ca.by_ref().zip(cx.by_ref()) {
        for l in 0..SIMD_LANES {
            for c in 0..W {
                lanes[l][c] += pa[l] * px[l][c];
            }
        }
    }
    // Fixed reduction tree per column: (0+4)+(2+6) then (1+5)+(3+7).
    let mut s = [0.0f64; W];
    for (c, sc) in s.iter_mut().enumerate() {
        *sc = ((lanes[0][c] + lanes[4][c]) + (lanes[2][c] + lanes[6][c]))
            + ((lanes[1][c] + lanes[5][c]) + (lanes[3][c] + lanes[7][c]));
    }
    for (av, xr) in ca.remainder().iter().zip(cx.remainder()) {
        for c in 0..W {
            s[c] += av * xr[c];
        }
    }
    s
}

/// `out[j] -= m0*r0[j] + m1*r1[j] + m2*r2[j] + m3*r3[j]` — the fused
/// four-multiplier rank-1 chain at the heart of the blocked LU trailing
/// update and the tiled matmul. One pass over `out` applies
/// [`MULAD_UNROLL`] rank-1 updates; the four products are summed
/// left-to-right before the subtraction, a fixed order shared by every
/// caller.
#[inline]
pub fn fused_axpy4(out: &mut [f64], m: [f64; 4], r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) {
    let n = out.len();
    assert!(r0.len() >= n && r1.len() >= n && r2.len() >= n && r3.len() >= n);
    for j in 0..n {
        out[j] -= m[0] * r0[j] + m[1] * r1[j] + m[2] * r2[j] + m[3] * r3[j];
    }
}

/// `out[j] += m0*r0[j] + m1*r1[j] + m2*r2[j] + m3*r3[j]` — the additive
/// twin of [`fused_axpy4`], used by the tiled `DMat::matmul` where the
/// output accumulates rather than downdates. Same fixed left-to-right
/// summation of the four products.
#[inline]
pub fn fused_madd4(out: &mut [f64], m: [f64; 4], r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) {
    let n = out.len();
    assert!(r0.len() >= n && r1.len() >= n && r2.len() >= n && r3.len() >= n);
    for j in 0..n {
        out[j] += m[0] * r0[j] + m[1] * r1[j] + m[2] * r2[j] + m[3] * r3[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot8_matches_naive_to_ulp_scale() {
        for n in [0usize, 1, 7, 8, 9, 64, 100, 1023] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot8(&a, &b);
            assert!(
                (fast - naive).abs() <= 1e-13 * (1.0 + naive.abs()),
                "n={n}: {fast} vs {naive}"
            );
        }
    }

    #[test]
    fn dot8_is_deterministic() {
        let a: Vec<f64> = (0..777).map(|i| (i as f64).cos()).collect();
        let b: Vec<f64> = (0..777).map(|i| (i as f64 * 0.1).tan()).collect();
        assert_eq!(dot8(&a, &b).to_bits(), dot8(&a, &b).to_bits());
    }

    #[test]
    #[should_panic(expected = "dot8: length mismatch")]
    fn dot8_length_mismatch_panics() {
        dot8(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot8_cols_is_bitwise_dot8_per_column() {
        // Lengths cover the empty slice, a tail-only slice, exact chunks
        // and ragged tails.
        for n in [0usize, 1, 7, 8, 9, 17, 131] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let x: Vec<[f64; 3]> = (0..n)
                .map(|i| [(i as f64).cos(), 1.0 / (1.0 + i as f64), -(i as f64 * 0.1)])
                .collect();
            let s = dot8_cols(&a, &x);
            for (c, sc) in s.iter().enumerate() {
                let col: Vec<f64> = x.iter().map(|r| r[c]).collect();
                assert_eq!(sc.to_bits(), dot8(&a, &col).to_bits(), "n={n} c={c}");
            }
        }
    }

    #[test]
    fn fused_axpy4_matches_four_sequential_axpys_to_ulp_scale() {
        let n = 37;
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..n)
                    .map(|j| ((j * 3 + k * 7) % 13) as f64 * 0.21 - 1.0)
                    .collect()
            })
            .collect();
        let m = [0.3, -1.2, 0.7, 2.1];
        let mut fused: Vec<f64> = (0..n).map(|j| j as f64 * 0.5).collect();
        let mut seq = fused.clone();
        fused_axpy4(&mut fused, m, &rows[0], &rows[1], &rows[2], &rows[3]);
        for k in 0..4 {
            for j in 0..n {
                seq[j] -= m[k] * rows[k][j];
            }
        }
        for j in 0..n {
            assert!(
                (fused[j] - seq[j]).abs() <= 1e-14 * (1.0 + seq[j].abs()),
                "j={j}: {} vs {}",
                fused[j],
                seq[j]
            );
        }
    }
}
