//! Dense row-major `f32` matrix with the kernels needed by the VRDAG model.
//!
//! This is deliberately a small, predictable 2-D type rather than a general
//! n-d array: every tensor in the paper is either a node-feature matrix
//! `[N, d]`, a weight matrix `[d_in, d_out]`, a bias row `[1, d]`, or a
//! scalar loss `[1, 1]`.

use crate::par;
use crate::simd;
use rand::Rng;

/// Row-major dense matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// All-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix { rows, cols, data: vec![v; rows * cols] }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Build element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A `[1, 1]` matrix holding a single scalar.
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// Uniform random matrix on `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Matrix { rows, cols, data }
    }

    /// Standard-normal random matrix (Box–Muller; `rand_distr` is not a
    /// dependency of this workspace).
    pub fn rand_normal(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut impl Rng) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let (z0, z1) = box_muller(rng);
            data.push(mean + std * z0);
            if data.len() < n {
                data.push(mean + std * z1);
            }
        }
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
    pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Matrix::rand_uniform(fan_in, fan_out, -limit, limit, rng)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume and return the backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `[1,1]` matrix.
    ///
    /// # Panics
    /// Panics when the matrix is not `1x1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix");
        self.data[0]
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Element-wise map in place (parallel for large matrices).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.data.len() >= 1 << 16 {
            let cols = self.cols.max(1);
            par::par_row_chunks_mut(&mut self.data, cols, 64, |_, chunk| {
                chunk.iter_mut().for_each(|x| *x = f(*x));
            });
        } else {
            self.data.iter_mut().for_each(|x| *x = f(*x));
        }
    }

    /// Element-wise combination of two same-shape matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// `self += other`
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other`
    pub fn scaled_add_assign(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "scaled_add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`
    pub fn scale_assign(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty matrices).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (0 for empty).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `C = A · B`; zero entries of `A` are skipped, so `0 · ∞` makes no NaN.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch: [{},{}] x [{},{}]",
            self.rows, self.cols, b.rows, b.cols
        );
        gemm(self, b, true)
    }

    /// `C = A · Bᵀ`, through a transposed copy of `B`; no product is skipped.
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, b.cols,
            "matmul_nt shape mismatch: [{},{}] x [{},{}]^T",
            self.rows, self.cols, b.rows, b.cols
        );
        gemm(self, &b.transpose(), false)
    }

    /// `C = Aᵀ · B`, through a transposed copy of `A`; zero entries of `A` are skipped.
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, b.rows,
            "matmul_tn shape mismatch: [{},{}]^T x [{},{}]",
            self.rows, self.cols, b.rows, b.cols
        );
        gemm(&self.transpose(), b, true)
    }

    /// Concatenate matrices horizontally (same row count).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "concat_cols requires equal row counts");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            let out_row = &mut out.data[r * cols..(r + 1) * cols];
            for p in parts {
                out_row[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Stack matrices vertically (same column count).
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let cols = parts[0].cols;
        assert!(parts.iter().all(|p| p.cols == cols), "concat_rows requires equal column counts");
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Copy of the sub-matrix of columns `lo..hi`.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.cols, "slice_cols out of bounds");
        let mut out = Matrix::zeros(self.rows, hi - lo);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[lo..hi]);
        }
        out
    }

    /// Copy of the sub-matrix of rows selected by `idx` (with repetition
    /// allowed).
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i as usize));
        }
        out
    }

    /// Per-row sums as an `[rows, 1]` column.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Per-column sums as a `[1, cols]` row.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }
}

/// One Box–Muller draw: two independent standard normal samples.
fn box_muller(rng: &mut impl Rng) -> (f32, f32) {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Rows of one register tile of [`gemm`].
const MR: usize = 2;
/// Columns of one register tile: the SIMD lanes of [`gemm`].
const NR: usize = 16;
/// Multiply-adds worth a thread: a smaller product runs inline on the
/// caller, a larger one gives every thread at least this much.
const PAR_WORK: usize = 1 << 20;

/// `out[m, n] = a[m, k] · b[k, n]`, the kernel behind every matrix product
/// (docs/ARCHITECTURE.md, "Dense kernels"). Lanes run over output columns.
/// Every element starts at `+0.0` and adds `a[i, kk] · b[kk, j]` in ascending
/// `kk`, product and sum rounded apart, so tiles, lanes, threads and the
/// instruction set ([`simd::isa`]) keep bits.
///
/// `skip_zeros` leaves out products whose `a` entry is zero. Only a non-finite
/// `b` needs that: any other such product is `±0.0`, and adding `±0.0` keeps
/// the bits of an accumulator that starts at `+0.0`, which is never `-0.0`.
fn gemm(a: &Matrix, b: &Matrix, skip_zeros: bool) -> Matrix {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut out = Matrix::zeros(m, n);
    if out.is_empty() || k == 0 {
        return out;
    }
    let skip = skip_zeros && b.has_non_finite();
    // The last, partial column strip, zero-padded to NR lanes so that edge
    // tiles run the same code; the padding lanes are never stored.
    let n_full = n - n % NR;
    let mut pad = vec![0.0f32; if n_full < n { k * NR } else { 0 }];
    for (dst, src) in pad.chunks_exact_mut(NR).zip(b.data.chunks_exact(n)) {
        dst[..n - n_full].copy_from_slice(&src[n_full..]);
    }
    let ops = Operands { a: &a.data, b: &b.data, pad: &pad, k, n, skip };
    let isa = simd::isa();
    par::par_row_chunks_mut(&mut out.data, n, PAR_WORK.div_ceil(k * n), |row0, chunk| match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 detected at runtime: `simd::isa` names only an
        // instruction set this CPU supports.
        simd::Isa::Avx2 => unsafe { gemm_rows_avx2(&ops, row0, chunk) },
        _ => gemm_rows(&ops, row0, chunk),
    });
    out
}

/// What every row chunk of one [`gemm`] call reads.
struct Operands<'a> {
    a: &'a [f32],
    b: &'a [f32],
    /// The zero-padded last column strip, empty when `NR` divides `n`.
    pad: &'a [f32],
    k: usize,
    n: usize,
    skip: bool,
}

/// The output rows `row0..` of [`gemm`] that `chunk` holds.
#[inline(always)]
fn gemm_rows(ops: &Operands, row0: usize, chunk: &mut [f32]) {
    let &Operands { a, b, pad, k, n, skip } = ops;
    let n_full = n - n % NR;
    let rows = chunk.len() / n;
    for i0 in (0..rows).step_by(MR) {
        // A last odd row fills both tile rows and is stored once.
        let h = MR.min(rows - i0);
        let a_rows: [&[f32]; MR] =
            std::array::from_fn(|r| &a[(row0 + i0 + r.min(h - 1)) * k..][..k]);
        for j0 in (0..n).step_by(NR) {
            let (panel, stride) = if j0 < n_full { (&b[j0..], n) } else { (pad, NR) };
            let acc = if skip {
                tile::<true>(a_rows, panel, stride)
            } else {
                tile::<false>(a_rows, panel, stride)
            };
            let w = NR.min(n - j0);
            for (r, acc_r) in acc.iter().take(h).enumerate() {
                chunk[(i0 + r) * n + j0..][..w].copy_from_slice(&acc_r[..w]);
            }
        }
    }
}

/// [`gemm_rows`] compiled with AVX2: each `NR`-lane accumulator row takes
/// two 256-bit registers instead of four SSE2 ones.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2(ops: &Operands, row0: usize, chunk: &mut [f32]) {
    gemm_rows(ops, row0, chunk)
}

/// One `MR × NR` tile of [`gemm`]: `a_rows` (each of length `k`) times the
/// column strip whose row `kk` is `panel[kk * stride..][..NR]`.
#[inline(always)]
fn tile<const SKIP: bool>(a_rows: [&[f32]; MR], panel: &[f32], stride: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..a_rows[0].len() {
        let bk: &[f32; NR] = panel[kk * stride..][..NR].try_into().expect("NR-wide strip");
        for (acc_r, a_r) in acc.iter_mut().zip(a_rows) {
            let av = a_r[kk];
            for (c, &bv) in acc_r.iter_mut().zip(bk) {
                *c = if SKIP && av == 0.0 { *c } else { *c + av * bv };
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // The scalar loops `gemm` replaced, kept as its bitwise oracles.

    fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let n = b.cols;
        let mut out = Matrix::zeros(a.rows, n);
        for i in 0..a.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &aik) in a.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b.row(kk)) {
                    *o += aik * bv;
                }
            }
        }
        out
    }

    fn oracle_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows, b.rows, |i, j| {
            let mut acc = 0.0f32;
            for (x, y) in a.row(i).iter().zip(b.row(j)) {
                acc += x * y;
            }
            acc
        })
    }

    fn oracle_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let n = b.cols;
        let mut out = Matrix::zeros(a.cols, n);
        for i in 0..a.rows {
            for (kk, &aik) in a.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b.row(i)) {
                    *o += aik * bv;
                }
            }
        }
        out
    }

    /// Random entries, about a third of them `0.0`, `-0.0` or subnormal,
    /// plus `±∞` when `inf` is set.
    fn special_matrix(rows: usize, cols: usize, inf: bool, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0u32..16) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            4 => -f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            5 if inf => f32::INFINITY,
            6 if inf => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0f32..2.0),
        })
    }

    /// `matmul`, `matmul_nt` and `matmul_tn` of `[m, k] · [k, n]` equal
    /// their oracles bit for bit (two NaNs count as equal) on every
    /// instruction set this CPU supports, on 1 and 3 threads.
    fn assert_entry_points_match_oracles(m: usize, k: usize, n: usize, rng: &mut StdRng) {
        let inf = rng.gen_bool(0.5);
        let a = special_matrix(m, k, inf, rng);
        let b = special_matrix(k, n, inf, rng);
        let b_nt = special_matrix(n, k, inf, rng);
        let a_tn = special_matrix(k, m, inf, rng);
        let want =
            [oracle_matmul(&a, &b), oracle_matmul_nt(&a, &b_nt), oracle_matmul_tn(&a_tn, &b)];
        for isa in simd::supported() {
            for threads in [1, 3] {
                let got = simd::with_isa(isa, || {
                    par::with_threads(threads, || {
                        [a.matmul(&b), a.matmul_nt(&b_nt), a_tn.matmul_tn(&b)]
                    })
                });
                for ((name, g), w) in
                    ["matmul", "matmul_nt", "matmul_tn"].iter().zip(&got).zip(&want)
                {
                    assert_eq!(g.shape(), w.shape(), "{name} shape");
                    let same = g
                        .data
                        .iter()
                        .zip(&w.data)
                        .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()));
                    let isa = isa.name();
                    assert!(same, "{name} m={m} k={k} n={n} inf={inf} isa={isa} threads={threads}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Every shape from {0, 1, 2, 3, 15, 16, 17, 33, 48}³: empty
        /// products, single and partial row tiles, and column counts below,
        /// at, just past and a few tiles past one lane strip.
        #[test]
        fn gemm_entry_points_match_the_scalar_oracles_bitwise(case_seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(case_seed);
            let dims = [0, 1, 2, 3, 15, 16, 17, 33, 48];
            for m in dims {
                for k in dims {
                    for n in dims {
                        assert_entry_points_match_oracles(m, k, n, &mut rng);
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_row_split_across_threads_keeps_bits() {
        // Over twice PAR_WORK, so 3 threads split the 601 output rows into
        // chunks of 301 and 300 (the first ending in a one-row tile); 70
        // columns end in a partial lane strip.
        let (m, k, n) = (601, 64, 70);
        assert!(m / PAR_WORK.div_ceil(k * n) >= 2);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2 {
            assert_entry_points_match_oracles(m, k, n, &mut rng);
        }
    }

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Matrix::zeros(3, 4).shape(), (3, 4));
        assert_eq!(Matrix::ones(2, 2).sum(), 4.0);
        assert_eq!(Matrix::scalar(7.0).item(), 7.0);
        assert_eq!(Matrix::full(2, 3, 0.5).mean(), 0.5);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::rand_uniform(5, 9, -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn concat_and_slice_cols_round_trip() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Matrix::rand_uniform(4, 5, -1.0, 1.0, &mut rng);
        let cat = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (4, 8));
        assert_eq!(cat.slice_cols(0, 3), a);
        assert_eq!(cat.slice_cols(3, 8), b);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let cat = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 2));
        assert_eq!(cat.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_rows_picks_rows() {
        let a = Matrix::from_fn(5, 2, |r, c| (r * 10 + c) as f32);
        let g = a.gather_rows(&[4, 0, 4]);
        assert_eq!(g.row(0), &[40.0, 41.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[40.0, 41.0]);
    }

    #[test]
    fn reductions_match_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert_eq!(a.sum_cols().into_vec(), vec![6.0, 15.0]);
        assert_eq!(a.sum_rows().into_vec(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn rand_normal_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::rand_normal(200, 200, 1.0, 2.0, &mut rng);
        let mean = a.mean();
        let var =
            a.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / (a.len() - 1) as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn xavier_uniform_is_bounded() {
        let mut rng = StdRng::seed_from_u64(8);
        let w = Matrix::xavier_uniform(64, 32, &mut rng);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(w.max_abs() <= limit);
    }

    #[test]
    fn map_inplace_parallel_path() {
        let mut big = Matrix::ones(300, 300);
        big.map_inplace(|x| x * 2.0);
        assert_eq!(big.sum(), 180_000.0);
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
