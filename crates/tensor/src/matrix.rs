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
        self.map_chunks_inplace(|chunk| chunk.iter_mut().for_each(|x| *x = f(*x)));
    }

    /// Run the element-wise slice kernel `f` (such as
    /// [`math::exp_slice`](crate::math::exp_slice)) over the elements in
    /// place: once over all of them, or once per row chunk in parallel for
    /// large matrices.
    pub fn map_chunks_inplace(&mut self, f: impl Fn(&mut [f32]) + Sync) {
        if self.data.len() >= 1 << 16 {
            let cols = self.cols.max(1);
            par::par_row_chunks_mut(&mut self.data, cols, 64, |_, chunk| f(chunk));
        } else {
            f(&mut self.data);
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
        gemm(self, b, true, false)
    }

    /// `C = A · Bᵀ`, through a transposed copy of `B`; no product is skipped.
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, b.cols,
            "matmul_nt shape mismatch: [{},{}] x [{},{}]^T",
            self.rows, self.cols, b.rows, b.cols
        );
        gemm(self, &b.transpose(), false, true)
    }

    /// `C = Aᵀ · B`, through a transposed copy of `A`; zero entries of `A` are skipped.
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, b.rows,
            "matmul_tn shape mismatch: [{},{}]^T x [{},{}]",
            self.rows, self.cols, b.rows, b.cols
        );
        gemm(&self.transpose(), b, true, true)
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

/// Columns of one register tile: the SIMD lanes of [`gemm`]. The tile's
/// row count is [`gemm_rows`]' `MR`: 4 on AVX-512, else 2.
const NR: usize = 16;
/// Multiply-adds worth a thread: a smaller product runs inline on the
/// caller, a larger one gives every thread at least this much.
const PAR_WORK: usize = 1 << 20;
/// Fewest multiply-adds for which a scanning [`gemm`] looks for zero rows
/// and subnormal steps; a smaller product would pay more for the scan than
/// it could save.
const SCAN_WORK: usize = 1 << 18;
/// [`strip_thresholds`]' mark for a strip row of `±0.0` only; also the
/// [`magnitude_key`] of `±0.0`.
const ZERO_ROW: u32 = u32::MAX;
/// Bits of `f32::MIN_POSITIVE`: an `f32` magnitude's bits are below this
/// exactly when it is zero or subnormal.
const MIN_NORMAL_BITS: u32 = 0x0080_0000;

/// `out[m, n] = a[m, k] · b[k, n]`, the kernel behind every matrix product
/// (docs/ARCHITECTURE.md, "Dense kernels"). Lanes run over output columns.
/// Every element starts at `+0.0` and adds `a[i, kk] · b[kk, j]` in ascending
/// `kk`, product and sum rounded apart, so tiles, lanes, threads and the
/// instruction set ([`simd::isa`]) keep bits.
///
/// `skip_zeros` leaves out products whose `a` entry is zero. Only a non-finite
/// `b` needs that: any other such product is `±0.0`, and adding `±0.0` keeps
/// the bits of an accumulator that starts at `+0.0`, which is never `-0.0`.
///
/// `scan` (the backward products `matmul_nt` and `matmul_tn`, which meet the
/// zero and subnormal gradients a saturated softmax sends back) also looks
/// for work that cannot change a bit or that costs more than it should, in
/// products of at least [`SCAN_WORK`] multiply-adds. For the same reason as
/// above, a tile of all-zero `a` rows against a finite `b`, and an all-zero
/// row of a lane strip of `b` against finite `a` entries, are left out. A
/// step that may multiply into or out of the subnormal range forms its
/// products in `f64` instead (see [`tile`]): on x86 such an `f32` multiply
/// costs some 20–40 times a normal one.
fn gemm(a: &Matrix, b: &Matrix, skip_zeros: bool, scan: bool) -> Matrix {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut out = Matrix::zeros(m, n);
    if out.is_empty() || k == 0 {
        return out;
    }
    let (thresholds, b_finite) = if scan && m * k * n >= SCAN_WORK {
        strip_thresholds(b)
    } else {
        (Vec::new(), !(skip_zeros && b.has_non_finite()))
    };
    let skip = skip_zeros && !b_finite;
    // The last, partial column strip, zero-padded to NR lanes so that edge
    // tiles run the same code; the padding lanes are never stored.
    let n_full = n - n % NR;
    let mut pad = vec![0.0f32; if n_full < n { k * NR } else { 0 }];
    for (dst, src) in pad.chunks_exact_mut(NR).zip(b.data.chunks_exact(n)) {
        dst[..n - n_full].copy_from_slice(&src[n_full..]);
    }
    let ops = Operands {
        a: &a.data,
        b: &b.data,
        pad: &pad,
        k,
        n,
        skip,
        // Unscanned, `b_finite` is known only where `skip_zeros` asked.
        zero_rows_stay_zero: !thresholds.is_empty() && (skip || b_finite),
        max_threshold: thresholds.iter().copied().filter(|&t| t != ZERO_ROW).max().unwrap_or(0),
        zero_strip_rows: thresholds.contains(&ZERO_ROW),
        thresholds: &thresholds,
    };
    let isa = simd::isa();
    par::par_row_chunks_mut(&mut out.data, n, PAR_WORK.div_ceil(k * n), |row0, chunk| match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F detected at runtime: `simd::isa` names only an
        // instruction set this CPU supports.
        simd::Isa::Avx512 => unsafe { gemm_rows_avx512(&ops, row0, chunk) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 detected at runtime, as above.
        simd::Isa::Avx2 => unsafe { gemm_rows_avx2(&ops, row0, chunk) },
        _ => gemm_rows::<2>(&ops, row0, chunk),
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
    /// Whether a tile of all-zero `a` rows leaves its outputs `+0.0`: `b` is
    /// finite, or zero `a` entries are skipped anyway.
    zero_rows_stay_zero: bool,
    /// [`strip_thresholds`] of `b`; empty when `b` was not scanned.
    thresholds: &'a [u32],
    /// The largest of `thresholds` other than [`ZERO_ROW`].
    max_threshold: u32,
    /// Whether some strip row of `b` is all `±0.0`.
    zero_strip_rows: bool,
}

/// `|x|`'s bits less one, which wraps `±0.0` to [`ZERO_ROW`] and keeps
/// the order of the nonzero magnitudes.
#[inline(always)]
fn magnitude_key(x: f32) -> u32 {
    (x.to_bits() & 0x7fff_ffff).wrapping_sub(1)
}

/// The smallest [`magnitude_key`] over `xs` (that of the smallest nonzero
/// magnitude, or [`ZERO_ROW`]), and whether every `x` is finite. Integer
/// work only, so that it vectorizes.
#[inline(always)]
fn magnitude_scan(xs: &[f32]) -> (u32, bool) {
    let (mut min, mut max) = (ZERO_ROW, 0u32);
    for &x in xs {
        min = min.min(magnitude_key(x));
        max = max.max(x.to_bits() & 0x7fff_ffff);
    }
    (min, max < f32::INFINITY.to_bits())
}

/// Per column strip `s` of `b` and row `kk`, at `[s * k + kk]`: [`ZERO_ROW`]
/// when the strip's lanes are all `±0.0`, else the [`magnitude_key`] below
/// which an `a` entry may meet that row in an `f32` multiply with a
/// subnormal operand or result (either takes a microcode assist on x86,
/// some 20–40 times a normal multiply); and whether `b` is finite.
fn strip_thresholds(b: &Matrix) -> (Vec<u32>, bool) {
    let k = b.rows;
    let (mut thresholds, mut b_finite) = (vec![ZERO_ROW; b.cols.div_ceil(NR) * k], true);
    for kk in 0..k {
        for (s, lanes) in b.row(kk).chunks(NR).enumerate() {
            let (min, finite) = magnitude_scan(lanes);
            b_finite &= finite;
            if min == ZERO_ROW {
                continue;
            }
            let b_min = f32::from_bits(min + 1);
            // The bits below which a magnitude `a` is risky: every nonzero
            // one against a subnormal row, else subnormal ones and those
            // whose product with `b_min` is below `f32::MIN_POSITIVE`.
            let below = if b_min < f32::MIN_POSITIVE {
                ZERO_ROW - 1
            } else if !b_min.is_finite() {
                MIN_NORMAL_BITS
            } else {
                let t = f64::from(f32::MIN_POSITIVE) / f64::from(b_min);
                ((t as f32).to_bits() + 1).max(MIN_NORMAL_BITS)
            };
            thresholds[s * k + kk] = below - 1;
        }
    }
    (thresholds, b_finite)
}

/// The output rows `row0..` of [`gemm`] that `chunk` holds, in tiles of
/// `MR` rows.
#[inline(always)]
fn gemm_rows<const MR: usize>(ops: &Operands, row0: usize, chunk: &mut [f32]) {
    let &Operands {
        a,
        b,
        pad,
        k,
        n,
        skip,
        zero_rows_stay_zero,
        thresholds,
        max_threshold,
        zero_strip_rows,
    } = ops;
    let n_full = n - n % NR;
    let rows = chunk.len() / n;
    for i0 in (0..rows).step_by(MR) {
        // A last, partial tile repeats its last row; each row is stored once.
        let h = MR.min(rows - i0);
        let a_rows: [&[f32]; MR] =
            std::array::from_fn(|r| &a[(row0 + i0 + r.min(h - 1)) * k..][..k]);
        if zero_rows_stay_zero && a_rows.iter().all(|r| r.iter().all(|&v| v == 0.0)) {
            continue;
        }
        // The steps are checked one by one only when some may be skipped
        // or be subnormal.
        let (mut a_min, mut a_finite) = (ZERO_ROW, true);
        if !thresholds.is_empty() {
            for row in a_rows {
                let (min, finite) = magnitude_scan(row);
                a_min = a_min.min(min);
                a_finite &= finite;
            }
        }
        let check = !thresholds.is_empty() && (zero_strip_rows || a_min < max_threshold);
        for j0 in (0..n).step_by(NR) {
            let (panel, stride) = if j0 < n_full { (&b[j0..], n) } else { (pad, NR) };
            let strip = if check { &thresholds[j0 / NR * k..][..k] } else { &[][..] };
            let acc = match (skip, check) {
                (true, false) => tile::<MR, true, false>(a_rows, panel, stride, strip, false),
                (false, false) => tile::<MR, false, false>(a_rows, panel, stride, strip, false),
                (true, true) => tile::<MR, true, true>(a_rows, panel, stride, strip, a_finite),
                (false, true) => tile::<MR, false, true>(a_rows, panel, stride, strip, a_finite),
            };
            let w = NR.min(n - j0);
            for (r, acc_r) in acc.iter().take(h).enumerate() {
                chunk[(i0 + r) * n + j0..][..w].copy_from_slice(&acc_r[..w]);
            }
        }
    }
}

/// [`gemm_rows`] compiled with AVX2, on 2-row tiles: each `NR`-lane
/// accumulator row takes two 256-bit registers instead of four SSE2 ones.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2(ops: &Operands, row0: usize, chunk: &mut [f32]) {
    gemm_rows::<2>(ops, row0, chunk)
}

/// [`gemm_rows`] compiled with AVX-512F, on 4-row tiles: each `NR`-lane
/// accumulator row is one 512-bit register, so 2-row tiles would leave
/// only two add chains, each waiting out the add latency every step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_rows_avx512(ops: &Operands, row0: usize, chunk: &mut [f32]) {
    gemm_rows::<4>(ops, row0, chunk)
}

/// One `MR × NR` tile of [`gemm`]: `a_rows` (each of length `k`) times the
/// column strip whose row `kk` is `panel[kk * stride..][..NR]`.
///
/// With `CHECK`, each step first looks at `strip[kk]`, the strip row's
/// [`strip_thresholds`] entry. An all-zero row against finite `a_rows`
/// adds only `±0.0` and is skipped. A step whose smallest nonzero `a`
/// entry is under the threshold forms each product as
/// `f32(f64(a) · f64(b))`, which is the `f32` product bit for bit: the
/// `f64` product of two `f32` values is exact, so converting it rounds
/// once, as the `f32` multiply does, for subnormal results, overflow,
/// signed zeros and NaNs alike. Only the cost differs.
#[inline(always)]
fn tile<const MR: usize, const SKIP: bool, const CHECK: bool>(
    a_rows: [&[f32]; MR],
    panel: &[f32],
    stride: usize,
    strip: &[u32],
    a_finite: bool,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..a_rows[0].len() {
        let bk: &[f32; NR] = panel[kk * stride..][..NR].try_into().expect("NR-wide strip");
        let av = a_rows.map(|r| r[kk]);
        if CHECK {
            let threshold = strip[kk];
            if threshold == ZERO_ROW {
                if a_finite {
                    continue;
                }
            } else if av.iter().map(|&a| magnitude_key(a)).min() < Some(threshold) {
                for (acc_r, &a) in acc.iter_mut().zip(&av) {
                    // Opaque, so that the compiler cannot narrow the `f64`
                    // product back into the `f32` multiply it equals.
                    let a64 = std::hint::black_box(f64::from(a));
                    for (c, &bv) in acc_r.iter_mut().zip(bk) {
                        let p = (a64 * f64::from(bv)) as f32;
                        *c = if SKIP && a == 0.0 { *c } else { *c + p };
                    }
                }
                continue;
            }
        }
        for (acc_r, &a) in acc.iter_mut().zip(&av) {
            for (c, &bv) in acc_r.iter_mut().zip(bk) {
                *c = if SKIP && a == 0.0 { *c } else { *c + a * bv };
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

    /// Rows as a backward pass sends them back from a saturated softmax:
    /// each all `±0.0`, scaled by `2^-e` for `e` up to 150 (so that its
    /// products with plain entries land below, across and above the
    /// subnormal boundary, or flush to zero), or plain; plus a few `±∞`
    /// and NaN entries when `inf` is set.
    fn gradient_matrix(rows: usize, cols: usize, inf: bool, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::rand_normal(rows, cols, 0.0, 1.0, rng);
        for r in 0..rows {
            let kind = rng.gen_range(0u32..4);
            let scale = 2f64.powi(-rng.gen_range(60..151));
            for v in m.row_mut(r) {
                *v = match kind {
                    0 if rng.gen_bool(0.5) => 0.0,
                    0 => -0.0,
                    1 | 2 => (f64::from(*v) * scale) as f32,
                    _ => *v,
                };
            }
        }
        if inf {
            for _ in 0..rng.gen_range(1..4) {
                let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3)];
                m.set(r, c, special);
            }
        }
        m
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
        assert_products_match_oracles([&a, &b, &b_nt, &a_tn], &format!("inf={inf}"));
    }

    /// `a·b`, `a·b_ntᵀ` and `a_tnᵀ·b` through `matmul`, `matmul_nt` and
    /// `matmul_tn` equal their oracles as in
    /// [`assert_entry_points_match_oracles`].
    fn assert_products_match_oracles([a, b, b_nt, a_tn]: [&Matrix; 4], label: &str) {
        let want = [oracle_matmul(a, b), oracle_matmul_nt(a, b_nt), oracle_matmul_tn(a_tn, b)];
        let (m, k, n) = (a.rows, a.cols, b.cols);
        for isa in simd::supported() {
            for threads in [1, 3] {
                let got = simd::with_isa(isa, || {
                    par::with_threads(threads, || {
                        [a.matmul(b), a.matmul_nt(b_nt), a_tn.matmul_tn(b)]
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
                    assert!(same, "{name} m={m} k={k} n={n} {label} isa={isa} threads={threads}");
                }
            }
        }
    }

    /// Products large enough that `matmul_nt` and `matmul_tn` scan their
    /// operands, on gradient-like rows (zero, scaled into and past the
    /// subnormal range, plain) against plain and gradient-like partners,
    /// keep the oracles' bits: the skipped zero rows and the steps formed
    /// in `f64` change nothing.
    #[test]
    fn scanned_products_on_zero_and_subnormal_rows_match_the_oracles_bitwise() {
        let (m, k, n) = (67, 65, 70);
        assert!(m * k * n >= SCAN_WORK);
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..8 {
            let inf = case % 2 == 1;
            let plain = |rows, cols, rng: &mut StdRng| {
                if case < 4 {
                    Matrix::rand_normal(rows, cols, 0.0, 0.5, rng)
                } else {
                    gradient_matrix(rows, cols, inf, rng)
                }
            };
            let (mut b_nt, mut a_tn) = (plain(n, k, &mut rng), plain(k, m, &mut rng));
            let mut a = gradient_matrix(m, k, inf, &mut rng);
            let mut b = gradient_matrix(k, n, inf, &mut rng);
            if inf {
                // An infinite `a` entry against an all-zero strip row makes
                // a NaN, so that row may not be skipped.
                for j in 0..n {
                    b.set(0, j, 0.0);
                    b_nt.set(j, 0, 0.0);
                }
                a.set(1, 0, f32::INFINITY);
                a_tn.set(0, 1, f32::NEG_INFINITY);
            }
            assert_products_match_oracles([&a, &b, &b_nt, &a_tn], &format!("case={case}"));
        }
    }

    /// Scanned products whose output row count 4 does not divide (1, 3, 5
    /// and 7 rows, each ending in a partial tile of either height) keep the
    /// oracles' bits, on gradient-like rows.
    #[test]
    fn scanned_products_in_partial_row_tiles_match_the_oracles_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        for m in [1, 3, 5, 7] {
            // Square `k = n`, just large enough to scan, and odd, so that the
            // last lane strip is partial.
            let side = ((SCAN_WORK / m).isqrt() + 1) | 1;
            assert!(m * side * side >= SCAN_WORK && !side.is_multiple_of(NR));
            for case in 0..2 {
                let inf = case == 1;
                let a = gradient_matrix(m, side, inf, &mut rng);
                let b = gradient_matrix(side, side, inf, &mut rng);
                let b_nt = Matrix::rand_normal(side, side, 0.0, 0.5, &mut rng);
                let a_tn = gradient_matrix(side, m, inf, &mut rng);
                assert_products_match_oracles([&a, &b, &b_nt, &a_tn], &format!("case={case}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Every shape from {0, 1, 2, 3, 15, 16, 17, 33, 48}³, and with 5
        /// or 7 rows: empty products, single and partial row tiles of both
        /// tile heights (2 and 4), and column counts below, at, just past
        /// and a few tiles past one lane strip.
        #[test]
        fn gemm_entry_points_match_the_scalar_oracles_bitwise(case_seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(case_seed);
            let dims = [0, 1, 2, 3, 15, 16, 17, 33, 48];
            for m in dims.into_iter().chain([5, 7]) {
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
