//! The attributed graph generator (§III-C): the **MixBernoulli sampler**
//! for directed topology (Eq. 11) and the **GAT attribute decoder**
//! (Eq. 12), factorized per Eq. 10 (structure first, attributes conditioned
//! on the generated structure).
//!
//! Training evaluates the pairwise MLPs `f_α`, `f_θ` on *sampled* pairs
//! (positives + `Q` negatives per node, with importance weights that keep
//! the expected loss equal to the full-matrix BCE of Eq. 17). Generation
//! samples **all** `N(N−1)` ordered pairs using the difference
//! factorization: the first Linear layer distributes over `s_i − s_j`, so
//! `W·s_i` is precomputed once and each pair costs only `O(h + hK)` — the
//! CPU analogue of the paper's batched GPU decode. The sampling pass scores
//! only the pairs whose uniform draw can still accept them, with the same
//! output bits (`docs/ARCHITECTURE.md`, "Decode kernel").

// Index-based loops below walk several parallel arrays in hot paths;
// iterator zips would obscure them. (clippy::needless_range_loop)
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;
use std::rc::Rc;
use vrdag_graph::Snapshot;
use vrdag_tensor::nn::{leaky_relu, Activation, Linear, Mlp};
use vrdag_tensor::ops::{self, Segments};
use vrdag_tensor::simd::{self, Isa};
use vrdag_tensor::{math, par, Matrix, Tensor};

/// Sampled pair batch for the structure reconstruction loss (Eq. 17 with
/// negative sampling).
pub struct PairBatch {
    /// Source node of every pair.
    pub src: Rc<Vec<u32>>,
    /// Destination node of every pair.
    pub dst: Rc<Vec<u32>>,
    /// 1.0 for observed edges, 0.0 for sampled non-edges; `[P, 1]`.
    pub targets: Rc<Matrix>,
    /// Importance weights: 1 for positives, `(N−1−deg⁺_i)/Q` for negatives.
    pub weights: Rc<Matrix>,
}

impl PairBatch {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// Sample the Eq. 17 training pairs for one snapshot: every observed edge
/// as a positive plus `q` random non-edges per node.
pub fn sample_pair_batch(s: &Snapshot, q: usize, rng: &mut impl Rng) -> PairBatch {
    let n = s.n_nodes();
    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for i in 0..n {
        let outs = s.out_adj().neighbors(i);
        for &j in outs {
            src.push(i as u32);
            dst.push(j);
            targets.push(1.0);
            weights.push(1.0);
        }
        let non_edges = (n - 1).saturating_sub(outs.len());
        if non_edges == 0 || q == 0 {
            continue;
        }
        let w_neg = non_edges as f32 / q as f32;
        let mut drawn = 0usize;
        let mut guard = 0usize;
        while drawn < q && guard < 20 * q {
            guard += 1;
            let j = rng.gen_range(0..n) as u32;
            if j as usize == i || outs.binary_search(&j).is_ok() {
                continue;
            }
            src.push(i as u32);
            dst.push(j);
            targets.push(0.0);
            weights.push(w_neg);
            drawn += 1;
        }
    }
    let p = src.len();
    PairBatch {
        src: Rc::new(src),
        dst: Rc::new(dst),
        targets: Rc::new(Matrix::from_vec(p, 1, targets)),
        weights: Rc::new(Matrix::from_vec(p, 1, weights)),
    }
}

/// The MixBernoulli topology sampler (Eq. 11).
#[derive(Clone)]
pub struct MixBernoulliDecoder {
    f_alpha: Mlp,
    f_theta: Mlp,
    k: usize,
    slope: f32,
}

impl MixBernoulliDecoder {
    /// `d_s = d_z + d_h` is the per-node decoder state width; `hidden` the
    /// MLP width; `k` the number of mixture components.
    pub fn new(d_s: usize, hidden: usize, k: usize, slope: f32, rng: &mut impl Rng) -> Self {
        let act = Activation::LeakyRelu(slope);
        let f_alpha = Mlp::new(&[d_s, hidden, k], act, Activation::Identity, rng);
        let f_theta = Mlp::new(&[d_s, hidden, k], act, Activation::Identity, rng);
        // Bias the edge logits negative so the initial model is sparse
        // (graphs have density ≪ 0.5; without this the first epochs decode
        // near-complete graphs).
        f_theta.layer(1).bias.update_value(|b| b.fill(-2.5));
        MixBernoulliDecoder { f_alpha, f_theta, k, slope }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Training-time mixture weights `α ∈ [n, K]` (Eq. 11): the sum
    /// `Σ_j f_α(s_i − s_j)` is approximated with `r` shared reference nodes
    /// scaled by `n/r` (exact at generation).
    pub fn alpha_train(&self, s: &Tensor, n: usize, r: usize, rng: &mut impl Rng) -> Tensor {
        let r = r.max(1).min(n);
        let refs: Vec<u32> = (0..r).map(|_| rng.gen_range(0..n) as u32).collect();
        let mut src = Vec::with_capacity(n * r);
        let mut dst = Vec::with_capacity(n * r);
        for i in 0..n as u32 {
            for &j in &refs {
                src.push(i);
                dst.push(j);
            }
        }
        let src = Rc::new(src);
        let f = self.f_alpha.forward(&ops::row_differences(s, Rc::clone(&src), Rc::new(dst)));
        let pooled = ops::scatter_add_rows(&f, src, n);
        ops::softmax_rows(&ops::scale(&pooled, n as f32 / r as f32))
    }

    /// Per-pair edge probabilities `p_ij = Σ_k α_{k,i} θ_{k,i,j}` for a
    /// sampled batch; `[P, 1]`.
    pub fn pair_probs(&self, s: &Tensor, alpha: &Tensor, batch: &PairBatch) -> Tensor {
        let d = ops::row_differences(s, Rc::clone(&batch.src), Rc::clone(&batch.dst));
        let theta = ops::sigmoid(&self.f_theta.forward(&d));
        let alpha_pairs = ops::gather_rows(alpha, Rc::clone(&batch.src));
        ops::sum_cols(&ops::mul(&alpha_pairs, &theta))
    }

    /// Negative-sampled BCE structure loss (Eq. 17), normalized by `|V|`.
    pub fn structure_loss(
        &self,
        s: &Tensor,
        alpha: &Tensor,
        batch: &PairBatch,
        n: usize,
    ) -> Tensor {
        let p = self.pair_probs(s, alpha, batch);
        ops::bce_probs(&p, Rc::clone(&batch.targets), Some(Rc::clone(&batch.weights)), n as f32)
    }

    /// Materialize the decode-time weight plan once (see [`DecodePlan`]).
    ///
    /// Generation calls this once per job and reuses the plan across every
    /// snapshot step, instead of cloning all eight weight matrices out of
    /// the autograd tensors on every step.
    pub fn plan(&self) -> DecodePlan {
        DecodePlan {
            w1a: self.f_alpha.layer(0).weight.value_clone(),
            b1a: self.f_alpha.layer(0).bias.value_clone(),
            w2a: self.f_alpha.layer(1).weight.value_clone(),
            b2a: self.f_alpha.layer(1).bias.value_clone(),
            w1t: self.f_theta.layer(0).weight.value_clone(),
            b1t: self.f_theta.layer(0).bias.value_clone(),
            w2t: self.f_theta.layer(1).weight.value_clone(),
            b2t: self.f_theta.layer(1).bias.value_clone(),
            slope: self.slope,
        }
    }

    pub fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.f_alpha.parameters();
        p.extend(self.f_theta.parameters());
        p
    }
}

/// Decode-time snapshot of the [`MixBernoulliDecoder`] weights.
///
/// The weights are fixed for the whole of a generation job, so the serving
/// hot path materializes them out of the `Rc`-based autograd tensors once
/// (`MixBernoulliDecoder::plan`) and reuses the buffers for every snapshot —
/// part of the per-step arena reuse, alongside the `OnceLock`-cached CSR
/// builds in `vrdag_graph::Snapshot`.
#[derive(Clone, Debug)]
pub struct DecodePlan {
    w1a: Matrix,
    b1a: Matrix,
    w2a: Matrix,
    b2a: Matrix,
    w1t: Matrix,
    b1t: Matrix,
    w2t: Matrix,
    b2t: Matrix,
    slope: f32,
}

impl DecodePlan {
    /// One-shot full-adjacency generation (Algorithm 1, line 4).
    ///
    /// `s` is the `[n, d_s]` decoder state matrix; `m_target` optionally
    /// calibrates the expected edge count (see `VrdagConfig::
    /// calibrate_density`); `seed` drives deterministic per-row RNG so the
    /// parallel decode is reproducible regardless of thread count: each row
    /// derives its own `splitmix64` stream from the job seed and the inner
    /// float loops run in serial per-row order, so chunk boundaries chosen
    /// by `par::num_threads()` never change the output bytes.
    ///
    /// Pair logits come from one block routine that scores 8 destinations
    /// at once (16 on AVX-512) without reordering any pair's float
    /// operations, so the bytes are those of a plain per-pair loop on every
    /// instruction set (see `docs/ARCHITECTURE.md`, "Decode kernel"). The
    /// sampling pass still draws one uniform per pair, but scores only the
    /// candidates, the pairs whose draw lies below the density scale `c`:
    /// an edge probability `min(c·θ, 1)` never exceeds `c`, so the others
    /// are rejected whatever their logit.
    pub fn generate_edges(&self, s: &Matrix, m_target: Option<f64>, seed: u64) -> Vec<(u32, u32)> {
        self.generate_edges_counted(s, m_target, seed).0
    }

    /// [`DecodePlan::generate_edges`], also returning how many pairs the
    /// call decoded and scored.
    pub(crate) fn generate_edges_counted(
        &self,
        s: &Matrix,
        m_target: Option<f64>,
        seed: u64,
    ) -> (Vec<(u32, u32)>, DecodeCounts) {
        self.generate_edges_on(simd::isa(), s, m_target, seed)
    }

    /// [`DecodePlan::generate_edges_counted`] with the pair logits compiled
    /// for `isa`, which this CPU must support: blocks of 16 destinations, one
    /// 512-bit register, on AVX-512, and of 8 (one AVX2 register, two SSE2
    /// ones) on the others.
    fn generate_edges_on(
        &self,
        isa: Isa,
        s: &Matrix,
        m_target: Option<f64>,
        seed: u64,
    ) -> (Vec<(u32, u32)>, DecodeCounts) {
        match isa {
            Isa::Avx512 => self.generate_edges_in::<16>(isa, s, m_target, seed),
            _ => self.generate_edges_in::<8>(isa, s, m_target, seed),
        }
    }

    /// [`DecodePlan::generate_edges_on`] in blocks of `L` destinations.
    fn generate_edges_in<const L: usize>(
        &self,
        isa: Isa,
        s: &Matrix,
        m_target: Option<f64>,
        seed: u64,
    ) -> (Vec<(u32, u32)>, DecodeCounts) {
        let n = s.rows();
        if n < 2 {
            return (Vec::new(), DecodeCounts::default());
        }
        let (alpha_mlp, theta_mlp) = self.pair_mlps::<L>(isa, s);
        let (stats, c) = pass_a(&alpha_mlp, &theta_mlp, m_target);

        // Pass B: choose a mixture component per row and Bernoulli-sample
        // its adjacency list (rows are independent given α — the paper's
        // "different rows can be computed in parallel"). Only candidates
        // are scored; see `sample_row`.
        let rows: Vec<(Vec<u32>, u64)> = par::par_map_collect(n, 1, |i| {
            let mut rng = StdRng::seed_from_u64(splitmix64(
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            let kk = sample_categorical(&stats[i].alpha, &mut rng);
            sample_row(&theta_mlp, i, kk, c, &mut rng)
        });

        let counts =
            DecodeCounts { pairs: (n * (n - 1)) as u64, scored: rows.iter().map(|r| r.1).sum() };
        let mut edges = Vec::with_capacity(rows.iter().map(|r| r.0.len()).sum());
        for (i, (dsts, _)) in rows.into_iter().enumerate() {
            for j in dsts {
                edges.push((i as u32, j));
            }
        }
        (edges, counts)
    }

    /// `f_α` and `f_θ` laid out for a decode of the states `s` on `isa`, in
    /// blocks of `L` destinations.
    fn pair_mlps<const L: usize>(&self, isa: Isa, s: &Matrix) -> (PairMlp<'_, L>, PairMlp<'_, L>) {
        (
            PairMlp::new(isa, s, &self.w1a, &self.b1a, &self.w2a, &self.b2a, self.slope),
            PairMlp::new(isa, s, &self.w1t, &self.b1t, &self.w2t, &self.b2t, self.slope),
        )
    }
}

/// Pass A's result for one row.
#[derive(Clone, Debug, Default)]
struct RowStat {
    /// Mixture weights `α_i` (Eq. 11, with the exact `Σ_j`).
    alpha: Vec<f32>,
    /// Expected edge mass `Σ_k α_k Σ_j θ_kj` when calibrating, else 0.
    expected: f64,
}

/// Components whose logits one block loop keeps in registers: pass A runs
/// a larger K as groups of at most this many.
const GROUP: usize = 4;

/// Pass A: every row's [`RowStat`], and the density scale `c` that makes
/// the expected edge count `m_target` (1 without a target).
///
/// A row sums `f_α`, and when calibrating `σ(f_θ)`, over `j ≠ i` in
/// ascending `j`, in `f64`, component group by component group (see
/// [`group_sums`]). Each sum adds the same terms in the same order as a
/// plain pair loop, so the bits are that loop's.
fn pass_a<const L: usize>(
    alpha: &PairMlp<L>,
    theta: &PairMlp<L>,
    m_target: Option<f64>,
) -> (Vec<RowStat>, f64) {
    let (n, k) = (alpha.u.rows(), alpha.k);
    let shape = |m: &PairMlp<L>| (m.isa, m.k, m.b1.len(), m.u_blocks.len());
    assert_eq!(shape(theta), shape(alpha), "f_α and f_θ are laid out alike");
    let theta = m_target.is_some().then_some(theta);
    let stats: Vec<RowStat> = par::par_map_collect(n, 1, |i| {
        let mut acc = vec![0.0f64; k];
        let mut theta_sum = vec![0.0f64; k];
        pass_a_row(alpha, theta, i, (&mut acc, &mut theta_sum));
        // Softmax over K.
        let mx = acc.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = acc.iter().map(|&a| (a - mx).exp()).collect();
        let z: f64 = exps.iter().sum();
        let alpha: Vec<f32> = exps.iter().map(|&e| (e / z) as f32).collect();
        let expected: f64 = alpha.iter().zip(theta_sum.iter()).map(|(&a, &t)| a as f64 * t).sum();
        RowStat { alpha, expected }
    });
    let c = match m_target {
        Some(target) => {
            let e_total: f64 = stats.iter().map(|r| r.expected).sum();
            if e_total > 1e-9 {
                (target / e_total).clamp(1e-4, 1e4)
            } else {
                1.0
            }
        }
        None => 1.0,
    };
    (stats, c)
}

/// Pass A of row `i`: adds `f_α`'s logits of every component into
/// `sums.0` and, when `theta` is given, `σ(f_θ)` into `sums.1`, on the
/// MLPs' instruction set.
///
/// The instruction set is chosen once per row: the row's whole loop, with
/// its logit bodies and lane sums, is compiled inside each wrapper, so no
/// block costs a call.
fn pass_a_row<const L: usize>(
    alpha: &PairMlp<L>,
    theta: Option<&PairMlp<L>>,
    i: usize,
    sums: (&mut [f64], &mut [f64]),
) {
    match alpha.isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F detected at runtime: `PairMlp::new` keeps only an
        // instruction set this CPU supports.
        Isa::Avx512 => unsafe { pass_a_row_avx512(alpha, theta, i, sums) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 detected at runtime, as above.
        Isa::Avx2 => unsafe { pass_a_row_avx2(alpha, theta, i, sums) },
        _ => row_sums(alpha, theta, i, sums),
    }
}

/// [`row_sums`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pass_a_row_avx2<const L: usize>(
    alpha: &PairMlp<L>,
    theta: Option<&PairMlp<L>>,
    i: usize,
    sums: (&mut [f64], &mut [f64]),
) {
    row_sums(alpha, theta, i, sums)
}

/// [`row_sums`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn pass_a_row_avx512<const L: usize>(
    alpha: &PairMlp<L>,
    theta: Option<&PairMlp<L>>,
    i: usize,
    sums: (&mut [f64], &mut [f64]),
) {
    row_sums(alpha, theta, i, sums)
}

/// The body of [`pass_a_row`]: [`group_sums`] over the component groups.
#[inline(always)]
fn row_sums<const L: usize>(
    alpha: &PairMlp<L>,
    theta: Option<&PairMlp<L>>,
    i: usize,
    (acc, theta_sum): (&mut [f64], &mut [f64]),
) {
    let k = alpha.k;
    for k0 in (0..k).step_by(GROUP) {
        let sums = (&mut acc[k0..], &mut theta_sum[k0..]);
        match GROUP.min(k - k0) {
            1 => group_sums::<1, L>(alpha, theta, i, k0, sums),
            2 => group_sums::<2, L>(alpha, theta, i, k0, sums),
            3 => group_sums::<3, L>(alpha, theta, i, k0, sums),
            _ => group_sums::<GROUP, L>(alpha, theta, i, k0, sums),
        }
    }
}

/// Pass A of row `i` on components `k0..k0 + KC`: adds `f_α`'s logits
/// into `sums.0[..KC]` and, when `theta` is given, `σ(f_θ)` into
/// `sums.1[..KC]`.
///
/// One block loop scores both MLPs (2·KC accumulators, all in registers),
/// and the row sums stay in locals until the row ends. The sigmoid
/// `1/(1 + e^{−o})` of a block's KC·L `f_θ` logits is one call of
/// [`math::sigmoid_slice`], eight lanes at a time.
#[inline(always)]
fn group_sums<const KC: usize, const L: usize>(
    alpha: &PairMlp<L>,
    theta: Option<&PairMlp<L>>,
    i: usize,
    k0: usize,
    sums: (&mut [f64], &mut [f64]),
) {
    let n = alpha.u.rows();
    let (mut acc, mut theta_sum) = ([0.0f64; KC], [0.0f64; KC]);
    // The logits pass through `black_box`, so that the compiler keeps the
    // logit loop's accumulators in registers: folded into the lane sums, the
    // loop may be vectorized across components, with its accumulators in
    // memory, some three times slower.
    for j0 in (0..n).step_by(L) {
        // The pairs `(i, j0 + l)` the sums take: `l < lanes`, `l ≠ own`.
        let (lanes, own) = (L.min(n - j0), i.wrapping_sub(j0));
        let Some(theta) = theta else {
            let [oa] = black_box(lane_logits::<KC, 1, L>([alpha], [alpha.block(j0)], i, k0));
            for c in 0..KC {
                add_lanes(&mut acc[c], &oa[c], lanes, own);
            }
            continue;
        };
        let rows = [alpha.block(j0), theta.block(j0)];
        let [oa, ot] = black_box(lane_logits::<KC, 2, L>([alpha, theta], rows, i, k0));
        for c in 0..KC {
            add_lanes(&mut acc[c], &oa[c], lanes, own);
        }
        let mut theta = ot;
        math::sigmoid_slice(theta.as_flattened_mut());
        for c in 0..KC {
            add_lanes(&mut theta_sum[c], &theta[c], lanes, own);
        }
    }
    sums.0[..KC].copy_from_slice(&acc);
    sums.1[..KC].copy_from_slice(&theta_sum);
}

/// Adds lanes `0..lanes` of `v` except lane `own` to `sum`, in `f64` and
/// in lane order. A whole block without `own` takes an unrolled path.
#[inline(always)]
fn add_lanes<const L: usize>(sum: &mut f64, v: &[f32; L], lanes: usize, own: usize) {
    let mut s = *sum;
    if lanes == L && own >= L {
        for &x in v {
            s += x as f64;
        }
    } else {
        for l in (0..lanes).filter(|&l| l != own) {
            s += v[l] as f64;
        }
    }
    *sum = s;
}

/// Pair counts of decode calls, summed by
/// [`GenerationState::decode_counts`](crate::GenerationState::decode_counts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeCounts {
    /// Ordered pairs `(i, j)`, `j ≠ i`, that were decoded: `n(n−1)` per call.
    pub pairs: u64,
    /// Pairs whose sampling logit pass B computed: the pairs whose uniform
    /// draw did not already reject them.
    pub scored: u64,
}

/// Pass B of row `i` on mixture component `kk`: Bernoulli-samples every
/// pair `(i, j)`, `j ≠ i`, with probability `p = min(c·θ, 1)`. Returns the
/// accepted destinations, ascending, and the number of pairs scored.
///
/// One uniform `u` is drawn per pair in ascending `j`, as a plain pair
/// loop draws them, but only the candidates are scored, with the same
/// bits:
///
/// - `θ = 1/(1+e^{−o})` lies in `[0, 1]` unless the logit is NaN, and
///   rounding is monotone, so for `c > 0` `p ≤ c` and a draw `u >= c`
///   rejects its pair whatever the logit.
/// - A NaN logit also makes pass A's `theta_sum` NaN, which sends `c` to
///   1 (without calibration `c` is 1 anyway). As `u < 1`, every pair is
///   then a candidate, and the row is scored block by block as it is
///   drawn.
/// - A NaN target makes `c` NaN, and every pair is a candidate too. The
///   test is written `u >= c`, never `!(u < c)`, so that a NaN `c` can
///   never reject.
///
/// Otherwise the candidates are collected into groups of `L` as they are
/// drawn. A group that is a whole block of destinations is scored with the
/// contiguous logits, any other with the gathered ones.
fn sample_row<const L: usize>(
    mlp: &PairMlp<L>,
    i: usize,
    kk: usize,
    c: f64,
    rng: &mut StdRng,
) -> (Vec<u32>, u64) {
    let n = mlp.u.rows();
    let mut out = Vec::new();
    let mut sample = |o: &[f32; L], l: usize, u: f64, j: usize| {
        let theta = 1.0 / (1.0 + (-o[l] as f64).exp());
        let p = (c * theta).min(1.0);
        if u < p {
            out.push(j as u32);
        }
    };
    if c >= 1.0 || c.is_nan() {
        for j0 in (0..n).step_by(L) {
            let o = mlp.logits(i, j0, kk);
            for l in 0..L.min(n - j0) {
                if j0 + l != i {
                    sample(&o, l, rng.gen::<f64>(), j0 + l);
                }
            }
        }
        return (out, (n - 1) as u64);
    }
    // Candidates `js[..len]` with their draws `us[..len]`.
    let (mut js, mut us, mut len) = ([0usize; L], [0.0f64; L], 0);
    let mut scored = 0u64;
    let mut rows = vec![[0.0f32; L]; mlp.b1.len()];
    let mut score = |js: &[usize; L], us: &[f64; L], len: usize| {
        let o = if len == L && js[0].is_multiple_of(L) && js[L - 1] - js[0] == L - 1 {
            mlp.logits(i, js[0], kk)
        } else {
            mlp.gathered_logits(i, &js[..len], kk, &mut rows)
        };
        for l in 0..len {
            sample(&o, l, us[l], js[l]);
        }
        scored += len as u64;
    };
    for j in (0..n).filter(|&j| j != i) {
        let u = rng.gen::<f64>();
        if u >= c {
            continue;
        }
        (js[len], us[len]) = (j, u);
        len += 1;
        if len == L {
            score(&js, &us, len);
            len = 0;
        }
    }
    if len > 0 {
        score(&js, &us, len);
    }
    (out, scored)
}

/// One pairwise decoder MLP (`f_α` or `f_θ`) laid out for a decode call.
///
/// Its first layer distributes over `s_i − s_j`, so `U = S·W1` is computed
/// once per call and a pair's hidden unit `x` is `U[i,x] − U[j,x] + b1[x]`.
/// `U` is kept row-major for the source rows, and by blocks of `L`
/// destinations, the `f32` lanes the logits are scored on (zero padded past
/// `n`), so that a block's lane vectors for every `x` are one contiguous
/// run: O(n·h) memory, no `n²` buffer.
struct PairMlp<'a, const L: usize> {
    /// The instruction set the logits run on; `new` checks that this CPU
    /// supports it.
    isa: Isa,
    u: Matrix,
    /// `u_blocks[b·h + x][l] = U[b·L + l, x]`.
    u_blocks: Vec<[f32; L]>,
    b1: &'a [f32],
    /// `W2` by component groups: `w2_groups[g·h + x][c] = W2[x, g·GROUP + c]`,
    /// zero past `K`.
    w2_groups: Vec<[f32; GROUP]>,
    b2: &'a [f32],
    k: usize,
    slope: f32,
}

impl<'a, const L: usize> PairMlp<'a, L> {
    /// # Panics
    /// Panics when this CPU does not support `isa`.
    fn new(
        isa: Isa,
        s: &Matrix,
        w1: &Matrix,
        b1: &'a Matrix,
        w2: &Matrix,
        b2: &'a Matrix,
        slope: f32,
    ) -> Self {
        assert!(isa.is_supported(), "this CPU does not support {}", isa.name());
        let u = s.matmul(w1);
        let (n, h, k) = (u.rows(), u.cols(), w2.cols());
        let mut u_blocks = vec![[0.0f32; L]; n.div_ceil(L) * h];
        for j in 0..n {
            for (x, &v) in u.row(j).iter().enumerate() {
                u_blocks[j / L * h + x][j % L] = v;
            }
        }
        let mut w2_groups = vec![[0.0f32; GROUP]; k.div_ceil(GROUP) * h];
        for x in 0..h {
            for c in 0..k {
                w2_groups[c / GROUP * h + x][c % GROUP] = w2.get(x, c);
            }
        }
        PairMlp { isa, u, u_blocks, b1: b1.data(), w2_groups, b2: b2.data(), k, slope }
    }

    /// The lane vectors of the block of destinations `j0..j0 + L`, `j0` a
    /// multiple of `L`, one per `x`.
    fn block(&self, j0: usize) -> &[[f32; L]] {
        debug_assert!(j0.is_multiple_of(L), "block start {j0} is not aligned");
        let h = self.b1.len();
        &self.u_blocks[j0 / L * h..][..h]
    }

    /// Logits of component `kk` for the pairs `(i, j0 + l)`, `l < L`, `j0`
    /// a multiple of `L`. Lanes past `n` read the zero padding; their
    /// logits are meaningless and callers skip them, as they skip `j == i`.
    #[inline]
    fn logits(&self, i: usize, j0: usize, kk: usize) -> [f32; L] {
        let [[o]] = block_logits([self], [self.block(j0)], i, kk);
        o
    }

    /// [`PairMlp::logits`] for the pairs `(i, js[l])`, `l < js.len() ≤ L`:
    /// the destinations' rows of `U` are first gathered into the lanes of
    /// `rows` (`h` long), then scored as a block, with the same per-lane
    /// float order. The lanes past `js.len()` keep what `rows` held; their
    /// logits are meaningless.
    #[inline]
    fn gathered_logits(
        &self,
        i: usize,
        js: &[usize],
        kk: usize,
        rows: &mut [[f32; L]],
    ) -> [f32; L] {
        for (l, &j) in js.iter().enumerate() {
            for (row, &v) in rows.iter_mut().zip(self.u.row(j)) {
                row[l] = v;
            }
        }
        let [[o]] = block_logits([self], [rows], i, kk);
        o
    }
}

/// Logits `out[m][c][l]` of component `k0 + c` of `mlps[m]` for the pairs
/// `(i, j_l)`, where `rows[m][x]` holds the `L` destinations' `U[j_l, x]`
/// of `mlps[m]`, on the MLPs' instruction set.
#[inline(always)]
fn block_logits<const KC: usize, const M: usize, const L: usize>(
    mlps: [&PairMlp<L>; M],
    rows: [&[[f32; L]]; M],
    i: usize,
    k0: usize,
) -> [[[f32; L]; KC]; M] {
    match mlps[0].isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F detected at runtime: `PairMlp::new` keeps only an
        // instruction set this CPU supports.
        Isa::Avx512 => unsafe { lane_logits_avx512(mlps, rows, i, k0) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 detected at runtime, as above.
        Isa::Avx2 => unsafe { lane_logits_avx2(mlps, rows, i, k0) },
        _ => lane_logits(mlps, rows, i, k0),
    }
}

/// [`lane_logits`] compiled with AVX2, where eight lanes fill one register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lane_logits_avx2<const KC: usize, const M: usize, const L: usize>(
    mlps: [&PairMlp<L>; M],
    rows: [&[[f32; L]]; M],
    i: usize,
    k0: usize,
) -> [[[f32; L]; KC]; M] {
    lane_logits(mlps, rows, i, k0)
}

/// [`lane_logits`] compiled with AVX-512F, where sixteen lanes fill one
/// register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lane_logits_avx512<const KC: usize, const M: usize, const L: usize>(
    mlps: [&PairMlp<L>; M],
    rows: [&[[f32; L]]; M],
    i: usize,
    k0: usize,
) -> [[[f32; L]; KC]; M] {
    lane_logits(mlps, rows, i, k0)
}

/// The body of every logit block, compiled once per instruction set.
///
/// Lanes run over destinations, never over the hidden index, so every
/// pair sees exactly the serial float order: `(U[i,x] − U[j,x]) + b1[x]`,
/// then `o = b2[c]` and `o += h[x]·W2[x,c]` for ascending `x`. The
/// accumulators are a local array whose size is known at compile time,
/// so they stay in registers across the whole `x` loop: `M·KC` of them,
/// one per MLP and component, each an independent chain. Every operand
/// is sliced to `h` first, so the compiler drops nearly all of the
/// loop's bounds checks.
#[inline(always)]
fn lane_logits<const KC: usize, const M: usize, const L: usize>(
    mlps: [&PairMlp<L>; M],
    rows: [&[[f32; L]]; M],
    i: usize,
    k0: usize,
) -> [[[f32; L]; KC]; M] {
    let h = mlps[0].b1.len();
    let rows = rows.map(|r| &r[..h]);
    let u_i = mlps.map(|m| &m.u.row(i)[..h]);
    let b1 = mlps.map(|m| &m.b1[..h]);
    // Components `k0..k0 + KC` lie in one group, at `off..off + KC`.
    let (w2, off) = (mlps.map(|m| &m.w2_groups[k0 / GROUP * h..][..h]), k0 % GROUP);
    assert!(off + KC <= GROUP, "components {k0}..{} span two groups", k0 + KC);
    let slope = mlps.map(|m| m.slope);
    let mut out = mlps.map(|m| std::array::from_fn(|c| [m.b2[k0 + c]; L]));
    for x in 0..h {
        for m in 0..M {
            let (a, b, u_j) = (u_i[m][x], b1[m][x], rows[m][x]);
            let hx: [f32; L] = std::array::from_fn(|l| leaky_relu(a - u_j[l] + b, slope[m]));
            for c in 0..KC {
                let w = w2[m][x][off + c];
                for l in 0..L {
                    out[m][c][l] += hx[l] * w;
                }
            }
        }
    }
    out
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn sample_categorical(probs: &[f32], rng: &mut impl RngCore) -> usize {
    let total: f32 = probs.iter().sum();
    let mut x = (rng.next_u64() >> 11) as f32 / (1u64 << 53) as f32 * total;
    for (i, &p) in probs.iter().enumerate() {
        if x < p {
            return i;
        }
        x -= p;
    }
    probs.len() - 1
}

/// The GAT-based attribute decoder (Eq. 12): one attention head over the
/// generated structure followed by an output MLP.
#[derive(Clone)]
pub struct AttributeDecoder {
    w: Linear,
    a_src: Linear,
    a_dst: Linear,
    mlp: Mlp,
    slope: f32,
}

impl AttributeDecoder {
    pub fn new(
        d_s: usize,
        gat_hidden: usize,
        f_out: usize,
        slope: f32,
        rng: &mut impl Rng,
    ) -> Self {
        AttributeDecoder {
            w: Linear::new(d_s, gat_hidden, rng),
            a_src: Linear::new(gat_hidden, 1, rng),
            a_dst: Linear::new(gat_hidden, 1, rng),
            mlp: Mlp::new(
                &[gat_hidden, gat_hidden, f_out],
                Activation::LeakyRelu(slope),
                Activation::Identity,
                rng,
            ),
            slope,
        }
    }

    /// Decode attributes from decoder states `s = [Z_t ‖ H_{t−1}]` and edge
    /// arrays (with self-loops; see [`gat_arrays`]).
    pub fn forward(
        &self,
        s: &Tensor,
        src: &Rc<Vec<u32>>,
        dst: &Rc<Vec<u32>>,
        segments: &Rc<Segments>,
        n: usize,
    ) -> Tensor {
        let hmat = self.w.forward(s);
        let hs = ops::gather_rows(&hmat, Rc::clone(src));
        let hd = ops::gather_rows(&hmat, Rc::clone(dst));
        let e = ops::leaky_relu(
            &ops::add(&self.a_src.forward(&hs), &self.a_dst.forward(&hd)),
            self.slope,
        );
        let att = ops::segment_softmax(&e, Rc::clone(segments));
        let msg = ops::mul_col(&hs, &att);
        let agg = ops::scatter_add_rows(&msg, Rc::clone(dst), n);
        self.mlp.forward(&agg)
    }

    pub fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.w.parameters();
        p.extend(self.a_src.parameters());
        p.extend(self.a_dst.parameters());
        p.extend(self.mlp.parameters());
        p
    }
}

/// Build the GAT edge arrays for a directed edge list: self-loops are
/// appended so isolated nodes still attend to themselves, messages flow
/// src → dst, and attention is normalized per destination.
pub fn gat_arrays(n: usize, edges: &[(u32, u32)]) -> (Rc<Vec<u32>>, Rc<Vec<u32>>, Rc<Segments>) {
    let m = edges.len() + n;
    let mut src = Vec::with_capacity(m);
    let mut dst = Vec::with_capacity(m);
    for &(u, v) in edges {
        src.push(u);
        dst.push(v);
    }
    for i in 0..n as u32 {
        src.push(i);
        dst.push(i);
    }
    let segments = Segments::group(&dst, n);
    (Rc::new(src), Rc::new(dst), Rc::new(segments))
}

/// The scalar pair loop the lane-batched kernel replaced, kept as the
/// oracle the kernel must match byte for byte. It scores every pair, and
/// also counts the pairs whose draw alone does not reject them (`u >= c`),
/// which are the pairs the kernel must score.
#[cfg(test)]
fn scalar_generate_edges(
    plan: &DecodePlan,
    s: &Matrix,
    m_target: Option<f64>,
    seed: u64,
) -> (Vec<(u32, u32)>, DecodeCounts) {
    let n = s.rows();
    if n < 2 {
        return (Vec::new(), DecodeCounts::default());
    }
    let (w2t, b1t, b2t) = (&plan.w2t, &plan.b1t, &plan.b2t);
    let h = plan.w1t.cols();
    let ut = s.matmul(&plan.w1t);
    let slope = plan.slope;
    let (stats, c) = scalar_pass_a(plan, s, m_target);

    let rows: Vec<(Vec<u32>, u64)> = par::par_map_collect(n, 1, |i| {
        let mut rng = StdRng::seed_from_u64(splitmix64(
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        let kk = sample_categorical(&stats[i].alpha, &mut rng);
        let ut_i = ut.row(i);
        let mut out = Vec::new();
        let mut rejected = 0u64;
        let mut ht = vec![0.0f32; h];
        for j in 0..n {
            if j == i {
                continue;
            }
            let ut_j = ut.row(j);
            for x in 0..h {
                let v = ut_i[x] - ut_j[x] + b1t.data()[x];
                ht[x] = if v > 0.0 { v } else { slope * v };
            }
            let mut o = b2t.data()[kk];
            for x in 0..h {
                o += ht[x] * w2t.get(x, kk);
            }
            let theta = 1.0 / (1.0 + (-o as f64).exp());
            let p = (c * theta).min(1.0);
            let u = rng.gen::<f64>();
            rejected += u64::from(u >= c);
            if u < p {
                out.push(j as u32);
            }
        }
        (out, rejected)
    });

    let pairs = (n * (n - 1)) as u64;
    let counts = DecodeCounts { pairs, scored: pairs - rows.iter().map(|r| r.1).sum::<u64>() };
    let edges = rows
        .into_iter()
        .enumerate()
        .flat_map(|(i, (dsts, _))| dsts.into_iter().map(move |j| (i as u32, j)))
        .collect();
    (edges, counts)
}

/// Pass A of the scalar pair loop: every row's [`RowStat`] and the density
/// scale `c`, the oracle of [`pass_a`] (`n ≥ 2`).
#[cfg(test)]
fn scalar_pass_a(plan: &DecodePlan, s: &Matrix, m_target: Option<f64>) -> (Vec<RowStat>, f64) {
    let n = s.rows();
    let k = plan.w2a.cols();
    let (w2a, b1a, b2a) = (&plan.w2a, &plan.b1a, &plan.b2a);
    let (w2t, b1t, b2t) = (&plan.w2t, &plan.b1t, &plan.b2t);
    let h = plan.w1a.cols();
    let ua = s.matmul(&plan.w1a);
    let ut = s.matmul(&plan.w1t);
    let slope = plan.slope;
    let calibrate = m_target.is_some();

    let stats: Vec<RowStat> = par::par_map_collect(n, 1, |i| {
        let mut acc = vec![0.0f64; k];
        let mut theta_sum = vec![0.0f64; k];
        let ua_i = ua.row(i);
        let ut_i = ut.row(i);
        let mut ha = vec![0.0f32; h];
        let mut ht = vec![0.0f32; h];
        for j in 0..n {
            if j == i {
                continue;
            }
            let ua_j = ua.row(j);
            for x in 0..h {
                let v = ua_i[x] - ua_j[x] + b1a.data()[x];
                ha[x] = if v > 0.0 { v } else { slope * v };
            }
            for kk in 0..k {
                let mut o = b2a.data()[kk];
                for x in 0..h {
                    o += ha[x] * w2a.get(x, kk);
                }
                acc[kk] += o as f64;
            }
            if calibrate {
                let ut_j = ut.row(j);
                for x in 0..h {
                    let v = ut_i[x] - ut_j[x] + b1t.data()[x];
                    ht[x] = if v > 0.0 { v } else { slope * v };
                }
                for kk in 0..k {
                    let mut o = b2t.data()[kk];
                    for x in 0..h {
                        o += ht[x] * w2t.get(x, kk);
                    }
                    theta_sum[kk] += (1.0 / (1.0 + math::exp_f32(-o))) as f64;
                }
            }
        }
        let mx = acc.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = acc.iter().map(|&a| (a - mx).exp()).collect();
        let z: f64 = exps.iter().sum();
        let alpha: Vec<f32> = exps.iter().map(|&e| (e / z) as f32).collect();
        let expected: f64 = alpha.iter().zip(theta_sum.iter()).map(|(&a, &t)| a as f64 * t).sum();
        RowStat { alpha, expected }
    });

    let c = match m_target {
        Some(target) => {
            let e_total: f64 = stats.iter().map(|r| r.expected).sum();
            if e_total > 1e-9 {
                (target / e_total).clamp(1e-4, 1e4)
            } else {
                1.0
            }
        }
        None => 1.0,
    };
    (stats, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vrdag_tensor::no_grad;

    fn toy_snapshot() -> Snapshot {
        Snapshot::new(6, vec![(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 3)], Matrix::zeros(6, 2))
    }

    #[test]
    fn pair_batch_contains_all_positives() {
        let s = toy_snapshot();
        let mut rng = StdRng::seed_from_u64(1);
        let b = sample_pair_batch(&s, 3, &mut rng);
        let positives = b.targets.data().iter().filter(|&&t| t == 1.0).count();
        assert_eq!(positives, s.n_edges());
        // Negatives carry the importance weight (n-1-deg)/q.
        for p in 0..b.len() {
            if b.targets.data()[p] == 0.0 {
                let i = b.src[p] as usize;
                let expect = (5 - s.out_adj().neighbors(i).len()) as f32 / 3.0;
                assert!((b.weights.data()[p] - expect).abs() < 1e-6);
                // Negative pairs must not be edges.
                assert!(!s.has_edge(b.src[p], b.dst[p]));
            }
        }
    }

    #[test]
    fn alpha_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let dec = MixBernoulliDecoder::new(6, 8, 3, 0.2, &mut rng);
        let s = Tensor::constant(Matrix::rand_uniform(10, 6, -1.0, 1.0, &mut rng));
        let a = dec.alpha_train(&s, 10, 4, &mut rng).value_clone();
        for i in 0..10 {
            let sum: f32 = a.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn structure_loss_is_finite_and_trainable() {
        let mut rng = StdRng::seed_from_u64(3);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        let snap = toy_snapshot();
        let s = Tensor::param(Matrix::rand_uniform(6, 4, -0.5, 0.5, &mut rng));
        let batch = sample_pair_batch(&snap, 2, &mut rng);
        let alpha = dec.alpha_train(&s, 6, 3, &mut rng);
        let loss = dec.structure_loss(&s, &alpha, &batch, 6);
        assert!(loss.item().is_finite());
        loss.backward();
        for p in dec.parameters() {
            assert!(p.grad().is_some(), "decoder parameter missing grad");
        }
        assert!(s.grad().is_some());
    }

    #[test]
    fn generate_edges_is_deterministic_and_valid() {
        let mut rng = StdRng::seed_from_u64(4);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        let s = Matrix::rand_uniform(20, 4, -1.0, 1.0, &mut rng);
        let e1 = dec.plan().generate_edges(&s, Some(30.0), 99);
        let e2 = dec.plan().generate_edges(&s, Some(30.0), 99);
        assert_eq!(e1, e2, "same seed must give same edges");
        for &(u, v) in &e1 {
            assert!(u != v && (u as usize) < 20 && (v as usize) < 20);
        }
    }

    #[test]
    fn calibration_steers_edge_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        let s = Matrix::rand_uniform(40, 4, -1.0, 1.0, &mut rng);
        let target = 120.0;
        let edges = dec.plan().generate_edges(&s, Some(target), 7);
        let m = edges.len() as f64;
        assert!(
            m > 0.4 * target && m < 2.5 * target,
            "calibrated edge count {m} far from target {target}"
        );
    }

    #[test]
    fn generation_matches_training_probabilities() {
        // For K components, marginal p̄_ij from pair_probs must equal the
        // α-weighted sigmoid the generator uses internally; spot-check via
        // the expected count under calibration off: generate many times and
        // compare the empirical rate of one pair. Cheaper: check that with
        // a strongly negative θ bias generation yields no edges.
        let mut rng = StdRng::seed_from_u64(6);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        dec.f_theta.layer(1).bias.update_value(|b| b.fill(-30.0));
        let s = Matrix::rand_uniform(15, 4, -1.0, 1.0, &mut rng);
        let edges = dec.plan().generate_edges(&s, None, 1);
        assert!(edges.is_empty(), "θ ≈ 0 must generate an empty graph");
    }

    /// A decoder whose every weight and bias is random, so the bias adds
    /// and the leaky ReLU's negative side are all exercised.
    fn random_decoder(d_s: usize, h: usize, k: usize, rng: &mut StdRng) -> MixBernoulliDecoder {
        let slope = rng.gen_range(0.01f32..0.99);
        let dec = MixBernoulliDecoder::new(d_s, h, k, slope, rng);
        for p in dec.parameters() {
            let (r, c) = p.shape();
            let scale = rng.gen_range(0.1f32..2.0);
            let noise = Matrix::rand_normal(r, c, 0.0, scale, rng);
            p.update_value(|m| *m = noise);
        }
        dec
    }

    /// Every instruction set this CPU supports, each with `U` in blocks of
    /// 8 and of 16 destinations: the width a decode picks for it (16 on
    /// AVX-512, else 8) and the other, so that every CPU checks the 16-lane
    /// instance of the source bodies.
    fn layouts() -> impl Iterator<Item = (Isa, usize)> {
        simd::supported().flat_map(|isa| [(isa, 8), (isa, 16)])
    }

    /// [`DecodePlan::generate_edges_in`] on `isa` in blocks of `lanes`.
    fn decode_on(
        plan: &DecodePlan,
        (isa, lanes): (Isa, usize),
        s: &Matrix,
        m_target: Option<f64>,
        seed: u64,
    ) -> (Vec<(u32, u32)>, DecodeCounts) {
        match lanes {
            8 => plan.generate_edges_in::<8>(isa, s, m_target, seed),
            16 => plan.generate_edges_in::<16>(isa, s, m_target, seed),
            _ => unreachable!("no decode in blocks of {lanes}"),
        }
    }

    /// [`pass_a`] on `isa` in blocks of `lanes`.
    fn pass_a_on(
        plan: &DecodePlan,
        (isa, lanes): (Isa, usize),
        s: &Matrix,
        m_target: Option<f64>,
    ) -> (Vec<RowStat>, f64) {
        fn run<const L: usize>(
            plan: &DecodePlan,
            isa: Isa,
            s: &Matrix,
            m: Option<f64>,
        ) -> (Vec<RowStat>, f64) {
            let (alpha, theta) = plan.pair_mlps::<L>(isa, s);
            pass_a(&alpha, &theta, m)
        }
        match lanes {
            8 => run::<8>(plan, isa, s, m_target),
            16 => run::<16>(plan, isa, s, m_target),
            _ => unreachable!("no decode in blocks of {lanes}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The lane-batched kernel returns exactly the scalar oracle's
        /// edges, and scores exactly the pairs a draw alone does not
        /// reject: below one block (n < 8), whole blocks of 8 and of 16,
        /// partial last blocks, and `i` inside such a block, with and
        /// without calibration, on every layout (see `layouts`), on one and
        /// three threads.
        #[test]
        fn lane_kernel_matches_the_scalar_oracle(case_seed in 0u64..u64::MAX, d_s in 1usize..7) {
            let mut rng = StdRng::seed_from_u64(case_seed);
            for n in [2, 7, 8, 9, 16, 17, 33] {
                for h in [3, 8, 32] {
                    for k in [1, 3, 4] {
                        let plan = random_decoder(d_s, h, k, &mut rng).plan();
                        let s = Matrix::rand_normal(n, d_s, 0.0, 1.5, &mut rng);
                        let seed = rng.gen::<u64>();
                        let target = rng.gen_range(0.5..(n * n) as f64);
                        for m_target in [None, Some(target)] {
                            let want = scalar_generate_edges(&plan, &s, m_target, seed);
                            for (layout, threads) in layouts().flat_map(|l| [(l, 1), (l, 3)]) {
                                let got = par::with_threads(threads, || {
                                    decode_on(&plan, layout, &s, m_target, seed)
                                });
                                prop_assert_eq!(
                                    &got, &want,
                                    "n={} h={} k={} calibrate={} isa={} lanes={} threads={}",
                                    n, h, k, m_target.is_some(), layout.0.name(), layout.1, threads
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A named decode case: `(name, plan, m_target)`.
    type EdgeCase = (&'static str, DecodePlan, Option<f64>);

    /// The candidate skip's edge cases on one state matrix: a NaN `f_θ`
    /// weight (`c` falls back to 1), a NaN target (`c` is NaN), a tiny
    /// target (`c` clamped to `1e-4`), a huge one (`c` clamped to `1e4`)
    /// and no calibration.
    fn skip_edge_cases() -> (Matrix, Vec<EdgeCase>) {
        let mut rng = StdRng::seed_from_u64(11);
        let (n, d_s, h, k) = (37, 5, 16, 3);
        let base = random_decoder(d_s, h, k, &mut rng).plan();
        let s = Matrix::rand_normal(n, d_s, 0.0, 1.5, &mut rng);
        let mut nan_w2 = base.clone();
        nan_w2.w2t.set(h / 2, 1, f32::NAN);
        let cases = vec![
            ("nan_w2", nan_w2, Some(50.0)),
            ("nan_target", base.clone(), Some(f64::NAN)),
            ("tiny_target", base.clone(), Some(1e-9)),
            ("huge_target", base.clone(), Some(1e9)),
            ("uncalibrated", base, None),
        ];
        (s, cases)
    }

    /// The candidate skip's edge cases, each equal to the scalar oracle on
    /// every layout on one and three threads. The scored count shows which
    /// pairs the skip kept.
    #[test]
    fn candidate_skip_edge_cases_match_the_scalar_oracle() {
        let (s, cases) = skip_edge_cases();
        let n = s.rows();
        let all = (n * (n - 1)) as u64;
        for (name, plan, m_target) in &cases {
            let (plan, m_target) = (plan, *m_target);
            for seed in [3, 77] {
                let want = scalar_generate_edges(plan, &s, m_target, seed);
                for (layout, threads) in layouts().flat_map(|l| [(l, 1), (l, 3)]) {
                    let got =
                        par::with_threads(threads, || decode_on(plan, layout, &s, m_target, seed));
                    let (isa, lanes) = (layout.0.name(), layout.1);
                    let at =
                        format!("{name} seed={seed} isa={isa} lanes={lanes} threads={threads}");
                    assert_eq!(got, want, "{at}");
                    let counts = got.1;
                    assert_eq!(counts.pairs, all, "{at}");
                    if *name == "tiny_target" {
                        assert!(counts.scored * 100 < all, "{at}: scored {counts:?}");
                    } else {
                        assert_eq!(counts.scored, all, "{at}: every pair is a candidate");
                    }
                }
            }
        }
    }

    /// Pass A of `plan` equals the scalar oracle's bit for bit, on every
    /// layout, on one and three threads: each row's `α` and expected edge
    /// mass, and the density scale `c`.
    fn assert_pass_a_is_the_oracle(plan: &DecodePlan, s: &Matrix, m_target: Option<f64>, at: &str) {
        let (want, want_c) = scalar_pass_a(plan, s, m_target);
        for (layout, threads) in layouts().flat_map(|l| [(l, 1), (l, 3)]) {
            let (got, c) = par::with_threads(threads, || pass_a_on(plan, layout, s, m_target));
            let at = format!("{at} isa={} lanes={} threads={threads}", layout.0.name(), layout.1);
            assert_eq!(c.to_bits(), want_c.to_bits(), "{at}: c {c} vs {want_c}");
            assert_eq!(got.len(), want.len(), "{at}");
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let bits = |r: &RowStat| r.alpha.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want), "{at} row {i}: alpha {got:?} vs {want:?}");
                let (g, w) = (got.expected, want.expected);
                assert_eq!(g.to_bits(), w.to_bits(), "{at} row {i}: expected {g} vs {w}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Sampled edges hide a 1-ulp drift in pass A's sums, so its
        /// intermediates are checked against the oracle directly: with K
        /// of one component group, a whole group, a group and a remainder,
        /// and three groups, with and without calibration.
        #[test]
        fn pass_a_is_bitwise_the_scalar_oracle(case_seed in 0u64..u64::MAX, d_s in 1usize..7) {
            let mut rng = StdRng::seed_from_u64(case_seed);
            for n in [2, 7, 8, 9, 16, 17, 33] {
                for h in [3, 8, 32] {
                    for k in [1, 3, 4, 5, 9] {
                        let plan = random_decoder(d_s, h, k, &mut rng).plan();
                        let s = Matrix::rand_normal(n, d_s, 0.0, 1.5, &mut rng);
                        let target = rng.gen_range(0.5..(n * n) as f64);
                        for m_target in [None, Some(target)] {
                            let at = format!("n={n} h={h} k={k} calibrate={}", m_target.is_some());
                            assert_pass_a_is_the_oracle(&plan, &s, m_target, &at);
                        }
                    }
                }
            }
        }
    }

    /// Pass A on the candidate skip's edge cases: a NaN `θ` sum, a NaN
    /// target, `c` clamped at both ends, and no calibration.
    #[test]
    fn pass_a_edge_cases_match_the_scalar_oracle() {
        let (s, cases) = skip_edge_cases();
        for (name, plan, m_target) in &cases {
            assert_pass_a_is_the_oracle(plan, &s, *m_target, name);
        }
    }

    /// One pair's logit of component `c`, in the scalar loop's order.
    fn scalar_logit(
        u: &Matrix,
        i: usize,
        j: usize,
        layer: (&Matrix, &Matrix, &Matrix),
        slope: f32,
        c: usize,
    ) -> f32 {
        let (b1, w2, b2) = layer;
        let mut o = b2.data()[c];
        for x in 0..u.cols() {
            let v = u.get(i, x) - u.get(j, x) + b1.data()[x];
            o += if v > 0.0 { v } else { slope * v } * w2.get(x, c);
        }
        o
    }

    /// Ascending destination sets of row `i` for the gathered logits, at
    /// most `L` long: a random partial group, a full random group, a set
    /// that straddles `i`, and a consecutive run.
    fn gather_sets<const L: usize>(n: usize, i: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
        let mut sets = Vec::new();
        let mut push = |mut picked: Vec<usize>| {
            picked.sort_unstable();
            sets.push(picked);
        };
        let subset = |len: usize, from: &[usize], rng: &mut StdRng| {
            let mut pool = from.to_vec();
            (0..len.min(pool.len()))
                .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
                .collect()
        };
        let all: Vec<usize> = (0..n).collect();
        let len = rng.gen_range(1..L.min(n) + 1);
        let picked = subset(len, &all, rng);
        push(picked);
        let picked = subset(L, &all, rng);
        push(picked);
        if 0 < i && i + 1 < n {
            let below = rng.gen_range(1..i.min(L - 1) + 1);
            let mut picked: Vec<usize> = subset(below, &all[..i], rng);
            picked.extend(subset(L - below, &all[i + 1..], rng));
            push(picked);
        }
        let len = L.min(n);
        let start = rng.gen_range(0..n - len + 1);
        push((start..start + len).collect());
        sets
    }

    /// Values that take the float edge paths: NaN, `±∞`, `-0.0` and
    /// subnormals of both signs.
    const SPECIAL: [f32; 6] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40, -3e-39];

    /// The bits of a logit, with every NaN as the one quiet NaN. A NaN's
    /// sign and payload are not part of the output: x86 passes on the
    /// first operand's NaN, the compiler may swap the operands of an add
    /// or a multiply, and a NaN `θ` only ever meets `min(c·θ, 1)`, which
    /// gives 1, or a sum that stays NaN.
    fn logit_bits(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Sets up to two random entries of `m` to random [`SPECIAL`] values.
    fn poison(m: &mut Matrix, rng: &mut StdRng) {
        for _ in 0..rng.gen_range(0..3) {
            let (r, c) = (rng.gen_range(0..m.rows()), rng.gen_range(0..m.cols()));
            m.set(r, c, SPECIAL[rng.gen_range(0..SPECIAL.len())]);
        }
    }

    impl<const L: usize> PairMlp<'_, L> {
        /// Sets `U[j, x]` in both of its layouts.
        fn set_u(&mut self, j: usize, x: usize, v: f32) {
            let h = self.b1.len();
            self.u.set(j, x, v);
            self.u_blocks[j / L * h + x][j % L] = v;
        }
    }

    /// The logits of components `k0..k0 + KC` for the block `j0` of row
    /// `i`, as pass A computes them: `[f_α, f_θ]` from the fused block,
    /// then `f_α` alone.
    fn group_logits<const KC: usize, const L: usize>(
        mlps: [&PairMlp<L>; 2],
        i: usize,
        j0: usize,
        k0: usize,
    ) -> [Vec<[f32; L]>; 3] {
        let rows = mlps.map(|m| m.block(j0));
        let [fa, ft] = block_logits::<KC, 2, L>(mlps, rows, i, k0);
        let [a] = block_logits::<KC, 1, L>([mlps[0]], [rows[0]], i, k0);
        [fa.to_vec(), ft.to_vec(), a.to_vec()]
    }

    /// `U` entries `(is_alpha, j, x, value)` to poke before scoring.
    type UPokes = [(bool, usize, usize, f32)];

    /// The checks of `lane_logits_are_bitwise_the_scalar_pair_logits` for
    /// one plan on `isa` in blocks of `L`: every block of every row, every
    /// component group, and the gathered form on [`gather_sets`].
    fn assert_lane_logits_are_the_scalar_ones<const L: usize>(
        plan: &DecodePlan,
        s: &Matrix,
        u_pokes: &UPokes,
        isa: Isa,
        rng: &mut StdRng,
    ) {
        let (n, h, k) = (s.rows(), plan.w1a.cols(), plan.w2a.cols());
        let sets: Vec<_> = (0..n).map(|i| gather_sets::<L>(n, i, rng)).collect();
        let mut rows = vec![[0.0f32; L]; h];
        let (mut alpha, mut theta) = plan.pair_mlps::<L>(isa, s);
        for &(is_alpha, j, x, v) in u_pokes {
            if is_alpha { &mut alpha } else { &mut theta }.set_u(j, x, v);
        }
        let layers = [(&plan.b1a, &plan.w2a, &plan.b2a), (&plan.b1t, &plan.w2t, &plan.b2t)];
        let want = |m: usize, i: usize, j: usize, c: usize| {
            let u = if m == 0 { &alpha.u } else { &theta.u };
            logit_bits(scalar_logit(u, i, j, layers[m], plan.slope, c))
        };
        let isa = isa.name();
        for i in 0..n {
            for j0 in (0..n).step_by(L) {
                for k0 in (0..k).step_by(GROUP) {
                    let mlps = [&alpha, &theta];
                    let [fa, ft, a] = match GROUP.min(k - k0) {
                        1 => group_logits::<1, L>(mlps, i, j0, k0),
                        2 => group_logits::<2, L>(mlps, i, j0, k0),
                        3 => group_logits::<3, L>(mlps, i, j0, k0),
                        _ => group_logits::<GROUP, L>(mlps, i, j0, k0),
                    };
                    for c in k0..k0 + fa.len() {
                        let (pa, pt) = (alpha.logits(i, j0, c), theta.logits(i, j0, c));
                        for j in j0..n.min(j0 + L) {
                            let (l, g) = (j - j0, c - k0);
                            let at =
                                format!("n={n} h={h} k={k} i={i} j={j} c={c} isa={isa} lanes={L}");
                            assert_eq!(logit_bits(pa[l]), want(0, i, j, c), "pass B f_α {at}");
                            assert_eq!(logit_bits(pt[l]), want(1, i, j, c), "pass B f_θ {at}");
                            assert_eq!(logit_bits(fa[g][l]), logit_bits(pa[l]), "fused f_α {at}");
                            assert_eq!(logit_bits(ft[g][l]), logit_bits(pt[l]), "fused f_θ {at}");
                            assert_eq!(logit_bits(a[g][l]), logit_bits(pa[l]), "f_α only {at}");
                        }
                    }
                }
            }
            // `rows` carries the lanes of the previous sets past `js.len()`.
            for js in &sets[i] {
                for c in 0..k {
                    let o = theta.gathered_logits(i, js, c, &mut rows);
                    for l in 0..js.len() {
                        let at = format!("n={n} h={h} k={k} i={i} js={js:?} c={c} isa={isa}");
                        assert_eq!(logit_bits(o[l]), want(1, i, js[l], c), "gathered {at}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Sampled edges hide sub-ulp logit drift (it almost never flips a
        /// Bernoulli draw), so the block routine is also checked directly,
        /// on every layout (see `layouts`): every lane's logit of pass B's
        /// one-component form has the scalar loop's exact bits for both
        /// MLPs, and pass A's fused `f_α`/`f_θ` form and its `f_α`-only
        /// form give those bits lane for lane, component group by component
        /// group (K of one group, a whole group, a group and a remainder,
        /// three groups). So does every lane of the gathered form, on
        /// random ascending destination sets: partial groups, sets that
        /// straddle `i`, and consecutive runs. Entries of `U`, `b1` and
        /// `W2` are randomly NaN, `±∞`, `-0.0` or subnormal, so the leaky
        /// ReLU's edge cases are taken too; a NaN logit must stay NaN (see
        /// `logit_bits`).
        #[test]
        fn lane_logits_are_bitwise_the_scalar_pair_logits(case_seed in 0u64..u64::MAX, d_s in 1usize..7) {
            let mut rng = StdRng::seed_from_u64(case_seed);
            for n in [2, 7, 8, 9, 17] {
                for (h, k) in [(3, 1), (8, 3), (32, 4), (5, 5), (16, 9)] {
                    let mut plan = random_decoder(d_s, h, k, &mut rng).plan();
                    for m in [&mut plan.b1a, &mut plan.w2a, &mut plan.b1t, &mut plan.w2t] {
                        poison(m, &mut rng);
                    }
                    let s = Matrix::rand_normal(n, d_s, 0.0, 1.5, &mut rng);
                    let mut u_pokes = Vec::new();
                    for _ in 0..rng.gen_range(0..5) {
                        let v = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                        u_pokes.push((rng.gen_bool(0.5), rng.gen_range(0..n), rng.gen_range(0..h), v));
                    }
                    for isa in simd::supported() {
                        assert_lane_logits_are_the_scalar_ones::<8>(&plan, &s, &u_pokes, isa, &mut rng);
                        assert_lane_logits_are_the_scalar_ones::<16>(&plan, &s, &u_pokes, isa, &mut rng);
                    }
                }
            }
        }
    }

    /// At the model shape `tests/decode_golden.rs` pins (the `test_small`
    /// configuration on the `tiny` dataset), the decode on every instruction
    /// set this CPU supports, at the width it picks, gives exactly the
    /// baseline edges, calibrated and not, on one and three threads.
    #[test]
    fn every_isa_decode_gives_the_baseline_edges_at_the_golden_shape() {
        let cfg = crate::VrdagConfig::test_small();
        let n = vrdag_datasets::tiny().n;
        let mut rng = StdRng::seed_from_u64(10);
        let dec = MixBernoulliDecoder::new(
            cfg.d_s(),
            cfg.decoder_hidden,
            cfg.k_mix,
            cfg.leaky_slope,
            &mut rng,
        );
        let plan = dec.plan();
        let s = Matrix::rand_normal(n, cfg.d_s(), 0.0, 1.0, &mut rng);
        for m_target in [None, Some(4.0 * n as f64)] {
            for seed in [0, 7, 4242] {
                let want = plan.generate_edges_on(Isa::Baseline, &s, m_target, seed).0;
                assert!(!want.is_empty(), "an empty graph pins no decode");
                for (isa, threads) in simd::supported().flat_map(|isa| [(isa, 1), (isa, 3)]) {
                    let got = par::with_threads(threads, || {
                        plan.generate_edges_on(isa, &s, m_target, seed).0
                    });
                    let calibrate = m_target.is_some();
                    let at = format!("calibrate={calibrate} seed={seed} isa={}", isa.name());
                    assert_eq!(got, want, "{at} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn gat_attribute_decoder_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(7);
        let dec = AttributeDecoder::new(6, 8, 3, 0.2, &mut rng);
        let snap = toy_snapshot();
        let (src, dst, segs) = gat_arrays(6, snap.edges());
        let s = Tensor::param(Matrix::rand_uniform(6, 6, -1.0, 1.0, &mut rng));
        let x = dec.forward(&s, &src, &dst, &segs, 6);
        assert_eq!(x.shape(), (6, 3));
        let loss = ops::sum_all(&x);
        loss.backward();
        for p in dec.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn gat_handles_isolated_nodes_via_self_loops() {
        let mut rng = StdRng::seed_from_u64(8);
        let dec = AttributeDecoder::new(4, 4, 2, 0.2, &mut rng);
        let (src, dst, segs) = gat_arrays(3, &[]); // no edges at all
        let s = Tensor::constant(Matrix::ones(3, 4));
        let x = no_grad(|| dec.forward(&s, &src, &dst, &segs, 3));
        assert_eq!(x.shape(), (3, 2));
        assert!(!x.value_clone().has_non_finite());
    }

    #[test]
    fn splitmix_is_stable() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn categorical_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[sample_categorical(&[0.1, 0.6, 0.3], &mut rng)] += 1;
        }
        assert!(counts[1] > counts[0] && counts[1] > counts[2]);
        assert!(counts[0] > 100);
    }
}
