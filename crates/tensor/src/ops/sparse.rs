//! Sparse graph ops: CSR neighbor aggregation (for GIN-style message
//! passing, Eq. 5 of the paper) and per-segment softmax (for GAT attention,
//! Eq. 12).

use crate::autograd::Tensor;
use crate::math;
use crate::matrix::Matrix;
use crate::par;
use std::rc::Rc;

/// Compressed sparse row adjacency: `targets[offsets[i]..offsets[i+1]]` are
/// the neighbors of node `i`. Direction semantics are up to the caller
/// (VRDAG uses separate in-flow and out-flow adjacency).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseAdj {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl SparseAdj {
    /// Build from per-node neighbor lists.
    pub fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0usize);
        let total: usize = lists.iter().map(|l| l.len()).sum();
        let mut targets = Vec::with_capacity(total);
        for l in lists {
            targets.extend_from_slice(l);
            offsets.push(targets.len());
        }
        SparseAdj { offsets, targets }
    }

    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics when `offsets` is empty, not monotone, or does not end at
    /// `targets.len()`.
    pub fn from_raw(offsets: Vec<usize>, targets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets must start with 0");
        assert_eq!(offsets[0], 0, "offsets must start with 0");
        assert_eq!(*offsets.last().unwrap(), targets.len(), "offsets must end at targets.len()");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be monotone");
        SparseAdj { offsets, targets }
    }

    /// Number of source nodes (CSR rows).
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbor list of node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of node `i` in this adjacency.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }
}

/// Neighbor-sum aggregation: `out[i] = Σ_{j ∈ adj(i)} x[j]`.
///
/// This is the Σ term of the GIN update (Eq. 5). Forward is parallel over
/// destination rows; backward scatters `g[i]` into every neighbor `j`.
pub fn spmm_sum(adj: Rc<SparseAdj>, x: &Tensor) -> Tensor {
    let value = {
        let xv = x.value();
        spmm_sum_matrix(&adj, &xv)
    };
    let adj_b = Rc::clone(&adj);
    Tensor::from_op(
        value,
        vec![x.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let (r, c) = parents[0].shape();
                let mut gx = Matrix::zeros(r, c);
                for i in 0..adj_b.n_rows() {
                    let gi = g.row(i);
                    for &j in adj_b.neighbors(i) {
                        let row = gx.row_mut(j as usize);
                        for (o, &v) in row.iter_mut().zip(gi.iter()) {
                            *o += v;
                        }
                    }
                }
                parents[0].accumulate_grad_owned(gx);
            }
        }),
    )
}

/// Plain-matrix neighbor sum (inference-path helper, no tape).
pub fn spmm_sum_matrix(adj: &SparseAdj, x: &Matrix) -> Matrix {
    let c = x.cols();
    let mut out = Matrix::zeros(adj.n_rows(), c);
    {
        let xd = x.data();
        par::par_row_chunks_mut(out.data_mut(), c.max(1), 32, |row0, chunk| {
            for (ri, out_row) in chunk.chunks_exact_mut(c).enumerate() {
                let i = row0 + ri;
                for &j in adj.neighbors(i) {
                    let src = &xd[j as usize * c..(j as usize + 1) * c];
                    for (o, &v) in out_row.iter_mut().zip(src.iter()) {
                        *o += v;
                    }
                }
            }
        });
    }
    out
}

/// Edge-to-segment grouping for per-destination softmax. `edge_ids` lists
/// edge indices grouped contiguously per segment; `offsets` delimits the
/// groups.
#[derive(Clone, Debug)]
pub struct Segments {
    offsets: Vec<usize>,
    edge_ids: Vec<u32>,
}

impl Segments {
    /// Group `m` edges by their segment id (e.g. destination node), given
    /// `seg_of_edge[e] < n_segments`.
    pub fn group(seg_of_edge: &[u32], n_segments: usize) -> Self {
        let mut counts = vec![0usize; n_segments + 1];
        for &s in seg_of_edge {
            counts[s as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut edge_ids = vec![0u32; seg_of_edge.len()];
        for (e, &s) in seg_of_edge.iter().enumerate() {
            edge_ids[cursor[s as usize]] = e as u32;
            cursor[s as usize] += 1;
        }
        Segments { offsets, edge_ids }
    }

    pub fn n_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn n_edges(&self) -> usize {
        self.edge_ids.len()
    }

    /// Edge indices of segment `s`.
    #[inline]
    pub fn edges_of(&self, s: usize) -> &[u32] {
        &self.edge_ids[self.offsets[s]..self.offsets[s + 1]]
    }
}

/// Softmax over edge scores within each segment: for segment `S` and edge
/// `e ∈ S`, `α_e = exp(x_e) / Σ_{e' ∈ S} exp(x_{e'})` (max-subtracted, with
/// [`math::exp_f32`]).
///
/// Input and output are `[m, 1]` column vectors. Edges whose segment is
/// empty cannot exist by construction.
pub fn segment_softmax(scores: &Tensor, segments: Rc<Segments>) -> Tensor {
    let (m, c) = scores.shape();
    assert_eq!(c, 1, "segment_softmax expects an [m,1] score column");
    assert_eq!(m, segments.n_edges(), "one score per edge");
    let value = {
        let sv = scores.value();
        let mut out = Matrix::zeros(m, 1);
        for s in 0..segments.n_segments() {
            let edges = segments.edges_of(s);
            if edges.is_empty() {
                continue;
            }
            let mx = edges.iter().fold(f32::NEG_INFINITY, |mx, &e| mx.max(sv.get(e as usize, 0)));
            let mut denom = 0.0;
            for &e in edges {
                let v = math::exp_f32(sv.get(e as usize, 0) - mx);
                out.set(e as usize, 0, v);
                denom += v;
            }
            for &e in edges {
                let v = out.get(e as usize, 0) / denom;
                out.set(e as usize, 0, v);
            }
        }
        out
    };
    let seg_b = Rc::clone(&segments);
    Tensor::from_op(
        value,
        vec![scores.clone()],
        Box::new(move |g, out, parents| {
            if parents[0].participates() {
                let mut gi = Matrix::zeros(out.rows(), 1);
                for s in 0..seg_b.n_segments() {
                    let edges = seg_b.edges_of(s);
                    if edges.is_empty() {
                        continue;
                    }
                    let dot: f32 =
                        edges.iter().map(|&e| g.get(e as usize, 0) * out.get(e as usize, 0)).sum();
                    for &e in edges {
                        let y = out.get(e as usize, 0);
                        gi.set(e as usize, 0, y * (g.get(e as usize, 0) - dot));
                    }
                }
                parents[0].accumulate_grad_owned(gi);
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::check_gradients;
    use crate::Tensor;

    fn toy_adj() -> Rc<SparseAdj> {
        // 0 -> {1,2}, 1 -> {}, 2 -> {0}
        Rc::new(SparseAdj::from_lists(&[vec![1, 2], vec![], vec![0]]))
    }

    #[test]
    fn sparse_adj_accessors() {
        let adj = toy_adj();
        assert_eq!(adj.n_rows(), 3);
        assert_eq!(adj.n_edges(), 3);
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert_eq!(adj.degree(1), 0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_raw_rejects_non_monotone() {
        let _ = SparseAdj::from_raw(vec![0, 2, 1], vec![0]);
    }

    #[test]
    fn spmm_sum_values() {
        let adj = toy_adj();
        let x = Tensor::constant(Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f32));
        let out = spmm_sum(Rc::clone(&adj), &x);
        let v = out.value_clone();
        assert_eq!(v.row(0), &[30.0, 32.0]); // rows 1 + 2
        assert_eq!(v.row(1), &[0.0, 0.0]);
        assert_eq!(v.row(2), &[0.0, 1.0]); // row 0
    }

    #[test]
    fn spmm_sum_gradient() {
        let adj = toy_adj();
        check_gradients(&[(3, 2)], move |t| spmm_sum(Rc::clone(&adj), &t[0]), "spmm_sum");
    }

    #[test]
    fn segments_group_correctly() {
        let segs = Segments::group(&[2, 0, 2, 1], 3);
        assert_eq!(segs.n_segments(), 3);
        assert_eq!(segs.edges_of(0), &[1]);
        assert_eq!(segs.edges_of(1), &[3]);
        assert_eq!(segs.edges_of(2), &[0, 2]);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let segs = Rc::new(Segments::group(&[0, 0, 1, 1, 1], 2));
        let s = Tensor::constant(Matrix::from_vec(5, 1, vec![1.0, 2.0, -1.0, 0.0, 1.0]));
        let a = segment_softmax(&s, Rc::clone(&segs));
        let v = a.value_clone();
        let s0: f32 = v.get(0, 0) + v.get(1, 0);
        let s1: f32 = v.get(2, 0) + v.get(3, 0) + v.get(4, 0);
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        assert!(v.get(1, 0) > v.get(0, 0));
    }

    #[test]
    fn segment_softmax_gradient() {
        let segs = Rc::new(Segments::group(&[0, 1, 0, 1, 0], 2));
        check_gradients(
            &[(5, 1)],
            move |t| segment_softmax(&t[0], Rc::clone(&segs)),
            "segment_softmax",
        );
    }

    #[test]
    fn spmm_matrix_matches_tensor_path() {
        let adj = toy_adj();
        let x = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let dense = spmm_sum_matrix(&adj, &x);
        let t = spmm_sum(Rc::clone(&adj), &Tensor::constant(x));
        assert_eq!(dense, t.value_clone());
    }
}
