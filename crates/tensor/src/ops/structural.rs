//! Structural ops: concatenation, gather, scatter.

use crate::autograd::Tensor;
use crate::matrix::Matrix;
use std::rc::Rc;

/// Concatenate tensors horizontally (matching row counts).
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_cols needs at least one input");
    let value = {
        let borrowed: Vec<_> = parts.iter().map(|p| p.value_clone()).collect();
        let refs: Vec<&Matrix> = borrowed.iter().collect();
        Matrix::concat_cols(&refs)
    };
    let widths: Vec<usize> = parts.iter().map(|p| p.shape().1).collect();
    Tensor::from_op(
        value,
        parts.iter().map(|p| (*p).clone()).collect(),
        Box::new(move |g, _out, parents| {
            let mut off = 0;
            for (p, &w) in parents.iter().zip(widths.iter()) {
                if p.participates() {
                    p.accumulate_grad_owned(g.slice_cols(off, off + w));
                }
                off += w;
            }
        }),
    )
}

/// Select rows of `a` by index (repetition allowed): `out[e] = a[idx[e]]`.
///
/// Backward scatters gradient rows back: `ga[idx[e]] += g[e]`.
pub fn gather_rows(a: &Tensor, idx: Rc<Vec<u32>>) -> Tensor {
    let value = a.value().gather_rows(&idx);
    let idx_b = Rc::clone(&idx);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let (r, c) = parents[0].shape();
                let mut ga = Matrix::zeros(r, c);
                for (e, &i) in idx_b.iter().enumerate() {
                    let row = ga.row_mut(i as usize);
                    for (o, &v) in row.iter_mut().zip(g.row(e).iter()) {
                        *o += v;
                    }
                }
                parents[0].accumulate_grad_owned(ga);
            }
        }),
    )
}

/// Differences of gathered rows, `out[e] = a[src[e]] − a[dst[e]]`: the bits
/// of `sub(gather_rows(a, src), gather_rows(a, dst))` without its two
/// gathered copies, forward or backward.
///
/// Backward hands `a` that composite's gradient in that composite's order.
/// The tape runs the composite's second gather first, so `−g` is scattered
/// into the `dst` rows of one zero buffer and accumulated, then `g` into
/// the `src` rows of another, each row in ascending `e`.
pub fn row_differences(a: &Tensor, src: Rc<Vec<u32>>, dst: Rc<Vec<u32>>) -> Tensor {
    assert_eq!(src.len(), dst.len(), "row_differences: one dst per src");
    let value = {
        let av = a.value();
        let mut out = Matrix::zeros(src.len(), av.cols());
        for (e, (&i, &j)) in src.iter().zip(dst.iter()).enumerate() {
            let (ri, rj) = (av.row(i as usize), av.row(j as usize));
            for ((o, &x), &y) in out.row_mut(e).iter_mut().zip(ri).zip(rj) {
                *o = x - y;
            }
        }
        out
    };
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let (r, c) = parents[0].shape();
                for (idx, negate) in [(&dst, true), (&src, false)] {
                    let mut ga = Matrix::zeros(r, c);
                    for (e, &i) in idx.iter().enumerate() {
                        let row = ga.row_mut(i as usize);
                        for (o, &v) in row.iter_mut().zip(g.row(e).iter()) {
                            *o += if negate { -v } else { v };
                        }
                    }
                    parents[0].accumulate_grad_owned(ga);
                }
            }
        }),
    )
}

/// Scatter-add rows of `src` into an `[n_out, c]` output: `out[idx[e]] += src[e]`.
///
/// Backward gathers: `g_src[e] = g[idx[e]]`.
pub fn scatter_add_rows(src: &Tensor, idx: Rc<Vec<u32>>, n_out: usize) -> Tensor {
    let (m, c) = src.shape();
    assert_eq!(idx.len(), m, "scatter_add_rows: one index per source row");
    let value = {
        let sv = src.value();
        let mut out = Matrix::zeros(n_out, c);
        for (e, &i) in idx.iter().enumerate() {
            let row = out.row_mut(i as usize);
            for (o, &v) in row.iter_mut().zip(sv.row(e).iter()) {
                *o += v;
            }
        }
        out
    };
    let idx_b = Rc::clone(&idx);
    Tensor::from_op(
        value,
        vec![src.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let idx_usize: Vec<u32> = idx_b.iter().copied().collect();
                parents[0].accumulate_grad_owned(g.gather_rows(&idx_usize));
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::check_gradients;

    #[test]
    fn concat_cols_gradient() {
        check_gradients(
            &[(3, 2), (3, 4), (3, 1)],
            |t| concat_cols(&[&t[0], &t[1], &t[2]]),
            "concat_cols",
        );
    }

    #[test]
    fn gather_rows_gradient() {
        let idx = Rc::new(vec![0u32, 2, 2, 1]);
        check_gradients(&[(3, 4)], move |t| gather_rows(&t[0], Rc::clone(&idx)), "gather_rows");
    }

    #[test]
    fn row_differences_gradient() {
        let (src, dst) = (Rc::new(vec![0u32, 2, 2, 1, 1]), Rc::new(vec![1u32, 2, 0, 1, 0]));
        check_gradients(
            &[(3, 4)],
            move |t| row_differences(&t[0], Rc::clone(&src), Rc::clone(&dst)),
            "row_differences",
        );
    }

    /// The op gives the composite's value and, with other consumers of the
    /// same input before and after it on the tape, the composite's input
    /// gradient, bit for bit: repeated indices, `src == dst` pairs, and
    /// entries that are zero, subnormal or of very different scales.
    #[test]
    fn row_differences_is_bitwise_the_gather_sub_composite() {
        use crate::ops::{mul, sub, sum_all};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let (n, c, p) = (rng.gen_range(1..9), rng.gen_range(1..6), rng.gen_range(1..40));
            let a = Matrix::from_fn(n, c, |_, _| match rng.gen_range(0u32..6) {
                0 => 0.0,
                1 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                2 => rng.gen_range(-1e6f32..1e6),
                _ => rng.gen_range(-2.0f32..2.0),
            });
            let src: Vec<u32> = (0..p).map(|_| rng.gen_range(0..n) as u32).collect();
            let dst: Vec<u32> = src
                .iter()
                .map(|&i| if rng.gen_bool(0.2) { i } else { rng.gen_range(0..n) as u32 })
                .collect();
            let w = Matrix::rand_normal(p, c, 0.0, 1.0, &mut rng);
            let others = Rc::new((0..n as u32).rev().collect::<Vec<_>>());
            let other_first = rng.gen_bool(0.5);
            let run = |fused: bool| {
                let a = crate::Tensor::param(a.clone());
                let (s, d) = (Rc::new(src.clone()), Rc::new(dst.clone()));
                let diff = if fused {
                    row_differences(&a, s, d)
                } else {
                    sub(&gather_rows(&a, s), &gather_rows(&a, d))
                };
                // The tape runs the later operand's branch first.
                let other = sum_all(&gather_rows(&a, Rc::clone(&others)));
                let pairs = sum_all(&mul(&diff, &crate::Tensor::constant(w.clone())));
                let loss = if other_first {
                    crate::ops::add(&other, &pairs)
                } else {
                    crate::ops::add(&pairs, &other)
                };
                loss.backward();
                (diff.value_clone(), a.grad().expect("a gradient"))
            };
            let (want, got) = (run(false), run(true));
            let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.0), bits(&want.0), "value n={n} c={c} p={p}");
            assert_eq!(bits(&got.1), bits(&want.1), "gradient n={n} c={c} p={p}");
        }
    }

    #[test]
    fn scatter_add_rows_gradient() {
        let idx = Rc::new(vec![1u32, 0, 1, 3]);
        check_gradients(
            &[(4, 3)],
            move |t| scatter_add_rows(&t[0], Rc::clone(&idx), 5),
            "scatter_add_rows",
        );
    }

    #[test]
    fn gather_then_scatter_round_trip_values() {
        let a = crate::Tensor::constant(Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32));
        let idx = Rc::new(vec![3u32, 1]);
        let g = gather_rows(&a, Rc::clone(&idx));
        assert_eq!(g.value_clone().row(0), &[6.0, 7.0]);
        let s = scatter_add_rows(&g, Rc::new(vec![0, 0]), 2);
        // rows 3 and 1 of a summed into row 0
        assert_eq!(s.value_clone().row(0), &[8.0, 10.0]);
        assert_eq!(s.value_clone().row(1), &[0.0, 0.0]);
    }
}
