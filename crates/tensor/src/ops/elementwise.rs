//! Element-wise and broadcasting operations.

use crate::autograd::Tensor;
use crate::math;
use crate::matrix::Matrix;

fn assert_same_shape(a: &Tensor, b: &Tensor, op: &str) {
    assert_eq!(a.shape(), b.shape(), "{op}: shape mismatch {:?} vs {:?}", a.shape(), b.shape());
}

/// `a + b` (same shape).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_shape(a, b, "add");
    let value = {
        let av = a.value();
        let bv = b.value();
        av.zip_map(&bv, |x, y| x + y)
    };
    Tensor::from_op(
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, _out, parents| {
            for p in parents {
                if p.participates() {
                    p.accumulate_grad(g);
                }
            }
        }),
    )
}

/// `a - b` (same shape).
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_shape(a, b, "sub");
    let value = {
        let av = a.value();
        let bv = b.value();
        av.zip_map(&bv, |x, y| x - y)
    };
    Tensor::from_op(
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, _out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad(g);
            }
            if parents[1].participates() {
                parents[1].accumulate_grad_owned(g.map(|x| -x));
            }
        }),
    )
}

/// Hadamard product `a ⊙ b` (same shape).
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_shape(a, b, "mul");
    let value = {
        let av = a.value();
        let bv = b.value();
        av.zip_map(&bv, |x, y| x * y)
    };
    Tensor::from_op(
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, _out, parents| {
            if parents[0].participates() {
                let bv = parents[1].value();
                parents[0].accumulate_grad_owned(g.zip_map(&bv, |gv, y| gv * y));
            }
            if parents[1].participates() {
                let av = parents[0].value();
                parents[1].accumulate_grad_owned(g.zip_map(&av, |gv, x| gv * x));
            }
        }),
    )
}

/// Element-wise division `a / b` (same shape).
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    assert_same_shape(a, b, "div");
    let value = {
        let av = a.value();
        let bv = b.value();
        av.zip_map(&bv, |x, y| x / y)
    };
    Tensor::from_op(
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, out, parents| {
            let bv = parents[1].value();
            if parents[0].participates() {
                parents[0].accumulate_grad_owned(g.zip_map(&bv, |gv, y| gv / y));
            }
            if parents[1].participates() {
                // d(a/b)/db = -a/b^2 = -out/b
                let mut gb = g.zip_map(out, |gv, o| gv * o);
                gb = gb.zip_map(&bv, |v, y| -v / y);
                parents[1].accumulate_grad_owned(gb);
            }
        }),
    )
}

/// Broadcast-add a `[1, c]` bias row to every row of `a` (`[r, c]`).
pub fn add_row(a: &Tensor, bias: &Tensor) -> Tensor {
    let (ar, ac) = a.shape();
    let (br, bc) = bias.shape();
    assert_eq!((br, bc), (1, ac), "add_row: bias must be [1,{ac}], got [{br},{bc}]");
    let value = {
        let av = a.value();
        let bv = bias.value();
        let mut out = av.clone();
        for r in 0..ar {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bv.row(0).iter()) {
                *o += b;
            }
        }
        out
    };
    Tensor::from_op(
        value,
        vec![a.clone(), bias.clone()],
        Box::new(|g, _out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad(g);
            }
            if parents[1].participates() {
                parents[1].accumulate_grad_owned(g.sum_rows());
            }
        }),
    )
}

/// Broadcast-multiply each row `r` of `a` (`[r, c]`) by `col[r]` (`[r, 1]`).
pub fn mul_col(a: &Tensor, col: &Tensor) -> Tensor {
    let (ar, _ac) = a.shape();
    let (cr, cc) = col.shape();
    assert_eq!((cr, cc), (ar, 1), "mul_col: column must be [{ar},1], got [{cr},{cc}]");
    let value = {
        let av = a.value();
        let cv = col.value();
        let mut out = av.clone();
        for r in 0..ar {
            let s = cv.get(r, 0);
            out.row_mut(r).iter_mut().for_each(|x| *x *= s);
        }
        out
    };
    Tensor::from_op(
        value,
        vec![a.clone(), col.clone()],
        Box::new(|g, _out, parents| {
            let (rows, _) = g.shape();
            if parents[0].participates() {
                let cv = parents[1].value();
                let mut ga = g.clone();
                for r in 0..rows {
                    let s = cv.get(r, 0);
                    ga.row_mut(r).iter_mut().for_each(|x| *x *= s);
                }
                parents[0].accumulate_grad_owned(ga);
            }
            if parents[1].participates() {
                let av = parents[0].value();
                let mut gc = Matrix::zeros(rows, 1);
                for r in 0..rows {
                    let dot: f32 = g.row(r).iter().zip(av.row(r)).map(|(x, y)| x * y).sum();
                    gc.set(r, 0, dot);
                }
                parents[1].accumulate_grad_owned(gc);
            }
        }),
    )
}

/// Multiply every element of `a` by a learnable `[1,1]` scalar tensor
/// (used for GIN's `(1+ε)·h` term, Eq. 5 of the VRDAG paper).
pub fn mul_scalar_t(a: &Tensor, s: &Tensor) -> Tensor {
    assert_eq!(s.shape(), (1, 1), "mul_scalar_t: scalar must be [1,1]");
    let sv = s.item();
    let value = a.value().map(|x| sv * x);
    Tensor::from_op(
        value,
        vec![a.clone(), s.clone()],
        Box::new(|g, _out, parents| {
            if parents[0].participates() {
                let sv = parents[1].item();
                parents[0].accumulate_grad_owned(g.map(|x| sv * x));
            }
            if parents[1].participates() {
                let av = parents[0].value();
                let dot: f32 = g.data().iter().zip(av.data().iter()).map(|(x, y)| x * y).sum();
                parents[1].accumulate_grad_owned(Matrix::scalar(dot));
            }
        }),
    )
}

/// `k * a`.
pub fn scale(a: &Tensor, k: f32) -> Tensor {
    let value = a.value().map(|x| k * x);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad_owned(g.map(|x| k * x));
            }
        }),
    )
}

/// `a + k` element-wise.
pub fn add_scalar(a: &Tensor, k: f32) -> Tensor {
    let value = a.value().map(|x| x + k);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(|g, _out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad(g);
            }
        }),
    )
}

/// `-a`.
pub fn neg(a: &Tensor) -> Tensor {
    scale(a, -1.0)
}

/// `1 - a` element-wise (common in GRU gates).
pub fn one_minus(a: &Tensor) -> Tensor {
    let value = a.value().map(|x| 1.0 - x);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(|g, _out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad_owned(g.map(|x| -x));
            }
        }),
    )
}

/// Element-wise clamp to `[lo, hi]` with zero gradient outside the range
/// (used to bound predicted log-variances for a numerically stable KL).
pub fn clamp(a: &Tensor, lo: f32, hi: f32) -> Tensor {
    assert!(lo < hi, "clamp: lo must be < hi");
    let value = a.value().map(|x| x.clamp(lo, hi));
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let av = parents[0].value();
                parents[0].accumulate_grad_owned(g.zip_map(&av, |gv, x| {
                    if x > lo && x < hi {
                        gv
                    } else {
                        0.0
                    }
                }));
            }
        }),
    )
}

/// `a`'s value through the element-wise slice kernel `f`.
fn mapped(a: &Tensor, f: fn(&mut [f32])) -> Matrix {
    let mut value = a.value_clone();
    value.map_chunks_inplace(f);
    value
}

/// Logistic sigmoid `1/(1 + e^{−x})`, with [`math::exp_f32`].
pub fn sigmoid(a: &Tensor) -> Tensor {
    let value = mapped(a, math::sigmoid_slice);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(|g, out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad_owned(g.zip_map(out, |gv, y| gv * y * (1.0 - y)));
            }
        }),
    )
}

/// Hyperbolic tangent, with [`math::tanh_f32`].
pub fn tanh(a: &Tensor) -> Tensor {
    let value = mapped(a, math::tanh_slice);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(|g, out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad_owned(g.zip_map(out, |gv, y| gv * (1.0 - y * y)));
            }
        }),
    )
}

/// Rectified linear unit.
pub fn relu(a: &Tensor) -> Tensor {
    let value = a.value().map(|x| x.max(0.0));
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(|g, out, parents| {
            if parents[0].participates() {
                parents[0]
                    .accumulate_grad_owned(g.zip_map(out, |gv, y| if y > 0.0 { gv } else { 0.0 }));
            }
        }),
    )
}

/// Leaky ReLU with negative-side slope `slope` (the paper's ω(·), Eq. 4).
pub fn leaky_relu(a: &Tensor, slope: f32) -> Tensor {
    assert!(slope > 0.0 && slope < 1.0, "leaky_relu slope must be in (0,1)");
    let value = a.value().map(|x| crate::nn::leaky_relu(x, slope));
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, out, parents| {
            if parents[0].participates() {
                // out has the sign of the input because slope > 0.
                parents[0].accumulate_grad_owned(g.zip_map(out, |gv, y| {
                    if y > 0.0 {
                        gv
                    } else {
                        slope * gv
                    }
                }));
            }
        }),
    )
}

/// Element-wise exponential, with [`math::exp_f32`].
pub fn exp(a: &Tensor) -> Tensor {
    let value = mapped(a, math::exp_slice);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(|g, out, parents| {
            if parents[0].participates() {
                parents[0].accumulate_grad_owned(g.zip_map(out, |gv, y| gv * y));
            }
        }),
    )
}

/// Element-wise natural log of `max(x, eps)` (numerically safe log).
pub fn ln_eps(a: &Tensor, eps: f32) -> Tensor {
    assert!(eps > 0.0, "ln_eps requires positive eps");
    let value = a.value().map(|x| x.max(eps).ln());
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let av = parents[0].value();
                parents[0].accumulate_grad_owned(g.zip_map(&av, |gv, x| gv / x.max(eps)));
            }
        }),
    )
}

/// Element-wise power `x^p` (callers must keep the base non-negative when
/// `p` is fractional; used for the SCE loss where the base is `1 - cos ≥ 0`).
pub fn powf(a: &Tensor, p: f32) -> Tensor {
    let value = a.value().map(|x| x.powf(p));
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let av = parents[0].value();
                parents[0].accumulate_grad_owned(g.zip_map(&av, |gv, x| {
                    let d = p * x.powf(p - 1.0);
                    if d.is_finite() {
                        gv * d
                    } else {
                        0.0
                    }
                }));
            }
        }),
    )
}

/// Row-wise softmax (used for the α mixture weights, Eq. 11), with
/// [`math::exp_f32`].
pub fn softmax_rows(a: &Tensor) -> Tensor {
    let value = {
        let av = a.value();
        let (r, c) = av.shape();
        let mut out = Matrix::zeros(r, c);
        for i in 0..r {
            let row = av.row(i);
            let m = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let dst = out.row_mut(i);
            dst.iter_mut().zip(row).for_each(|(o, &x)| *o = x - m);
            math::exp_slice(dst);
            let denom = dst.iter().fold(0.0, |d, &o| d + o);
            dst.iter_mut().for_each(|x| *x /= denom);
        }
        out
    };
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(|g, out, parents| {
            if parents[0].participates() {
                let (r, c) = out.shape();
                let mut gi = Matrix::zeros(r, c);
                for i in 0..r {
                    let y = out.row(i);
                    let gr = g.row(i);
                    let dot: f32 = y.iter().zip(gr.iter()).map(|(a, b)| a * b).sum();
                    for (o, (&yv, &gv)) in gi.row_mut(i).iter_mut().zip(y.iter().zip(gr.iter())) {
                        *o = yv * (gv - dot);
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

    #[test]
    fn add_sub_mul_div_gradients() {
        check_gradients(&[(2, 3), (2, 3)], |t| add(&t[0], &t[1]), "add");
        check_gradients(&[(2, 3), (2, 3)], |t| sub(&t[0], &t[1]), "sub");
        check_gradients(&[(2, 3), (2, 3)], |t| mul(&t[0], &t[1]), "mul");
        // div: keep the denominator away from zero via offset inside the op.
        check_gradients(&[(2, 3), (2, 3)], |t| div(&t[0], &add_scalar(&exp(&t[1]), 0.5)), "div");
    }

    #[test]
    fn broadcast_gradients() {
        check_gradients(&[(3, 4), (1, 4)], |t| add_row(&t[0], &t[1]), "add_row");
        check_gradients(&[(3, 4), (3, 1)], |t| mul_col(&t[0], &t[1]), "mul_col");
    }

    #[test]
    fn mul_scalar_t_gradient() {
        check_gradients(&[(3, 2), (1, 1)], |t| mul_scalar_t(&t[0], &t[1]), "mul_scalar_t");
    }

    #[test]
    fn unary_gradients() {
        check_gradients(&[(2, 3)], |t| scale(&t[0], 2.5), "scale");
        check_gradients(&[(2, 3)], |t| add_scalar(&t[0], -1.5), "add_scalar");
        check_gradients(&[(2, 3)], |t| neg(&t[0]), "neg");
        check_gradients(&[(2, 3)], |t| one_minus(&t[0]), "one_minus");
        check_gradients(&[(2, 3)], |t| sigmoid(&t[0]), "sigmoid");
        check_gradients(&[(2, 3)], |t| tanh(&t[0]), "tanh");
        check_gradients(&[(2, 3)], |t| exp(&t[0]), "exp");
        check_gradients(&[(2, 3)], |t| leaky_relu(&t[0], 0.2), "leaky_relu");
    }

    #[test]
    fn clamp_gradient_and_values() {
        let a = crate::Tensor::param(Matrix::from_vec(1, 3, vec![-2.0, 0.3, 2.0]));
        let c = clamp(&a, -1.0, 1.0);
        assert_eq!(c.value_clone().data(), &[-1.0, 0.3, 1.0]);
        let loss = crate::ops::sum_all(&c);
        loss.backward();
        assert_eq!(a.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
        check_gradients(&[(2, 3)], |t| clamp(&t[0], -0.5, 0.5), "clamp");
    }

    #[test]
    fn ln_and_pow_gradients() {
        // Keep inputs positive: ln(exp(x)+0.5), (exp(x))^1.7
        check_gradients(&[(2, 3)], |t| ln_eps(&add_scalar(&exp(&t[0]), 0.5), 1e-8), "ln_eps");
        check_gradients(&[(2, 3)], |t| powf(&exp(&t[0]), 1.7), "powf");
    }

    #[test]
    fn softmax_rows_sums_to_one_and_grad_checks() {
        let a = crate::Tensor::param(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = softmax_rows(&a);
        let v = s.value_clone();
        for r in 0..2 {
            let sum: f32 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        check_gradients(&[(3, 4)], |t| softmax_rows(&t[0]), "softmax_rows");
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let a = crate::Tensor::param(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        let loss = crate::ops::sum_all(&relu(&a));
        loss.backward();
        let g = a.grad().unwrap();
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_saturates_sanely() {
        let a = crate::Tensor::constant(Matrix::from_vec(1, 2, vec![-100.0, 100.0]));
        let s = sigmoid(&a);
        let v = s.value_clone();
        assert!(v.get(0, 0) >= 0.0 && v.get(0, 0) < 1e-6);
        assert!(v.get(0, 1) <= 1.0 && v.get(0, 1) > 1.0 - 1e-6);
    }
}
