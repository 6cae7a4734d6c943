//! Fused loss ops: binary cross entropy on probabilities (Eq. 17), row-wise
//! cosine similarity for the SCE attribute loss (Eq. 18), KL divergence
//! between diagonal Gaussians (Eq. 15), and MSE (ablation).

use crate::autograd::Tensor;
use crate::math;
use crate::matrix::Matrix;
use std::rc::Rc;

const BCE_EPS: f32 = 1e-6;

/// Weighted binary cross-entropy on *probabilities* (not logits):
///
/// `L = (1/norm) Σ w_e · −[ y_e ln p̂_e + (1−y_e) ln(1−p̂_e) ]`
///
/// with `p̂ = clamp(p, ε, 1−ε)`. `targets` and optional `weights` must match
/// the shape of `probs`; `norm` is the caller-chosen normalizer (`|V|` in
/// Eq. 17). The weight hook implements the negative-sampling correction:
/// sampled non-edges carry weight `(N − deg_i) / Q` so the expected loss
/// equals the full-matrix BCE.
pub fn bce_probs(
    probs: &Tensor,
    targets: Rc<Matrix>,
    weights: Option<Rc<Matrix>>,
    norm: f32,
) -> Tensor {
    assert!(norm > 0.0, "bce_probs: normalizer must be positive");
    {
        let pv = probs.value();
        assert_eq!(pv.shape(), targets.shape(), "bce_probs: target shape mismatch");
        if let Some(w) = &weights {
            assert_eq!(pv.shape(), w.shape(), "bce_probs: weight shape mismatch");
        }
    }
    let value = {
        let pv = probs.value();
        let mut acc = 0.0f64;
        for (e, (&p, &y)) in pv.data().iter().zip(targets.data().iter()).enumerate() {
            let w = weights.as_ref().map_or(1.0, |w| w.data()[e]);
            let ph = p.clamp(BCE_EPS, 1.0 - BCE_EPS);
            acc += (w * -(y * ph.ln() + (1.0 - y) * (1.0 - ph).ln())) as f64;
        }
        Matrix::scalar((acc / norm as f64) as f32)
    };
    let t = Rc::clone(&targets);
    let w = weights.clone();
    Tensor::from_op(
        value,
        vec![probs.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let pv = parents[0].value();
                let (r, c) = pv.shape();
                let gs = g.item() / norm;
                let mut gp = Matrix::zeros(r, c);
                for (e, (o, (&p, &y))) in
                    gp.data_mut().iter_mut().zip(pv.data().iter().zip(t.data().iter())).enumerate()
                {
                    let we = w.as_ref().map_or(1.0, |w| w.data()[e]);
                    let ph = p.clamp(BCE_EPS, 1.0 - BCE_EPS);
                    *o = gs * we * (ph - y) / (ph * (1.0 - ph));
                }
                parents[0].accumulate_grad_owned(gp);
            }
        }),
    )
}

/// Row-wise cosine similarity between `a` and `b`: `[r, d] × [r, d] → [r, 1]`.
///
/// Norms are floored at `1e-8` to keep the op total. Used to build the
/// scaled cosine error `SCE = mean((1 − cos)^α)` of Eq. 18.
pub fn cosine_rows(a: &Tensor, b: &Tensor) -> Tensor {
    const EPS: f32 = 1e-8;
    assert_eq!(a.shape(), b.shape(), "cosine_rows: shape mismatch");
    let (r, _d) = a.shape();
    let value = {
        let av = a.value();
        let bv = b.value();
        let mut out = Matrix::zeros(r, 1);
        for i in 0..r {
            let (ar, br) = (av.row(i), bv.row(i));
            let dot: f32 = ar.iter().zip(br).map(|(x, y)| x * y).sum();
            let na = ar.iter().map(|x| x * x).sum::<f32>().sqrt().max(EPS);
            let nb = br.iter().map(|x| x * x).sum::<f32>().sqrt().max(EPS);
            out.set(i, 0, dot / (na * nb));
        }
        out
    };
    Tensor::from_op(
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, out, parents| {
            let av = parents[0].value();
            let bv = parents[1].value();
            let (r, d) = av.shape();
            let need_a = parents[0].participates();
            let need_b = parents[1].participates();
            let mut ga = if need_a { Some(Matrix::zeros(r, d)) } else { None };
            let mut gb = if need_b { Some(Matrix::zeros(r, d)) } else { None };
            for i in 0..r {
                let (ar, br) = (av.row(i), bv.row(i));
                let na = ar.iter().map(|x| x * x).sum::<f32>().sqrt().max(EPS);
                let nb = br.iter().map(|x| x * x).sum::<f32>().sqrt().max(EPS);
                let cos = out.get(i, 0);
                let gi = g.get(i, 0);
                if let Some(ga) = ga.as_mut() {
                    // d cos / d a = b/(na*nb) − cos · a / na²
                    for ((o, &x), &y) in ga.row_mut(i).iter_mut().zip(ar).zip(br) {
                        *o = gi * (y / (na * nb) - cos * x / (na * na));
                    }
                }
                if let Some(gb) = gb.as_mut() {
                    for ((o, &y), &x) in gb.row_mut(i).iter_mut().zip(br).zip(ar) {
                        *o = gi * (x / (na * nb) - cos * y / (nb * nb));
                    }
                }
            }
            if let Some(ga) = ga {
                parents[0].accumulate_grad_owned(ga);
            }
            if let Some(gb) = gb {
                parents[1].accumulate_grad_owned(gb);
            }
        }),
    )
}

/// `KL( N(μ_q, diag e^{lv_q}) ‖ N(μ_p, diag e^{lv_p}) )` summed over all
/// elements, as a `[1,1]` tensor (Eq. 15; log-variance parameterization,
/// `e^{lv}` with [`math::exp_f32`]).
pub fn kl_diag_gaussian(mu_q: &Tensor, lv_q: &Tensor, mu_p: &Tensor, lv_p: &Tensor) -> Tensor {
    let shape = mu_q.shape();
    for (t, name) in [(lv_q, "lv_q"), (mu_p, "mu_p"), (lv_p, "lv_p")] {
        assert_eq!(t.shape(), shape, "kl_diag_gaussian: {name} shape mismatch");
    }
    let value = {
        let mq = mu_q.value();
        let lq = lv_q.value();
        let mp = mu_p.value();
        let lp = lv_p.value();
        let mut acc = 0.0f64;
        for i in 0..mq.len() {
            let (mq, lq, mp, lp) = (mq.data()[i], lq.data()[i], mp.data()[i], lp.data()[i]);
            let d = mq - mp;
            acc += 0.5 * (lp - lq + (math::exp_f32(lq) + d * d) / math::exp_f32(lp) - 1.0) as f64;
        }
        Matrix::scalar(acc as f32)
    };
    Tensor::from_op(
        value,
        vec![mu_q.clone(), lv_q.clone(), mu_p.clone(), lv_p.clone()],
        Box::new(|g, _out, parents| {
            let gs = g.item();
            let mq = parents[0].value_clone();
            let lq = parents[1].value_clone();
            let mp = parents[2].value_clone();
            let lp = parents[3].value_clone();
            let (r, c) = mq.shape();
            let n = r * c;
            let mut grads: [Option<Matrix>; 4] = [None, None, None, None];
            for (k, gslot) in grads.iter_mut().enumerate() {
                if parents[k].participates() {
                    *gslot = Some(Matrix::zeros(r, c));
                }
            }
            for i in 0..n {
                let d = mq.data()[i] - mp.data()[i];
                let elp = math::exp_f32(lp.data()[i]);
                let elq = math::exp_f32(lq.data()[i]);
                if let Some(gm) = grads[0].as_mut() {
                    gm.data_mut()[i] = gs * d / elp;
                }
                if let Some(gl) = grads[1].as_mut() {
                    gl.data_mut()[i] = gs * 0.5 * (elq / elp - 1.0);
                }
                if let Some(gm) = grads[2].as_mut() {
                    gm.data_mut()[i] = -gs * d / elp;
                }
                if let Some(gl) = grads[3].as_mut() {
                    gl.data_mut()[i] = gs * 0.5 * (1.0 - (elq + d * d) / elp);
                }
            }
            for (k, gr) in grads.into_iter().enumerate() {
                if let Some(gr) = gr {
                    parents[k].accumulate_grad_owned(gr);
                }
            }
        }),
    )
}

/// Mean squared error against a constant target (ablation alternative to
/// SCE, §IV / Appendix A-E).
pub fn mse_loss(a: &Tensor, target: Rc<Matrix>) -> Tensor {
    {
        let av = a.value();
        assert_eq!(av.shape(), target.shape(), "mse_loss: target shape mismatch");
    }
    let n = target.len().max(1) as f32;
    let value = {
        let av = a.value();
        let mut acc = 0.0f64;
        for (&x, &y) in av.data().iter().zip(target.data().iter()) {
            let d = x - y;
            acc += (d * d) as f64;
        }
        Matrix::scalar((acc / n as f64) as f32)
    };
    let t = Rc::clone(&target);
    Tensor::from_op(
        value,
        vec![a.clone()],
        Box::new(move |g, _out, parents| {
            if parents[0].participates() {
                let av = parents[0].value();
                let gs = 2.0 * g.item() / n;
                parents[0].accumulate_grad_owned(av.zip_map(&t, |x, y| gs * (x - y)));
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::testing::check_gradients;
    use crate::Tensor;

    #[test]
    fn bce_probs_matches_manual() {
        let p = Tensor::constant(Matrix::from_vec(2, 1, vec![0.9, 0.2]));
        let y = Rc::new(Matrix::from_vec(2, 1, vec![1.0, 0.0]));
        let loss = bce_probs(&p, y, None, 2.0);
        let expected = -(0.9f32.ln() + 0.8f32.ln()) / 2.0;
        assert!((loss.item() - expected).abs() < 1e-5);
    }

    #[test]
    fn bce_probs_gradient() {
        let y = Rc::new(Matrix::from_vec(3, 2, vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0]));
        let w = Rc::new(Matrix::from_vec(3, 2, vec![1.0, 2.0, 0.5, 1.0, 3.0, 1.0]));
        check_gradients(
            &[(3, 2)],
            move |t| bce_probs(&ops::sigmoid(&t[0]), Rc::clone(&y), Some(Rc::clone(&w)), 3.0),
            "bce_probs",
        );
    }

    #[test]
    fn bce_probs_is_finite_at_extremes() {
        let p = Tensor::param(Matrix::from_vec(2, 1, vec![0.0, 1.0]));
        let y = Rc::new(Matrix::from_vec(2, 1, vec![1.0, 0.0]));
        let loss = bce_probs(&p, y, None, 1.0);
        assert!(loss.item().is_finite());
        loss.backward();
        assert!(!p.grad().unwrap().has_non_finite());
    }

    #[test]
    fn cosine_rows_identical_rows_is_one() {
        let a = Tensor::constant(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 2.0]));
        let c = cosine_rows(&a, &a);
        let v = c.value_clone();
        assert!((v.get(0, 0) - 1.0).abs() < 1e-5);
        assert!((v.get(1, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_rows_orthogonal_is_zero() {
        let a = Tensor::constant(Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        let b = Tensor::constant(Matrix::from_vec(1, 2, vec![0.0, 1.0]));
        assert!(cosine_rows(&a, &b).value_clone().get(0, 0).abs() < 1e-6);
    }

    #[test]
    fn cosine_rows_gradient() {
        check_gradients(
            &[(3, 4), (3, 4)],
            |t| cosine_rows(&ops::add_scalar(&t[0], 2.0), &ops::add_scalar(&t[1], 2.0)),
            "cosine_rows",
        );
    }

    #[test]
    fn kl_zero_when_distributions_match() {
        let mu = Tensor::constant(Matrix::from_vec(2, 2, vec![0.3, -0.5, 1.0, 0.0]));
        let lv = Tensor::constant(Matrix::from_vec(2, 2, vec![0.1, 0.2, -0.3, 0.0]));
        let kl = kl_diag_gaussian(&mu, &lv, &mu, &lv);
        assert!(kl.item().abs() < 1e-6);
    }

    #[test]
    fn kl_is_positive_when_distributions_differ() {
        let mu_q = Tensor::constant(Matrix::scalar(1.0));
        let lv_q = Tensor::constant(Matrix::scalar(0.0));
        let mu_p = Tensor::constant(Matrix::scalar(0.0));
        let lv_p = Tensor::constant(Matrix::scalar(0.0));
        let kl = kl_diag_gaussian(&mu_q, &lv_q, &mu_p, &lv_p);
        assert!((kl.item() - 0.5).abs() < 1e-6); // KL(N(1,1)||N(0,1)) = 0.5
    }

    #[test]
    fn kl_gradient_checks() {
        check_gradients(
            &[(2, 3), (2, 3), (2, 3), (2, 3)],
            |t| kl_diag_gaussian(&t[0], &t[1], &t[2], &t[3]),
            "kl_diag_gaussian",
        );
    }

    #[test]
    fn mse_loss_value_and_gradient() {
        let target = Rc::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let a = Tensor::param(Matrix::from_vec(1, 2, vec![2.0, 0.0]));
        let loss = mse_loss(&a, Rc::clone(&target));
        assert!((loss.item() - 2.5).abs() < 1e-6); // (1 + 4) / 2
        let t2 = Rc::clone(&target);
        check_gradients(&[(1, 2)], move |t| mse_loss(&t[0], Rc::clone(&t2)), "mse_loss");
    }
}
