//! Dense linear algebra ops.

use crate::autograd::Tensor;

/// Matrix product `a · b` with `a: [m, k]`, `b: [k, n]`.
///
/// Backward: `∂L/∂a = g · bᵀ`, `∂L/∂b = aᵀ · g` (computed with
/// [`crate::Matrix::matmul_nt`] and [`crate::Matrix::matmul_tn`]).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let value = {
        let av = a.value();
        let bv = b.value();
        av.matmul(&bv)
    };
    Tensor::from_op(
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, _out, parents| {
            if parents[0].participates() {
                let bv = parents[1].value();
                parents[0].accumulate_grad_owned(g.matmul_nt(&bv));
            }
            if parents[1].participates() {
                let av = parents[0].value();
                parents[1].accumulate_grad_owned(av.matmul_tn(g));
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::testing::check_gradients;
    use crate::Tensor;

    #[test]
    fn matmul_gradient_checks() {
        check_gradients(&[(3, 4), (4, 2)], |t| matmul(&t[0], &t[1]), "matmul");
        check_gradients(&[(1, 5), (5, 1)], |t| matmul(&t[0], &t[1]), "matmul_vec");
    }

    #[test]
    fn matmul_known_gradient() {
        // loss = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
        let a = Tensor::param(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = Tensor::param(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let loss = crate::ops::sum_all(&matmul(&a, &b));
        loss.backward();
        let ga = a.grad().unwrap();
        let gb = b.grad().unwrap();
        assert_eq!(ga.data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(gb.data(), &[4.0, 4.0, 6.0, 6.0]);
    }
}
