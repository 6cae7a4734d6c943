//! Property-based tests of the autograd engine: algebraic identities that
//! must hold for arbitrary shapes and values.

use proptest::prelude::*;
use vrdag_tensor::{ops, Matrix, Tensor};

fn matrix_strategy(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, r * c).prop_map(move |data| Matrix::from_vec(r, c, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_is_commutative(a in matrix_strategy(3, 4), b in matrix_strategy(3, 4)) {
        let ta = Tensor::constant(a);
        let tb = Tensor::constant(b);
        let ab = ops::add(&ta, &tb).value_clone();
        let ba = ops::add(&tb, &ta).value_clone();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(3, 5),
        b in matrix_strategy(5, 2),
        c in matrix_strategy(5, 2),
    ) {
        // A(B + C) == AB + AC (within f32 tolerance).
        let ta = Tensor::constant(a);
        let tb = Tensor::constant(b);
        let tc = Tensor::constant(c);
        let lhs = ops::matmul(&ta, &ops::add(&tb, &tc)).value_clone();
        let rhs = ops::add(&ops::matmul(&ta, &tb), &ops::matmul(&ta, &tc)).value_clone();
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn gradient_of_sum_is_ones(a in matrix_strategy(4, 3)) {
        let t = Tensor::param(a);
        ops::sum_all(&t).backward();
        let g = t.grad().unwrap();
        prop_assert!(g.data().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn backward_is_linear_in_seed(a in matrix_strategy(3, 3)) {
        // d(k·f)/dx == k·df/dx, checked via two backward passes.
        let t1 = Tensor::param(a.clone());
        ops::sum_all(&ops::tanh(&t1)).backward();
        let g1 = t1.grad().unwrap();

        let t2 = Tensor::param(a);
        ops::scale(&ops::sum_all(&ops::tanh(&t2)), 2.5).backward();
        let g2 = t2.grad().unwrap();
        for (x, y) in g1.data().iter().zip(g2.data().iter()) {
            prop_assert!((2.5 * x - y).abs() < 1e-4, "{} vs {}", x, y);
        }
    }

    #[test]
    fn softmax_rows_is_a_distribution(a in matrix_strategy(5, 6)) {
        let s = ops::softmax_rows(&Tensor::constant(a)).value_clone();
        for r in 0..5 {
            let row_sum: f32 = s.row(r).iter().sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn sigmoid_output_bounded(a in matrix_strategy(4, 4)) {
        let s = ops::sigmoid(&Tensor::constant(a)).value_clone();
        prop_assert!(s.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn transpose_is_involutive(a in matrix_strategy(4, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_transpose_kernels_agree(
        a in matrix_strategy(4, 6),
        b in matrix_strategy(5, 6),
    ) {
        // a · bᵀ via matmul_nt == a · transpose(b) via matmul, bit for bit:
        // matmul skips zero entries of `a` and matmul_nt does not, but with
        // finite inputs a skipped product is ±0, and adding ±0 never changes
        // an accumulator that starts at +0.
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn concat_slice_round_trip(
        a in matrix_strategy(3, 2),
        b in matrix_strategy(3, 5),
    ) {
        let cat = Matrix::concat_cols(&[&a, &b]);
        prop_assert_eq!(cat.slice_cols(0, 2), a);
        prop_assert_eq!(cat.slice_cols(2, 7), b);
    }

    #[test]
    fn kl_divergence_is_non_negative(
        mu_q in matrix_strategy(2, 3),
        lv_q in matrix_strategy(2, 3),
        mu_p in matrix_strategy(2, 3),
        lv_p in matrix_strategy(2, 3),
    ) {
        let kl = ops::kl_diag_gaussian(
            &Tensor::constant(mu_q),
            &Tensor::constant(lv_q),
            &Tensor::constant(mu_p),
            &Tensor::constant(lv_p),
        );
        prop_assert!(kl.item() >= -1e-4, "negative KL: {}", kl.item());
    }

    #[test]
    fn cosine_rows_bounded(
        a in matrix_strategy(4, 5),
        b in matrix_strategy(4, 5),
    ) {
        let c = ops::cosine_rows(&Tensor::constant(a), &Tensor::constant(b)).value_clone();
        prop_assert!(c.data().iter().all(|&x| (-1.0 - 1e-5..=1.0 + 1e-5).contains(&x)));
    }
}
