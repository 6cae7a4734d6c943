//! Neural-network building blocks: linear layers, MLPs (the paper's
//! `f_in`/`f_out`/`f_agg`/`f_pool`/`f_α`/`f_θ`), and the GRU cell of the
//! recurrence state updater (§III-D).

use crate::autograd::Tensor;
use crate::matrix::Matrix;
use crate::ops;
use rand::Rng;

/// Leaky ReLU of one value, `v` for `v > 0` and `slope·v` otherwise,
/// written branch-free as `max(v, slope·v)` so loops over it vectorize.
///
/// For `slope ∈ (0, 1)` this equals the branch form bit for bit: a positive
/// `v` beats `slope·v`, a negative one loses to it, a zero keeps its sign on
/// both sides, and a NaN stays NaN. Training ([`ops::leaky_relu`],
/// [`Activation::LeakyRelu`]) and the generation-time pair decode all apply
/// this one function.
///
/// The max is the select `s > v ? s : v` on `s = slope·v`, which is exactly
/// the x86 `maxps` instruction: a NaN `v` fails the compare and is kept.
/// `f32::max` would also be NaN-correct, but it must return the non-NaN
/// operand, which costs a compare and a blend per vector on top of the
/// `maxps`.
#[inline]
pub fn leaky_relu(v: f32, slope: f32) -> f32 {
    let s = v * slope;
    if s > v {
        s
    } else {
        v
    }
}

/// Activation functions used across the paper's MLPs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    Identity,
    Relu,
    /// Leaky ReLU with the given negative slope (the paper's ω, Eq. 4).
    LeakyRelu(f32),
    Sigmoid,
    Tanh,
}

impl Activation {
    /// Apply to a tensor.
    pub fn apply(&self, x: &Tensor) -> Tensor {
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => ops::relu(x),
            Activation::LeakyRelu(s) => ops::leaky_relu(x, *s),
            Activation::Sigmoid => ops::sigmoid(x),
            Activation::Tanh => ops::tanh(x),
        }
    }
}

/// Fully connected layer `y = x·W + b`.
#[derive(Clone)]
pub struct Linear {
    pub weight: Tensor,
    pub bias: Tensor,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(d_in: usize, d_out: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Tensor::param(Matrix::xavier_uniform(d_in, d_out, rng)),
            bias: Tensor::param(Matrix::zeros(1, d_out)),
        }
    }

    pub fn forward(&self, x: &Tensor) -> Tensor {
        ops::add_row(&ops::matmul(x, &self.weight), &self.bias)
    }

    pub fn d_in(&self) -> usize {
        self.weight.shape().0
    }

    pub fn d_out(&self) -> usize {
        self.weight.shape().1
    }

    pub fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Multi-layer perceptron with a shared hidden activation and an optional
/// output activation.
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    output_act: Activation,
}

impl Mlp {
    /// Build an MLP with the given layer widths, e.g. `[d_in, h, d_out]`.
    ///
    /// # Panics
    /// Panics when fewer than two widths are given.
    pub fn new(
        widths: &[usize],
        hidden_act: Activation,
        output_act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least [d_in, d_out]");
        let layers = widths.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Mlp { layers, hidden_act, output_act }
    }

    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            h = if i == last { self.output_act.apply(&h) } else { self.hidden_act.apply(&h) };
        }
        h
    }

    pub fn d_in(&self) -> usize {
        self.layers[0].d_in()
    }

    pub fn d_out(&self) -> usize {
        self.layers.last().unwrap().d_out()
    }

    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn layer(&self, i: usize) -> &Linear {
        &self.layers[i]
    }

    pub fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }
}

/// Gated recurrent unit cell (Cho et al.), used as the recurrence state
/// updater (§III-D):
///
/// ```text
/// r  = σ(x·Wxr + h·Whr + br)
/// z  = σ(x·Wxz + h·Whz + bz)
/// ñ  = tanh(x·Wxn + r ⊙ (h·Whn) + bn)
/// h' = (1 − z) ⊙ ñ + z ⊙ h
/// ```
#[derive(Clone)]
pub struct GruCell {
    wxr: Tensor,
    whr: Tensor,
    br: Tensor,
    wxz: Tensor,
    whz: Tensor,
    bz: Tensor,
    wxn: Tensor,
    whn: Tensor,
    bn: Tensor,
    d_hidden: usize,
}

impl GruCell {
    pub fn new(d_in: usize, d_hidden: usize, rng: &mut impl Rng) -> Self {
        let w = |i, o, rng: &mut _| Tensor::param(Matrix::xavier_uniform(i, o, rng));
        GruCell {
            wxr: w(d_in, d_hidden, rng),
            whr: w(d_hidden, d_hidden, rng),
            br: Tensor::param(Matrix::zeros(1, d_hidden)),
            wxz: w(d_in, d_hidden, rng),
            whz: w(d_hidden, d_hidden, rng),
            // Bias the update gate towards keeping state early in training.
            bz: Tensor::param(Matrix::full(1, d_hidden, 1.0)),
            wxn: w(d_in, d_hidden, rng),
            whn: w(d_hidden, d_hidden, rng),
            bn: Tensor::param(Matrix::zeros(1, d_hidden)),
            d_hidden,
        }
    }

    pub fn d_hidden(&self) -> usize {
        self.d_hidden
    }

    pub fn d_in(&self) -> usize {
        self.wxr.shape().0
    }

    /// One step: `x: [n, d_in]`, `h: [n, d_hidden]` → new hidden `[n, d_hidden]`.
    pub fn forward(&self, x: &Tensor, h: &Tensor) -> Tensor {
        let r = ops::sigmoid(&ops::add_row(
            &ops::add(&ops::matmul(x, &self.wxr), &ops::matmul(h, &self.whr)),
            &self.br,
        ));
        let z = ops::sigmoid(&ops::add_row(
            &ops::add(&ops::matmul(x, &self.wxz), &ops::matmul(h, &self.whz)),
            &self.bz,
        ));
        let n = ops::tanh(&ops::add_row(
            &ops::add(&ops::matmul(x, &self.wxn), &ops::mul(&r, &ops::matmul(h, &self.whn))),
            &self.bn,
        ));
        ops::add(&ops::mul(&ops::one_minus(&z), &n), &ops::mul(&z, h))
    }

    pub fn parameters(&self) -> Vec<Tensor> {
        vec![
            self.wxr.clone(),
            self.whr.clone(),
            self.br.clone(),
            self.wxz.clone(),
            self.whz.clone(),
            self.bz.clone(),
            self.wxn.clone(),
            self.whn.clone(),
            self.bn.clone(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(4, 3, &mut rng);
        let x = Tensor::constant(Matrix::ones(2, 4));
        assert_eq!(l.forward(&x).shape(), (2, 3));
        assert_eq!(l.d_in(), 4);
        assert_eq!(l.d_out(), 3);
        assert_eq!(l.parameters().len(), 2);
    }

    #[test]
    fn mlp_end_to_end_gradient() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Identity, &mut rng);
        check_gradients(&[(4, 3)], move |t| mlp.forward(&t[0]), "mlp_input_grad");
    }

    #[test]
    fn gru_step_shape_and_gradient() {
        let mut rng = StdRng::seed_from_u64(5);
        let cell = GruCell::new(3, 4, &mut rng);
        let x = Tensor::constant(Matrix::ones(2, 3));
        let h = Tensor::constant(Matrix::zeros(2, 4));
        assert_eq!(cell.forward(&x, &h).shape(), (2, 4));
        assert_eq!(cell.parameters().len(), 9);

        let cell2 = GruCell::new(3, 4, &mut rng);
        check_gradients(&[(2, 3), (2, 4)], move |t| cell2.forward(&t[0], &t[1]), "gru_cell");
    }

    #[test]
    fn gru_with_zero_update_gate_keeps_candidate() {
        // With bz very negative, z≈0 and h' ≈ tanh candidate; with bz very
        // positive, z≈1 and h' ≈ h.
        let mut rng = StdRng::seed_from_u64(6);
        let mut cell = GruCell::new(2, 2, &mut rng);
        cell.bz = Tensor::param(Matrix::full(1, 2, 50.0));
        let x = Tensor::constant(Matrix::ones(1, 2));
        let h = Tensor::constant(Matrix::from_vec(1, 2, vec![0.7, -0.3]));
        let out = cell.forward(&x, &h).value_clone();
        assert!((out.get(0, 0) - 0.7).abs() < 1e-3);
        assert!((out.get(0, 1) + 0.3).abs() < 1e-3);
    }

    #[test]
    fn branch_free_leaky_relu_is_bitwise_the_branch_form() {
        let branch = |v: f32, slope: f32| if v > 0.0 { v } else { slope * v };
        let mut rng = StdRng::seed_from_u64(4);
        let mut values = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x0040_0000),
            -f32::from_bits(0x0040_0000),
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        values
            .extend((0..10_000).map(|_| f32::from_bits(rng.gen::<u32>())).filter(|v| !v.is_nan()));
        values.extend((0..10_000).map(|_| rng.gen_range(-4.0f32..4.0)));
        for slope in [f32::from_bits(1), 0.01, 0.1, 0.2, 0.5, 0.999_999_9] {
            for &v in &values {
                assert_eq!(
                    leaky_relu(v, slope).to_bits(),
                    branch(v, slope).to_bits(),
                    "v = {v:e} ({:#010x}), slope = {slope}",
                    v.to_bits()
                );
            }
            assert!(leaky_relu(f32::NAN, slope).is_nan());
            assert!(leaky_relu(-f32::NAN, slope).is_nan());
        }
    }
}
