//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! Define-by-run tape in the PyTorch style: every op builds a node holding
//! its parents and a backward closure. Calling [`Tensor::backward`] on a
//! scalar loss topologically sorts the reachable graph and accumulates
//! gradients into every tensor that needs them (parameters are leaves with
//! `requires_grad = true`).
//!
//! Gradient recording can be suspended with [`no_grad`] — generation
//! (Algorithm 1 of the paper) runs entirely inside a `no_grad` section.

use crate::matrix::Matrix;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
    static NEXT_ID: Cell<u64> = const { Cell::new(1) };
}

/// True when operations should record the autograd tape.
pub fn grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

/// Run `f` with gradient recording disabled (restores the previous state on
/// exit, including on panic).
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|g| g.set(self.0));
        }
    }
    let prev = GRAD_ENABLED.with(|g| g.replace(false));
    let _guard = Guard(prev);
    f()
}

fn next_id() -> u64 {
    NEXT_ID.with(|n| {
        let id = n.get();
        n.set(id + 1);
        id
    })
}

/// Backward function: `(grad_out, out_value, parents)` must accumulate
/// gradients into the parents via [`Tensor::accumulate_grad`].
pub type BackwardFn = Box<dyn Fn(&Matrix, &Matrix, &[Tensor])>;

struct Node {
    parents: Vec<Tensor>,
    backward: BackwardFn,
}

struct Inner {
    id: u64,
    value: RefCell<Matrix>,
    grad: RefCell<Option<Matrix>>,
    requires_grad: bool,
    node: Option<Node>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Unlink the parent chain iteratively: dropping a deep op chain
        // (e.g. a T-step recurrent tape) recursively would overflow the
        // stack for large T.
        let mut stack: Vec<Tensor> = match self.node.take() {
            Some(node) => node.parents,
            None => return,
        };
        while let Some(t) = stack.pop() {
            if let Some(mut inner) = Rc::into_inner(t.inner) {
                if let Some(node) = inner.node.take() {
                    stack.extend(node.parents);
                }
                // `inner` drops here with `node == None`: no recursion.
            }
        }
    }
}

/// A matrix value tracked (optionally) by the autograd tape.
///
/// Cloning a `Tensor` is cheap: it clones an `Rc` handle to shared storage.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor(id={}, {:?}, requires_grad={}, has_node={})",
            self.inner.id,
            self.inner.value.borrow().shape(),
            self.inner.requires_grad,
            self.inner.node.is_some()
        )
    }
}

impl Tensor {
    /// Create a leaf tensor. Use `requires_grad = true` for trainable
    /// parameters.
    pub fn leaf(value: Matrix, requires_grad: bool) -> Tensor {
        Tensor {
            inner: Rc::new(Inner {
                id: next_id(),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                node: None,
            }),
        }
    }

    /// Constant (non-trainable) leaf.
    pub fn constant(value: Matrix) -> Tensor {
        Tensor::leaf(value, false)
    }

    /// Trainable parameter leaf.
    pub fn param(value: Matrix) -> Tensor {
        Tensor::leaf(value, true)
    }

    /// Create an op-result tensor when gradient recording is active and at
    /// least one parent participates in the tape; otherwise a detached leaf.
    pub fn from_op(value: Matrix, parents: Vec<Tensor>, backward: BackwardFn) -> Tensor {
        if grad_enabled() && parents.iter().any(|p| p.participates()) {
            Tensor {
                inner: Rc::new(Inner {
                    id: next_id(),
                    value: RefCell::new(value),
                    grad: RefCell::new(None),
                    requires_grad: false,
                    node: Some(Node { parents, backward }),
                }),
            }
        } else {
            Tensor::constant(value)
        }
    }

    /// Unique tape id (stable for the lifetime of the tensor; used by
    /// optimizers to key per-parameter state).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Whether this tensor is part of a gradient computation (trainable leaf
    /// or op result).
    pub fn participates(&self) -> bool {
        self.inner.requires_grad || self.inner.node.is_some()
    }

    /// Whether this is a trainable leaf.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// Borrow the value.
    pub fn value(&self) -> std::cell::Ref<'_, Matrix> {
        self.inner.value.borrow()
    }

    /// Clone the value out.
    pub fn value_clone(&self) -> Matrix {
        self.inner.value.borrow().clone()
    }

    /// Shape of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.value.borrow().shape()
    }

    /// Scalar value of a `[1,1]` tensor.
    pub fn item(&self) -> f32 {
        self.inner.value.borrow().item()
    }

    /// Mutate the raw value in place. Only sane for leaves (optimizer steps,
    /// state resets); mutating interior nodes invalidates recorded tape
    /// values.
    pub fn set_value(&self, value: Matrix) {
        *self.inner.value.borrow_mut() = value;
    }

    /// Apply a function to the raw value in place (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut self.inner.value.borrow_mut());
    }

    /// Borrow the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Matrix> {
        self.inner.grad.borrow().clone()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Accumulate `delta` into this tensor's gradient buffer.
    pub fn accumulate_grad(&self, delta: &Matrix) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(g) => g.add_assign(delta),
            None => *slot = Some(delta.clone()),
        }
    }

    /// Accumulate a gradient provided by value, avoiding a clone when the
    /// buffer is empty.
    pub fn accumulate_grad_owned(&self, delta: Matrix) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(g) => g.add_assign(&delta),
            None => *slot = Some(delta),
        }
    }

    /// A detached copy: same value, no tape history, not trainable.
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value_clone())
    }

    /// Run reverse-mode differentiation from this tensor.
    ///
    /// The seed gradient is a ones matrix of the same shape (for the usual
    /// scalar-loss case this is the scalar 1).
    pub fn backward(&self) {
        let (r, c) = self.shape();
        self.backward_with(Matrix::ones(r, c));
    }

    /// Reverse-mode differentiation with an explicit seed gradient.
    pub fn backward_with(&self, seed: Matrix) {
        assert_eq!(seed.shape(), self.shape(), "backward seed shape must match tensor shape");
        // Topological order via iterative post-order DFS.
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.id());
        while let Some((t, child_idx)) = stack.pop() {
            let n_parents = t.inner.node.as_ref().map_or(0, |n| n.parents.len());
            if child_idx < n_parents {
                let parent = t.inner.node.as_ref().unwrap().parents[child_idx].clone();
                stack.push((t, child_idx + 1));
                if parent.participates() && visited.insert(parent.id()) {
                    stack.push((parent, 0));
                }
            } else {
                order.push(t);
            }
        }
        self.accumulate_grad_owned(seed);
        for t in order.iter().rev() {
            let Some(node) = t.inner.node.as_ref() else {
                continue;
            };
            // Only op results have a node, and they are never trainable
            // leaves, so their gradient is needed only until it has been
            // propagated: take it out instead of copying it, which also
            // bounds tape memory (leaves keep theirs).
            let Some(grad) = t.inner.grad.borrow_mut().take() else { continue };
            let value = t.inner.value.borrow();
            (node.backward)(&grad, &value, &node.parents);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn no_grad_suppresses_tape() {
        let a = Tensor::param(Matrix::scalar(2.0));
        let out = no_grad(|| ops::scale(&a, 3.0));
        assert!(!out.participates());
        assert!(grad_enabled(), "flag must be restored");
    }

    #[test]
    fn no_grad_restores_on_panic() {
        let result = std::panic::catch_unwind(|| {
            no_grad(|| panic!("boom"));
        });
        assert!(result.is_err());
        assert!(grad_enabled());
    }

    #[test]
    fn backward_on_chain_accumulates_leaf_grad() {
        // loss = sum(3 * a); d/da = 3 everywhere.
        let a = Tensor::param(Matrix::ones(2, 2));
        let loss = ops::sum_all(&ops::scale(&a, 3.0));
        loss.backward();
        let g = a.grad().unwrap();
        assert!(g.data().iter().all(|&x| (x - 3.0).abs() < 1e-6));
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let a = Tensor::param(Matrix::scalar(1.0));
        let l1 = ops::scale(&a, 2.0);
        l1.backward();
        let l2 = ops::scale(&a, 2.0);
        l2.backward();
        assert!((a.grad().unwrap().item() - 4.0).abs() < 1e-6);
        a.zero_grad();
        assert!(a.grad().is_none());
    }

    #[test]
    fn diamond_graph_sums_both_paths() {
        // loss = sum(a*2 + a*5) => dloss/da = 7
        let a = Tensor::param(Matrix::scalar(1.0));
        let l = ops::add(&ops::scale(&a, 2.0), &ops::scale(&a, 5.0));
        let loss = ops::sum_all(&l);
        loss.backward();
        assert!((a.grad().unwrap().item() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn shared_subexpression_visited_once() {
        // b = a*2 used twice; d(sum(b+b))/da = 4
        let a = Tensor::param(Matrix::scalar(1.0));
        let b = ops::scale(&a, 2.0);
        let loss = ops::sum_all(&ops::add(&b, &b));
        loss.backward();
        assert!((a.grad().unwrap().item() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn detach_blocks_gradient_flow() {
        let a = Tensor::param(Matrix::scalar(3.0));
        let b = ops::scale(&a, 2.0).detach();
        let loss = ops::sum_all(&ops::scale(&b, 5.0));
        loss.backward();
        assert!(a.grad().is_none());
    }

    #[test]
    fn constants_do_not_build_nodes() {
        let a = Tensor::constant(Matrix::scalar(1.0));
        let b = Tensor::constant(Matrix::scalar(2.0));
        let c = ops::add(&a, &b);
        assert!(!c.participates());
    }

    #[test]
    fn deep_chain_backward_is_iterative() {
        // 20k-deep chain would overflow the stack with recursive DFS.
        let a = Tensor::param(Matrix::scalar(0.0));
        let mut x = ops::add_scalar(&a, 0.0);
        for _ in 0..20_000 {
            x = ops::add_scalar(&x, 1.0);
        }
        let loss = ops::sum_all(&x);
        loss.backward();
        assert!((a.grad().unwrap().item() - 1.0).abs() < 1e-6);
    }
}
