//! Forward-over-reverse composition: a dual-valued tensor tape for exact
//! Hessian-vector products.
//!
//! [`DualTape`] is the [`crate::tape::Tape`] engine re-run in **dual
//! arithmetic**: every node carries a primal tensor `re` *and* a tangent
//! tensor `eps`, the directional derivative of that value along a seed
//! direction `v` (think of each entry as `re + ε·eps` with `ε² = 0`). One
//! reverse sweep then propagates *dual adjoints*: the real part of a leaf's
//! adjoint is the ordinary gradient `∇J`, and the ε part is the exact
//! Hessian-vector product `H·v` — second-order information for the price of
//! one extra tangent per node, never forming `H`.
//!
//! The composition rule is mechanical. If the real-valued backward step for
//! `y = f(a)` is `ā += Jᵀ·ȳ` with Jacobian `J = J(a)`, the dual-valued step
//! evaluates `J` in dual arithmetic (`J = J_re + ε·J_eps`) and multiplies
//! dual adjoints:
//!
//! ```text
//! ā_re  += J_reᵀ ȳ_re
//! ā_eps += J_reᵀ ȳ_eps + J_epsᵀ ȳ_re
//! ```
//!
//! The differentiable linear solve is where this pays off for PDE control.
//! For a **constant** prepared operator `A` (the Laplace collocation matrix),
//! both the tangent solve `x_eps = A⁻¹ b_eps` and the two adjoint solves
//! `s_re = A⁻ᵀ ȳ_re`, `s_eps = A⁻ᵀ ȳ_eps` reuse the *same* factorization
//! held by the [`LinearBackend`] — an HVP through the discretised solver
//! costs four triangular solves and **zero** refactorizations.
//!
//! [`hvp`] is the one-call entry point: seed a leaf with `(c, v)`, record the
//! objective, sweep once, and read `(J, ∇J, H·v)`.

use crate::tensor::{self, Tensor};
use linalg::{DVec, LinalgError, LinearBackend};
use std::cell::RefCell;
use std::sync::Arc;

/// Operations the dual tape can record. A deliberate subset of the real
/// tape's vocabulary: what the control objectives and their tests need.
enum DOp {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Neg(usize),
    Scale(usize, f64),
    AddConst(usize),
    MulConst(usize, Arc<Tensor>),
    MatMulConstL(Arc<Tensor>, usize),
    Dot(usize, usize),
    DotConst(usize, Arc<Tensor>),
    Sum(usize),
    Mean(usize),
    SumSq(usize),
    Sin(usize),
    Cos(usize),
    Exp(usize),
    Sqrt(usize),
    Tanh(usize),
    Powi(usize, i32),
    SolveConst {
        be: Arc<dyn LinearBackend>,
        b: usize,
    },
}

struct DNode {
    op: DOp,
    re: Tensor,
    eps: Tensor,
}

/// A Wengert-list tape whose nodes hold dual-valued tensors `(re, eps)`.
///
/// Record a computation with [`DualTape::var_col`] seeding the tangent, then
/// call [`DualTape::backward`] on the (scalar) output to obtain gradient and
/// Hessian-vector product in one sweep.
pub struct DualTape {
    nodes: RefCell<Vec<DNode>>,
}

/// A handle to a dual-valued node, analogous to [`crate::tape::TVar`].
#[derive(Clone, Copy)]
pub struct DVar<'t> {
    tape: &'t DualTape,
    idx: usize,
}

impl Default for DualTape {
    fn default() -> Self {
        DualTape::new()
    }
}

impl DualTape {
    /// Creates an empty dual tape.
    pub fn new() -> DualTape {
        DualTape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Registers an `n × 1` leaf with primal `re` and tangent seed `eps`
    /// (the direction `v` of the Hessian-vector product).
    pub fn var_col(&self, re: &[f64], eps: &[f64]) -> DVar<'_> {
        assert_eq!(re.len(), eps.len(), "var_col: primal/tangent length");
        let idx = self.push(DOp::Leaf, tensor::col(re), tensor::col(eps));
        DVar { tape: self, idx }
    }

    /// Registers a `1 × 1` leaf with primal `re` and tangent `eps`.
    pub fn var_scalar(&self, re: f64, eps: f64) -> DVar<'_> {
        let idx = self.push(DOp::Leaf, tensor::scalar(re), tensor::scalar(eps));
        DVar { tape: self, idx }
    }

    fn push(&self, op: DOp, re: Tensor, eps: Tensor) -> usize {
        debug_assert_eq!(re.shape(), eps.shape(), "dual node: shape mismatch");
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(DNode { op, re, eps });
        nodes.len() - 1
    }

    fn parts_of(&self, idx: usize) -> (Tensor, Tensor) {
        let nodes = self.nodes.borrow();
        (nodes[idx].re.clone(), nodes[idx].eps.clone())
    }

    /// Differentiable linear solve against a **constant** prepared operator,
    /// the dual analogue of [`crate::tape::Tape::solve_backend`]. The
    /// tangent solve `x_eps = A⁻¹ b_eps` and both reverse-sweep transpose
    /// solves reuse the backend's existing factorization. The primal and
    /// tangent right-hand sides go through one
    /// [`LinearBackend::solve_many`], so a dense factor streams through
    /// cache once for both; each column equals a standalone `solve`
    /// bitwise.
    pub fn solve_backend<'t>(
        &'t self,
        be: &Arc<dyn LinearBackend>,
        b: DVar<'t>,
    ) -> Result<DVar<'t>, LinalgError> {
        let (bre, beps) = self.parts_of(b.idx);
        let [xre, xeps]: [_; 2] = be
            .solve_many(&[tensor::to_dvec(&bre), tensor::to_dvec(&beps)])?
            .try_into()
            .expect("solve_many returns one solution per right-hand side");
        let idx = self.push(
            DOp::SolveConst {
                be: Arc::clone(be),
                b: b.idx,
            },
            tensor::from_dvec(&xre),
            tensor::from_dvec(&xeps),
        );
        Ok(DVar { tape: self, idx })
    }

    /// Reverse sweep with dual adjoints from a scalar output: the returned
    /// [`DualGrads`] holds, per leaf, the gradient (`re`) and the exact
    /// Hessian-vector product along the seeded tangent (`eps`).
    pub fn backward(&self, output: DVar<'_>) -> DualGrads {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[output.idx].re.shape(),
            (1, 1),
            "backward: output must be scalar"
        );
        let mut adj: Vec<Option<(Tensor, Tensor)>> = vec![None; nodes.len()];
        adj[output.idx] = Some((tensor::scalar(1.0), tensor::scalar(0.0)));

        fn acc(adj: &mut [Option<(Tensor, Tensor)>], idx: usize, dre: Tensor, deps: Tensor) {
            match &mut adj[idx] {
                Some((r, e)) => {
                    r.axpy_mat(1.0, &dre);
                    e.axpy_mat(1.0, &deps);
                }
                slot => *slot = Some((dre, deps)),
            }
        }

        for i in (0..nodes.len()).rev() {
            let Some((gre, geps)) = adj[i].clone() else {
                continue;
            };
            let node = &nodes[i];
            match &node.op {
                DOp::Leaf => {}
                DOp::Add(a, b) => {
                    acc(&mut adj, *a, gre.clone(), geps.clone());
                    acc(&mut adj, *b, gre, geps);
                }
                DOp::Sub(a, b) => {
                    acc(&mut adj, *a, gre.clone(), geps.clone());
                    acc(&mut adj, *b, &gre * -1.0, &geps * -1.0);
                }
                DOp::Mul(a, b) => {
                    let (are, aeps) = (&nodes[*a].re, &nodes[*a].eps);
                    let (bre, beps) = (&nodes[*b].re, &nodes[*b].eps);
                    let (dre, deps) = dual_ew_mul(&gre, &geps, bre, beps);
                    acc(&mut adj, *a, dre, deps);
                    let (dre, deps) = dual_ew_mul(&gre, &geps, are, aeps);
                    acc(&mut adj, *b, dre, deps);
                }
                DOp::Div(a, b) => {
                    // ā += ḡ / b;  b̄ −= (ḡ ∘ y) / b, all in dual arithmetic.
                    let (bre, beps) = (&nodes[*b].re, &nodes[*b].eps);
                    let (dre, deps) = dual_ew_div(&gre, &geps, bre, beps);
                    acc(&mut adj, *a, dre, deps);
                    let (tre, teps) = dual_ew_mul(&gre, &geps, &node.re, &node.eps);
                    let (dre, deps) = dual_ew_div(&tre, &teps, bre, beps);
                    acc(&mut adj, *b, &dre * -1.0, &deps * -1.0);
                }
                DOp::Neg(a) => acc(&mut adj, *a, &gre * -1.0, &geps * -1.0),
                DOp::Scale(a, k) => acc(&mut adj, *a, &gre * *k, &geps * *k),
                DOp::AddConst(a) => acc(&mut adj, *a, gre, geps),
                DOp::MulConst(a, c) => {
                    acc(
                        &mut adj,
                        *a,
                        tensor::ew_mul(&gre, c),
                        tensor::ew_mul(&geps, c),
                    );
                }
                DOp::MatMulConstL(c, a) => {
                    // y = C·a with constant C: ā += Cᵀ ḡ, part by part.
                    let dre = c.matvec_t(&tensor::to_dvec(&gre)).expect("matvec_t shape");
                    let deps = c.matvec_t(&tensor::to_dvec(&geps)).expect("matvec_t shape");
                    acc(
                        &mut adj,
                        *a,
                        tensor::from_dvec(&dre),
                        tensor::from_dvec(&deps),
                    );
                }
                DOp::Dot(a, b) => {
                    let (gr, ge) = (gre[(0, 0)], geps[(0, 0)]);
                    let (are, aeps) = (&nodes[*a].re, &nodes[*a].eps);
                    let (bre, beps) = (&nodes[*b].re, &nodes[*b].eps);
                    acc(&mut adj, *a, bre * gr, &(beps * gr) + &(bre * ge));
                    acc(&mut adj, *b, are * gr, &(aeps * gr) + &(are * ge));
                }
                DOp::DotConst(a, c) => {
                    let (gr, ge) = (gre[(0, 0)], geps[(0, 0)]);
                    acc(&mut adj, *a, c.as_ref() * gr, c.as_ref() * ge);
                }
                DOp::Sum(a) => {
                    let (r, cc) = nodes[*a].re.shape();
                    let (gr, ge) = (gre[(0, 0)], geps[(0, 0)]);
                    acc(
                        &mut adj,
                        *a,
                        Tensor::from_fn(r, cc, |_, _| gr),
                        Tensor::from_fn(r, cc, |_, _| ge),
                    );
                }
                DOp::Mean(a) => {
                    let (r, cc) = nodes[*a].re.shape();
                    let n = (r * cc) as f64;
                    let (gr, ge) = (gre[(0, 0)] / n, geps[(0, 0)] / n);
                    acc(
                        &mut adj,
                        *a,
                        Tensor::from_fn(r, cc, |_, _| gr),
                        Tensor::from_fn(r, cc, |_, _| ge),
                    );
                }
                DOp::SumSq(a) => {
                    // ā += 2 ḡ ∘ a in dual arithmetic (scalar ḡ).
                    let (gr, ge) = (2.0 * gre[(0, 0)], 2.0 * geps[(0, 0)]);
                    let (are, aeps) = (&nodes[*a].re, &nodes[*a].eps);
                    acc(&mut adj, *a, are * gr, &(aeps * gr) + &(are * ge));
                }
                DOp::Sin(a) => {
                    // J = cos(a): J_re = cos a_re, J_eps = −a_eps ∘ sin a_re.
                    let are = &nodes[*a].re;
                    let jre = are.map(f64::cos);
                    let jeps = &tensor::ew_mul(&nodes[*a].eps, &are.map(f64::sin)) * -1.0;
                    let (dre, deps) = dual_ew_mul(&gre, &geps, &jre, &jeps);
                    acc(&mut adj, *a, dre, deps);
                }
                DOp::Cos(a) => {
                    // J = −sin(a): J_re = −sin a_re, J_eps = −a_eps ∘ cos a_re.
                    let are = &nodes[*a].re;
                    let jre = &are.map(f64::sin) * -1.0;
                    let jeps = &tensor::ew_mul(&nodes[*a].eps, &are.map(f64::cos)) * -1.0;
                    let (dre, deps) = dual_ew_mul(&gre, &geps, &jre, &jeps);
                    acc(&mut adj, *a, dre, deps);
                }
                DOp::Exp(a) => {
                    // J = y, already dual-valued on the node.
                    let (dre, deps) = dual_ew_mul(&gre, &geps, &node.re, &node.eps);
                    acc(&mut adj, *a, dre, deps);
                }
                DOp::Sqrt(a) => {
                    // J = 1/(2√a) = 0.5/y: J_eps = −0.5 y_eps / y_re².
                    let jre = node.re.map(|y| 0.5 / y);
                    let jeps =
                        tensor::ew_div(&(&node.eps * -0.5), &tensor::ew_mul(&node.re, &node.re));
                    let (dre, deps) = dual_ew_mul(&gre, &geps, &jre, &jeps);
                    acc(&mut adj, *a, dre, deps);
                }
                DOp::Tanh(a) => {
                    // J = 1 − t²: J_eps = −2 t_re ∘ t_eps.
                    let jre = node.re.map(|t| 1.0 - t * t);
                    let jeps = &tensor::ew_mul(&node.re, &node.eps) * -2.0;
                    let (dre, deps) = dual_ew_mul(&gre, &geps, &jre, &jeps);
                    acc(&mut adj, *a, dre, deps);
                }
                DOp::Powi(a, n) => {
                    // J = n a^{n−1}: J_eps = n(n−1) a_eps ∘ a^{n−2}.
                    let nf = *n as f64;
                    let are = &nodes[*a].re;
                    let jre = are.map(|x| nf * x.powi(n - 1));
                    let jeps = tensor::ew_mul(
                        &nodes[*a].eps,
                        &are.map(|x| nf * (nf - 1.0) * x.powi(n - 2)),
                    );
                    let (dre, deps) = dual_ew_mul(&gre, &geps, &jre, &jeps);
                    acc(&mut adj, *a, dre, deps);
                }
                DOp::SolveConst { be, b } => {
                    // b̄ += A⁻ᵀ ḡ, part by part, on the cached factorization.
                    let sre = be
                        .solve_transpose(&tensor::to_dvec(&gre))
                        .expect("dual solve backward");
                    let seps = be
                        .solve_transpose(&tensor::to_dvec(&geps))
                        .expect("dual solve backward");
                    acc(
                        &mut adj,
                        *b,
                        tensor::from_dvec(&sre),
                        tensor::from_dvec(&seps),
                    );
                }
            }
        }
        DualGrads { grads: adj }
    }
}

/// Dual elementwise product of adjoint `(gre, geps)` with factor
/// `(bre, beps)`: real part `gre∘bre`, ε part `gre∘beps + geps∘bre`.
fn dual_ew_mul(gre: &Tensor, geps: &Tensor, bre: &Tensor, beps: &Tensor) -> (Tensor, Tensor) {
    (
        tensor::ew_mul(gre, bre),
        &tensor::ew_mul(gre, beps) + &tensor::ew_mul(geps, bre),
    )
}

/// Dual elementwise quotient `(gre + ε geps) / (bre + ε beps)`.
fn dual_ew_div(gre: &Tensor, geps: &Tensor, bre: &Tensor, beps: &Tensor) -> (Tensor, Tensor) {
    let qre = tensor::ew_div(gre, bre);
    let qeps = tensor::ew_div(&(geps - &tensor::ew_mul(&qre, beps)), bre);
    (qre, qeps)
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div/neg are the tape's op-recording API
impl<'t> DVar<'t> {
    /// Primal value of this node.
    pub fn value(&self) -> Tensor {
        self.tape.nodes.borrow()[self.idx].re.clone()
    }

    /// Tangent (directional-derivative) value of this node.
    pub fn tangent(&self) -> Tensor {
        self.tape.nodes.borrow()[self.idx].eps.clone()
    }

    /// Primal value of a `1 × 1` node.
    pub fn scalar_value(&self) -> f64 {
        let v = self.value();
        assert_eq!(v.shape(), (1, 1), "scalar_value: node is not 1×1");
        v[(0, 0)]
    }

    /// Tangent of a `1 × 1` node (the directional derivative `∇J·v`).
    pub fn scalar_tangent(&self) -> f64 {
        let v = self.tangent();
        assert_eq!(v.shape(), (1, 1), "scalar_tangent: node is not 1×1");
        v[(0, 0)]
    }

    fn unary(self, op: DOp, re: Tensor, eps: Tensor) -> DVar<'t> {
        DVar {
            tape: self.tape,
            idx: self.tape.push(op, re, eps),
        }
    }

    fn parts(&self) -> (Tensor, Tensor) {
        self.tape.parts_of(self.idx)
    }

    /// Elementwise sum.
    pub fn add(self, o: DVar<'t>) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let (br, be) = o.parts();
        self.unary(DOp::Add(self.idx, o.idx), &ar + &br, &ae + &be)
    }

    /// Elementwise difference.
    pub fn sub(self, o: DVar<'t>) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let (br, be) = o.parts();
        self.unary(DOp::Sub(self.idx, o.idx), &ar - &br, &ae - &be)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(self, o: DVar<'t>) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let (br, be) = o.parts();
        let (re, eps) = dual_ew_mul(&ar, &ae, &br, &be);
        self.unary(DOp::Mul(self.idx, o.idx), re, eps)
    }

    /// Elementwise quotient.
    pub fn div(self, o: DVar<'t>) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let (br, be) = o.parts();
        let (re, eps) = dual_ew_div(&ar, &ae, &br, &be);
        self.unary(DOp::Div(self.idx, o.idx), re, eps)
    }

    /// Negation.
    pub fn neg(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        self.unary(DOp::Neg(self.idx), &ar * -1.0, &ae * -1.0)
    }

    /// Multiplication by a compile-time constant scalar.
    pub fn scale(self, k: f64) -> DVar<'t> {
        let (ar, ae) = self.parts();
        self.unary(DOp::Scale(self.idx, k), &ar * k, &ae * k)
    }

    /// Adds a constant tensor (no tangent contribution).
    pub fn add_const(self, c: &Tensor) -> DVar<'t> {
        let (ar, ae) = self.parts();
        self.unary(DOp::AddConst(self.idx), &ar + c, ae)
    }

    /// Elementwise product with a constant tensor.
    pub fn mul_const(self, c: &Tensor) -> DVar<'t> {
        let (ar, ae) = self.parts();
        self.unary(
            DOp::MulConst(self.idx, Arc::new(c.clone())),
            tensor::ew_mul(&ar, c),
            tensor::ew_mul(&ae, c),
        )
    }

    /// Left-multiplication by a constant matrix: `C · self`.
    pub fn matmul_const_l(self, c: &Arc<Tensor>) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let re = c.matmul(&ar).expect("matmul_const_l shape");
        let eps = c.matmul(&ae).expect("matmul_const_l shape");
        self.unary(DOp::MatMulConstL(Arc::clone(c), self.idx), re, eps)
    }

    /// Frobenius inner product with another variable (`1 × 1`).
    pub fn dot(self, o: DVar<'t>) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let (br, be) = o.parts();
        assert_eq!(ar.shape(), br.shape(), "dot: shape mismatch");
        let mut re = 0.0;
        let mut eps = 0.0;
        for (((x, dx), y), dy) in ar
            .as_slice()
            .iter()
            .zip(ae.as_slice())
            .zip(br.as_slice())
            .zip(be.as_slice())
        {
            re += x * y;
            eps += x * dy + dx * y;
        }
        self.unary(
            DOp::Dot(self.idx, o.idx),
            tensor::scalar(re),
            tensor::scalar(eps),
        )
    }

    /// Frobenius inner product with a constant tensor (`1 × 1`).
    pub fn dot_const(self, c: &Tensor) -> DVar<'t> {
        let (ar, ae) = self.parts();
        assert_eq!(ar.shape(), c.shape(), "dot_const: shape mismatch");
        let re = ar
            .as_slice()
            .iter()
            .zip(c.as_slice())
            .map(|(x, w)| x * w)
            .sum();
        let eps = ae
            .as_slice()
            .iter()
            .zip(c.as_slice())
            .map(|(x, w)| x * w)
            .sum();
        self.unary(
            DOp::DotConst(self.idx, Arc::new(c.clone())),
            tensor::scalar(re),
            tensor::scalar(eps),
        )
    }

    /// Sum of all entries (`1 × 1`).
    pub fn sum(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        self.unary(
            DOp::Sum(self.idx),
            tensor::scalar(ar.as_slice().iter().sum()),
            tensor::scalar(ae.as_slice().iter().sum()),
        )
    }

    /// Mean of all entries (`1 × 1`).
    pub fn mean(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let n = tensor::numel(&ar) as f64;
        self.unary(
            DOp::Mean(self.idx),
            tensor::scalar(ar.as_slice().iter().sum::<f64>() / n),
            tensor::scalar(ae.as_slice().iter().sum::<f64>() / n),
        )
    }

    /// Sum of squares (`1 × 1`).
    pub fn sum_sq(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let re = ar.as_slice().iter().map(|x| x * x).sum();
        let eps = 2.0
            * ar.as_slice()
                .iter()
                .zip(ae.as_slice())
                .map(|(x, dx)| x * dx)
                .sum::<f64>();
        self.unary(
            DOp::SumSq(self.idx),
            tensor::scalar(re),
            tensor::scalar(eps),
        )
    }

    /// Elementwise sine.
    pub fn sin(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        self.unary(
            DOp::Sin(self.idx),
            ar.map(f64::sin),
            tensor::ew_mul(&ae, &ar.map(f64::cos)),
        )
    }

    /// Elementwise cosine.
    pub fn cos(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        self.unary(
            DOp::Cos(self.idx),
            ar.map(f64::cos),
            &tensor::ew_mul(&ae, &ar.map(f64::sin)) * -1.0,
        )
    }

    /// Elementwise exponential.
    pub fn exp(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let re = ar.map(f64::exp);
        let eps = tensor::ew_mul(&ae, &re);
        self.unary(DOp::Exp(self.idx), re, eps)
    }

    /// Elementwise square root.
    pub fn sqrt(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let re = ar.map(f64::sqrt);
        let eps = tensor::ew_mul(&ae, &re.map(|s| 0.5 / s));
        self.unary(DOp::Sqrt(self.idx), re, eps)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(self) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let re = ar.map(f64::tanh);
        let eps = tensor::ew_mul(&ae, &re.map(|t| 1.0 - t * t));
        self.unary(DOp::Tanh(self.idx), re, eps)
    }

    /// Elementwise integer power (negative `n` gives reciprocal powers).
    pub fn powi(self, n: i32) -> DVar<'t> {
        let (ar, ae) = self.parts();
        let nf = n as f64;
        self.unary(
            DOp::Powi(self.idx, n),
            ar.map(|x| x.powi(n)),
            tensor::ew_mul(&ae, &ar.map(|x| nf * x.powi(n - 1))),
        )
    }

    /// Squares every entry (sugar for `powi(2)`).
    pub fn sq(self) -> DVar<'t> {
        self.powi(2)
    }

    /// Elementwise reciprocal (sugar for `powi(-1)`).
    pub fn recip(self) -> DVar<'t> {
        self.powi(-1)
    }
}

/// Dual adjoints of every leaf after [`DualTape::backward`].
pub struct DualGrads {
    grads: Vec<Option<(Tensor, Tensor)>>,
}

impl DualGrads {
    /// Gradient and Hessian-vector-product tensors for `v` (zeros if the
    /// output never touched it).
    pub fn wrt(&self, v: DVar<'_>) -> (Tensor, Tensor) {
        match &self.grads[v.idx] {
            Some((g, h)) => (g.clone(), h.clone()),
            None => {
                let (r, c) = v.value().shape();
                (Tensor::zeros(r, c), Tensor::zeros(r, c))
            }
        }
    }

    /// [`DualGrads::wrt`] for an `n × 1` leaf, as flat vectors
    /// `(∇J, H·v)`.
    pub fn wrt_vec(&self, v: DVar<'_>) -> (DVec, DVec) {
        let (g, h) = self.wrt(v);
        (tensor::to_dvec(&g), tensor::to_dvec(&h))
    }
}

/// One forward-over-reverse evaluation: objective value, gradient and exact
/// Hessian-vector product along the seeded direction.
#[derive(Debug, Clone)]
pub struct HvpEval {
    /// Objective value `J(c)`.
    pub value: f64,
    /// Gradient `∇J(c)` (real part of the leaf's dual adjoint).
    pub grad: DVec,
    /// Hessian-vector product `H(c)·v` (ε part of the leaf's dual adjoint).
    pub hvp: DVec,
}

/// Records `f` at primal `c` with tangent seed `v` and returns
/// `(J, ∇J, H·v)` from one reverse sweep — the forward-over-reverse
/// Hessian-vector product API.
///
/// `f` receives the tape and the seeded leaf; it must return the scalar
/// objective node. Fallible recording (e.g. a linear solve) propagates its
/// error unchanged.
pub fn hvp<E>(
    c: &DVec,
    v: &DVec,
    f: impl for<'t> FnOnce(&'t DualTape, DVar<'t>) -> Result<DVar<'t>, E>,
) -> Result<HvpEval, E> {
    let tape = DualTape::new();
    let leaf = tape.var_col(c, v);
    let out = f(&tape, leaf)?;
    let value = out.scalar_value();
    let grads = tape.backward(out);
    let (grad, hv) = grads.wrt_vec(leaf);
    Ok(HvpEval {
        value,
        grad,
        hvp: hv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::{derivative2, Dual2};
    use crate::scalar::Scalar;
    use linalg::{DMat, Lu};

    /// Scalar second derivative through the dual tape: seed tangent 1 at a
    /// single-entry leaf, so `hvp = f''(x)`.
    fn d2_via_dtape(
        x: f64,
        f: impl for<'t> FnOnce(&'t DualTape, DVar<'t>) -> DVar<'t>,
    ) -> (f64, f64, f64) {
        let e =
            hvp::<std::convert::Infallible>(&DVec(vec![x]), &DVec(vec![1.0]), |t, c| Ok(f(t, c)))
                .unwrap();
        (e.value, e.grad[0], e.hvp[0])
    }

    #[test]
    fn exp_second_derivative_identity() {
        // f = exp(x): f = f' = f''.
        let (v, d, dd) = d2_via_dtape(0.7, |_, c| c.exp().sum());
        let e = (0.7f64).exp();
        assert!((v - e).abs() < 1e-14);
        assert!((d - e).abs() < 1e-14);
        assert!((dd - e).abs() < 1e-13);
    }

    #[test]
    fn sin_second_derivative_identity() {
        // f = sin(x): f'' = −sin(x).
        let (v, d, dd) = d2_via_dtape(1.1, |_, c| c.sin().sum());
        assert!((v - (1.1f64).sin()).abs() < 1e-14);
        assert!((d - (1.1f64).cos()).abs() < 1e-14);
        assert!((dd + (1.1f64).sin()).abs() < 1e-13);
    }

    #[test]
    fn recip_second_derivative_identity() {
        // f = 1/x: f'' = 2/x³.
        let x = 0.8;
        let (v, d, dd) = d2_via_dtape(x, |_, c| c.recip().sum());
        assert!((v - 1.0 / x).abs() < 1e-14);
        assert!((d + 1.0 / (x * x)).abs() < 1e-13);
        assert!((dd - 2.0 / (x * x * x)).abs() < 1e-12);
    }

    #[test]
    fn division_matches_recip_second_derivative() {
        // The Div node's dual backward must agree with powi(−1).
        let x = 1.3;
        let (_, d, dd) = d2_via_dtape(x, |t, c| {
            let one = t.var_scalar(1.0, 0.0);
            one.div(c).sum()
        });
        assert!((d + 1.0 / (x * x)).abs() < 1e-13);
        assert!((dd - 2.0 / (x * x * x)).abs() < 1e-12);
    }

    #[test]
    fn sqrt_second_derivative_identity() {
        // f = √x: f'' = −1/(4 x^{3/2}).
        let x = 2.25;
        let (v, d, dd) = d2_via_dtape(x, |_, c| c.sqrt().sum());
        assert!((v - 1.5).abs() < 1e-14);
        assert!((d - 0.5 / 1.5).abs() < 1e-14);
        assert!((dd + 0.25 / (x * 1.5)).abs() < 1e-13);
    }

    #[test]
    fn mul_chain_matches_forward_forward_dual2() {
        // f = x · sin(x) · exp(x): cross-check the dual-over-reverse sweep
        // against pure forward-forward (Dual2) on the same chain.
        for &x in &[0.3, 0.9, 1.6] {
            let (v, d, dd) = d2_via_dtape(x, |_, c| c.mul(c.sin()).mul(c.exp()).sum());
            let (v2, d2, dd2) = derivative2(|z: Dual2| z * z.sin() * z.exp(), x);
            assert!((v - v2).abs() < 1e-13, "value at {x}");
            assert!((d - d2).abs() < 1e-12, "first derivative at {x}");
            assert!((dd - dd2).abs() < 1e-11, "second derivative at {x}");
        }
    }

    #[test]
    fn tanh_and_trig_second_derivatives_match_dual2() {
        for &x in &[0.4, 1.2] {
            let (_, d, dd) = d2_via_dtape(x, |_, c| c.tanh().mul(c.cos()).sum());
            let (_, d2, dd2) = derivative2(|z: Dual2| z.tanh() * z.cos(), x);
            assert!((d - d2).abs() < 1e-12);
            assert!((dd - dd2).abs() < 1e-11);
        }
    }

    #[test]
    fn quadratic_hvp_is_exactly_q_v() {
        // f(c) = ½ cᵀQc with SPD Q: H·v = Q·v for every c, exactly.
        let q = Arc::new(DMat::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ]));
        let c = DVec(vec![0.3, -0.7, 1.1]);
        let v = DVec(vec![1.0, -2.0, 0.5]);
        let e = hvp::<std::convert::Infallible>(&c, &v, |_, cv| {
            Ok(cv.matmul_const_l(&q).dot(cv).scale(0.5))
        })
        .unwrap();
        let qv = q.matvec(&v).unwrap();
        let qc = q.matvec(&c).unwrap();
        for i in 0..3 {
            assert!((e.grad[i] - qc[i]).abs() < 1e-14, "grad[{i}]");
            assert!((e.hvp[i] - qv[i]).abs() < 1e-14, "hvp[{i}]");
        }
        // Directional-derivative consistency: output tangent = ∇J·v.
        assert!((e.value - 0.5 * c.dot(&qc)).abs() < 1e-14);
    }

    #[test]
    fn solve_const_hvp_matches_fd_of_tape_gradient() {
        // Quadratic-through-a-solve: J(c) = ‖A⁻¹(Pc + r)‖², the shape of
        // the Laplace DP objective. HVP must match central FD of the real
        // tape's gradient to near machine precision (J is quadratic).
        let a = DMat::from_rows(&[
            vec![5.0, 1.0, 0.0],
            vec![1.0, 4.0, 1.0],
            vec![0.0, 1.0, 3.0],
        ]);
        let lu: Arc<dyn LinearBackend> = Arc::new(Lu::factor(&a).unwrap());
        let p = Arc::new(DMat::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ]));
        let r = tensor::col(&[0.2, -0.1, 0.4]);
        let c = DVec(vec![0.5, -0.3]);
        let v = DVec(vec![1.0, 0.7]);

        let e = hvp(&c, &v, |t, cv| {
            let x = t.solve_backend(&lu, cv.matmul_const_l(&p).add_const(&r))?;
            Ok::<_, LinalgError>(x.sum_sq())
        })
        .unwrap();

        let tape_grad = |cc: &DVec| -> DVec {
            let t = crate::Tape::new();
            let cv = t.var_col(cc);
            let x = t
                .solve_backend(&lu, cv.matmul_const_l(&p).add_const(&r))
                .unwrap();
            let j = x.sum_sq();
            tensor::to_dvec(&t.backward(j).wrt(cv))
        };
        // Gradient agreement with the real tape.
        let g = tape_grad(&c);
        for i in 0..2 {
            assert!((e.grad[i] - g[i]).abs() < 1e-13, "grad[{i}]");
        }
        // HVP vs central FD of the gradient.
        let h = 1e-5;
        let mut cp = c.clone();
        let mut cm = c.clone();
        for i in 0..2 {
            cp[i] += h * v[i];
            cm[i] -= h * v[i];
        }
        let (gp, gm) = (tape_grad(&cp), tape_grad(&cm));
        for i in 0..2 {
            let fd = (gp[i] - gm[i]) / (2.0 * h);
            assert!(
                (e.hvp[i] - fd).abs() < 1e-8 * (1.0 + fd.abs()),
                "hvp[{i}]: exact {} vs fd {fd}",
                e.hvp[i]
            );
        }
    }

    fn exp_sin_objective<'t>(
        _t: &'t DualTape,
        cv: DVar<'t>,
    ) -> Result<DVar<'t>, std::convert::Infallible> {
        Ok(cv.exp().mul(cv.sin()).sum())
    }

    #[test]
    fn hvp_is_linear_in_the_seed_direction() {
        let c = DVec(vec![0.4, 0.9]);
        let e1 = hvp(&c, &DVec(vec![1.0, 0.0]), exp_sin_objective).unwrap();
        let e2 = hvp(&c, &DVec(vec![0.0, 1.0]), exp_sin_objective).unwrap();
        let e12 = hvp(&c, &DVec(vec![2.0, -3.0]), exp_sin_objective).unwrap();
        for i in 0..2 {
            let lin = 2.0 * e1.hvp[i] - 3.0 * e2.hvp[i];
            assert!((e12.hvp[i] - lin).abs() < 1e-12, "linearity[{i}]");
        }
    }

    #[test]
    fn untouched_leaf_gets_zero_grad_and_hvp() {
        let tape = DualTape::new();
        let a = tape.var_col(&[1.0, 2.0], &[1.0, 0.0]);
        let b = tape.var_col(&[3.0], &[0.0]);
        let out = a.sum_sq();
        let grads = tape.backward(out);
        let (g, h) = grads.wrt_vec(b);
        assert_eq!(g.as_slice(), &[0.0]);
        assert_eq!(h.as_slice(), &[0.0]);
    }

    /// Property tests need the proptest engine; enable with
    /// `--features proptest`.
    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_dtape_second_derivative_matches_dual2(x in 0.2f64..2.0) {
                let (_, d, dd) =
                    d2_via_dtape(x, |_, c| c.sqrt().mul(c.exp()).add(c.sin().sq()).sum());
                let (_, d2, dd2) = derivative2(
                    |z: Dual2| z.sqrt() * z.exp() + z.sin() * z.sin(),
                    x,
                );
                prop_assert!((d - d2).abs() < 1e-10 * (1.0 + d2.abs()));
                prop_assert!((dd - dd2).abs() < 1e-9 * (1.0 + dd2.abs()));
            }

            #[test]
            fn prop_hvp_symmetry_of_bilinear_form(
                a in -1.5f64..1.5, b in -1.5f64..1.5,
                p in -1.0f64..1.0, q in -1.0f64..1.0,
            ) {
                // v·H(c)w == w·H(c)v for a smooth non-quadratic objective.
                let c = DVec(vec![0.6 + 0.1 * a.abs(), 1.1 + 0.1 * b.abs()]);
                let v = DVec(vec![a, b]);
                let w = DVec(vec![p, q]);
                let hv = hvp(&c, &v, exp_sin_objective).unwrap().hvp;
                let hw = hvp(&c, &w, exp_sin_objective).unwrap().hvp;
                let vhw = v.dot(&hw);
                let whv = w.dot(&hv);
                prop_assert!((vhw - whv).abs() < 1e-10 * (1.0 + vhw.abs()));
            }
        }
    }
}
