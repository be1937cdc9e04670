//! Tensor-level reverse-mode automatic differentiation.
//!
//! This is the engine behind the paper's differentiable-programming (DP)
//! results: the *discretise-then-optimise* gradients come from recording
//! whole-array operations (assembly, linear solves, quadratures) on a tape
//! and running one reverse sweep. The pivotal primitive is the
//! differentiable linear solve:
//!
//! * forward: `x = A⁻¹ b`, caching the LU factorization of `A`;
//! * backward: `s = A⁻ᵀ x̄` (one transpose-solve with the *cached* factors),
//!   then `b̄ += s` and, when `A = A₀ + Σₖ diag(sₖ) Cₖ` depends on taped
//!   scale columns, `s̄ₖ` from the `Ā = −s xᵀ` rule contracted row by row
//!   against `Cₖ` — `Ā` itself is never formed.
//!
//! This mirrors the custom VJP JAX registers for `jnp.linalg.solve` and is
//! why DP "produces the most accurate gradients" (paper §4): the reverse
//! sweep is the exact adjoint of the discrete forward solver, with no
//! separately-discretised adjoint PDE to drift out of sync.

use crate::tensor::{self, Tensor};
use linalg::{DMat, LinalgError, LinearBackend, Lu};
use std::cell::RefCell;
use std::sync::Arc;

/// Operations recorded on the tape. Parent node indices are embedded in the
/// variants; `Rc` payloads are constants captured at record time.
#[derive(Clone)]
enum Op {
    /// Leaf (input or constant-as-variable).
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    /// Elementwise product.
    Mul(usize, usize),
    /// Elementwise quotient.
    Div(usize, usize),
    Neg(usize),
    /// Multiplication by a scalar constant.
    Scale(usize, f64),
    /// Elementwise addition of a constant tensor (the constant is not needed
    /// in the backward pass, so it is not retained).
    AddConst(usize),
    /// Elementwise product with a constant tensor.
    MulConst(usize, Arc<Tensor>),
    /// `A B`, both variable.
    MatMul(usize, usize),
    /// `C B`, left factor constant.
    MatMulConstL(Arc<Tensor>, usize),
    /// `A C`, right factor constant.
    MatMulConstR(usize, Arc<Tensor>),
    Transpose(usize),
    /// Sum of all entries, producing `1 × 1`.
    Sum(usize),
    /// Mean of all entries, producing `1 × 1`.
    Mean(usize),
    /// Sum of squared entries, producing `1 × 1`.
    SumSq(usize),
    /// Frobenius inner product of two variables, producing `1 × 1`.
    Dot(usize, usize),
    /// Frobenius inner product with a constant, producing `1 × 1`.
    DotConst(usize, Arc<Tensor>),
    Tanh(usize),
    Sin(usize),
    Cos(usize),
    Exp(usize),
    Sqrt(usize),
    Powi(usize, i32),
    /// Contiguous row slice `[r0, r0+rows)`.
    SliceRows {
        parent: usize,
        r0: usize,
        rows: usize,
    },
    /// Row gather by index list.
    Gather {
        parent: usize,
        idx: Arc<Vec<usize>>,
    },
    /// Row scatter into `nrows` zero rows: row `k` of the parent lands in
    /// row `idx[k]` (distinct indices).
    Scatter {
        parent: usize,
        idx: Arc<Vec<usize>>,
    },
    /// Vertical concatenation of the parents.
    ConcatRows(Vec<usize>),
    /// `X + 1·r` broadcasting a `1 × n` row over an `m × n` matrix.
    BroadcastAddRow(usize, usize),
    /// `x = A⁻¹ b` with a constant, pre-prepared `A` (dense LU factors or a
    /// sparse factor — the tape only needs the solve contract).
    SolveConst {
        be: Arc<dyn LinearBackend>,
        b: usize,
    },
    /// `x = A⁻¹ b` where `A = A₀ + Σₖ diag(sₖ) Cₖ`: constant sparse
    /// structure matrices `Cₖ`, taped scale columns `sₖ`. The backward pass
    /// contracts `Ā = −s xᵀ` against each `Cₖ` over its stored entries —
    /// no dense `Ā` is ever formed, on either backend.
    SolveScaled {
        b: usize,
        scales: Vec<usize>,
        structs: Vec<Arc<linalg::Csr>>,
        be: Arc<dyn LinearBackend>,
    },
}

struct Node {
    op: Op,
    value: Tensor,
}

/// A reverse-mode tensor tape.
///
/// Typical use builds a fresh tape per optimization iteration, records the
/// forward computation through [`TVar`] methods, calls [`Tape::backward`] on
/// the scalar objective, then drops the tape.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

/// A variable on a [`Tape`] (a cheap copyable handle).
#[derive(Clone, Copy)]
pub struct TVar<'t> {
    tape: &'t Tape,
    idx: usize,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes held by node values and cached factorizations.
    ///
    /// This is the quantity behind the paper's Table 3 memory discussion: DP
    /// memory grows with every recorded solve (each caches an `n²` LU), so
    /// linearly in the number of Navier–Stokes refinement steps `k`.
    pub fn memory_bytes(&self) -> usize {
        let nodes = self.nodes.borrow();
        // Shared backends (one Arc reused by many solves, e.g. a
        // time-stepping loop with a constant operator) are counted once;
        // identity is the data pointer (the vtable half is irrelevant).
        let mut seen: Vec<*const u8> = Vec::new();
        nodes
            .iter()
            .map(|n| {
                let mut b = tensor::numel(&n.value) * 8;
                // Constants captured by reference (structure matrices,
                // `MulConst` tensors, …) belong to their owner and are not
                // charged; a prepared backend is the solve's own state.
                if let Op::SolveConst { be, .. } | Op::SolveScaled { be, .. } = &n.op {
                    let p = Arc::as_ptr(be) as *const u8;
                    if !seen.contains(&p) {
                        seen.push(p);
                        b += be.memory_bytes();
                    }
                }
                b
            })
            .sum()
    }

    /// Registers a leaf variable.
    pub fn var(&self, value: Tensor) -> TVar<'_> {
        TVar {
            tape: self,
            idx: self.push(Op::Leaf, value),
        }
    }

    /// Registers an `n × 1` leaf from a slice.
    pub fn var_col(&self, v: &[f64]) -> TVar<'_> {
        self.var(tensor::col(v))
    }

    /// Registers a `1 × 1` leaf.
    pub fn var_scalar(&self, v: f64) -> TVar<'_> {
        self.var(tensor::scalar(v))
    }

    fn push(&self, op: Op, value: Tensor) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { op, value });
        nodes.len() - 1
    }

    /// Applies `f` to node `idx`'s value in place, with no copy. The node
    /// list stays borrowed only while `f` runs, so the caller may then
    /// [`Tape::push`] the result.
    fn with_value<R>(&self, idx: usize, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[idx].value)
    }

    /// [`Tape::with_value`] over two nodes' values.
    fn with_values<R>(&self, a: usize, b: usize, f: impl FnOnce(&Tensor, &Tensor) -> R) -> R {
        let nodes = self.nodes.borrow();
        f(&nodes[a].value, &nodes[b].value)
    }

    fn shape_of(&self, idx: usize) -> (usize, usize) {
        self.nodes.borrow()[idx].value.shape()
    }

    /// Differentiable linear solve with a constant, pre-factored matrix.
    ///
    /// Sharing one `Arc<Lu>` across iterations is the "factor once, solve
    /// many" fast path the Laplace problem exploits (its collocation matrix
    /// does not depend on the control). The reverse sweep reuses the *same*
    /// factor for its transpose solve (`Aᵀλ = x̄` via [`Lu::solve_transpose`]),
    /// so neither direction ever refactors — this is the tape half of the
    /// factorisation-reuse story measured by `dal_laplace_factor_reuse_speedup`
    /// in `BENCH_perf.json` (see DESIGN.md §9).
    pub fn solve_const<'t>(&'t self, lu: &Arc<Lu>, b: TVar<'t>) -> Result<TVar<'t>, LinalgError> {
        let be: Arc<dyn LinearBackend> = Arc::clone(lu) as Arc<dyn LinearBackend>;
        self.solve_backend(&be, b)
    }

    /// [`Tape::solve_const`] generalised to any prepared [`LinearBackend`]:
    /// dense LU factors or a sparse factor. The backward pass
    /// calls the backend's transpose solve, so a sparse forward solve gets a
    /// sparse adjoint solve — and both report through the `"linsolve"` trace
    /// layer when the backend does.
    pub fn solve_backend<'t>(
        &'t self,
        be: &Arc<dyn LinearBackend>,
        b: TVar<'t>,
    ) -> Result<TVar<'t>, LinalgError> {
        let bv = self.with_value(b.idx, tensor::to_dvec);
        let x = be.solve(&bv)?;
        Ok(TVar {
            tape: self,
            idx: self.push(
                Op::SolveConst {
                    be: Arc::clone(be),
                    b: b.idx,
                },
                tensor::from_dvec(&x),
            ),
        })
    }

    /// Differentiable linear solve `x = A⁻¹ b` through a **sparsely
    /// assembled** variable matrix `A = A₀ + Σₖ diag(sₖ) Cₖ`.
    ///
    /// The caller assembles the operator (constant part `A₀` plus each
    /// taped scale column `sₖ` applied row-wise to its constant sparse
    /// structure matrix `Cₖ`) and hands in the *prepared* backend `be` for
    /// exactly that matrix — the tape never sees, stores or densifies `A`
    /// itself. Contract: `be` must solve the matrix implied by the current
    /// values of `scales`, and each `Cₖ` must have as many rows as `sₖ`.
    ///
    /// Backward: `s = A⁻ᵀ x̄` (one backend transpose-solve), `b̄ += s`, and
    /// per scale `s̄ₖᵢ = Σⱼ (−sᵢ xⱼ)·Cₖᵢⱼ`, summed over row `i`'s stored
    /// entries in column order. That is the dense `Ā = −s xᵀ` rule
    /// contracted against `∂A/∂sₖᵢ = eᵢeᵢᵀCₖ` term for term — bitwise the
    /// result of forming `Ā` and row-contracting it against a dense `Cₖ`
    /// (skipped exact zeros add `±0` to a sum that starts at `+0`) — at
    /// `O(nnz)` cost and `O(n)` memory. Every Navier–Stokes Picard sweep,
    /// dense LU or sparse band LU, records exactly one such node, so
    /// the tape keeps one prepared backend per sweep and no `(3N)²`
    /// intermediate or adjoint.
    pub fn solve_scaled<'t>(
        &'t self,
        be: &Arc<dyn LinearBackend>,
        scales: &[TVar<'t>],
        structs: &[Arc<linalg::Csr>],
        b: TVar<'t>,
    ) -> Result<TVar<'t>, LinalgError> {
        assert_eq!(
            scales.len(),
            structs.len(),
            "solve_scaled: one structure matrix per scale column"
        );
        for (s, c) in scales.iter().zip(structs) {
            assert_eq!(
                s.shape().0,
                c.nrows(),
                "solve_scaled: scale/structure row mismatch"
            );
        }
        let bv = self.with_value(b.idx, tensor::to_dvec);
        let x = be.solve(&bv)?;
        Ok(TVar {
            tape: self,
            idx: self.push(
                Op::SolveScaled {
                    b: b.idx,
                    scales: scales.iter().map(|s| s.idx).collect(),
                    structs: structs.to_vec(),
                    be: Arc::clone(be),
                },
                tensor::from_dvec(&x),
            ),
        })
    }

    /// Vertically concatenates variables.
    pub fn concat_rows<'t>(&'t self, parts: &[TVar<'t>]) -> TVar<'t> {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let value = {
            let nodes = self.nodes.borrow();
            let refs: Vec<&Tensor> = parts.iter().map(|p| &nodes[p.idx].value).collect();
            tensor::vstack(&refs)
        };
        TVar {
            tape: self,
            idx: self.push(Op::ConcatRows(parts.iter().map(|p| p.idx).collect()), value),
        }
    }

    /// Reverse sweep from a `1 × 1` output. Returns per-node adjoints.
    ///
    /// A node's parents always precede it, so the sweep splits the adjoint
    /// list at node `i`: node `i`'s adjoint is read by reference while the
    /// parents below it accumulate — no adjoint is copied just to be read.
    pub fn backward(&self, output: TVar<'_>) -> TGrads {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[output.idx].value.shape(),
            (1, 1),
            "backward: output must be scalar (1 x 1)"
        );
        let mut adj: Vec<Option<Tensor>> = vec![None; nodes.len()];
        adj[output.idx] = Some(tensor::scalar(1.0));

        // Helper: accumulate `delta` into `adj[i]`.
        fn acc(adj: &mut [Option<Tensor>], i: usize, delta: Tensor) {
            match &mut adj[i] {
                Some(t) => t.axpy_mat(1.0, &delta),
                slot @ None => *slot = Some(delta),
            }
        }
        // Helper: `acc` of a borrowed tensor, copied only into an empty slot.
        fn acc_ref(adj: &mut [Option<Tensor>], i: usize, delta: &Tensor) {
            match &mut adj[i] {
                Some(t) => t.axpy_mat(1.0, delta),
                slot @ None => *slot = Some(delta.clone()),
            }
        }

        for i in (0..=output.idx).rev() {
            let (adj, here) = adj.split_at_mut(i);
            let Some(g) = &here[0] else { continue };
            let node = &nodes[i];
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    acc_ref(adj, *a, g);
                    acc_ref(adj, *b, g);
                }
                Op::Sub(a, b) => {
                    acc_ref(adj, *a, g);
                    acc(adj, *b, g * -1.0);
                }
                Op::Mul(a, b) => {
                    let av = &nodes[*a].value;
                    let bv = &nodes[*b].value;
                    acc(adj, *a, tensor::ew_mul(g, bv));
                    acc(adj, *b, tensor::ew_mul(g, av));
                }
                Op::Div(a, b) => {
                    let bv = &nodes[*b].value;
                    let y = &node.value;
                    acc(adj, *a, tensor::ew_div(g, bv));
                    let gb = tensor::ew_div(&tensor::ew_mul(g, y), bv);
                    acc(adj, *b, &gb * -1.0);
                }
                Op::Neg(a) => acc(adj, *a, g * -1.0),
                Op::Scale(a, c) => acc(adj, *a, g * *c),
                Op::AddConst(a) => acc_ref(adj, *a, g),
                Op::MulConst(a, c) => acc(adj, *a, tensor::ew_mul(g, c)),
                Op::MatMul(a, b) => {
                    let av = &nodes[*a].value;
                    let bv = &nodes[*b].value;
                    acc(adj, *a, g.matmul(&bv.transpose()).unwrap());
                    acc(adj, *b, av.transpose().matmul(g).unwrap());
                }
                Op::MatMulConstL(c, b) => {
                    acc(adj, *b, c.transpose().matmul(g).unwrap());
                }
                Op::MatMulConstR(a, c) => {
                    acc(adj, *a, g.matmul(&c.transpose()).unwrap());
                }
                Op::Transpose(a) => acc(adj, *a, g.transpose()),
                Op::Sum(a) => {
                    let (r, c) = nodes[*a].value.shape();
                    acc(adj, *a, DMat::from_fn(r, c, |_, _| g[(0, 0)]));
                }
                Op::Mean(a) => {
                    let (r, c) = nodes[*a].value.shape();
                    let s = g[(0, 0)] / (r * c) as f64;
                    acc(adj, *a, DMat::from_fn(r, c, |_, _| s));
                }
                Op::SumSq(a) => {
                    let av = &nodes[*a].value;
                    acc(adj, *a, av.map(|x| 2.0 * g[(0, 0)] * x));
                }
                Op::Dot(a, b) => {
                    let av = &nodes[*a].value;
                    let bv = &nodes[*b].value;
                    acc(adj, *a, bv * g[(0, 0)]);
                    acc(adj, *b, av * g[(0, 0)]);
                }
                Op::DotConst(a, c) => {
                    acc(adj, *a, c.as_ref() * g[(0, 0)]);
                }
                Op::Tanh(a) => {
                    let y = &node.value;
                    acc(adj, *a, tensor::ew_mul(g, &y.map(|t| 1.0 - t * t)));
                }
                Op::Sin(a) => {
                    let av = &nodes[*a].value;
                    acc(adj, *a, tensor::ew_mul(g, &av.map(f64::cos)));
                }
                Op::Cos(a) => {
                    let av = &nodes[*a].value;
                    acc(adj, *a, tensor::ew_mul(g, &av.map(|x| -x.sin())));
                }
                Op::Exp(a) => {
                    let y = &node.value;
                    acc(adj, *a, tensor::ew_mul(g, y));
                }
                Op::Sqrt(a) => {
                    let y = &node.value;
                    acc(adj, *a, tensor::ew_mul(g, &y.map(|s| 0.5 / s)));
                }
                Op::Powi(a, n) => {
                    let av = &nodes[*a].value;
                    let nf = *n as f64;
                    acc(adj, *a, tensor::ew_mul(g, &av.map(|x| nf * x.powi(n - 1))));
                }
                Op::SliceRows { parent, r0, rows } => {
                    let (pr, pc) = nodes[*parent].value.shape();
                    let mut d = DMat::zeros(pr, pc);
                    d.set_block(*r0, 0, g);
                    let _ = rows;
                    acc(adj, *parent, d);
                }
                Op::Gather { parent, idx } => {
                    let (pr, pc) = nodes[*parent].value.shape();
                    let mut d = DMat::zeros(pr, pc);
                    for (gi, &pi) in idx.iter().enumerate() {
                        for j in 0..pc {
                            d[(pi, j)] += g[(gi, j)];
                        }
                    }
                    acc(adj, *parent, d);
                }
                Op::Scatter { parent, idx } => {
                    let pc = g.ncols();
                    let d = DMat::from_fn(idx.len(), pc, |k, j| g[(idx[k], j)]);
                    acc(adj, *parent, d);
                }
                Op::ConcatRows(parents) => {
                    let mut r0 = 0;
                    for &p in parents {
                        let (pr, pc) = nodes[p].value.shape();
                        acc(adj, p, g.block(r0, 0, pr, pc));
                        r0 += pr;
                    }
                }
                Op::BroadcastAddRow(x, r) => {
                    acc_ref(adj, *x, g);
                    acc(adj, *r, tensor::sum_rows(g));
                }
                Op::SolveConst { be, b } => {
                    let gb = be
                        .solve_transpose(&tensor::to_dvec(g))
                        .expect("solve_const backward");
                    acc(adj, *b, tensor::from_dvec(&gb));
                }
                Op::SolveScaled {
                    b,
                    scales,
                    structs,
                    be,
                } => {
                    let s = be
                        .solve_transpose(&tensor::to_dvec(g))
                        .expect("solve_scaled backward");
                    acc(adj, *b, tensor::from_dvec(&s));
                    // s̄ₖᵢ = Σⱼ Āᵢⱼ Cₖᵢⱼ with Āᵢⱼ = −sᵢxⱼ, over the stored
                    // entries of Cₖ's row i — Ā is never materialised.
                    let x = node.value.as_slice();
                    for (si, c) in scales.iter().zip(structs) {
                        let d = DMat::from_fn(c.nrows(), 1, |i, _| {
                            let (cols, vals) = c.row(i);
                            let mut sum = 0.0;
                            for (&j, &cv) in cols.iter().zip(vals) {
                                sum += -s[i] * x[j] * cv;
                            }
                            sum
                        });
                        acc(adj, *si, d);
                    }
                }
            }
        }
        TGrads { adj }
    }
}

/// Adjoints produced by [`Tape::backward`].
pub struct TGrads {
    adj: Vec<Option<Tensor>>,
}

impl TGrads {
    /// Gradient with respect to `v`, or a zero tensor of `v`'s shape if the
    /// output did not depend on it.
    pub fn wrt(&self, v: TVar<'_>) -> Tensor {
        match &self.adj[v.idx] {
            Some(t) => t.clone(),
            None => {
                let (r, c) = v.tape.shape_of(v.idx);
                DMat::zeros(r, c)
            }
        }
    }
}

macro_rules! unary_op {
    ($name:ident, $variant:ident, $fwd:expr) => {
        /// Elementwise operation recorded on the tape.
        pub fn $name(self) -> TVar<'t> {
            let out = self.with_value($fwd);
            TVar {
                tape: self.tape,
                idx: self.tape.push(Op::$variant(self.idx), out),
            }
        }
    };
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div/neg are the tape's op-recording API
impl<'t> TVar<'t> {
    /// The current (primal) value.
    pub fn value(&self) -> Tensor {
        self.with_value(Tensor::clone)
    }

    /// `(rows, cols)` of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.shape_of(self.idx)
    }

    /// The value of a `1 × 1` variable.
    pub fn scalar_value(&self) -> f64 {
        self.with_value(|v| {
            assert_eq!(v.shape(), (1, 1), "scalar_value: not 1 x 1");
            v[(0, 0)]
        })
    }

    /// [`Tape::with_value`] on this variable.
    fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        self.tape.with_value(self.idx, f)
    }

    /// [`Tape::with_values`] on this variable and `o`.
    fn with_values<R>(&self, o: TVar<'t>, f: impl FnOnce(&Tensor, &Tensor) -> R) -> R {
        self.tape.with_values(self.idx, o.idx, f)
    }

    fn binary(self, o: TVar<'t>, op: Op, value: Tensor) -> TVar<'t> {
        debug_assert!(
            std::ptr::eq(self.tape, o.tape),
            "variables from different tapes"
        );
        TVar {
            tape: self.tape,
            idx: self.tape.push(op, value),
        }
    }

    /// Elementwise addition.
    pub fn add(self, o: TVar<'t>) -> TVar<'t> {
        let v = self.with_values(o, |a, b| a + b);
        self.binary(o, Op::Add(self.idx, o.idx), v)
    }

    /// Elementwise subtraction.
    pub fn sub(self, o: TVar<'t>) -> TVar<'t> {
        let v = self.with_values(o, |a, b| a - b);
        self.binary(o, Op::Sub(self.idx, o.idx), v)
    }

    /// Elementwise product.
    pub fn mul(self, o: TVar<'t>) -> TVar<'t> {
        let v = self.with_values(o, tensor::ew_mul);
        self.binary(o, Op::Mul(self.idx, o.idx), v)
    }

    /// Elementwise quotient.
    pub fn div(self, o: TVar<'t>) -> TVar<'t> {
        let v = self.with_values(o, tensor::ew_div);
        self.binary(o, Op::Div(self.idx, o.idx), v)
    }

    /// Negation.
    pub fn neg(self) -> TVar<'t> {
        let v = self.with_value(|a| a * -1.0);
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::Neg(self.idx), v),
        }
    }

    /// Multiplication by a scalar constant.
    pub fn scale(self, c: f64) -> TVar<'t> {
        let v = self.with_value(|a| a * c);
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::Scale(self.idx, c), v),
        }
    }

    /// Elementwise addition of a constant tensor.
    pub fn add_const(self, c: &Tensor) -> TVar<'t> {
        let v = self.with_value(|a| a + c);
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::AddConst(self.idx), v),
        }
    }

    /// Elementwise product with a constant tensor.
    pub fn mul_const(self, c: &Tensor) -> TVar<'t> {
        let v = self.with_value(|a| tensor::ew_mul(a, c));
        TVar {
            tape: self.tape,
            idx: self
                .tape
                .push(Op::MulConst(self.idx, Arc::new(c.clone())), v),
        }
    }

    /// Matrix product with another variable.
    pub fn matmul(self, o: TVar<'t>) -> TVar<'t> {
        let v = self.with_values(o, |a, b| a.matmul(b).expect("matmul shape"));
        self.binary(o, Op::MatMul(self.idx, o.idx), v)
    }

    /// `C · self` with a constant left factor.
    pub fn matmul_const_l(self, c: &Arc<Tensor>) -> TVar<'t> {
        let v = self.with_value(|a| c.matmul(a).expect("matmul_const_l shape"));
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::MatMulConstL(Arc::clone(c), self.idx), v),
        }
    }

    /// `self · C` with a constant right factor.
    pub fn matmul_const_r(self, c: &Arc<Tensor>) -> TVar<'t> {
        let v = self.with_value(|a| a.matmul(c).expect("matmul_const_r shape"));
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::MatMulConstR(self.idx, Arc::clone(c)), v),
        }
    }

    /// Transpose.
    pub fn transpose(self) -> TVar<'t> {
        let v = self.with_value(Tensor::transpose);
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::Transpose(self.idx), v),
        }
    }

    /// Sum of all entries (`1 × 1`).
    pub fn sum(self) -> TVar<'t> {
        let v = self.with_value(|a| tensor::scalar(a.as_slice().iter().sum()));
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::Sum(self.idx), v),
        }
    }

    /// Mean of all entries (`1 × 1`).
    pub fn mean(self) -> TVar<'t> {
        let v = self.with_value(|a| {
            tensor::scalar(a.as_slice().iter().sum::<f64>() / tensor::numel(a) as f64)
        });
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::Mean(self.idx), v),
        }
    }

    /// Sum of squares (`1 × 1`).
    pub fn sum_sq(self) -> TVar<'t> {
        let v = self.with_value(|a| tensor::scalar(a.as_slice().iter().map(|x| x * x).sum()));
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::SumSq(self.idx), v),
        }
    }

    /// Frobenius inner product with another variable (`1 × 1`).
    pub fn dot(self, o: TVar<'t>) -> TVar<'t> {
        let v = self.with_values(o, |a, b| {
            assert_eq!(a.shape(), b.shape(), "dot: shape mismatch");
            tensor::scalar(
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .map(|(x, y)| x * y)
                    .sum(),
            )
        });
        self.binary(o, Op::Dot(self.idx, o.idx), v)
    }

    /// Frobenius inner product with a constant tensor (`1 × 1`), e.g. a
    /// quadrature-weight vector.
    pub fn dot_const(self, c: &Tensor) -> TVar<'t> {
        let v = self.with_value(|a| {
            assert_eq!(a.shape(), c.shape(), "dot_const: shape mismatch");
            tensor::scalar(
                a.as_slice()
                    .iter()
                    .zip(c.as_slice())
                    .map(|(x, y)| x * y)
                    .sum(),
            )
        });
        TVar {
            tape: self.tape,
            idx: self
                .tape
                .push(Op::DotConst(self.idx, Arc::new(c.clone())), v),
        }
    }

    unary_op!(tanh, Tanh, |v: &Tensor| v.map(f64::tanh));
    unary_op!(sin, Sin, |v: &Tensor| v.map(f64::sin));
    unary_op!(cos, Cos, |v: &Tensor| v.map(f64::cos));
    unary_op!(exp, Exp, |v: &Tensor| v.map(f64::exp));
    unary_op!(sqrt, Sqrt, |v: &Tensor| v.map(f64::sqrt));

    /// Elementwise integer power.
    pub fn powi(self, n: i32) -> TVar<'t> {
        let v = self.with_value(|a| a.map(|x| x.powi(n)));
        TVar {
            tape: self.tape,
            idx: self.tape.push(Op::Powi(self.idx, n), v),
        }
    }

    /// Squares every entry (sugar for `powi(2)`).
    pub fn sq(self) -> TVar<'t> {
        self.powi(2)
    }

    /// Contiguous row slice `[r0, r0 + rows)`.
    pub fn slice_rows(self, r0: usize, rows: usize) -> TVar<'t> {
        let v = self.with_value(|a| a.block(r0, 0, rows, a.ncols()));
        TVar {
            tape: self.tape,
            idx: self.tape.push(
                Op::SliceRows {
                    parent: self.idx,
                    r0,
                    rows,
                },
                v,
            ),
        }
    }

    /// Row gather by an index list (scatter-add on the way back).
    pub fn gather_rows(self, idx: &[usize]) -> TVar<'t> {
        let v = self.with_value(|a| DMat::from_fn(idx.len(), a.ncols(), |i, j| a[(idx[i], j)]));
        TVar {
            tape: self.tape,
            idx: self.tape.push(
                Op::Gather {
                    parent: self.idx,
                    idx: Arc::new(idx.to_vec()),
                },
                v,
            ),
        }
    }

    /// Row scatter, the transpose of [`TVar::gather_rows`]: an
    /// `nrows`-row variable, zero except row `idx[k]`, which is row `k` of
    /// `self` (gather on the way back). The indices must be distinct.
    pub fn scatter_rows(self, idx: &[usize], nrows: usize) -> TVar<'t> {
        let v = self.with_value(|a| {
            assert_eq!(a.nrows(), idx.len(), "scatter_rows: one index per row");
            let mut out = DMat::zeros(nrows, a.ncols());
            for (k, &i) in idx.iter().enumerate() {
                out.row_mut(i).copy_from_slice(a.row(k));
            }
            out
        });
        TVar {
            tape: self.tape,
            idx: self.tape.push(
                Op::Scatter {
                    parent: self.idx,
                    idx: Arc::new(idx.to_vec()),
                },
                v,
            ),
        }
    }

    /// Adds a `1 × n` row variable to every row of this `m × n` variable.
    pub fn broadcast_add_row(self, r: TVar<'t>) -> TVar<'t> {
        let v = self.with_values(r, tensor::broadcast_add_row);
        self.binary(r, Op::BroadcastAddRow(self.idx, r.idx), v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{fd_gradient, rel_error};
    use linalg::{BandLu, Csr, DVec, Triplets};

    #[test]
    fn add_mul_grads() {
        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0]);
        let b = t.var_col(&[3.0, 4.0]);
        let y = a.mul(b).add(a).sum(); // Σ (a*b + a)
        assert_eq!(y.scalar_value(), 3.0 + 8.0 + 1.0 + 2.0);
        let g = t.backward(y);
        assert_eq!(g.wrt(a).as_slice(), &[4.0, 5.0]); // b + 1
        assert_eq!(g.wrt(b).as_slice(), &[1.0, 2.0]); // a
    }

    #[test]
    fn div_grad_matches_fd() {
        let x0 = [1.3, 0.7, 2.1];
        let f = |x: &[f64]| {
            let t = Tape::new();
            let a = t.var_col(x);
            let b = t.var_col(&[2.0, 3.0, 4.0]);
            a.div(b).sum_sq().scalar_value()
        };
        let fd = fd_gradient(f, &x0, 1e-6);
        let t = Tape::new();
        let a = t.var_col(&x0);
        let b = t.var_col(&[2.0, 3.0, 4.0]);
        let y = a.div(b).sum_sq();
        let g = t.backward(y);
        let ga: Vec<f64> = g.wrt(a).as_slice().to_vec();
        assert!(rel_error(&ga, &fd) < 1e-6);
    }

    #[test]
    fn matmul_grad_matches_fd() {
        // J = sum((A x)^2) wrt x, with both A and x variables.
        let a0 = [1.0, 2.0, -1.0, 0.5];
        let x0 = [0.3, -0.8];
        let f = |x: &[f64]| {
            let t = Tape::new();
            let a = t.var(DMat::from_vec(2, 2, a0.to_vec()));
            let xv = t.var_col(x);
            a.matmul(xv).sum_sq().scalar_value()
        };
        let fd = fd_gradient(f, &x0, 1e-6);
        let t = Tape::new();
        let a = t.var(DMat::from_vec(2, 2, a0.to_vec()));
        let xv = t.var_col(&x0);
        let y = a.matmul(xv).sum_sq();
        let g = t.backward(y);
        let gx: Vec<f64> = g.wrt(xv).as_slice().to_vec();
        assert!(rel_error(&gx, &fd) < 1e-6);

        // Also check the gradient wrt A by FD over its entries.
        let fa = |av: &[f64]| {
            let t = Tape::new();
            let a = t.var(DMat::from_vec(2, 2, av.to_vec()));
            let xv = t.var_col(&x0);
            a.matmul(xv).sum_sq().scalar_value()
        };
        let fda = fd_gradient(fa, &a0, 1e-6);
        let ga: Vec<f64> = g.wrt(a).as_slice().to_vec();
        assert!(rel_error(&ga, &fda) < 1e-6);
    }

    #[test]
    fn elementwise_transcendental_grads() {
        let x0 = [0.4, 1.1, -0.6];
        for which in 0..5 {
            let f = move |x: &[f64]| {
                let t = Tape::new();
                let a = t.var_col(x);
                let y = match which {
                    0 => a.tanh(),
                    1 => a.sin(),
                    2 => a.cos(),
                    3 => a.exp(),
                    _ => a.sq(),
                };
                y.sum().scalar_value()
            };
            let fd = fd_gradient(f, &x0, 1e-6);
            let t = Tape::new();
            let a = t.var_col(&x0);
            let y = match which {
                0 => a.tanh(),
                1 => a.sin(),
                2 => a.cos(),
                3 => a.exp(),
                _ => a.sq(),
            };
            let out = y.sum();
            let g = t.backward(out);
            let ga: Vec<f64> = g.wrt(a).as_slice().to_vec();
            assert!(
                rel_error(&ga, &fd) < 1e-6,
                "op {which}: ad {ga:?} vs fd {fd:?}"
            );
        }
    }

    #[test]
    fn sqrt_grad() {
        let t = Tape::new();
        let a = t.var_col(&[4.0, 9.0]);
        let y = a.sqrt().sum();
        let g = t.backward(y);
        assert!((g.wrt(a)[(0, 0)] - 0.25).abs() < 1e-12);
        assert!((g.wrt(a)[(1, 0)] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn reductions_mean_dot() {
        let t = Tape::new();
        let a = t.var_col(&[1.0, 3.0]);
        let m = a.mean();
        assert_eq!(m.scalar_value(), 2.0);
        let g = t.backward(m);
        assert_eq!(g.wrt(a).as_slice(), &[0.5, 0.5]);

        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0]);
        let b = t.var_col(&[5.0, 7.0]);
        let d = a.dot(b);
        assert_eq!(d.scalar_value(), 19.0);
        let g = t.backward(d);
        assert_eq!(g.wrt(a).as_slice(), &[5.0, 7.0]);
        assert_eq!(g.wrt(b).as_slice(), &[1.0, 2.0]);

        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0]);
        let w = tensor::col(&[0.5, 0.25]);
        let d = a.sq().dot_const(&w); // 0.5*1 + 0.25*4
        assert_eq!(d.scalar_value(), 1.5);
        let g = t.backward(d);
        assert_eq!(g.wrt(a).as_slice(), &[1.0, 1.0]); // 2*x*w
    }

    #[test]
    fn slice_gather_concat_grads() {
        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0, 3.0, 4.0]);
        let s = a.slice_rows(1, 2); // [2, 3]
        assert_eq!(s.value().as_slice(), &[2.0, 3.0]);
        let y = s.sum_sq();
        let g = t.backward(y);
        assert_eq!(g.wrt(a).as_slice(), &[0.0, 4.0, 6.0, 0.0]);

        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0, 3.0]);
        let gth = a.gather_rows(&[2, 0, 2]);
        assert_eq!(gth.value().as_slice(), &[3.0, 1.0, 3.0]);
        let y = gth.sum();
        let g = t.backward(y);
        assert_eq!(g.wrt(a).as_slice(), &[1.0, 0.0, 2.0]);

        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0]);
        let sc = a.scatter_rows(&[3, 1], 4);
        assert_eq!(sc.value().as_slice(), &[0.0, 2.0, 0.0, 1.0]);
        let w = tensor::col(&[10.0, 20.0, 30.0, 40.0]);
        let y = sc.dot_const(&w);
        let g = t.backward(y);
        assert_eq!(g.wrt(a).as_slice(), &[40.0, 20.0]);

        let t = Tape::new();
        let a = t.var_col(&[1.0]);
        let b = t.var_col(&[2.0, 3.0]);
        let cat = t.concat_rows(&[a, b]);
        assert_eq!(cat.value().as_slice(), &[1.0, 2.0, 3.0]);
        let y = cat.mul(cat).sum();
        let g = t.backward(y);
        assert_eq!(g.wrt(a).as_slice(), &[2.0]);
        assert_eq!(g.wrt(b).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn broadcast_add_row_grad() {
        let t = Tape::new();
        let x = t.var(DMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let r = t.var(tensor::row(&[10.0, 20.0]));
        let y = x.broadcast_add_row(r).sum_sq();
        let g = t.backward(y);
        // d/dr = sum over rows of 2*(x+r)
        let gr = g.wrt(r);
        assert_eq!(gr.as_slice(), &[2.0 * (11.0 + 13.0), 2.0 * (22.0 + 24.0)]);
        let gx = g.wrt(x);
        assert_eq!(gx.as_slice(), &[22.0, 44.0, 26.0, 48.0]);
    }

    #[test]
    fn solve_const_grad_is_transpose_solve() {
        // x = A^{-1} b, J = sum(x). dJ/db = A^{-T} 1.
        let a = DMat::from_rows(&[vec![4.0, 1.0], vec![2.0, 3.0]]);
        let lu = Arc::new(Lu::factor(&a).unwrap());
        let t = Tape::new();
        let b = t.var_col(&[1.0, 2.0]);
        let x = t.solve_const(&lu, b).unwrap();
        let j = x.sum();
        let g = t.backward(j);
        let expect = lu.solve_transpose(&DVec(vec![1.0, 1.0])).unwrap();
        let gb = g.wrt(b);
        assert!((gb[(0, 0)] - expect[0]).abs() < 1e-12);
        assert!((gb[(1, 0)] - expect[1]).abs() < 1e-12);
    }

    #[test]
    fn solve_backend_generalises_solve_const() {
        // The same Lu driven through Arc<dyn LinearBackend> must give
        // bitwise-identical values and gradients to solve_const.
        let a = DMat::from_rows(&[vec![4.0, 1.0], vec![2.0, 3.0]]);
        let lu = Arc::new(Lu::factor(&a).unwrap());
        let be: Arc<dyn LinearBackend> = Arc::clone(&lu) as Arc<dyn LinearBackend>;
        let run = |via_backend: bool| {
            let t = Tape::new();
            let b = t.var_col(&[1.0, 2.0]);
            let x = if via_backend {
                t.solve_backend(&be, b).unwrap()
            } else {
                t.solve_const(&lu, b).unwrap()
            };
            let j = x.sum_sq();
            let g = t.backward(j);
            (x.value().as_slice().to_vec(), g.wrt(b).as_slice().to_vec())
        };
        let (x1, g1) = run(false);
        let (x2, g2) = run(true);
        assert_eq!(x1, x2);
        assert_eq!(g1, g2);
    }

    /// `A₀ + diag(s)·C`, assembled densely.
    fn assemble(a0: &DMat, s: &[f64], c: &DMat) -> DMat {
        DMat::from_fn(a0.nrows(), a0.ncols(), |i, j| a0[(i, j)] + s[i] * c[(i, j)])
    }

    /// `c` as a CSR structure matrix (exact zeros dropped).
    fn to_csr(c: &DMat) -> Arc<Csr> {
        let mut t = Triplets::new(c.nrows(), c.ncols());
        for i in 0..c.nrows() {
            for (j, &v) in c.row(i).iter().enumerate() {
                t.push(i, j, v);
            }
        }
        Arc::new(t.to_csr())
    }

    fn tridiag(n: usize) -> DMat {
        DMat::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + 0.1 * i as f64
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn sparse_taped_solve_matches_dense_to_equivalence_tolerance() {
        // One scaled solve through both backends: a diagonally dominant
        // tridiagonal system, dense LU against the sparse band factor.
        let n = 24;
        let a0 = tridiag(n);
        let c = DMat::eye(n);
        let s0: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64 * 0.5).sin()).collect();
        let b0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let a = assemble(&a0, &s0, &c);
        let run = |be: Arc<dyn LinearBackend>| {
            let t = Tape::new();
            let sv = t.var_col(&s0);
            let b = t.var_col(&b0);
            let x = t.solve_scaled(&be, &[sv], &[to_csr(&c)], b).unwrap();
            let g = t.backward(x.sum_sq());
            (
                x.value().as_slice().to_vec(),
                g.wrt(sv).as_slice().to_vec(),
                g.wrt(b).as_slice().to_vec(),
            )
        };
        let (xd, gsd, gbd) = run(Arc::new(Lu::factor(&a).unwrap()));
        let (xs, gss, gbs) = run(Arc::new(BandLu::factor(&to_csr(&a)).unwrap()));
        assert!(rel_error(&xd, &xs) < 1e-8, "state mismatch");
        assert!(rel_error(&gsd, &gss) < 1e-8, "matrix-param grad mismatch");
        assert!(rel_error(&gbd, &gbs) < 1e-8, "rhs grad mismatch");
    }

    #[test]
    fn solve_scaled_matches_dense_solve_values_and_gradients() {
        // A(s) = A0 + diag(s) C with a sparse C: the taped scaled solve
        // against the dense calculus done by hand — x = A⁻¹b, b̄ = A⁻ᵀx̄,
        // s̄ = −b̄ ∘ (C x).
        let n = 24;
        let a0 = tridiag(n);
        let c = DMat::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if j == (i + 1) % n {
                0.4
            } else {
                0.0
            }
        });
        let s0: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64 * 0.5).sin()).collect();
        let b0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let lu = Lu::factor(&assemble(&a0, &s0, &c)).unwrap();
        let xd = lu.solve(&DVec(b0.clone())).unwrap();
        let gbd = lu.solve_transpose(&xd.scaled(2.0)).unwrap();
        let cx = c.matvec(&xd).unwrap();
        let gsd: Vec<f64> = (0..n).map(|i| -gbd[i] * cx[i]).collect();

        let be: Arc<dyn LinearBackend> = Arc::new(lu);
        let t = Tape::new();
        let sv = t.var_col(&s0);
        let b = t.var_col(&b0);
        let x = t.solve_scaled(&be, &[sv], &[to_csr(&c)], b).unwrap();
        let g = t.backward(x.sum_sq());
        assert!(
            rel_error(xd.as_slice(), x.value().as_slice()) < 1e-12,
            "state"
        );
        assert!(
            rel_error(&gsd, g.wrt(sv).as_slice()) < 1e-10,
            "scale gradient"
        );
        assert!(
            rel_error(gbd.as_slice(), g.wrt(b).as_slice()) < 1e-10,
            "rhs gradient"
        );
        // The tape charges the prepared backend.
        assert!(t.memory_bytes() >= n * n * 8);
    }

    #[test]
    fn solve_scaled_backward_is_bitwise_the_dense_outer_product_contraction() {
        // Two scale columns whose structure matrices are dense but for some
        // exact zeros. The reference forms Ā = −s xᵀ and contracts every
        // row against the dense Cₖ, all entries in column order; the tape
        // must reproduce its bits.
        let n = 7;
        let a0 = DMat::from_fn(n, n, |i, j| {
            if i == j {
                6.0 + i as f64
            } else {
                0.3 * ((i * n + j) as f64).cos()
            }
        });
        let cs: Vec<DMat> = (0..2)
            .map(|k| {
                DMat::from_fn(n, n, |i, j| {
                    if (i + 2 * j + k) % 5 == 0 {
                        0.0
                    } else {
                        ((1 + k + i * n + j) as f64).sin()
                    }
                })
            })
            .collect();
        let s0: Vec<Vec<f64>> = (0..2)
            .map(|k| (0..n).map(|i| 0.1 * ((i + 3 * k) as f64).cos()).collect())
            .collect();
        let b0: Vec<f64> = (0..n).map(|i| 1.0 - 0.2 * i as f64).collect();
        let w: Vec<f64> = (0..n).map(|i| 0.5 + 0.1 * i as f64).collect();
        let a = assemble(&assemble(&a0, &s0[0], &cs[0]), &s0[1], &cs[1]);
        let lu = Arc::new(Lu::factor(&a).unwrap());

        let x = lu.solve(&DVec(b0.clone())).unwrap();
        let s = lu.solve_transpose(&DVec(w.clone())).unwrap();
        let abar = DMat::from_fn(n, n, |i, j| -s[i] * x[j]);
        let expect: Vec<Vec<u64>> = cs
            .iter()
            .map(|c| {
                (0..n)
                    .map(|i| {
                        let mut sum = 0.0;
                        for (av, cv) in abar.row(i).iter().zip(c.row(i)) {
                            sum += av * cv;
                        }
                        f64::to_bits(sum)
                    })
                    .collect()
            })
            .collect();

        let be: Arc<dyn LinearBackend> = lu;
        let t = Tape::new();
        let svs: Vec<TVar<'_>> = s0.iter().map(|sk| t.var_col(sk)).collect();
        let b = t.var_col(&b0);
        let structs: Vec<Arc<Csr>> = cs.iter().map(to_csr).collect();
        let xt = t.solve_scaled(&be, &svs, &structs, b).unwrap();
        let g = t.backward(xt.dot_const(&tensor::col(&w)));
        let bits = |v: &Tensor| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&xt.value()), bits(&tensor::from_dvec(&x)), "state");
        assert_eq!(bits(&g.wrt(b)), bits(&tensor::from_dvec(&s)), "rhs adjoint");
        for (k, sv) in svs.iter().enumerate() {
            assert_eq!(bits(&g.wrt(*sv)), expect[k], "scale {k} adjoint");
        }
    }

    #[test]
    fn solve_variable_matrix_grad_matches_fd() {
        // J(s) = ||A(s)^{-1} b||^2 with A(s) = A0 + diag(s) C.
        let a0 = DMat::from_rows(&[vec![5.0, 1.0], vec![1.0, 4.0]]);
        let c = DMat::from_rows(&[vec![1.0, 0.5], vec![-0.5, 1.0]]);
        let b0 = [1.0, -2.0];
        let s0 = [0.3, -0.2];
        // (J, dJ/ds) from one taped run.
        let run = |s: &[f64]| {
            let be: Arc<dyn LinearBackend> = Arc::new(Lu::factor(&assemble(&a0, s, &c)).unwrap());
            let t = Tape::new();
            let sv = t.var_col(s);
            let b = t.var_col(&b0);
            let j = t
                .solve_scaled(&be, &[sv], &[to_csr(&c)], b)
                .unwrap()
                .sum_sq();
            let g = t.backward(j);
            (j.scalar_value(), g.wrt(sv).as_slice().to_vec())
        };
        let fd = fd_gradient(|s| run(s).0, &s0, 1e-6);
        let gs = run(&s0).1;
        assert!(rel_error(&gs, &fd) < 1e-5, "ad {gs:?} vs fd {fd:?}");
    }

    #[test]
    fn solve_grad_wrt_rhs_matches_fd() {
        let lu = Arc::new(Lu::factor(&DMat::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]])).unwrap());
        let b0 = [0.7, -0.4];
        let f = |b: &[f64]| {
            let t = Tape::new();
            let bv = t.var_col(b);
            t.solve_const(&lu, bv).unwrap().sum_sq().scalar_value()
        };
        let fd = fd_gradient(f, &b0, 1e-6);
        let t = Tape::new();
        let bv = t.var_col(&b0);
        let j = t.solve_const(&lu, bv).unwrap().sum_sq();
        let g = t.backward(j);
        let gb: Vec<f64> = g.wrt(bv).as_slice().to_vec();
        assert!(rel_error(&gb, &fd) < 1e-6);
    }

    #[test]
    fn chained_solves_differentiate_through_iteration() {
        // Two chained solves: x1 = A^{-1} b, x2 = A^{-1} (x1 * x1); J = Σ x2².
        // This is a miniature of the Navier–Stokes fixed-point refinement.
        let a0 = DMat::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b0 = [1.0, 2.0];
        let f = |b: &[f64]| {
            let t = Tape::new();
            let lu = Arc::new(Lu::factor(&a0).unwrap());
            let bv = t.var_col(b);
            let x1 = t.solve_const(&lu, bv).unwrap();
            let x2 = t.solve_const(&lu, x1.mul(x1)).unwrap();
            x2.sum_sq().scalar_value()
        };
        let fd = fd_gradient(f, &b0, 1e-6);
        let t = Tape::new();
        let lu = Arc::new(Lu::factor(&a0).unwrap());
        let bv = t.var_col(&b0);
        let x1 = t.solve_const(&lu, bv).unwrap();
        let x2 = t.solve_const(&lu, x1.mul(x1)).unwrap();
        let j = x2.sum_sq();
        let g = t.backward(j);
        let gb: Vec<f64> = g.wrt(bv).as_slice().to_vec();
        assert!(rel_error(&gb, &fd) < 1e-6);
    }

    #[test]
    fn matmul_const_sides() {
        let c = Arc::new(DMat::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]));
        let t = Tape::new();
        let x = t.var_col(&[1.0, 1.0]);
        let y = x.matmul_const_l(&c).sum(); // Σ C x = (1+2) + (0+1)
        assert_eq!(y.scalar_value(), 4.0);
        let g = t.backward(y);
        assert_eq!(g.wrt(x).as_slice(), &[1.0, 3.0]); // C^T 1

        let t = Tape::new();
        let x = t.var(tensor::row(&[1.0, 1.0]));
        let y = x.matmul_const_r(&c).sum();
        assert_eq!(y.scalar_value(), 4.0);
        let g = t.backward(y);
        assert_eq!(g.wrt(x).as_slice(), &[3.0, 1.0]); // 1^T C^T
    }

    #[test]
    fn transpose_and_scale_grads() {
        let t = Tape::new();
        let x = t.var(DMat::from_rows(&[vec![1.0, 2.0]]));
        let y = x.transpose().scale(3.0).sum_sq();
        let g = t.backward(y);
        assert_eq!(g.wrt(x).as_slice(), &[18.0, 36.0]); // 2*9*x
    }

    #[test]
    fn memory_accounting_counts_solve_factors() {
        let lu = Arc::new(Lu::factor(&DMat::eye(8)).unwrap());
        let t = Tape::new();
        let before = t.memory_bytes();
        let b = t.var_col(&[1.0; 8]);
        let _x = t.solve_const(&lu, b).unwrap();
        let _y = t.solve_const(&lu, b).unwrap();
        let after = t.memory_bytes();
        // At least the 8x8 LU cache plus the node values; the factor both
        // solves share is charged once.
        assert!(after - before >= 8 * 8 * 8);
        assert!(after - before < 2 * 8 * 8 * 8);
    }

    #[test]
    fn grad_of_unused_leaf_is_zero() {
        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0]);
        let b = t.var_col(&[3.0]);
        let y = a.sum();
        let g = t.backward(y);
        assert_eq!(g.wrt(b).as_slice(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "backward: output must be scalar")]
    fn backward_rejects_non_scalar() {
        let t = Tape::new();
        let a = t.var_col(&[1.0, 2.0]);
        let _ = t.backward(a);
    }

    /// Property tests need the proptest engine; enable with
    /// `--features proptest`.
    #[cfg(feature = "proptest")]
    mod random_programs {
        use super::*;
        use proptest::prelude::*;

        /// Interprets a list of opcodes as a straight-line tensor program
        /// over the input, then reduces to a scalar. Every op keeps values
        /// in a numerically tame range.
        fn run_program(ops: &[u8], x: &[f64]) -> f64 {
            let t = Tape::new();
            let v = t.var_col(x);
            build(&t, v, ops).scalar_value()
        }

        fn build<'t>(_t: &'t Tape, x: TVar<'t>, ops: &[u8]) -> TVar<'t> {
            let mut cur = x;
            let mut prev = x;
            for &op in ops {
                let next = match op % 8 {
                    0 => cur.tanh(),
                    1 => cur.sin(),
                    2 => cur.scale(0.7),
                    3 => cur.add(prev),
                    4 => cur.mul(prev).scale(0.5),
                    5 => cur.neg(),
                    6 => cur.cos(),
                    _ => cur.sub(prev.scale(0.3)),
                };
                prev = cur;
                cur = next;
            }
            cur.sum_sq()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// Reverse-mode gradients of arbitrary op chains match central
            /// finite differences — the tape has no op-specific blind spots.
            #[test]
            fn prop_random_chain_gradients_match_fd(
                ops in proptest::collection::vec(0u8..8, 1..12),
                x in proptest::collection::vec(-1.2f64..1.2, 2..5),
            ) {
                let t = Tape::new();
                let v = t.var_col(&x);
                let out = build(&t, v, &ops);
                let g = t.backward(out).wrt(v);
                let g_vec: Vec<f64> = g.as_slice().to_vec();
                let fd = crate::gradcheck::fd_gradient(
                    |xx| run_program(&ops, xx),
                    &x,
                    1e-6,
                );
                let err = crate::gradcheck::rel_error(&g_vec, &fd);
                prop_assert!(err < 1e-4, "ops {ops:?}: rel err {err:.3e}");
            }

            /// Gradients are linear in the output seed: grad of 3·f equals
            /// 3x grad of f, coordinate by coordinate.
            #[test]
            fn prop_grad_scales_with_output(
                ops in proptest::collection::vec(0u8..8, 1..10),
                x in proptest::collection::vec(-1.0f64..1.0, 2..4),
            ) {
                let t1 = Tape::new();
                let v1 = t1.var_col(&x);
                let o1 = build(&t1, v1, &ops);
                let g1 = t1.backward(o1).wrt(v1);

                let t2 = Tape::new();
                let v2 = t2.var_col(&x);
                let o2 = build(&t2, v2, &ops).scale(3.0);
                let g2 = t2.backward(o2).wrt(v2);
                for i in 0..x.len() {
                    prop_assert!(
                        (3.0 * g1[(i, 0)] - g2[(i, 0)]).abs()
                            < 1e-10 * (1.0 + g2[(i, 0)].abs())
                    );
                }
            }
        }
    }
}
