//! Cross-strategy gradient consistency.
//!
//! The paper's comparison is only meaningful if the three gradient sources
//! — DP (reverse-mode tape through the discrete solver), DAL (continuous
//! adjoint) and central finite differences — descend the *same* objective.
//! Holl et al. treat gradient-vs-FD agreement as the gate for every new
//! differentiable operator; this module applies that gate to every control
//! problem in `crates/control`'s orbit.
//!
//! The tolerances form a **ladder**, not a single number:
//!
//! * DP vs FD — both differentiate the same discrete map, so they must
//!   agree to FD truncation error (`≤ 1e-6` relative);
//! * discrete adjoint vs FD (sparse RBF-FD path) — the same rung, held at
//!   `≤ 1e-4`;
//! * DAL vs DP — the optimise-then-discretise gradient differs from the
//!   discretise-then-optimise one by discretisation error *by design*
//!   (that gap is the paper's fig. 3b/4b point), so only direction
//!   (cosine) and rough magnitude are held;
//! * exact HVP vs FD-of-gradient ([`check_laplace_hvp`]) — the
//!   closed-form Hessian-vector product differentiates the same discrete
//!   map twice, so it must match central differences of the tape gradient
//!   to truncation error (`≤ 1e-6`) and satisfy the bilinear symmetry
//!   identity `v·H(w) == w·H(v)` to rounding;
//! * frozen surrogate vs DP ([`check_laplace_neural_op`]) — the
//!   [`LaplaceSurrogate`]'s closed-form gradient must match FD of its own
//!   cost, and its cost and gradient must match the solver's: the affine
//!   fit reproduces the Laplace control-to-flux map to rounding.
//!
//! Every comparison emits its worst-offending component through
//! [`meshfree_runtime::trace`] so a failing run points at the bad entry.

use control::surrogate::LaplaceSurrogate;
use linalg::DVec;
use meshfree_runtime::trace;
use pde::heat::HeatControlProblem;
use pde::ns_adjoint::NsAdjoint;
use pde::ns_dp::NsDp;
use pde::{LaplaceControlProblem, NsSolver};

/// Outcome of one pairwise gradient comparison.
#[derive(Debug, Clone)]
pub struct GradReport {
    /// Which control problem was checked.
    pub problem: &'static str,
    /// Which gradient pair (e.g. "dp-vs-fd").
    pub pair: &'static str,
    /// Relative ℓ² error `‖a − b‖ / max(1, ‖b‖)`.
    pub rel_err: f64,
    /// Cosine of the angle between the two gradients.
    pub cosine: f64,
    /// Index of the worst-offending component.
    pub worst_index: usize,
    /// Absolute difference at that component.
    pub worst_abs_diff: f64,
}

impl GradReport {
    /// Compares two gradients and records the worst component.
    pub fn compare(problem: &'static str, pair: &'static str, a: &[f64], b: &[f64]) -> GradReport {
        assert_eq!(a.len(), b.len(), "{problem}/{pair}: length mismatch");
        let mut diff2 = 0.0;
        let mut nb2 = 0.0;
        let mut dot = 0.0;
        let mut na2 = 0.0;
        let mut worst_index = 0;
        let mut worst_abs_diff = 0.0f64;
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let d = (x - y).abs();
            if d > worst_abs_diff {
                worst_abs_diff = d;
                worst_index = i;
            }
            diff2 += (x - y) * (x - y);
            nb2 += y * y;
            na2 += x * x;
            dot += x * y;
        }
        let rel_err = diff2.sqrt() / nb2.sqrt().max(1.0);
        let cosine = dot / (na2.sqrt() * nb2.sqrt()).max(1e-300);
        GradReport {
            problem,
            pair,
            rel_err,
            cosine,
            worst_index,
            worst_abs_diff,
        }
    }

    /// Emits the comparison through the telemetry layer: the relative error
    /// as the residual, the worst component index as the iteration and its
    /// absolute difference as the gradient-norm slot.
    pub fn emit_trace(&self) {
        trace::solve_event(
            "gradcheck",
            self.pair,
            self.worst_index,
            self.rel_err,
            self.cosine,
            self.worst_abs_diff,
        );
    }

    /// Asserts the relative error is under `tol`, with full diagnostics.
    pub fn assert_rel(&self, tol: f64) {
        self.emit_trace();
        assert!(
            self.rel_err <= tol,
            "{}/{}: rel error {:.3e} > tol {:.1e} (worst component {}: |Δ| = {:.3e})",
            self.problem,
            self.pair,
            self.rel_err,
            tol,
            self.worst_index,
            self.worst_abs_diff
        );
    }

    /// Asserts directional agreement: cosine ≥ `min_cos` and relative
    /// error ≤ `max_rel` — the loose rung for OTD-vs-DTO pairs.
    pub fn assert_aligned(&self, min_cos: f64, max_rel: f64) {
        self.emit_trace();
        assert!(
            self.cosine >= min_cos,
            "{}/{}: gradients misaligned, cos = {:.3} < {:.2}",
            self.problem,
            self.pair,
            self.cosine,
            min_cos
        );
        assert!(
            self.rel_err <= max_rel,
            "{}/{}: rel error {:.3e} > {:.1e} (worst component {}: |Δ| = {:.3e})",
            self.problem,
            self.pair,
            self.rel_err,
            max_rel,
            self.worst_index,
            self.worst_abs_diff
        );
    }
}

/// The tolerance ladder: one rung per gradient pair, per the gap each pair
/// is *expected* to have.
#[derive(Debug, Clone)]
pub struct ToleranceLadder {
    /// DP (tape) vs central FD — both discrete; FD truncation only.
    pub dp_vs_fd: f64,
    /// Sparse-backend DP (the discrete adjoint of the RBF-FD operator) vs
    /// FD.
    pub adjoint_vs_fd: f64,
    /// DAL vs (unweighted) DP on the Laplace mid-wall window: minimum
    /// cosine alignment.
    pub dal_vs_dp_cos: f64,
    /// DAL vs DP mid-wall relative error (loose: the OTD/DTO gap is real).
    pub dal_vs_dp_rel: f64,
    /// NS DAL vs DP minimum cosine (the paper's biased-gradient regime;
    /// only rough alignment away from the optimum).
    pub ns_dal_vs_dp_cos: f64,
    /// Exact HVP vs central FD of the tape gradient — both
    /// differentiate the same discrete map, so the gap is FD truncation
    /// only (the Laplace objective is quadratic: FD-of-gradient is exact
    /// up to rounding).
    pub hvp_vs_fd: f64,
    /// Symmetry defect `|v·H(w) − w·H(v)| / (1 + |v·H(w)|)` of the exact
    /// HVP — a bilinear-form identity, rounding-limited.
    pub hvp_symmetry: f64,
    /// Frozen-surrogate gradient vs the true DP gradient: minimum cosine.
    /// The affine surrogate reproduces the Laplace control-to-flux map to
    /// rounding, so its gradient must point where DP's does.
    pub surrogate_vs_dp_cos: f64,
    /// Frozen-surrogate gradient vs DP: relative error. The fit's flux
    /// error is rounding-level, so this is held as tightly as DP vs FD.
    pub surrogate_vs_dp_rel: f64,
}

impl Default for ToleranceLadder {
    fn default() -> Self {
        ToleranceLadder {
            dp_vs_fd: 1e-6,
            adjoint_vs_fd: 1e-4,
            dal_vs_dp_cos: 0.9,
            dal_vs_dp_rel: 0.6,
            ns_dal_vs_dp_cos: 0.35,
            hvp_vs_fd: 1e-6,
            hvp_symmetry: 1e-9,
            surrogate_vs_dp_cos: 0.99,
            surrogate_vs_dp_rel: 1e-6,
        }
    }
}

/// Outcome of the Hessian-vector-product correctness ladder at one
/// `(c, v)` probe: the exact HVP against central FD of the
/// tape gradient, plus the bilinear symmetry identity.
#[derive(Debug, Clone)]
pub struct HvpReport {
    /// Component-wise HVP-vs-FD comparison (pair `"hvp-vs-fd"`), with the
    /// worst component already located for diagnostics.
    pub hvp_vs_fd: GradReport,
    /// Relative symmetry defect `|v·H(w) − w·H(v)| / (1 + |v·H(w)|)` from
    /// a second, independent seed direction.
    pub symmetry_gap: f64,
}

impl HvpReport {
    /// Asserts both rungs of the HVP ladder and emits the comparison on
    /// the `"gradcheck"` trace layer (the symmetry defect rides in the
    /// worst-component slot of a dedicated `"hvp-symmetry"` event).
    pub fn assert_ladder(&self, ladder: &ToleranceLadder) {
        self.hvp_vs_fd.assert_rel(ladder.hvp_vs_fd);
        trace::solve_event(
            "gradcheck",
            "hvp-symmetry",
            0,
            self.symmetry_gap,
            1.0,
            self.symmetry_gap,
        );
        assert!(
            self.symmetry_gap <= ladder.hvp_symmetry,
            "{}/hvp-symmetry: v·H(w) vs w·H(v) defect {:.3e} > tol {:.1e}",
            self.hvp_vs_fd.problem,
            self.symmetry_gap,
            ladder.hvp_symmetry
        );
    }
}

/// Runs the HVP correctness ladder on the dense Laplace problem at control
/// `c` along direction `v`:
///
/// 1. the exact HVP must match central FD of the *tape*
///    gradient to [`ToleranceLadder::hvp_vs_fd`] (the objective is
///    quadratic in `c`, so FD-of-gradient is exact up to rounding);
/// 2. the bilinear form must be symmetric: `v·H(w) == w·H(v)` for an
///    independent direction `w` (deterministically derived from `v`).
pub fn check_laplace_hvp(
    p: &LaplaceControlProblem,
    c: &DVec,
    v: &DVec,
    ladder: &ToleranceLadder,
) -> HvpReport {
    let n = c.len();
    let hv = p.hvp(v).expect("exact HVP");

    // Rung 1: central FD of the DP gradient along v. The step is larger
    // than the first-order checks use: FD-of-gradient truncation is O(h²)
    // on the third derivative (zero here — the objective is quadratic),
    // while the cancellation error grows as 1/h, so a mid-sized step is
    // strictly more accurate.
    let h = 1e-4 / (1.0 + v.norm_inf()).max(1.0);
    let mut cp = c.clone();
    cp.axpy(h, v);
    let mut cm = c.clone();
    cm.axpy(-h, v);
    let (_, gp) = p.cost_and_grad_dp(&cp).expect("DP gradient at c + hv");
    let (_, gm) = p.cost_and_grad_dp(&cm).expect("DP gradient at c - hv");
    let fd: Vec<f64> = (0..n).map(|i| (gp[i] - gm[i]) / (2.0 * h)).collect();
    let hvp_vs_fd = GradReport::compare("laplace", "hvp-vs-fd", hv.as_slice(), &fd);

    // Rung 2: symmetry against an independent probe direction.
    let w = DVec::from_fn(n, |i| (0.7 * (i as f64) + 0.3).cos() + v[n - 1 - i]);
    let hw = p.hvp(&w).expect("HVP along w");
    let vhw = v.dot(&hw);
    let whv = w.dot(&hv);
    let symmetry_gap = (vhw - whv).abs() / (1.0 + vhw.abs());

    let report = HvpReport {
        hvp_vs_fd,
        symmetry_gap,
    };
    report.assert_ladder(ladder);
    report
}

/// Central FD gradient of an arbitrary fallible cost — the reference
/// every strategy is held against (reuses the step-scaling convention of
/// [`autodiff::gradcheck::fd_gradient`] through a shared closure).
pub fn fd_gradient_of<E>(
    mut cost: impl FnMut(&DVec) -> Result<f64, E>,
    c: &DVec,
    h: f64,
) -> Result<DVec, E> {
    let mut g = DVec::zeros(c.len());
    let mut cp = c.clone();
    for i in 0..c.len() {
        let orig = cp[i];
        cp[i] = orig + h;
        let jp = cost(&cp)?;
        cp[i] = orig - h;
        let jm = cost(&cp)?;
        cp[i] = orig;
        g[i] = (jp - jm) / (2.0 * h);
    }
    Ok(g)
}

/// Checks all three gradient strategies of the dense Laplace control
/// problem against each other at control `c`. Returns the reports (already
/// asserted against the ladder).
pub fn check_laplace_dense(
    p: &LaplaceControlProblem,
    c: &DVec,
    ladder: &ToleranceLadder,
) -> Vec<GradReport> {
    let (j_dp, g_dp) = p.cost_and_grad_dp(c).expect("DP gradient");
    let (j_fd, g_fd) = p.cost_and_grad_fd(c, 1e-6).expect("FD gradient");
    let (j_dal, g_dal) = p.cost_and_grad_dal(c).expect("DAL gradient");
    assert!(
        (j_dp - j_fd).abs() <= 1e-12 * (1.0 + j_fd.abs()),
        "laplace: DP cost {j_dp:.6e} differs from plain cost {j_fd:.6e}"
    );
    assert!(
        (j_dal - j_fd).abs() <= 1e-12 * (1.0 + j_fd.abs()),
        "laplace: DAL cost {j_dal:.6e} differs from plain cost {j_fd:.6e}"
    );

    let dp_fd = GradReport::compare("laplace", "dp-vs-fd", g_dp.as_slice(), g_fd.as_slice());
    dp_fd.assert_rel(ladder.dp_vs_fd);

    // DAL returns the L² function-space gradient g(x); the discrete DP
    // gradient is ≈ wᵢ·g(xᵢ). Compare on the mid-wall window, away from
    // the boundary Runge zone, after quadrature weighting.
    let w = p.quad_weights();
    let n = p.n_controls();
    let window = n / 4..3 * n / 4;
    let dal_w: Vec<f64> = window.clone().map(|i| w[i] * g_dal[i]).collect();
    let dp_w: Vec<f64> = window.map(|i| g_dp[i]).collect();
    let dal_dp = GradReport::compare("laplace", "dal-vs-dp", &dal_w, &dp_w);
    dal_dp.assert_aligned(ladder.dal_vs_dp_cos, ladder.dal_vs_dp_rel);

    vec![dp_fd, dal_dp]
}

/// Runs the frozen-surrogate gradient ladder at control `c`:
///
/// 1. the surrogate's closed-form gradient must match central FD *of the
///    surrogate's own cost* as tightly as DP matches FD of the solver —
///    this isolates the differentiation from the fit quality;
/// 2. the surrogate cost must equal the solver cost to 1e-8 relative and
///    its gradient must match the true DP gradient
///    ([`ToleranceLadder::surrogate_vs_dp_cos`] /
///    [`ToleranceLadder::surrogate_vs_dp_rel`]) — the rung that makes
///    "optimize through the frozen surrogate, then audit with one real
///    solve" a sound strategy rather than a hope.
pub fn check_laplace_neural_op(
    p: &LaplaceControlProblem,
    surrogate: &LaplaceSurrogate,
    c: &DVec,
    ladder: &ToleranceLadder,
) -> Vec<GradReport> {
    // Rung 1: internal consistency of the closed-form gradient.
    let (j_hat, g_hat) = surrogate.cost_and_grad(c);
    let g_self_fd =
        fd_gradient_of::<std::convert::Infallible>(|cc| Ok(surrogate.cost(cc)), c, 1e-6)
            .expect("surrogate FD gradient");
    let self_fd = GradReport::compare(
        "laplace-neural-op",
        "surrogate-grad-vs-fd",
        g_hat.as_slice(),
        g_self_fd.as_slice(),
    );
    self_fd.assert_rel(ladder.dp_vs_fd);

    // Rung 2: the surrogate descends the true objective.
    let (j_dp, g_dp) = p.cost_and_grad_dp(c).expect("DP gradient");
    assert!(
        (j_hat - j_dp).abs() <= 1e-8 * (1.0 + j_dp.abs()),
        "laplace-neural-op: surrogate cost {j_hat:.6e} far from true cost {j_dp:.6e}"
    );
    let cross = GradReport::compare(
        "laplace-neural-op",
        "surrogate-vs-dp",
        g_hat.as_slice(),
        g_dp.as_slice(),
    );
    cross.assert_aligned(ladder.surrogate_vs_dp_cos, ladder.surrogate_vs_dp_rel);

    vec![self_fd, cross]
}

/// Checks the sparse RBF-FD Laplace build (`LaplaceControlProblem::new_sparse`)
/// against FD: its DP gradient is the discrete adjoint of the sparse
/// operator, one transpose solve on the cached factor.
pub fn check_laplace_sparse(
    p: &LaplaceControlProblem,
    c: &DVec,
    ladder: &ToleranceLadder,
) -> Vec<GradReport> {
    let (_, g_adj) = p.cost_and_grad_dp(c).expect("sparse DP gradient");
    let g_fd = fd_gradient_of(|cc| p.cost(cc), c, 1e-6).expect("FD gradient");
    let r = GradReport::compare(
        "laplace-sparse",
        "adjoint-vs-fd",
        g_adj.as_slice(),
        g_fd.as_slice(),
    );
    r.assert_rel(ladder.adjoint_vs_fd);
    vec![r]
}

/// Checks the heat-control DP-through-time gradient against FD.
pub fn check_heat(p: &HeatControlProblem, c: &DVec, ladder: &ToleranceLadder) -> Vec<GradReport> {
    let (j_dp, g_dp, _) = p.cost_and_grad_dp(c).expect("heat DP gradient");
    let (j_fd, g_fd) = p.cost_and_grad_fd(c, 1e-6).expect("heat FD gradient");
    assert!(
        (j_dp - j_fd).abs() <= 1e-12 * (1.0 + j_fd.abs()),
        "heat: DP cost {j_dp:.6e} differs from plain cost {j_fd:.6e}"
    );
    // The march amplifies FD cancellation slightly; one order looser than
    // the single-solve rung.
    let r = GradReport::compare("heat", "dp-vs-fd", g_dp.as_slice(), g_fd.as_slice());
    r.assert_rel(10.0 * ladder.dp_vs_fd);
    vec![r]
}

/// Checks the Navier–Stokes DP tape against FD (cold starts, `k`
/// refinements each) and the DAL adjoint against DP for directional
/// agreement at control `c`.
pub fn check_ns(
    solver: &NsSolver,
    c: &DVec,
    k: usize,
    ladder: &ToleranceLadder,
) -> Vec<GradReport> {
    let dp = NsDp::new(solver);
    let dal = NsAdjoint::new(solver);
    let (j_dp, g_dp, _) = dp.cost_and_grad(c, k, None).expect("NS DP gradient");
    let (j_fd, g_fd) = dp.cost_and_grad_fd(c, k, 1e-6).expect("NS FD gradient");
    assert!(
        (j_dp - j_fd).abs() <= 1e-10 * (1.0 + j_fd.abs()),
        "ns: DP cost {j_dp:.6e} differs from plain cost {j_fd:.6e}"
    );
    let dp_fd = GradReport::compare("ns", "dp-vs-fd", g_dp.as_slice(), g_fd.as_slice());
    // The taped solve and the FD baseline share the discrete map, but each
    // FD probe re-runs the Picard iteration from a cold start; agreement
    // is FD-truncation-limited, one rung looser than the linear problem.
    dp_fd.assert_rel(100.0 * ladder.dp_vs_fd);

    let (_, g_dal, _) = dal.cost_and_grad(c, k, None).expect("NS DAL gradient");
    let dal_dp = GradReport::compare("ns", "dal-vs-dp", g_dal.as_slice(), g_dp.as_slice());
    dal_dp.emit_trace();
    assert!(
        dal_dp.cosine >= ladder.ns_dal_vs_dp_cos,
        "ns/dal-vs-dp: gradients misaligned, cos = {:.3} < {:.2}",
        dal_dp.cosine,
        ladder.ns_dal_vs_dp_cos
    );
    vec![dp_fd, dal_dp]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_reports_the_worst_component() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 3.1];
        let r = GradReport::compare("unit", "a-vs-b", &a, &b);
        assert_eq!(r.worst_index, 1);
        assert!((r.worst_abs_diff - 0.5).abs() < 1e-15);
        assert!(r.cosine > 0.99);
    }

    #[test]
    fn identical_gradients_have_zero_error_and_unit_cosine() {
        let g = [0.3, -0.7, 0.0, 2.0];
        let r = GradReport::compare("unit", "self", &g, &g);
        assert_eq!(r.rel_err, 0.0);
        assert!((r.cosine - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rel error")]
    fn assert_rel_panics_with_component_diagnostics() {
        let r = GradReport::compare("unit", "bad", &[1.0, 5.0], &[1.0, 1.0]);
        r.assert_rel(1e-6);
    }

    #[test]
    fn fd_gradient_of_matches_the_analytic_gradient() {
        let c = DVec(vec![0.4, -0.2]);
        let g = fd_gradient_of::<()>(|x| Ok(x[0] * x[0] + 3.0 * x[0] * x[1]), &c, 1e-6).unwrap();
        assert!((g[0] - (2.0 * 0.4 - 0.6)).abs() < 1e-8);
        assert!((g[1] - 3.0 * 0.4).abs() < 1e-8);
    }
}
