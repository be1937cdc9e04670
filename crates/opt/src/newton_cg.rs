//! Trust-region Newton: conjugate gradients on an explicit reduced
//! Hessian (Steihaug–Toint).
//!
//! Each outer step first asks the oracle for the `n` Hessian columns
//! ([`CurvatureOracle::hessian`], which a Laplace DAL oracle answers with
//! one batched solve pass and every other oracle with `n` exact
//! Hessian-vector products), then solves the Newton system `H p = −g`
//! approximately with CG against that dense matrix, using a fixed-order
//! axpy matvec. A step costs exactly `n` curvature probes however many CG
//! iterations or rejected trials it takes, so the method suits the small
//! boundary controls of the Laplace problems; on large controls
//! [`crate::Lbfgs`] spends no probes at all.
//!
//! Three safeguards keep the step robust on imperfect curvature:
//!
//! 1. **Negative curvature** truncates CG at the trust-region boundary
//!    along the offending direction (Steihaug).
//! 2. **Trust region**: a candidate step is accepted only if the oracle
//!    confirms the cost does not increase; rejected steps shrink onto a
//!    smaller radius (deterministic quartering) before retrying.
//! 3. **Gradient fallback**: if a curvature probe fails, CG makes no
//!    progress, or every shrink is rejected, the step degrades to the
//!    plain lr-scaled gradient step — the optimizer never stalls or
//!    diverges.
//!
//! All inner products are fixed-order scalar loops, so a Newton-CG run is
//! bitwise reproducible regardless of thread-pool width. Each step records
//! its [`StepStats`] as trace counters (`newton_hessian_probes`,
//! `newton_cg_iters`, `newton_tr_rejects`, `newton_fallback`).

use crate::{CurvatureOracle, Optimizer};
use linalg::DVec;
use meshfree_runtime::trace;

/// What one [`NewtonCg`] step spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Hessian columns the oracle returned: `n`, or 0 when a probe
    /// failed and the step fell back.
    pub probes: usize,
    /// CG iterations over every trust-region attempt.
    pub cg_iters: usize,
    /// Trial steps the trust region rejected.
    pub rejects: usize,
    /// Whether the step degraded to the lr-scaled gradient step.
    pub fallback: bool,
}

impl StepStats {
    fn emit(&self) {
        trace::counter("newton_hessian_probes", self.probes as f64);
        trace::counter("newton_cg_iters", self.cg_iters as f64);
        trace::counter("newton_tr_rejects", self.rejects as f64);
        trace::counter("newton_fallback", f64::from(u8::from(self.fallback)));
    }
}

/// Trust-region Newton-CG on the explicit reduced Hessian.
#[derive(Debug, Clone)]
pub struct NewtonCg {
    lr: f64,
    cg_tol: f64,
    cg_max: usize,
    radius: f64,
    max_rejects: usize,
    t: usize,
    last: StepStats,
    fallback_steps: usize,
}

impl NewtonCg {
    /// Creates Newton-CG; `lr` scales the gradient-descent fallback step.
    pub fn new(lr: f64) -> NewtonCg {
        NewtonCg {
            lr,
            cg_tol: 1e-10,
            cg_max: 250,
            radius: 1e3,
            max_rejects: 8,
            t: 0,
            last: StepStats::default(),
            fallback_steps: 0,
        }
    }

    /// Overrides the relative CG residual tolerance (default `1e-10`).
    pub fn with_cg_tol(mut self, tol: f64) -> NewtonCg {
        self.cg_tol = tol;
        self
    }

    /// Overrides the CG iteration cap (default 250).
    pub fn with_cg_max(mut self, cg_max: usize) -> NewtonCg {
        self.cg_max = cg_max;
        self
    }

    /// Overrides the initial trust radius (default `1e3` — effectively
    /// inactive until a step is rejected).
    pub fn with_radius(mut self, radius: f64) -> NewtonCg {
        self.radius = radius;
        self
    }

    /// What the most recent step spent.
    pub fn last_step(&self) -> StepStats {
        self.last
    }

    /// How many steps so far degraded to the gradient fallback.
    pub fn fallback_steps(&self) -> usize {
        self.fallback_steps
    }

    /// Steihaug-CG on `H p = −g`, capped at trust radius `delta`, with
    /// `H` given by its columns.
    fn steihaug_cg(&mut self, grad: &DVec, delta: f64, hessian: &[DVec]) -> DVec {
        let n = grad.len();
        let mut p = DVec::zeros(n);
        let mut r = grad.clone(); // residual of Hp + g; r = g at p = 0
        let mut d = grad.scaled(-1.0);
        let g_norm2 = grad.dot(grad);
        if g_norm2 == 0.0 {
            return p;
        }
        let stop2 = (self.cg_tol * self.cg_tol) * g_norm2;
        let mut r2 = g_norm2;
        for _ in 0..self.cg_max {
            let hd = hess_matvec(hessian, &d);
            self.last.cg_iters += 1;
            let dhd = d.dot(&hd);
            if dhd <= 0.0 {
                // Negative curvature: march to the trust boundary along d.
                let tau = boundary_tau(&p, &d, delta);
                p.axpy(tau, &d);
                return p;
            }
            let alpha = r2 / dhd;
            let mut p_next = p.clone();
            p_next.axpy(alpha, &d);
            if p_next.norm2() > delta {
                let tau = boundary_tau(&p, &d, delta);
                p.axpy(tau, &d);
                return p;
            }
            p = p_next;
            r.axpy(alpha, &hd);
            let r2_next = r.dot(&r);
            if r2_next <= stop2 {
                return p;
            }
            let beta = r2_next / r2;
            r2 = r2_next;
            for i in 0..n {
                d[i] = -r[i] + beta * d[i];
            }
        }
        p
    }

    /// The trust-region loop of one step (gradient known to be nonzero).
    /// `H` is probed once, so CG iterations and rejected trials cost no
    /// further curvature queries.
    fn trust_region_step(
        &mut self,
        params: &mut DVec,
        cost: f64,
        grad: &DVec,
        oracle: &mut dyn CurvatureOracle,
    ) {
        let Some(hessian) = oracle.hessian(grad.len()) else {
            return self.fallback(params, grad);
        };
        self.last.probes = hessian.len();
        if hessian.iter().any(DVec::has_non_finite) {
            return self.fallback(params, grad);
        }
        let mut delta = self.radius;
        for _ in 0..=self.max_rejects {
            let p = self.steihaug_cg(grad, delta, &hessian);
            let p_norm = p.norm2();
            if p_norm == 0.0 || p.has_non_finite() {
                break;
            }
            let mut trial = params.clone();
            trial.axpy(1.0, &p);
            match oracle.cost_at(&trial) {
                Some(j) if j.is_finite() && j <= cost => {
                    *params = trial;
                    // A clean acceptance re-opens the trust region.
                    self.radius = (2.0 * p_norm).max(self.radius);
                    return;
                }
                _ => {
                    // Reject: shrink well inside the failed step and retry.
                    self.last.rejects += 1;
                    delta = p_norm * 0.25;
                    self.radius = delta;
                    if delta == 0.0 {
                        break;
                    }
                }
            }
        }
        self.fallback(params, grad);
    }

    /// Trust-region fallback: the lr-scaled gradient step.
    fn fallback(&mut self, params: &mut DVec, grad: &DVec) {
        self.fallback_steps += 1;
        self.last.fallback = true;
        params.axpy(-self.lr, grad);
    }
}

/// `H·d` from the Hessian's columns: `Σⱼ d[j]·H[:, j]` summed in column
/// order.
fn hess_matvec(cols: &[DVec], d: &DVec) -> DVec {
    let mut hd = DVec::zeros(d.len());
    for (j, col) in cols.iter().enumerate() {
        hd.axpy(d[j], col);
    }
    hd
}

/// Positive root `τ` of `‖p + τ·d‖ = delta` (largest feasible move along
/// `d` from inside the trust region).
fn boundary_tau(p: &DVec, d: &DVec, delta: f64) -> f64 {
    let dd = d.dot(d);
    if dd == 0.0 {
        return 0.0;
    }
    let pd = p.dot(d);
    let pp = p.dot(p);
    let disc = (pd * pd + dd * (delta * delta - pp)).max(0.0);
    (-pd + disc.sqrt()) / dd
}

impl Optimizer for NewtonCg {
    fn step(&mut self, params: &mut DVec, grad: &DVec) {
        // Without curvature this is plain gradient descent at the fallback
        // rate — a usable (if slow) degradation.
        self.t += 1;
        params.axpy(-self.lr, grad);
    }

    fn iteration(&self) -> usize {
        self.t
    }

    fn current_lr(&self) -> f64 {
        self.lr
    }

    fn uses_curvature(&self) -> bool {
        true
    }

    fn step_with_curvature(
        &mut self,
        params: &mut DVec,
        cost: f64,
        grad: &DVec,
        oracle: &mut dyn CurvatureOracle,
    ) {
        self.t += 1;
        self.last = StepStats::default();
        if grad.norm_inf() != 0.0 {
            self.trust_region_step(params, cost, grad, oracle);
        }
        self.last.emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense quadratic ½xᵀQx − bᵀx with analytic gradient/HVP oracle.
    struct Quadratic {
        q: Vec<Vec<f64>>,
        b: DVec,
        x: DVec,
        hvp_calls: usize,
        fail_hvp: bool,
        /// Products answered before every later one fails.
        hvp_budget: usize,
        /// Trial costs to refuse before answering honestly.
        reject_trials: usize,
    }

    impl Quadratic {
        fn matvec(&self, v: &DVec) -> DVec {
            DVec::from_fn(v.len(), |i| {
                self.q[i].iter().zip(v.iter()).map(|(a, x)| a * x).sum()
            })
        }
        fn grad(&self) -> DVec {
            let mut g = self.matvec(&self.x);
            g.axpy(-1.0, &self.b);
            g
        }
        fn cost(&self, x: &DVec) -> f64 {
            let qx = DVec::from_fn(x.len(), |i| {
                self.q[i].iter().zip(x.iter()).map(|(a, y)| a * y).sum()
            });
            0.5 * x.dot(&qx) - self.b.dot(x)
        }
    }

    impl CurvatureOracle for Quadratic {
        fn hvp(&mut self, v: &DVec) -> Option<DVec> {
            if self.fail_hvp || self.hvp_calls == self.hvp_budget {
                return None;
            }
            self.hvp_calls += 1;
            Some(self.matvec(v))
        }
        fn cost_at(&mut self, c: &DVec) -> Option<f64> {
            if self.reject_trials > 0 {
                self.reject_trials -= 1;
                return None;
            }
            Some(self.cost(c))
        }
    }

    fn spd_problem() -> Quadratic {
        Quadratic {
            q: vec![
                vec![4.0, 1.0, 0.0],
                vec![1.0, 3.0, 0.5],
                vec![0.0, 0.5, 2.0],
            ],
            b: DVec(vec![1.0, -2.0, 0.5]),
            x: DVec(vec![5.0, -4.0, 3.0]),
            hvp_calls: 0,
            fail_hvp: false,
            hvp_budget: usize::MAX,
            reject_trials: 0,
        }
    }

    #[test]
    fn newton_cg_solves_spd_quadratic_in_one_step() {
        let mut prob = spd_problem();
        let mut opt = NewtonCg::new(1e-2);
        let g = prob.grad();
        let j = prob.cost(&prob.x.clone());
        let mut x = prob.x.clone();
        opt.step_with_curvature(&mut x, j, &g, &mut prob);
        prob.x = x.clone();
        // One exact Newton step lands on the minimiser of a quadratic.
        let g_after = prob.grad();
        assert!(
            g_after.norm_inf() < 1e-8,
            "gradient after one Newton step: {:.3e}",
            g_after.norm_inf()
        );
        assert_eq!(opt.fallback_steps(), 0);
        assert!(
            opt.last_step().cg_iters <= 3,
            "CG finished within n iterations"
        );
    }

    #[test]
    fn explicit_hessian_costs_n_probes_per_step_even_with_rejects() {
        let mut prob = spd_problem();
        prob.reject_trials = 2;
        let mut opt = NewtonCg::new(1e-2);
        let g = prob.grad();
        let j = prob.cost(&prob.x.clone());
        let mut x = prob.x.clone();
        opt.step_with_curvature(&mut x, j, &g, &mut prob);
        let stats = opt.last_step();
        assert_eq!(prob.hvp_calls, 3, "one probe per Hessian column");
        assert_eq!(stats.probes, 3);
        assert_eq!(stats.rejects, 2);
        assert!(stats.cg_iters >= 3, "three CG solves ran on the matrix");
        assert!(!stats.fallback);
        assert!(prob.cost(&x) < j);

        // The next step probes afresh: again exactly n.
        prob.x = x.clone();
        let g = prob.grad();
        let j = prob.cost(&x);
        opt.step_with_curvature(&mut x, j, &g, &mut prob);
        assert_eq!(prob.hvp_calls, 6);
        assert_eq!(opt.last_step().probes, 3);
    }

    #[test]
    fn hvp_failure_falls_back_to_gradient_step() {
        let mut prob = spd_problem();
        prob.fail_hvp = true;
        let lr = 0.05;
        let mut opt = NewtonCg::new(lr);
        let g = prob.grad();
        let j = prob.cost(&prob.x.clone());
        let mut x = prob.x.clone();
        let expected = {
            let mut e = x.clone();
            e.axpy(-lr, &g);
            e
        };
        opt.step_with_curvature(&mut x, j, &g, &mut prob);
        assert_eq!(opt.fallback_steps(), 1);
        for i in 0..x.len() {
            assert_eq!(x[i].to_bits(), expected[i].to_bits(), "exact fallback");
        }
    }

    #[test]
    fn failed_probe_step_reports_a_fallback_without_probes() {
        let mut prob = spd_problem();
        prob.hvp_budget = 1; // the second Hessian column fails
        let lr = 0.05;
        let mut opt = NewtonCg::new(lr);
        let g = prob.grad();
        let j = prob.cost(&prob.x.clone());
        let mut x = prob.x.clone();
        opt.step_with_curvature(&mut x, j, &g, &mut prob);
        assert_eq!(prob.hvp_calls, 1, "probing stops at the failed column");
        assert_eq!(
            opt.last_step(),
            StepStats {
                probes: 0,
                cg_iters: 0,
                rejects: 0,
                fallback: true,
            }
        );
        assert_eq!(opt.fallback_steps(), 1);
        let mut expected = prob.x.clone();
        expected.axpy(-lr, &g);
        assert_eq!(x.as_slice(), expected.as_slice());
    }

    #[test]
    fn zero_gradient_is_a_no_op() {
        let mut prob = spd_problem();
        let mut opt = NewtonCg::new(0.1);
        let mut x = DVec(vec![1.0, 2.0, 3.0]);
        let before = x.clone();
        opt.step_with_curvature(&mut x, 0.0, &DVec::zeros(3), &mut prob);
        assert_eq!(x.as_slice(), before.as_slice());
    }

    #[test]
    fn negative_curvature_is_truncated_not_followed() {
        // Indefinite Q: CG must stop at the trust boundary, and the
        // cost-decrease guard must still hold via the fallback.
        let mut prob = Quadratic {
            q: vec![vec![-2.0, 0.0], vec![0.0, 1.0]],
            b: DVec(vec![0.0, 1.0]),
            x: DVec(vec![0.5, 4.0]),
            hvp_calls: 0,
            fail_hvp: false,
            hvp_budget: usize::MAX,
            reject_trials: 0,
        };
        let mut opt = NewtonCg::new(0.1).with_radius(1.0);
        let g = prob.grad();
        let j = prob.cost(&prob.x.clone());
        let mut x = prob.x.clone();
        opt.step_with_curvature(&mut x, j, &g, &mut prob);
        let j_after = prob.cost(&x);
        assert!(j_after <= j, "cost must not increase: {j_after} vs {j}");
    }

    #[test]
    fn first_order_step_is_plain_gradient_descent() {
        let mut opt = NewtonCg::new(0.1);
        let mut x = DVec(vec![1.0]);
        opt.step(&mut x, &DVec(vec![2.0]));
        assert!((x[0] - 0.8).abs() < 1e-15);
        assert_eq!(opt.iteration(), 1);
        assert!(opt.uses_curvature());
    }
}
