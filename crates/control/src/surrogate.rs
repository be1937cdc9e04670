//! The NeuralOp train/freeze/optimize lifecycle: an exact affine surrogate
//! of the Laplace control-to-flux map, optimized without touching the
//! solver.
//!
//! The paper's DP strategy differentiates *through the solver*; the
//! NeuralOp strategy instead amortizes the solver into an operator trained
//! once per problem family (Lundqvist & Oliveira 2025, Hwang et al. 2021):
//!
//! 1. **train** — harvest (control, flux) pairs from one batched forward
//!    solve ([`training_set`]: structured probes + seeded random draws +
//!    controls reconstructed from campaign-ledger seeds) and fit
//!    `flux(c) = f₀ + S c` by one least-squares solve. The Laplace
//!    control-to-flux map is affine, so this is a POD-DeepONet with a
//!    linear branch and every mode kept (Lu et al. 2022): exact up to
//!    rounding, with no training loop;
//! 2. **freeze** — the fitted `(f₀, S)` and the cost head are immutable;
//! 3. **optimize** — expose the exact discrete cost
//!    `J(c) = Σ wᵢ (flux̂ᵢ(c) − cos πxᵢ)²` over the *predicted* flux as a
//!    [`ControlObjective`], with the closed-form gradient
//!    `2 Sᵀ W (f₀ + S c − t)` ([`LaplaceSurrogate::cost_and_grad`]).
//!
//! Accuracy is externally gated (meshfree-check): the surrogate gradient
//! must match the DP gradient, and every NeuralOp run ends with a DP
//! **audit** re-solve of the surrogate's final control — the audited cost
//! is what enters reports and ledgers.

use crate::api::{ControlError, ControlObjective};
use linalg::blocking::dot8;
use linalg::{DMat, DVec, Qr};
use meshfree_runtime::Rng64;
use pde::laplace::LaplaceControlProblem;

/// Dataset source of a NeuralOp surrogate. Part of a `RunSpec`
/// (`RunSpec::validate` checks it); two specs with equal fingerprints
/// share one trained surrogate per built problem.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateSpec {
    /// Number of seeded random training controls (on top of the structured
    /// probes: the zero control and one scaled basis vector per control
    /// node).
    pub n_samples: usize,
    /// Uniform sampling amplitude: random controls are drawn from
    /// `[-amplitude, amplitude]^n`, and the basis probes have this height.
    pub sample_amplitude: f64,
    /// Extra dataset seeds harvested from campaign ledgers (one training
    /// control is reconstructed per seed; see `driver::dataset`).
    pub extra_seeds: Vec<u64>,
}

impl Default for SurrogateSpec {
    fn default() -> Self {
        SurrogateSpec {
            n_samples: 48,
            sample_amplitude: 2.0,
            extra_seeds: Vec::new(),
        }
    }
}

impl SurrogateSpec {
    /// Deterministic identity of the trained artifact: every field that
    /// influences the fit, plus the training seed. Surrogate caches key on
    /// this, so two runs share a surrogate exactly when retraining would
    /// reproduce it bitwise — the cache can never change a result, no
    /// matter the execution order.
    pub fn fingerprint(&self, seed: u64) -> String {
        let seeds = self
            .extra_seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "ns{}-amp{:e}-xs[{}]-seed{}",
            self.n_samples, self.sample_amplitude, seeds, seed
        )
    }

    /// Spec-level sanity (called from `RunSpec::validate`).
    pub fn validate(&self) -> Result<(), ControlError> {
        if !(self.sample_amplitude.is_finite() && self.sample_amplitude > 0.0) {
            return Err(ControlError::BadConfig(format!(
                "surrogate sample_amplitude must be finite and positive, got {}",
                self.sample_amplitude
            )));
        }
        Ok(())
    }
}

/// One deterministic training control: `n` uniform draws from
/// `[-amplitude, amplitude]` seeded by `seed`. Campaign-ledger harvesting
/// reconstructs dataset controls through this exact function (the ledger
/// stores seeds, not vectors), so a harvested pair is reproducible from
/// the record alone.
pub fn sample_control(n: usize, amplitude: f64, seed: u64) -> DVec {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut c = vec![0.0; n];
    rng.fill_uniform(&mut c, -amplitude..amplitude);
    DVec(c)
}

/// One (control, flux, cost) training triple from a real forward solve.
#[derive(Debug, Clone)]
pub struct TrainingPair {
    /// Boundary control.
    pub control: DVec,
    /// Top-wall flux profile `∂u/∂y` at the control nodes.
    pub flux: DVec,
    /// Discrete cost `J(control)` (same quadrature as the optimizers use).
    pub cost: f64,
}

/// The controls a surrogate trains on: structured probes (zero control and
/// one scaled basis vector per control node — they make `[C 1]` full rank
/// and pin the affine control-to-flux structure), `n_samples` seeded random
/// controls, and one reconstructed control per harvested ledger seed.
fn training_controls(n_controls: usize, spec: &SurrogateSpec, seed: u64) -> Vec<DVec> {
    let mut controls = Vec::with_capacity(1 + n_controls + spec.n_samples + spec.extra_seeds.len());
    controls.push(DVec::zeros(n_controls));
    for j in 0..n_controls {
        controls.push(DVec::from_fn(n_controls, |i| {
            if i == j {
                spec.sample_amplitude
            } else {
                0.0
            }
        }));
    }
    let mut rng = Rng64::seed_from_u64(seed);
    for _ in 0..spec.n_samples {
        let mut c = vec![0.0; n_controls];
        rng.fill_uniform(&mut c, -spec.sample_amplitude..spec.sample_amplitude);
        controls.push(DVec(c));
    }
    for &s in &spec.extra_seeds {
        controls.push(sample_control(n_controls, spec.sample_amplitude, s));
    }
    controls
}

/// The dataset a spec implies, forward-solved on `p` in one
/// [`LaplaceControlProblem::flux_top_many`]. Each pair's flux and cost
/// equal a standalone solve and [`LaplaceControlProblem::cost`] bit for
/// bit. Deterministic in `(p, spec, seed)`.
pub fn training_set(
    p: &LaplaceControlProblem,
    spec: &SurrogateSpec,
    seed: u64,
) -> Result<Vec<TrainingPair>, ControlError> {
    spec.validate()?;
    let controls = training_controls(p.n_controls(), spec, seed);
    let fluxes = p.flux_top_many(&controls)?;
    Ok(controls
        .into_iter()
        .zip(fluxes)
        .map(|(control, flux)| TrainingPair {
            cost: p.flux_cost(&flux),
            control,
            flux,
        })
        .collect())
}

/// A trained, frozen Laplace flux surrogate `flux̂(c) = f₀ + S c` with the
/// exact discrete cost head on top. Immutable after training; evaluating
/// and differentiating it costs two `n × n` matvecs.
#[derive(Debug, Clone)]
pub struct LaplaceSurrogate {
    /// Predicted flux at the zero control.
    f0: DVec,
    /// Control-to-flux sensitivity `∂flux/∂c`, one row per flux node.
    s: DMat,
    weights: DVec,
    target: DVec,
    n_pairs: usize,
}

impl LaplaceSurrogate {
    /// Fits the affine map to the [`training_set`] of `p`: one QR of
    /// `A = [C 1]` (a row per training control) solved for every flux node,
    /// so row `k` of `[S f₀]` minimizes `‖A θ − F[:, k]‖`. The dataset holds
    /// the zero control and every scaled unit direction, so `A` always has
    /// full column rank. Deterministic in `(p, spec, seed)`.
    pub fn train(
        p: &LaplaceControlProblem,
        spec: &SurrogateSpec,
        seed: u64,
    ) -> Result<LaplaceSurrogate, ControlError> {
        let pairs = training_set(p, spec, seed)?;
        let n = p.n_controls();
        let m = pairs.len();
        // [C 1]: row i is control i followed by a one.
        let a = DMat::from_fn(m, n + 1, |i, j| {
            pairs[i].control.get(j).copied().unwrap_or(1.0)
        });
        let qr = Qr::factor(&a)?;
        let n_flux = pairs[0].flux.len();
        let mut s = DMat::zeros(n_flux, n);
        let mut f0 = DVec::zeros(n_flux);
        for k in 0..n_flux {
            let theta = qr.solve_least_squares(&DVec::from_fn(m, |i| pairs[i].flux[k]))?;
            s.row_mut(k).copy_from_slice(&theta.as_slice()[..n]);
            f0[k] = theta[n];
        }
        if s.has_non_finite() || f0.has_non_finite() {
            return Err(ControlError::Diverged {
                iteration: 0,
                cost: f64::NAN,
            });
        }
        Ok(LaplaceSurrogate {
            f0,
            s,
            weights: p.quad_weights().clone(),
            target: p.flux_target(),
            n_pairs: m,
        })
    }

    /// Control dimension.
    pub fn n_controls(&self) -> usize {
        self.s.ncols()
    }

    /// Predicted top-wall flux profile `f₀ + S c` for a control.
    pub fn predict_flux(&self, c: &DVec) -> DVec {
        assert_eq!(c.len(), self.n_controls(), "predict_flux: control length");
        DVec::from_fn(self.f0.len(), |k| {
            self.f0[k] + dot8(self.s.row(k), c.as_slice())
        })
    }

    /// Surrogate cost `Ĵ(c) = Σ wᵢ (flux̂ᵢ − cos πxᵢ)²` — the exact
    /// discrete cost head over the predicted flux, so `Ĵ` and the solver
    /// cost differ only by the fit's flux error.
    pub fn cost(&self, c: &DVec) -> f64 {
        self.cost_and_residual(c).0
    }

    /// Cost and the closed-form `dĴ/dc = 2 Sᵀ W (f₀ + S c − t)` — the
    /// amortized replacement for the DP tape's solve node.
    pub fn cost_and_grad(&self, c: &DVec) -> (f64, DVec) {
        let (j, r) = self.cost_and_residual(c);
        let mut g = DVec::zeros(c.len());
        for (k, &rk) in r.iter().enumerate() {
            let wk = 2.0 * self.weights[k] * rk;
            for (gi, &ski) in g.iter_mut().zip(self.s.row(k)) {
                *gi += wk * ski;
            }
        }
        (j, g)
    }

    /// `(Ĵ(c), flux̂(c) − t)`.
    fn cost_and_residual(&self, c: &DVec) -> (f64, DVec) {
        let mut r = self.predict_flux(c);
        let mut j = 0.0;
        for i in 0..r.len() {
            r[i] -= self.target[i];
            j += self.weights[i] * r[i] * r[i];
        }
        (j, r)
    }

    /// Number of (control, flux) pairs the surrogate was fitted to.
    pub fn n_training_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Resident bytes of the fitted map plus the cost head.
    pub fn memory_bytes(&self) -> usize {
        (self.s.as_slice().len() + self.f0.len() + self.weights.len() + self.target.len())
            * std::mem::size_of::<f64>()
    }
}

/// [`ControlObjective`] over a frozen surrogate: drives the stock
/// optimizer loop (`optimize_ctx`) without touching the solver. The
/// default finite-difference [`ControlObjective::hvp`] of the closed-form
/// gradient serves the second-order optimizers.
pub struct SurrogateObjective<'a> {
    surrogate: &'a LaplaceSurrogate,
}

impl<'a> SurrogateObjective<'a> {
    /// Wraps a trained surrogate.
    pub fn new(surrogate: &'a LaplaceSurrogate) -> Self {
        SurrogateObjective { surrogate }
    }
}

impl ControlObjective for SurrogateObjective<'_> {
    fn n_controls(&self) -> usize {
        self.surrogate.n_controls()
    }
    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        Ok(self.surrogate.cost(c))
    }
    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        Ok(self.surrogate.cost_and_grad(c))
    }
    fn name(&self) -> &str {
        "neural-op"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> LaplaceControlProblem {
        LaplaceControlProblem::new(10).unwrap()
    }

    #[test]
    fn surrogate_cost_matches_solver_cost_on_training_region() {
        let p = problem();
        let spec = SurrogateSpec::default();
        let s = LaplaceSurrogate::train(&p, &spec, 7).unwrap();
        // Probe controls inside the sampling region.
        for seed in [1u64, 2, 3] {
            let c = sample_control(p.n_controls(), 1.0, seed);
            let j_true = p.cost(&c).unwrap();
            let j_surr = s.cost(&c);
            assert!(
                (j_true - j_surr).abs() < 1e-8 * (1.0 + j_true),
                "seed {seed}: J={j_true:.4e} vs Ĵ={j_surr:.4e}"
            );
        }
    }

    #[test]
    fn surrogate_reproduces_solver_flux_at_every_training_control() {
        for p in [problem(), LaplaceControlProblem::new_sparse(10).unwrap()] {
            let spec = SurrogateSpec::default();
            let pairs = training_set(&p, &spec, 4).unwrap();
            let s = LaplaceSurrogate::train(&p, &spec, 4).unwrap();
            assert_eq!(s.n_training_pairs(), pairs.len());
            for (k, pair) in pairs.iter().enumerate() {
                assert_eq!(
                    pair.cost.to_bits(),
                    p.cost(&pair.control).unwrap().to_bits()
                );
                let pred = s.predict_flux(&pair.control);
                let rel = (&pred - &pair.flux).norm2() / pair.flux.norm2();
                assert!(
                    rel <= 1e-8,
                    "{:?} pair {k}: relative flux error {rel:.3e}",
                    p.backend_kind()
                );
            }
        }
    }

    #[test]
    fn surrogate_gradient_matches_fd_of_surrogate_cost() {
        let p = problem();
        let s = LaplaceSurrogate::train(&p, &SurrogateSpec::default(), 3).unwrap();
        let c = sample_control(p.n_controls(), 0.8, 11);
        let (j, g) = s.cost_and_grad(&c);
        assert_eq!(j.to_bits(), s.cost(&c).to_bits());
        let h = 1e-6;
        for i in 0..c.len() {
            let mut cp = c.clone();
            cp[i] += h;
            let mut cm = c.clone();
            cm[i] -= h;
            let fd = (s.cost(&cp) - s.cost(&cm)) / (2.0 * h);
            assert!(
                (g[i] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "component {i}: closed form {:.6e} vs fd {fd:.6e}",
                g[i]
            );
        }
    }

    #[test]
    fn training_is_deterministic_in_the_fingerprint() {
        let p = problem();
        let spec = SurrogateSpec {
            n_samples: 12,
            ..SurrogateSpec::default()
        };
        let a = LaplaceSurrogate::train(&p, &spec, 5).unwrap();
        let b = LaplaceSurrogate::train(&p, &spec, 5).unwrap();
        let c = sample_control(p.n_controls(), 1.0, 9);
        assert_eq!(a.cost(&c).to_bits(), b.cost(&c).to_bits());
        assert_eq!(spec.fingerprint(5), spec.fingerprint(5));
        assert_ne!(spec.fingerprint(5), spec.fingerprint(6));
        assert_ne!(spec.fingerprint(5), SurrogateSpec::default().fingerprint(5));
    }

    #[test]
    fn bad_surrogate_specs_are_rejected() {
        for amplitude in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = SurrogateSpec {
                sample_amplitude: amplitude,
                ..SurrogateSpec::default()
            };
            assert!(bad.validate().is_err(), "amplitude {amplitude}");
            assert!(training_set(&problem(), &bad, 0).is_err());
        }
        assert!(SurrogateSpec::default().validate().is_ok());
    }

    #[test]
    fn ledger_seeds_extend_the_dataset() {
        let spec = SurrogateSpec {
            extra_seeds: vec![100, 200],
            ..SurrogateSpec::default()
        };
        let base = training_controls(6, &SurrogateSpec::default(), 1);
        let extended = training_controls(6, &spec, 1);
        assert_eq!(extended.len(), base.len() + 2);
        // The reconstructed controls are exactly sample_control draws.
        let want = sample_control(6, spec.sample_amplitude, 200);
        let got = &extended[extended.len() - 1];
        for i in 0..6 {
            assert_eq!(got[i].to_bits(), want[i].to_bits());
        }
    }
}
