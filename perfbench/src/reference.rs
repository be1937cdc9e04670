//! Closed-form references for the Laplace control problem, derived here
//! independently of the program (which has its own `pde::analytic`).
//!
//! Problem: `∇²u = 0` on the unit square, `u(x,0) = sin πx`,
//! `u(0,y) = u(1,y) = 0`, control `u(x,1) = c(x)`, cost
//! `J(c) = ∫₀¹ (∂u/∂y(x,1) − cos πx)² dx`.
//!
//! For a control with sine series `c = Σ c_k sin kπx` the solution is
//! `u = sin πx·sinh(π(1−y))/sinh π + Σ c_k sin kπx·sinh(kπy)/sinh kπ`, so
//! the top-wall flux is `−π sin πx / sinh π + Σ c_k kπ coth(kπ) sin kπx`.
//! The target `cos πx` has sine coefficients `b_k = 4k/(π(k²−1))` for even
//! `k` and zero otherwise; matching mode by mode gives the minimiser
//! `c*(x) = sin πx / cosh π + Σ_{k even} 4 tanh(kπ) sin kπx / (π²(k²−1))`
//! with `J(c*) = 0`, and at `c = 0`, by orthogonality,
//! `J(0) = ½ + π²/(2 sinh²π)`.

use std::f64::consts::PI;

/// Series terms kept in the minimiser (the tail is below 1e-7).
const SERIES_TERMS: usize = 20_000;

/// `J(0) = ½ + π²/(2 sinh²π)` ≈ 0.537.
pub fn j_zero() -> f64 {
    0.5 + PI * PI / (2.0 * PI.sinh().powi(2))
}

/// Top-wall flux `∂u/∂y(x,1)` of the zero control.
pub fn flux_zero(x: f64) -> f64 {
    -PI * (PI * x).sin() / PI.sinh()
}

/// Sine coefficient `b_k` of the target flux `cos πx` on `(0, 1)`.
pub fn target_sine_coeff(k: usize) -> f64 {
    if k % 2 == 1 {
        0.0
    } else {
        let kf = k as f64;
        4.0 * kf / (PI * (kf * kf - 1.0))
    }
}

/// Sine coefficient `c*_k` of the cost-minimising control.
pub fn minimiser_coeff(k: usize) -> f64 {
    if k == 1 {
        return 1.0 / PI.cosh();
    }
    let kf = k as f64;
    // Flux of mode k is c_k kπ coth(kπ); match it to b_k.
    target_sine_coeff(k) * (kf * PI).tanh() / (kf * PI)
}

/// The minimiser `c*(x)` of the continuous problem.
pub fn minimiser(x: f64) -> f64 {
    (1..=SERIES_TERMS)
        .map(|k| minimiser_coeff(k) * (k as f64 * PI * x).sin())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harmonic state `u(x, y)` for a control given by its first sine
    /// coefficients `coeffs[k-1] = c_k` (used by the tests to differentiate
    /// the state numerically, independent of the flux formula).
    pub fn state(coeffs: &[f64], x: f64, y: f64) -> f64 {
        let mut u = (PI * x).sin() * (PI * (1.0 - y)).sinh() / PI.sinh();
        for (i, &ck) in coeffs.iter().enumerate() {
            let kp = (i + 1) as f64 * PI;
            // sinh(kπy)/sinh(kπ) without overflow for large k.
            let ratio =
                (-kp * (1.0 - y)).exp() * (1.0 - (-2.0 * kp * y).exp()) / (1.0 - (-2.0 * kp).exp());
            u += ck * (kp * x).sin() * ratio;
        }
        u
    }

    /// Top-wall flux from the termwise derivative of [`state`].
    pub fn flux(coeffs: &[f64], x: f64) -> f64 {
        let mut f = flux_zero(x);
        for (i, &ck) in coeffs.iter().enumerate() {
            let kp = (i + 1) as f64 * PI;
            f += ck * kp / kp.tanh() * (kp * x).sin();
        }
        f
    }

    /// Composite Simpson rule on `[0, 1]` with `n` (even) panels.
    fn simpson(n: usize, f: impl Fn(f64) -> f64) -> f64 {
        let h = 1.0 / n as f64;
        let mut s = f(0.0) + f(1.0);
        for i in 1..n {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            s += w * f(i as f64 * h);
        }
        s * h / 3.0
    }

    /// Centred derivative in `y` at the top wall, from the state itself.
    fn numeric_flux(coeffs: &[f64], x: f64) -> f64 {
        // One-sided fourth-order stencil at y = 1.
        let h = 1e-4;
        let u = |y: f64| state(coeffs, x, y);
        (25.0 * u(1.0) - 48.0 * u(1.0 - h) + 36.0 * u(1.0 - 2.0 * h) - 16.0 * u(1.0 - 3.0 * h)
            + 3.0 * u(1.0 - 4.0 * h))
            / (12.0 * h)
    }

    #[test]
    fn j_zero_matches_quadrature_of_the_separable_solution() {
        let q = simpson(2000, |x| {
            let d = numeric_flux(&[], x) - (PI * x).cos();
            d * d
        });
        assert!(
            (q - j_zero()).abs() < 1e-8,
            "quadrature {q} vs {}",
            j_zero()
        );
        assert!((j_zero() - 0.537_00).abs() < 5e-6);
    }

    #[test]
    fn target_sine_coefficients_match_quadrature() {
        for k in 1..12 {
            let q = 2.0 * simpson(4000, |x| (PI * x).cos() * (k as f64 * PI * x).sin());
            assert!((q - target_sine_coeff(k)).abs() < 1e-10, "k={k}: {q}");
        }
    }

    #[test]
    fn flux_formula_matches_numerical_differentiation() {
        let coeffs = [0.3, -0.2, 0.1, 0.05];
        for i in 1..10 {
            let x = i as f64 / 10.0;
            let (a, b) = (flux(&coeffs, x), numeric_flux(&coeffs, x));
            assert!((a - b).abs() < 1e-6, "x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn minimiser_drives_the_cost_to_zero() {
        let coeffs: Vec<f64> = (1..=40).map(minimiser_coeff).collect();
        // Its sine coefficients reproduce the minimiser's point values.
        for i in 1..10 {
            let x = i as f64 / 10.0;
            let partial: f64 = coeffs
                .iter()
                .enumerate()
                .map(|(k, c)| c * ((k + 1) as f64 * PI * x).sin())
                .sum();
            assert!((partial - minimiser(x)).abs() < 1e-3);
        }
        let j = simpson(4000, |x| {
            let d = numeric_flux(&coeffs, x) - (PI * x).cos();
            d * d
        });
        // Truncating at 40 modes leaves exactly the target's own sine
        // tail unmatched: J = ½ Σ_{k>40} b_k² by Parseval.
        let tail: f64 = (41..2_000_000)
            .map(|k| 0.5 * target_sine_coeff(k).powi(2))
            .sum();
        assert!(j < 2e-2 * j_zero(), "J(c*) = {j}");
        assert!(
            (j - tail).abs() < 1e-3 * tail + 1e-9,
            "J = {j}, tail {tail}"
        );
        assert!(minimiser(0.0).abs() < 1e-12 && minimiser(1.0).abs() < 1e-9);
    }
}
