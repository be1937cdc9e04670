//! Scattered-data interpolation with RBFs.
//!
//! A thin, user-facing layer over [`crate::operators::GlobalCollocation`]:
//! fit once, then evaluate the interpolant (or any of its derivatives)
//! anywhere. This is the "RBFs as universal approximators" entry point the
//! paper's §2.1 describes, independent of any PDE.

use crate::kernel::RbfKernel;
use crate::operators::{DiffOp, GlobalCollocation};
use geometry::{NodeKind, NodeSet, Point2, RawNode};
use linalg::{DVec, LinalgError};

/// A fitted RBF interpolant over a scattered point cloud.
pub struct Interpolant {
    ctx: GlobalCollocation,
    coeffs: DVec,
}

impl Interpolant {
    /// Fits an interpolant through `(points[i], values[i])`.
    pub fn fit(
        points: &[Point2],
        values: &[f64],
        kernel: RbfKernel,
        degree: i32,
    ) -> Result<Interpolant, LinalgError> {
        assert_eq!(points.len(), values.len(), "fit: length mismatch");
        // Interpolation has no boundary semantics: wrap all points as
        // interior nodes.
        let raw: Vec<RawNode> = points
            .iter()
            .map(|&p| RawNode {
                p,
                kind: NodeKind::Interior,
                tag: 0,
                normal: None,
            })
            .collect();
        let nodes = NodeSet::from_unordered(raw);
        let ctx = GlobalCollocation::new(&nodes, kernel, degree);
        let coeffs = ctx.fit_values(&DVec(values.to_vec()))?;
        Ok(Interpolant { ctx, coeffs })
    }

    /// Evaluates the interpolant at `p`.
    pub fn eval(&self, p: Point2) -> f64 {
        self.ctx.eval_op(DiffOp::Eval, &self.coeffs, &[p])[0]
    }

    /// Evaluates at many points.
    pub fn eval_many(&self, points: &[Point2]) -> DVec {
        self.ctx.eval_op(DiffOp::Eval, &self.coeffs, points)
    }

    /// Gradient `(∂x, ∂y)` at `p`.
    pub fn grad(&self, p: Point2) -> (f64, f64) {
        (
            self.ctx.eval_op(DiffOp::Dx, &self.coeffs, &[p])[0],
            self.ctx.eval_op(DiffOp::Dy, &self.coeffs, &[p])[0],
        )
    }

    /// Laplacian at `p`.
    pub fn laplacian(&self, p: Point2) -> f64 {
        self.ctx.eval_op(DiffOp::Lap, &self.coeffs, &[p])[0]
    }

    /// The fitted coefficient vector `[λ; γ]`.
    pub fn coefficients(&self) -> &DVec {
        &self.coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::generators::halton2;

    fn test_points(n: usize) -> Vec<Point2> {
        halton2(n)
    }

    #[test]
    fn interpolates_its_own_data() {
        let pts = test_points(40);
        let vals: Vec<f64> = pts.iter().map(|p| (3.0 * p.x).sin() + p.y).collect();
        let it = Interpolant::fit(&pts, &vals, RbfKernel::Phs3, 1).unwrap();
        for (p, v) in pts.iter().zip(&vals) {
            assert!((it.eval(*p) - v).abs() < 1e-8, "at {p:?}");
        }
    }

    #[test]
    fn reproduces_linear_fields_everywhere() {
        let pts = test_points(25);
        let f = |p: Point2| 4.0 - 2.0 * p.x + 0.5 * p.y;
        let vals: Vec<f64> = pts.iter().map(|&p| f(p)).collect();
        let it = Interpolant::fit(&pts, &vals, RbfKernel::Phs3, 1).unwrap();
        for q in [
            Point2::new(0.111, 0.222),
            Point2::new(0.9, 0.05),
            Point2::new(0.5, 0.5),
        ] {
            assert!((it.eval(q) - f(q)).abs() < 1e-8);
            let (dx, dy) = it.grad(q);
            assert!((dx + 2.0).abs() < 1e-7);
            assert!((dy - 0.5).abs() < 1e-7);
        }
    }

    #[test]
    fn error_decreases_with_more_centres() {
        let f = |p: Point2| (2.0 * p.x + p.y).exp() / 10.0;
        let err_with = |n: usize| {
            let pts = test_points(n);
            let vals: Vec<f64> = pts.iter().map(|&p| f(p)).collect();
            let it = Interpolant::fit(&pts, &vals, RbfKernel::Phs3, 1).unwrap();
            let probes = halton2(200);
            probes
                .iter()
                .map(|&q| (it.eval(q) - f(q)).abs())
                .fold(0.0f64, f64::max)
        };
        let e_small = err_with(20);
        let e_large = err_with(120);
        assert!(
            e_large < 0.5 * e_small,
            "no convergence: {e_small:.3e} -> {e_large:.3e}"
        );
    }

    #[test]
    fn gaussian_kernel_interpolates_too() {
        let pts = test_points(30);
        let f = |p: Point2| p.x * p.y;
        let vals: Vec<f64> = pts.iter().map(|&p| f(p)).collect();
        let it = Interpolant::fit(&pts, &vals, RbfKernel::Gaussian(2.0), 1).unwrap();
        for (p, v) in pts.iter().zip(&vals) {
            assert!((it.eval(*p) - v).abs() < 1e-6);
        }
    }

    #[test]
    fn laplacian_of_quadratic() {
        let pts = test_points(60);
        let f = |p: Point2| p.x * p.x + 3.0 * p.y * p.y;
        let vals: Vec<f64> = pts.iter().map(|&p| f(p)).collect();
        let it = Interpolant::fit(&pts, &vals, RbfKernel::Phs3, 2).unwrap();
        let l = it.laplacian(Point2::new(0.5, 0.5));
        assert!((l - 8.0).abs() < 0.2, "laplacian {l}");
    }
}
