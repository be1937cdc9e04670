//! Batched MLPs on the tensor tape, with Taylor-mode input derivatives.

use autodiff::tape::{TGrads, TVar, Tape};
use autodiff::tensor::Tensor;
use linalg::{DMat, DVec};
use std::sync::Arc;

use meshfree_runtime::rng::Rng64;

/// Weight initialisation: uniform draws from the std-only runtime
/// generator.
fn init_rng(seed: u64) -> impl FnMut(f64) -> f64 {
    let mut rng = Rng64::seed_from_u64(seed);
    move |scale| rng.gen_range(-scale..scale)
}

/// Activation functions (the paper's PINNs use `tanh` throughout: "each
/// layer was equipped with an infinitely differentiable tanh activation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// No activation (linear layer).
    Identity,
}

/// A fully connected network with a flat parameter vector.
///
/// Layout: for each layer, the `in × out` weight matrix (row-major) followed
/// by the `out` biases.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<usize>,
    activation: Activation,
    params: DVec,
}

/// Tape handles for one registration of the parameters.
pub struct MlpParams<'t> {
    /// Weight variables, one `in × out` tensor per layer.
    pub ws: Vec<TVar<'t>>,
    /// Bias variables, one `1 × out` tensor per layer.
    pub bs: Vec<TVar<'t>>,
}

/// Batched network outputs with first and second input derivatives along
/// requested coordinate directions.
pub struct TaylorBatch<'t> {
    /// `batch × out` values.
    pub val: TVar<'t>,
    /// First derivatives per direction.
    pub d: Vec<TVar<'t>>,
    /// Second derivatives per direction.
    pub dd: Vec<TVar<'t>>,
}

impl Mlp {
    /// Creates a network with Xavier/Glorot-uniform weights and zero biases.
    ///
    /// `layers` gives every width including input and output, e.g. the
    /// paper's Laplace PINN is `[2, 30, 30, 30, 1]` ("3 hidden layers of 30
    /// neurons each").
    pub fn new(layers: &[usize], activation: Activation, seed: u64) -> Mlp {
        assert!(layers.len() >= 2, "need at least input and output layers");
        let mut draw = init_rng(seed);
        let mut params = Vec::new();
        for w in layers.windows(2) {
            let (nin, nout) = (w[0], w[1]);
            let scale = (6.0 / (nin + nout) as f64).sqrt();
            for _ in 0..nin * nout {
                params.push(draw(scale));
            }
            params.extend(std::iter::repeat_n(0.0, nout));
        }
        Mlp {
            layers: layers.to_vec(),
            activation,
            params: DVec(params),
        }
    }

    /// Layer widths.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }

    /// Total parameter count.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter vector.
    pub fn params(&self) -> &DVec {
        &self.params
    }

    /// Mutable access to the flat parameter vector (for optimizer steps).
    pub fn params_mut(&mut self) -> &mut DVec {
        &mut self.params
    }

    /// Registers the parameters as tape leaves.
    pub fn params_on_tape<'t>(&self, tape: &'t Tape) -> MlpParams<'t> {
        let mut ws = Vec::new();
        let mut bs = Vec::new();
        let mut off = 0;
        for w in self.layers.windows(2) {
            let (nin, nout) = (w[0], w[1]);
            let wmat = DMat::from_vec(
                nin,
                nout,
                self.params.as_slice()[off..off + nin * nout].to_vec(),
            );
            off += nin * nout;
            let bmat = DMat::from_vec(1, nout, self.params.as_slice()[off..off + nout].to_vec());
            off += nout;
            ws.push(tape.var(wmat));
            bs.push(tape.var(bmat));
        }
        MlpParams { ws, bs }
    }

    /// Flattens parameter gradients (from a reverse sweep) back into the
    /// layout of [`Mlp::params`].
    pub fn grad_vector(&self, grads: &TGrads, handles: &MlpParams<'_>) -> DVec {
        let mut out = Vec::with_capacity(self.n_params());
        for (w, b) in handles.ws.iter().zip(&handles.bs) {
            out.extend_from_slice(grads.wrt(*w).as_slice());
            out.extend_from_slice(grads.wrt(*b).as_slice());
        }
        DVec(out)
    }

    fn activate<'t>(&self, z: TVar<'t>) -> TVar<'t> {
        match self.activation {
            Activation::Tanh => z.tanh(),
            Activation::Identity => z,
        }
    }

    /// Batched forward pass on the tape: `x` is `batch × in`, result is
    /// `batch × out`. The final layer is linear.
    pub fn forward<'t>(&self, _tape: &'t Tape, p: &MlpParams<'t>, x: &Tensor) -> TVar<'t> {
        assert_eq!(x.ncols(), self.layers[0], "forward: wrong input width");
        let n_layers = p.ws.len();
        let x_arc = Arc::new(x.clone());
        let mut a = p.ws[0].matmul_const_l(&x_arc).broadcast_add_row(p.bs[0]);
        if n_layers > 1 {
            a = self.activate(a);
        }
        for l in 1..n_layers {
            a = a.matmul(p.ws[l]).broadcast_add_row(p.bs[l]);
            if l + 1 < n_layers {
                a = self.activate(a);
            }
        }
        a
    }

    /// Batched forward with first and second input derivatives along the
    /// given coordinate `directions` — Taylor-mode forward AD composed from
    /// tape primitives, so everything remains differentiable w.r.t. the
    /// weights.
    pub fn forward_taylor<'t>(
        &self,
        tape: &'t Tape,
        p: &MlpParams<'t>,
        x: &Tensor,
        directions: &[usize],
    ) -> TaylorBatch<'t> {
        assert_eq!(
            x.ncols(),
            self.layers[0],
            "forward_taylor: wrong input width"
        );
        let batch = x.nrows();
        let nin = self.layers[0];
        let n_layers = p.ws.len();
        let x_arc = Arc::new(x.clone());

        // Seeds: a = x (const), a_d = e_dir (const), a_dd = 0.
        let mut a = p.ws[0].matmul_const_l(&x_arc).broadcast_add_row(p.bs[0]);
        let mut ads: Vec<TVar<'t>> = directions
            .iter()
            .map(|&dir| {
                assert!(dir < nin, "direction out of range");
                let seed = DMat::from_fn(batch, nin, |_, j| if j == dir { 1.0 } else { 0.0 });
                p.ws[0].matmul_const_l(&Arc::new(seed))
            })
            .collect();
        let zero_out = |w: usize| tape.var(DMat::zeros(batch, self.layers[w + 1]));
        let mut adds: Vec<TVar<'t>> = directions.iter().map(|_| zero_out(0)).collect();

        for l in 0..n_layers {
            if l > 0 {
                // Linear layer on (value, d, dd).
                a = a.matmul(p.ws[l]).broadcast_add_row(p.bs[l]);
                for k in 0..directions.len() {
                    ads[k] = ads[k].matmul(p.ws[l]);
                    adds[k] = adds[k].matmul(p.ws[l]);
                }
            }
            if l + 1 < n_layers {
                match self.activation {
                    Activation::Tanh => {
                        let ones = DMat::from_fn(a.shape().0, a.shape().1, |_, _| 1.0);
                        let t = a.tanh();
                        // tanh' = 1 − t², tanh'' = −2 t (1 − t²).
                        let s = t.sq().scale(-1.0).add_const(&ones);
                        let tpp = t.mul(s).scale(-2.0);
                        for k in 0..directions.len() {
                            let zd = ads[k];
                            let zdd = adds[k];
                            ads[k] = s.mul(zd);
                            adds[k] = tpp.mul(zd).mul(zd).add(s.mul(zdd));
                        }
                        a = t;
                    }
                    Activation::Identity => {}
                }
            }
        }
        TaylorBatch {
            val: a,
            d: ads,
            dd: adds,
        }
    }

    /// Plain `f64` forward pass without a tape (for evaluation and plots).
    pub fn eval(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ncols(), self.layers[0], "eval: wrong input width");
        let n_layers = self.layers.len() - 1;
        let mut a = x.clone();
        let mut off = 0;
        for (l, w) in self.layers.windows(2).enumerate() {
            let (nin, nout) = (w[0], w[1]);
            let wmat = DMat::from_vec(
                nin,
                nout,
                self.params.as_slice()[off..off + nin * nout].to_vec(),
            );
            off += nin * nout;
            let b = &self.params.as_slice()[off..off + nout];
            off += nout;
            let mut z = a.matmul(&wmat).expect("eval: shape");
            for i in 0..z.nrows() {
                for (zv, bv) in z.row_mut(i).iter_mut().zip(b) {
                    *zv += bv;
                }
            }
            a = if l + 1 < n_layers {
                match self.activation {
                    Activation::Tanh => z.map(f64::tanh),
                    Activation::Identity => z,
                }
            } else {
                z
            };
        }
        a
    }

    /// Serialises the architecture and flat parameters as plain text
    /// (`layers: a b c` header, one parameter per line) — enough to
    /// checkpoint line-search candidates without a serde dependency.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "mlp-v1
layers:",
        );
        for l in &self.layers {
            out.push_str(&format!(" {l}"));
        }
        out.push_str(&format!(
            "
activation: {}
",
            match self.activation {
                Activation::Tanh => "tanh",
                Activation::Identity => "identity",
            }
        ));
        for p in self.params.iter() {
            out.push_str(&format!(
                "{p:.17e}
"
            ));
        }
        out
    }

    /// Parses the format written by [`Mlp::to_text`].
    pub fn from_text(text: &str) -> Result<Mlp, String> {
        let mut lines = text.lines();
        if lines.next() != Some("mlp-v1") {
            return Err("missing mlp-v1 header".into());
        }
        let layers_line = lines.next().ok_or("missing layers line")?;
        let layers: Vec<usize> = layers_line
            .strip_prefix("layers:")
            .ok_or("bad layers line")?
            .split_whitespace()
            .map(|t| t.parse::<usize>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        if layers.len() < 2 {
            return Err("need at least two layers".into());
        }
        let act_line = lines.next().ok_or("missing activation line")?;
        let activation = match act_line.strip_prefix("activation: ") {
            Some("tanh") => Activation::Tanh,
            Some("identity") => Activation::Identity,
            other => return Err(format!("bad activation line: {other:?}")),
        };
        let params: Vec<f64> = lines
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.trim().parse::<f64>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let expected: usize = layers.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        if params.len() != expected {
            return Err(format!(
                "expected {expected} parameters, found {}",
                params.len()
            ));
        }
        Ok(Mlp {
            layers,
            activation,
            params: DVec(params),
        })
    }

    /// Evaluates the scalar-output network at 2-D points, convenience for
    /// the PINN experiments.
    pub fn eval_at_points(&self, pts: &[(f64, f64)]) -> DVec {
        let x = DMat::from_fn(
            pts.len(),
            2,
            |i, j| if j == 0 { pts[i].0 } else { pts[i].1 },
        );
        let out = self.eval(&x);
        DVec(out.col(0).as_slice().to_vec())
    }
}

impl crate::module::Module for Mlp {
    type Params<'t> = MlpParams<'t>;

    fn n_params(&self) -> usize {
        Mlp::n_params(self)
    }
    fn params_flat(&self) -> DVec {
        self.params.clone()
    }
    fn set_params_flat(&mut self, flat: &DVec) {
        assert_eq!(flat.len(), self.params.len(), "set_params_flat: length");
        self.params.as_mut_slice().copy_from_slice(flat.as_slice());
    }
    fn params_on_tape<'t>(&self, tape: &'t Tape) -> MlpParams<'t> {
        Mlp::params_on_tape(self, tape)
    }
    fn grad_vector(&self, grads: &TGrads, handles: &MlpParams<'_>) -> DVec {
        Mlp::grad_vector(self, grads, handles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodiff::gradcheck::{fd_gradient, rel_error};

    fn tiny() -> Mlp {
        Mlp::new(&[2, 8, 8, 1], Activation::Tanh, 42)
    }

    fn batch_x() -> Tensor {
        DMat::from_rows(&[vec![0.1, 0.9], vec![0.4, 0.2], vec![0.8, 0.6]])
    }

    #[test]
    fn parameter_count_and_layout() {
        let m = tiny();
        assert_eq!(m.n_params(), 2 * 8 + 8 + 8 * 8 + 8 + 8 + 1);
        // Xavier bound for the first layer.
        let bound = (6.0 / 10.0f64).sqrt();
        for &p in &m.params().as_slice()[..16] {
            assert!(p.abs() <= bound);
        }
        // Biases are zero.
        assert_eq!(m.params()[16], 0.0);
    }

    #[test]
    fn taped_forward_matches_plain_eval() {
        let m = tiny();
        let x = batch_x();
        let tape = Tape::new();
        let p = m.params_on_tape(&tape);
        let y = m.forward(&tape, &p, &x);
        let y_plain = m.eval(&x);
        for i in 0..3 {
            assert!(
                (y.value()[(i, 0)] - y_plain[(i, 0)]).abs() < 1e-13,
                "row {i}"
            );
        }
    }

    #[test]
    fn taylor_first_derivative_matches_fd() {
        let m = tiny();
        let x0 = (0.3, 0.7);
        let tape = Tape::new();
        let p = m.params_on_tape(&tape);
        let x = DMat::from_rows(&[vec![x0.0, x0.1]]);
        let tb = m.forward_taylor(&tape, &p, &x, &[0, 1]);
        let h = 1e-6;
        let fd_x = (m.eval_at_points(&[(x0.0 + h, x0.1)])[0]
            - m.eval_at_points(&[(x0.0 - h, x0.1)])[0])
            / (2.0 * h);
        let fd_y = (m.eval_at_points(&[(x0.0, x0.1 + h)])[0]
            - m.eval_at_points(&[(x0.0, x0.1 - h)])[0])
            / (2.0 * h);
        assert!(
            (tb.d[0].value()[(0, 0)] - fd_x).abs() < 1e-6,
            "du/dx {} vs {fd_x}",
            tb.d[0].value()[(0, 0)]
        );
        assert!(
            (tb.d[1].value()[(0, 0)] - fd_y).abs() < 1e-6,
            "du/dy {} vs {fd_y}",
            tb.d[1].value()[(0, 0)]
        );
    }

    #[test]
    fn taylor_second_derivative_matches_fd() {
        let m = tiny();
        let (x0, y0) = (0.25, 0.55);
        let tape = Tape::new();
        let p = m.params_on_tape(&tape);
        let x = DMat::from_rows(&[vec![x0, y0]]);
        let tb = m.forward_taylor(&tape, &p, &x, &[0, 1]);
        let h = 1e-4;
        let f = |a: f64, b: f64| m.eval_at_points(&[(a, b)])[0];
        let fd_xx = (f(x0 + h, y0) - 2.0 * f(x0, y0) + f(x0 - h, y0)) / (h * h);
        let fd_yy = (f(x0, y0 + h) - 2.0 * f(x0, y0) + f(x0, y0 - h)) / (h * h);
        assert!(
            (tb.dd[0].value()[(0, 0)] - fd_xx).abs() < 1e-4 * (1.0 + fd_xx.abs()),
            "uxx {} vs {fd_xx}",
            tb.dd[0].value()[(0, 0)]
        );
        assert!(
            (tb.dd[1].value()[(0, 0)] - fd_yy).abs() < 1e-4 * (1.0 + fd_yy.abs()),
            "uyy {} vs {fd_yy}",
            tb.dd[1].value()[(0, 0)]
        );
    }

    #[test]
    fn weight_gradient_of_residual_loss_matches_fd() {
        // Loss = mean((u_xx + u_yy)²) over a small batch — the PINN physics
        // loss shape — checked against FD over the flat parameter vector.
        let m = Mlp::new(&[2, 5, 1], Activation::Tanh, 7);
        let x = batch_x();
        let loss_at = |theta: &[f64]| -> f64 {
            let mut m2 = m.clone();
            m2.params_mut().as_mut_slice().copy_from_slice(theta);
            let tape = Tape::new();
            let p = m2.params_on_tape(&tape);
            let tb = m2.forward_taylor(&tape, &p, &x, &[0, 1]);
            tb.dd[0].add(tb.dd[1]).sq().mean().scalar_value()
        };
        let theta0: Vec<f64> = m.params().as_slice().to_vec();
        let fd = fd_gradient(loss_at, &theta0, 1e-5);

        let tape = Tape::new();
        let p = m.params_on_tape(&tape);
        let tb = m.forward_taylor(&tape, &p, &x, &[0, 1]);
        let loss = tb.dd[0].add(tb.dd[1]).sq().mean();
        let grads = tape.backward(loss);
        let g = m.grad_vector(&grads, &p);
        let err = rel_error(g.as_slice(), &fd);
        assert!(err < 1e-4, "param gradient rel error {err:.3e}");
    }

    #[test]
    fn can_fit_a_simple_function() {
        use opt_like_adam::minimise;
        // Fit u(x, y) = x² − y on a handful of points.
        let mut m = Mlp::new(&[2, 12, 12, 1], Activation::Tanh, 3);
        let pts: Vec<(f64, f64)> = (0..25)
            .map(|i| ((i % 5) as f64 / 4.0, (i / 5) as f64 / 4.0))
            .collect();
        let x = DMat::from_fn(25, 2, |i, j| if j == 0 { pts[i].0 } else { pts[i].1 });
        let target = DMat::from_fn(25, 1, |i, _| pts[i].0 * pts[i].0 - pts[i].1);
        let loss0 = minimise(&mut m, &x, &target, 0);
        let loss_end = minimise(&mut m, &x, &target, 800);
        assert!(
            loss_end < 1e-3 * loss0.max(1e-6) || loss_end < 1e-4,
            "training stalled: {loss0:.3e} -> {loss_end:.3e}"
        );
    }

    /// Minimal Adam loop local to the tests (the real drivers live in
    /// `meshfree-control`; `meshfree-nn` does not depend on `meshfree-opt`).
    mod opt_like_adam {
        use super::*;

        pub fn minimise(m: &mut Mlp, x: &Tensor, target: &Tensor, epochs: usize) -> f64 {
            let n = m.n_params();
            let (mut mom, mut vel) = (vec![0.0; n], vec![0.0; n]);
            let mut last = f64::NAN;
            let neg_t = target * -1.0;
            for t in 1..=epochs.max(1) {
                let tape = Tape::new();
                let p = m.params_on_tape(&tape);
                let y = m.forward(&tape, &p, x);
                let loss = y.add_const(&neg_t).sq().mean();
                last = loss.scalar_value();
                if epochs == 0 {
                    return last;
                }
                let grads = tape.backward(loss);
                let g = m.grad_vector(&grads, &p);
                let lr = 0.01;
                for i in 0..n {
                    mom[i] = 0.9 * mom[i] + 0.1 * g[i];
                    vel[i] = 0.999 * vel[i] + 0.001 * g[i] * g[i];
                    let mh = mom[i] / (1.0 - 0.9f64.powi(t as i32));
                    let vh = vel[i] / (1.0 - 0.999f64.powi(t as i32));
                    m.params_mut()[i] -= lr * mh / (vh.sqrt() + 1e-8);
                }
            }
            last
        }
    }

    #[test]
    fn text_serialization_roundtrips_exactly() {
        let m = Mlp::new(&[2, 9, 5, 1], Activation::Tanh, 77);
        let text = m.to_text();
        let back = Mlp::from_text(&text).unwrap();
        assert_eq!(back.layers(), m.layers());
        assert_eq!(back.n_params(), m.n_params());
        for i in 0..m.n_params() {
            assert_eq!(back.params()[i], m.params()[i], "param {i}");
        }
        // Behavioural identity, not just bit identity.
        let x = batch_x();
        let a = m.eval(&x);
        let b = back.eval(&x);
        for i in 0..3 {
            assert_eq!(a[(i, 0)], b[(i, 0)]);
        }
    }

    #[test]
    fn malformed_text_is_rejected_with_reasons() {
        assert!(Mlp::from_text("garbage").unwrap_err().contains("header"));
        assert!(Mlp::from_text(
            "mlp-v1
layers: 2 3 1
activation: tanh
1.0
"
        )
        .unwrap_err()
        .contains("expected"));
        assert!(Mlp::from_text(
            "mlp-v1
layers: 2
activation: tanh
"
        )
        .unwrap_err()
        .contains("two layers"));
        assert!(Mlp::from_text(
            "mlp-v1
layers: 2 1
activation: relu
"
        )
        .unwrap_err()
        .contains("activation"));
    }

    #[test]
    fn identity_activation_gives_linear_network() {
        let m = Mlp::new(&[2, 3, 1], Activation::Identity, 5);
        // Linear in the input: f(2x) - f(0) == 2 (f(x) - f(0)).
        let f0 = m.eval_at_points(&[(0.0, 0.0)])[0];
        let f1 = m.eval_at_points(&[(0.3, -0.2)])[0];
        let f2 = m.eval_at_points(&[(0.6, -0.4)])[0];
        assert!(((f2 - f0) - 2.0 * (f1 - f0)).abs() < 1e-12);
    }
}
