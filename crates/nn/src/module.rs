//! The [`Module`] trait: shared parameter plumbing for the networks in
//! this crate.
//!
//! A module owns a flat `f64` parameter vector with a documented layout,
//! knows how to register those parameters as tape leaves, and how to
//! flatten a reverse sweep's gradients back into that layout. Everything
//! else — the forward shape, how many inputs it takes — stays inherent to
//! the concrete network ([`crate::Mlp`] is a single batched map), so the
//! trait captures exactly the surface a generic optimizer needs and
//! nothing more.

use autodiff::tape::{TGrads, Tape};
use linalg::DVec;

/// Shared parameter plumbing: flat storage, tape registration, gradient
/// flattening. Implemented by [`crate::Mlp`].
pub trait Module {
    /// Tape handles for one registration of the parameters (e.g.
    /// [`crate::MlpParams`]).
    type Params<'t>;

    /// Total parameter count (length of [`Module::params_flat`]).
    fn n_params(&self) -> usize;

    /// The flat parameter vector, in the module's documented layout.
    fn params_flat(&self) -> DVec;

    /// Overwrites the parameters from a flat vector in the same layout.
    ///
    /// Panics when `flat.len() != self.n_params()` — that is a programming
    /// error, not a runtime condition.
    fn set_params_flat(&mut self, flat: &DVec);

    /// Registers the parameters as tape leaves.
    fn params_on_tape<'t>(&self, tape: &'t Tape) -> Self::Params<'t>;

    /// Flattens parameter gradients from a reverse sweep back into the
    /// layout of [`Module::params_flat`].
    fn grad_vector(&self, grads: &TGrads, handles: &Self::Params<'_>) -> DVec;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Mlp};

    #[test]
    fn set_params_flat_round_trips() {
        let mut m = Mlp::new(&[2, 4, 1], Activation::Tanh, 5);
        let mut flat = m.params_flat();
        for i in 0..flat.len() {
            flat[i] += 0.5;
        }
        m.set_params_flat(&flat);
        let back = m.params_flat();
        for i in 0..flat.len() {
            assert_eq!(back[i], flat[i]);
        }
    }
}
