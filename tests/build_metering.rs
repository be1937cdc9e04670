//! Build metering: `BuiltProblem::memory_bytes` is what the serve daemon's
//! `FactorCache` charges against its byte budget, so it must match the
//! heap a build really keeps resident. The tracking allocator measures the
//! live bytes a build leaves behind (its intermediates dropped), and the
//! metered figure must lie within 10 % of it for Laplace and
//! Navier–Stokes builds on both discretisations (an NS build meters
//! `NsSolver::memory_bytes`, its CSR operator set).
//!
//! One `#[test]` only, in its own test binary: the allocator counts every
//! allocation in the process, so nothing else may run beside it.

use meshfree_oc::control::metrics::{live_allocated_bytes, TrackingAllocator};
use meshfree_oc::control::{BackendKind, BuiltProblem, ProblemSpec, RunSpec};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn laplace(nx: usize, backend: BackendKind) -> ProblemSpec {
    ProblemSpec::Laplace { nx, backend }
}

fn navier_stokes(h: f64, backend: BackendKind) -> ProblemSpec {
    RunSpec::navier_stokes()
        .resolution(h)
        .backend(backend)
        .build()
        .problem
}

fn build(spec: &ProblemSpec) -> BuiltProblem {
    BuiltProblem::build(spec).expect("build")
}

#[test]
fn builds_meter_the_bytes_they_retain() {
    // Start the worker pool and every lazily initialised global first, so
    // their one-off allocations are not charged to a measured build.
    drop(build(&laplace(8, BackendKind::DenseLu)));
    drop(build(&laplace(8, BackendKind::SparseGmres)));
    drop(build(&navier_stokes(0.3, BackendKind::DenseLu)));
    drop(build(&navier_stokes(0.3, BackendKind::SparseGmres)));

    for spec in [
        laplace(24, BackendKind::DenseLu),
        laplace(32, BackendKind::DenseLu),
        laplace(32, BackendKind::SparseGmres),
        laplace(48, BackendKind::SparseGmres),
        navier_stokes(0.18, BackendKind::DenseLu),
        navier_stokes(0.12, BackendKind::DenseLu),
        navier_stokes(0.09, BackendKind::SparseGmres),
        navier_stokes(0.045, BackendKind::SparseGmres),
    ] {
        let before = live_allocated_bytes();
        let built = build(&spec);
        let retained = live_allocated_bytes() - before;
        let metered = built.memory_bytes();
        let ratio = retained as f64 / metered as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{spec:?}: retains {retained} B but meters {metered} B (ratio {ratio:.3})"
        );
    }
}
