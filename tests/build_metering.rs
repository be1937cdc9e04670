//! Build metering: `BuiltProblem::memory_bytes` is what the serve daemon's
//! `FactorCache` charges against its byte budget, so it must match the
//! heap a Laplace build really keeps resident. The tracking allocator
//! measures the live bytes a build leaves behind (its intermediates
//! dropped), and the metered figure must lie within 10 % of it on both
//! discretisations.
//!
//! One `#[test]` only, in its own test binary: the allocator counts every
//! allocation in the process, so nothing else may run beside it.

use meshfree_oc::control::metrics::{live_allocated_bytes, TrackingAllocator};
use meshfree_oc::control::{BackendKind, BuiltProblem, ProblemSpec};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn build(nx: usize, backend: BackendKind) -> BuiltProblem {
    BuiltProblem::build(&ProblemSpec::Laplace { nx, backend }).expect("Laplace build")
}

#[test]
fn laplace_builds_meter_the_bytes_they_retain() {
    // Start the worker pool and every lazily initialised global first, so
    // their one-off allocations are not charged to a measured build.
    drop(build(8, BackendKind::DenseLu));
    drop(build(8, BackendKind::SparseGmres));

    for (nx, backend) in [
        (24, BackendKind::DenseLu),
        (32, BackendKind::DenseLu),
        (32, BackendKind::SparseGmres),
        (48, BackendKind::SparseGmres),
    ] {
        let before = live_allocated_bytes();
        let built = build(nx, backend);
        let retained = live_allocated_bytes() - before;
        let metered = built.memory_bytes();
        let ratio = retained as f64 / metered as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "nx = {nx} {backend:?}: retains {retained} B but meters {metered} B \
             (ratio {ratio:.3})"
        );
    }
}
