//! API-surface gate: the `IterOpts` builder must round-trip through its
//! readers, and equal options must drive the solver to bitwise-equal
//! results.

use meshfree_oc::linalg::{gmres, DVec, IterOpts, Preconditioner, Triplets};

#[test]
fn iter_opts_builder_round_trips_through_readers() {
    let opts = IterOpts::gmres().max_iter(500).tol(1e-9).restart(25);
    assert_eq!(opts.iteration_limit(), 500);
    assert_eq!(opts.tolerance().to_bits(), 1e-9f64.to_bits());
    assert_eq!(opts.restart_len(), 25);

    // The GMRES constructor and `Default` carry the documented defaults.
    for defaults in [IterOpts::gmres(), IterOpts::default()] {
        assert_eq!(defaults.iteration_limit(), 2000);
        assert_eq!(defaults.tolerance().to_bits(), 1e-10f64.to_bits());
        assert_eq!(defaults.restart_len(), 50);
    }

    // 1-D advection–diffusion: a small nonsymmetric system. Equal options
    // must drive the solver to bitwise-equal results.
    let n = 60;
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.4);
        if i > 0 {
            t.push(i, i - 1, -1.3);
        }
        if i + 1 < n {
            t.push(i, i + 1, -0.7);
        }
    }
    let a = t.to_csr();
    let b = DVec::from_fn(n, |i| 1.0 + (i as f64 * 0.2).sin());
    let m = Preconditioner::ilu0_from(&a);
    let xo = gmres(&a, &b, &m, &opts).unwrap();
    let xn = gmres(&a, &b, &m, &opts.clone()).unwrap();
    assert_eq!(xo.iterations, xn.iterations);
    for i in 0..n {
        assert_eq!(xo.x[i].to_bits(), xn.x[i].to_bits());
    }
}
