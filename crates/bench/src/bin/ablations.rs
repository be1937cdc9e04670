//! Ablations backing the paper's in-text claims (see DESIGN.md §4/§6).
//!
//! Subcommands (default: run all):
//!
//! * `re` — DAL vs DP across Reynolds numbers (paper §3.2: DAL's failure
//!   "is lessened with a reduced Re = 10").
//! * `refinements` — DP tape memory, heap peak and time vs refinement count
//!   `k` (Table 3 discussion: "scales super-linearly with k").
//! * `kernels` — Laplace DP final cost per RBF kernel (§3 opening).
//! * `optimizer` — Adam vs plain SGD for DAL on Laplace (§3: Adam rescues
//!   DAL's noisy boundary gradients).
//! * `conditioning` — grid vs scattered collocation conditioning (§3.1).
//! * `gradients` — gradient accuracy of DP/DAL/FD against a tight
//!   central-difference oracle (footnote 11).

use bench::write_csv;
use control::metrics::{live_allocated_bytes, peak_allocated_bytes, reset_peak};
use control::ns::initial_control;
use control::{execute_on, ControlError, Problem, RunCtx, RunSpec, SpecRun, Strategy};
use geometry::generators::{unit_square_scattered, ChannelConfig};
use geometry::{NodeKind, Point2};
use linalg::{DVec, Lu};
use opt::{Optimizer, Schedule, Sgd};
use pde::ns_dp::NsDp;
use pde::{LaplaceControlProblem, NsConfig, NsSolver};
use rbf::{operators::fit_matrix, PolyBasis, RbfKernel};

// Heap tracking for the `refinements` ablation's per-run peak: tape
// accounting alone does not see transient buffers of the reverse sweep.
#[global_allocator]
static ALLOC: control::metrics::TrackingAllocator = control::metrics::TrackingAllocator;

/// One unsupervised run at Table 1's `lr = 1e-2` on an already-built
/// Laplace problem (the spec's `nx` only labels the run).
fn laplace_run(
    p: &LaplaceControlProblem,
    strategy: Strategy,
    nx: usize,
    iterations: usize,
    log_every: usize,
) -> Result<SpecRun, ControlError> {
    let spec = RunSpec::laplace()
        .nx(nx)
        .strategy(strategy)
        .iterations(iterations)
        .lr(1e-2)
        .log_every(log_every)
        .build();
    execute_on(Problem::Laplace(p), &spec, &RunCtx::unchecked())
}

fn ablation_re() {
    println!("== ablation: DAL vs DP across Reynolds numbers ==");
    println!("(paper: DAL fails at Re = 100, improves at Re = 10; DP works at both)\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "Re", "J_initial", "J_dal", "J_dp"
    );
    let mut rows = Vec::new();
    for re in [10.0, 30.0, 100.0] {
        let solver = NsSolver::new(NsConfig {
            channel: ChannelConfig {
                h: 0.13,
                ..Default::default()
            },
            re,
            ..Default::default()
        })
        .expect("solver");
        let j0 = {
            let c0 = initial_control(&solver);
            let st = solver.solve(&c0, 12, None).expect("solve");
            solver.cost(&st)
        };
        let run = |strategy: Strategy| {
            let spec = RunSpec::navier_stokes()
                .resolution(0.13)
                .reynolds(re)
                .slot_velocity(solver.cfg().slot_velocity)
                .strategy(strategy)
                .iterations(40)
                .refinements(5)
                .lr(5e-2)
                .log_every(10)
                .build();
            execute_on(Problem::NavierStokes(&solver), &spec, &RunCtx::unchecked())
        };
        let dal = run(Strategy::Dal).expect("dal");
        let dp = run(Strategy::Dp).expect("dp");
        println!(
            "{re:>6} {j0:>12.3e} {:>12.3e} {:>12.3e}",
            dal.report.final_cost, dp.report.final_cost
        );
        rows.push(vec![re, j0, dal.report.final_cost, dp.report.final_cost]);
    }
    write_csv(
        "results/ablation_re.csv",
        &["re", "j0", "j_dal", "j_dp"],
        &rows,
    )
    .ok();
    println!();
}

fn ablation_refinements() {
    println!("== ablation: DP cost vs refinement count k ==");
    println!("(paper: \"computational complexity scales super-linearly with k\")\n");
    let solver = NsSolver::new(NsConfig {
        channel: ChannelConfig {
            h: 0.13,
            ..Default::default()
        },
        re: 50.0,
        ..Default::default()
    })
    .expect("solver");
    let dp = NsDp::new(&solver);
    let c = initial_control(&solver);
    // Heap peak: the tracked high-water mark during one DP evaluation,
    // above what was live before it (forward, tape and reverse sweep).
    println!(
        "{:>4} {:>12} {:>14} {:>14} {:>12}",
        "k", "time (ms)", "tape (MB)", "heap peak (MB)", "tape nodes"
    );
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16] {
        let live = live_allocated_bytes();
        reset_peak();
        let t = std::time::Instant::now();
        let (_, _, stats) = dp.cost_and_grad(&c, k, None).expect("dp");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let peak_mb = peak_allocated_bytes().saturating_sub(live) as f64 / 1e6;
        println!(
            "{k:>4} {ms:>12.1} {:>14.2} {peak_mb:>14.2} {:>12}",
            stats.tape_bytes as f64 / 1e6,
            stats.tape_nodes
        );
        rows.push(vec![
            k as f64,
            ms,
            stats.tape_bytes as f64 / 1e6,
            peak_mb,
            stats.tape_nodes as f64,
        ]);
    }
    write_csv(
        "results/ablation_refinements.csv",
        &["k", "time_ms", "tape_mb", "heap_peak_mb", "tape_nodes"],
        &rows,
    )
    .ok();
    println!();
}

fn ablation_kernels() {
    println!("== ablation: RBF kernel choice on the Laplace problem ==");
    println!("(paper §3: PHS r^3 + degree-1 polynomials chosen to avoid shape tuning)\n");
    println!(
        "{:>22} {:>12} {:>14}",
        "kernel", "J_dp(150it)", "cond estimate"
    );
    let mut rows = Vec::new();
    for (name, kernel, id) in [
        ("phs3", RbfKernel::Phs3, 0.0),
        ("phs5", RbfKernel::Phs5, 1.0),
        ("gaussian(eps=3)", RbfKernel::Gaussian(3.0), 2.0),
        ("multiquadric(eps=2)", RbfKernel::Multiquadric(2.0), 3.0),
        (
            "inv-multiquadric(2)",
            RbfKernel::InverseMultiquadric(2.0),
            4.0,
        ),
    ] {
        match LaplaceControlProblem::with_kernel(16, kernel, 1) {
            Ok(p) => {
                let cond = p.condition_estimate();
                match laplace_run(&p, Strategy::Dp, 16, 150, 50) {
                    Ok(r) => {
                        println!("{name:>22} {:>12.3e} {cond:>14.3e}", r.report.final_cost);
                        rows.push(vec![id, r.report.final_cost, cond]);
                    }
                    Err(e) => println!("{name:>22} {:>12} ({e})", "run failed"),
                }
            }
            Err(e) => println!("{name:>22} {:>12} ({e})", "singular"),
        }
    }
    write_csv(
        "results/ablation_kernels.csv",
        &["kernel_id", "j_dp", "cond"],
        &rows,
    )
    .ok();
    println!();
}

fn ablation_optimizer() {
    println!("== ablation: Adam vs plain SGD for DAL on Laplace ==");
    println!("(paper §3: Adam gave \"robustness to noisy gradients at boundaries\")\n");
    let p = LaplaceControlProblem::new(20).expect("problem");
    let iters = 200;
    // Adam path: the standard driver.
    let adam = laplace_run(&p, Strategy::Dal, 20, iters, 50).expect("adam run");
    // SGD path: same gradients, plain descent.
    let n = p.n_controls();
    let mut c = DVec::zeros(n);
    let mut sgd = Sgd::new(n, Schedule::paper_decay(1e-2, iters));
    let mut diverged = false;
    for _ in 0..iters {
        let (_, g) = p.cost_and_grad_dal(&c).expect("grad");
        sgd.step(&mut c, &g);
        if c.has_non_finite() || c.norm_inf() > 1e6 {
            diverged = true;
            break;
        }
    }
    let j_sgd = if diverged {
        f64::INFINITY
    } else {
        p.cost(&c).expect("cost")
    };
    println!("DAL + Adam : J = {:.3e}", adam.report.final_cost);
    println!(
        "DAL + SGD  : J = {:.3e}{}",
        j_sgd,
        if diverged { "  (diverged)" } else { "" }
    );
    println!(
        "=> Adam {} SGD on this problem\n",
        if adam.report.final_cost < j_sgd {
            "beats"
        } else {
            "does not beat"
        }
    );
}

fn ablation_conditioning() {
    println!("== ablation: grid vs scattered cloud conditioning ==");
    println!("(paper §3.1: the regular grid \"resulted in better conditioned\ncollocation matrices compared with a scattered point cloud of the same size\")\n");
    let classify = |p: Point2| {
        let normal = if p.y == 0.0 {
            Point2::new(0.0, -1.0)
        } else if p.y == 1.0 {
            Point2::new(0.0, 1.0)
        } else if p.x == 0.0 {
            Point2::new(-1.0, 0.0)
        } else {
            Point2::new(1.0, 0.0)
        };
        (NodeKind::Dirichlet, 1, normal)
    };
    for n_side in [8usize, 12, 16] {
        let grid = geometry::generators::unit_square_grid(n_side, n_side, classify);
        let scattered = unit_square_scattered((n_side - 2) * (n_side - 2), n_side, classify);
        let cond = |ns: &geometry::NodeSet| -> f64 {
            let a = fit_matrix(ns, RbfKernel::Phs3, PolyBasis::new(1));
            match Lu::factor(&a) {
                Ok(lu) => lu.cond_1_estimate(a.norm_1()),
                Err(_) => f64::INFINITY,
            }
        };
        println!(
            "n = {:>4}:  grid cond ~ {:.3e}   scattered cond ~ {:.3e}",
            grid.len(),
            cond(&grid),
            cond(&scattered)
        );
    }
    println!();
}

fn ablation_gradients() {
    println!("== ablation: gradient accuracy (DP vs DAL vs FD) ==");
    println!("(footnote 11: FD \"was efficient in providing accurate gradients\")\n");
    let p = LaplaceControlProblem::new(16).expect("problem");
    let c = DVec::from_fn(p.n_controls(), |i| {
        0.2 * (std::f64::consts::PI * p.control_x()[i]).sin()
    });
    // Oracle: tight central differences.
    let (_, g_oracle) = p.cost_and_grad_fd(&c, 1e-7).expect("oracle");
    let (_, g_dp) = p.cost_and_grad_dp(&c).expect("dp");
    let (_, g_fd) = p.cost_and_grad_fd(&c, 1e-5).expect("fd");
    let (_, g_dal_fn) = p.cost_and_grad_dal(&c).expect("dal");
    // Weight DAL's function-space gradient for comparability.
    let w = p.quad_weights();
    let g_dal = DVec::from_fn(g_dal_fn.len(), |i| g_dal_fn[i] * w[i]);
    let rel = |g: &DVec| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..g.len() {
            num += (g[i] - g_oracle[i]) * (g[i] - g_oracle[i]);
            den += g_oracle[i] * g_oracle[i];
        }
        (num / den).sqrt()
    };
    println!("relative error vs tight-FD oracle:");
    println!(
        "  DP  : {:.3e}   (exact discrete gradient; error = oracle noise)",
        rel(&g_dp)
    );
    println!("  FD  : {:.3e}", rel(&g_fd));
    println!(
        "  DAL : {:.3e}   (OTD bias — the paper's central observation)",
        rel(&g_dal)
    );
    println!();
}

fn ablation_sparse() {
    println!("== ablation: dense global collocation vs sparse RBF-FD ==");
    println!("(the memory-light path the paper's Table 3 discussion motivates)\n");
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12}",
        "nx", "dense bytes", "sparse bytes", "J_dense", "J_sparse"
    );
    let mut rows = Vec::new();
    for nx in [16usize, 24, 32] {
        let dense = LaplaceControlProblem::new(nx).expect("dense");
        let n = nx * nx;
        let dense_bytes = (n + 3) * (n + 3) * 8;
        let sparse = LaplaceControlProblem::new_sparse(nx).expect("sparse");
        let sparse_bytes = sparse.backend().memory_bytes();
        // One short optimization on each to compare attainable costs.
        let j_final = |p: &LaplaceControlProblem| {
            laplace_run(p, Strategy::Dp, nx, 120, 40)
                .expect("Laplace DP run")
                .report
                .final_cost
        };
        let j_dense = j_final(&dense);
        let j_sparse = j_final(&sparse);
        println!("{nx:>6} {dense_bytes:>14} {sparse_bytes:>14} {j_dense:>12.3e} {j_sparse:>12.3e}");
        rows.push(vec![
            nx as f64,
            dense_bytes as f64,
            sparse_bytes as f64,
            j_dense,
            j_sparse,
        ]);
    }
    write_csv(
        "results/ablation_sparse.csv",
        &["nx", "dense_bytes", "sparse_bytes", "j_dense", "j_sparse"],
        &rows,
    )
    .ok();
    println!();
}

fn ablation_heat() {
    println!("== extension: DP through time (heat-equation control) ==");
    println!("(the paper's future work: \"incorporate time\"; one shared LU, cheap tape)\n");
    use pde::heat::{HeatConfig, HeatControlProblem};
    println!(
        "{:>8} {:>14} {:>12} {:>12}",
        "steps", "tape (KB)", "J_initial", "J_final"
    );
    let mut rows = Vec::new();
    for n_steps in [10usize, 20, 40] {
        let p = HeatControlProblem::new(HeatConfig {
            nx: 12,
            n_steps,
            ..Default::default()
        })
        .expect("heat");
        let mut c = DVec::zeros(p.n_controls());
        let (j0, _, bytes) = p.cost_and_grad_dp(&c).expect("grad");
        let iters = 120;
        let mut adam = opt::Adam::new(c.len(), Schedule::paper_decay(5e-2, iters));
        for _ in 0..iters {
            let (_, g, _) = p.cost_and_grad_dp(&c).expect("grad");
            adam.step(&mut c, &g);
        }
        let j = p.cost(&c).expect("cost");
        println!(
            "{n_steps:>8} {:>14.1} {j0:>12.3e} {j:>12.3e}",
            bytes as f64 / 1e3
        );
        rows.push(vec![n_steps as f64, bytes as f64, j0, j]);
    }
    write_csv(
        "results/ablation_heat.csv",
        &["steps", "tape_bytes", "j0", "j_final"],
        &rows,
    )
    .ok();
    println!();
}

fn ablation_layouts() {
    println!("== ablation: grid vs scattered layout for the Laplace control run ==");
    println!("(paper §3.1: the grid was chosen for conditioning; same optimum shape)\n");
    let grid = LaplaceControlProblem::new(16).expect("grid");
    let scat = LaplaceControlProblem::new_scattered(14 * 14, 16).expect("scattered");
    let rg = laplace_run(&grid, Strategy::Dp, 16, 200, 50).expect("grid run");
    let rs = laplace_run(&scat, Strategy::Dp, 16, 200, 50).expect("scattered run");
    println!(
        "grid      : J = {:.3e}   cond ~ {:.3e}",
        rg.report.final_cost,
        grid.condition_estimate()
    );
    println!(
        "scattered : J = {:.3e}   cond ~ {:.3e}",
        rs.report.final_cost,
        scat.condition_estimate()
    );
    println!();
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "re" => ablation_re(),
        "refinements" => ablation_refinements(),
        "kernels" => ablation_kernels(),
        "optimizer" => ablation_optimizer(),
        "conditioning" => ablation_conditioning(),
        "gradients" => ablation_gradients(),
        "sparse" => ablation_sparse(),
        "heat" => ablation_heat(),
        "layouts" => ablation_layouts(),
        _ => {
            ablation_gradients();
            ablation_conditioning();
            ablation_kernels();
            ablation_optimizer();
            ablation_sparse();
            ablation_heat();
            ablation_layouts();
            ablation_refinements();
            ablation_re();
        }
    }
}
