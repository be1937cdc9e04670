//! Criterion benches for the RBF discretisation layer: global collocation
//! assembly, the fit-matrix factorisation that `diff_matrices` and
//! `fit_values` pay per call, differentiation matrices, and RBF-FD
//! stencil generation — the setup costs every experiment pays once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geometry::generators::{unit_square_grid, BoundaryClass};
use geometry::{NodeKind, Point2};
use linalg::Lu;
use rbf::fd::{fd_matrix, FdConfig};
use rbf::operators::fit_matrix;
use rbf::{DiffOp, GlobalCollocation, PolyBasis, RbfKernel};
use std::hint::black_box;

fn all_dirichlet(p: Point2) -> BoundaryClass {
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
}

fn bench_collocation(c: &mut Criterion) {
    let mut g = c.benchmark_group("collocation");
    g.sample_size(10);
    for &n_side in &[10usize, 16, 24] {
        let nodes = unit_square_grid(n_side, n_side, all_dirichlet);
        g.bench_with_input(
            BenchmarkId::new("fit_factor", n_side * n_side),
            &nodes,
            |b, nodes| {
                b.iter(|| {
                    let fit = fit_matrix(black_box(nodes), RbfKernel::Phs3, PolyBasis::new(1));
                    Lu::factor(&fit).unwrap()
                })
            },
        );
        let ctx = GlobalCollocation::new(&nodes, RbfKernel::Phs3, 1);
        g.bench_with_input(
            BenchmarkId::new("pde_assemble", n_side * n_side),
            &ctx,
            |b, ctx| {
                b.iter(|| {
                    let a = ctx.assemble_with_bcs(|_, p| ctx.row(DiffOp::Lap, p), 0.0);
                    Lu::factor(black_box(&a)).unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_diff_matrices(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff_matrices");
    g.sample_size(10);
    for &n_side in &[10usize, 14] {
        let nodes = unit_square_grid(n_side, n_side, all_dirichlet);
        let ctx = GlobalCollocation::new(&nodes, RbfKernel::Phs3, 1);
        g.bench_with_input(
            BenchmarkId::from_parameter(n_side * n_side),
            &ctx,
            |b, ctx| b.iter(|| ctx.diff_matrices().unwrap()),
        );
    }
    g.finish();
}

fn bench_rbf_fd(c: &mut Criterion) {
    let mut g = c.benchmark_group("rbf_fd");
    g.sample_size(10);
    for &n_side in &[16usize, 24] {
        let nodes = unit_square_grid(n_side, n_side, all_dirichlet);
        g.bench_with_input(
            BenchmarkId::new("laplacian_matrix", n_side * n_side),
            &nodes,
            |b, nodes| {
                b.iter(|| {
                    fd_matrix(
                        black_box(nodes),
                        RbfKernel::Phs3,
                        FdConfig::default(),
                        DiffOp::Lap,
                    )
                    .unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_collocation,
    bench_diff_matrices,
    bench_rbf_fd
);
criterion_main!(benches);
