//! Criterion benches for the dense/sparse linear algebra kernels that
//! dominate every method's per-iteration cost (backing Table 3's timings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linalg::{DMat, DVec, Lu, Triplets};
use std::hint::black_box;

fn test_matrix(n: usize) -> DMat {
    DMat::from_fn(n, n, |i, j| {
        let v = (((i * 131 + j * 31 + 7) % 997) as f64) / 997.0 - 0.5;
        if i == j {
            v + 2.0
        } else {
            v
        }
    })
}

fn bench_lu(c: &mut Criterion) {
    let mut g = c.benchmark_group("lu");
    for &n in &[64usize, 128, 256] {
        let a = test_matrix(n);
        g.bench_with_input(BenchmarkId::new("factor", n), &a, |b, a| {
            b.iter(|| Lu::factor(black_box(a)).unwrap())
        });
        let lu = Lu::factor(&a).unwrap();
        let rhs = DVec::from_fn(n, |i| (i as f64).sin());
        g.bench_with_input(BenchmarkId::new("solve", n), &lu, |b, lu| {
            b.iter(|| lu.solve(black_box(&rhs)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("solve_transpose", n), &lu, |b, lu| {
            b.iter(|| lu.solve_transpose(black_box(&rhs)).unwrap())
        });
    }
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let a = test_matrix(n);
        let b_mat = test_matrix(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(black_box(&b_mat)).unwrap())
        });
    }
    g.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse");
    for &n in &[1024usize, 4096] {
        // 1-D Poisson pattern, ~3 nnz per row.
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        let a = t.to_csr();
        let x = DVec::from_fn(n, |i| 1.0 / (1.0 + i as f64));
        g.bench_with_input(BenchmarkId::new("spmv", n), &a, |b, a| {
            b.iter(|| a.matvec(black_box(&x)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lu, bench_matmul, bench_sparse);
criterion_main!(benches);
