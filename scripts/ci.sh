#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, golden-run regression.
# No network access required — the two external crates in the manifest
# graph (proptest, criterion) resolve to local stand-ins under
# third_party/stubs/ (see DESIGN.md §3).
#
# Usage: scripts/ci.sh [--with-features]
#   --with-features  additionally build/test the optional feature surface
#                    (proptest property tests, bench-criterion harness).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release (workspace: the serve smoke needs the daemon binary)"
cargo build --release --workspace

echo "==> cargo test (default features)"
cargo test -q --workspace

echo "==> rustdoc (no-deps, deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> perf suite smoke + trajectory gate"
# Quick measure exercises every timed kernel end-to-end (including the
# {1,2,8} thread sweep clamped to the host's threads, whose dense kernels
# always run at full size and rep counts); its output goes to target/ so
# CI never dirties the committed trajectory. The verify passes gate both
# snapshots: every required entry present, and the two hard sweep gates —
# the 1.5x single-thread win of the tiled lu_factor over the unblocked
# reference, timed interleaved, and the per-width scaling floors —
# cleared. Most timings are a soft report (hardware varies); the
# structure plus those gates are the hard contract.
cargo run -q --release -p meshfree-bench --bin perf_suite -- \
    measure --quick --out target/BENCH_perf_ci.json --baseline BENCH_perf.json
cargo run -q --release -p meshfree-bench --bin perf_suite -- verify BENCH_perf.json
cargo run -q --release -p meshfree-bench --bin perf_suite -- verify target/BENCH_perf_ci.json

echo "==> thread-sweep scaling gate"
# A standalone sweep snapshot through the `sweep` subcommand, then the
# same verify gate: proves the sweep CLI path works and re-checks the
# scaling floors on the machine actually running CI.
cargo run -q --release -p meshfree-bench --bin perf_suite -- \
    sweep --quick --out target/BENCH_sweep_ci.json
cargo run -q --release -p meshfree-bench --bin perf_suite -- verify target/BENCH_sweep_ci.json

echo "==> golden-run regression gate"
# The workspace test pass above already ran the comparator; this explicit
# pass re-runs it with MESHFREE_BLESS cleared so an exported bless flag in
# the CI environment can never mask drift by silently rewriting snapshots.
if [[ "${MESHFREE_BLESS:-}" != "" ]]; then
    echo "    (ignoring MESHFREE_BLESS=${MESHFREE_BLESS} — CI never blesses)"
fi
env -u MESHFREE_BLESS cargo test -q --test golden_runs
# `--porcelain` also catches untracked snapshots (a locally blessed golden
# that was never committed), which `git diff` alone would miss.
if [[ -n "$(git status --porcelain -- tests/golden)" ]]; then
    echo "ERROR: tests/golden/ has uncommitted drift — bless locally and commit the diff" >&2
    git status --short -- tests/golden >&2
    exit 1
fi

echo "==> campaign driver smoke (retry path, fault injection)"
# An 8-spec campaign with one injected NaN-diverging spec, one Laplace run
# on the sparse RBF-FD backend (envelope LU), one Navier–Stokes run on the RBF-FD
# saddle backend (band LU per sweep), one second-order (Newton-CG DAL) Laplace
# run, and one amortized (neural-op surrogate) Laplace run: the example
# asserts exactly one spec was retried, none were lost, and the neural-op
# ledger record's audit gap |final - penultimate cost| / final is at most
# 0.05, exiting non-zero otherwise — the driver's fault tolerance, the
# non-default linear-solver backends (both PDEs), the optimizer selection
# and the surrogate's accuracy are exercised end-to-end on every CI run.
cargo run -q --release --example campaign -- --smoke

echo "==> serve daemon smoke (cache amortization over the wire)"
# Six run requests sharing one Laplace geometry through a live daemon on
# the stdin JSONL protocol: the client asserts exactly one build plus
# cache hits for the rest, one terminal record per request, a `done`
# acknowledgement, a clean exit, and that the served result is bitwise
# identical to direct in-process execution.
cargo run -q --release --example serve_client -- --smoke

echo "==> per-crate test counts"
total=0
for manifest in crates/*/Cargo.toml Cargo.toml; do
    crate=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n1)
    count=$(cargo test -q -p "$crate" -- --list 2>/dev/null | grep -c ': test$' || true)
    printf '    %-20s %4d tests\n' "$crate" "$count"
    total=$((total + count))
done
printf '    %-20s %4d tests\n' "TOTAL" "$total"

if [[ "${1:-}" == "--with-features" ]]; then
    echo "==> cargo test --features proptest"
    cargo test -q --workspace --features proptest

    echo "==> bench harness compiles (bench-criterion)"
    cargo build -q -p meshfree-bench --benches --features bench-criterion
fi

echo "CI OK"
