//! End-to-end benchmark of meshfree-oc.
//!
//! ```text
//! perfbench --workload <fig3-laplace|fig4-ns|serve-mix|campaign-grid>
//!           --seed <n> --seconds <s> --trace <0|1> [--closed-loop <0|1>]
//! ```
//!
//! Each run builds its inputs from the seed, measures whole rounds of the
//! workload's operations for about `--seconds` seconds through the public
//! API of the workspace crates, checks every answer against references
//! computed here, and prints as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics (tracing off); `--trace 1` runs the workload once
//! more with the program's trace sink and the benchmark's own timers on
//! and reports the per-layer metrics. `--closed-loop 1` (serve-mix only)
//! sends each request as soon as the previous one on its connection is
//! answered, to measure the mix's saturation rate. See
//! `perfbench/README.md`.

mod bench;
mod campaign;
mod fig3;
mod fig4;
mod reference;
mod replay;
mod schedule;
mod serve_mix;
mod stats;

use bench::{Opts, Outcome, Workload};

#[global_allocator]
static ALLOC: control::metrics::TrackingAllocator = control::metrics::TrackingAllocator;

fn main() {
    // Before anything reads the runtime configuration: an inherited
    // MESHFREE_* value must not change a workload silently.
    let ignored = bench::pin_environment();
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--closed-loop <0|1>]",
                Workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    for var in &ignored {
        eprintln!("perfbench: ignoring inherited {var}");
    }
    let width = meshfree_runtime::num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} pool_width={width} host_cores={cores}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut out = Outcome::default();
    match opts.workload {
        Workload::Fig3 => fig3::run(&opts, &mut out),
        Workload::Fig4 => fig4::run(&opts, &mut out),
        Workload::ServeMix => serve_mix::run(&opts, &mut out),
        Workload::Campaign => campaign::run(&opts, &mut out),
    }
    if let Err(e) = out.emit(opts.trace) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
