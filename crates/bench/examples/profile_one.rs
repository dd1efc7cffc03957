//! Per-stage wall-clock profile of one `bench_sim` workload.
//!
//! Runs exactly one workload from the benchmark table in one mode, so the
//! `NEUROCUBE_STAGE_PROFILE=1` breakdown is attributable to a single run:
//!
//! ```text
//! NEUROCUBE_STAGE_PROFILE=1 cargo run --release -p neurocube-bench \
//!     --example profile_one -- fig14_conv_k7_nodup skip
//! ```
//!
//! The second argument is `skip`, `naive`, or omitted (follow `NEUROCUBE_NO_SKIP`).
//! An optional third argument repeats the run N times and reports the
//! fastest (wall-clock noise on shared hardware swamps single runs). An
//! optional fourth argument is a substring filter: every final-registry
//! counter whose key contains it is printed (e.g. `stalls` to see where
//! the PNGs spent their null ticks).
//! Run with no arguments to list the workload names.

use neurocube_bench::{bench_workloads, run_inference_mode, run_inference_stats};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workloads = bench_workloads();
    let Some(name) = args.first() else {
        eprintln!("usage: profile_one <workload> [skip|naive]");
        for w in &workloads {
            eprintln!("  {}", w.name);
        }
        std::process::exit(2);
    };
    let w = workloads
        .iter()
        .find(|w| w.name == *name)
        .unwrap_or_else(|| panic!("unknown workload {name:?} (run with no args for the list)"));
    let skip = match args.get(1).map(String::as_str) {
        Some("skip") => Some(true),
        Some("naive") => Some(false),
        None => None,
        Some(other) => panic!("unknown mode {other:?} (want skip|naive)"),
    };
    let reps: u32 = args
        .get(2)
        .map(|s| s.parse().expect("reps must be an integer"))
        .unwrap_or(1);
    let mut best_secs = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (report, _, telemetry) = run_inference_mode(w.cfg.clone(), &w.spec, w.seed, skip);
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
        last = Some((report, telemetry));
    }
    let (report, telemetry) = last.expect("at least one rep");
    let cycles = report.total_cycles();
    println!(
        "{}: {} cycles in {:.3}s = {:.0} cycles/s ({} jumps, {} skipped)",
        w.name,
        cycles,
        best_secs,
        cycles as f64 / best_secs,
        telemetry.horizon_jumps,
        telemetry.skipped_cycles,
    );
    if let Some(filter) = args.get(3) {
        let (_, stats) = run_inference_stats(w.cfg.clone(), &w.spec, w.seed);
        for (key, value) in stats.counters() {
            if key.contains(filter.as_str()) {
                println!("  {key} = {value}");
            }
        }
    }
}
