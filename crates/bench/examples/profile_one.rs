//! Per-stage wall-clock profile of one Fig. 14/15 workload.
//!
//! Runs exactly one workload from the table below in one mode with the
//! cube's stage profile on (`Neurocube::set_stage_profile`), so the
//! per-stage breakdown printed to stderr is attributable to a single run:
//!
//! ```text
//! cargo run --release -p neurocube-bench \
//!     --example profile_one -- fig14_conv_k7_nodup skip
//! ```
//!
//! The second argument is `skip` (the default when omitted) or `naive`.
//! An optional third argument repeats the run N times and reports the
//! fastest (wall-clock noise on shared hardware swamps single runs). An
//! optional fourth argument is a substring filter: every final-registry
//! counter whose key contains it is printed (e.g. `stalls` to see where
//! the PNGs spent their null ticks).
//! Run with no arguments to list the workload names.

use neurocube::{Neurocube, SystemConfig};
use neurocube_bench::{ramp_input, run_inference_stats};
use neurocube_fixed::Activation;
use neurocube_nn::{LayerSpec, NetworkSpec, Shape};
use std::time::Instant;

/// One profiled workload: a system configuration, a network shape and a
/// parameter seed.
struct Workload {
    name: &'static str,
    cfg: SystemConfig,
    spec: NetworkSpec,
    seed: u64,
}

fn conv_net(input: usize, maps: usize, kernel: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, input, input),
        vec![LayerSpec::conv(maps, kernel, Activation::Tanh)],
    )
    .expect("geometry fits")
}

fn fc_net(inputs: usize, hidden: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::flat(inputs),
        vec![LayerSpec::fc(hidden, Activation::Sigmoid)],
    )
    .expect("geometry fits")
}

/// The Fig. 14/15 shapes the sweeps spend their wall-clock on: the conv
/// kernel sweep's end points (with and without duplication), the FC
/// hidden-width sweep, the Fig. 15 channel-count extremes and the DDR3
/// baseline whose two injection points leave the fabric mostly idle.
fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "fig14_conv_k3_dup",
            cfg: SystemConfig::paper(true),
            spec: conv_net(128, 16, 3),
            seed: 14,
        },
        Workload {
            name: "fig14_conv_k7_nodup",
            cfg: SystemConfig::paper(false),
            spec: conv_net(128, 16, 7),
            seed: 14,
        },
        Workload {
            name: "fig14_fc_2048x1024_dup",
            cfg: SystemConfig::paper(true),
            spec: fc_net(2048, 1024),
            seed: 14,
        },
        Workload {
            name: "fig15_conv96_hmc16",
            cfg: SystemConfig::hmc_with_channels(16),
            spec: conv_net(96, 16, 7),
            seed: 15,
        },
        Workload {
            name: "fig15_conv96_ddr3",
            cfg: SystemConfig::ddr3(),
            spec: conv_net(96, 16, 7),
            seed: 15,
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workloads = workloads();
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
        Some("skip") | None => true,
        Some("naive") => false,
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
        let mut cube = Neurocube::new(w.cfg.clone());
        cube.set_cycle_skip(skip);
        cube.set_stage_profile(true);
        let loaded = cube.load(w.spec.clone(), w.spec.init_params(w.seed, 0.25));
        let (_, report) = cube.run_inference(&loaded, &ramp_input(&w.spec));
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
        last = Some((report, cube.horizon_jumps(), cube.skipped_cycles()));
    }
    let (report, jumps, skipped) = last.expect("at least one rep");
    let cycles = report.total_cycles();
    println!(
        "{}: {} cycles in {:.3}s = {:.0} cycles/s ({} jumps, {} skipped)",
        w.name,
        cycles,
        best_secs,
        cycles as f64 / best_secs,
        jumps,
        skipped,
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
