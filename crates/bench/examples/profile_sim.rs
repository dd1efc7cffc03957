//! Developer profiling driver: one workload, both loop modes, each with
//! the cube's stage profile on (`Neurocube::set_stage_profile`), so the
//! kernel's per-stage wall-clock breakdown is printed to stderr. Usage:
//!
//! ```sh
//! cargo run --release -p neurocube-bench \
//!     --example profile_sim [conv_k7|conv_k3|fc|ddr3]
//! ```

use neurocube::{Neurocube, SystemConfig};
use neurocube_bench::ramp_input;
use neurocube_fixed::Activation;
use neurocube_nn::{LayerSpec, NetworkSpec, Shape};
use std::time::Instant;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "conv_k7".into());
    let (cfg, spec) = match which.as_str() {
        "conv_k3" => (
            SystemConfig::paper(true),
            NetworkSpec::new(
                Shape::new(1, 128, 128),
                vec![LayerSpec::conv(16, 3, Activation::Tanh)],
            )
            .unwrap(),
        ),
        "fc" => (
            SystemConfig::paper(true),
            NetworkSpec::new(
                Shape::flat(2048),
                vec![LayerSpec::fc(1024, Activation::Sigmoid)],
            )
            .unwrap(),
        ),
        "ddr3" => (
            SystemConfig::ddr3(),
            NetworkSpec::new(
                Shape::new(1, 96, 96),
                vec![LayerSpec::conv(16, 7, Activation::Tanh)],
            )
            .unwrap(),
        ),
        _ => (
            SystemConfig::paper(false),
            NetworkSpec::new(
                Shape::new(1, 128, 128),
                vec![LayerSpec::conv(16, 7, Activation::Tanh)],
            )
            .unwrap(),
        ),
    };
    for skip in [false, true] {
        eprintln!("=== {which} skip={skip} ===");
        let t0 = Instant::now();
        let mut cube = Neurocube::new(cfg.clone());
        cube.set_cycle_skip(skip);
        cube.set_stage_profile(true);
        let loaded = cube.load(spec.clone(), spec.init_params(14, 0.25));
        let (_, report) = cube.run_inference(&loaded, &ramp_input(&spec));
        eprintln!(
            "total {:.2}s for {} cycles ({} skipped in {} jumps)",
            t0.elapsed().as_secs_f64(),
            report.total_cycles(),
            cube.skipped_cycles(),
            cube.horizon_jumps(),
        );
    }
}
