//! Ambient process state cannot change a simulated result: a cube is
//! configured by the values its caller sets, never by the environment.
//!
//! This binary holds exactly one test, so nothing else in the process can
//! race on the environment while it is mutated.

use neurocube::{FaultSummary, Neurocube, SystemConfig};
use neurocube_fixed::Q88;
use neurocube_nn::workloads;

/// Everything a run reports that a stray knob could move.
#[derive(Debug, PartialEq)]
struct Observed {
    output: Vec<Q88>,
    digest: u64,
    skipped_cycles: u64,
    fault: Option<FaultSummary>,
}

fn run() -> Observed {
    let spec = workloads::tiny_convnet();
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec.clone(), spec.init_params(5, 0.25));
    let (output, _) = cube.run_inference(&loaded, &neurocube_bench::ramp_input(&spec));
    Observed {
        output: output.as_slice().to_vec(),
        digest: cube.stats_registry().digest(),
        skipped_cycles: cube.skipped_cycles(),
        fault: cube.fault_summary(),
    }
}

#[test]
fn neurocube_variables_do_not_change_a_run() {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("NEUROCUBE_"))
        .collect();
    for name in stale {
        std::env::remove_var(name);
    }
    let clean = run();
    assert!(clean.skipped_cycles > 0, "fast-forward is on by default");
    assert_eq!(clean.fault, None, "no injector unless one is set");

    for (name, value) in [
        ("NEUROCUBE_NO_SKIP", "1"),
        ("NEUROCUBE_FAULT_RATE", "1e-3"),
        ("NEUROCUBE_FAULT_ECC", "1"),
        ("NEUROCUBE_STAGE_PROFILE", "1"),
    ] {
        std::env::set_var(name, value);
    }
    assert_eq!(run(), clean, "a NEUROCUBE_* variable changed the run");
}
