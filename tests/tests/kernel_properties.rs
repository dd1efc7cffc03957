//! Properties of the simulation kernel as used by the full system: the
//! stats registry's accounting identities, batch-vs-serial bitwise
//! identity, and watchdog behaviour on healthy workloads.
//!
//! (The crafted-stall watchdog test lives in `neurocube::system`'s unit
//! tests, where the pipeline stages are accessible.)

use neurocube::{Neurocube, SystemConfig};
use neurocube_bench::{run_inference, run_sweep};
use neurocube_fixed::{Activation, Q88};
use neurocube_nn::{LayerSpec, NetworkSpec, Shape, Tensor};

fn small_net() -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, 20, 16),
        vec![
            LayerSpec::conv(4, 3, Activation::Tanh),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::fc(10, Activation::Sigmoid),
        ],
    )
    .unwrap()
}

fn input_for(spec: &NetworkSpec) -> Tensor {
    let s = spec.input_shape();
    Tensor::from_vec(
        s.channels,
        s.height,
        s.width,
        (0..s.len())
            .map(|i| Q88::from_f64((((i * 31) % 128) as f64 - 64.0) / 64.0))
            .collect(),
    )
}

#[test]
fn counters_are_monotonic_across_layers() {
    let spec = small_net();
    let params = spec.init_params(9, 0.25);
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec.clone(), params);
    let input = input_for(&spec);
    // Each run attributes its phases by diffing the registry at every
    // phase boundary, and diff() panics if any counter decreased; chaining
    // the snapshots between runs covers the run boundaries too.
    let mut snapshots = vec![cube.stats_registry()];
    let _ = cube.run_inference(&loaded, &input);
    snapshots.push(cube.stats_registry());
    let _ = cube.run_graph_replay(&loaded, &input);
    snapshots.push(cube.stats_registry());
    let _ = cube.run_training_step(&loaded, &input);
    snapshots.push(cube.stats_registry());
    let mut total_macs = 0;
    for pair in snapshots.windows(2) {
        let delta = pair[1].diff(&pair[0]);
        total_macs += delta.sum_suffix(".mac_ops");
    }
    assert!(total_macs > 0, "the network must do arithmetic");
    assert_eq!(
        total_macs,
        snapshots.last().unwrap().sum_suffix(".mac_ops"),
        "per-run deltas must add up to the lifetime total"
    );
}

#[test]
fn layer_reports_sum_to_whole_run_registry_totals() {
    let spec = small_net();
    let params = spec.init_params(9, 0.25);
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec.clone(), params);
    let (_, report) = cube.run_inference(&loaded, &input_for(&spec));
    let reg = cube.stats_registry();
    // The cube was fresh, so lifetime totals equal the sums of the
    // per-layer diffs the reports were built from.
    let macs: u64 = report.layers.iter().map(|l| l.macs).sum();
    let packets: u64 = report.layers.iter().map(|l| l.packets).sum();
    let lateral: u64 = report.layers.iter().map(|l| l.lateral_packets).sum();
    let bits: u64 = report.layers.iter().map(|l| l.dram_bits).sum();
    let rows: u64 = report.layers.iter().map(|l| l.row_misses).sum();
    let energy: f64 = report.layers.iter().map(|l| l.dram_energy_j).sum();
    assert_eq!(macs, reg.sum_suffix(".mac_ops"));
    assert_eq!(packets, reg.counter("noc.delivered"));
    assert_eq!(lateral, reg.counter("noc.lateral"));
    assert_eq!(bits, reg.counter("mem.bits_transferred"));
    assert_eq!(rows, reg.counter("mem.row_misses"));
    assert!((energy - reg.metric("mem.energy_j")).abs() <= 1e-12 * energy.abs().max(1.0));
}

#[test]
fn registry_exports_agree_with_counters() {
    let spec = small_net();
    let params = spec.init_params(9, 0.25);
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec.clone(), params);
    let _ = cube.run_inference(&loaded, &input_for(&spec));
    let reg = cube.stats_registry();
    let csv = reg.to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let values: Vec<&str> = lines.next().unwrap().split(',').collect();
    assert_eq!(header.len(), values.len());
    let col = header
        .iter()
        .position(|&k| k == "noc.delivered")
        .expect("noc.delivered exported");
    assert_eq!(
        values[col].parse::<u64>().unwrap(),
        reg.counter("noc.delivered")
    );
    let json = reg.to_json();
    assert!(json.contains(&format!(
        "\"noc.delivered\":{}",
        reg.counter("noc.delivered")
    )));
}

#[test]
fn batch_sweep_is_bitwise_identical_to_serial() {
    let spec = small_net();
    let jobs: Vec<(SystemConfig, NetworkSpec, u64)> = vec![
        (SystemConfig::paper(true), spec.clone(), 1),
        (SystemConfig::paper(false), spec.clone(), 2),
        (SystemConfig::fully_connected_noc(true), spec.clone(), 3),
        // Deliberately identical to job 0 — same seed, not just same
        // config: the `sparsity.*` counters classify real operand values,
        // so only a bit-identical job is registry-identical.
        (SystemConfig::paper(true), spec, 1),
    ];
    let batch = run_sweep(&jobs);
    for (i, (cfg, spec, seed)) in jobs.iter().enumerate() {
        let serial = run_inference(cfg.clone(), spec, *seed);
        assert_eq!(
            serial, batch[i].0,
            "job {i}: batch report differs from serial"
        );
    }
    // Identical jobs must also produce identical registries (full
    // counter-level determinism, not just report-level).
    assert_eq!(batch[0].1, batch[3].1);
    assert_eq!(batch[0].0, batch[3].0);
}

#[test]
fn healthy_layers_never_trip_the_watchdog() {
    // A normal layer completes (far) inside the 2M-cycle idle budget; the
    // watchdog only sees forward progress. Completion of run_inference is
    // the proof — a trip would panic.
    let spec = small_net();
    let (report, _) = {
        let params = spec.init_params(9, 0.25);
        let mut cube = Neurocube::new(SystemConfig::paper(true));
        let loaded = cube.load(spec.clone(), params);
        let (_, report) = cube.run_inference(&loaded, &input_for(&spec));
        (report, cube)
    };
    for l in &report.layers {
        assert!(l.cycles > 0);
    }
}
