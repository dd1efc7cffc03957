//! Exhaustive sweep of the small-map corner: every 1×h×h → conv → optional
//! pool → FC 2 network for h ∈ 1..=8, run on the cube and compared with the
//! functional reference. Every geometry whose spatial part ends on a 1×1
//! map lies in this range, and it is enumerated, not sampled: nothing here
//! draws at random.
//!
//! Each run must return the reference's output bit for bit and perform
//! exactly the spec's MAC count. A dropped packet or an ignored completion
//! fails the run too, through the cube's own per-pass check.

use neurocube::{Neurocube, SystemConfig};
use neurocube_fixed::{AccumulatorWidth, Activation, Q88};
use neurocube_nn::{ConvConnectivity, Executor, LayerSpec, NetworkSpec, Shape, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Input side lengths swept.
const SIDES: std::ops::RangeInclusive<usize> = 1..=8;
const KERNELS: [usize; 4] = [1, 2, 3, 5];
const STRIDES: [usize; 3] = [1, 2, 3];
/// Pool sizes after the conv; `None` feeds the conv straight into the FC.
const POOLS: [Option<usize>; 3] = [None, Some(2), Some(3)];

/// `1×h×h → conv(2 maps, k, s) → [pool] → FC 2`, or `None` when the
/// geometry is invalid (kernel larger than the map, or a spatial operator
/// over a 1×1 map).
fn network(h: usize, kernel: usize, stride: usize, pool: Option<usize>) -> Option<NetworkSpec> {
    let mut layers = vec![LayerSpec::Conv2d {
        out_channels: 2,
        kernel,
        stride,
        connectivity: ConvConnectivity::SingleMap,
        activation: Activation::Tanh,
    }];
    if let Some(size) = pool {
        layers.push(LayerSpec::AvgPool { size });
    }
    layers.push(LayerSpec::fc(2, Activation::Identity));
    NetworkSpec::new(Shape::new(1, h, h), layers).ok()
}

/// Every valid geometry of the sweep, with a name for failure reports.
fn geometries() -> Vec<(String, NetworkSpec)> {
    let mut out = Vec::new();
    for h in SIDES {
        for k in KERNELS {
            for s in STRIDES {
                for pool in POOLS {
                    if let Some(spec) = network(h, k, s, pool) {
                        let pool = pool.map_or("none".to_string(), |p| p.to_string());
                        out.push((format!("1x{h}x{h} conv k{k} s{s} pool {pool}"), spec));
                    }
                }
            }
        }
    }
    out
}

/// A deterministic input with both signs and a spread of magnitudes.
fn input_for(spec: &NetworkSpec, seed: u64) -> Tensor {
    let s = spec.input_shape();
    let values = (0..s.len() as u64)
        .map(|i| Q88::from_bits(((i.wrapping_mul(2_654_435_761) ^ seed) % 700) as i16 - 350))
        .collect();
    Tensor::from_vec(s.channels, s.height, s.width, values)
}

/// Runs `spec` on a fresh cube and checks it against the reference.
fn check(cfg: SystemConfig, spec: &NetworkSpec, seed: u64) {
    let params = spec.init_params(seed, 0.4);
    let reference = Executor::with_accumulator(spec.clone(), params.clone(), cfg.accumulator);
    let input = input_for(spec, seed);
    let expected = reference.predict(&input);

    let mut cube = Neurocube::new(cfg);
    let loaded = cube.load(spec.clone(), params);
    let (output, report) = cube.run_inference(&loaded, &input);
    let want: u64 = spec.macs_per_layer().iter().sum();
    let got: u64 = report.layers.iter().map(|l| l.macs).sum();
    assert_eq!(got, want, "MAC count differs from the spec");
    assert_eq!(output, expected, "output differs from the reference");
}

/// Runs every case, collecting failures (a panic is a failure too) so that
/// one report names every failing geometry.
fn sweep(cases: &[(String, NetworkSpec)], configs: &[(&str, SystemConfig)]) {
    let mut failures = Vec::new();
    for (cfg_name, cfg) in configs {
        for (seed, (name, spec)) in cases.iter().enumerate() {
            let run = catch_unwind(AssertUnwindSafe(|| check(cfg.clone(), spec, seed as u64)));
            if run.is_err() {
                failures.push(format!("{cfg_name}: {name}"));
            }
        }
    }
    let runs = cases.len() * configs.len();
    assert!(
        failures.is_empty(),
        "{} of {runs} runs failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The paper cube with the per-step-saturating 16-bit accumulator.
fn narrow_cfg() -> SystemConfig {
    SystemConfig {
        accumulator: AccumulatorWidth::Narrow16,
        ..SystemConfig::paper(true)
    }
}

#[test]
fn every_small_geometry_is_exact_on_the_paper_cube() {
    let cases = geometries();
    assert_eq!(cases.len(), 152, "the sweep's valid geometries");
    sweep(
        &cases,
        &[
            ("paper(true)", SystemConfig::paper(true)),
            ("paper(false)", SystemConfig::paper(false)),
        ],
    );
}

/// The DDR3 system on the geometries whose spatial part ends on a 1×1
/// map, where the layout decision changes.
#[test]
fn one_by_one_maps_are_exact_on_ddr3() {
    let cases: Vec<_> = geometries()
        .into_iter()
        .filter(|(_, spec)| {
            let shapes = spec.shapes();
            let last_spatial = shapes[shapes.len() - 2];
            (last_spatial.height, last_spatial.width) == (1, 1)
        })
        .collect();
    assert!(!cases.is_empty());
    sweep(&cases, &[("ddr3", SystemConfig::ddr3())]);
}

/// The shrunk counterexample of the randomized `bit_exactness` suite:
/// 1×10×10 → conv k5 s2 (3×3) → pool 2 (1×1) → FC 2.
fn pooled_to_one_pixel() -> NetworkSpec {
    let spec = network(10, 5, 2, Some(2)).expect("valid geometry");
    assert_eq!(spec.shapes()[2], Shape::new(2, 1, 1));
    spec
}

#[test]
fn conv_pooled_to_one_pixel_is_exact_with_duplication() {
    check(SystemConfig::paper(true), &pooled_to_one_pixel(), 7);
}

#[test]
fn conv_pooled_to_one_pixel_is_exact_with_narrow_accumulator() {
    check(narrow_cfg(), &pooled_to_one_pixel(), 7);
}

/// The paper's scene-labeling network at its smallest inputs, where L5's
/// output is 1×1. About a second each in release and ten in debug, so it
/// runs only in release builds (`ci.sh --deep`).
#[cfg(not(debug_assertions))]
#[test]
fn scene_labeling_at_its_minimum_input_is_exact() {
    for side in [46, 47] {
        let spec = neurocube_nn::workloads::scene_labeling(side, side).expect("valid geometry");
        assert_eq!(spec.shapes()[5], Shape::new(256, 1, 1));
        check(SystemConfig::paper(true), &spec, side as u64);
    }
}
