//! System-level tests of the assembled Neurocube.

use neurocube::{training_ops, Neurocube, SystemConfig};
use neurocube_fixed::Activation;
use neurocube_nn::{workloads, Executor, LayerSpec, NetworkSpec, Shape, Tensor};

fn ramp_input(shape: Shape) -> Tensor {
    let data = (0..shape.len())
        .map(|i| neurocube_fixed::Q88::from_f64(((i % 64) as f64 - 32.0) / 32.0))
        .collect();
    Tensor::from_vec(shape.channels, shape.height, shape.width, data)
}

/// The central claim: the cycle-level simulator computes *exactly* what the
/// functional reference computes — same fixed-point MACs, same LUTs, same
/// connection order — for every layer's stored output.
fn assert_bit_exact(cfg: SystemConfig, spec: NetworkSpec, seed: u64) {
    let params = spec.init_params(seed, 0.3);
    let exec = Executor::new(spec.clone(), params.clone());
    let input = ramp_input(spec.input_shape());
    let reference = exec.forward(&input);

    let mut cube = Neurocube::new(cfg);
    let loaded = cube.load(spec.clone(), params);
    let (output, report) = cube.run_inference(&loaded, &input);

    // Final output bit-exact.
    assert_eq!(output, *reference.last().unwrap(), "final output differs");
    // Every intermediate volume bit-exact too, read back as each phase
    // finalizes it (a later phase may reuse its buffer).
    let (volumes, _) = cube.run_graph_replay_collect(&loaded, &input);
    for (i, want) in reference.iter().enumerate() {
        assert_eq!(&volumes[i], want, "layer {i} output differs");
    }
    // The simulator actually did the work.
    let expected_macs: u64 = spec.macs_per_layer().iter().sum();
    let simulated: u64 = report.layers.iter().map(|l| l.macs).sum();
    assert_eq!(simulated, expected_macs);
}

#[test]
fn bit_exact_tiny_convnet_with_duplication() {
    assert_bit_exact(SystemConfig::paper(true), workloads::tiny_convnet(), 1);
}

#[test]
fn bit_exact_tiny_convnet_without_duplication() {
    assert_bit_exact(SystemConfig::paper(false), workloads::tiny_convnet(), 2);
}

#[test]
fn bit_exact_pure_mlp() {
    let spec = NetworkSpec::new(
        Shape::flat(40),
        vec![
            LayerSpec::fc(24, Activation::Tanh),
            LayerSpec::fc(8, Activation::Sigmoid),
        ],
    )
    .unwrap();
    assert_bit_exact(SystemConfig::paper(true), spec.clone(), 3);
    assert_bit_exact(SystemConfig::paper(false), spec, 4);
}

#[test]
fn bit_exact_on_fully_connected_noc() {
    assert_bit_exact(
        SystemConfig::fully_connected_noc(false),
        workloads::tiny_convnet(),
        5,
    );
}

#[test]
fn bit_exact_on_ddr3() {
    assert_bit_exact(SystemConfig::ddr3(), workloads::tiny_convnet(), 6);
}

#[test]
fn bit_exact_all_maps_convolution() {
    let spec = NetworkSpec::new(
        Shape::new(2, 10, 10),
        vec![
            LayerSpec::Conv2d {
                out_channels: 3,
                kernel: 3,
                stride: 1,
                connectivity: neurocube_nn::ConvConnectivity::AllMaps,
                activation: Activation::ReLU,
            },
            LayerSpec::fc(4, Activation::Sigmoid),
        ],
    )
    .unwrap();
    assert_bit_exact(SystemConfig::paper(true), spec, 7);
}

#[test]
fn bit_exact_strided_conv_and_pool() {
    let spec = NetworkSpec::new(
        Shape::new(1, 17, 17),
        vec![
            LayerSpec::Conv2d {
                out_channels: 2,
                kernel: 3,
                stride: 2,
                connectivity: neurocube_nn::ConvConnectivity::SingleMap,
                activation: Activation::Tanh,
            },
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::fc(5, Activation::Identity),
        ],
    )
    .unwrap();
    assert_bit_exact(SystemConfig::paper(true), spec.clone(), 8);
    assert_bit_exact(SystemConfig::paper(false), spec, 9);
}

#[test]
fn duplication_trades_memory_for_lateral_traffic_and_fc_speed() {
    // Big enough that operand traffic dominates halo maintenance (on toy
    // networks the halo fraction of a tile is enormous and duplication
    // cannot win — the paper's effect is a property of realistic tiles).
    let spec = NetworkSpec::new(
        Shape::new(1, 48, 48),
        vec![
            LayerSpec::conv(8, 5, Activation::Tanh),
            LayerSpec::AvgPool { size: 2 },
            // Wide enough (16 outputs per PE) that the FC stage actually
            // saturates the MAC arrays and the operand-supply difference
            // between mappings shows.
            LayerSpec::fc(256, Activation::Sigmoid),
        ],
    )
    .unwrap();
    let params = spec.init_params(11, 0.3);
    let input = ramp_input(spec.input_shape());

    let mut dup = Neurocube::new(SystemConfig::paper(true));
    let loaded = dup.load(spec.clone(), params.clone());
    let (out_dup, rep_dup) = dup.run_inference(&loaded, &input);

    let mut nodup = Neurocube::new(SystemConfig::paper(false));
    let loaded = nodup.load(spec, params);
    let (out_nodup, rep_nodup) = nodup.run_inference(&loaded, &input);

    assert_eq!(out_dup, out_nodup, "mapping must not change values");

    // Conv layer: duplication removes lateral *operand* traffic; what
    // remains is halo-copy write-back maintenance, far smaller.
    assert!(
        rep_dup.layers[0].lateral_packets < rep_nodup.layers[0].lateral_packets,
        "dup lateral {} vs nodup {}",
        rep_dup.layers[0].lateral_packets,
        rep_nodup.layers[0].lateral_packets
    );
    // FC layer: our compiler's spatial interleaving fine-grains the
    // shared-state broadcast across vaults, so (unlike the paper's coarse
    // Fig. 10(e) slicing) the no-dup FC layer avoids a single-vault
    // hot-spot; duplication must still not lose (see EXPERIMENTS.md).
    assert!(
        (rep_dup.layers[2].cycles as f64) < rep_nodup.layers[2].cycles as f64 * 1.1,
        "FC dup {} vs nodup {}",
        rep_dup.layers[2].cycles,
        rep_nodup.layers[2].cycles
    );
    // Duplication costs memory (Fig. 12(d)).
    assert!(rep_dup.memory_bytes > rep_nodup.memory_bytes);
    assert!(rep_dup.memory_overhead() > 0.0);
    assert!((rep_nodup.memory_overhead() - 0.0).abs() < 1e-12);
    // End to end, duplication is at worst marginally slower on this small
    // geometry and much faster on the FC stage.
    assert!(
        rep_dup.total_cycles() as f64 <= rep_nodup.total_cycles() as f64 * 1.25,
        "dup {} vs nodup {}",
        rep_dup.total_cycles(),
        rep_nodup.total_cycles()
    );
}

#[test]
fn ddr3_is_slower_than_hmc() {
    let spec = NetworkSpec::new(
        Shape::new(1, 24, 24),
        vec![LayerSpec::conv(4, 5, Activation::Tanh)],
    )
    .unwrap();
    let params = spec.init_params(13, 0.3);
    let input = ramp_input(spec.input_shape());

    let mut hmc = Neurocube::new(SystemConfig::paper(false));
    let loaded = hmc.load(spec.clone(), params.clone());
    let (out_hmc, rep_hmc) = hmc.run_inference(&loaded, &input);

    let mut ddr3 = Neurocube::new(SystemConfig::ddr3());
    let loaded = ddr3.load(spec, params);
    let (out_ddr3, rep_ddr3) = ddr3.run_inference(&loaded, &input);

    assert_eq!(
        out_hmc, out_ddr3,
        "memory technology must not change values"
    );
    assert!(
        rep_ddr3.total_cycles() > 2 * rep_hmc.total_cycles(),
        "DDR3 {} vs HMC {}",
        rep_ddr3.total_cycles(),
        rep_hmc.total_cycles()
    );
    // DDR3's two injection points force nearly all traffic across the mesh.
    assert!(rep_ddr3.lateral_fraction() > 0.5);
}

#[test]
fn training_step_runs_all_passes() {
    let spec = workloads::tiny_convnet();
    let params = spec.init_params(17, 0.3);
    let input = ramp_input(spec.input_shape());
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec.clone(), params);
    let report = cube.run_training_step(&loaded, &input);

    // Pass count: forward (4) + backward passes.
    let expected_passes: usize = (0..spec.depth())
        .map(|i| neurocube::training_passes(&spec.layers()[i], i == 0).len())
        .sum();
    assert_eq!(report.layers.len(), expected_passes);

    // Simulated training ops match the analytical schedule.
    let simulated: u64 = report.layers.iter().map(|l| l.ops()).sum();
    assert_eq!(simulated, training_ops(&spec));
    // Training throughput is in the same regime as inference (the paper's
    // 126.8 vs 132.4 GOPs/s relationship).
    assert!(report.throughput_gops() > 0.0);
}

#[test]
fn channel_count_sweep_is_monotone() {
    let spec = NetworkSpec::new(
        Shape::new(1, 24, 24),
        vec![LayerSpec::conv(4, 5, Activation::Tanh)],
    )
    .unwrap();
    let params = spec.init_params(19, 0.3);
    let input = ramp_input(spec.input_shape());
    let mut cycles = Vec::new();
    for ch in [2, 4, 8, 16] {
        let mut cube = Neurocube::new(SystemConfig::hmc_with_channels(ch));
        let loaded = cube.load(spec.clone(), params.clone());
        let (_, rep) = cube.run_inference(&loaded, &input);
        cycles.push(rep.total_cycles());
    }
    for w in cycles.windows(2) {
        assert!(w[1] <= w[0], "more channels must not be slower: {cycles:?}");
    }
    assert!(
        cycles[0] > cycles[3] * 2,
        "2 channels should be much slower than 16: {cycles:?}"
    );
}

fn conv_net(input: usize, maps: usize, kernel: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, input, input),
        vec![LayerSpec::conv(maps, kernel, Activation::Tanh)],
    )
    .unwrap()
}

/// One inference of `spec` (weights from seed 1) on a fresh cube: total
/// cycles, per-layer cycles and the digest of the final registry.
fn pinned_inference(cfg: SystemConfig, spec: &NetworkSpec) -> (u64, Vec<u64>, u64) {
    let mut cube = Neurocube::new(cfg);
    let loaded = cube.load(spec.clone(), spec.init_params(1, 0.25));
    let (_, report) = cube.run_inference(&loaded, &ramp_input(spec.input_shape()));
    let layers = report.layers.iter().map(|l| l.cycles).collect();
    (
        report.total_cycles(),
        layers,
        cube.stats_registry().digest(),
    )
}

/// A linear network loads and runs as its trivial graph. The single-layer
/// constants were recorded at 8de9fbe, when chains still had a placement
/// and a runner of their own, and are unchanged: one layer is placed and
/// timed exactly as before, down to every registry series. Multi-layer
/// chains moved, each for a stated cause (parent values in comments):
/// - recycled buffers land on other DRAM rows, and FC weights now sit
///   below the state volumes (placement);
/// - pipelined hand-offs no longer round every layer up to the cycle
///   loop's 64-cycle completion check (hand-off).
#[test]
fn linear_networks_run_as_their_graph() {
    // The ledger's smoke-scale `conv_saturated` and `ddr3_idle` shapes.
    assert_eq!(
        pinned_inference(SystemConfig::paper(false), &conv_net(16, 4, 3)),
        (896, vec![896], 0xda2f_1888_1d0c_898d)
    );
    assert_eq!(
        pinned_inference(SystemConfig::ddr3(), &conv_net(12, 4, 3)),
        (29_696, vec![29_696], 0x36ba_9785_f403_edd0)
    );

    // Parent: 2 816 cycles as [768, 256, 1664, 128].
    let tiny = workloads::tiny_convnet();
    let (cycles, layers, _) = pinned_inference(SystemConfig::paper(true), &tiny);
    assert_eq!((cycles, layers), (2_816, vec![780, 252, 1_637, 147]));
    // Parent: 14 336 cycles as [13312, 1024].
    let mlp = workloads::mnist_mlp(64);
    let (cycles, layers, _) = pinned_inference(SystemConfig::paper(true), &mlp);
    assert_eq!((cycles, layers), (14_016, vec![12_950, 1_066]));

    // Parent: 9 088 cycles. Every pass is its own programmed run, so only
    // placement moves it.
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(tiny.clone(), tiny.init_params(1, 0.25));
    let step = cube.run_training_step(&loaded, &ramp_input(tiny.input_shape()));
    assert_eq!(step.total_cycles(), 9_152);
}

/// Fig. 12(d) stays *duplication* overhead: every buffer duplicated as
/// placed and live at once, plus the weights, over one copy of each —
/// the values the all-live linear placement reported at 8de9fbe. The
/// peak live footprint, after buffer reuse, is the program's
/// `total_bytes()`.
#[test]
fn memory_overhead_is_fig12d_duplication_overhead() {
    let scene = workloads::scene_labeling(64, 80).unwrap();
    for (spec, bytes, minimal, overhead_bits) in [
        (scene, 6_446_088, 6_240_688, 0x3fa0_d9fa_49de_42a3u64),
        (
            conv_net(128, 16, 7),
            518_920,
            509_056,
            0x3f93_d793_57dd_7f63,
        ),
    ] {
        let mut cube = Neurocube::new(SystemConfig::paper(true));
        let loaded = cube.load(spec.clone(), spec.init_params(1, 0.25));
        let prog = loaded.program();
        let report = neurocube::RunReport {
            memory_bytes: prog.duplicated_bytes(),
            memory_minimal_bytes: prog.minimal_bytes(),
            ..Default::default()
        };
        assert_eq!(
            (report.memory_bytes, report.memory_minimal_bytes),
            (bytes, minimal)
        );
        assert_eq!(report.memory_overhead().to_bits(), overhead_bits);
        assert!(prog.total_bytes() <= bytes);
    }
}
