//! The reproduction's central invariant, exercised with randomized network
//! geometries: the cycle-level Neurocube simulator computes **bit-for-bit**
//! the same values as the functional fixed-point reference, under every
//! mapping, memory configuration and MAC accumulator width.

use neurocube::{Neurocube, SystemConfig};
use neurocube_fixed::{AccumulatorWidth, Activation, Q88};
use neurocube_nn::{ConvConnectivity, Executor, LayerSpec, NetworkSpec, Shape, Tensor};
use proptest::prelude::*;

fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Identity),
        Just(Activation::ReLU),
        Just(Activation::Sigmoid),
        Just(Activation::Tanh),
    ]
}

/// Random small-but-nontrivial network: conv (maybe strided) → optional
/// pool → fc, over a random input volume.
fn network_strategy() -> impl Strategy<Value = NetworkSpec> {
    (
        1usize..3,                                   // input channels
        10usize..18,                                 // height
        10usize..18,                                 // width
        2usize..6,                                   // conv out channels
        prop_oneof![Just(2usize), Just(3), Just(5)], // kernel
        1usize..3,                                   // stride
        any::<bool>(),                               // all-maps connectivity
        any::<bool>(),                               // pooling present
        2usize..12,                                  // fc outputs
        activation_strategy(),
        activation_strategy(),
    )
        .prop_filter_map(
            "geometry must be valid",
            |(c, h, w, oc, k, s, all_maps, pool, fc, a1, a2)| {
                let mut layers = vec![LayerSpec::Conv2d {
                    out_channels: oc,
                    kernel: k,
                    stride: s,
                    connectivity: if all_maps {
                        ConvConnectivity::AllMaps
                    } else {
                        ConvConnectivity::SingleMap
                    },
                    activation: a1,
                }];
                if pool {
                    layers.push(LayerSpec::AvgPool { size: 2 });
                }
                layers.push(LayerSpec::fc(fc, a2));
                NetworkSpec::new(Shape::new(c, h, w), layers).ok()
            },
        )
}

fn input_for(spec: &NetworkSpec, seed: i32) -> Tensor {
    let s = spec.input_shape();
    Tensor::from_vec(
        s.channels,
        s.height,
        s.width,
        (0..s.len())
            .map(|i| {
                Q88::from_bits(
                    (((i as i32).wrapping_mul(2654435761_u32 as i32) ^ seed) % 700) as i16,
                )
            })
            .collect(),
    )
}

/// The paper cube with the per-step-saturating 16-bit accumulator: the
/// lane kernels' other width, against the executor's `MacUnit` in the
/// same width.
fn narrow_cfg() -> SystemConfig {
    SystemConfig {
        accumulator: AccumulatorWidth::Narrow16,
        ..SystemConfig::paper(true)
    }
}

fn check(cfg: SystemConfig, spec: &NetworkSpec, seed: u64) {
    let params = spec.init_params(seed, 0.3);
    let reference = Executor::with_accumulator(spec.clone(), params.clone(), cfg.accumulator);
    let input = input_for(spec, seed as i32);
    let expected = reference.forward(&input);

    let mut cube = Neurocube::new(cfg);
    let loaded = cube.load(spec.clone(), params);
    let (output, report) = cube.run_inference(&loaded, &input);
    assert_eq!(output, *expected.last().unwrap(), "final output differs");
    // Intermediate volumes as each phase finalizes them: a later phase
    // may reuse a buffer.
    let (volumes, _) = cube.run_graph_replay_collect(&loaded, &input);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(&volumes[i], want, "intermediate volume {i} differs");
    }
    let want: u64 = spec.macs_per_layer().iter().sum();
    let got: u64 = report.layers.iter().map(|l| l.macs).sum();
    assert_eq!(got, want, "MAC count mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_networks_bit_exact_with_duplication(spec in network_strategy(), seed in 0u64..1000) {
        check(SystemConfig::paper(true), &spec, seed);
    }

    #[test]
    fn random_networks_bit_exact_without_duplication(spec in network_strategy(), seed in 0u64..1000) {
        check(SystemConfig::paper(false), &spec, seed);
    }

    #[test]
    fn random_networks_bit_exact_on_ddr3(spec in network_strategy(), seed in 0u64..1000) {
        check(SystemConfig::ddr3(), &spec, seed);
    }

    #[test]
    fn random_networks_bit_exact_on_fully_connected_noc(
        spec in network_strategy(),
        seed in 0u64..1000,
    ) {
        check(SystemConfig::fully_connected_noc(true), &spec, seed);
    }

    #[test]
    fn random_networks_bit_exact_with_narrow_accumulator(
        spec in network_strategy(),
        seed in 0u64..1000,
    ) {
        check(narrow_cfg(), &spec, seed);
    }
}

#[test]
fn deep_mlp_bit_exact() {
    let spec = NetworkSpec::new(
        Shape::flat(64),
        vec![
            LayerSpec::fc(48, Activation::Tanh),
            LayerSpec::fc(32, Activation::Sigmoid),
            LayerSpec::fc(24, Activation::ReLU),
            LayerSpec::fc(9, Activation::Identity),
        ],
    )
    .unwrap();
    check(SystemConfig::paper(true), &spec, 77);
    check(SystemConfig::paper(false), &spec, 78);
}

#[test]
fn deep_conv_stack_bit_exact() {
    let spec = NetworkSpec::new(
        Shape::new(2, 20, 20),
        vec![
            LayerSpec::conv(4, 3, Activation::Tanh),
            LayerSpec::conv(8, 3, Activation::ReLU),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::conv(8, 3, Activation::Tanh),
            LayerSpec::fc(5, Activation::Sigmoid),
        ],
    )
    .unwrap();
    check(SystemConfig::paper(true), &spec, 79);
    check(narrow_cfg(), &spec, 79);
}
