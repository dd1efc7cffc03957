//! Integration tests of the paper's extension claims (§VI and the
//! conclusion): RNN unfolding, cellular networks, irregular connectivity
//! and multi-cube scaling — all executed on the cycle-level simulator.

use neurocube::{Neurocube, SystemConfig};
use neurocube_cluster::{shard_graph, Cluster, LinkConfig};
use neurocube_fixed::{AccumulatorWidth, Activation, Q88};
use neurocube_nn::{workloads, Executor, RecurrentSpec, Tensor};

#[test]
fn rnn_unfolded_runs_bit_exact_on_the_cube() {
    let rnn = RecurrentSpec {
        inputs: 4,
        hidden: 6,
        outputs: 3,
        activation: Activation::ReLU,
        output_activation: Activation::Sigmoid,
        steps: 5,
    };
    let (nx, nh, no) = rnn.weight_counts();
    let gen = |seed: u64, n: usize| -> Vec<Q88> {
        (0..n)
            .map(|i| Q88::from_bits((((i as u64 * 2654435761 + seed) % 200) as i16) - 100))
            .collect()
    };
    let w_x = gen(1, nx);
    let w_h = gen(2, nh);
    let w_o = gen(3, no);
    let xs: Vec<Vec<Q88>> = (0..rnn.steps)
        .map(|t| {
            (0..rnn.inputs)
                .map(|i| Q88::from_bits(((t * 37 + i * 11) % 256) as i16))
                .collect()
        })
        .collect();
    let direct = rnn.run_direct(&w_x, &w_h, &w_o, &xs, AccumulatorWidth::Wide32);

    let spec = rnn.unfold().unwrap();
    let params = rnn.unfolded_params(&w_x, &w_h, &w_o);
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec, params);
    let (out, report) = cube.run_inference(&loaded, &rnn.pack_input(&xs));
    assert_eq!(out.as_slice(), direct.as_slice());
    assert_eq!(report.layers.len(), rnn.steps + 1);
}

#[test]
fn cellular_network_runs_on_the_cube() {
    let spec = workloads::cellular(14, 14, 3).unwrap();
    let params = spec.init_params(2, 0.3);
    let reference = Executor::new(spec.clone(), params.clone());
    let input = Tensor::from_vec(
        1,
        14,
        14,
        (0..196)
            .map(|i| Q88::from_bits((i * 13 % 400) as i16))
            .collect(),
    );
    let expected = reference.predict(&input);
    let mut cube = Neurocube::new(SystemConfig::paper(true));
    let loaded = cube.load(spec, params);
    let (out, _) = cube.run_inference(&loaded, &input);
    assert_eq!(out, expected);
}

#[test]
fn irregular_connectivity_runs_on_the_cube() {
    // §V-A-2: irregular connections as an FC layer with zero weights.
    let (spec, params, adjacency) = workloads::irregular_fc(32, 12, 0.25, 7);
    let input = Tensor::from_flat(
        (0..32)
            .map(|i| Q88::from_f64(i as f64 / 20.0 - 0.8))
            .collect(),
    );
    let expected = Executor::new(spec.clone(), params.clone()).predict(&input);
    let mut cube = Neurocube::new(SystemConfig::paper(false));
    let loaded = cube.load(spec, params);
    let (out, _) = cube.run_inference(&loaded, &input);
    assert_eq!(out, expected);
    // The adjacency really is sparse.
    let edges: usize = adjacency.iter().map(Vec::len).sum();
    assert!(edges < 32 * 12 / 2);
}

/// The conclusion's multi-cube scaling, through the one multi-cube
/// executor: the scene network with vault regions too small for one cube
/// is planned across a cluster, run on it, and stays bit-exact.
#[test]
fn cluster_scales_the_scene_network() {
    let spec = workloads::scene_labeling(64, 80).unwrap();
    let params = spec.init_params(21, 0.2);
    let input = workloads::synthetic_scene(5, 64, 80);
    let expected = Executor::new(spec.clone(), params.clone()).predict(&input);

    let mut cfg = SystemConfig::paper(true);
    cfg.memory.region_bytes = 128 << 10;
    let plan = shard_graph(&cfg, &spec.to_graph(), &params, &LinkConfig::hmc_ext(8)).unwrap();
    assert!(plan.stages.len() >= 2, "the plan must span stages");
    let mut cluster = Cluster::new(&cfg, plan).unwrap();
    let (out, report) = cluster.run(&input);
    assert_eq!(
        out, expected,
        "the sharded scene network must stay bit-exact"
    );
    assert!(report.cycles > 0);
    assert!(cluster.stats_registry().counter("cluster.transfers") > 0);
}

#[test]
fn programming_overhead_is_charged_when_modelled() {
    let spec = workloads::tiny_convnet();
    let params = spec.init_params(5, 0.25);
    let input = Tensor::zeros(1, 12, 12);

    let mut plain = Neurocube::new(SystemConfig::paper(true));
    let loaded = plain.load(spec.clone(), params.clone());
    let (_, without) = plain.run_inference(&loaded, &input);

    let mut cfg = SystemConfig::paper(true);
    cfg.programming = Some(neurocube::ProgrammingModel::typical());
    let mut timed = Neurocube::new(cfg);
    let loaded = timed.load(spec.clone(), params);
    let (_, with) = timed.run_inference(&loaded, &input);

    let per_layer = neurocube::ProgrammingModel::typical().layer_cycles(16);
    let added = with.total_cycles() - without.total_cycles();
    let expected = per_layer * spec.depth() as u64;
    // The completion detector polls every 64 cycles, so the end of each
    // layer can shift by up to one poll interval.
    assert!(
        added.abs_diff(expected) <= 64 * spec.depth() as u64,
        "programming added {added}, expected ~{expected}"
    );
}
