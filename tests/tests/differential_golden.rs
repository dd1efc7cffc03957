//! Differential verification: randomized network configurations driven
//! through the cycle-level simulator and the independent golden models
//! of `neurocube-golden`, with shrinking on divergence.
//!
//! Three randomized properties (the tentpole acceptance set):
//!
//! 1. Every intermediate volume the simulator commits to DRAM lies inside
//!    the functional golden model's derived per-layer error envelope.
//! 2. Every layer's cycle count lies inside the analytical timing
//!    envelope `[lower bound, slack × lower + overhead]`.
//! 3. The parallel batch runner is bitwise identical to serial runs
//!    (reports *and* statistics registries).
//!
//! Plus the defect-injection checks: a DRAM channel that drops its
//! `t_CCD` inter-burst gap is caught by the analytical bound — at the
//! component level (with the engine shrinking the failure to the exact
//! minimal word count) and at the full-system level.

mod common;

use common::diff_case;
use neurocube::{Neurocube, SystemConfig};
use neurocube_dram::{Channel, ChannelConfig, Request, RequestKind, Storage};
use neurocube_fixed::Activation;
use neurocube_golden::{channel_stream_cycles, check_graph_report, GoldenGraph, DEFAULT_SLACK};
use neurocube_nn::{LayerSpec, NetworkSpec, Shape};
use proptest::prelude::*;
use proptest::test_runner::{ProptestConfig, TestCaseError, TestRunner};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: the fixed-point simulator's every intermediate volume
    /// stays inside the functional golden model's derived error envelope.
    #[test]
    fn sim_outputs_within_golden_envelope(case in diff_case()) {
        let cfg = SystemConfig::paper(case.dup);
        let params = case.net.init_params(case.seed, 0.25);
        let golden = GoldenGraph::from_quantized(case.net.to_graph(), params.clone());
        let mut cube = Neurocube::new(cfg);
        let loaded = cube.load(case.net.clone(), params);
        let input = neurocube_bench::ramp_input(&case.net);
        let (volumes, _) = cube.run_graph_replay_collect(&loaded, &input);
        golden
            .check(&input, &volumes)
            .map_err(|d| TestCaseError::fail(format!("{d} (dup={})", case.dup)))?;
    }

    /// Property 2: every layer's cycle count stays inside the analytical
    /// timing envelope.
    #[test]
    fn sim_cycles_within_analytical_envelope(case in diff_case()) {
        let cfg = SystemConfig::paper(case.dup);
        let report = neurocube_bench::run_inference(cfg.clone(), &case.net, case.seed);
        check_graph_report(&cfg, &case.net.to_graph(), &report, DEFAULT_SLACK)
            .map_err(|v| TestCaseError::fail(format!("{v} (dup={})", case.dup)))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 3: the parallel batch runner is bitwise identical to
    /// serial execution — reports and statistics registries.
    #[test]
    fn batch_runner_matches_serial(a in diff_case(), b in diff_case()) {
        let jobs = vec![
            (SystemConfig::paper(a.dup), a.net.clone(), a.seed),
            (SystemConfig::paper(b.dup), b.net.clone(), b.seed),
        ];
        let batched = neurocube_bench::run_sweep(&jobs);
        for ((cfg, net, seed), (batch_report, batch_stats)) in jobs.iter().zip(&batched) {
            let (serial_report, serial_stats) =
                neurocube_bench::run_inference_stats(cfg.clone(), net, *seed);
            prop_assert_eq!(batch_report, &serial_report);
            prop_assert_eq!(batch_stats, &serial_stats);
        }
    }
}

/// Deterministic anchor: the paper-style workloads sit inside a tighter
/// envelope than the randomized default (they are throughput-bound, so
/// the latency-dominated slack is unnecessary).
#[test]
fn paper_workloads_within_tight_envelope() {
    for (net, dup) in [
        (neurocube_nn::workloads::tiny_convnet(), true),
        (neurocube_nn::workloads::tiny_convnet(), false),
        (neurocube_nn::workloads::mnist_mlp(64), true),
        (neurocube_nn::workloads::mnist_mlp(64), false),
    ] {
        let cfg = SystemConfig::paper(dup);
        let report = neurocube_bench::run_inference(cfg.clone(), &net, 7);
        check_graph_report(&cfg, &net.to_graph(), &report, 8.0)
            .unwrap_or_else(|v| panic!("dup={dup}: {v}"));
    }
}

/// Streams `words` sequential word reads through a standalone channel
/// and returns the cycle at which the last word crosses it.
fn stream_cycles(cfg: ChannelConfig, words: u64) -> u64 {
    let mut ch = Channel::new(cfg);
    let mut storage = Storage::new();
    let word_bytes = u64::from(cfg.word_bits) / 8;
    let mut queued = 0u64;
    let mut done = 0u64;
    let mut last = 0u64;
    for now in 0.. {
        while queued < words
            && ch.try_enqueue(Request {
                addr: queued * word_bytes,
                tag: queued,
                kind: RequestKind::Read,
            })
        {
            queued += 1;
        }
        if let Some(c) = ch.tick(now, &mut storage) {
            done += 1;
            last = c.cycle;
            if done == words {
                break;
            }
        }
        assert!(now < 1_000_000, "channel stalled");
    }
    last
}

/// Defect injection, component level: a channel that drops its `t_CCD`
/// inter-burst gap finishes below the correct analytical bound. The
/// engine must catch it AND shrink to the exact minimal word count.
#[test]
fn injected_tccd_defect_is_caught_and_shrunk() {
    // An exaggerated gap keeps the gap term above the row-activation
    // noise the analytical lower bound deliberately ignores.
    let mut intended = ChannelConfig::hmc_int();
    intended.inter_burst_gap = 64;
    let mut defective = intended;
    defective.inter_burst_gap = 0; // the injected bug: t_CCD dropped

    // Sanity: the *correct* implementation respects the bound everywhere.
    for words in [1u64, 8, 9, 64, 257] {
        assert!(
            stream_cycles(intended, words) >= channel_stream_cycles(&intended, words),
            "correct channel must satisfy its own lower bound at {words} words"
        );
    }

    // The property the differential suite would run against the correct
    // channel, executed here against the defective one via run_collect
    // (no panic, no regression-file pollution).
    let mut runner = TestRunner::new(ProptestConfig::with_cases(64));
    let failure = runner
        .run_collect("tccd_defect", &[], &(1u64..4096), &|words| {
            let measured = stream_cycles(defective, words);
            let bound = channel_stream_cycles(&intended, words);
            if measured < bound {
                return Err(TestCaseError::fail(format!(
                    "defective channel streamed {words} words in {measured} cycles, \
                     below the analytical bound {bound}"
                )));
            }
            Ok(())
        })
        .expect("the dropped t_CCD gap must be caught");

    // The true minimal failing word count, by exhaustive scan.
    let minimal = (1..4096)
        .find(|&w| stream_cycles(defective, w) < channel_stream_cycles(&intended, w))
        .expect("scan must find a failing word count");
    assert_eq!(
        failure.value, minimal,
        "shrinking must converge to the minimal failing word count"
    );
    assert!(failure.message.contains("below the analytical bound"));
}

/// Defect injection, full-system level: a cube whose channels drop the
/// (here exaggerated) inter-burst gap runs faster than the analytical
/// lower bound derived from the intended timing — and is caught, while
/// the faithful cube passes the same check.
#[test]
fn system_level_tccd_defect_violates_lower_bound() {
    let net = NetworkSpec::new(
        Shape::new(1, 8, 8),
        vec![
            LayerSpec::fc(48, Activation::Tanh),
            LayerSpec::fc(16, Activation::Sigmoid),
        ],
    )
    .unwrap();

    let mut intended = SystemConfig::paper(true);
    intended.memory.channel.inter_burst_gap = 500; // the intended spec
    let mut buggy = intended.clone();
    buggy.memory.channel.inter_burst_gap = 0; // the injected bug

    // A faithful implementation of the intended timing passes.
    let honest = neurocube_bench::run_inference(intended.clone(), &net, 11);
    check_graph_report(&intended, &net.to_graph(), &honest, DEFAULT_SLACK)
        .expect("faithful simulator must sit inside the envelope");

    // The defective one lands below the lower bound and is caught.
    let report = neurocube_bench::run_inference(buggy, &net, 11);
    let violation = check_graph_report(&intended, &net.to_graph(), &report, DEFAULT_SLACK)
        .expect_err("dropped t_CCD must violate the DRAM lower bound");
    assert!(
        violation.measured < violation.lower,
        "defect must manifest as a too-fast layer, got {violation}"
    );
}
