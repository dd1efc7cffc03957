//! Equivalence properties for the graph compiler: a compiled DAG run
//! pipelined on-cube (programmed once, phases sequenced without host
//! round-trips) must be **bitwise** interchangeable with every other way
//! of running the same graph.
//!
//! For random small layer DAGs (residual adds, concats, linear embeds —
//! the `graph_case` generator, so counterexamples shrink):
//!
//! 1. Pipelined output == per-layer replay output, and both attribute the
//!    same node labels and MAC counts per phase.
//! 2. Event-horizon fast-forwarding is observationally invisible for
//!    multi-layer programs: skip vs naive agree on every observable.
//! 3. Graph runs on `BatchRunner` threads are bitwise identical to
//!    serial runs.

mod common;

use common::{graph_case, GraphCase};
use neurocube::SystemConfig;
use neurocube_bench::{run_graph_mode, GraphRunOutput};
use neurocube_sim::BatchRunner;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn run(case: &GraphCase, skip: bool, pipelined: bool) -> GraphRunOutput {
    run_graph_mode(
        SystemConfig::paper(case.dup),
        &case.graph,
        case.seed,
        skip,
        pipelined,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1: compiled-pipelined execution is value-exact against
    /// the per-layer replay baseline, phase by phase.
    #[test]
    fn pipelined_matches_replay_bitwise(case in graph_case()) {
        let piped = run(&case, true, true);
        let replay = run(&case, true, false);
        prop_assert_eq!(
            piped.output.as_slice(), replay.output.as_slice(),
            "pipelined and replay outputs diverge (dup={}, seed={})",
            case.dup, case.seed
        );
        prop_assert_eq!(piped.report.layers.len(), replay.report.layers.len());
        for (p, r) in piped.report.layers.iter().zip(&replay.report.layers) {
            prop_assert_eq!(p.layer_index, r.layer_index, "phase order diverges");
            prop_assert_eq!(p.kind, r.kind);
            prop_assert_eq!(p.macs, r.macs, "node {} MAC counts diverge", p.layer_index);
        }
    }

    /// Property 2: event-horizon fast-forwarding stays observationally
    /// invisible for multi-layer programs — per-phase cycles, final
    /// cycle counter, output and the entire statistics registry.
    #[test]
    fn graph_fast_forward_is_observationally_invisible(case in graph_case()) {
        let fast = run(&case, true, true);
        let naive = run(&case, false, true);
        prop_assert_eq!(
            naive.telemetry.skipped_cycles, 0,
            "the naive oracle must not fast-forward"
        );
        let fast_cycles: Vec<u64> = fast.report.layers.iter().map(|l| l.cycles).collect();
        let naive_cycles: Vec<u64> = naive.report.layers.iter().map(|l| l.cycles).collect();
        prop_assert_eq!(
            &fast_cycles, &naive_cycles,
            "per-phase cycle counts diverge (dup={}, seed={})", case.dup, case.seed
        );
        prop_assert_eq!(fast.output.as_slice(), naive.output.as_slice(), "outputs diverge");
        if let Some(delta) = fast.stats.first_difference(&naive.stats) {
            return Err(TestCaseError::fail(format!(
                "statistics diverge at {delta} (skip run jumped {} times over {} cycles; \
                 dup={}, seed={})",
                fast.telemetry.horizon_jumps, fast.telemetry.skipped_cycles,
                case.dup, case.seed
            )));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 3: graph runs are batch/serial deterministic — the same
    /// case on `BatchRunner` threads is bitwise identical to a serial
    /// run, per slot, mixing pipelined and replay slots.
    #[test]
    fn graph_runs_are_batch_serial_deterministic(case in graph_case()) {
        let batch = BatchRunner::new().run(3, |i| run(&case, true, i % 2 == 0).stats);
        for (i, stats) in batch.iter().enumerate() {
            let serial = run(&case, true, i % 2 == 0).stats;
            if let Some(delta) = stats.first_difference(&serial) {
                return Err(TestCaseError::fail(format!(
                    "batch slot {i} diverges from serial at {delta} (dup={}, seed={})",
                    case.dup, case.seed
                )));
            }
        }
    }
}

/// Deterministic anchor: on the residual toy graph the fast mode
/// actually fast-forwards across phase boundaries (a sequencer that
/// blocked jumps entirely would pass the skip property vacuously) and
/// still matches the naive oracle bitwise.
#[test]
fn fast_forward_engages_on_residual_toy() {
    let case = GraphCase {
        graph: neurocube_nn::workloads::residual_toy(),
        dup: true,
        seed: 7,
    };
    let fast = run(&case, true, true);
    let naive = run(&case, false, true);
    assert!(
        fast.telemetry.horizon_jumps > 0 && fast.telemetry.skipped_cycles > 0,
        "fast mode never jumped on the residual toy graph"
    );
    assert_eq!(fast.output.as_slice(), naive.output.as_slice());
    assert_eq!(
        fast.stats.first_difference(&naive.stats),
        None,
        "statistics diverge"
    );
}

/// Deterministic anchor: with the paper's host programming model
/// attached, pipelining pays the programming charge once, so the
/// pipelined run is strictly cheaper than the per-layer replay on every
/// multi-phase toy graph.
#[test]
fn pipelining_beats_replay_on_toy_graphs() {
    for (name, graph) in [
        ("residual_toy", neurocube_nn::workloads::residual_toy()),
        ("concat_toy", neurocube_nn::workloads::concat_toy()),
    ] {
        let mut cfg = SystemConfig::paper(true);
        cfg.programming = Some(neurocube::ProgrammingModel::typical());
        let piped = run_graph_mode(cfg.clone(), &graph, 7, true, true)
            .report
            .total_cycles();
        let replay = run_graph_mode(cfg, &graph, 7, true, false)
            .report
            .total_cycles();
        assert!(
            piped < replay,
            "{name}: pipelined ({piped} cycles) must beat replay ({replay} cycles)"
        );
    }
}
