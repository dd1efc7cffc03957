//! Differential property: event-horizon fast-forwarding is observationally
//! invisible. For random multi-layer networks (the same generator as the
//! golden-model suite, so counterexamples shrink), a full inference with
//! skipping forced on must match the naive per-cycle oracle **bitwise** —
//! per-layer cycle counts, the final cycle counter, the output tensor and
//! the entire statistics registry.
//!
//! The modes are selected through [`Neurocube::set_cycle_skip`], not the
//! `NEUROCUBE_NO_SKIP` environment variable: every cycle loop re-reads the
//! variable when it is built and tests run multithreaded, so mutating it
//! mid-run would race the other cases in this binary.

mod common;

use common::{diff_case, DiffCase};
use neurocube::{FaultSummary, Neurocube, SystemConfig};
use neurocube_fault::FaultConfig;
use neurocube_fixed::Q88;
use neurocube_sim::{BatchRunner, StatsRegistry};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

struct Observables {
    layer_cycles: Vec<u64>,
    final_cycle: u64,
    output: Vec<Q88>,
    stats: StatsRegistry,
    skipped_cycles: u64,
    horizon_jumps: u64,
    fault: Option<FaultSummary>,
}

fn run_mode(case: &DiffCase, skip: bool) -> Observables {
    run_mode_faulty(case, skip, None)
}

fn run_mode_faulty(case: &DiffCase, skip: bool, fault: Option<FaultConfig>) -> Observables {
    let cfg = SystemConfig::paper(case.dup);
    let params = case.net.init_params(case.seed, 0.25);
    let mut cube = Neurocube::new(cfg);
    cube.set_cycle_skip(Some(skip));
    cube.set_fault_config(fault);
    let loaded = cube.load(case.net.clone(), params);
    let input = neurocube_bench::ramp_input(&case.net);
    let (output, report) = cube.run_inference(&loaded, &input);
    Observables {
        layer_cycles: report.layers.iter().map(|l| l.cycles).collect(),
        final_cycle: cube.now(),
        output: output.as_slice().to_vec(),
        stats: cube.stats_registry(),
        skipped_cycles: cube.skipped_cycles(),
        horizon_jumps: cube.horizon_jumps(),
        fault: report.fault,
    }
}

/// Case budget: `PROPTEST_CASES` when set (`ci.sh` pins 64 for the
/// standard gate, 512 for `--faults`), otherwise `default`. Explicit
/// `with_cases` would silently ignore the environment.
fn cases(default: u32) -> u32 {
    neurocube_sim::env_u64("PROPTEST_CASES").map_or(default, |v| v as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Skip vs no-skip runs of the same random network agree on every
    /// observable. On divergence the failing statistic is named (via
    /// `StatsRegistry::first_difference`) and the case shrinks toward the
    /// smallest geometry that still diverges.
    #[test]
    fn fast_forward_is_observationally_invisible(case in diff_case()) {
        let fast = run_mode(&case, true);
        let naive = run_mode(&case, false);
        prop_assert_eq!(
            naive.skipped_cycles, 0,
            "the naive oracle must not fast-forward"
        );
        prop_assert_eq!(
            &fast.layer_cycles, &naive.layer_cycles,
            "per-layer cycle counts diverge (dup={}, seed={})", case.dup, case.seed
        );
        prop_assert_eq!(fast.final_cycle, naive.final_cycle, "final cycle counters diverge");
        prop_assert_eq!(&fast.output, &naive.output, "output tensors diverge");
        if let Some(delta) = fast.stats.first_difference(&naive.stats) {
            return Err(TestCaseError::fail(format!(
                "statistics diverge at {delta} (skip run jumped {} times over {} cycles; \
                 dup={}, seed={})",
                fast.horizon_jumps, fast.skipped_cycles, case.dup, case.seed
            )));
        }
    }

    /// The invisibility contract survives fault injection: with a
    /// deterministic injector attached (DRAM flips/stuck-ats/upsets, NoC
    /// link faults, PE MAC upsets — all at the same seed), the skip and
    /// naive runs must still agree on every observable, including every
    /// `fault.*` counter. A pending background upset inside a promised
    /// quiet window must invalidate the horizon, or the skip run misses it
    /// and this property names the diverging counter.
    #[test]
    fn fast_forward_is_invisible_under_faults(
        case in diff_case(),
        rate_exp in 4u32..7, // uniform rate 1e-6 .. 1e-3
        fault_seed in 0u64..1 << 32,
    ) {
        let cfg = FaultConfig::uniform(fault_seed, 10f64.powi(-(rate_exp as i32)));
        let fast = run_mode_faulty(&case, true, Some(cfg.clone()));
        let naive = run_mode_faulty(&case, false, Some(cfg));
        prop_assert_eq!(naive.skipped_cycles, 0, "the naive oracle must not fast-forward");
        prop_assert_eq!(
            &fast.layer_cycles, &naive.layer_cycles,
            "per-layer cycle counts diverge under faults (dup={}, seeds={}/{})",
            case.dup, case.seed, fault_seed
        );
        prop_assert_eq!(fast.final_cycle, naive.final_cycle, "final cycle counters diverge");
        prop_assert_eq!(&fast.output, &naive.output, "output tensors diverge under faults");
        prop_assert_eq!(&fast.fault, &naive.fault, "fault summaries diverge");
        if let Some(delta) = fast.stats.first_difference(&naive.stats) {
            return Err(TestCaseError::fail(format!(
                "statistics diverge at {delta} under faults (skip run jumped {} times over \
                 {} cycles; dup={}, seeds={}/{})",
                fast.horizon_jumps, fast.skipped_cycles, case.dup, case.seed, fault_seed
            )));
        }
    }

    /// Fault injection is deterministic under the batch runner: running
    /// the same faulty case on [`BatchRunner`] threads is bitwise
    /// identical to running it serially, per slot.
    #[test]
    fn faulty_runs_are_batch_serial_deterministic(
        case in diff_case(),
        fault_seed in 0u64..1 << 32,
    ) {
        let cfg = FaultConfig::uniform(fault_seed, 1e-4);
        let batch = BatchRunner::new().run(3, |i| {
            run_mode_faulty(&case, i % 2 == 0, Some(cfg.clone())).stats
        });
        for (i, stats) in batch.iter().enumerate() {
            let serial = run_mode_faulty(&case, i % 2 == 0, Some(cfg.clone())).stats;
            if let Some(delta) = stats.first_difference(&serial) {
                return Err(TestCaseError::fail(format!(
                    "batch slot {i} diverges from serial at {delta} (fault seed {fault_seed})"
                )));
            }
        }
    }
}

/// Deterministic anchor for horizon invalidation: background DRAM upsets
/// are the one fault class that fires on *idle* cycles — exactly the
/// cycles event-horizon skipping promises are quiet. On a workload where
/// the fast mode demonstrably jumps, an upset-only injector must (a)
/// still land its upsets — the pending-fault clamp truncates any promised
/// quiet window that contains one — and (b) leave the skip run bitwise
/// identical to the naive oracle. A skip implementation that ignores
/// scheduled faults when computing horizons fails (a) or (b) immediately
/// at this rate.
#[test]
fn pending_upset_inside_quiet_window_invalidates_horizon() {
    let case = DiffCase {
        net: neurocube_nn::workloads::mnist_mlp(64),
        dup: true,
        seed: 7,
    };
    let mut cfg = FaultConfig::uniform(0xC1A5, 0.0);
    cfg.dram_upset_rate = 1e-4; // per channel per cycle: plenty of hits
    let fast = run_mode_faulty(&case, true, Some(cfg.clone()));
    let naive = run_mode_faulty(&case, false, Some(cfg));
    assert!(
        fast.horizon_jumps > 0 && fast.skipped_cycles > 0,
        "fast mode never jumped — the workload no longer promises quiet windows"
    );
    let summary = fast.fault.expect("injector attached");
    // Resident hits flip stored data; absorbed ones hit never-written
    // pages. Both are scheduled at activity-independent absolute cycles,
    // so both clamp quiet windows; the anchor needs a healthy number of
    // either to be exercising invalidation at all.
    let landed = summary.dram_upsets + fast.stats.counter("fault.dram.upsets_absorbed");
    assert!(
        landed > 0,
        "no upsets landed; the anchor no longer exercises horizon invalidation"
    );
    assert_eq!(
        fast.fault, naive.fault,
        "upset counts diverge between modes"
    );
    assert_eq!(fast.final_cycle, naive.final_cycle);
    assert_eq!(fast.output, naive.output);
    assert_eq!(
        fast.stats.first_difference(&naive.stats),
        None,
        "statistics diverge with upsets pending inside quiet windows"
    );
}

/// Deterministic anchor: on a paper-style workload the fast mode actually
/// fast-forwards (a skip implementation that never jumps would pass the
/// property above vacuously) and still matches the oracle.
#[test]
fn fast_forward_engages_on_paper_workload() {
    let case = DiffCase {
        net: neurocube_nn::workloads::mnist_mlp(64),
        dup: true,
        seed: 7,
    };
    let fast = run_mode(&case, true);
    let naive = run_mode(&case, false);
    assert!(
        fast.horizon_jumps > 0 && fast.skipped_cycles > 0,
        "fast mode never jumped on mnist_mlp"
    );
    assert_eq!(fast.final_cycle, naive.final_cycle);
    assert_eq!(
        fast.stats.first_difference(&naive.stats),
        None,
        "statistics diverge"
    );
}
