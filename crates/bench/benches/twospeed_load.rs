//! Two-speed serving benchmark: analytical-mode throughput at
//! million-request scale, audit overhead versus sample rate, and the
//! zero-envelope-violations gate.
//!
//! Three measurements:
//!
//! 1. **Scenario sweep** — each named traffic scenario (steady /
//!    diurnal / rush, with its priority tiers) drives 10⁶ requests
//!    through the scheduler and the analytical fast path. The models
//!    are *synthetic twins* of profiled real networks: same memoized
//!    service and reprogram cycles, so the virtual-time numbers are the
//!    real mix's, while the trace stays million-request-cheap. All
//!    virtual-time fields are deterministic; the wall-clock
//!    requests/sec column is the one machine-dependent number.
//! 2. **Audit overhead curve** — a real-model trace replayed through
//!    the two-speed executor at increasing audit rates; every audited
//!    dispatch replays cycle- and value-accurately on a fresh cube, and
//!    the wall-clock cost per audited request is reported. The
//!    audited subset must be bitwise identical serial vs threaded vs
//!    rerun, and **zero envelope violations at any rate is a hard
//!    gate**.
//! 3. **Fast-path speedup** — the same real-model schedule executed
//!    once with full cycle-accurate replay and once analytically; the
//!    wall-clock ratio must clear 100× (override with
//!    `NEUROCUBE_BENCH_TWOSPEED_MIN_SPEEDUP`).
//!
//! Output goes to `BENCH_twospeed.json` at the workspace root (override
//! with `NEUROCUBE_BENCH_TWOSPEED_OUT`).

use neurocube::SystemConfig;
use neurocube_bench::header;
use neurocube_fixed::Activation;
use neurocube_nn::{workloads, LayerSpec, NetworkSpec, Shape};
use neurocube_serve::{
    execute, execute_two_speed, generate, serve_mode, ExecMode, ModelCatalog, ServeConfig,
    TrafficSpec, TwoSpeedConfig, SCENARIOS,
};
use std::path::PathBuf;
use std::time::Instant;

const SWEEP_REQUESTS: u64 = 1_000_000;
const AUDIT_TRACE_REQUESTS: u64 = 2_000;
const AUDIT_RATES: [f64; 4] = [0.0, 0.005, 0.02, 0.1];
const POOL: usize = 4;
const DEFAULT_MIN_SPEEDUP: f64 = 100.0;

/// The real tenant pair every measurement is anchored to: the tiny
/// convnet and a small MLP — small enough that full cycle-accurate
/// replay of thousands of inferences stays benchmark-friendly.
fn real_catalog() -> ModelCatalog {
    let mut cat = ModelCatalog::new(SystemConfig::paper(true));
    cat.register("conv", workloads::tiny_convnet(), 41);
    let mlp = NetworkSpec::new(
        Shape::new(1, 8, 8),
        vec![
            LayerSpec::fc(8, Activation::ReLU),
            LayerSpec::fc(4, Activation::Identity),
        ],
    )
    .expect("geometry fits");
    cat.register("mlp", mlp, 42);
    cat
}

/// Synthetic twins of the real catalog: same names, same memoized
/// timings, no payload — the scheduler and analytical path price them
/// identically, but the trace carries 1-element payloads, so a
/// million-request sweep stays cheap.
fn twin_catalog(real: &ModelCatalog) -> ModelCatalog {
    let mut twins = ModelCatalog::new(real.config().clone());
    for e in real.entries() {
        twins.register_synthetic(&e.name, e.service_cycles, e.reprogram_cycles);
    }
    twins
}

fn mix(cat: &ModelCatalog) -> Vec<(String, u32)> {
    cat.entries().map(|e| (e.name.clone(), 1)).collect()
}

fn serve_cfg(cat: &ModelCatalog) -> ServeConfig {
    let avg_service =
        cat.entries().map(|e| e.service_cycles).sum::<u64>() as f64 / cat.len() as f64;
    ServeConfig {
        pool: POOL,
        max_batch: 8,
        max_delay: avg_service as u64,
        queue_cap: 64,
    }
}

struct SweepRow {
    scenario: &'static str,
    offered: u64,
    completed: u64,
    shed: u64,
    rejected: u64,
    p50: u64,
    p99: u64,
    makespan: u64,
    goodput_per_mcycle: f64,
    analytical_cycles: u64,
    wall_ms: f64,
    requests_per_sec: f64,
}

struct CurveRow {
    rate: f64,
    coverage: f64,
    audited_dispatches: u64,
    audited_requests: u64,
    violations: u64,
    slack_lower_min: u64,
    slack_upper_min: u64,
    wall_ms: f64,
    ms_per_audited_request: f64,
}

fn write_json(
    sweep: &[SweepRow],
    curve: &[CurveRow],
    replay_ms: f64,
    analytical_ms: f64,
    speedup: f64,
    min_speedup: f64,
    path: &PathBuf,
) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"pool\": {POOL},\n  \"sweep_requests_per_point\": {SWEEP_REQUESTS},\n"
    ));
    out.push_str(&format!(
        "  \"audit_trace_requests\": {AUDIT_TRACE_REQUESTS},\n"
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"offered\": {}, \"completed\": {}, \
             \"shed\": {}, \"rejected\": {}, \"latency_p50\": {}, \"latency_p99\": {}, \
             \"makespan_cycles\": {}, \"goodput_per_mcycle\": {:.4}, \
             \"analytical_cycles\": {}, \"wall_ms\": {:.1}, \
             \"requests_per_sec\": {:.0}}}{}\n",
            r.scenario,
            r.offered,
            r.completed,
            r.shed,
            r.rejected,
            r.p50,
            r.p99,
            r.makespan,
            r.goodput_per_mcycle,
            r.analytical_cycles,
            r.wall_ms,
            r.requests_per_sec,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"audit_curve\": [\n");
    for (i, r) in curve.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rate\": {:.4}, \"coverage\": {:.4}, \"audited_dispatches\": {}, \
             \"audited_requests\": {}, \"violations\": {}, \"slack_lower_min\": {}, \
             \"slack_upper_min\": {}, \"wall_ms\": {:.1}, \
             \"ms_per_audited_request\": {:.3}}}{}\n",
            r.rate,
            r.coverage,
            r.audited_dispatches,
            r.audited_requests,
            r.violations,
            r.slack_lower_min,
            r.slack_upper_min,
            r.wall_ms,
            r.ms_per_audited_request,
            if i + 1 < curve.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"replay_comparison\": {{\"full_replay_wall_ms\": {replay_ms:.1}, \
         \"analytical_wall_ms\": {analytical_ms:.3}, \"speedup\": {speedup:.0}, \
         \"min_speedup_gate\": {min_speedup:.0}}},\n"
    ));
    out.push_str("  \"violations_total\": 0\n}\n");
    std::fs::write(path, out).expect("write BENCH_twospeed.json");
}

fn main() {
    header(
        "BENCH_twospeed",
        "analytical fast path at 10^6 requests/point with sampled cycle-accurate audits",
    );
    let real = real_catalog();
    let twins = twin_catalog(&real);

    // --- 1. Million-request scenario sweep on the analytical path ---
    let cfg = serve_cfg(&twins);
    let avg_service =
        twins.entries().map(|e| e.service_cycles).sum::<u64>() as f64 / twins.len() as f64;
    let sat_gap = avg_service / POOL as f64;
    println!(
        "\nscenario sweep: {} requests/point, pool {}, mean gap {:.0} cycles",
        SWEEP_REQUESTS, POOL, sat_gap
    );
    println!(
        "{:>9} {:>10} {:>10} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "scenario", "completed", "shed", "p50", "p99", "goodput/Mc", "wall ms", "req/s"
    );
    let mut sweep: Vec<SweepRow> = Vec::new();
    for (i, sc) in SCENARIOS.iter().enumerate() {
        let spec =
            TrafficSpec::poisson(0x2540_0000 + i as u64, sat_gap, SWEEP_REQUESTS, mix(&twins))
                .with_scenario(sc);
        let start = Instant::now();
        let trace = generate(&twins, &spec);
        let report = serve_mode(&twins, &cfg, &trace, Some(true));
        // Analytical execution: priced from the profile, no cubes (the
        // twins could not be replayed anyway — rate 0 never tries).
        let two = execute_two_speed(
            &real, // same timings; entry() is by tag, twins mirror real
            &trace,
            &report.records,
            &TwoSpeedConfig::new(7, 0.0),
            ExecMode::Serial,
        );
        let wall = start.elapsed().as_secs_f64();
        assert!(
            two.violations.is_empty(),
            "{}: analytical pass must be clean",
            sc.name
        );
        let lat = report.latency();
        let row = SweepRow {
            scenario: sc.name,
            offered: report.stats.counter("serve.requests.offered"),
            completed: report.completed(),
            shed: report.shed(),
            rejected: report.rejected(),
            p50: lat.percentile(0.50).unwrap_or(0),
            p99: lat.percentile(0.99).unwrap_or(0),
            makespan: report.makespan,
            goodput_per_mcycle: report.completed() as f64 * 1e6 / report.makespan.max(1) as f64,
            analytical_cycles: two.stats.counter("serve.twospeed.cycles.analytical"),
            wall_ms: wall * 1e3,
            requests_per_sec: SWEEP_REQUESTS as f64 / wall,
        };
        println!(
            "{:>9} {:>10} {:>10} {:>8} {:>8} {:>10.1} {:>10.0} {:>12.0}",
            row.scenario,
            row.completed,
            row.shed,
            row.p50,
            row.p99,
            row.goodput_per_mcycle,
            row.wall_ms,
            row.requests_per_sec
        );
        assert!(
            row.completed > 0 && row.analytical_cycles > 0,
            "{}: the sweep must complete requests analytically",
            sc.name
        );
        sweep.push(row);
    }

    // --- 2. Audit overhead vs sample rate on the real-model trace ---
    let real_cfg = serve_cfg(&real);
    let spec = TrafficSpec::poisson(0xa0d1, sat_gap, AUDIT_TRACE_REQUESTS, mix(&real));
    let trace = generate(&real, &spec);
    let report = serve_mode(&real, &real_cfg, &trace, Some(true));
    println!(
        "\naudit curve: {} requests, {} dispatches",
        AUDIT_TRACE_REQUESTS,
        report.records.len()
    );
    println!(
        "{:>7} {:>9} {:>10} {:>9} {:>11} {:>10} {:>10}",
        "rate", "coverage", "audited", "requests", "violations", "wall ms", "ms/audit"
    );
    let mut curve: Vec<CurveRow> = Vec::new();
    for &rate in &AUDIT_RATES {
        let tcfg = TwoSpeedConfig::new(0xbead, rate);
        let start = Instant::now();
        let serial = execute_two_speed(&real, &trace, &report.records, &tcfg, ExecMode::Serial);
        let wall = start.elapsed().as_secs_f64();
        // Hard gates: zero violations at every rate, and the audited
        // subset bitwise identical across serial / threaded / rerun.
        assert!(
            serial.violations.is_empty(),
            "rate {rate}: envelope violations: {:?}",
            serial.violations
        );
        let threaded = execute_two_speed(&real, &trace, &report.records, &tcfg, ExecMode::Batched);
        let rerun = execute_two_speed(&real, &trace, &report.records, &tcfg, ExecMode::Serial);
        for other in [&threaded, &rerun] {
            assert_eq!(serial.audited, other.audited, "audited subset must be pure");
            assert_eq!(serial.audits, other.audits);
            assert_eq!(serial.stats.first_difference(&other.stats), None);
        }
        let slack_min = |key: &str| {
            serial
                .stats
                .histogram(key)
                .and_then(neurocube_sim::Histogram::min)
                .unwrap_or(0)
        };
        let audited_requests = serial.stats.counter("serve.twospeed.audit.requests");
        let row = CurveRow {
            rate,
            coverage: serial.stats.gauge("serve.twospeed.audit.coverage"),
            audited_dispatches: serial.stats.counter("serve.twospeed.audit.dispatches"),
            audited_requests,
            violations: serial.stats.counter("serve.twospeed.audit.violations"),
            slack_lower_min: slack_min("serve.twospeed.audit.slack_lower_cycles"),
            slack_upper_min: slack_min("serve.twospeed.audit.slack_upper_cycles"),
            wall_ms: wall * 1e3,
            ms_per_audited_request: if audited_requests > 0 {
                wall * 1e3 / audited_requests as f64
            } else {
                0.0
            },
        };
        println!(
            "{:>7.3} {:>8.1}% {:>10} {:>9} {:>11} {:>10.1} {:>10.3}",
            row.rate,
            row.coverage * 100.0,
            row.audited_dispatches,
            row.audited_requests,
            row.violations,
            row.wall_ms,
            row.ms_per_audited_request
        );
        curve.push(row);
    }
    assert!(
        curve.last().expect("curve has rows").audited_dispatches > 0,
        "the top sample rate must audit something"
    );

    // --- 3. Fast-path speedup gate on a full-replay slice ---
    let slice_spec = TrafficSpec::poisson(0xfa57, sat_gap * 2.0, 60, mix(&real));
    let slice = generate(&real, &slice_spec);
    let slice_report = serve_mode(&real, &real_cfg, &slice, Some(true));
    let start = Instant::now();
    let full = execute(&real, &slice, &slice_report.records, ExecMode::Serial);
    let replay_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let fast = execute_two_speed(
        &real,
        &slice,
        &slice_report.records,
        &TwoSpeedConfig::new(1, 0.0),
        ExecMode::Serial,
    );
    let analytical_wall = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        fast.stats.counter("serve.twospeed.requests"),
        full.counter("serve.exec.requests"),
        "both paths must account the same schedule"
    );
    // Rate 1.0 degeneracy on the same slice: the audit path *is* the
    // executor, checksum for checksum.
    let degen = execute_two_speed(
        &real,
        &slice,
        &slice_report.records,
        &TwoSpeedConfig::new(1, 1.0),
        ExecMode::Batched,
    );
    assert!(degen.violations.is_empty(), "{:?}", degen.violations);
    assert_eq!(
        degen.stats.counter("serve.twospeed.audit.output_checksum"),
        full.counter("serve.exec.output_checksum"),
        "rate 1.0 must fold the executor's checksum"
    );
    let speedup = replay_wall / analytical_wall;
    let min_speedup = neurocube_bench::env_f64("NEUROCUBE_BENCH_TWOSPEED_MIN_SPEEDUP")
        .unwrap_or(DEFAULT_MIN_SPEEDUP);
    println!(
        "\nspeedup: full replay {:.1} ms vs analytical {:.4} ms -> {:.0}x (gate {:.0}x)",
        replay_wall * 1e3,
        analytical_wall * 1e3,
        speedup,
        min_speedup
    );
    assert!(
        speedup >= min_speedup,
        "analytical fast path must be at least {min_speedup}x faster than \
         full replay (measured {speedup:.0}x)"
    );

    let out = std::env::var_os("NEUROCUBE_BENCH_TWOSPEED_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_twospeed.json")
        });
    write_json(
        &sweep,
        &curve,
        replay_wall * 1e3,
        analytical_wall * 1e3,
        speedup,
        min_speedup,
        &out,
    );
    println!("\nwrote {}", out.display());
    println!(
        "reading: the sweep rows are virtual-time and deterministic (wall_ms\n\
         and requests_per_sec are the machine-dependent columns); the audit\n\
         curve's overhead grows with the sample rate while violations stay\n\
         zero — the envelope-slack minima show how much certified headroom\n\
         the warmest replay still had."
    );
}
