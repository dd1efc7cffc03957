//! Simulator wall-clock benchmark: event-horizon fast-forwarding vs the
//! naive per-cycle loop, on the Fig. 14/15 workload shapes.
//!
//! Each workload runs twice on identical cubes — once with skipping forced
//! off (the oracle) and once forced on — and the harness asserts the two
//! runs are bitwise identical (same `RunReport`, same statistics
//! registry) before it reports any speedup, so a fast-but-wrong simulator
//! can never post a number.
//!
//! Results go to `BENCH_sim.json` at the workspace root (override the path
//! with `NEUROCUBE_BENCH_OUT`). The reported `speedup` is skip vs naive in
//! the same binary — the event-horizon win proper — and every run gates
//! it: the process exits non-zero if skipping loses to the naive loop
//! (per-workload minimum below 0.90x or sweep geomean below 1.0x).

use neurocube_bench::{
    bench_workloads, header, run_inference_faulty, run_inference_mode, BenchWorkload as Workload,
    SkipTelemetry,
};
use neurocube_fault::FaultConfig;
use std::path::PathBuf;
use std::time::Instant;

struct Row {
    name: &'static str,
    cycles: u64,
    naive_secs: f64,
    skip_secs: f64,
    telemetry: SkipTelemetry,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_secs / self.skip_secs
    }

    fn skip_cps(&self) -> f64 {
        self.cycles as f64 / self.skip_secs
    }
}

/// Timing repetitions per mode; the reported time is the *fastest* rep.
/// Single sub-second runs jitter ±15% and worse on shared hardware,
/// which swamps the real skip-vs-naive margin on the saturated shapes;
/// the minimum over a few reps is the standard noise-robust estimator of
/// the achievable time. `NEUROCUBE_BENCH_REPS` overrides (min 1).
fn reps() -> u32 {
    neurocube_bench::env_u64("NEUROCUBE_BENCH_REPS").map_or(3, |v| (v as u32).max(1))
}

/// Runs `w` at least `reps()` times in one mode and returns the fastest
/// wall-clock time plus the (deterministic, rep-invariant) observables of
/// the last rep. Short workloads get extra draws: a 0.4 s run needs more
/// samples than a 20 s run for the minimum to converge, so the loop keeps going
/// until the mode has accumulated ~4 s of measurement (capped at three
/// times the base rep count) — without this, the sub-second workloads'
/// skip-vs-naive ratios swing ±15 % between otherwise identical runs.
fn timed(
    w: &Workload,
    skip: bool,
) -> (
    f64,
    neurocube::RunReport,
    neurocube_sim::StatsRegistry,
    SkipTelemetry,
) {
    let base = reps();
    let cap = base.saturating_mul(3);
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut done = 0u32;
    let mut out = None;
    while done < base || (total < 4.0 && done < cap) {
        let start = Instant::now();
        let (report, stats, telemetry) = run_inference_mode(w.cfg.clone(), &w.spec, w.seed, skip);
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        total += secs;
        done += 1;
        out = Some((report, stats, telemetry));
    }
    let (report, stats, telemetry) = out.expect("at least one rep");
    (best, report, stats, telemetry)
}

fn json_escape_free(name: &str) -> &str {
    // Workload names are static identifiers; keep the exporter honest.
    assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    name
}

fn geomean(rows: &[Row], f: impl Fn(&Row) -> f64) -> f64 {
    (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
}

fn write_json(rows: &[Row], path: &PathBuf) {
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"simulated_cycles\": {}, \"naive_host_secs\": {:.4}, \
             \"skip_host_secs\": {:.4}, \"naive_cycles_per_sec\": {:.0}, \
             \"skip_cycles_per_sec\": {:.0}, \"speedup\": {:.2}, \
             \"skipped_cycles\": {}, \"horizon_jumps\": {}}}{}\n",
            json_escape_free(r.name),
            r.cycles,
            r.naive_secs,
            r.skip_secs,
            r.cycles as f64 / r.naive_secs,
            r.skip_cps(),
            r.speedup(),
            r.telemetry.skipped_cycles,
            r.telemetry.horizon_jumps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let min = rows.iter().map(Row::speedup).fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "  ],\n  \"min_speedup\": {min:.2},\n  \"geomean_speedup\": {:.2}\n}}\n",
        geomean(rows, Row::speedup),
    ));
    std::fs::write(path, out).expect("write BENCH_sim.json");
}

fn main() {
    header(
        "BENCH_sim",
        "event-horizon fast-forward vs naive per-cycle loop (Fig. 14/15 workloads)",
    );
    println!(
        "{:<24} {:>12} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "workload", "sim cycles", "naive s", "skip s", "naive c/s", "skip c/s", "speedup"
    );
    let mut rows = Vec::new();
    for (i, w) in bench_workloads().iter().enumerate() {
        let (naive_secs, naive_report, naive_stats, naive_tel) = timed(w, false);
        let (skip_secs, skip_report, skip_stats, skip_tel) = timed(w, true);
        assert_eq!(
            naive_tel,
            SkipTelemetry::default(),
            "{}: the oracle must not fast-forward",
            w.name
        );
        assert!(
            skip_tel.horizon_jumps > 0,
            "{}: fast mode never jumped — the workload no longer exercises skipping",
            w.name
        );
        assert_eq!(
            naive_report, skip_report,
            "{}: fast-forward run diverged from the oracle's report",
            w.name
        );
        assert_eq!(
            naive_stats, skip_stats,
            "{}: fast-forward run diverged from the oracle's statistics",
            w.name
        );
        if i == 0 {
            // A zero-rate fault config must be invisible: same report,
            // same registry, no `fault` section — the injector normalizes
            // itself away, so sweep point 0 of the fault sweep is the
            // fault-free simulator, bit for bit.
            let zero = run_inference_faulty(
                w.cfg.clone(),
                &w.spec,
                w.seed,
                Some(FaultConfig::uniform(w.seed, 0.0)),
            );
            assert_eq!(
                zero.report, skip_report,
                "{}: zero-fault-rate run diverged from the no-injector report",
                w.name
            );
            assert_eq!(
                zero.stats, skip_stats,
                "{}: zero-fault-rate run diverged from the no-injector statistics",
                w.name
            );
            assert!(zero.report.fault.is_none());
            println!("(zero-fault-rate run verified bitwise-identical to the no-injector build)");
        }
        let cycles = naive_report.total_cycles();
        let row = Row {
            name: w.name,
            cycles,
            naive_secs,
            skip_secs,
            telemetry: skip_tel,
        };
        println!(
            "{:<24} {:>12} {:>10.3} {:>10.3} {:>12.0} {:>12.0} {:>7.2}x",
            w.name,
            cycles,
            naive_secs,
            skip_secs,
            cycles as f64 / naive_secs,
            row.skip_cps(),
            row.speedup()
        );
        rows.push(row);
    }

    let min = rows.iter().map(Row::speedup).fold(f64::INFINITY, f64::min);
    let gm = geomean(&rows, Row::speedup);
    println!(
        "\nskip vs naive (same binary): min {min:.2}x, geomean {gm:.2}x \
         (both modes bitwise identical)"
    );

    let out = std::env::var_os("NEUROCUBE_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_sim.json")
        });
    write_json(&rows, &out);
    println!("wrote {}", out.display());

    // Skipping must not lose to the naive loop in the same binary. On the
    // saturated fig. 14/15 shapes it recovers almost no cycles (conv_k7:
    // 567 of 1.06M) while still paying the spaced-out horizon probes, so
    // its true per-workload ratio hovers at ~1.0 — and multi-second runs
    // on shared hardware draw ±10% even as a best-of-N, so a tight
    // per-workload floor would flake on timer jitter alone. The floor
    // exists to catch a real probe-cost pathology (the pre-backoff
    // regression was 20-30%), so the enforced contract is: bounded
    // overhead everywhere (min >= 0.90) and a net win across the sweep
    // (geomean >= 1.0, carried by the idle-heavy shapes the mechanism
    // exists for).
    assert!(
        min >= 0.90,
        "skip-mode probe overhead regression: min skip-vs-naive {min:.2}x < 0.90x \
         (raise NEUROCUBE_BENCH_REPS to rule out timing noise)"
    );
    assert!(
        gm >= 1.0,
        "skip-mode loses to the naive loop across the sweep: \
         geomean skip-vs-naive {gm:.2}x < 1.0x"
    );
    println!("skip-vs-naive floor passed (min {min:.2}x >= 0.90x, geomean {gm:.2}x >= 1.0x)");
}
