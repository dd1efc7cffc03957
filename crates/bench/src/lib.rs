//! Shared helpers for the Neurocube experiment harnesses.
//!
//! Each table and figure of the paper has a dedicated bench target (run
//! `cargo bench -p neurocube-bench --bench <name>`); they print the same
//! rows/series the paper reports so `EXPERIMENTS.md` can record
//! paper-vs-measured values. Heavy experiments accept a scale factor
//! through the `NEUROCUBE_SCALE` environment variable (see
//! [`scene_scale`]): `full` runs the paper's exact geometry, the default
//! `fast` runs a proportionally reduced input that preserves every
//! qualitative shape at a fraction of the wall-clock time.
//!
//! The harnesses are the only code that reads the environment
//! (`NEUROCUBE_SCALE` through [`scene_scale`], `NEUROCUBE_CSV` through
//! [`CsvSink`] and [`export_stats`]); the library crates take every
//! setting as a value.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod env;

use env::env_str;

use neurocube::{Neurocube, RunReport, SystemConfig};
use neurocube_fault::FaultConfig;
use neurocube_fixed::Q88;
use neurocube_nn::{GraphSpec, NetworkSpec, Shape, Tensor};
use neurocube_sim::{BatchRunner, StatsRegistry};
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

/// [`scene_scale`] for a given `NEUROCUBE_SCALE` value, with an error in
/// place of the panic.
fn parse_scale(value: Option<&str>) -> Result<(usize, usize, &'static str), String> {
    match value {
        None | Some("fast") => Ok((120, 160, "fast (160x120)")),
        Some("full") => Ok((240, 320, "full (paper 320x240)")),
        Some("tiny") => Ok((60, 80, "tiny (80x60)")),
        Some(other) => Err(format!(
            "NEUROCUBE_SCALE={other:?} is not a scale (valid: fast, full, tiny; unset means fast)"
        )),
    }
}

/// The scene-labeling input resolution `(height, width, label)` selected
/// by `NEUROCUBE_SCALE`: `full` → the paper's 320×240, `fast` or unset →
/// 160×120, `tiny` → 80×60 (CI smoke runs).
///
/// # Panics
///
/// Panics, naming the valid spellings, when the variable is set to
/// anything but `fast`, `full` or `tiny`, so a typo never silently runs
/// the default scale.
pub fn scene_scale() -> (usize, usize, &'static str) {
    parse_scale(env_str("NEUROCUBE_SCALE").as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Deterministic pseudo-image input for throughput runs (values don't
/// affect timing; this keeps runs reproducible).
pub fn ramp_input(spec: &NetworkSpec) -> Tensor {
    ramp(spec.input_shape())
}

fn ramp(s: Shape) -> Tensor {
    let data = (0..s.len())
        .map(|i| Q88::from_f64(((i % 64) as f64 - 32.0) / 32.0))
        .collect();
    Tensor::from_vec(s.channels, s.height, s.width, data)
}

/// Loads `spec` into a fresh cube with `cfg` and runs one inference.
pub fn run_inference(cfg: SystemConfig, spec: &NetworkSpec, seed: u64) -> RunReport {
    run_inference_stats(cfg, spec, seed).0
}

/// Like [`run_inference`], but also returns the cube's final statistics
/// registry for CSV/JSON export.
pub fn run_inference_stats(
    cfg: SystemConfig,
    spec: &NetworkSpec,
    seed: u64,
) -> (RunReport, StatsRegistry) {
    let run = run_graph_mode(cfg, &spec.to_graph(), seed, true, true);
    (run.report, run.stats)
}

/// Fast-forward telemetry from one inference run (see
/// [`Neurocube::skipped_cycles`] and [`Neurocube::horizon_jumps`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipTelemetry {
    /// Simulated cycles crossed by event-horizon jumps instead of ticking.
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub horizon_jumps: u64,
}

/// Deterministic pseudo-image input sized to a graph's input shape; the
/// graph analogue of [`ramp_input`].
pub fn graph_ramp_input(graph: &GraphSpec) -> Tensor {
    ramp(graph.input_shape())
}

/// One compiled-graph run: output, per-phase report, final registry and
/// fast-forward telemetry.
pub struct GraphRunOutput {
    /// The graph's output-node tensor.
    pub output: Tensor,
    /// One [`neurocube::LayerReport`] per executed phase.
    pub report: RunReport,
    /// Final registry snapshot.
    pub stats: StatsRegistry,
    /// Fast-forward telemetry for the run.
    pub telemetry: SkipTelemetry,
}

/// Compiles `graph` onto a fresh cube and runs one inference either
/// `pipelined` (programmed once, phases sequenced on-cube) or as the
/// per-layer replay baseline (one host programming round-trip per phase).
/// `skip` selects event-horizon fast-forwarding (`true`, the default
/// everywhere else) or the naive per-cycle oracle (`false`).
pub fn run_graph_mode(
    cfg: SystemConfig,
    graph: &GraphSpec,
    seed: u64,
    skip: bool,
    pipelined: bool,
) -> GraphRunOutput {
    let params = graph.init_params(seed, 0.25);
    let mut cube = Neurocube::new(cfg);
    cube.set_cycle_skip(skip);
    let loaded = cube
        .load_graph(graph, params)
        .expect("graph fits the configured cube");
    let input = graph_ramp_input(graph);
    let (output, report) = if pipelined {
        cube.run_inference(&loaded, &input)
    } else {
        cube.run_graph_replay(&loaded, &input)
    };
    GraphRunOutput {
        output,
        report,
        stats: cube.stats_registry(),
        telemetry: SkipTelemetry {
            skipped_cycles: cube.skipped_cycles(),
            horizon_jumps: cube.horizon_jumps(),
        },
    }
}

/// One fault-sweep run: the output tensor (the raw material of the
/// accuracy-under-faults comparison), the run report, and the final
/// statistics registry.
pub struct FaultRun {
    /// The inference output.
    pub output: Tensor,
    /// The run's report (with its `fault` summary when an injector ran).
    pub report: RunReport,
    /// Final registry snapshot (with `fault.*` counters when an injector
    /// ran).
    pub stats: StatsRegistry,
}

/// Like [`run_inference_stats`], but with an explicit fault configuration
/// (`None` runs without an injector) and the output tensor returned, so
/// sweeps can measure accuracy degradation against a zero-fault
/// reference.
pub fn run_inference_faulty(
    cfg: SystemConfig,
    spec: &NetworkSpec,
    seed: u64,
    fault: Option<FaultConfig>,
) -> FaultRun {
    let params = spec.init_params(seed, 0.25);
    let mut cube = Neurocube::new(cfg);
    cube.set_fault_config(fault);
    let loaded = cube.load(spec.clone(), params);
    let input = ramp_input(spec);
    let (output, report) = cube.run_inference(&loaded, &input);
    let stats = cube.stats_registry();
    FaultRun {
        output,
        report,
        stats,
    }
}

/// Runs every sweep point of `jobs` on the kernel's [`BatchRunner`] —
/// each point is its own deterministic cube, so results are bitwise
/// identical to a serial sweep — and returns reports (with each cube's
/// statistics registry) in job order.
pub fn run_sweep(jobs: &[(SystemConfig, NetworkSpec, u64)]) -> Vec<(RunReport, StatsRegistry)> {
    BatchRunner::new().run(jobs.len(), |i| {
        let (cfg, spec, seed) = &jobs[i];
        run_inference_stats(cfg.clone(), spec, *seed)
    })
}

/// Exports a statistics registry as `<NEUROCUBE_CSV>/<name>.stats.csv`
/// and `.stats.json`; a no-op when `NEUROCUBE_CSV` is unset.
pub fn export_stats(name: &str, reg: &StatsRegistry) {
    let Some(dir) = std::env::var_os("NEUROCUBE_CSV") else {
        return;
    };
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("create NEUROCUBE_CSV directory");
    std::fs::write(dir.join(format!("{name}.stats.csv")), reg.to_csv()).expect("write stats CSV");
    std::fs::write(dir.join(format!("{name}.stats.json")), reg.to_json())
        .expect("write stats JSON");
}

/// A CSV sink for an experiment's data series, so results can be plotted
/// without scraping stdout. Enabled by setting `NEUROCUBE_CSV=<dir>`;
/// otherwise every write is a no-op.
pub struct CsvSink {
    file: Option<File>,
}

impl CsvSink {
    /// Opens `<NEUROCUBE_CSV>/<name>.csv` (creating the directory) and
    /// writes the header row, or returns a disabled sink.
    pub fn create(name: &str, header: &[&str]) -> CsvSink {
        let Some(dir) = std::env::var_os("NEUROCUBE_CSV") else {
            return CsvSink { file: None };
        };
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create NEUROCUBE_CSV directory");
        let mut file = File::create(dir.join(format!("{name}.csv"))).expect("create CSV");
        writeln!(file, "{}", header.join(",")).expect("write CSV header");
        CsvSink { file: Some(file) }
    }

    /// Appends one data row.
    pub fn row(&mut self, fields: &[String]) {
        if let Some(f) = &mut self.file {
            writeln!(f, "{}", fields.join(",")).expect("write CSV row");
        }
    }
}

/// Formats a float for CSV output.
pub fn csv_f(v: f64) -> String {
    format!("{v:.4}")
}

/// Prints a standard experiment header.
pub fn header(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// Prints a per-layer breakdown in the four-panel style of Figs. 12/13:
/// operations, cycles, throughput and traffic per layer.
pub fn print_layer_panels(report: &RunReport) {
    println!(
        "{:<4} {:<6} {:<11} {:>14} {:>12} {:>9} {:>9} {:>8}",
        "L", "kind", "pass", "ops", "cycles", "GOPs/s", "lateral%", "util%"
    );
    for l in &report.layers {
        println!(
            "{:<4} {:<6} {:<11} {:>14} {:>12} {:>9.1} {:>8.1}% {:>7.1}%",
            format!("L{}", l.layer_index + 1),
            l.kind,
            l.pass,
            l.ops(),
            l.cycles,
            l.throughput_gops(),
            100.0 * l.lateral_fraction(),
            100.0 * l.mac_utilization(),
        );
    }
    println!(
        "total: {} ops, {} cycles, {:.1} GOPs/s @5GHz ({:.1} @300MHz), {:.1}% lateral",
        report.total_ops(),
        report.total_cycles(),
        report.throughput_gops(),
        report.throughput_gops_at(300.0e6),
        100.0 * report.lateral_fraction(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_exactly_the_documented_spellings() {
        assert_eq!(parse_scale(None).unwrap().0, 120);
        assert_eq!(parse_scale(Some("fast")).unwrap().0, 120);
        assert_eq!(parse_scale(Some("full")).unwrap().0, 240);
        assert_eq!(parse_scale(Some("tiny")).unwrap().0, 60);
        for typo in ["paper", "small", "Full", " full", "fast "] {
            let err = parse_scale(Some(typo)).expect_err(typo);
            assert!(err.contains("valid: fast, full, tiny"), "{err}");
            assert!(err.contains(&format!("{typo:?}")), "{err}");
        }
    }
}
