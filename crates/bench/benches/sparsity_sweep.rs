//! Sparsity sweep: zero-operand classification and what gating hardware
//! would save, as a function of activation/weight density.
//!
//! A ReLU conv net runs at a ladder of operand densities (fraction of
//! nonzero input pixels and weights). Per point the sweep reports the
//! classification counters (`sparsity.*`), the MAC energy an
//! operand-gated datapath would save (`neurocube_power::gating`, 15 nm
//! point) and the DRAM transfer energy a zero-eliding vault controller
//! would save. Results go to `BENCH_sparsity.json` at the workspace root
//! (override with `NEUROCUBE_SPARSITY_OUT`). The run gates itself:
//! simulated cycles and MAC ops must not move with density (gating is
//! attribution, not a timing change — DESIGN.md §13), and gated
//! lane-cycles and saved pJ must increase monotonically as density drops,
//! or the process exits non-zero (the `ci.sh --sparsity` sanity gate).

use neurocube::SystemConfig;
use neurocube_bench::{header, run_inference_sparsity};
use neurocube_fixed::{Activation, Q88};
use neurocube_nn::{LayerSpec, NetworkSpec, Shape, Tensor};
use neurocube_power::gating::{elided_transfer_energy_j, gated_mac_energy_j};
use neurocube_power::ProcessNode;
use std::path::PathBuf;

/// The sweep's density ladder: one nonzero operand per `keep` positions,
/// so density = 1/keep. `keep = 1` is the fully dense reference.
const KEEPS: [usize; 5] = [1, 2, 4, 8, 16];

fn relu_net() -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, 64, 64),
        vec![LayerSpec::conv(8, 3, Activation::ReLU)],
    )
    .expect("geometry fits")
}

/// Input with one nonzero pixel per `keep`, values guaranteed nonzero
/// where kept (the ramp skips the value 0).
fn sparse_input(spec: &NetworkSpec, keep: usize) -> Tensor {
    let s = spec.input_shape();
    let data = (0..s.len())
        .map(|i| {
            if i % keep == 0 {
                Q88::from_f64(((i % 63) as f64 + 1.0) / 64.0)
            } else {
                Q88::ZERO
            }
        })
        .collect();
    Tensor::from_vec(s.channels, s.height, s.width, data)
}

/// The net's seeded parameters with all but one weight per `keep` zeroed.
fn sparse_params(spec: &NetworkSpec, seed: u64, keep: usize) -> Vec<Vec<Q88>> {
    let mut params = spec.init_params(seed, 0.25);
    for layer in &mut params {
        for (i, w) in layer.iter_mut().enumerate() {
            if i % keep != 0 {
                *w = Q88::ZERO;
            }
        }
    }
    params
}

struct Point {
    keep: usize,
    cycles: u64,
    mac_ops: u64,
    lanes_gated: u64,
    zero_activations: u64,
    zero_state_operands: u64,
    zero_weight_operands: u64,
    dram_zero_words_read: u64,
    dram_zero_read_runs: u64,
    gated_mac_pj: f64,
    elidable_dram_pj: f64,
}

fn write_json(points: &[Point], path: &PathBuf) {
    let mut out = String::from("{\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"density\": {:.4}, \"simulated_cycles\": {}, \"mac_ops\": {}, \
             \"lanes_gated\": {}, \"zero_activations\": {}, \
             \"zero_state_operands\": {}, \"zero_weight_operands\": {}, \
             \"dram_zero_words_read\": {}, \"dram_zero_read_runs\": {}, \
             \"gated_mac_pj\": {:.1}, \"elidable_dram_pj\": {:.1}}}{}\n",
            1.0 / p.keep as f64,
            p.cycles,
            p.mac_ops,
            p.lanes_gated,
            p.zero_activations,
            p.zero_state_operands,
            p.zero_weight_operands,
            p.dram_zero_words_read,
            p.dram_zero_read_runs,
            p.gated_mac_pj,
            p.elidable_dram_pj,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_sparsity.json");
}

fn main() {
    header(
        "BENCH_sparsity",
        "zero-operand classification and gated-update savings vs operand density",
    );
    let spec = relu_net();
    let cfg = SystemConfig::paper(true);
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "density", "sim cycles", "mac ops", "lanes gated", "zero acts", "gated pJ", "elidable pJ"
    );
    let mut points: Vec<Point> = Vec::new();
    for keep in KEEPS {
        let input = sparse_input(&spec, keep);
        let params = sparse_params(&spec, 9, keep);
        let (report, stats) = run_inference_sparsity(cfg.clone(), &spec, params, &input);
        let lanes_gated = stats.counter("sparsity.pe.lanes_gated");
        let zero_words = stats.counter("sparsity.dram.zero_words_read");
        let word_bits = u64::from(cfg.memory.channel.word_bits);
        let pj_per_bit = cfg.memory.channel.energy_pj_per_bit;
        let point = Point {
            keep,
            cycles: report.total_cycles(),
            mac_ops: stats.sum_suffix(".mac_ops"),
            lanes_gated,
            zero_activations: stats.counter("sparsity.png.zero_activations"),
            zero_state_operands: stats.counter("sparsity.png.zero_state_operands"),
            zero_weight_operands: stats.counter("sparsity.png.zero_weight_operands"),
            dram_zero_words_read: zero_words,
            dram_zero_read_runs: stats.counter("sparsity.dram.zero_read_runs"),
            gated_mac_pj: gated_mac_energy_j(ProcessNode::FinFet15, lanes_gated) * 1e12,
            elidable_dram_pj: elided_transfer_energy_j(zero_words * word_bits, pj_per_bit) * 1e12,
        };
        println!(
            "{:<8.4} {:>12} {:>12} {:>12} {:>10} {:>12.0} {:>12.0}",
            1.0 / keep as f64,
            point.cycles,
            point.mac_ops,
            point.lanes_gated,
            point.zero_activations,
            point.gated_mac_pj,
            point.elidable_dram_pj,
        );
        points.push(point);
    }

    // Sanity gate: timing and architectural op counts are density-blind,
    // and savings must grow monotonically as density drops. The counters
    // are deterministic, so any wobble is a classification bug.
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!(
            b.cycles == a.cycles && b.mac_ops == a.mac_ops,
            "operand density moved the paper's timing: {} cycles / {} MACs (1/{}) -> {} / {} (1/{})",
            a.cycles,
            a.mac_ops,
            a.keep,
            b.cycles,
            b.mac_ops,
            b.keep
        );
        assert!(
            b.lanes_gated >= a.lanes_gated,
            "gated lane-cycles fell as density dropped: {} (1/{}) -> {} (1/{})",
            a.lanes_gated,
            a.keep,
            b.lanes_gated,
            b.keep
        );
        assert!(
            b.gated_mac_pj >= a.gated_mac_pj && b.elidable_dram_pj >= a.elidable_dram_pj,
            "saved energy fell as density dropped (1/{} -> 1/{})",
            a.keep,
            b.keep
        );
    }
    let first = points.first().expect("sweep is non-empty");
    let last = points.last().expect("sweep is non-empty");
    assert!(
        last.lanes_gated > first.lanes_gated && last.gated_mac_pj > first.gated_mac_pj,
        "the sweep never classified any sparsity"
    );
    println!(
        "\nsanity gate passed: gated lane-cycles {} -> {} and saved pJ {:.0} -> {:.0} \
         grow monotonically as density falls 1/{} -> 1/{}",
        first.lanes_gated,
        last.lanes_gated,
        first.gated_mac_pj,
        last.gated_mac_pj,
        first.keep,
        last.keep
    );

    let out = std::env::var_os("NEUROCUBE_SPARSITY_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_sparsity.json")
        });
    write_json(&points, &out);
    println!("wrote {}", out.display());
}
