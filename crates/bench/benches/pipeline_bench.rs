//! Graph-compiler pipelining benchmark: compiled-pipelined execution
//! (the cube programmed once, phases sequenced on-cube by the
//! `GraphSequencer`) vs the per-layer replay baseline (one host
//! programming round-trip per phase), in *simulated* cycles.
//!
//! Workloads: the MNIST MLP and the fig. 14 conv/FC shapes embedded as
//! linear graphs, plus the residual and concat toy DAGs — the graph
//! features the compiler pipelines. Every workload runs with the paper's
//! host programming model attached (`ProgrammingModel::typical`), both
//! ways, and the harness asserts the two modes are **value-exact**
//! (bitwise-equal outputs) before it reports any saving, so a
//! fast-but-wrong pipeline can never post a number. On every
//! *multi-phase* workload the pipelined run must be strictly cheaper —
//! the replay pays the programming charge per phase, the pipeline once
//! per inference.
//!
//! The table is printed only, and every number in it is simulated:
//! every workload pins its parameter seed, so a rerun prints the same
//! table.

use neurocube::{ProgrammingModel, SystemConfig};
use neurocube_bench::{header, run_graph_mode};
use neurocube_fixed::Activation;
use neurocube_nn::{GraphSpec, LayerSpec, NetworkSpec, Shape};

struct Workload {
    name: &'static str,
    graph: GraphSpec,
    dup: bool,
    seed: u64,
}

fn conv_net(input: usize, maps: usize, kernel: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, input, input),
        vec![LayerSpec::conv(maps, kernel, Activation::Tanh)],
    )
    .expect("geometry fits")
}

fn fc_net(inputs: usize, hidden: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::flat(inputs),
        vec![LayerSpec::fc(hidden, Activation::Sigmoid)],
    )
    .expect("geometry fits")
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "mnist_mlp_h64",
            graph: neurocube_nn::workloads::mnist_mlp(64).to_graph(),
            dup: true,
            seed: 7,
        },
        Workload {
            name: "fig14_conv_k3_dup",
            graph: conv_net(128, 16, 3).to_graph(),
            dup: true,
            seed: 14,
        },
        Workload {
            name: "fig14_conv_k7_nodup",
            graph: conv_net(128, 16, 7).to_graph(),
            dup: false,
            seed: 14,
        },
        Workload {
            name: "fig14_fc_2048x1024_dup",
            graph: fc_net(2048, 1024).to_graph(),
            dup: true,
            seed: 14,
        },
        Workload {
            name: "residual_toy",
            graph: neurocube_nn::workloads::residual_toy(),
            dup: true,
            seed: 7,
        },
        Workload {
            name: "concat_toy",
            graph: neurocube_nn::workloads::concat_toy(),
            dup: true,
            seed: 7,
        },
    ]
}

struct Row {
    phases: usize,
    replay_cycles: u64,
    pipelined_cycles: u64,
    replay_programming: u64,
    pipelined_programming: u64,
}

impl Row {
    fn saved_cycles(&self) -> u64 {
        self.replay_cycles - self.pipelined_cycles
    }

    fn speedup(&self) -> f64 {
        self.replay_cycles as f64 / self.pipelined_cycles as f64
    }
}

fn main() {
    header(
        "Pipelining",
        "compiled-pipelined DAG execution vs per-layer replay (simulated cycles)",
    );
    let charge = ProgrammingModel::typical().layer_cycles(16);
    println!("host programming charge: {charge} cycles per program (16 PNGs)");
    println!(
        "{:<24} {:>7} {:>13} {:>13} {:>11} {:>10} {:>11} {:>11}",
        "workload",
        "phases",
        "replay cyc",
        "pipeline cyc",
        "saved cyc",
        "speedup",
        "replay prog",
        "pipe prog"
    );
    let mut rows = Vec::new();
    for w in workloads() {
        let mut cfg = SystemConfig::paper(w.dup);
        cfg.programming = Some(ProgrammingModel::typical());
        let piped = run_graph_mode(cfg.clone(), &w.graph, w.seed, true, true);
        let replay = run_graph_mode(cfg, &w.graph, w.seed, true, false);
        assert_eq!(
            piped.output.as_slice(),
            replay.output.as_slice(),
            "{}: pipelined run diverged from the replay baseline",
            w.name
        );
        let phases = piped.report.layers.len();
        assert_eq!(phases, replay.report.layers.len());
        let row = Row {
            phases,
            replay_cycles: replay.report.total_cycles(),
            pipelined_cycles: piped.report.total_cycles(),
            replay_programming: charge * phases as u64,
            pipelined_programming: charge,
        };
        if phases > 1 {
            assert!(
                row.pipelined_cycles < row.replay_cycles,
                "{}: pipelined ({}) must be strictly below replay ({}) on a \
                 multi-phase workload",
                w.name,
                row.pipelined_cycles,
                row.replay_cycles
            );
        }
        println!(
            "{:<24} {:>7} {:>13} {:>13} {:>11} {:>9.4}x {:>11} {:>11}",
            w.name,
            row.phases,
            row.replay_cycles,
            row.pipelined_cycles,
            row.saved_cycles(),
            row.speedup(),
            row.replay_programming,
            row.pipelined_programming
        );
        rows.push(row);
    }

    let min = rows
        .iter()
        .filter(|r| r.phases > 1)
        .map(Row::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("\nmin multi-phase speedup: {min:.4}x");
    println!(
        "replay pays the host programming charge per phase; the pipeline pays it \
         once per inference\n(single-phase workloads are the break-even control: \
         one program either way)."
    );
}
