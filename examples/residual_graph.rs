//! Graph compiler demo: build a residual layer DAG, compile it onto the
//! cube once, and run it pipelined — no host round-trips between layers.
//!
//! ```sh
//! cargo run --release -p neurocube-golden --example residual_graph
//! ```

use neurocube::{Neurocube, ProgrammingModel, SystemConfig};
use neurocube_fixed::{Activation, Q88};
use neurocube_golden::{plan_graph, GoldenGraph};
use neurocube_nn::{GraphBuilder, LayerSpec, Shape, Tensor, INPUT};

fn main() {
    // 1. Describe a ResNet-style DAG, node by node: a conv stem, a 1x1
    //    branch, their element-wise sum, pooling, and an FC head. The
    //    builder validates names, shapes and acyclicity.
    let mut g = GraphBuilder::new(Shape::new(1, 12, 12));
    g.layer("stem", INPUT, LayerSpec::conv(4, 3, Activation::Tanh));
    g.layer(
        "branch",
        "stem",
        LayerSpec::conv(4, 1, Activation::Identity),
    );
    g.add("res", &["stem", "branch"], Activation::ReLU);
    g.layer("pool", "res", LayerSpec::AvgPool { size: 2 });
    g.layer("head", "pool", LayerSpec::fc(6, Activation::Sigmoid));
    let graph = g.build().expect("valid residual graph");
    let params = graph.init_params(42, 0.25);

    // 2. Compare the compiler's two placements (duplicate vs partitioned
    //    input volumes) with the analytical cost model before running
    //    anything cycle-accurately.
    let plan = plan_graph(&SystemConfig::paper(true), &graph);
    println!(
        "planner: duplicated >= {} cycles, partitioned >= {} cycles -> prefer {}",
        plan.duplicated_cycles,
        plan.partitioned_cycles,
        if plan.prefer_duplicate() {
            "duplicated"
        } else {
            "partitioned"
        }
    );

    // 3. Compile the whole DAG onto the cube in one programming phase and
    //    run it pipelined; the GraphSequencer retargets the PNGs/PEs at
    //    each phase boundary without leaving the cycle loop.
    let mut cfg = SystemConfig::paper(plan.prefer_duplicate());
    cfg.programming = Some(ProgrammingModel::typical());
    let mut cube = Neurocube::new(cfg.clone());
    let loaded = cube
        .load_graph(&graph, params.clone())
        .expect("graph fits the paper cube");
    let input = Tensor::from_vec(
        1,
        12,
        12,
        (0..144)
            .map(|i| Q88::from_f64(((i % 12) as f64 - 6.0) / 6.0))
            .collect(),
    );
    let (output, report) = cube.run_inference(&loaded, &input);
    println!("\npipelined run (programmed once):\n{report}");

    // 4. The replay baseline reprograms the cube before every phase. Same
    //    values, strictly more cycles.
    let mut replay_cube = Neurocube::new(cfg);
    let reloaded = replay_cube
        .load_graph(&graph, params.clone())
        .expect("graph fits the paper cube");
    let (replay_out, replay_report) = replay_cube.run_graph_replay(&reloaded, &input);
    assert_eq!(output, replay_out, "pipelining never changes values");
    println!(
        "replay baseline: {} cycles vs {} pipelined ({} saved, {:.2}x)",
        replay_report.total_cycles(),
        report.total_cycles(),
        replay_report.total_cycles() - report.total_cycles(),
        replay_report.total_cycles() as f64 / report.total_cycles() as f64
    );

    // 5. Differential check: every node volume the simulator committed to
    //    DRAM sits inside the golden model's composed error envelope.
    let golden = GoldenGraph::from_quantized(graph.clone(), params);
    let mut check_cube = Neurocube::new(SystemConfig::paper(true));
    let check_loaded = check_cube
        .load_graph(&graph, golden.graph().init_params(42, 0.25))
        .expect("graph fits the paper cube");
    let (volumes, _) = check_cube.run_graph_replay_collect(&check_loaded, &input);
    golden
        .check(&input, &volumes)
        .expect("all node volumes inside the golden envelope");
    println!(
        "\nall {} node volumes verified against the golden DAG model",
        volumes.len()
    );
}
