//! Property suite for the inter-cube fabric: sharding a model across a
//! cluster of cubes must be **bitwise invisible** to values and stay
//! inside the planner's certified, link-aware cycle bounds.
//!
//! For random 1–3-branch layer DAGs (chains of fully connected blocks
//! interleaved with branch/concat blocks, planned over ring and mesh
//! fabrics at a vault region small enough to usually force multi-stage
//! plans):
//!
//! 1. The sharded cluster's output equals a single big-region cube
//!    running the whole graph — exact, bit for bit — and both satisfy
//!    the golden functional reference.
//! 2. Event-horizon fast-forwarding across the cluster (member cubes
//!    *and* clocked link stages) is observationally invisible: skip vs
//!    naive agree on the output, the cycle count, and the entire
//!    statistics registry, `cluster.*` link counters included.
//! 3. The measured run lands inside the plan's end-to-end envelope and
//!    at or above its certified lower bound; multi-stage plans carry a
//!    non-zero link share that is part of that bound.
//! 4. Property 2 also holds on a warm cluster: a pipelined batch of 3
//!    and then a second run on the same cluster, which starts at a
//!    non-zero cycle on member clocks that each stopped somewhere else.

mod common;

use neurocube::{Neurocube, SystemConfig};
use neurocube_cluster::{shard_graph, Cluster, ClusterTopology, LinkConfig, ShardedGraph};
use neurocube_fixed::{Activation, Q88};
use neurocube_golden::GoldenGraph;
use neurocube_nn::{GraphBuilder, GraphSpec, LayerSpec, Shape, Tensor, INPUT};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Case budget: `PROPTEST_CASES` when set (`ci.sh` pins 32 for the
/// standard gate, 512 for `--cluster`), otherwise `default`.
fn cases(default: u32) -> u32 {
    neurocube_sim::env_u64("PROPTEST_CASES").map_or(default, |v| v as u32)
}

/// One generated DAG: a convolutional stem on a 2×8×8 volume, an
/// optional 2–3-way branch of convolutions merged by a channel concat
/// (flat volumes cannot concat, so branches stay spatial), then a chain
/// of fully connected blocks and a 16-way head. One to three branches —
/// `branch: None` is the 1-branch chain.
#[derive(Clone, Debug)]
struct ClusterCase {
    stem_channels: usize,
    /// `(branches, channels per branch, activation index)`.
    branch: Option<(usize, usize, usize)>,
    /// Fully connected chain: `(width, activation index)` per block.
    fcs: Vec<(usize, usize)>,
    mesh: bool,
    seed: u64,
}

const ACTS: [Activation; 3] = [Activation::Tanh, Activation::Sigmoid, Activation::ReLU];
const FC_WIDTHS: [usize; 4] = [48, 64, 96, 128];

fn cluster_case() -> impl Strategy<Value = ClusterCase> {
    let branch = prop_oneof![
        Just(None),
        (2..=3usize, 2..=4usize, 0..3usize).prop_map(Some),
    ];
    (
        2..=4usize,
        branch,
        proptest::collection::vec((0..4usize, 0..3usize), 1..=3),
        any::<bool>(),
        0u64..1 << 16,
    )
        .prop_map(|(stem_channels, branch, fcs, mesh, seed)| ClusterCase {
            stem_channels,
            branch,
            fcs,
            mesh,
            seed,
        })
}

fn build_graph(case: &ClusterCase) -> GraphSpec {
    let mut g = GraphBuilder::new(Shape::new(2, 8, 8));
    g.layer(
        "stem",
        INPUT,
        LayerSpec::conv(case.stem_channels, 3, Activation::Tanh),
    );
    let mut prev = "stem".to_string();
    if let Some((branches, channels, act)) = case.branch {
        let names: Vec<String> = (0..branches)
            .map(|j| {
                let name = format!("b{j}");
                g.layer(&name, &prev, LayerSpec::conv(channels, 3, ACTS[act]));
                name
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        g.concat("cat", &refs);
        prev = "cat".to_string();
    }
    for (i, &(w, a)) in case.fcs.iter().enumerate() {
        let name = format!("fc{i}");
        g.layer(&name, &prev, LayerSpec::fc(FC_WIDTHS[w], ACTS[a]));
        prev = name;
    }
    g.layer("head", &prev, LayerSpec::fc(16, Activation::Sigmoid));
    g.build().expect("generated blocks form a valid DAG")
}

/// Plans the case over an 8-cube fabric. The vault region starts small
/// enough that most cases exceed one cube and must pipeline; a case
/// whose blocks cannot fit the shrunken region at all falls back to
/// bigger regions (the properties hold for single-stage plans too — the
/// deterministic anchor pins that multi-stage plans actually occur).
fn plan_case(case: &ClusterCase) -> Result<(SystemConfig, ShardedGraph, Tensor), TestCaseError> {
    let graph = build_graph(case);
    let params = graph.init_params(case.seed ^ 0x5eed, 0.25);
    let mut link = LinkConfig::hmc_ext(8);
    if case.mesh {
        link.topology = ClusterTopology::square_mesh(8);
    }
    let shape = graph.input_shape();
    let mut input = Tensor::zeros(shape.channels, shape.height, shape.width);
    let stride = (case.seed % 7 + 1) as i64;
    for i in 0..shape.len() {
        input.set_at(
            i,
            Q88::from_f64(((i as i64 * stride) % 13 - 6) as f64 / 16.0),
        );
    }
    for region in [4 * 1024, 8 * 1024, 256 << 20] {
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = region;
        if let Ok(plan) = shard_graph(&cfg, &graph, &params, &link) {
            return Ok((cfg, plan, input));
        }
    }
    Err(TestCaseError::fail(format!(
        "case plans at no region: {case:?}"
    )))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(4)))]

    /// Property 1: sharding is value-exact. The cluster's output equals
    /// the single big-region cube bit for bit, and both pass the golden
    /// functional reference of the original graph.
    #[test]
    fn sharded_matches_single_big_cube_bitwise(case in cluster_case()) {
        let (cfg, plan, input) = plan_case(&case)?;
        let (graph, params) = (plan.graph.clone(), plan.params.clone());
        let mut cluster = Cluster::new(&cfg, plan).expect("certified plan loads");
        let (out, report) = cluster.run(&input);
        prop_assert!(report.cycles > 0);

        let mut big_cfg = cfg.clone();
        big_cfg.memory.region_bytes = 256 << 20;
        let mut cube = Neurocube::new(big_cfg);
        let loaded = cube
            .load_graph(&graph, params.clone())
            .expect("the big cube holds the whole model");
        let (reference, _) = cube.run_graph_inference(&loaded, &input);
        prop_assert_eq!(
            out.as_slice(), reference.as_slice(),
            "sharded output diverges from the single-big-cube reference ({:?})", case
        );
        if let Err(div) = GoldenGraph::from_quantized(graph, params).check_output(&input, &out) {
            return Err(TestCaseError::fail(format!(
                "golden functional reference diverges: {div} ({case:?})"
            )));
        }
    }

    /// Property 2: event-horizon fast-forwarding across the cluster is
    /// observationally invisible — output, end-to-end cycles, and the
    /// full registry (member scopes and `cluster.*` link counters alike)
    /// agree between skip and naive runs.
    #[test]
    fn cluster_fast_forward_is_observationally_invisible(case in cluster_case()) {
        let (cfg, plan, input) = plan_case(&case)?;
        let mut fast = Cluster::new(&cfg, plan.clone()).expect("certified plan loads");
        fast.set_cycle_skip(true);
        let (fast_out, fast_report) = fast.run(&input);

        let mut naive = Cluster::new(&cfg, plan).expect("certified plan loads");
        naive.set_cycle_skip(false);
        let (naive_out, naive_report) = naive.run(&input);

        prop_assert_eq!(
            naive_report.skipped_cycles, 0,
            "the naive oracle must not fast-forward"
        );
        prop_assert_eq!(fast_out.as_slice(), naive_out.as_slice(), "outputs diverge");
        prop_assert_eq!(
            fast_report.cycles, naive_report.cycles,
            "end-to-end cycle counts diverge ({:?})", case
        );
        if let Some(delta) = fast.stats_registry().first_difference(&naive.stats_registry()) {
            return Err(TestCaseError::fail(format!(
                "statistics diverge at {delta} (skip run jumped {} times over {} cycles; {case:?})",
                fast_report.jumps, fast_report.skipped_cycles
            )));
        }
    }

    /// Property 3: the measured run obeys the planner's link-aware
    /// certified bounds — at or above the end-to-end lower bound, inside
    /// the envelope, with multi-stage plans carrying a non-zero link
    /// share counted into that bound.
    #[test]
    fn measured_cycles_respect_certified_link_bounds(case in cluster_case()) {
        let (cfg, plan, input) = plan_case(&case)?;
        let envelope = plan.envelope;
        let (lower, link_lower) = (plan.lower, plan.link_lower);
        let stages = plan.stages.len();
        let mut cluster = Cluster::new(&cfg, plan).expect("certified plan loads");
        let (_, report) = cluster.run(&input);
        prop_assert!(
            report.cycles >= lower,
            "measured {} cycles beat the certified lower bound {} ({:?})",
            report.cycles, lower, case
        );
        if let Err(e) = envelope.check(report.cycles) {
            return Err(TestCaseError::fail(format!(
                "measured cycles escape the envelope: {e} ({case:?})"
            )));
        }
        prop_assert!(envelope.lower >= lower);
        if stages > 1 {
            prop_assert!(
                link_lower > 0,
                "a {} -stage plan must carry a link share in its bound", stages
            );
            prop_assert!(lower > link_lower, "compute share must be non-zero");
        }
    }

    /// Property 4: fast-forward stays invisible past the first run. A
    /// batch of 3 pipelines jobs through the stages (a cube is re-armed
    /// the cycle after its previous job is harvested), and the run after
    /// it starts from a non-zero cycle with every member caught up from
    /// wherever its last stage left it. Outputs, both cycle counts and
    /// the full registry agree between skip and naive.
    #[test]
    fn warm_cluster_fast_forward_is_observationally_invisible(case in cluster_case()) {
        let (cfg, plan, input) = plan_case(&case)?;
        let batch = vec![input.clone(), input.clone(), input.clone()];
        let run = |skip: bool| {
            let mut cluster = Cluster::new(&cfg, plan.clone()).expect("certified plan loads");
            cluster.set_cycle_skip(skip);
            let (batch_outs, batch_report) = cluster.run_batch(&batch);
            let (out, report) = cluster.run(&input);
            (cluster, batch_outs, batch_report, out, report)
        };
        let (fast, fast_batch, fast_batch_report, fast_out, fast_report) = run(true);
        let (naive, naive_batch, naive_batch_report, naive_out, naive_report) = run(false);

        prop_assert_eq!(
            (naive_batch_report.jumps, naive_report.jumps), (0, 0),
            "the naive oracle must not fast-forward"
        );
        for (f, n) in fast_batch.iter().zip(&naive_batch) {
            prop_assert_eq!(f.as_slice(), n.as_slice(), "batch outputs diverge");
            prop_assert_eq!(f.as_slice(), fast_out.as_slice(), "equal inputs, unequal outputs");
        }
        prop_assert_eq!(fast_out.as_slice(), naive_out.as_slice(), "second-run outputs diverge");
        prop_assert_eq!(
            (fast_batch_report.cycles, fast_report.cycles),
            (naive_batch_report.cycles, naive_report.cycles),
            "cycle counts diverge ({:?})", case
        );
        prop_assert_eq!(fast.now(), naive.now());
        if let Some(delta) = fast.stats_registry().first_difference(&naive.stats_registry()) {
            return Err(TestCaseError::fail(format!(
                "statistics diverge at {delta} after a batch and a second run ({case:?})"
            )));
        }
    }
}

/// Deterministic anchor: the generator's capacity pressure is real. A
/// four-block worst-width case exceeds the shrunken region, shards into
/// a multi-stage plan on a mesh, moves bytes over links, and the fast
/// mode actually jumps (a cluster that never fast-forwards would pass
/// property 2 vacuously).
#[test]
fn multi_stage_plans_engage_on_the_fat_case() {
    let case = ClusterCase {
        stem_channels: 4,
        branch: Some((3, 4, 2)),
        fcs: vec![(3, 0), (2, 1)],
        mesh: true,
        seed: 7,
    };
    let (cfg, plan, input) = plan_case(&case).expect("the fat case plans");
    assert!(
        plan.stages.len() > 1,
        "the fat case no longer forces a multi-stage plan ({} stages)",
        plan.stages.len()
    );
    assert!(matches!(plan.link.topology, ClusterTopology::Mesh { .. }));
    assert!(plan.link_lower > 0);
    let mut cluster = Cluster::new(&cfg, plan).expect("certified plan loads");
    let (out, report) = cluster.run(&input);
    assert!(!out.is_empty());
    assert!(
        report.jumps > 0 && report.skipped_cycles > 0,
        "fast mode never jumped on the fat case"
    );
    let stats = cluster.stats_registry();
    assert!(stats.counter("cluster.transfers") > 0);
    assert!(stats.counter("cluster.bytes") > 0);
    assert!(stats.metric("cluster.energy_j") > 0.0);
}
