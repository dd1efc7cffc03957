//! Every call the ledger makes into the program under test, each inside
//! the span that names its layer. The other files of the ledger name no
//! `neurocube*` crate, so a change of the program's public interface is
//! a change to this file alone.
//!
//! Nothing here sets a knob: cubes, catalogs and clusters are built with
//! the configuration a user gets by default.

use crate::trace::Tracer;
use neurocube::{training_ops, Neurocube};
use neurocube_cluster::{shard_graph, Cluster, LinkConfig};
use neurocube_dram::{Channel, ChannelConfig, RequestKind, Storage};
use neurocube_fixed::{Activation, MacUnit};
use neurocube_nn::{workloads, Executor, GraphBuilder, LayerSpec, INPUT};
use neurocube_noc::{Network, Packet, PacketKind, Topology};
use neurocube_png::schedule::OperandStream;
use neurocube_serve::{
    execute, execute_two_speed, generate, serve_mode, ServeCube, TrafficSpec, TwoSpeedConfig,
    SCENARIOS,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub use neurocube::SystemConfig;
pub use neurocube_cluster::ShardedGraph;
pub use neurocube_fixed::Q88;
pub use neurocube_nn::{GraphSpec, NetworkSpec, Shape, Tensor};
pub use neurocube_serve::{
    DispatchRecord, ExecMode, ModelCatalog, Request, ServeConfig, ServeReport, TwoSpeedReport,
};
pub use neurocube_sim::StatsRegistry;

/// The clock the paper's GOPs/s figures are stated at.
pub const PAPER_TRAINING_GOPS: f64 = 126.8;

// ---------------------------------------------------------------- nn

/// One convolution layer on a square single-channel image: the Fig. 14
/// kernel sweep's shape.
pub fn conv_net(input: usize, maps: usize, kernel: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, input, input),
        vec![LayerSpec::conv(maps, kernel, Activation::Tanh)],
    )
    .expect("the conv geometry fits its input")
}

/// The 8×8 two-layer MLP that the two-speed suites pair with
/// `tiny_convnet`.
pub fn mlp_8x8() -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, 8, 8),
        vec![
            LayerSpec::fc(8, Activation::ReLU),
            LayerSpec::fc(4, Activation::Identity),
        ],
    )
    .expect("the MLP geometry is valid")
}

/// The training step of Fig. 13: scene labeling at 64×64.
pub fn scene_labeling_training() -> NetworkSpec {
    workloads::scene_labeling_training()
}

/// The seven layers of the scene-labeling network (Fig. 9) a quarter as
/// wide, on a 3×36×36 input: a training step of 21 passes that takes a
/// quarter of a second where Fig. 13's takes 4.4 s.
pub fn training_net() -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(3, 36, 36),
        vec![
            LayerSpec::conv(16, 5, Activation::Tanh),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::conv(32, 5, Activation::Tanh),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::conv(64, 5, Activation::Tanh),
            LayerSpec::fc(64, Activation::Tanh),
            LayerSpec::fc(8, Activation::Sigmoid),
        ],
    )
    .expect("the geometry fits its input")
}

pub fn mnist_mlp(hidden: usize) -> NetworkSpec {
    workloads::mnist_mlp(hidden)
}

pub fn tiny_convnet() -> NetworkSpec {
    workloads::tiny_convnet()
}

pub fn residual_toy() -> GraphSpec {
    workloads::residual_toy()
}

/// `depth` fully connected 256-wide Tanh stages and a 16-way head. With
/// a 6 KiB vault region no stage fits one cube, so the planner must both
/// band and pipeline the chain.
pub fn fc_chain(depth: usize) -> GraphSpec {
    let mut g = GraphBuilder::new(Shape::flat(256));
    let mut prev = INPUT.to_string();
    for i in 0..depth {
        let name = format!("fc{i}");
        g.layer(&name, &prev, LayerSpec::fc(256, Activation::Tanh));
        prev = name;
    }
    g.layer("head", &prev, LayerSpec::fc(16, Activation::Tanh));
    g.build().expect("a chain is a valid graph")
}

pub fn init_params(t: &mut Tracer, spec: &NetworkSpec, seed: u64) -> Vec<Vec<Q88>> {
    t.span("nn.init_params", |_| spec.init_params(seed, 0.25))
}

pub fn init_graph_params(t: &mut Tracer, graph: &GraphSpec, seed: u64) -> Vec<Vec<Q88>> {
    t.span("nn.init_params", |_| graph.init_params(seed, 0.125))
}

/// A tensor of `shape` from values in `[-1, 1)`.
pub fn tensor(shape: Shape, values: impl Iterator<Item = f64>) -> Tensor {
    let data: Vec<Q88> = values.take(shape.len()).map(Q88::from_f64).collect();
    Tensor::from_vec(shape.channels, shape.height, shape.width, data)
}

/// The functional reference: the network's output for `input`.
pub fn forward(t: &mut Tracer, spec: &NetworkSpec, params: &[Vec<Q88>], input: &Tensor) -> Tensor {
    t.span("nn.forward", |_| {
        Executor::new(spec.clone(), params.to_vec())
            .forward(input)
            .pop()
            .expect("a network has at least one layer")
    })
}

// -------------------------------------------------------------- core

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CubeJob {
    Inference,
    TrainingStep,
}

/// What one run of a fresh cube produced.
pub struct CubeRun {
    /// The output volume; a training step has none.
    pub output: Option<Tensor>,
    pub cycles: u64,
    pub ops: u64,
    /// Simulated throughput at the 5 GHz reference clock.
    pub gops: f64,
    pub skipped_cycles: u64,
    pub horizon_jumps: u64,
    pub registry: StatsRegistry,
}

/// Builds a cube, loads `spec` and runs `job` once.
pub fn cube_run(
    t: &mut Tracer,
    cfg: &SystemConfig,
    spec: &NetworkSpec,
    params: &[Vec<Q88>],
    input: &Tensor,
    job: CubeJob,
) -> CubeRun {
    let mut cube = t.span("core.new", |_| Neurocube::new(cfg.clone()));
    let loaded = t.span("core.load", |_| cube.load(spec.clone(), params.to_vec()));
    let (output, report) = t.span("core.run", |_| match job {
        CubeJob::Inference => {
            let (out, report) = cube.run_inference(&loaded, input);
            (Some(out), report)
        }
        CubeJob::TrainingStep => (None, cube.run_training_step(&loaded, input)),
    });
    let registry = t.span("core.stats_registry", |_| cube.stats_registry());
    CubeRun {
        output,
        cycles: report.total_cycles(),
        ops: report.total_ops(),
        gops: report.throughput_gops(),
        skipped_cycles: cube.skipped_cycles(),
        horizon_jumps: cube.horizon_jumps(),
        registry,
    }
}

/// Operations one training step of `spec` must perform, from the pass
/// schedule alone.
pub fn expected_training_ops(spec: &NetworkSpec) -> u64 {
    training_ops(spec)
}

/// The outputs of `graph` for each input on one cube whose vault regions
/// hold the whole model: the reference a sharded run must equal.
pub fn single_cube_reference(
    t: &mut Tracer,
    cfg: &SystemConfig,
    graph: &GraphSpec,
    params: &[Vec<Q88>],
    inputs: &[Tensor],
) -> Vec<Tensor> {
    t.span("core.reference", |_| {
        let mut big = cfg.clone();
        big.memory.region_bytes = 256 << 20;
        let mut cube = Neurocube::new(big);
        let loaded = cube
            .load_graph(graph, params.to_vec())
            .expect("a 256 MiB region holds the whole graph");
        inputs
            .iter()
            .map(|input| cube.run_graph_inference(&loaded, input).0)
            .collect()
    })
}

/// 64-bit FNV-1a fold of every key and value of a registry. Two
/// registries that differ anywhere differ here, up to hash collision.
pub fn registry_digest(reg: &StatsRegistry) -> u64 {
    let mut h = Fnv::new();
    for (k, v) in reg.counters() {
        h.bytes(k.as_bytes());
        h.word(v);
    }
    for (k, v) in reg.metrics().chain(reg.gauges()) {
        h.bytes(k.as_bytes());
        h.word(v.to_bits());
    }
    for (k, hist) in reg.histograms() {
        h.bytes(k.as_bytes());
        for (value, count) in hist.buckets() {
            h.word(value);
            h.word(count);
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// The component counters of a cube registry, or of a cluster registry
/// (member cubes under `cube{i}.`), summed over units. Raw stall counts
/// overlap across components; they are counts, not a decomposition.
pub fn component_counters(reg: &StatsRegistry, cycles: u64) -> Vec<(&'static str, f64)> {
    /// `(unit, counter)` pairs to total, in one pass over the registry.
    const SUMMED: [(&str, &str); 17] = [
        ("pe", "mac_ops"),
        ("pe", "starved_cycles"),
        ("png", "operands_sent"),
        ("png", "reads_issued"),
        ("png", "writes_issued"),
        ("png", "inject_stalls"),
        ("png", "gate_stalls"),
        ("png", "queue_stalls"),
        ("png", "outq_stalls"),
        ("noc", "injected"),
        ("noc", "delivered"),
        ("noc", "lateral"),
        ("noc", "total_hops"),
        ("noc", "total_latency"),
        ("noc", "inject_stalls"),
        ("mem", "bits_transferred"),
        ("mem", "row_misses"),
    ];
    let slot = |unit: &str, name: &str| SUMMED.iter().position(|&w| w == (unit, name));
    let (mut sums, mut units) = ([0.0; SUMMED.len()], [0.0; SUMMED.len()]);
    for (key, v) in reg.counters() {
        // A key is `[cube{i}.]<unit><index>.<name>`; `unit` is its letters.
        let mut parts = key.rsplit('.');
        let (Some(name), Some(unit)) = (parts.next(), parts.next()) else {
            continue;
        };
        let unit = unit.trim_end_matches(|c: char| c.is_ascii_digit());
        if let Some(i) = slot(unit, name) {
            sums[i] += v as f64;
            units[i] += 1.0;
        }
    }
    let at = |unit: &str, name: &str| slot(unit, name).expect("a pair of the table");
    let sum = |unit: &str, name: &str| sums[at(unit, name)];
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let pes = units[at("pe", "mac_ops")];
    let cache_high_water = reg
        .gauges()
        .filter(|(k, _)| k.ends_with(".cache_high_water"))
        .map(|(_, v)| v)
        .fold(0.0, f64::max);
    let energy_j: f64 = reg
        .metrics()
        .filter(|(k, _)| k.ends_with("mem.energy_j"))
        .map(|(_, v)| v)
        .sum();
    let delivered = sum("noc", "delivered");
    vec![
        ("pe.mac_ops", sum("pe", "mac_ops")),
        ("pe.starved_cycles", sum("pe", "starved_cycles")),
        (
            "pe.mac_utilization",
            ratio(sum("pe", "mac_ops"), cycles as f64 * pes),
        ),
        ("pe.cache_high_water", cache_high_water),
        ("png.operands_sent", sum("png", "operands_sent")),
        ("png.reads_issued", sum("png", "reads_issued")),
        ("png.writes_issued", sum("png", "writes_issued")),
        ("png.inject_stalls", sum("png", "inject_stalls")),
        ("png.gate_stalls", sum("png", "gate_stalls")),
        ("png.queue_stalls", sum("png", "queue_stalls")),
        ("png.outq_stalls", sum("png", "outq_stalls")),
        ("noc.injected", sum("noc", "injected")),
        ("noc.lateral_share", ratio(sum("noc", "lateral"), delivered)),
        ("noc.mean_hops", ratio(sum("noc", "total_hops"), delivered)),
        (
            "noc.mean_latency_cycles",
            ratio(sum("noc", "total_latency"), delivered),
        ),
        ("noc.inject_stalls", sum("noc", "inject_stalls")),
        ("dram.bits_transferred", sum("mem", "bits_transferred")),
        ("dram.row_misses", sum("mem", "row_misses")),
        ("dram.energy_j", energy_j),
    ]
}

// ------------------------------------------------------------- serve

pub enum Tenant {
    Linear(&'static str, NetworkSpec),
    Graph(&'static str, GraphSpec),
}

/// Registers `tenants` on the paper's cube with duplication; each
/// registration profiles the model once on a fresh cube. Tenant `i`
/// draws its weights from `seed + i`.
pub fn catalog(t: &mut Tracer, tenants: &[Tenant], seed: u64) -> ModelCatalog {
    t.span("serve.catalog_register", |_| {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        for (i, tenant) in tenants.iter().enumerate() {
            let seed = seed + i as u64;
            match tenant {
                Tenant::Linear(name, spec) => cat.register(name, spec.clone(), seed),
                Tenant::Graph(name, graph) => cat.register_graph(name, graph.clone(), seed),
            };
        }
        cat
    })
}

/// Timing-only twins of `real`: same names and memoized timings, no
/// payload, so a million-request trace carries one-element inputs.
pub fn twin_catalog(real: &ModelCatalog) -> ModelCatalog {
    let mut twins = ModelCatalog::new(real.config().clone());
    for e in real.entries() {
        twins.register_synthetic(&e.name, e.service_cycles, e.reprogram_cycles);
    }
    twins
}

pub const POOL: usize = 4;

/// Pool of four, batches of up to eight, a batching window of one mean
/// service time: the settings of the serve benches.
pub fn serve_config(cat: &ModelCatalog) -> ServeConfig {
    ServeConfig {
        pool: POOL,
        max_batch: 8,
        max_delay: mean_service_cycles(cat) as u64,
        queue_cap: 64,
    }
}

fn mean_service_cycles(cat: &ModelCatalog) -> f64 {
    cat.entries().map(|e| e.service_cycles).sum::<u64>() as f64 / cat.len() as f64
}

/// The three named scenarios, in the order the program lists them.
pub fn scenario_names() -> [&'static str; 3] {
    SCENARIOS.map(|s| s.name)
}

/// `count` arrivals over every model of `cat` with equal weights, at
/// `load` times the rate that saturates the pool (one request every
/// mean service time ÷ pool size). `scenario` picks a named arrival
/// profile with its priority tiers; `None` is plain Poisson.
pub fn generate_trace(
    t: &mut Tracer,
    cat: &ModelCatalog,
    seed: u64,
    load: f64,
    count: u64,
    scenario: Option<&str>,
) -> Vec<Request> {
    let mix = cat.entries().map(|e| (e.name.clone(), 1)).collect();
    let mean_gap = mean_service_cycles(cat) / POOL as f64 / load;
    let mut spec = TrafficSpec::poisson(seed, mean_gap, count, mix);
    if let Some(name) = scenario {
        let sc = SCENARIOS
            .iter()
            .find(|s| s.name == name)
            .expect("a scenario the program defines");
        spec = spec.with_scenario(sc);
    }
    t.span("serve.generate", |_| generate(cat, &spec))
}

pub fn schedule(
    t: &mut Tracer,
    cat: &ModelCatalog,
    cfg: &ServeConfig,
    trace: &[Request],
) -> ServeReport {
    t.span("serve.schedule", |_| serve_mode(cat, cfg, trace, None))
}

/// What a replay of a schedule on real cubes counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Replayed {
    pub requests: u64,
    pub misses: u64,
    pub output_checksum: u64,
}

pub fn execute_records(
    t: &mut Tracer,
    cat: &ModelCatalog,
    trace: &[Request],
    records: &[DispatchRecord],
    mode: ExecMode,
) -> Replayed {
    let stats = t.span("serve.execute", |_| execute(cat, trace, records, mode));
    Replayed {
        requests: stats.counter("serve.exec.requests"),
        misses: stats.counter("serve.exec.affinity.misses"),
        output_checksum: stats.counter("serve.exec.output_checksum"),
    }
}

/// The ledger's own replay of `records`, one slot per pool cube, through
/// the calls `execute` makes, each in its own span. Its checksum folds
/// outputs the way `execute` does, so the two must agree.
pub fn replay_records(
    t: &mut Tracer,
    cat: &ModelCatalog,
    trace: &[Request],
    records: &[DispatchRecord],
) -> Replayed {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut total = Replayed {
        requests: 0,
        misses: 0,
        output_checksum: 0,
    };
    let pool = records.iter().map(|r| r.cube + 1).max().unwrap_or(0);
    for c in 0..pool {
        let mut cube = t.span("serve.cube_new", |_| ServeCube::new(cat.config().clone()));
        let mut checksum = 0u64;
        for rec in records.iter().filter(|r| r.cube == c) {
            let payload = cat
                .entry(rec.model)
                .payload
                .as_ref()
                .expect("replayed tenants are real networks");
            let hit = t.span("serve.ensure_on", |_| {
                payload.ensure_on(&mut cube, rec.model)
            });
            total.misses += u64::from(!hit);
            for &id in &rec.requests {
                let input = payload.input_tensor(trace[id as usize].input.clone());
                let (output, _) = t.span("serve.run_service", |_| cube.run_service(&input));
                for &v in output.as_slice() {
                    checksum = checksum
                        .wrapping_mul(PRIME)
                        .wrapping_add(v.to_bits() as u16 as u64);
                }
                total.requests += 1;
            }
        }
        total.output_checksum = total
            .output_checksum
            .wrapping_mul(PRIME)
            .wrapping_add(checksum);
    }
    total
}

/// Prices every dispatch analytically from the catalog profile; no cube
/// ticks.
pub fn price(
    t: &mut Tracer,
    cat: &ModelCatalog,
    trace: &[Request],
    records: &[DispatchRecord],
) -> TwoSpeedReport {
    let cfg = TwoSpeedConfig::new(0, 0.0);
    t.span("serve.price", |_| {
        execute_two_speed(cat, trace, records, &cfg, ExecMode::Serial)
    })
}

/// Prices every dispatch and replays the sampled share cycle- and
/// value-accurately on fresh cubes.
pub fn audit(
    t: &mut Tracer,
    cat: &ModelCatalog,
    trace: &[Request],
    records: &[DispatchRecord],
    seed: u64,
    rate: f64,
) -> TwoSpeedReport {
    let cfg = TwoSpeedConfig::new(seed, rate);
    t.span("serve.audit", |_| {
        execute_two_speed(cat, trace, records, &cfg, ExecMode::Serial)
    })
}

/// Frees what the serve calls above returned.
pub fn release<T>(t: &mut Tracer, owned: T) {
    t.span("serve.release", |_| drop(owned));
}

/// What the requests of `records` take in simulated time on a cube that
/// holds their model: the catalog's service cycles, request by request.
pub fn service_cycles(cat: &ModelCatalog, records: &[DispatchRecord]) -> u64 {
    records
        .iter()
        .map(|r| r.requests.len() as u64 * cat.entry(r.model).service_cycles)
        .sum()
}

/// Completed requests per million simulated cycles of makespan.
pub fn goodput_per_mcycle(report: &ServeReport) -> f64 {
    report.completed() as f64 * 1e6 / report.makespan.max(1) as f64
}

/// Requests shed or refused, as a share of those offered.
pub fn failed_share(report: &ServeReport) -> f64 {
    let offered = report.stats.counter("serve.requests.offered");
    (report.shed() + report.rejected()) as f64 / offered.max(1) as f64
}

pub fn latency_percentile(report: &ServeReport, q: f64) -> f64 {
    report.latency().percentile(q).unwrap_or(0) as f64
}

/// The scheduler's own counters for one schedule.
pub fn schedule_counters(cat: &ModelCatalog, report: &ServeReport) -> Vec<(&'static str, f64)> {
    let offered = report.stats.counter("serve.requests.offered").max(1) as f64;
    let reprogram: u64 = report
        .records
        .iter()
        .filter(|r| !r.affinity_hit)
        .map(|r| cat.entry(r.model).reprogram_cycles)
        .sum();
    vec![
        ("serve.batches", report.records.len() as f64),
        (
            "serve.mean_batch_size",
            report
                .stats
                .histogram("serve.batch_size")
                .and_then(|h| h.mean())
                .unwrap_or(0.0),
        ),
        (
            "serve.affinity_hit_rate",
            report.stats.gauge("serve.rate.affinity_hit"),
        ),
        ("serve.shed_share", report.shed() as f64 / offered),
        ("serve.rejected_share", report.rejected() as f64 / offered),
        ("serve.reprogram_cycles", reprogram as f64),
    ]
}

/// The audit evidence of one two-speed run.
pub fn audit_counters(report: &TwoSpeedReport) -> Vec<(&'static str, f64)> {
    let slack_min = |key: &str| {
        report
            .stats
            .histogram(key)
            .and_then(|h| h.min())
            .unwrap_or(0) as f64
    };
    vec![
        (
            "serve.audit_coverage",
            report.stats.gauge("serve.twospeed.audit.coverage"),
        ),
        ("serve.audit_violations", report.violations.len() as f64),
        (
            "serve.audit_slack_lower_min_cycles",
            slack_min("serve.twospeed.audit.slack_lower_cycles"),
        ),
        (
            "serve.audit_slack_upper_min_cycles",
            slack_min("serve.twospeed.audit.slack_upper_cycles"),
        ),
    ]
}

// ----------------------------------------------------------- cluster

/// The cube a sharded model is planned for: the paper's, with vault
/// regions shrunk to 6 KiB so that one 256×256 stage no longer fits.
pub fn cluster_cube_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper(true);
    cfg.memory.region_bytes = 6 * 1024;
    cfg
}

/// What one plan, build and batch on a cluster produced.
pub struct ClusterRun {
    pub outputs: Vec<Tensor>,
    pub cycles: u64,
    pub jumps: u64,
    pub skipped_cycles: u64,
    pub cubes: usize,
    pub stages: usize,
    pub plan_lower_cycles: u64,
    pub registry: StatsRegistry,
}

/// Plans `graph` onto a ring of `fabric` cubes joined by HMC-class
/// external links, builds the cluster and runs `inputs` as one pipelined
/// batch.
pub fn cluster_run(
    t: &mut Tracer,
    cfg: &SystemConfig,
    graph: &GraphSpec,
    params: &[Vec<Q88>],
    fabric: usize,
    inputs: &[Tensor],
) -> ClusterRun {
    let plan = t.span("cluster.plan", |_| plan(cfg, graph, params, fabric));
    let (cubes, stages, plan_lower_cycles) = (plan.cubes(), plan.stages.len(), plan.lower);
    let mut cluster = t.span("cluster.build", |_| {
        Cluster::new(cfg, plan).expect("a certified plan loads")
    });
    let (outputs, report) = t.span("cluster.run_batch", |_| cluster.run_batch(inputs));
    let registry = t.span("cluster.stats_registry", |_| cluster.stats_registry());
    ClusterRun {
        outputs,
        cycles: report.cycles,
        jumps: report.jumps,
        skipped_cycles: report.skipped_cycles,
        cubes,
        stages,
        plan_lower_cycles,
        registry,
    }
}

fn plan(cfg: &SystemConfig, graph: &GraphSpec, params: &[Vec<Q88>], fabric: usize) -> ShardedGraph {
    shard_graph(cfg, graph, params, &LinkConfig::hmc_ext(fabric)).expect("the chain shards")
}

/// Simulated cycles one job takes alone on a fresh cluster.
pub fn cluster_single_job_cycles(
    cfg: &SystemConfig,
    graph: &GraphSpec,
    params: &[Vec<Q88>],
    fabric: usize,
    input: &Tensor,
) -> u64 {
    let mut cluster =
        Cluster::new(cfg, plan(cfg, graph, params, fabric)).expect("a certified plan loads");
    cluster.run(input).1.cycles
}

/// The link counters of a cluster registry.
pub fn link_counters(reg: &StatsRegistry) -> Vec<(&'static str, f64)> {
    vec![
        ("cluster.transfers", reg.counter("cluster.transfers") as f64),
        ("cluster.link_bytes", reg.counter("cluster.bytes") as f64),
        ("cluster.link_energy_j", reg.metric("cluster.energy_j")),
    ]
}

// -------------------------------------------- components, standalone

/// Host nanoseconds per operand event of the PNG address generator:
/// all sixteen vault streams of `spec`'s first layer, drained with no
/// cube around them.
pub fn png_ns_per_operand_event(
    cfg: &SystemConfig,
    spec: &NetworkSpec,
    params: &[Vec<Q88>],
) -> f64 {
    let mut cube = Neurocube::new(cfg.clone());
    let loaded = cube.load(spec.clone(), params.to_vec());
    let program = &loaded.programs()[0];
    let start = Instant::now();
    let mut events = 0u64;
    for vault in 0..cfg.nodes() as u8 {
        let mut stream = OperandStream::new(Arc::clone(program), vault);
        while black_box(stream.next()).is_some() {
            events += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// Host nanoseconds per packet delivered corner to corner across an
/// otherwise idle 4×4 mesh.
pub fn noc_ns_per_delivered_packet(packets: u32) -> f64 {
    let mut net = Network::new(Topology::mesh4x4());
    let pkt = Packet {
        dst: 15,
        src: 0,
        mac_id: 0,
        op_id: 0,
        kind: PacketKind::State,
        data: 1,
    };
    let (mut sent, mut received, mut now) = (0u32, 0u32, 0u64);
    let start = Instant::now();
    while received < packets {
        if sent < packets && net.try_inject_from_mem(0, black_box(pkt), now) {
            sent += 1;
        }
        net.tick(now);
        if black_box(net.pop_for_pe(15, now)).is_some() {
            received += 1;
        }
        now += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(packets)
}

/// Host nanoseconds per word streamed through one HMC vault channel,
/// as `(read, write)`.
pub fn dram_ns_per_word(words: u64) -> (f64, f64) {
    let stream = |write: bool| {
        let mut ch = Channel::new(ChannelConfig::hmc_int());
        let mut storage = Storage::new();
        let (mut issued, mut done, mut now) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        while done < words {
            while issued < words
                && ch.try_enqueue(neurocube_dram::Request {
                    addr: issued * 4,
                    tag: issued,
                    kind: if write {
                        RequestKind::Write(issued)
                    } else {
                        RequestKind::Read
                    },
                })
            {
                issued += 1;
            }
            if black_box(ch.tick(now, &mut storage)).is_some() {
                done += 1;
            }
            now += 1;
        }
        start.elapsed().as_nanos() as f64 / words as f64
    };
    (stream(false), stream(true))
}

/// Host nanoseconds per multiply-accumulate of the scalar MAC unit.
pub fn fixed_mac_ns_per_op(ops: u32) -> f64 {
    let (a, b) = (Q88::from_f64(1.217), Q88::from_f64(-0.493));
    let mut mac = MacUnit::new(Default::default());
    let start = Instant::now();
    for _ in 0..ops {
        mac.accumulate(black_box(a), black_box(b));
    }
    black_box(mac.result());
    start.elapsed().as_nanos() as f64 / f64::from(ops)
}
