//! The six workloads: what each builds from the seed, what one rep of
//! it runs, and how its outputs are checked. Why each is here is in
//! README.md and in the `why` lines of `BENCHMARK.json`.

use crate::entry::{
    self, CubeJob, DispatchRecord, ExecMode, GraphSpec, ModelCatalog, NetworkSpec, Request,
    ServeConfig, Shape, SystemConfig, Tenant, Tensor, Q88,
};
use crate::trace::Tracer;
use std::time::Instant;

pub const NAMES: [&str; 6] = [
    "conv_saturated",
    "ddr3_idle",
    "train_step",
    "serve_replay",
    "serve_twospeed",
    "cluster_sharded",
];

/// `Full` is what the benchmark measures; `Smoke` runs the same code on
/// inputs small enough for a debug build inside the test suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Only the test target builds this one.
    #[allow(dead_code)]
    Smoke,
}

impl Scale {
    /// Rounds in a run: a set-up pass each, then timed reps. Two let the
    /// test compare one pass with another.
    pub fn rounds(self) -> u32 {
        match self {
            Scale::Full => 10,
            Scale::Smoke => 2,
        }
    }
}

/// Operations attempted and failed, with a line for each failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }
}

/// What one rep did and what the simulation read at its end.
pub struct Rep {
    /// Units of work done: inferences, training steps, serve requests,
    /// jobs of a batch.
    pub requests: u64,
    /// What that work takes in simulated time, for
    /// `sim_cycles_per_host_s`: the cycles a cube or a cluster ran, or
    /// the service cycles of every serve request handled.
    pub host_cycles: u64,
    /// Folds everything that must repeat exactly from rep to rep.
    pub digest: u64,
    /// Simulated metrics by name, end-to-end and per-layer.
    pub values: Vec<(&'static str, f64)>,
}

impl Rep {
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Self seconds of the spans called `name` in the rep where they took
/// least, 0 when none opened. [`UNTRACED_REP`] names the whole of an
/// untraced rep.
pub type SpanSeconds<'a> = &'a dyn Fn(&str) -> f64;

pub const UNTRACED_REP: &str = "untraced rep";

pub trait Workload {
    /// One rep: the calls a user makes, with its output checks.
    fn rep(&mut self, t: &mut Tracer, checks: &mut Checks) -> Rep;

    /// Untimed work after the reps: checks that are no part of a rep
    /// and, in a traced run, measurements made once. Returns per-layer
    /// metrics.
    fn after(
        &mut self,
        t: &mut Tracer,
        checks: &mut Checks,
        traced: bool,
    ) -> Vec<(&'static str, f64)>;

    /// Per-layer metrics that combine span times with simulated counts.
    fn derive(&self, span_s: SpanSeconds, rep: &Rep) -> Vec<(&'static str, f64)>;
}

/// Builds the inputs of workload `name` from `seed`; `None` for a name
/// that is no workload. One set-up pass.
pub fn setup(name: &str, seed: u64, scale: Scale, t: &mut Tracer) -> Option<Box<dyn Workload>> {
    let full = scale == Scale::Full;
    Some(match name {
        "conv_saturated" => {
            let spec = if full {
                entry::conv_net(40, 16, 7)
            } else {
                entry::conv_net(16, 4, 3)
            };
            Box::new(Cube::new(
                t,
                SystemConfig::paper(false),
                spec,
                seed,
                CubeJob::Inference,
                true,
            ))
        }
        "ddr3_idle" => {
            let spec = if full {
                entry::conv_net(20, 16, 7)
            } else {
                entry::conv_net(12, 4, 3)
            };
            Box::new(Cube::new(
                t,
                SystemConfig::ddr3(),
                spec,
                seed,
                CubeJob::Inference,
                false,
            ))
        }
        "train_step" => {
            let spec = if full {
                entry::training_net()
            } else {
                entry::tiny_convnet()
            };
            let mut w = Cube::new(
                t,
                SystemConfig::paper(true),
                spec,
                seed,
                CubeJob::TrainingStep,
                false,
            );
            // Only Fig. 13's own network has a figure in the paper. One
            // step of it takes 4.4 s, so the traced run takes it once.
            w.paper = full.then(|| (entry::scene_labeling_training(), entry::PAPER_TRAINING_GOPS));
            Box::new(w)
        }
        "serve_replay" => Box::new(ServeReplay::new(t, seed, full)),
        "serve_twospeed" => Box::new(ServeTwoSpeed::new(t, seed, full)),
        "cluster_sharded" => Box::new(ClusterSharded::new(t, seed, full)),
        _ => return None,
    })
}

/// SplitMix64 as a stream of values in `[-1, 1)`.
struct Uniform(u64);

impl Iterator for Uniform {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Some((z >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
    }
}

fn random_tensor(shape: Shape, seed: u64) -> Tensor {
    entry::tensor(shape, Uniform(seed))
}

/// A JSON number holds 53 bits exactly; a digest is printed as its low
/// 52 and recorded in full, in hex, beside the metrics.
fn printable_digest(digest: u64) -> f64 {
    (digest & ((1 << 52) - 1)) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

// ---------------------------------------------- one cube, one network

/// `conv_saturated`, `ddr3_idle` and `train_step`: a fresh cube, one
/// network, one inference or one training step.
struct Cube {
    cfg: SystemConfig,
    spec: NetworkSpec,
    params: Vec<Vec<Q88>>,
    input: Tensor,
    job: CubeJob,
    /// The functional executor's output; a training step has none to
    /// compare and checks its operation count.
    reference: Option<Tensor>,
    /// The network the paper reports a throughput for, and that figure.
    paper: Option<(NetworkSpec, f64)>,
    seed: u64,
    /// Whether the traced run also times the components standalone.
    standalone: bool,
}

impl Cube {
    fn new(
        t: &mut Tracer,
        cfg: SystemConfig,
        spec: NetworkSpec,
        seed: u64,
        job: CubeJob,
        standalone: bool,
    ) -> Cube {
        let params = entry::init_params(t, &spec, seed);
        let input = random_tensor(spec.input_shape(), seed);
        let reference =
            (job == CubeJob::Inference).then(|| entry::forward(t, &spec, &params, &input));
        Cube {
            cfg,
            spec,
            params,
            input,
            job,
            reference,
            paper: None,
            seed,
            standalone,
        }
    }
}

impl Workload for Cube {
    fn rep(&mut self, t: &mut Tracer, checks: &mut Checks) -> Rep {
        let run = entry::cube_run(
            t,
            &self.cfg,
            &self.spec,
            &self.params,
            &self.input,
            self.job,
        );
        match (&self.reference, &run.output) {
            (Some(want), Some(got)) => checks.record(
                1,
                u64::from(want.as_slice() != got.as_slice()),
                "cube output equals the functional executor's",
            ),
            _ => checks.record(
                1,
                u64::from(run.ops != entry::expected_training_ops(&self.spec)),
                "simulated training operations equal the pass schedule's",
            ),
        }
        let digest = entry::registry_digest(&run.registry);
        let cycles = run.cycles as f64;
        let mut values = vec![
            ("sim_cycles", cycles),
            ("core.sim_gops", run.gops),
            ("core.registry_digest", printable_digest(digest)),
            (
                "sim.skipped_cycle_share",
                run.skipped_cycles as f64 / cycles,
            ),
            ("sim.horizon_jumps", run.horizon_jumps as f64),
            (
                "sim.cycles_per_jump",
                ratio(run.skipped_cycles as f64, run.horizon_jumps as f64),
            ),
        ];
        values.extend(entry::component_counters(&run.registry, run.cycles));
        Rep {
            requests: 1,
            host_cycles: run.cycles,
            digest,
            values,
        }
    }

    fn after(
        &mut self,
        _: &mut Tracer,
        checks: &mut Checks,
        traced: bool,
    ) -> Vec<(&'static str, f64)> {
        if !traced {
            return Vec::new();
        }
        if let Some((spec, paper_gops)) = &self.paper {
            // Outside any span: its `core.*` spans are not a rep's.
            let mut off = Tracer::new();
            let params = entry::init_params(&mut off, spec, self.seed);
            let input = random_tensor(spec.input_shape(), self.seed);
            let run = entry::cube_run(&mut off, &self.cfg, spec, &params, &input, self.job);
            checks.record(
                1,
                u64::from(run.ops != entry::expected_training_ops(spec)),
                "the paper's training step performs the pass schedule's operations",
            );
            return vec![("core.paper_gops_rel_err", run.gops / paper_gops - 1.0)];
        }
        if !self.standalone {
            return Vec::new();
        }
        let (read, write) = entry::dram_ns_per_word(65_536);
        vec![
            (
                "png.ns_per_operand_event",
                entry::png_ns_per_operand_event(&self.cfg, &self.spec, &self.params),
            ),
            (
                "noc.ns_per_delivered_packet",
                entry::noc_ns_per_delivered_packet(100_000),
            ),
            ("dram.ns_per_read_word", read),
            ("dram.ns_per_write_word", write),
            ("fixed.mac_ns_per_op", entry::fixed_mac_ns_per_op(1_000_000)),
        ]
    }

    fn derive(&self, span_s: SpanSeconds, rep: &Rep) -> Vec<(&'static str, f64)> {
        let cycles = rep.value("sim_cycles");
        let ticked = cycles * (1.0 - rep.value("sim.skipped_cycle_share"));
        let run_ns = span_s("core.run") * 1e9;
        vec![
            ("core.host_ns_per_cycle", run_ns / cycles),
            ("core.host_ns_per_ticked_cycle", run_ns / ticked),
        ]
    }
}

// ------------------------------------------------------ serve_replay

/// A long schedule in simulated time, whose first batches are replayed
/// on real cubes. The schedule is long so that its goodput and latency
/// percentiles hold still from seed to seed; the replay is short because
/// every replayed request is a cycle-accurate inference.
struct ServeReplay {
    seed: u64,
    catalog: ModelCatalog,
    config: ServeConfig,
    scheduled: u64,
    replayed: u64,
    /// Set by the first rep; every later replay must fold the same.
    checksum: Option<u64>,
    /// The last rep's trace and the replayed records, for `after`.
    last: Option<(Vec<Request>, Vec<DispatchRecord>)>,
    batched_s: f64,
    misses: u64,
    replayed_requests: u64,
}

/// Offered load as a share of the rate that saturates the pool.
const REPLAY_LOAD: f64 = 0.75;

impl ServeReplay {
    fn new(t: &mut Tracer, seed: u64, full: bool) -> ServeReplay {
        let tenants = if full {
            vec![
                Tenant::Linear("mnist_mlp_32", entry::mnist_mlp(32)),
                Tenant::Linear("mnist_mlp_128", entry::mnist_mlp(128)),
                Tenant::Linear("conv32_k3", entry::conv_net(32, 8, 3)),
                Tenant::Linear("conv32_k7", entry::conv_net(32, 8, 7)),
                Tenant::Graph("residual_toy", entry::residual_toy()),
            ]
        } else {
            vec![
                Tenant::Linear("tiny_convnet", entry::tiny_convnet()),
                Tenant::Linear("mlp_8x8", entry::mlp_8x8()),
                Tenant::Graph("residual_toy", entry::residual_toy()),
            ]
        };
        let catalog = entry::catalog(t, &tenants, seed);
        ServeReplay {
            seed,
            config: entry::serve_config(&catalog),
            catalog,
            scheduled: if full { 10_000 } else { 200 },
            replayed: if full { 16 } else { 12 },
            checksum: None,
            last: None,
            batched_s: 0.0,
            misses: 0,
            replayed_requests: 0,
        }
    }
}

impl Workload for ServeReplay {
    fn rep(&mut self, t: &mut Tracer, checks: &mut Checks) -> Rep {
        let trace = entry::generate_trace(
            t,
            &self.catalog,
            self.seed,
            REPLAY_LOAD,
            self.scheduled,
            None,
        );
        let report = entry::schedule(t, &self.catalog, &self.config, &trace);

        // The shortest run of batches, from the first, that holds the
        // requests to replay. Each pool cube replays its own batches in
        // order from a fresh state, so a prefix replays as scheduled, and
        // `execute` refuses anything else.
        let mut want = 0u64;
        let prefix: Vec<DispatchRecord> = report
            .records
            .iter()
            .take_while(|r| {
                let more = want < self.replayed;
                want += r.requests.len() as u64;
                more
            })
            .cloned()
            .collect();
        let want: u64 = prefix.iter().map(|r| r.requests.len() as u64).sum();
        let host_cycles = entry::service_cycles(&self.catalog, &prefix);

        let done = entry::execute_records(t, &self.catalog, &trace, &prefix, ExecMode::Serial);
        checks.record(
            want,
            want.abs_diff(done.requests),
            "requests replayed equal requests scheduled",
        );
        let first = *self.checksum.get_or_insert(done.output_checksum);
        checks.record(
            want,
            if first == done.output_checksum {
                0
            } else {
                want
            },
            "replay output checksum repeats",
        );
        self.misses = done.misses;
        self.replayed_requests = done.requests;

        let mut values = vec![
            ("sim_cycles", report.makespan as f64),
            (
                "serve.goodput_per_mcycle",
                entry::goodput_per_mcycle(&report),
            ),
            (
                "serve.latency_p50_cycles",
                entry::latency_percentile(&report, 0.50),
            ),
            (
                "serve.latency_p99_cycles",
                entry::latency_percentile(&report, 0.99),
            ),
        ];
        values.extend(entry::schedule_counters(&self.catalog, &report));
        let digest = entry::registry_digest(&report.stats) ^ done.output_checksum;
        self.last = Some((trace, prefix));
        Rep {
            requests: done.requests,
            host_cycles,
            digest,
            values,
        }
    }

    fn after(
        &mut self,
        t: &mut Tracer,
        checks: &mut Checks,
        traced: bool,
    ) -> Vec<(&'static str, f64)> {
        if !traced {
            return Vec::new();
        }
        let (trace, prefix) = self.last.take().expect("a rep ran");
        let want = self.checksum.expect("a rep ran");
        let n = self.replayed_requests;

        let own = entry::replay_records(t, &self.catalog, &trace, &prefix);
        checks.record(
            n,
            if own.output_checksum == want { 0 } else { n },
            "the ledger's own replay folds execute's checksum",
        );
        // Outside any span: the batched run is compared with the serial
        // reps' `serve.execute`, and must not count as one of them.
        let mut off = Tracer::new();
        let start = Instant::now();
        let batched =
            entry::execute_records(&mut off, &self.catalog, &trace, &prefix, ExecMode::Batched);
        self.batched_s = start.elapsed().as_secs_f64();
        checks.record(
            n,
            if batched.output_checksum == want {
                0
            } else {
                n
            },
            "batched replay folds the serial checksum",
        );
        Vec::new()
    }

    fn derive(&self, span_s: SpanSeconds, _: &Rep) -> Vec<(&'static str, f64)> {
        let scheduled = self.scheduled as f64;
        vec![
            (
                "sim.batch_runner_speedup",
                ratio(span_s("serve.execute"), self.batched_s),
            ),
            (
                "serve.generate_ns_per_request",
                span_s("serve.generate") * 1e9 / scheduled,
            ),
            (
                "serve.schedule_ns_per_request",
                span_s("serve.schedule") * 1e9 / scheduled,
            ),
            (
                "serve.run_service_ms_per_request",
                ratio(
                    span_s("serve.run_service") * 1e3,
                    self.replayed_requests as f64,
                ),
            ),
            (
                "serve.ensure_on_ms_per_miss",
                ratio(span_s("serve.ensure_on") * 1e3, self.misses as f64),
            ),
            (
                "serve.requests_per_host_s",
                self.replayed_requests as f64 / span_s(UNTRACED_REP),
            ),
        ]
    }
}

// ---------------------------------------------------- serve_twospeed

/// The three named scenarios on the analytical path, 80 000 requests
/// each: the scheduler and the traffic generator do all the work and no
/// cube ticks. The sampled cycle-accurate audit runs once, after the
/// reps.
struct ServeTwoSpeed {
    seed: u64,
    real: ModelCatalog,
    twins: ModelCatalog,
    config: ServeConfig,
    per_scenario: u64,
    audit_requests: u64,
    audit_rate: f64,
    slo_requests: u64,
}

/// The load factors of the SLO sweep, the p99 limit in simulated cycles
/// and the share of requests that may be shed or refused.
const SLO_LOADS: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5];
const SLO_P99_CYCLES: f64 = 131_072.0;
const SLO_FAILED_SHARE: f64 = 0.025;

impl ServeTwoSpeed {
    fn new(t: &mut Tracer, seed: u64, full: bool) -> ServeTwoSpeed {
        let tenants = [
            Tenant::Linear("conv", entry::tiny_convnet()),
            Tenant::Linear("mlp", entry::mlp_8x8()),
        ];
        let real = entry::catalog(t, &tenants, seed);
        let twins = entry::twin_catalog(&real);
        ServeTwoSpeed {
            seed,
            config: entry::serve_config(&twins),
            real,
            twins,
            per_scenario: if full { 80_000 } else { 2_000 },
            audit_requests: if full { 2_000 } else { 60 },
            audit_rate: if full { 0.02 } else { 0.25 },
            slo_requests: if full { 100_000 } else { 500 },
        }
    }
}

impl Workload for ServeTwoSpeed {
    fn rep(&mut self, t: &mut Tracer, checks: &mut Checks) -> Rep {
        let mut values = Vec::new();
        let mut host_cycles = 0;
        let mut digest = 0u64;
        for (i, name) in entry::scenario_names().into_iter().enumerate() {
            let trace = entry::generate_trace(
                t,
                &self.twins,
                self.seed + i as u64,
                1.0,
                self.per_scenario,
                Some(name),
            );
            let report = entry::schedule(t, &self.twins, &self.config, &trace);
            // Twins carry the real models' tags and timings, so the real
            // catalog prices their schedule.
            let priced = entry::price(t, &self.real, &trace, &report.records);
            checks.record(
                1,
                u64::from(!priced.violations.is_empty()),
                "analytical pricing raises no violation",
            );
            host_cycles += entry::service_cycles(&self.twins, &report.records);
            digest = digest.rotate_left(1)
                ^ entry::registry_digest(&report.stats)
                ^ entry::registry_digest(&priced.stats);
            let goodput = entry::goodput_per_mcycle(&report);
            match name {
                "steady" => {
                    values.extend([
                        ("sim_cycles", report.makespan as f64),
                        ("serve.goodput_per_mcycle", goodput),
                        (
                            "serve.latency_p50_cycles",
                            entry::latency_percentile(&report, 0.50),
                        ),
                        (
                            "serve.latency_p99_cycles",
                            entry::latency_percentile(&report, 0.99),
                        ),
                    ]);
                    values.extend(entry::schedule_counters(&self.twins, &report));
                }
                "diurnal" => values.extend([
                    ("serve.goodput_per_mcycle.diurnal", goodput),
                    ("serve.failed_share.diurnal", entry::failed_share(&report)),
                ]),
                "rush" => values.extend([
                    ("serve.goodput_per_mcycle.rush", goodput),
                    ("serve.failed_share.rush", entry::failed_share(&report)),
                ]),
                other => panic!("the program grew a scenario the ledger does not know: {other}"),
            }
            // Freeing the requests and their schedule is part of
            // what a sweep costs its user, so it gets a span of its own.
            entry::release(t, (trace, report, priced));
        }
        Rep {
            requests: 3 * self.per_scenario,
            host_cycles,
            digest,
            values,
        }
    }

    fn after(
        &mut self,
        t: &mut Tracer,
        checks: &mut Checks,
        traced: bool,
    ) -> Vec<(&'static str, f64)> {
        // The audit: a real-model trace, every dispatch priced, the
        // sampled ones replayed on fresh cubes inside their envelopes.
        // Only the audit itself is a span; the trace and schedule it
        // needs are not part of what `serve.audit_s` reports.
        let mut off = Tracer::new();
        let trace = entry::generate_trace(
            &mut off,
            &self.real,
            self.seed,
            1.0,
            self.audit_requests,
            None,
        );
        let report = entry::schedule(&mut off, &self.real, &self.config, &trace);
        let audited = entry::audit(
            t,
            &self.real,
            &trace,
            &report.records,
            self.seed,
            self.audit_rate,
        );
        checks.record(
            audited.audits.len() as u64,
            audited.violations.len() as u64,
            "audited dispatches stay inside their envelopes",
        );
        let mut values = entry::audit_counters(&audited);
        if !traced {
            return values;
        }

        // The highest offered load that still meets the limit.
        let (mut factor, mut goodput) = (0.0, 0.0);
        for load in SLO_LOADS {
            let trace = entry::generate_trace(
                &mut off,
                &self.twins,
                self.seed,
                load,
                self.slo_requests,
                Some("steady"),
            );
            let report = entry::schedule(&mut off, &self.twins, &self.config, &trace);
            if entry::latency_percentile(&report, 0.99) <= SLO_P99_CYCLES
                && entry::failed_share(&report) <= SLO_FAILED_SHARE
            {
                factor = load;
                goodput = entry::goodput_per_mcycle(&report);
            }
        }
        values.extend([
            ("serve.slo_load_factor", factor),
            ("serve.slo_goodput_per_mcycle", goodput),
        ]);
        values
    }

    fn derive(&self, span_s: SpanSeconds, rep: &Rep) -> Vec<(&'static str, f64)> {
        let requests = rep.requests as f64;
        vec![
            (
                "serve.generate_ns_per_request",
                span_s("serve.generate") * 1e9 / requests,
            ),
            (
                "serve.schedule_ns_per_request",
                span_s("serve.schedule") * 1e9 / requests,
            ),
            ("serve.requests_per_host_s", requests / span_s(UNTRACED_REP)),
        ]
    }
}

// --------------------------------------------------- cluster_sharded

/// A model too large for one cube: planned onto a ring of cubes, built,
/// and run as one pipelined batch, all inside the rep.
struct ClusterSharded {
    cfg: SystemConfig,
    graph: GraphSpec,
    params: Vec<Vec<Q88>>,
    fabric: usize,
    inputs: Vec<Tensor>,
    /// Outputs of the same inputs on one cube that holds the whole model.
    reference: Vec<Tensor>,
    /// The plan's certified lower bound, as the last rep read it.
    plan_lower_cycles: u64,
}

impl ClusterSharded {
    fn new(t: &mut Tracer, seed: u64, full: bool) -> ClusterSharded {
        let (depth, fabric, batch) = if full { (4, 32, 4) } else { (2, 16, 2) };
        let cfg = entry::cluster_cube_config();
        let graph = entry::fc_chain(depth);
        let params = entry::init_graph_params(t, &graph, seed);
        let inputs: Vec<Tensor> = (0..batch)
            .map(|i| random_tensor(graph.input_shape(), seed + i))
            .collect();
        let reference = entry::single_cube_reference(t, &cfg, &graph, &params, &inputs);
        ClusterSharded {
            cfg,
            graph,
            params,
            fabric,
            inputs,
            reference,
            plan_lower_cycles: 0,
        }
    }
}

impl Workload for ClusterSharded {
    fn rep(&mut self, t: &mut Tracer, checks: &mut Checks) -> Rep {
        let run = entry::cluster_run(
            t,
            &self.cfg,
            &self.graph,
            &self.params,
            self.fabric,
            &self.inputs,
        );
        self.plan_lower_cycles = run.plan_lower_cycles;
        let jobs = self.inputs.len() as u64;
        let wrong = if run.outputs.len() == self.reference.len() {
            run.outputs
                .iter()
                .zip(&self.reference)
                .filter(|(got, want)| got.as_slice() != want.as_slice())
                .count() as u64
        } else {
            jobs
        };
        checks.record(jobs, wrong, "sharded outputs equal the single cube's");

        let digest = entry::registry_digest(&run.registry);
        let cycles = run.cycles as f64;
        let mut values = vec![
            ("sim_cycles", cycles),
            (
                "sim.skipped_cycle_share",
                run.skipped_cycles as f64 / cycles,
            ),
            ("sim.horizon_jumps", run.jumps as f64),
            (
                "sim.cycles_per_jump",
                ratio(run.skipped_cycles as f64, run.jumps as f64),
            ),
            ("cluster.cubes", run.cubes as f64),
            ("cluster.stages", run.stages as f64),
            ("cluster.plan_lower_cycles", run.plan_lower_cycles as f64),
            ("cluster.jumps", run.jumps as f64),
        ];
        values.extend(entry::link_counters(&run.registry));
        values.extend(entry::component_counters(&run.registry, run.cycles));
        Rep {
            requests: jobs,
            host_cycles: run.cycles,
            digest,
            values,
        }
    }

    fn after(&mut self, _: &mut Tracer, _: &mut Checks, traced: bool) -> Vec<(&'static str, f64)> {
        if !traced {
            return Vec::new();
        }
        let alone = entry::cluster_single_job_cycles(
            &self.cfg,
            &self.graph,
            &self.params,
            self.fabric,
            &self.inputs[0],
        );
        vec![(
            "cluster.latency_over_lower",
            ratio(alone as f64, self.plan_lower_cycles as f64),
        )]
    }

    fn derive(&self, span_s: SpanSeconds, rep: &Rep) -> Vec<(&'static str, f64)> {
        let cube_cycles = rep.value("sim_cycles") * rep.value("cluster.cubes");
        vec![(
            "cluster.host_ns_per_cube_cycle",
            span_s("cluster.run_batch") * 1e9 / cube_cycles,
        )]
    }
}
