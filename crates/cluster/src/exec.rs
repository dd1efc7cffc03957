//! The cluster executor: member cubes on private clocks, joined by clocked
//! SerDes link stages.
//!
//! A [`Cluster`] owns one [`Neurocube`] per planned cube. Between the
//! cycle a stage is armed on a cube and the cycle its output is read, the
//! cube shares no state with the rest of the fabric, so it needs no shared
//! clock: arming a stage runs its part cubes to completion there and then,
//! each on its own clock, and only the *events* that couple cubes — link
//! arrivals and stage completions — are sequenced by the cluster's
//! [`CycleLoop`], whose bus is the cluster itself:
//!
//! ```text
//! Ingress → Egress → AdvanceClusterClock
//! ```
//!
//! * **Ingress** delivers link transfers whose arrival cycle has come and
//!   starts a stage when its full input has been assembled and every part
//!   cube is free. Each part cube is caught up to the cluster's cycle
//!   ([`Neurocube::catch_up`]: idle windows crossed by the cube's own
//!   event horizon, refreshes ticked), gets its input written untimed,
//!   host-style, is armed with [`Neurocube::begin_graph_run`] and driven
//!   by [`Neurocube::run_armed_graph`] — the cube's own pipeline, so
//!   member behaviour is bitwise identical to a standalone run of the
//!   same subprogram — which returns the exact cycle the part completed.
//!   The stage completes at the latest of those cycles. The parts of one
//!   stage are one fork-join on [`BatchRunner`]: a part job owns its cube
//!   and only reads everything else, so the host threads it runs on
//!   cannot change a bit of the result.
//! * **Egress** harvests a stage at exactly its completion cycle `c` (a
//!   horizon event of the loop): catches the part cubes up to `c + 1`,
//!   gathers the part slices into the stage output value, and enqueues
//!   the onward transfers: one per (source part, destination part) pair,
//!   serialized on the source cube's egress link and charged cycles
//!   ([`LinkConfig::transfer_cycles`]) and Joules
//!   ([`LinkConfig::transfer_j`]) as it leaves.
//!
//! The loop therefore jumps from link arrival to stage completion; an
//! idle cube costs its events, not its cycles, and a running cube skips
//! its own quiescent windows without waiting for the others. Every cube
//! still sees every cycle of `[0, now)` exactly once, ticked or skipped
//! under the null-tick contract, and [`Cluster::run_batch`] returns with
//! every member clock at [`Cluster::now`]. With fast-forward off every
//! member is ticked through every cycle and the loop takes no jump — the
//! oracle the fast run is bitwise identical to, including every
//! `cluster.*` and member stat.

use crate::link::LinkConfig;
use crate::shard::ShardedGraph;
use neurocube::{LoadedGraph, Neurocube, SystemConfig};
use neurocube_fixed::Q88;
use neurocube_nn::Tensor;
use neurocube_png::CompileError;
use neurocube_sim::{BatchRunner, Clocked, CycleLoop, StatsRegistry};

/// One inference job flowing through the pipeline.
struct Job {
    /// Stage the job is waiting for or running on.
    stage: usize,
    /// Input value for `stage`, assembled from arriving fragments.
    pending: Vec<Q88>,
    /// Link fragments still in flight toward `stage`.
    fragments: usize,
    /// Whether `stage` is currently executing this job.
    running: bool,
    /// The final gathered output, once the last stage completes.
    result: Option<Tensor>,
}

/// One value slice in flight on the SerDes fabric.
struct Transfer {
    job: usize,
    /// Element offset of the slice in the destination stage's input.
    offset: usize,
    values: Vec<Q88>,
    arrive_at: u64,
}

/// A model sharded across a set of Neurocubes on private clocks — the
/// executor for a [`ShardedGraph`] plan.
pub struct Cluster {
    plan: ShardedGraph,
    cubes: Vec<Neurocube>,
    loaded: Vec<LoadedGraph>,
    /// Host threads for the part cubes of one stage.
    runner: BatchRunner,
    now: u64,
    jobs: Vec<Job>,
    /// Job currently occupying each stage.
    stage_busy: Vec<Option<usize>>,
    /// Cycle each stage's latest job completed (or will complete) on its
    /// slowest part cube; Egress harvests a busy stage at exactly this
    /// cycle.
    stage_done_at: Vec<u64>,
    transfers: Vec<Transfer>,
    /// Cycle each cube's egress serializer frees up.
    link_free_at: Vec<u64>,
    skip: bool,
    // cluster.* stats — all event-driven, so bitwise identical across
    // skip/naive and serial/threaded runs.
    transfers_sent: u64,
    bytes_sent: u64,
    deliveries: u64,
    jobs_done: u64,
    link_busy_cycles: u64,
    energy_j: f64,
}

/// Timing summary of one [`Cluster::run_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct ClusterReport {
    /// Cycles from batch submission to the last job's completion.
    pub cycles: u64,
    /// Event-horizon jumps the cluster loop took.
    pub jumps: u64,
    /// Cycles crossed by those jumps.
    pub skipped_cycles: u64,
}

impl Cluster {
    /// Builds the member cubes for `plan` (one per planned part, each a
    /// fresh `cfg` cube) and loads every part's subprogram.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] of the first part that fails to load —
    /// impossible for plans produced by [`crate::shard_graph`] against the
    /// same `cfg`, but surfaced rather than trusted.
    pub fn new(cfg: &SystemConfig, plan: ShardedGraph) -> Result<Cluster, CompileError> {
        let n = plan.cubes();
        if n == 0 {
            return Err(CompileError::EmptyPool);
        }
        let mut cubes: Vec<Neurocube> = (0..n).map(|_| Neurocube::new(cfg.clone())).collect();
        let mut loaded = Vec::with_capacity(n);
        for stage in &plan.stages {
            for part in &stage.parts {
                debug_assert_eq!(part.cube, loaded.len(), "plans assign cubes densely");
                loaded.push(cubes[part.cube].load_graph(&part.graph, part.params.clone())?);
            }
        }
        let stages = plan.stages.len();
        Ok(Cluster {
            plan,
            cubes,
            loaded,
            runner: BatchRunner::new(),
            now: 0,
            jobs: Vec::new(),
            stage_busy: vec![None; stages],
            stage_done_at: vec![0; stages],
            transfers: Vec::new(),
            link_free_at: vec![0; n],
            skip: true,
            transfers_sent: 0,
            bytes_sent: 0,
            deliveries: 0,
            jobs_done: 0,
            link_busy_cycles: 0,
            energy_j: 0.0,
        })
    }

    /// The plan this cluster executes.
    pub fn plan(&self) -> &ShardedGraph {
        &self.plan
    }

    /// Cluster virtual time. Between runs every member cube's clock
    /// agrees with it.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sets event-horizon fast-forward on (the default) or off for
    /// subsequent runs, in the cluster loop and in every member cube alike.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.skip = enabled;
        for cube in &mut self.cubes {
            cube.set_cycle_skip(enabled);
        }
    }

    /// Runs one inference through the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch or a stalled cluster (watchdog).
    pub fn run(&mut self, input: &Tensor) -> (Tensor, ClusterReport) {
        let (mut outs, report) = self.run_batch(std::slice::from_ref(input));
        (outs.pop().expect("one job in, one result out"), report)
    }

    /// Runs a batch of inferences, pipelined across the stages: job `k+1`
    /// enters stage 0 as soon as job `k` vacates it, so steady-state
    /// throughput is set by the slowest stage, not the end-to-end latency.
    /// Results come back in submission order.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch or a stalled cluster (watchdog).
    pub fn run_batch(&mut self, inputs: &[Tensor]) -> (Vec<Tensor>, ClusterReport) {
        let in_len = self.plan.input_shape().len();
        self.jobs = inputs
            .iter()
            .map(|t| {
                assert_eq!(t.len(), in_len, "input shape mismatch");
                Job {
                    stage: 0,
                    pending: t.as_slice().to_vec(),
                    fragments: 0,
                    running: false,
                    result: None,
                }
            })
            .collect();
        let mut cycle_loop = self.build_loop();
        let start = self.now;
        let end = cycle_loop.run(
            self,
            start,
            |c: &Cluster| c.jobs.iter().all(|j| j.result.is_some()),
            // A started stage already ran to a known completion cycle
            // (under its members' own watchdogs), so the clock closing in
            // on that cycle is the progress a running stage makes.
            |c: &Cluster| {
                let staged: u64 = c.stage_done_at.iter().map(|&at| at.min(c.now)).sum();
                c.deliveries + c.jobs_done + staged
            },
            |c: &Cluster, idle| c.stall_diagnostic(idle),
        );
        for cube in &mut self.cubes {
            cube.catch_up(end);
        }
        let outputs = self
            .jobs
            .iter_mut()
            .map(|j| j.result.take().expect("done batch has every result"))
            .collect();
        self.jobs.clear();
        (
            outputs,
            ClusterReport {
                cycles: end - start,
                jumps: cycle_loop.jumps(),
                skipped_cycles: cycle_loop.skipped_cycles(),
            },
        )
    }

    /// The cluster's stats: the `cluster.*` link scope plus every member
    /// cube's full registry under `cube{i}.`.
    pub fn stats_registry(&self) -> StatsRegistry {
        let mut reg = StatsRegistry::new();
        {
            let mut s = reg.scoped("cluster");
            s.counter("transfers", self.transfers_sent);
            s.counter("bytes", self.bytes_sent);
            s.counter("deliveries", self.deliveries);
            s.counter("jobs", self.jobs_done);
            s.counter("link_busy_cycles", self.link_busy_cycles);
            s.metric("energy_j", self.energy_j);
        }
        for (i, cube) in self.cubes.iter().enumerate() {
            let member = cube.stats_registry();
            let prefix = format!("cube{i}");
            let mut s = reg.scoped(&prefix);
            for (k, v) in member.counters() {
                s.counter(k, v);
            }
            for (k, v) in member.metrics() {
                s.metric(k, v);
            }
            for (k, v) in member.gauges() {
                s.gauge(k, v);
            }
            for (k, h) in member.histograms() {
                s.histogram(k, h);
            }
        }
        reg
    }

    fn build_loop(&self) -> CycleLoop<Cluster> {
        CycleLoop::new()
            .with_skip(self.skip)
            .stage(Ingress)
            .stage(Egress)
            .stage(AdvanceClusterClock)
    }

    /// Whether job `j` can enter stage `s` right now (input complete,
    /// stage idle, job parked at that stage).
    fn startable(&self, j: usize, s: usize) -> bool {
        let job = &self.jobs[j];
        job.result.is_none()
            && job.stage == s
            && !job.running
            && job.fragments == 0
            && self.stage_busy[s].is_none()
    }

    /// Starts stage `s` on job `j` at cluster cycle `now` and runs it to
    /// completion on its part cubes' private clocks: each part is caught
    /// up to `now`, gets its input (untimed host-style writes), is armed
    /// and driven until its sequencer reports complete. Records the cycle
    /// the slowest part finished for Egress to harvest at.
    ///
    /// The parts run as one fork-join. A part job holds the only `&mut`
    /// to its cube and otherwise reads shared immutable state (its loaded
    /// subprogram, the assembled input, `now`), and the completion cycles
    /// fold in part order, so the worker count cannot show in any result.
    /// A member's watchdog panic resurfaces here with its payload, the
    /// lowest part first — the one a single worker reaches first.
    fn start_stage(&mut self, j: usize, s: usize, now: u64) {
        self.stage_busy[s] = Some(j);
        self.jobs[j].running = true;
        let pending = std::mem::take(&mut self.jobs[j].pending);
        let parts = &self.plan.stages[s].parts;
        // Plans assign cubes densely, so a stage's cubes are one slice.
        let first = parts[0].cube;
        let cubes = &mut self.cubes[first..first + parts.len()];
        let items: Vec<_> = parts.iter().zip(cubes).collect();
        let loaded = &self.loaded;
        let done = self.runner.run_items(items, |(part, cube)| {
            let loaded = &loaded[part.cube];
            let shape = part.graph.input_shape();
            let t = Tensor::from_vec(shape.channels, shape.height, shape.width, pending.clone());
            cube.catch_up(now);
            cube.set_graph_input(loaded, &t);
            cube.begin_graph_run(loaded);
            let who = format!("cluster cube {}, stage {s}", part.cube);
            cube.run_armed_graph(&who)
        });
        self.stage_done_at[s] = done.into_iter().fold(now, u64::max);
    }

    /// Harvests stage `s` (owner job `j`) at its completion cycle `now`:
    /// bring every part cube to `now + 1` (a part that finished early
    /// idles until the slowest one does), gather the part slices, release
    /// the cubes, and either finish the job or launch the hand-off
    /// transfers toward stage `s + 1`.
    fn harvest_stage(&mut self, j: usize, s: usize, now: u64) {
        let stage = &self.plan.stages[s];
        let mut out = vec![Q88::default(); stage.out_shape.len()];
        for part in &stage.parts {
            let cube = &mut self.cubes[part.cube];
            cube.catch_up(now + 1);
            let sink = part.graph.output_node();
            let vol = cube.read_node_volume(&self.loaded[part.cube], sink);
            out[part.out_lo..part.out_lo + part.out_len].copy_from_slice(vol.as_slice());
            cube.end_graph_run();
        }
        self.stage_busy[s] = None;
        self.jobs[j].running = false;
        if s + 1 == self.plan.stages.len() {
            let shape = self.plan.output_shape();
            self.jobs[j].result = Some(Tensor::from_vec(
                shape.channels,
                shape.height,
                shape.width,
                out,
            ));
            self.jobs_done += 1;
            return;
        }
        let link: LinkConfig = self.plan.link;
        let next = &self.plan.stages[s + 1];
        self.jobs[j].stage = s + 1;
        self.jobs[j].pending = vec![Q88::default(); stage.out_shape.len()];
        self.jobs[j].fragments = stage.parts.len() * next.parts.len();
        for part in &stage.parts {
            let bytes = 2 * part.out_len as u64;
            let slice = &out[part.out_lo..part.out_lo + part.out_len];
            for dst in &next.parts {
                let hops = link.topology.hops(part.cube, dst.cube);
                let send = now.max(self.link_free_at[part.cube]);
                let arrive = send + link.transfer_cycles(bytes, hops);
                let busy = link.serialization_cycles(bytes);
                self.link_free_at[part.cube] = send + busy;
                self.transfers_sent += 1;
                self.bytes_sent += bytes;
                self.link_busy_cycles += busy;
                self.energy_j += link.transfer_j(bytes, hops);
                self.transfers.push(Transfer {
                    job: j,
                    offset: part.out_lo,
                    values: slice.to_vec(),
                    arrive_at: arrive,
                });
            }
        }
    }

    fn stall_diagnostic(&self, idle_cycles: u64) -> String {
        let jobs: Vec<String> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                format!(
                    "job {i}: stage {} running={} fragments={} done={}",
                    j.stage,
                    j.running,
                    j.fragments,
                    j.result.is_some()
                )
            })
            .collect();
        format!(
            "cluster stalled at cycle {} after {} idle cycles\n\
             stage occupancy: {:?} (completion cycles {:?})\n{}\n\
             transfers in flight: {} (next arrival {:?})",
            self.now,
            idle_cycles,
            self.stage_busy,
            self.stage_done_at,
            jobs.join("\n"),
            self.transfers.len(),
            self.transfers.iter().map(|t| t.arrive_at).min(),
        )
    }
}

/// Delivers due transfers and starts stages whose inputs are complete.
struct Ingress;

impl Clocked<Cluster> for Ingress {
    fn tick(&mut self, now: u64, c: &mut Cluster) {
        // Deliveries first: a fragment landing this cycle may complete the
        // input a stage start is waiting on.
        let mut i = 0;
        while i < c.transfers.len() {
            if c.transfers[i].arrive_at <= now {
                let t = c.transfers.swap_remove(i);
                let job = &mut c.jobs[t.job];
                job.pending[t.offset..t.offset + t.values.len()].copy_from_slice(&t.values);
                job.fragments -= 1;
                c.deliveries += 1;
            } else {
                i += 1;
            }
        }
        for s in 0..c.plan.stages.len() {
            for j in 0..c.jobs.len() {
                if c.startable(j, s) {
                    c.start_stage(j, s, now);
                    break; // one job per stage
                }
            }
        }
    }

    fn next_event(&self, now: u64, c: &Cluster) -> Option<u64> {
        let due = c.transfers.iter().map(|t| t.arrive_at).min();
        if due.is_some_and(|t| t <= now) {
            return None;
        }
        for s in 0..c.plan.stages.len() {
            for j in 0..c.jobs.len() {
                if c.startable(j, s) {
                    return None;
                }
            }
        }
        Some(due.unwrap_or(u64::MAX))
    }

    // Null ticks deliver nothing and start nothing; there is no per-cycle
    // state to replay, so the default empty `skip` is exact.

    fn name(&self) -> &'static str {
        "cluster ingress"
    }
}

/// Harvests stages at their completion cycle and launches their hand-off
/// transfers.
struct Egress;

impl Clocked<Cluster> for Egress {
    fn tick(&mut self, now: u64, c: &mut Cluster) {
        for s in 0..c.plan.stages.len() {
            let Some(j) = c.stage_busy[s] else { continue };
            if c.stage_done_at[s] == now {
                c.harvest_stage(j, s, now);
            }
        }
    }

    fn next_event(&self, now: u64, c: &Cluster) -> Option<u64> {
        // The completion cycle of every running stage is known from the
        // moment it started, so it is this stage's event.
        let mut horizon = u64::MAX;
        for (busy, &done_at) in c.stage_busy.iter().zip(&c.stage_done_at) {
            if busy.is_some() {
                if done_at <= now {
                    return None;
                }
                horizon = horizon.min(done_at);
            }
        }
        Some(horizon)
    }

    fn name(&self) -> &'static str {
        "cluster egress"
    }
}

/// Advances cluster virtual time.
struct AdvanceClusterClock;

impl Clocked<Cluster> for AdvanceClusterClock {
    fn tick(&mut self, _now: u64, c: &mut Cluster) {
        c.now += 1;
    }

    fn next_event(&self, _now: u64, _c: &Cluster) -> Option<u64> {
        Some(u64::MAX)
    }

    fn skip(&mut self, from: u64, to: u64, c: &mut Cluster) {
        c.now += to - from;
    }

    fn name(&self) -> &'static str {
        "cluster clock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::shard::shard_graph;
    use neurocube_fixed::Activation;
    use neurocube_nn::{GraphBuilder, LayerSpec, Shape, INPUT};

    fn sharded_setup() -> (SystemConfig, ShardedGraph, Tensor) {
        let mut g = GraphBuilder::new(Shape::flat(256));
        g.layer("mid", INPUT, LayerSpec::fc(256, Activation::Tanh));
        g.layer("head", "mid", LayerSpec::fc(16, Activation::Sigmoid));
        let graph = g.build().unwrap();
        let params = graph.init_params(5, 0.125);
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 6 * 1024;
        let link = LinkConfig::hmc_ext(4);
        let plan = shard_graph(&cfg, &graph, &params, &link).unwrap();
        let mut input = Tensor::zeros(256, 1, 1);
        for i in 0..256 {
            input.set_at(i, Q88::from_f64(((i % 13) as f64 - 6.0) / 16.0));
        }
        (cfg, plan, input)
    }

    #[test]
    fn sharded_inference_matches_the_single_big_cube() {
        let (cfg, plan, input) = sharded_setup();
        assert!(plan.cubes() >= 2);
        let (graph, params) = (plan.graph.clone(), plan.params.clone());
        let mut cluster = Cluster::new(&cfg, plan).unwrap();
        let (out, report) = cluster.run(&input);
        assert!(report.cycles > 0);

        // Reference: the same graph on one cube with room to spare.
        let mut big_cfg = cfg.clone();
        big_cfg.memory.region_bytes = 256 << 20;
        let mut big = Neurocube::new(big_cfg);
        let loaded = big.load_graph(&graph, params).unwrap();
        let (reference, _) = big.run_inference(&loaded, &input);
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn skip_and_naive_runs_are_bitwise_identical() {
        let (cfg, plan, input) = sharded_setup();
        let mut fast = Cluster::new(&cfg, plan.clone()).unwrap();
        fast.set_cycle_skip(true);
        let mut slow = Cluster::new(&cfg, plan).unwrap();
        slow.set_cycle_skip(false);
        let (a, ra) = fast.run(&input);
        let (b, rb) = slow.run(&input);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(ra.cycles, rb.cycles);
        assert!(ra.jumps > 0, "a sharded run should fast-forward links");
        assert_eq!(rb.jumps, 0);
        let fast_stats = fast.stats_registry();
        let slow_stats = slow.stats_registry();
        assert_eq!(fast_stats.first_difference(&slow_stats), None);
        assert!(fast_stats.counter("cluster.transfers") > 0);
        assert!(fast_stats.metric("cluster.energy_j") > 0.0);
    }

    #[test]
    fn batches_pipeline_and_respect_the_envelope() {
        let (cfg, plan, input) = sharded_setup();
        let envelope = plan.envelope;
        let stages = plan.stages.len();
        let mut cluster = Cluster::new(&cfg, plan).unwrap();
        let (single, r1) = cluster.run(&input);
        envelope.check(r1.cycles).unwrap();

        let inputs: Vec<Tensor> = (0..4).map(|_| input.clone()).collect();
        let (outs, r4) = cluster.run_batch(&inputs);
        for o in &outs {
            assert_eq!(o.as_slice(), single.as_slice());
        }
        // Pipelining: 4 jobs over >1 stage finish well under 4× latency.
        if stages > 1 {
            assert!(
                r4.cycles < 4 * r1.cycles,
                "batch {} vs 4x single {}",
                r4.cycles,
                4 * r1.cycles
            );
        }
    }

    /// The worker count is not an input: one part at a time on the calling
    /// thread and every part of a stage on a thread of its own (more
    /// threads than this box has cores, so interleavings vary) agree on a
    /// fresh cluster and on a warm one, fast-forward on and off.
    #[test]
    fn one_worker_and_four_workers_are_bitwise_identical() {
        for skip in [true, false] {
            let runs = [1, 4].map(|workers| {
                let (cfg, plan, input) = sharded_setup();
                assert!(plan.stages.iter().any(|s| s.is_banded()));
                let mut cluster = Cluster::new(&cfg, plan).unwrap();
                cluster.runner = BatchRunner::with_threads(workers);
                cluster.set_cycle_skip(skip);
                let (o1, r1) = cluster.run(&input);
                let inputs: Vec<Tensor> = (0..4).map(|_| input.clone()).collect();
                let (o4, r4) = cluster.run_batch(&inputs);
                let outs: Vec<Vec<Q88>> = std::iter::once(&o1)
                    .chain(&o4)
                    .map(|t| t.as_slice().to_vec())
                    .collect();
                let reports = [r1, r4].map(|r| (r.cycles, r.jumps, r.skipped_cycles));
                (outs, reports, cluster.stats_registry())
            });
            let [(outs_1, reports_1, reg_1), (outs_4, reports_4, reg_4)] = runs;
            assert_eq!(outs_1, outs_4, "skip={skip}");
            assert_eq!(reports_1, reports_4, "skip={skip}");
            assert_eq!(reg_1.first_difference(&reg_4), None, "skip={skip}");
        }
    }

    /// Private member clocks must reproduce the executor they replaced.
    /// The constants were recorded at commit a361c65 (PR 12), the last
    /// one whose `Cluster` ticked every member on every cluster cycle: one
    /// `run` then one `run_batch` of 4 on the same cluster, so the second
    /// run starts at a non-zero cycle on warm cubes. It ran its parts one
    /// after another; here they are forced onto four host threads.
    #[test]
    fn run_ahead_reproduces_the_lockstep_executor_bit_for_bit() {
        let (cfg, plan, input) = sharded_setup();
        let mut cluster = Cluster::new(&cfg, plan).unwrap();
        cluster.runner = BatchRunner::with_threads(4);
        let (_, r1) = cluster.run(&input);
        let inputs: Vec<Tensor> = (0..4).map(|_| input.clone()).collect();
        let (_, r4) = cluster.run_batch(&inputs);
        assert_eq!((r1.cycles, r4.cycles), (9536, 22464));
        assert_eq!(cluster.now(), 32000);
        let reg = cluster.stats_registry();
        assert_eq!(reg.counter("cluster.transfers"), 15);
        assert_eq!(reg.counter("cluster.bytes"), 2560);
        assert_eq!(reg.counter("cluster.deliveries"), 15);
        assert_eq!(reg.counter("cluster.jobs"), 5);
        assert_eq!(reg.counter("cluster.link_busy_cycles"), 330);
        assert_eq!(
            reg.metric("cluster.energy_j").to_bits(),
            0x3e92_4eab_1696_2fdd
        );
        // All 1366 series of the 4-cube registry.
        assert_eq!(reg.digest(), 0xcd44_eef7_6cbc_4c49);
    }

    /// A member that can never finish must trip *its own* watchdog, naming
    /// the cube and stage and carrying that cube's stall dump — the
    /// cluster loop does not see member progress, so nothing else would.
    /// The wedge: one cube of banded stage 0 is swapped for one whose DRAM
    /// command queues hold nothing, so its PNGs can never issue a read.
    /// Four workers claim the parts in no fixed order, so the wedged
    /// part may land on the calling thread or on a spawned one; the panic
    /// must reach the caller with the same payload either way, and for a
    /// non-first part only after the parts before it have finished.
    #[test]
    fn a_wedged_member_trips_its_own_watchdog_in_both_modes() {
        for (skip, wedge) in [(true, 0), (false, 0), (true, 1), (false, 1)] {
            let (cfg, plan, input) = sharded_setup();
            let mut cluster = Cluster::new(&cfg, plan).unwrap();
            cluster.runner = BatchRunner::with_threads(4);
            assert!(cluster.plan.stages[0].is_banded());
            let part = &cluster.plan.stages[0].parts[wedge];
            let mut wedged_cfg = cfg.clone();
            wedged_cfg.memory.channel.queue_capacity = 0;
            let mut wedged = Neurocube::new(wedged_cfg);
            cluster.loaded[part.cube] =
                wedged.load_graph(&part.graph, part.params.clone()).unwrap();
            let victim = part.cube;
            cluster.cubes[victim] = wedged;
            cluster.set_cycle_skip(skip);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cluster.run(&input);
            }))
            .expect_err("a wedged member must trip the watchdog");
            let msg = err
                .downcast_ref::<String>()
                .expect("watchdog panics with a formatted message");
            assert!(
                msg.starts_with(&format!(
                    "cluster cube {victim}, stage 0: deadlock in layer 0"
                )),
                "skip={skip}, part {wedge}, got: {msg}"
            );
            assert!(
                msg.contains("queue_stalls"),
                "diagnostic must carry the cube's stats dump, got: {msg}"
            );
        }
    }

    /// Member clocks are private only inside a run: after every
    /// `run_batch` each one agrees with the cluster's. A spare cube that
    /// hosts no part shows what catch-up alone costs: the naive run ticks
    /// it through every cycle (no jump on any member), the fast run crosses
    /// its idle stretch on its own event horizon.
    #[test]
    fn member_clocks_agree_with_the_cluster_after_every_batch() {
        for skip in [true, false] {
            let (cfg, plan, input) = sharded_setup();
            let mut cluster = Cluster::new(&cfg, plan).unwrap();
            cluster.cubes.push(Neurocube::new(cfg.clone()));
            cluster.set_cycle_skip(skip);
            let spare = cluster.cubes.len() - 1;
            for batch in [1, 3, 2] {
                let inputs: Vec<Tensor> = (0..batch).map(|_| input.clone()).collect();
                cluster.run_batch(&inputs);
                for (i, cube) in cluster.cubes.iter().enumerate() {
                    assert_eq!(cube.now(), cluster.now(), "cube {i}, skip={skip}");
                }
            }
            let spare_cube = &cluster.cubes[spare];
            if skip {
                assert!(spare_cube.horizon_jumps() > 0);
                assert!(spare_cube.skipped_cycles() > 0);
                assert!(spare_cube.skipped_cycles() <= cluster.now());
            } else {
                for (i, cube) in cluster.cubes.iter().enumerate() {
                    assert_eq!(cube.horizon_jumps(), 0, "cube {i}");
                    assert_eq!(cube.skipped_cycles(), 0, "cube {i}");
                }
            }
        }
    }

    #[test]
    fn reruns_are_bitwise_identical() {
        let (cfg, plan, input) = sharded_setup();
        let mut a = Cluster::new(&cfg, plan.clone()).unwrap();
        let mut b = Cluster::new(&cfg, plan).unwrap();
        let (oa, ra) = a.run(&input);
        let (ob, rb) = b.run(&input);
        assert_eq!(oa.as_slice(), ob.as_slice());
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(
            a.stats_registry().first_difference(&b.stats_registry()),
            None
        );
    }
}
