//! The assembled Neurocube and its cycle loop.

use crate::config::{ConfigError, SystemConfig};
use crate::report::{FaultSummary, LayerReport, RunReport};
use crate::training::{training_passes, PassKind};
use neurocube_dram::MemorySystem;
use neurocube_fault::{FaultConfig, PeFaultCounts};
use neurocube_fixed::Q88;
use neurocube_nn::{GraphOp, GraphSource, GraphSpec, NetworkSpec, Tensor};
use neurocube_noc::Network;
use neurocube_pe::ProcessingElement;
use neurocube_png::{compile_graph, program, CompileError, LayerProgram, MultiLayerProgram};
use neurocube_png::{Png, PngHookup};
use neurocube_sim::{Clocked, CycleLoop, StatSource, StatsRegistry};
use std::sync::Arc;

/// A model loaded into the cube — a layer DAG, or a linear network as its
/// trivial graph: its compiled multi-layer program and the per-node
/// parameters.
#[derive(Clone, Debug)]
pub struct LoadedGraph {
    program: MultiLayerProgram,
    params: Vec<Vec<Q88>>,
}

impl LoadedGraph {
    /// The validated graph description.
    pub fn graph(&self) -> &GraphSpec {
        &self.program.graph
    }

    /// The compiled multi-layer program (phases, placements, footprint).
    pub fn program(&self) -> &MultiLayerProgram {
        &self.program
    }

    /// The compiled phases, one per executable node in schedule order.
    pub fn programs(&self) -> &[Arc<LayerProgram>] {
        &self.program.phases
    }

    /// The per-node parameter arrays.
    pub fn params(&self) -> &[Vec<Q88>] {
        &self.params
    }
}

/// In-flight state of a compiled-graph inference: the phase sequence the
/// [`GraphSequencer`] steps through without leaving the cycle loop, plus
/// the per-phase boundaries it records for cycle attribution.
#[derive(Debug)]
struct GraphRun {
    phases: Vec<Arc<LayerProgram>>,
    /// Per phase: the PE weight-memory image.
    images: Vec<Vec<Q88>>,
    /// Next phase to configure when the current one completes.
    next: usize,
    /// All phases have completed; the run's done predicate.
    complete: bool,
    /// Cycle at which each phase hand-off happened (length `phases - 1`:
    /// the final phase ends when the loop exits).
    boundaries: Vec<u64>,
    /// Statistics snapshot at each hand-off, for per-node attribution.
    snapshots: Vec<StatsRegistry>,
}

/// The full Neurocube: memory + PNGs + NoC + PEs, plus the host-side
/// controller that programs them layer by layer.
#[derive(Debug)]
pub struct Neurocube {
    cfg: SystemConfig,
    mem: MemorySystem,
    net: Network,
    pes: Vec<ProcessingElement>,
    pngs: Vec<Png>,
    /// Per mesh node: the regions whose PNGs inject there.
    attach_groups: Vec<Vec<u8>>,
    now: u64,
    /// The canonical per-PE operation-counter array (the credit-return
    /// path): refreshed from the PEs at the top of the credit-return
    /// stage and read in place by every PNG's run-ahead gate, so there is
    /// exactly one copy of the credit state. Initialized to `u64::MAX`
    /// per node — the "no progress seen" value that never gates.
    progress: Vec<u64>,
    /// Whether each pass's cycle loop fast-forwards (default `true`).
    skip: bool,
    /// Cumulative fast-forward jumps across all passes run on this cube.
    horizon_jumps: u64,
    /// Cumulative cycles crossed by fast-forward jumps instead of ticking.
    skipped_cycles: u64,
    /// The attached fault-injection configuration, if any. `None` (and any
    /// all-zero-rate, ECC-off config, which is normalized to `None`) leaves
    /// every component untouched and every statistic bitwise identical to a
    /// build without the injector.
    faults: Option<FaultConfig>,
    /// Active compiled-graph run, stepped by the [`GraphSequencer`] stage.
    /// `None` between runs and during per-phase passes (replay, training),
    /// which leaves the sequencer inert and every such pass bitwise
    /// identical to a build without it.
    graph_run: Option<GraphRun>,
}

impl Neurocube {
    /// Builds an idle Neurocube.
    ///
    /// # Panics
    ///
    /// Panics with the error's message wherever [`Neurocube::try_new`]
    /// returns one.
    pub fn new(cfg: SystemConfig) -> Neurocube {
        match Neurocube::try_new(cfg) {
            Ok(cube) => cube,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds an idle Neurocube.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] that [`SystemConfig::validate`] reports
    /// for an inconsistent configuration, or [`ConfigError::Noc`] when the
    /// topology wires more routers or ports than the fabric's occupancy
    /// masks and arbiter pointers can index.
    pub fn try_new(cfg: SystemConfig) -> Result<Neurocube, ConfigError> {
        cfg.validate()?;
        let net = Network::try_new(cfg.topology)?;
        let mem = MemorySystem::new(cfg.memory.clone());
        let pes = (0..cfg.nodes() as u8)
            .map(|p| ProcessingElement::with_cache(p, cfg.accumulator, cfg.cache_entries_per_bank))
            .collect();
        let word_bytes = u64::from(cfg.memory.channel.word_bits / 8);
        let regions_per_channel = (cfg.memory.regions / cfg.memory.channels) as usize;
        let pngs = (0..cfg.nodes() as u8)
            .map(|v| {
                Png::new(
                    v,
                    PngHookup {
                        attach: cfg.attach(v),
                        word_bytes,
                        // Half the queue per sharing PNG stays available so
                        // write-backs can never be starved by reads.
                        max_outstanding_reads: (cfg.memory.channel.queue_capacity
                            / regions_per_channel
                            / 2)
                        .max(2),
                        run_ahead_ops: cfg.run_ahead_ops,
                    },
                )
            })
            .collect();
        let attach_groups = (0..cfg.nodes() as u8)
            .map(|node| {
                (0..cfg.nodes() as u8)
                    .filter(|&v| cfg.attach(v) == node)
                    .collect()
            })
            .collect();
        let nodes = cfg.nodes();
        Ok(Neurocube {
            cfg,
            mem,
            net,
            pes,
            pngs,
            attach_groups,
            now: 0,
            progress: vec![u64::MAX; nodes],
            skip: true,
            horizon_jumps: 0,
            skipped_cycles: 0,
            faults: None,
            graph_run: None,
        })
    }

    /// Attaches (or detaches, with `None`) a deterministic fault injector:
    /// per-channel DRAM lenses, the NoC link lens and one lens per PE. A
    /// config with all rates zero and ECC off is normalized to `None`, so
    /// a zero-rate sweep point is bitwise identical to a run without any
    /// injector.
    ///
    /// While an injector is attached, packets dropped and completions
    /// ignored are legal and counted. Without one, every pass checks that
    /// none has happened (the counts are cumulative, so detaching from a
    /// cube that dropped under faults makes its next pass fail that
    /// check).
    pub fn set_fault_config(&mut self, cfg: Option<FaultConfig>) {
        self.faults = cfg.filter(|c| c.enabled() || c.ecc);
        let attach = self.faults.as_ref();
        self.mem.set_faults(attach);
        self.net.set_faults(attach);
        for pe in &mut self.pes {
            pe.set_faults(attach);
        }
    }

    /// Packets dropped and channel completions ignored, summed over the
    /// NoC, every PE and every PNG.
    fn dropped_total(&self) -> u64 {
        self.drops_by_unit().map(|(_, _, count, _)| count).sum()
    }

    /// Per unit — `("NoC", 0)`, `("PE", i)`, `("PNG", i)` — its packets
    /// dropped plus completions ignored, and its first drop's note.
    fn drops_by_unit(&self) -> impl Iterator<Item = (&'static str, usize, u64, Option<&str>)> {
        let n = self.net.fault_counts();
        let noc = ("NoC", 0, n.unroutable, self.net.first_drop());
        let pes = self
            .pes
            .iter()
            .enumerate()
            .map(|(i, p)| ("PE", i, p.fault_counts().dropped_packets, p.first_drop()));
        let pngs = self.pngs.iter().enumerate().map(|(i, p)| {
            let count = p.dropped_packets() + p.unknown_completions();
            ("PNG", i, count, p.first_drop())
        });
        std::iter::once(noc).chain(pes).chain(pngs)
    }

    /// Panics, naming each unit that dropped and its first drop, when a
    /// pass run without an injector has dropped a packet or ignored a
    /// completion: the fault-free protocol never does, so any drop is a
    /// simulator defect.
    fn assert_no_drops(&self) {
        if self.faults.is_some() || self.dropped_total() == 0 {
            return;
        }
        let units: Vec<String> = self
            .drops_by_unit()
            .filter(|&(_, _, count, _)| count > 0)
            .map(|(unit, i, count, first)| {
                format!(
                    "{unit} {i}: {count} dropped; first: {}",
                    first.unwrap_or("-")
                )
            })
            .collect();
        panic!(
            "packets dropped without a fault injector by cycle {} (a simulator defect):\n{}\nstats:\n{}",
            self.now,
            units.join("\n"),
            self.debug_dump()
        );
    }

    /// Aggregated fault counters across every component, or `None` when no
    /// injector is attached.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        self.faults.as_ref()?;
        let d = self.mem.fault_counts();
        let n = self.net.fault_counts();
        let mut pe = PeFaultCounts::default();
        for p in &self.pes {
            pe.merge(&p.fault_counts());
        }
        Some(FaultSummary {
            dram_read_flips: d.read_flips,
            dram_stuck_bits: d.stuck_bits,
            dram_upsets: d.upsets,
            ecc_corrected: d.ecc_corrected,
            ecc_detected: d.ecc_detected,
            ecc_words: d.ecc_words,
            noc_corrupt: n.corrupt,
            noc_drops: n.drops,
            noc_misroutes: n.misroutes,
            noc_retransmits: n.retransmits,
            pe_mac_faults: pe.mac_faults,
            dropped_packets: self.dropped_total(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory subsystem (statistics, storage inspection).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// The NoC (statistics).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Current reference cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sets the fast-forward mode for subsequent runs: `true` (the
    /// default) skips quiescent stretches by event horizon, `false` ticks
    /// every cycle (the differential oracle). Both modes produce
    /// bitwise-identical cycle counts and statistics.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.skip = enabled;
    }

    /// Fast-forward jumps taken across every pass run on this cube.
    pub fn horizon_jumps(&self) -> u64 {
        self.horizon_jumps
    }

    /// Simulated cycles crossed by fast-forward jumps instead of per-cycle
    /// ticking (a measure of how much work event-horizon skipping saved).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Uniform snapshot of every component's counters in one registry —
    /// the source of [`LayerReport`] numbers, diagnostic dumps and the
    /// CSV/JSON exports the experiment harnesses emit.
    pub fn stats_registry(&self) -> StatsRegistry {
        let mut reg = StatsRegistry::new();
        for (i, pe) in self.pes.iter().enumerate() {
            pe.report(&mut reg.scoped(&format!("pe{i}")));
        }
        for (i, png) in self.pngs.iter().enumerate() {
            png.report(&mut reg.scoped(&format!("png{i}")));
        }
        self.net.report(&mut reg.scoped("noc"));
        self.mem.report(&mut reg.scoped("mem"));
        // Always-on sparsity rollup (DESIGN.md §13): zero-operand
        // classification summed across components. Present in every
        // registry because it is pure classification; nothing prices it.
        {
            let mut s = reg.scoped("sparsity");
            s.counter(
                "pe.lanes_gated",
                self.pes.iter().map(|p| p.stats().lanes_gated).sum(),
            );
            s.counter(
                "png.zero_state_operands",
                self.pngs
                    .iter()
                    .map(|p| p.stats().zero_state_operands)
                    .sum(),
            );
            s.counter(
                "png.zero_weight_operands",
                self.pngs
                    .iter()
                    .map(|p| p.stats().zero_weight_operands)
                    .sum(),
            );
            s.counter(
                "png.zero_activations",
                self.pngs.iter().map(|p| p.stats().zero_activations).sum(),
            );
            s.counter("dram.zero_words_read", self.mem.total_zero_words_read());
            s.counter(
                "dram.zero_words_written",
                self.mem.total_zero_words_written(),
            );
            s.counter("dram.zero_read_runs", self.mem.total_zero_read_runs());
        }
        // The `fault` scope exists only while an injector is attached, so
        // fault-free registries stay bitwise identical to builds that never
        // heard of fault injection.
        if self.faults.is_some() {
            let mut s = reg.scoped("fault");
            let d = self.mem.fault_counts();
            s.counter("dram.read_flips", d.read_flips);
            s.counter("dram.stuck_bits", d.stuck_bits);
            s.counter("dram.upsets", d.upsets);
            s.counter("dram.upsets_absorbed", d.upsets_absorbed);
            s.counter("dram.ecc_corrected", d.ecc_corrected);
            s.counter("dram.ecc_detected", d.ecc_detected);
            s.counter("dram.ecc_words", d.ecc_words);
            let n = self.net.fault_counts();
            s.counter("noc.corrupt", n.corrupt);
            s.counter("noc.drops", n.drops);
            s.counter("noc.misroutes", n.misroutes);
            s.counter("noc.retransmits", n.retransmits);
            s.counter("noc.unroutable", n.unroutable);
            let mut pe = PeFaultCounts::default();
            for p in &self.pes {
                pe.merge(&p.fault_counts());
            }
            s.counter("pe.mac_faults", pe.mac_faults);
            s.counter("pe.dropped_packets", pe.dropped_packets);
            s.counter(
                "png.dropped_packets",
                self.pngs.iter().map(Png::dropped_packets).sum(),
            );
            s.counter(
                "png.unknown_completions",
                self.pngs.iter().map(Png::unknown_completions).sum(),
            );
        }
        reg
    }

    /// Multi-line diagnostic snapshot of every component's counters —
    /// for performance debugging and the ablation reports. One `key =
    /// value` line per statistic, in deterministic key order.
    pub(crate) fn debug_dump(&self) -> String {
        self.stats_registry().dump()
    }

    /// Loads a linear network: compiles it as its trivial graph
    /// ([`NetworkSpec::to_graph`]) and writes its streamed weights into the
    /// DRAM image — [`Neurocube::load_graph`] for a chain.
    ///
    /// # Panics
    ///
    /// Panics if the network does not fit the cube or `params` does not
    /// match the spec.
    pub fn load(&mut self, spec: NetworkSpec, params: Vec<Vec<Q88>>) -> LoadedGraph {
        self.load_graph(&spec.to_graph(), params)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compiles a layer DAG onto this cube and writes its weights into the
    /// DRAM image — the host's untimed programming phase (§IV-C), done
    /// once per model.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the graph cannot be placed in the
    /// cube or `params` does not match the graph's weight counts.
    pub fn load_graph(
        &mut self,
        graph: &GraphSpec,
        params: Vec<Vec<Q88>>,
    ) -> Result<LoadedGraph, CompileError> {
        let program = compile_graph(graph, self.cfg.mapping(), self.mem.map())?;
        program.write_weights(&params, self.mem.storage_mut())?;
        Ok(LoadedGraph { program, params })
    }

    /// Loads an input image into the graph's input buffer (every vault
    /// holding a copy), untimed like the host's data-loading phase.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not match the graph's input shape.
    pub fn set_graph_input(&mut self, loaded: &LoadedGraph, input: &Tensor) {
        program::load_volume(
            &loaded.program.input_vol,
            input.as_slice(),
            self.cfg.nodes(),
            self.mem.storage_mut(),
        )
        .unwrap_or_else(|e| panic!("input shape mismatch: {e}"));
    }

    /// Reads graph node `i`'s output volume back out of the DRAM image in
    /// canonical order. A buffer the allocator recycled holds whatever
    /// phase wrote it last; read intermediate nodes with
    /// [`Neurocube::run_graph_replay_collect`].
    pub fn read_node_volume(&self, loaded: &LoadedGraph, i: usize) -> Tensor {
        let vol = &loaded.program.node_vols[i];
        let values = program::read_volume(vol, self.mem.storage());
        Tensor::from_vec(
            vol.shape.channels,
            vol.shape.height,
            vol.shape.width,
            values,
        )
    }

    /// Configures PNGs and PEs for `prog` (untimed host register writes).
    fn configure_program(&mut self, prog: &Arc<LayerProgram>, image: &[Q88]) {
        for png in &mut self.pngs {
            png.configure(Arc::clone(prog));
        }
        for p in 0..self.cfg.nodes() as u8 {
            if let Some(pe_cfg) = prog.pe_config(p) {
                self.pes[usize::from(p)].configure(pe_cfg, image.to_vec());
            }
        }
    }

    /// Programs and executes one compiled layer program to completion —
    /// the engine behind per-phase replay and every training pass.
    /// `layer_index` and `kind` label the report.
    fn execute_program(
        &mut self,
        prog: &Arc<LayerProgram>,
        image: &[Q88],
        layer_index: usize,
        kind: &'static str,
        pass: PassKind,
    ) -> LayerReport {
        self.configure_program(prog, image);

        // Snapshot statistics.
        let start_cycle = self.now;

        // Host programming phase: charge the configuration-register write
        // time when a programming model is configured (Fig. 8(c); the
        // paper's evaluation leaves this phase untimed), counted against
        // this layer's cycles.
        if let Some(model) = self.cfg.programming {
            self.now += model.layer_cycles(self.cfg.nodes() as u32);
        }
        let before = self.stats_registry();

        // The data-driven execution phase: the per-cycle pipeline, in
        // dependency order. The kernel's CycleLoop owns the completion
        // check and the stalled-simulation watchdog.
        self.with_pipeline(|pipeline, cube| {
            pipeline.run(
                cube,
                cube.now,
                Neurocube::layer_complete,
                Neurocube::total_mac_ops,
                |cube, idle| cube.stall_diagnostic(layer_index, idle),
            )
        });

        let delta = self.stats_registry().diff(&before);
        layer_report(layer_index, kind, pass, self.now - start_cycle, &delta)
    }

    /// The cube's per-cycle pipeline as kernel stages, in dependency
    /// order: graph sequencer (inert for per-phase passes) → PNG credit return
    /// → DRAM channels → mem-port ejection → PNG injection → NoC → PEs →
    /// clock.
    fn pipeline() -> CycleLoop<Neurocube> {
        CycleLoop::new()
            .stage(GraphSequencer)
            .stage(PngCreditReturn)
            .stage(DramChannels)
            .stage(MemPortEjection)
            .stage(PngInjection)
            .stage(NocTick)
            .stage(PeTick)
            .stage(AdvanceClock)
    }

    /// Builds the pipeline with this cube's fast-forward setting, hands it
    /// and the cube to `drive`, folds the jumps it took into the cube's
    /// cumulative telemetry and checks that the pass dropped nothing
    /// ([`Neurocube::assert_no_drops`]) — the one way any run enters the
    /// cycle loop.
    fn with_pipeline<R>(
        &mut self,
        drive: impl FnOnce(&mut CycleLoop<Neurocube>, &mut Neurocube) -> R,
    ) -> R {
        let mut pipeline = Self::pipeline().with_skip(self.skip);
        let out = drive(&mut pipeline, self);
        self.horizon_jumps += pipeline.jumps();
        self.skipped_cycles += pipeline.skipped_cycles();
        self.assert_no_drops();
        out
    }

    /// Completion predicate for one layer/pass: every PE and PNG reports
    /// done and the fabric has drained.
    fn layer_complete(&self) -> bool {
        self.pes.iter().all(ProcessingElement::layer_done)
            && self.pngs.iter().all(Png::layer_done)
            && self.net.is_idle()
    }

    /// The watchdog's progress measure: useful arithmetic performed.
    fn total_mac_ops(&self) -> u64 {
        self.pes.iter().map(|p| p.stats().mac_ops).sum()
    }

    /// Diagnostic message for a stalled layer — enough component state to
    /// localise the deadlock, plus the full statistics dump.
    fn stall_diagnostic(&self, index: usize, idle_cycles: u64) -> String {
        format!(
            "deadlock in layer {index}: cycle {}, no progress for {idle_cycles} cycles, pngs done {:?}, pes done {:?}, png dumps {:?}, pe positions {:?}, pe progress {:?}, mem pending {:?}, stats:\n{}",
            self.now,
            self.pngs.iter().map(Png::layer_done).collect::<Vec<_>>(),
            self.pes
                .iter()
                .map(ProcessingElement::layer_done)
                .collect::<Vec<_>>(),
            self.pngs.iter().map(Png::debug_state).collect::<Vec<_>>(),
            self.pes
                .iter()
                .map(ProcessingElement::debug_position)
                .collect::<Vec<_>>(),
            self.pes
                .iter()
                .map(ProcessingElement::progress)
                .collect::<Vec<_>>(),
            (0..self.mem.regions())
                .map(|r| self.mem.pending(r))
                .collect::<Vec<_>>(),
            self.debug_dump()
        )
    }

    /// Runs a full inference with the cube programmed **once**: the host
    /// charges a single programming phase up front and the
    /// `GraphSequencer` stage then retargets the PNGs/PEs at each phase
    /// boundary without leaving the cycle loop. Returns the output node's
    /// tensor plus a report with one entry per phase, `layer_index` set to
    /// the graph node each phase executed (the layer index of a chain).
    pub fn run_inference(&mut self, loaded: &LoadedGraph, input: &Tensor) -> (Tensor, RunReport) {
        self.set_graph_input(loaded, input);
        let report = self.run_graph_pass(loaded);
        let output = self.read_node_volume(loaded, loaded.program.graph.output_node());
        (output, report)
    }

    /// [`Neurocube::run_inference`] under its graph name.
    pub fn run_graph_inference(
        &mut self,
        loaded: &LoadedGraph,
        input: &Tensor,
    ) -> (Tensor, RunReport) {
        self.run_inference(loaded, input)
    }

    /// Runs a full graph inference the pre-compiler way — one host
    /// programming round-trip per phase — as the replay baseline. Values
    /// are bitwise identical to [`Neurocube::run_inference`]; only timing
    /// differs.
    pub fn run_graph_replay(
        &mut self,
        loaded: &LoadedGraph,
        input: &Tensor,
    ) -> (Tensor, RunReport) {
        let (volumes, report) = self.run_graph_replay_collect(loaded, input);
        let output = volumes
            .into_iter()
            .nth(loaded.program.graph.output_node())
            .expect("graph has an output node");
        (output, report)
    }

    /// Per-layer replay that also collects every node's output tensor,
    /// read back as soon as the phase that finalizes it completes — the
    /// differential harness's view of all intermediate volumes.
    pub fn run_graph_replay_collect(
        &mut self,
        loaded: &LoadedGraph,
        input: &Tensor,
    ) -> (Vec<Tensor>, RunReport) {
        self.set_graph_input(loaded, input);
        let prog = &loaded.program;
        let depth = prog.graph.depth();
        let mut volumes: Vec<Option<Tensor>> = vec![None; depth];
        // Concat-of-inputs nodes are final before any phase runs.
        for (node, slot) in volumes.iter_mut().enumerate() {
            if prog.ready_after_phase(node).is_none() {
                *slot = Some(self.read_node_volume(loaded, node));
            }
        }
        let mut report = Self::empty_report(prog);
        for k in 0..prog.phases.len() {
            report
                .layers
                .push(self.run_phase(loaded, k, PassKind::Forward));
            for (node, slot) in volumes.iter_mut().enumerate() {
                if prog.ready_after_phase(node) == Some(k) {
                    *slot = Some(self.read_node_volume(loaded, node));
                }
            }
        }
        report.fault = self.fault_summary();
        let volumes = volumes
            .into_iter()
            .map(|v| v.expect("every node is finalized by some phase"))
            .collect();
        (volumes, report)
    }

    /// Runs one training step's worth of passes (forward + backward +
    /// weight update, §VI-2) as a pass schedule over the model's phases: a
    /// forward sweep, then a backward sweep whose passes each phase's
    /// node contributes ([`training_passes`]). Every pass is programmed
    /// and run on its own, re-running its phase's dataflow over the
    /// inference placement — valid because timing does not depend on the
    /// values a recycled buffer holds. Timing-accurate; gradient values
    /// are modeled functionally in `neurocube-nn` (see `DESIGN.md`).
    pub fn run_training_step(&mut self, loaded: &LoadedGraph, input: &Tensor) -> RunReport {
        self.set_graph_input(loaded, input);
        let prog = &loaded.program;
        let mut report = Self::empty_report(prog);
        // Forward sweep (activations must be stored for backprop).
        for k in 0..prog.phases.len() {
            report
                .layers
                .push(self.run_phase(loaded, k, PassKind::Forward));
        }
        // Backward sweep.
        for k in (0..prog.phases.len()).rev() {
            let node = prog.node_of(k);
            let GraphOp::Layer(layer) = prog.graph.nodes()[node].op else {
                unreachable!("every phase executes a layer node")
            };
            let reads_input = prog
                .graph
                .node_sources(node)
                .iter()
                .all(|&src| src == GraphSource::Input);
            for pass in training_passes(&layer, reads_input) {
                if pass != PassKind::Forward {
                    report.layers.push(self.run_phase(loaded, k, pass));
                }
            }
        }
        report.fault = self.fault_summary();
        report
    }

    /// Executes one pass of phase `k` in isolation, with its own
    /// programming charge — the unit of replay and of training. Backward
    /// passes re-run the phase's dataflow: identical loop structure and
    /// operand volume, per the training model in `DESIGN.md`.
    fn run_phase(&mut self, loaded: &LoadedGraph, k: usize, pass: PassKind) -> LayerReport {
        let prog = Arc::clone(&loaded.program.phases[k]);
        let node = loaded.program.node_of(k);
        let image = prog.pe_weight_image(&loaded.params[node]);
        let kind = Self::node_kind(&loaded.program, node);
        self.execute_program(&prog, &image, node, kind, pass)
    }

    /// Report label for a graph node's operation.
    fn node_kind(prog: &MultiLayerProgram, node: usize) -> &'static str {
        match prog.graph.nodes()[node].op {
            GraphOp::Layer(spec) => spec.kind_name(),
            GraphOp::Concat => "concat",
        }
    }

    /// A report with no passes yet, carrying `prog`'s Fig. 12(d)
    /// footprint: every buffer duplicated as placed and live at once, plus
    /// the streamed weights, over the duplication-free baseline.
    fn empty_report(prog: &MultiLayerProgram) -> RunReport {
        RunReport {
            layers: Vec::with_capacity(prog.phases.len()),
            memory_bytes: prog.duplicated_bytes(),
            memory_minimal_bytes: prog.minimal_bytes(),
            fault: None,
        }
    }

    /// The pipelined execution engine: charges one programming phase,
    /// configures phase 0 and runs the cycle loop to graph completion,
    /// with the [`GraphSequencer`] retargeting the cube at each phase
    /// hand-off. Attribution uses the sequencer's recorded boundaries and
    /// statistics snapshots.
    fn run_graph_pass(&mut self, loaded: &LoadedGraph) -> RunReport {
        let prog = &loaded.program;
        let n = prog.phases.len();
        self.begin_graph_run(loaded);

        let start_cycle = self.now;
        // One host programming charge for the whole graph — the point of
        // compiling it (Fig. 8(c) amortized across every layer).
        if let Some(model) = self.cfg.programming {
            self.now += model.layer_cycles(self.cfg.nodes() as u32);
        }
        let before = self.stats_registry();

        self.with_pipeline(|pipeline, cube| {
            pipeline.run(
                cube,
                cube.now,
                Neurocube::graph_done,
                Neurocube::total_mac_ops,
                |cube, idle| cube.graph_stall_diagnostic(idle),
            )
        });

        let run = self.graph_run.take().expect("graph run in progress");
        let final_stats = self.stats_registry();
        let mut report = Self::empty_report(prog);
        let mut prev_cycle = start_cycle;
        let mut prev_stats = &before;
        for k in 0..n {
            let (end_cycle, stats) = if k + 1 < n {
                (run.boundaries[k], &run.snapshots[k])
            } else {
                // The final phase absorbs the loop-exit overshoot so the
                // per-phase cycles sum to the end-to-end count.
                (self.now, &final_stats)
            };
            let node = prog.node_of(k);
            report.layers.push(layer_report(
                node,
                Self::node_kind(prog, node),
                PassKind::Forward,
                end_cycle - prev_cycle,
                &stats.diff(prev_stats),
            ));
            prev_cycle = end_cycle;
            prev_stats = stats;
        }
        report.fault = self.fault_summary();
        report
    }

    /// Phase hand-off, called by the [`GraphSequencer`] the first cycle
    /// the current phase reports complete: records the boundary and
    /// statistics snapshot, then retargets PNGs and PEs at the next phase
    /// (or marks the run complete).
    fn graph_advance(&mut self, now: u64) {
        let mut run = self.graph_run.take().expect("graph run in progress");
        if run.next < run.phases.len() {
            run.boundaries.push(now);
            run.snapshots.push(self.stats_registry());
            let prog = Arc::clone(&run.phases[run.next]);
            let image = run.images[run.next].clone();
            self.configure_program(&prog, &image);
            run.next += 1;
        } else {
            run.complete = true;
        }
        self.graph_run = Some(run);
    }

    /// Completion predicate for a compiled-graph run.
    fn graph_done(&self) -> bool {
        self.graph_run.as_ref().is_some_and(|r| r.complete)
    }

    /// Stall diagnostic for a compiled-graph run, labelled with the phase
    /// that hung.
    fn graph_stall_diagnostic(&self, idle_cycles: u64) -> String {
        let phase = self
            .graph_run
            .as_ref()
            .map_or(0, |r| r.next.saturating_sub(1));
        self.stall_diagnostic(phase, idle_cycles)
    }

    /// Arms a compiled-graph run without driving the cycle loop: builds
    /// every phase's weight image, configures phase 0 (untimed host
    /// register writes) and hands the phase sequence to the graph
    /// sequencer. External drivers — the cluster executor, which owns the
    /// fabric's clock and lets each member cube keep a private one — then
    /// drive the run with [`Neurocube::run_armed_graph`] and release the
    /// cube with [`Neurocube::end_graph_run`]. No programming phase is
    /// charged.
    pub fn begin_graph_run(&mut self, loaded: &LoadedGraph) {
        let prog = &loaded.program;
        let n = prog.phases.len();
        let images: Vec<Vec<Q88>> = (0..n)
            .map(|k| prog.phases[k].pe_weight_image(&loaded.params[prog.node_of(k)]))
            .collect();
        let phase0 = Arc::clone(&prog.phases[0]);
        self.configure_program(&phase0, &images[0]);
        self.graph_run = Some(GraphRun {
            phases: prog.phases.clone(),
            images,
            next: 1,
            complete: false,
            boundaries: Vec::with_capacity(n.saturating_sub(1)),
            snapshots: Vec::with_capacity(n.saturating_sub(1)),
        });
    }

    /// Releases a completed (or abandoned) graph run armed with
    /// [`Neurocube::begin_graph_run`]. Read results out with
    /// [`Neurocube::read_node_volume`] first — the DRAM image survives.
    pub fn end_graph_run(&mut self) {
        self.graph_run = None;
    }

    /// Drives the run armed by [`Neurocube::begin_graph_run`] on the
    /// cube's private clock until the graph sequencer marks it complete,
    /// and returns the cycle `c` of the tick that did — exactly, with
    /// [`Neurocube::now`] `== c + 1`: not one null tick is simulated past
    /// completion, so the caller may re-arm the cube at `c + 1`. `who`
    /// names the cube for the watchdog, which enforces the usual idle
    /// budget here because no outer loop sees this cube's progress.
    ///
    /// # Panics
    ///
    /// Panics with `who` and the graph stall diagnostic when the run
    /// stalls, or if no run is armed.
    pub fn run_armed_graph(&mut self, who: &str) -> u64 {
        assert!(
            self.graph_run.as_ref().is_some_and(|r| !r.complete),
            "{who}: no graph run is armed"
        );
        let end = self.with_pipeline(|pipeline, cube| {
            pipeline.run_until(
                cube,
                cube.now,
                Neurocube::graph_done,
                Neurocube::total_mac_ops,
                |cube, idle| format!("{who}: {}", cube.graph_stall_diagnostic(idle)),
            )
        });
        end - 1
    }

    /// Catches the cube's private clock up to cycle `to` (a no-op when it
    /// is already there) through the same pipeline every run uses: null
    /// windows are crossed by the cube's own event horizon and every
    /// non-null cycle — a refresh, a scheduled upset — is ticked, so the
    /// cube ends in the state `to - now` consecutive ticks would leave,
    /// at the cost of its events. How a multi-cube driver brings a member
    /// that sat idle (or finished early) back to the fabric's time.
    ///
    /// # Panics
    ///
    /// Panics if `to` lies in the cube's past.
    pub fn catch_up(&mut self, to: u64) {
        assert!(
            to >= self.now,
            "cannot catch up to cycle {to} from {}",
            self.now
        );
        if to > self.now {
            self.with_pipeline(|pipeline, cube| pipeline.advance(cube, cube.now, to));
        }
    }
}

/// One pass's report from the statistics it added (`delta`).
fn layer_report(
    layer_index: usize,
    kind: &'static str,
    pass: PassKind,
    cycles: u64,
    delta: &StatsRegistry,
) -> LayerReport {
    let delivered = delta.counter("noc.delivered");
    LayerReport {
        layer_index,
        kind,
        pass: pass.label(),
        cycles,
        macs: delta.sum_suffix(".mac_ops"),
        packets: delivered,
        lateral_packets: delta.counter("noc.lateral"),
        noc_mean_latency: if delivered > 0 {
            delta.counter("noc.total_latency") as f64 / delivered as f64
        } else {
            0.0
        },
        dram_bits: delta.counter("mem.bits_transferred"),
        dram_energy_j: delta.metric("mem.energy_j"),
        row_misses: delta.counter("mem.row_misses"),
    }
}

/// Credit return: PNGs observe PE progress for run-ahead flow control,
/// then issue writes + prefetch reads.
struct PngCreditReturn;

impl Clocked<Neurocube> for PngCreditReturn {
    fn tick(&mut self, now: u64, cube: &mut Neurocube) {
        // Credit capture: `cube.progress` is the canonical counter array
        // every PNG reads in place (no per-PNG mirrors — the old delta
        // broadcast fanned each change out to all sixteen PNGs, a 16 × 16
        // store pattern on saturated cubes). Refreshing it is sixteen
        // loads and stores into one cache line.
        for (i, pe) in cube.pes.iter().enumerate() {
            cube.progress[i] = pe.progress();
        }
        let Neurocube {
            pngs,
            mem,
            progress,
            ..
        } = cube;
        for png in pngs.iter_mut() {
            png.tick(now, mem, progress);
        }
    }

    fn next_event(&self, now: u64, cube: &Neurocube) -> Option<u64> {
        // A fresh credit broadcast can un-gate a held operand batch, so the
        // tick is only null while PE progress still matches what the PNGs
        // last saw.
        if cube.pes.len() != cube.progress.len()
            || cube
                .pes
                .iter()
                .zip(&cube.progress)
                .any(|(pe, &seen)| pe.progress() != seen)
        {
            return None;
        }
        let mut horizon = u64::MAX;
        for png in &cube.pngs {
            horizon = horizon.min(png.next_event(now, &cube.mem, &cube.progress)?);
        }
        Some(horizon)
    }

    fn skip(&mut self, from: u64, to: u64, cube: &mut Neurocube) {
        let Neurocube {
            pngs,
            mem,
            progress,
            ..
        } = cube;
        for png in pngs.iter_mut() {
            png.skip(from, to, mem, progress);
        }
    }

    fn name(&self) -> &'static str {
        "png-credit-return"
    }
}

/// Physical memory channels; completions dispatch to the issuing PNG.
struct DramChannels;

impl Clocked<Neurocube> for DramChannels {
    fn tick(&mut self, now: u64, cube: &mut Neurocube) {
        for ch in 0..cube.mem.channels() {
            if let Some(c) = cube.mem.tick_channel(ch, now) {
                let v = Png::vault_of_tag(c.tag);
                cube.pngs[usize::from(v)].on_completion(c.tag, c.data);
            }
        }
    }

    fn next_event(&self, now: u64, cube: &Neurocube) -> Option<u64> {
        // A channel that would serve (and so complete a request into a
        // PNG) reports `None`; quiescent channels bound the horizon by
        // their bank-ready and refresh timers.
        cube.mem.next_event(now)
    }

    fn skip(&mut self, from: u64, to: u64, cube: &mut Neurocube) {
        cube.mem.skip(from, to);
    }

    fn name(&self) -> &'static str {
        "dram-channels"
    }
}

/// NoC mem-port ejection: one packet per node per cycle, routed to the
/// owning PNG (the packet's source vault when controllers are shared).
struct MemPortEjection;

impl Clocked<Neurocube> for MemPortEjection {
    fn tick(&mut self, now: u64, cube: &mut Neurocube) {
        for node in 0..cube.cfg.nodes() as u8 {
            let src = match cube.net.peek_for_mem(node, now) {
                Some(pkt) => pkt.src,
                None => continue,
            };
            let handler = if cube.cfg.identity_attach() {
                node
            } else {
                src
            };
            if cube.pngs[usize::from(handler)].can_take_result() {
                let pkt = cube
                    .net
                    .pop_for_mem(node, now)
                    .expect("peeked packet vanished");
                cube.pngs[usize::from(handler)].on_result(pkt, now);
            }
        }
    }

    fn next_event(&self, _now: u64, cube: &Neurocube) -> Option<u64> {
        // Ejection only acts while flits are buffered; an empty fabric is
        // purely reactive. (Any buffered flit already forces the NoC stage
        // to demand ticks, so a coarse idle check loses nothing.)
        if cube.net.is_idle() {
            Some(u64::MAX)
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "mem-port-ejection"
    }
}

/// PNG packet injection: one per node per cycle; round-robin among PNGs
/// sharing an attach node.
struct PngInjection;

impl Clocked<Neurocube> for PngInjection {
    fn tick(&mut self, now: u64, cube: &mut Neurocube) {
        for node in 0..cube.cfg.nodes() as u8 {
            let sharing = &cube.attach_groups[usize::from(node)];
            if sharing.is_empty() {
                continue;
            }
            // Single-owner attach nodes (every HMC node) take the no-spin
            // path: the round-robin reduction is a real `div` per node per
            // cycle otherwise.
            let n = sharing.len();
            let offset = if n == 1 { 0 } else { (now as usize) % n };
            for i in 0..n {
                let mut slot = offset + i;
                if slot >= n {
                    slot -= n;
                }
                let v = sharing[slot];
                if let Some(&pkt) = cube.pngs[usize::from(v)].peek_outgoing() {
                    if cube.net.try_inject_from_mem(node, pkt, now) {
                        cube.pngs[usize::from(v)].pop_outgoing();
                    } else {
                        cube.pngs[usize::from(v)].note_inject_stall();
                    }
                    break;
                }
            }
        }
    }

    fn next_event(&self, _now: u64, cube: &Neurocube) -> Option<u64> {
        // Injection mutates state exactly when some PNG holds an outgoing
        // packet (the round-robin offset is derived from `now`, not
        // stored, so idle cycles leave no trace).
        if cube.pngs.iter().any(|p| p.peek_outgoing().is_some()) {
            None
        } else {
            Some(u64::MAX)
        }
    }

    fn name(&self) -> &'static str {
        "png-injection"
    }
}

/// One fabric cycle: flits advance one link.
struct NocTick;

impl Clocked<Neurocube> for NocTick {
    fn tick(&mut self, now: u64, cube: &mut Neurocube) {
        cube.net.tick(now);
    }

    fn next_event(&self, _now: u64, cube: &Neurocube) -> Option<u64> {
        // Buffered flits advance every cycle; an empty fabric only rotates
        // arbitration priorities, which `skip` replays in O(routers).
        if cube.net.is_idle() {
            Some(u64::MAX)
        } else {
            None
        }
    }

    fn skip(&mut self, from: u64, to: u64, cube: &mut Neurocube) {
        cube.net.skip_cycles(to - from);
    }

    fn name(&self) -> &'static str {
        "noc"
    }
}

/// PEs: operand delivery, firing, result injection.
struct PeTick;

impl Clocked<Neurocube> for PeTick {
    fn tick(&mut self, now: u64, cube: &mut Neurocube) {
        for p in 0..cube.cfg.nodes() as u8 {
            let pe = &mut cube.pes[usize::from(p)];
            if !pe.layer_done() {
                if let Some(&pkt) = cube.net.peek_for_pe(p, now) {
                    if pe.try_accept(pkt) {
                        let _ = cube.net.pop_for_pe(p, now);
                    }
                }
                pe.tick(now);
            }
            if let Some(&r) = pe.peek_result() {
                // Physical routing: results travel to the mesh node of
                // the region's controller.
                let mut phys = r;
                phys.dst = cube.pngs[usize::from(r.dst)].attach();
                if cube.net.try_inject_from_pe(p, phys, now) {
                    pe.pop_result();
                }
            }
        }
    }

    fn next_event(&self, now: u64, cube: &Neurocube) -> Option<u64> {
        // Operand acceptance needs buffered flits (fabric idle rules that
        // out); result injection needs a pending result; computation is
        // each PE's own horizon (its cadence timer).
        if !cube.net.is_idle() {
            return None;
        }
        let mut horizon = u64::MAX;
        for pe in &cube.pes {
            if pe.peek_result().is_some() {
                return None;
            }
            horizon = horizon.min(pe.next_event(now)?);
        }
        Some(horizon)
    }

    fn skip(&mut self, from: u64, to: u64, cube: &mut Neurocube) {
        for pe in &mut cube.pes {
            pe.skip(from, to);
        }
    }

    fn name(&self) -> &'static str {
        "pe"
    }
}

/// Keeps the cube's reference clock in step with the kernel's cycle
/// counter (must be the last stage of the pipeline).
struct AdvanceClock;

impl Clocked<Neurocube> for AdvanceClock {
    fn tick(&mut self, _now: u64, cube: &mut Neurocube) {
        cube.now += 1;
    }

    fn next_event(&self, _now: u64, _cube: &Neurocube) -> Option<u64> {
        // Purely mechanical: never vetoes a jump, never bounds one.
        Some(u64::MAX)
    }

    fn skip(&mut self, from: u64, to: u64, cube: &mut Neurocube) {
        cube.now += to - from;
    }

    fn name(&self) -> &'static str {
        "clock"
    }
}

/// First pipeline stage of a compiled-graph run: the on-cube controller
/// that retargets PNGs and PEs at the next phase the first cycle the
/// current one reports complete, so a whole layer DAG executes without a
/// host round-trip. Inert (purely reactive) when no graph run is active,
/// leaving per-phase passes bitwise identical to a pipeline without it.
struct GraphSequencer;

impl Clocked<Neurocube> for GraphSequencer {
    fn tick(&mut self, now: u64, cube: &mut Neurocube) {
        let active = matches!(&cube.graph_run, Some(run) if !run.complete);
        if active && cube.layer_complete() {
            cube.graph_advance(now);
        }
    }

    fn next_event(&self, _now: u64, cube: &Neurocube) -> Option<u64> {
        match &cube.graph_run {
            // A hand-off is pending the moment the phase completes; until
            // then the drain is bounded by the other stages' events, so a
            // jump can never skip past the completion cycle (the loop's
            // done-check cadence caps every jump).
            Some(run) if !run.complete => {
                if cube.layer_complete() {
                    None
                } else {
                    Some(u64::MAX)
                }
            }
            _ => Some(u64::MAX),
        }
    }

    fn name(&self) -> &'static str {
        "graph-sequencer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;
    use neurocube_nn::{LayerSpec, Shape};

    /// A stalled simulation is a bug, and the watchdog must turn it into
    /// a diagnosable panic instead of a hang: configure a real layer but
    /// drive a crippled pipeline with no PNG stages, so operands can
    /// never reach the PEs and progress stays flat forever.
    #[test]
    fn watchdog_panics_with_diagnostic_dump_on_crafted_stall() {
        let spec = NetworkSpec::new(
            Shape::new(1, 12, 12),
            vec![LayerSpec::conv(2, 3, Activation::Tanh)],
        )
        .unwrap();
        let params = spec.init_params(1, 0.25);
        let mut cube = Neurocube::new(SystemConfig::paper(true));
        let loaded = cube.load(spec, params);
        let prog = Arc::clone(&loaded.programs()[0]);
        let image = prog.pe_weight_image(&loaded.params()[0]);
        cube.configure_program(&prog, &image);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CycleLoop::new()
                .stage(NocTick)
                .stage(PeTick)
                .stage(AdvanceClock)
                .run(
                    &mut cube,
                    0,
                    Neurocube::layer_complete,
                    Neurocube::total_mac_ops,
                    |c, idle| c.stall_diagnostic(0, idle),
                );
        }))
        .expect_err("a starved pipeline must trip the watchdog");
        let msg = err
            .downcast_ref::<String>()
            .expect("watchdog panics with a formatted message");
        assert!(msg.contains("deadlock in layer 0"), "got: {msg}");
        assert!(
            msg.contains("noc.delivered"),
            "diagnostic must include the stats dump, got: {msg}"
        );
    }

    /// Event-horizon fast-forwarding must be invisible in every observable:
    /// identical output tensor, identical final cycle counter, identical
    /// statistics registry — while actually skipping a meaningful number
    /// of cycles (otherwise the test proves nothing).
    #[test]
    fn fast_forward_matches_naive_loop_bitwise() {
        let spec = NetworkSpec::new(
            Shape::new(1, 12, 12),
            vec![
                LayerSpec::conv(2, 3, Activation::Tanh),
                LayerSpec::fc(10, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let params = spec.init_params(1, 0.25);
        let input = Tensor::from_vec(
            1,
            12,
            12,
            (0..144)
                .map(|i| neurocube_fixed::Q88::from_f64(f64::from(i % 7) * 0.1 - 0.3))
                .collect(),
        );

        let run = |skip: bool| {
            let mut cube = Neurocube::new(SystemConfig::paper(true));
            cube.set_cycle_skip(skip);
            let loaded = cube.load(spec.clone(), params.clone());
            let (out, report) = cube.run_inference(&loaded, &input);
            let cycles: Vec<u64> = report.layers.iter().map(|l| l.cycles).collect();
            (
                out,
                cycles,
                cube.now(),
                cube.stats_registry(),
                cube.skipped_cycles(),
                cube.horizon_jumps(),
            )
        };

        let (out_fast, cyc_fast, now_fast, stats_fast, skipped, jumps) = run(true);
        let (out_ref, cyc_ref, now_ref, stats_ref, skipped_ref, jumps_ref) = run(false);

        assert_eq!(skipped_ref, 0, "the oracle must not fast-forward");
        assert_eq!(jumps_ref, 0);
        assert!(
            skipped > 0 && jumps > 0,
            "fast mode never jumped ({skipped} cycles, {jumps} jumps): \
             the workload no longer exercises skipping"
        );
        assert_eq!(now_fast, now_ref, "final cycle counters diverge");
        assert_eq!(cyc_fast, cyc_ref, "per-layer cycle counts diverge");
        assert_eq!(
            out_fast.as_slice(),
            out_ref.as_slice(),
            "output tensors diverge"
        );
        assert_eq!(stats_fast, stats_ref, "statistics registries diverge");
    }

    fn tiny_net() -> (NetworkSpec, Vec<Vec<neurocube_fixed::Q88>>, Tensor) {
        let spec = NetworkSpec::new(
            Shape::new(1, 12, 12),
            vec![
                LayerSpec::conv(2, 3, Activation::Tanh),
                LayerSpec::fc(10, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let params = spec.init_params(1, 0.25);
        let input = Tensor::from_vec(
            1,
            12,
            12,
            (0..144)
                .map(|i| neurocube_fixed::Q88::from_f64(f64::from(i % 7) * 0.1 - 0.3))
                .collect(),
        );
        (spec, params, input)
    }

    /// A drop is legal only while an injector is attached: a stray
    /// `Result` at unconfigured PNG 5 is counted under
    /// `fault.png.dropped_packets` when an injector (an ECC-only config,
    /// which injects nothing) is attached, and the run completes; without
    /// one, the pass panics naming the PNG that dropped.
    #[test]
    #[should_panic(expected = "PNG 5: 1 dropped; first: PNG not configured")]
    fn a_drop_without_an_injector_fails_the_pass() {
        let (spec, params, input) = tiny_net();
        let stray = neurocube_noc::Packet {
            dst: 5,
            src: 3,
            mac_id: 0,
            op_id: 0,
            kind: neurocube_noc::PacketKind::Result,
            data: 7,
        };
        let run = |faults: Option<FaultConfig>| {
            let mut cube = Neurocube::new(SystemConfig::paper(true));
            cube.set_fault_config(faults);
            cube.pngs[5].on_result(stray, 0);
            let loaded = cube.load(spec.clone(), params.clone());
            let _ = cube.run_inference(&loaded, &input);
            cube.stats_registry()
        };
        let ecc_only = FaultConfig {
            ecc: true,
            ..FaultConfig::default()
        };
        assert_eq!(run(Some(ecc_only)).counter("fault.png.dropped_packets"), 1);
        run(None);
    }

    /// The per-pass drop check covers the NoC and the PEs as well as the
    /// PNGs. Each stray — a packet the NoC cannot route, a packet at
    /// unconfigured PE 2 — is counted under its unit's fault key when an
    /// ECC-only injector is attached, and the run completes; without one,
    /// the pass panics naming that unit and its first drop.
    #[test]
    fn a_noc_or_pe_drop_without_an_injector_fails_the_pass() {
        use neurocube_noc::{Packet, PacketKind};
        let (spec, params, input) = tiny_net();
        let stray = |dst, kind| Packet {
            dst,
            src: 3,
            mac_id: 0,
            op_id: 0,
            kind,
            data: 7,
        };
        type Plant = fn(&mut Neurocube, Packet);
        let cases: [(Packet, Plant, &str, &str); 2] = [
            (
                stray(200, PacketKind::Result),
                |cube, pkt| assert!(cube.net.try_inject_from_pe(3, pkt, 0)),
                "fault.noc.unroutable",
                "NoC 0: 1 dropped; first: unroutable packet at cycle 0 from the pe port of node 3: dst 200",
            ),
            (
                stray(2, PacketKind::SharedState),
                |cube, pkt| assert!(cube.pes[2].try_accept(pkt)),
                "fault.pe.dropped_packets",
                "PE 2: 1 dropped; first: PE not configured",
            ),
        ];
        for (pkt, plant, key, named) in cases {
            let run = |faults: Option<FaultConfig>| {
                let mut cube = Neurocube::new(SystemConfig::paper(true));
                cube.set_fault_config(faults);
                plant(&mut cube, pkt);
                let loaded = cube.load(spec.clone(), params.clone());
                let _ = cube.run_inference(&loaded, &input);
                cube.stats_registry()
            };
            let ecc_only = FaultConfig {
                ecc: true,
                ..FaultConfig::default()
            };
            assert_eq!(run(Some(ecc_only)).counter(key), 1, "{key}");
            let msg = *std::panic::catch_unwind(|| run(None))
                .expect_err(named)
                .downcast::<String>()
                .expect("the drop check panics with a formatted message");
            assert!(msg.contains(named), "want {named:?} in: {msg}");
        }
    }

    /// A zero-rate, ECC-off fault config is normalized away: the run is
    /// bitwise identical to one on a cube that never saw the fault crate
    /// (same registry key set, same values, no `fault` report section).
    #[test]
    fn zero_rate_fault_config_is_bitwise_identical_to_no_injector() {
        let (spec, params, input) = tiny_net();
        let run = |cfg: Option<FaultConfig>| {
            let mut cube = Neurocube::new(SystemConfig::paper(true));
            cube.set_fault_config(cfg);
            let loaded = cube.load(spec.clone(), params.clone());
            let (out, report) = cube.run_inference(&loaded, &input);
            (out, report, cube.stats_registry())
        };
        let (out_ref, rep_ref, stats_ref) = run(None);
        let (out_zero, rep_zero, stats_zero) = run(Some(FaultConfig::uniform(7, 0.0)));
        assert_eq!(out_zero.as_slice(), out_ref.as_slice());
        assert_eq!(rep_zero, rep_ref);
        assert!(rep_zero.fault.is_none(), "zero-rate config must detach");
        assert_eq!(stats_zero, stats_ref, "registries diverge at rate 0");
        assert!(
            !stats_zero.counters().any(|(k, _)| k.starts_with("fault.")),
            "no fault scope without an injector"
        );
    }

    /// With faults enabled, event-horizon skipping must still be invisible:
    /// skip and naive runs see the *same* faults at the same cycles and end
    /// with bitwise-identical outputs, reports, and registries.
    #[test]
    fn faulty_run_skip_matches_naive_bitwise() {
        let (spec, params, input) = tiny_net();
        let cfg = FaultConfig::uniform(0xFA017, 2e-5);
        let run = |skip: bool| {
            let mut cube = Neurocube::new(SystemConfig::paper(true));
            cube.set_cycle_skip(skip);
            cube.set_fault_config(Some(cfg.clone()));
            let loaded = cube.load(spec.clone(), params.clone());
            let (out, report) = cube.run_inference(&loaded, &input);
            (out, report, cube.stats_registry(), cube.horizon_jumps())
        };
        let (out_fast, rep_fast, stats_fast, jumps) = run(true);
        let (out_ref, rep_ref, stats_ref, jumps_ref) = run(false);
        assert_eq!(jumps_ref, 0, "the oracle must not fast-forward");
        assert!(jumps > 0, "fault mode no longer exercises skipping");
        let summary = rep_fast.fault.expect("injector attached");
        assert!(
            !summary.is_clean(),
            "rate 2e-5 must materialize at least one fault: {summary}"
        );
        assert_eq!(out_fast.as_slice(), out_ref.as_slice());
        assert_eq!(rep_fast, rep_ref, "reports diverge under faults");
        assert_eq!(stats_fast, stats_ref, "registries diverge under faults");
        assert!(
            stats_fast.counters().any(|(k, _)| k.starts_with("fault.")),
            "fault scope missing from the registry"
        );
    }

    /// The same configured layer on the full pipeline completes without
    /// tripping the watchdog — the budget only punishes genuine stalls.
    #[test]
    fn full_pipeline_completes_without_tripping_watchdog() {
        let spec = NetworkSpec::new(
            Shape::new(1, 12, 12),
            vec![LayerSpec::conv(2, 3, Activation::Tanh)],
        )
        .unwrap();
        let params = spec.init_params(1, 0.25);
        let mut cube = Neurocube::new(SystemConfig::paper(true));
        let loaded = cube.load(spec, params);
        let input = Tensor::zeros(1, 12, 12);
        let (_, report) = cube.run_inference(&loaded, &input);
        assert!(report.layers[0].macs > 0);
        assert!(
            report.total_cycles() < 2_000_000,
            "healthy layers finish quickly"
        );
    }

    fn graph_input() -> Tensor {
        Tensor::from_vec(
            1,
            12,
            12,
            (0..144)
                .map(|i| Q88::from_f64(f64::from(i % 7) * 0.1 - 0.3))
                .collect(),
        )
    }

    /// Pipelined graph execution (one host programming round-trip,
    /// sequencer-driven phase hand-offs) must produce bitwise the same
    /// output and every-node intermediate values as per-layer replay —
    /// the sequencer only changes *when* the host reprograms, never what
    /// flows through the vaults.
    #[test]
    fn pipelined_graph_matches_replay_bitwise() {
        let graph = neurocube_nn::workloads::residual_toy();
        let params = graph.init_params(11, 0.25);
        let input = graph_input();

        let mut cube = Neurocube::new(SystemConfig::paper(true));
        let loaded = cube.load_graph(&graph, params.clone()).unwrap();
        let (out_pipe, rep_pipe) = cube.run_inference(&loaded, &input);

        let mut cube2 = Neurocube::new(SystemConfig::paper(true));
        let loaded2 = cube2.load_graph(&graph, params).unwrap();
        let (volumes, rep_replay) = cube2.run_graph_replay_collect(&loaded2, &input);

        assert_eq!(
            out_pipe.as_slice(),
            volumes[graph.output_node()].as_slice(),
            "pipelined and replayed outputs diverge"
        );
        // Both runs issue identical DRAM traffic, so the *end-state* bytes
        // of every node region must agree bitwise — including regions the
        // allocator recycled for later phases (equally stale in both).
        for node in 0..graph.depth() {
            assert_eq!(
                cube.read_node_volume(&loaded, node).as_slice(),
                cube2.read_node_volume(&loaded2, node).as_slice(),
                "node {node} end-state regions diverge"
            );
        }
        // Same phases, same labels, same MAC work per phase.
        assert_eq!(rep_pipe.layers.len(), rep_replay.layers.len());
        for (p, r) in rep_pipe.layers.iter().zip(&rep_replay.layers) {
            assert_eq!(p.layer_index, r.layer_index);
            assert_eq!(p.kind, r.kind);
            assert_eq!(p.macs, r.macs);
        }
    }

    /// Per-phase attribution must tile the run exactly: one report entry
    /// per phase labelled with its graph node, cycles summing to the
    /// end-to-end count with no gaps or double counting.
    #[test]
    fn graph_attribution_tiles_the_run() {
        let graph = neurocube_nn::workloads::residual_toy();
        let params = graph.init_params(11, 0.25);
        let mut cube = Neurocube::new(SystemConfig::paper(true));
        let start = cube.now();
        let loaded = cube.load_graph(&graph, params).unwrap();
        let (_, report) = cube.run_inference(&loaded, &graph_input());
        let prog = loaded.program();
        assert_eq!(report.layers.len(), prog.phases.len());
        for (k, layer) in report.layers.iter().enumerate() {
            assert_eq!(layer.layer_index, prog.node_of(k));
            assert!(layer.cycles > 0, "phase {k} attributed zero cycles");
            assert!(layer.macs > 0, "phase {k} attributed zero MACs");
        }
        assert_eq!(
            report.total_cycles(),
            cube.now() - start,
            "per-phase cycles must sum to the end-to-end count"
        );
        // Fig. 12(d): the report carries duplication overhead (every
        // buffer duplicated and live at once), not the peak footprint
        // buffer reuse achieves.
        assert_eq!(
            (report.memory_bytes, report.memory_minimal_bytes),
            (prog.duplicated_bytes(), prog.minimal_bytes()),
            "report must carry the graph's duplication footprint"
        );
        assert!(prog.total_bytes() <= prog.duplicated_bytes());
    }

    /// Event-horizon skipping must stay invisible across sequencer-driven
    /// phase hand-offs: identical outputs, cycle counters and registries,
    /// while still actually jumping.
    #[test]
    fn graph_skip_matches_naive_bitwise() {
        let graph = neurocube_nn::workloads::residual_toy();
        let params = graph.init_params(11, 0.25);
        let input = graph_input();
        let run = |skip: bool| {
            let mut cube = Neurocube::new(SystemConfig::paper(true));
            cube.set_cycle_skip(skip);
            let loaded = cube.load_graph(&graph, params.clone()).unwrap();
            let (out, report) = cube.run_inference(&loaded, &input);
            let cycles: Vec<u64> = report.layers.iter().map(|l| l.cycles).collect();
            (
                out,
                cycles,
                cube.now(),
                cube.stats_registry(),
                cube.horizon_jumps(),
            )
        };
        let (out_fast, cyc_fast, now_fast, stats_fast, jumps) = run(true);
        let (out_ref, cyc_ref, now_ref, stats_ref, jumps_ref) = run(false);
        assert_eq!(jumps_ref, 0, "the oracle must not fast-forward");
        assert!(jumps > 0, "graph runs no longer exercise skipping");
        assert_eq!(now_fast, now_ref, "final cycle counters diverge");
        assert_eq!(cyc_fast, cyc_ref, "per-phase cycle counts diverge");
        assert_eq!(out_fast.as_slice(), out_ref.as_slice());
        assert_eq!(stats_fast, stats_ref, "registries diverge");
    }

    /// The private-clock drive a multi-cube driver uses: `catch_up`
    /// replays idle time through the cube's own pipeline (refreshes are
    /// events it must tick, the stretches between them are skipped), and
    /// `run_armed_graph` stops on the very tick the sequencer completes.
    /// Skip and naive agree on every cycle and the full registry, and the
    /// values are those of an ordinary graph run.
    #[test]
    fn private_clock_drive_is_exact_and_skip_matches_naive() {
        let graph = neurocube_nn::workloads::residual_toy();
        let params = graph.init_params(11, 0.25);
        let input = graph_input();
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.channel.refresh = Some(neurocube_dram::RefreshModel {
            interval: 3_000,
            duration: 150,
        });
        let run = |skip: bool| {
            let mut cube = Neurocube::new(cfg.clone());
            cube.set_cycle_skip(skip);
            let loaded = cube.load_graph(&graph, params.clone()).unwrap();
            cube.catch_up(20_000);
            assert_eq!(cube.now(), 20_000);
            let idle_jumps = cube.horizon_jumps();
            cube.set_graph_input(&loaded, &input);
            cube.begin_graph_run(&loaded);
            let done = cube.run_armed_graph("test cube");
            assert_eq!(cube.now(), done + 1, "stopped past the completing tick");
            cube.catch_up(done + 1); // already there
            cube.catch_up(done + 10_001);
            let out = cube.read_node_volume(&loaded, graph.output_node());
            cube.end_graph_run();
            (
                done,
                out,
                cube.now(),
                cube.stats_registry(),
                idle_jumps,
                cube.horizon_jumps(),
            )
        };
        let (done_fast, out_fast, now_fast, stats_fast, idle_jumps, jumps) = run(true);
        let (done_ref, out_ref, now_ref, stats_ref, idle_jumps_ref, jumps_ref) = run(false);
        assert_eq!((idle_jumps_ref, jumps_ref), (0, 0), "the oracle must tick");
        // Six refreshes in 20 000 idle cycles: a handful of jumps, not one
        // per 64-cycle check window.
        assert!(
            (6..40).contains(&idle_jumps),
            "idle catch-up took {idle_jumps} jumps"
        );
        assert!(jumps > idle_jumps);
        assert_eq!((done_fast, now_fast), (done_ref, now_ref));
        assert_eq!(out_fast.as_slice(), out_ref.as_slice());
        assert_eq!(stats_fast, stats_ref, "registries diverge");

        let mut plain = Neurocube::new(cfg.clone());
        let loaded = plain.load_graph(&graph, params).unwrap();
        let (reference, _) = plain.run_inference(&loaded, &input);
        assert_eq!(out_fast.as_slice(), reference.as_slice());
    }
}
