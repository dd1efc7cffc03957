//! Analytical per-layer cycle bounds for the cycle-level simulator.
//!
//! Every term is a *provable lower bound* on the simulator's per-layer
//! cycle count, derived from hard structural rates of the modeled
//! hardware (each verified against the pipeline in `neurocube::system`):
//!
//! * **MAC occupancy** — the global lockstep schedule fires
//!   `max_groups` MAC-array groups and every group needs one accumulate
//!   per connection, so a layer takes at least `max_groups × conns`
//!   cycles even with infinite bandwidth.
//! * **PE packet serialization** — a PE accepts at most one NoC packet
//!   per cycle, and the operand streams deliver exactly one packet per
//!   MAC operand (conv/pool: one `State` per connection of every
//!   assigned neuron; FC: one `Weight` per connection of every assigned
//!   neuron plus one `SharedState` per connection of every group).
//! * **Port serialization** — each node's memory port ejects at most one
//!   packet per cycle (write-backs) and injects at most one per cycle
//!   (operand packets from the vaults attached to it).
//! * **DRAM channel pacing** — every operand fetch and write-back
//!   crosses its channel, which moves at most one word per
//!   `cpw_num/cpw_den` cycles and inserts the `t_CCD` inter-burst gap
//!   after every full burst ([`channel_stream_cycles`]). Operands are 16
//!   bits, so at best `word_bits/16` of them share one channel word.
//!
//! The bound is the maximum of the terms plus the host programming-phase
//! cycles when a [`ProgrammingModel`](neurocube::ProgrammingModel) is
//! configured. An upper *tolerance envelope* (`slack × lower bound`)
//! catches gross regressions in the other direction; unlike the lower
//! bound it is calibrated, not derived.

use neurocube::{RunReport, SystemConfig};
use neurocube_dram::{ChannelConfig, REF_CLOCK_HZ};
use neurocube_nn::GraphSpec;
use neurocube_png::{compile_graph, LayerProgram, MultiLayerProgram};
use std::fmt;

/// Reference cycles a channel needs to move `words` data words: rational
/// word pacing plus one inter-burst gap after every completed burst
/// (a trailing gap after the final word does not delay completion).
pub fn channel_stream_cycles(ch: &ChannelConfig, words: u64) -> u64 {
    let pacing = words * u64::from(ch.cpw_num) / u64::from(ch.cpw_den);
    let gaps = words.saturating_sub(1) / u64::from(ch.burst_len);
    pacing + gaps * u64::from(ch.inter_burst_gap)
}

/// The analytical cycle bound of one layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerBound {
    /// Layer index in the network.
    pub layer_index: usize,
    /// MAC-array occupancy term: `max_groups × conns`.
    pub mac_cycles: u64,
    /// Worst per-PE operand packet count (one accepted per cycle).
    pub pe_packet_cycles: u64,
    /// Worst per-node memory-port ejection (write-backs) or injection
    /// (operand packets) count.
    pub port_cycles: u64,
    /// Worst per-channel DRAM streaming time for the layer's mandatory
    /// traffic.
    pub dram_cycles: u64,
    /// Host programming-phase cycles charged to the layer (0 when the
    /// configuration models the paper's untimed programming).
    pub programming_cycles: u64,
}

/// Fixed additive allowance of the upper envelope, covering per-layer
/// latency that does not scale with work: pipeline fill/drain across the
/// mesh, cache retrieval latency (16–64 cycles per operand chain), and
/// the end-of-layer write-back drain. Calibrated against the paper
/// workloads (the smallest layers measure ≈120 cycles above `slack ×
/// lower`); the lower bound needs no such term.
pub const FIXED_OVERHEAD_CYCLES: u64 = 512;

/// Default multiplicative slack of the upper envelope. Small layers are
/// *latency*-bound, not throughput-bound: with few operands in flight
/// each one pays the full cache-retrieval (16–64 cycles) plus DRAM
/// row-activation round trip, observed at up to ≈20 cycles per operand
/// against a 1-per-cycle serialization bound. The default therefore
/// admits latency-bound shapes (observed measured/lower ratios: 1.18–4.0
/// on large layers, up to ≈19 on shrunk minimal ones); pass a tighter
/// slack explicitly when checking throughput-bound paper workloads.
pub const DEFAULT_SLACK: f64 = 24.0;

impl LayerBound {
    /// The lower bound on the simulator's cycle count for this layer.
    pub fn lower(&self) -> u64 {
        self.mac_cycles
            .max(self.pe_packet_cycles)
            .max(self.port_cycles)
            .max(self.dram_cycles)
            + self.programming_cycles
    }

    /// Checks a measured cycle count against the lower bound and the
    /// `slack × lower + FIXED_OVERHEAD_CYCLES` upper tolerance envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`TimingViolation`] when `measured` falls outside
    /// the envelope.
    pub fn check(&self, measured: u64, slack: f64) -> Result<(), TimingViolation> {
        let lower = self.lower();
        let upper = (lower as f64 * slack).ceil() as u64 + FIXED_OVERHEAD_CYCLES;
        if measured < lower || measured > upper {
            return Err(TimingViolation {
                layer_index: self.layer_index,
                measured,
                lower,
                upper,
            });
        }
        Ok(())
    }
}

/// A simulated cycle count outside the analytical envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingViolation {
    /// The offending layer.
    pub layer_index: usize,
    /// The simulator's cycle count.
    pub measured: u64,
    /// The analytical lower bound.
    pub lower: u64,
    /// The tolerance ceiling (`slack × lower`).
    pub upper: u64,
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer {}: measured {} cycles outside analytical envelope [{}, {}]",
            self.layer_index, self.measured, self.lower, self.upper
        )
    }
}

impl std::error::Error for TimingViolation {}

/// The analytical cycle bound of one compiled [`LayerProgram`] — the
/// compiler's per-phase cost model. `layer_index` only labels the result
/// (the graph node the phase executes); `programming_cycles` is left at 0
/// for the caller to assign, since a pipelined run charges programming
/// once per inference while per-phase replay charges every phase.
pub fn program_bound(cfg: &SystemConfig, prog: &LayerProgram, layer_index: usize) -> LayerBound {
    let nodes = cfg.nodes();
    let vaults = prog.mapping.vaults();
    let conns = u64::from(prog.conns());
    let fc = prog.is_fc();

    let mut pe_packets = 0u64;
    let mut total_events = 0u64;
    // Per-vault operand fetches, when the source vault of every
    // event is known exactly; `None` for non-duplicated spatial
    // layers, where the per-vault split depends on tile geometry
    // and only distribution-free floors are sound.
    let mut events: Option<Vec<u64>> = if fc || prog.mapping.duplicate {
        Some(vec![0u64; vaults])
    } else {
        None
    };
    let mut node_eject = vec![0u64; nodes];
    let mut channel_write_words = vec![0u64; cfg.memory.channels as usize];
    let items_per_word = u64::from(cfg.memory.channel.word_bits) / 16;

    for v in 0..vaults as u8 {
        let assigned = prog.out_vol.assigned_count(v);
        let groups = prog.groups_of(v);
        let stored_out = prog.out_vol.bytes_in_vault(v) / 2;

        // Operand packets the PE at `v` must accept, one per cycle.
        let received = if fc {
            conns * (assigned + groups)
        } else {
            conns * assigned
        };
        pe_packets = pe_packets.max(received);
        total_events += received;

        if let Some(ev) = events.as_mut() {
            if fc {
                // Weights always stream from the PE's own vault
                // (the layout stores FC weights transposed).
                ev[usize::from(v)] += conns * assigned;
                // States follow the schedule's source-selection
                // rule exactly: a locally stored copy wins,
                // otherwise the owner sends. One fetch per
                // (group, input) pair.
                if groups > 0 {
                    for idx in 0..prog.in_vol.shape.len() {
                        let src = if prog.in_vol.local_addr(v, idx).is_some() {
                            v
                        } else {
                            prog.in_vol.owner(idx)
                        };
                        ev[usize::from(src)] += groups;
                    }
                }
            } else {
                // Duplicated conv/pool streams are purely local:
                // the consuming PE's vault fetches every operand.
                ev[usize::from(v)] += conns * assigned;
            }
        }

        let node = usize::from(cfg.attach[usize::from(v)]);
        node_eject[node] += stored_out;
        let ch = cfg.memory.channel_of_region(u32::from(v)) as usize;
        channel_write_words[ch] += stored_out.div_ceil(items_per_word);
    }

    // Injection/read terms. With exact per-vault events, fold by
    // attach/channel; otherwise the max over nodes (channels) is
    // at least the even split of the exact total event count.
    let (inject_max, dram_words) = match &events {
        Some(ev) => {
            // Exact per-vault sources: fold into nodes via the
            // attach table, and add reads to each channel's
            // write words (a channel serves both serially).
            let mut node_inject = vec![0u64; nodes];
            let mut ch_words = channel_write_words.clone();
            for (v, &e) in ev.iter().enumerate() {
                node_inject[usize::from(cfg.attach[v])] += e;
                ch_words[cfg.memory.channel_of_region(v as u32) as usize] +=
                    e.div_ceil(items_per_word);
            }
            (
                node_inject.into_iter().max().unwrap_or(0),
                ch_words.into_iter().max().unwrap_or(0),
            )
        }
        // Distribution-free floors: the busiest node (channel)
        // carries at least the even split of the exact event
        // total, and at least its write-back stream.
        None => (
            total_events.div_ceil(nodes as u64),
            total_events
                .div_ceil(items_per_word)
                .div_ceil(u64::from(cfg.memory.channels))
                .max(channel_write_words.iter().copied().max().unwrap_or(0)),
        ),
    };

    let port_cycles = node_eject.into_iter().max().unwrap_or(0).max(inject_max);
    let dram_cycles = channel_stream_cycles(&cfg.memory.channel, dram_words);

    LayerBound {
        layer_index,
        mac_cycles: prog.max_groups() * conns,
        pe_packet_cycles: pe_packets,
        port_cycles,
        dram_cycles,
        programming_cycles: 0,
    }
}

/// Computes the analytical bound of every phase of a compiled graph — a
/// linear network's via
/// [`NetworkSpec::to_graph`](neurocube_nn::NetworkSpec::to_graph) — in
/// phase order: the compiler's cost model composed along the DAG. Each
/// `layer_index` is the graph node the phase executes. A pipelined run
/// programs the cube once, so the whole programming charge lands on phase
/// 0 (per-phase replay instead pays it on every phase, which is the gap
/// [`graph_bounds`] lets benchmarks quantify).
///
/// # Panics
///
/// Panics if the graph cannot be compiled for `cfg` (the condition under
/// which [`Neurocube::load_graph`](neurocube::Neurocube::load_graph)
/// returns an error).
pub fn graph_bounds(cfg: &SystemConfig, graph: &GraphSpec) -> Vec<LayerBound> {
    let prog = compile_graph(graph, cfg.mapping(), &cfg.memory.address_map())
        .expect("graph fits the configured memory");
    phase_bounds(cfg, &prog)
}

/// [`graph_bounds`] for an already-compiled [`MultiLayerProgram`].
pub fn phase_bounds(cfg: &SystemConfig, prog: &MultiLayerProgram) -> Vec<LayerBound> {
    let programming = cfg
        .programming
        .map_or(0, |m| m.layer_cycles(cfg.nodes() as u32));
    (0..prog.phases.len())
        .map(|k| {
            let mut bound = program_bound(cfg, &prog.phases[k], prog.node_of(k));
            if k == 0 {
                bound.programming_cycles = programming;
            }
            bound
        })
        .collect()
}

/// Checks every phase of a pipelined [`RunReport`] (what
/// [`run_inference`](neurocube::Neurocube::run_inference) returns) against
/// the analytical envelope.
///
/// # Errors
///
/// Returns the first [`TimingViolation`] found, scanning phases in order.
///
/// # Panics
///
/// Panics if the report does not have one entry per phase labelled with
/// the phase's graph node.
pub fn check_graph_report(
    cfg: &SystemConfig,
    graph: &GraphSpec,
    report: &RunReport,
    slack: f64,
) -> Result<(), TimingViolation> {
    let bounds = graph_bounds(cfg, graph);
    assert_eq!(
        report.layers.len(),
        bounds.len(),
        "one report entry per phase"
    );
    for (bound, layer) in bounds.iter().zip(&report.layers) {
        assert_eq!(layer.layer_index, bound.layer_index, "report order");
        bound.check(layer.cycles, slack)?;
    }
    Ok(())
}

/// A whole-inference cycle envelope: the interval every measured
/// service time of a model must land in, summed from the per-layer
/// analytical bounds. This is the query API the two-speed serving
/// audits use — the analytical fast path claims a service time, and a
/// sampled cycle-accurate replay asserts both numbers sit inside this
/// certified interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleEnvelope {
    /// Σ per-layer analytical lower bounds (provable — a faster run is a
    /// simulator defect).
    pub lower: u64,
    /// Σ per-layer tolerance ceilings (`ceil(slack × lower_i) +
    /// FIXED_OVERHEAD_CYCLES` each — calibrated, a slower run is a gross
    /// regression).
    pub upper: u64,
}

impl CycleEnvelope {
    /// The envelope spanned by a set of per-layer bounds under `slack`.
    #[must_use]
    pub fn from_bounds(bounds: &[LayerBound], slack: f64) -> CycleEnvelope {
        let lower = bounds.iter().map(LayerBound::lower).sum();
        let upper = bounds
            .iter()
            .map(|b| (b.lower() as f64 * slack).ceil() as u64 + FIXED_OVERHEAD_CYCLES)
            .sum();
        CycleEnvelope { lower, upper }
    }

    /// A degenerate single-point envelope — what a synthetic
    /// (timing-only) model certifies: exactly its declared service time.
    #[must_use]
    pub fn exact(cycles: u64) -> CycleEnvelope {
        CycleEnvelope {
            lower: cycles,
            upper: cycles,
        }
    }

    /// Whether `cycles` lies inside the envelope (inclusive).
    #[must_use]
    pub fn contains(&self, cycles: u64) -> bool {
        self.lower <= cycles && cycles <= self.upper
    }

    /// Checks a cycle count against the envelope.
    ///
    /// # Errors
    ///
    /// Returns an [`EnvelopeViolation`] when `cycles` falls outside.
    pub fn check(&self, cycles: u64) -> Result<(), EnvelopeViolation> {
        if self.contains(cycles) {
            Ok(())
        } else {
            Err(EnvelopeViolation {
                cycles,
                lower: self.lower,
                upper: self.upper,
            })
        }
    }
}

/// A whole-inference cycle count outside a [`CycleEnvelope`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvelopeViolation {
    /// The offending cycle count.
    pub cycles: u64,
    /// The envelope's lower edge.
    pub lower: u64,
    /// The envelope's upper edge.
    pub upper: u64,
}

impl fmt::Display for EnvelopeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles outside certified service envelope [{}, {}]",
            self.cycles, self.lower, self.upper
        )
    }
}

impl std::error::Error for EnvelopeViolation {}

/// The certified service envelope of one pipelined inference of `graph`
/// under `cfg`: the per-phase analytical bounds summed into one
/// [`CycleEnvelope`]. The simulator's total inference cycles are the sum
/// of its per-phase cycles, each inside its own `[lower_i, upper_i]`, so
/// the summed interval contains every measured service time.
///
/// # Panics
///
/// Panics if the graph cannot be compiled for `cfg` (see
/// [`graph_bounds`]).
#[must_use]
pub fn graph_service_envelope(cfg: &SystemConfig, graph: &GraphSpec, slack: f64) -> CycleEnvelope {
    CycleEnvelope::from_bounds(&graph_bounds(cfg, graph), slack)
}

/// Fixed per-handoff allowance of a multi-cube pipeline's upper envelope:
/// the receiving cube's ingest bookkeeping (input volume write, sequencer
/// start) that does not scale with payload size. The lower bound charges
/// nothing for it — a handoff can in principle complete the cycle the
/// payload lands.
pub const LINK_HANDOFF_SLACK_CYCLES: u64 = 64;

/// Reference cycles an inter-cube SerDes transfer occupies end to end:
/// serialization of `bytes` at `bandwidth_gbps` plus `hops` store-and-
/// forward latencies of `latency_ns` each, at the 5 GHz reference clock.
/// Zero bytes cost nothing (no packet, no latency). This is the exact
/// charge the cluster executor levies per transfer, so any bound built
/// from it is certified: measured link time can never come in under it.
/// Pacing and flight are ceiled independently in per-ns units so the
/// charge is stable against float-sum rounding (GB/s = bytes/ns).
#[must_use]
pub fn link_transfer_cycles(bytes: u64, hops: u64, bandwidth_gbps: f64, latency_ns: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let cycles_per_ns = REF_CLOCK_HZ / 1e9;
    let flight = (hops as f64 * latency_ns * cycles_per_ns).ceil() as u64;
    link_serialization_cycles(bytes, bandwidth_gbps) + flight
}

/// Reference cycles the *source* link stays busy serializing `bytes` at
/// `bandwidth_gbps` — the pacing term without the flight latency. A cube
/// fanning one payload out to `m` peers over its single SerDes port pays
/// this `m - 1` extra times before the last copy even departs.
#[must_use]
pub fn link_serialization_cycles(bytes: u64, bandwidth_gbps: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let cycles_per_ns = REF_CLOCK_HZ / 1e9;
    (bytes as f64 * cycles_per_ns / bandwidth_gbps).ceil() as u64
}

/// Composes per-stage envelopes and link charges into the whole-pipeline
/// envelope of one inference: stages serialize (a stage cannot start
/// before its predecessor's payload lands), links charge
/// [`link_transfer_cycles`]-exact cycles, and each of the `handoffs`
/// cube-to-cube boundaries may add up to [`LINK_HANDOFF_SLACK_CYCLES`]
/// of ingest bookkeeping on the upper edge only.
#[must_use]
pub fn pipeline_envelope(
    stages: &[CycleEnvelope],
    link_cycles: u64,
    handoffs: u64,
) -> CycleEnvelope {
    CycleEnvelope {
        lower: stages.iter().map(|s| s.lower).sum::<u64>() + link_cycles,
        upper: stages.iter().map(|s| s.upper).sum::<u64>()
            + link_cycles
            + handoffs * LINK_HANDOFF_SLACK_CYCLES,
    }
}

/// A compile-time plan for one graph: the cost model's verdict on the
/// two mapping modes the compiler can choose between.
#[derive(Clone, Debug)]
pub struct GraphPlan {
    /// Per-phase bounds with input duplication on.
    pub duplicated: Vec<LayerBound>,
    /// Per-phase bounds with partitioned (non-duplicated) inputs.
    pub partitioned: Vec<LayerBound>,
    /// Σ lower bounds of the duplicated mapping (phases serialize on the
    /// cube, so the sum composes along the DAG schedule).
    pub duplicated_cycles: u64,
    /// Σ lower bounds of the partitioned mapping.
    pub partitioned_cycles: u64,
}

impl GraphPlan {
    /// `true` when the cost model predicts the duplicated mapping is at
    /// least as fast (the paper's default trade: memory for locality).
    pub fn prefer_duplicate(&self) -> bool {
        self.duplicated_cycles <= self.partitioned_cycles
    }
}

/// Plans a graph under both mapping modes — the compiler's cost model as
/// a planning tool: lower-bound totals for duplicate-on and duplicate-off
/// placements of the same DAG.
///
/// # Panics
///
/// Panics if the graph cannot be compiled in either mode.
pub fn plan_graph(cfg: &SystemConfig, graph: &GraphSpec) -> GraphPlan {
    let mut dup_cfg = cfg.clone();
    dup_cfg.duplicate = true;
    let mut part_cfg = cfg.clone();
    part_cfg.duplicate = false;
    let duplicated = graph_bounds(&dup_cfg, graph);
    let partitioned = graph_bounds(&part_cfg, graph);
    let duplicated_cycles = duplicated.iter().map(LayerBound::lower).sum();
    let partitioned_cycles = partitioned.iter().map(LayerBound::lower).sum();
    GraphPlan {
        duplicated,
        partitioned,
        duplicated_cycles,
        partitioned_cycles,
    }
}

/// A [`LayerProgram`]-level summary used by tests and docs: the exact
/// number of operand packets the schedule will emit for one layer
/// (the conservation property the packet-serialization term relies on).
pub fn operand_packets(prog: &LayerProgram) -> u64 {
    let vaults = prog.mapping.vaults() as u8;
    let conns = u64::from(prog.conns());
    if prog.is_fc() {
        (0..vaults)
            .map(|p| conns * (prog.out_vol.assigned_count(p) + prog.groups_of(p)))
            .sum()
    } else {
        (0..vaults)
            .map(|p| conns * prog.out_vol.assigned_count(p))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;
    use neurocube_nn::{LayerSpec, NetworkSpec, Shape};

    /// A conv → pool → FC chain as its graph.
    fn small_net() -> GraphSpec {
        NetworkSpec::new(
            Shape::new(1, 12, 12),
            vec![
                LayerSpec::conv(2, 3, Activation::Tanh),
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::fc(8, Activation::Sigmoid),
            ],
        )
        .unwrap()
        .to_graph()
    }

    #[test]
    fn channel_stream_cycles_counts_bursts() {
        let ch = ChannelConfig::hmc_int(); // 1 cycle/word, bursts of 8, gap 2
        assert_eq!(channel_stream_cycles(&ch, 0), 0);
        assert_eq!(channel_stream_cycles(&ch, 8), 8); // trailing gap free
        assert_eq!(channel_stream_cycles(&ch, 9), 9 + 2);
        assert_eq!(channel_stream_cycles(&ch, 16), 16 + 2);
        assert_eq!(channel_stream_cycles(&ch, 17), 17 + 4);
        // DDR3: 25/8 cycles per 64-bit word, no gap.
        let ddr = ChannelConfig::ddr3();
        assert_eq!(channel_stream_cycles(&ddr, 8), 25);
    }

    #[test]
    fn bounds_have_positive_terms() {
        let cfg = SystemConfig::paper(true);
        let net = small_net();
        let bounds = graph_bounds(&cfg, &net);
        assert_eq!(bounds.len(), 3);
        for b in &bounds {
            assert!(b.mac_cycles > 0, "{b:?}");
            assert!(b.pe_packet_cycles >= b.mac_cycles, "{b:?}");
            assert!(b.port_cycles > 0, "{b:?}");
            assert!(b.dram_cycles > 0, "{b:?}");
            assert_eq!(b.programming_cycles, 0);
            assert!(b.lower() >= b.pe_packet_cycles);
        }
    }

    #[test]
    fn programming_model_adds_cycles() {
        let mut cfg = SystemConfig::paper(true);
        let without = graph_bounds(&cfg, &small_net());
        cfg.programming = Some(neurocube::ProgrammingModel::typical());
        let with = graph_bounds(&cfg, &small_net());
        let charge = cfg.programming.unwrap().layer_cycles(16);
        assert!(charge > 0);
        for (k, (a, b)) in without.iter().zip(&with).enumerate() {
            let expected = if k == 0 { charge } else { 0 };
            assert_eq!(b.programming_cycles, expected, "phase {k}");
            assert_eq!(b.lower(), a.lower() + expected);
        }
    }

    #[test]
    fn check_flags_both_sides_of_the_envelope() {
        let cfg = SystemConfig::paper(true);
        let bounds = graph_bounds(&cfg, &small_net());
        let b = &bounds[0];
        let lower = b.lower();
        assert!(b.check(lower, 4.0).is_ok());
        assert!(b.check(4 * lower + FIXED_OVERHEAD_CYCLES, 4.0).is_ok());
        let too_fast = b.check(lower - 1, 4.0).unwrap_err();
        assert_eq!(too_fast.layer_index, 0);
        assert!(too_fast.to_string().contains("outside analytical envelope"));
        assert!(b.check(4 * lower + FIXED_OVERHEAD_CYCLES + 1, 4.0).is_err());
    }

    #[test]
    fn dropped_tccd_gap_shrinks_the_dram_term() {
        // The defect-injection scenario: a channel that forgets the
        // inter-burst gap finishes streams faster than the correct
        // analytical model allows, so bounds computed from the correct
        // config catch it.
        let correct = ChannelConfig::hmc_int();
        let mut defective = correct;
        defective.inter_burst_gap = 0;
        for words in [9u64, 64, 1000] {
            assert!(
                channel_stream_cycles(&defective, words) < channel_stream_cycles(&correct, words),
                "gap must cost cycles at {words} words"
            );
        }
    }

    #[test]
    fn graph_bounds_charge_programming_once() {
        let graph = neurocube_nn::workloads::residual_toy();
        let mut cfg = SystemConfig::paper(true);
        cfg.programming = Some(neurocube::ProgrammingModel::typical());
        let bounds = graph_bounds(&cfg, &graph);
        assert_eq!(bounds.len(), 5, "five executable phases");
        assert!(bounds[0].programming_cycles > 0, "phase 0 pays the host");
        for b in &bounds[1..] {
            assert_eq!(
                b.programming_cycles, 0,
                "later phases are sequencer hand-offs, not host round-trips"
            );
            assert!(b.mac_cycles > 0);
        }
        // Node labels follow the compile schedule, one per Layer node.
        let labels: Vec<usize> = bounds.iter().map(|b| b.layer_index).collect();
        assert_eq!(labels, graph.exec_nodes());
    }

    #[test]
    fn plan_graph_compares_both_mappings() {
        let graph = neurocube_nn::workloads::concat_toy();
        let plan = plan_graph(&SystemConfig::paper(true), &graph);
        assert_eq!(plan.duplicated.len(), plan.partitioned.len());
        assert!(plan.duplicated_cycles > 0);
        assert!(plan.partitioned_cycles > 0);
        assert_eq!(
            plan.prefer_duplicate(),
            plan.duplicated_cycles <= plan.partitioned_cycles
        );
    }

    #[test]
    fn graph_service_envelope_sums_phase_bounds_and_flags_both_edges() {
        let cfg = SystemConfig::paper(true);
        let net = small_net();
        let bounds = graph_bounds(&cfg, &net);
        let env = graph_service_envelope(&cfg, &net, 4.0);
        let lower: u64 = bounds.iter().map(LayerBound::lower).sum();
        let upper: u64 = bounds
            .iter()
            .map(|b| 4 * b.lower() + FIXED_OVERHEAD_CYCLES)
            .sum();
        assert_eq!(env, CycleEnvelope { lower, upper });
        assert!(env.contains(lower) && env.contains(upper));
        assert!(!env.contains(lower - 1) && !env.contains(upper + 1));
        let v = env.check(upper + 1).unwrap_err();
        assert_eq!(v.cycles, upper + 1);
        assert!(v.to_string().contains("outside certified service envelope"));
        // Any per-layer measurement inside its own envelope sums into
        // this interval; the profiled total must therefore sit inside.
        assert!(env.check(lower + (upper - lower) / 2).is_ok());
    }

    #[test]
    fn exact_envelopes_admit_one_value() {
        let env = CycleEnvelope::exact(500);
        assert!(env.contains(500));
        assert!(!env.contains(499) && !env.contains(501));
    }

    #[test]
    fn graph_service_envelope_spans_the_pipelined_phases() {
        let graph = neurocube_nn::workloads::residual_toy();
        let cfg = SystemConfig::paper(true);
        let env = graph_service_envelope(&cfg, &graph, DEFAULT_SLACK);
        let bounds = graph_bounds(&cfg, &graph);
        assert_eq!(env.lower, bounds.iter().map(LayerBound::lower).sum::<u64>());
        assert!(env.upper > env.lower);
    }

    #[test]
    fn link_transfer_cycles_charges_pacing_plus_latency() {
        // 40 GB/s at a 5 GHz clock = 8 bytes/cycle; 100 ns = 500 cycles.
        assert_eq!(link_transfer_cycles(0, 1, 40.0, 100.0), 0);
        assert_eq!(link_transfer_cycles(8, 1, 40.0, 100.0), 501);
        assert_eq!(link_transfer_cycles(8000, 1, 40.0, 100.0), 1500);
        assert_eq!(link_transfer_cycles(8000, 2, 40.0, 100.0), 2000);
        // Serialization alone drops the flight latency.
        assert_eq!(link_serialization_cycles(8000, 40.0), 1000);
        assert_eq!(link_serialization_cycles(0, 40.0), 0);
        // Monotone in bytes and hops.
        assert!(
            link_transfer_cycles(16000, 1, 40.0, 100.0)
                > link_transfer_cycles(8000, 1, 40.0, 100.0)
        );
        assert!(
            link_transfer_cycles(8000, 3, 40.0, 100.0) > link_transfer_cycles(8000, 2, 40.0, 100.0)
        );
    }

    #[test]
    fn pipeline_envelope_serializes_stages_and_links() {
        let a = CycleEnvelope {
            lower: 100,
            upper: 500,
        };
        let b = CycleEnvelope {
            lower: 30,
            upper: 90,
        };
        let env = pipeline_envelope(&[a, b], 250, 1);
        assert_eq!(env.lower, 100 + 30 + 250);
        assert_eq!(env.upper, 500 + 90 + 250 + LINK_HANDOFF_SLACK_CYCLES);
        // Degenerate single-stage pipeline with no links reduces to the
        // stage envelope.
        assert_eq!(pipeline_envelope(&[a], 0, 0), a);
    }

    #[test]
    fn operand_packet_conservation_for_conv() {
        // Conv layers deliver exactly one State packet per MAC operand.
        let cfg = SystemConfig::paper(true);
        let net = small_net();
        let prog = compile_graph(&net, cfg.mapping(), &cfg.memory.address_map()).unwrap();
        assert_eq!(operand_packets(&prog.phases[0]), net.macs_per_node()[0]);
    }
}
