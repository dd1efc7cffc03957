//! The processing element proper: MAC array + temporal buffer + sequencing.
//!
//! The per-cycle hot state is kept in struct-of-arrays form: the temporal
//! buffer is a pair of packed `i16` lane arrays with fill bitmasks (one bit
//! per MAC) instead of `Vec<Option<Q88>>`, and the MAC accumulators are
//! flat `i32`/`i16` lane banks fed by the branch-free batch kernels in
//! `neurocube_fixed::lanes`. There is one fire path: gather the active
//! lanes into two scratch rows (broadcasting a `Local` weight or `Shared`
//! state), apply any transient-fault upsets as a sparse lane-ascending
//! pass over the state row, and accumulate all lanes in one kernel call.
//! The kernels are pinned bit-for-bit against the scalar
//! [`MacUnit`](neurocube_fixed::MacUnit) — the functional executor's
//! arithmetic — by the lane-boundary proptests and `bit_exactness.rs`.
//!
//! **Sparsity.** Every fire classifies its gathered operand lanes: a lane
//! whose weight or state operand is exactly `0` contributes nothing to its
//! accumulator in either `Q1.7.8` width (`0·x = 0`, and adding `0` is the
//! identity under both wrapping and saturating accumulation), so a
//! gated-update MAC array could clock-gate it. The PE counts those lanes
//! (`lanes_gated`) from the post-upset operands — what the multiplier
//! sees. The count only observes: every lane still issues and is timed.

use crate::cache::PacketCache;
use crate::config::{PeLayerConfig, StateMode, WeightMode};
use neurocube_fault::{FaultConfig, PeFaultCounts, PeFaults};
use neurocube_fixed::{
    accumulate_narrow_lanes, accumulate_wide_lanes, wide_result_bits, AccumulatorWidth, Q88,
};
use neurocube_noc::{NodeId, Packet, PacketKind};
use neurocube_sim::{ScopedStats, StatSource};
use std::collections::VecDeque;

/// Lifetime/layer counters exposed by a PE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeStats {
    /// MAC operations performed (one multiply-accumulate each).
    pub mac_ops: u64,
    /// Temporal-buffer firings (operations completed).
    pub ops_fired: u64,
    /// Neuron groups completed (MAC-array result sets written back).
    pub groups_done: u64,
    /// Cycles the MAC array sat ready but starved of operands.
    pub starved_cycles: u64,
    /// Result packets emitted.
    pub results_emitted: u64,
    /// Packets that had to be parked in the SRAM cache.
    pub cached_packets: u64,
    /// MAC lane-cycles whose weight or state operand was exactly zero —
    /// the lanes a gated-update MAC array would have clock-gated. Always
    /// counted; a subset of `mac_ops`, which keeps charging the full
    /// architectural op count.
    pub lanes_gated: u64,
}

/// One Neurocube processing element.
///
/// Drive with [`try_accept`](ProcessingElement::try_accept) for every packet
/// the NoC delivers (refusal = backpressure: leave the packet in the router
/// buffer) and [`tick`](ProcessingElement::tick) once per reference cycle;
/// drain write-backs through [`peek_result`](ProcessingElement::peek_result)
/// / [`pop_result`](ProcessingElement::pop_result).
#[derive(Clone, Debug)]
pub struct ProcessingElement {
    node: NodeId,
    accumulator: AccumulatorWidth,
    cache_entries: usize,
    cfg: Option<PeLayerConfig>,
    local_weights: Vec<Q88>,
    cache: PacketCache,
    /// Temporal-buffer lanes: raw `Q1.7.8` bits, one per MAC, with fill
    /// bitmasks (bit `m` set ⟺ lane `m`'s slot holds an operand).
    state_bits: Vec<i16>,
    weight_bits: Vec<i16>,
    state_mask: u64,
    weight_mask: u64,
    shared_state: Option<Q88>,
    /// MAC accumulator banks (one of the two is live, by configured
    /// [`AccumulatorWidth`]).
    acc_wide: Vec<i32>,
    acc_narrow: Vec<i16>,
    /// Gather rows reused by every firing (keeps the fire path
    /// allocation-free).
    w_lanes: Vec<i16>,
    x_lanes: Vec<i16>,
    hits_scratch: Vec<Packet>,
    group: u64,
    op: u32,
    /// Cumulative operation counter (`group * conns + op`, maintained
    /// incrementally): `progress()` and the expected OP-ID (`as u8`) in
    /// one register.
    global_op: u64,
    next_fire_at: u64,
    results: VecDeque<Packet>,
    done: bool,
    stats: PeStats,
    /// Optional transient-MAC-fault lens. MAC faults strike only fires
    /// that were about to happen, so no event-horizon clamping is needed.
    faults: Option<PeFaults>,
    /// In lenient mode malformed packets become counted drops instead of
    /// panics; fault-free runs keep `debug_assert!` teeth.
    lenient: bool,
    /// Drops counted by the PE itself, visible even without a lens.
    drop_counts: PeFaultCounts,
    /// One-shot flag: the first dropped packet emits a rich diagnostic.
    diagnosed_drop: bool,
}

impl ProcessingElement {
    /// Creates an unconfigured PE at mesh node `node` with the paper's
    /// 64-entry cache sub-banks.
    pub fn new(node: NodeId, accumulator: AccumulatorWidth) -> ProcessingElement {
        ProcessingElement::with_cache(node, accumulator, crate::cache::SUB_BANK_ENTRIES)
    }

    /// Creates an unconfigured PE with explicit cache sub-bank capacity
    /// (the sizing ablation).
    pub fn with_cache(
        node: NodeId,
        accumulator: AccumulatorWidth,
        cache_entries: usize,
    ) -> ProcessingElement {
        ProcessingElement {
            node,
            accumulator,
            cache_entries,
            cfg: None,
            local_weights: Vec::new(),
            cache: PacketCache::with_capacity(cache_entries),
            state_bits: Vec::new(),
            weight_bits: Vec::new(),
            state_mask: 0,
            weight_mask: 0,
            shared_state: None,
            acc_wide: Vec::new(),
            acc_narrow: Vec::new(),
            w_lanes: Vec::new(),
            x_lanes: Vec::new(),
            hits_scratch: Vec::new(),
            group: 0,
            op: 0,
            global_op: 0,
            next_fire_at: 0,
            results: VecDeque::new(),
            done: true,
            stats: PeStats::default(),
            faults: None,
            lenient: false,
            drop_counts: PeFaultCounts::default(),
            diagnosed_drop: false,
        }
    }

    /// The mesh node this PE sits at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Attaches (or detaches) the transient-MAC-fault lens. Attaching also
    /// switches the PE to lenient packet handling.
    pub fn set_faults(&mut self, cfg: Option<&FaultConfig>) {
        self.faults = cfg.map(|c| PeFaults::new(c, u16::from(self.node)));
        if self.faults.is_some() {
            self.lenient = true;
        }
    }

    /// Switches malformed-packet handling between panicking (strict, the
    /// default) and counted drops (lenient).
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Aggregated fault counters: lens-injected MAC faults plus the PE's
    /// own dropped-packet counts.
    pub fn fault_counts(&self) -> PeFaultCounts {
        let mut c = self.drop_counts;
        if let Some(f) = &self.faults {
            c.merge(&f.counts);
        }
        c
    }

    /// Loads a layer configuration and (for [`WeightMode::Local`]) the
    /// duplicated weight memory image, resetting all sequencing state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent, `weights` is smaller
    /// than the configured weight memory footprint, or `n_mac` exceeds the
    /// 64 lanes the fill bitmasks carry.
    pub fn configure(&mut self, cfg: PeLayerConfig, weights: Vec<Q88>) {
        cfg.validate();
        assert!(cfg.n_mac <= 64, "lane bitmasks carry at most 64 MACs");
        if let WeightMode::Local {
            weights_per_neuron,
            rows,
        } = cfg.weights
        {
            assert!(
                weights.len() >= (weights_per_neuron * rows) as usize,
                "weight memory image too small"
            );
        }
        let n = cfg.n_mac as usize;
        self.local_weights = weights;
        self.cache = PacketCache::with_capacity(self.cache_entries);
        self.state_bits = vec![0; n];
        self.weight_bits = vec![0; n];
        self.state_mask = 0;
        self.weight_mask = 0;
        self.shared_state = None;
        self.acc_wide = vec![0; n];
        self.acc_narrow = vec![0; n];
        self.w_lanes = vec![0; n];
        self.x_lanes = vec![0; n];
        self.group = 0;
        self.op = 0;
        self.global_op = 0;
        self.next_fire_at = 0;
        self.results.clear();
        self.done = false;
        self.cfg = Some(cfg);
    }

    /// `true` once every configured neuron group has been computed *and*
    /// all result packets have been drained.
    pub fn layer_done(&self) -> bool {
        self.done && self.results.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> &PeStats {
        &self.stats
    }

    /// Peak cache occupancy (SRAM sizing statistic).
    pub fn cache_high_water(&self) -> usize {
        self.cache.high_water()
    }

    /// Deadlock diagnostics: `(group, op, filled-state-slot bitmap,
    /// filled-weight-slot bitmap, shared-state present, cache occupancy)`.
    pub fn debug_position(&self) -> (u64, u32, u32, u32, bool, usize) {
        (
            self.group,
            self.op,
            self.state_mask as u32,
            self.weight_mask as u32,
            self.shared_state.is_some(),
            self.cache.occupancy(),
        )
    }

    /// The PE's cumulative operation counter — the number of operations it
    /// has completed this layer, `u64::MAX` when unconfigured or done (no
    /// flow-control gating applies). This is the credit value the PNGs'
    /// run-ahead window compares against.
    #[inline]
    pub fn progress(&self) -> u64 {
        if self.cfg.is_some() && !self.done {
            self.global_op
        } else {
            u64::MAX
        }
    }

    /// The OP-ID expected by the current operation: the cumulative
    /// operation counter modulo 256, matching the PNG's stamping.
    #[inline]
    fn current_op_id(&self) -> u8 {
        self.global_op as u8
    }

    fn slot_fill(&mut self, pkt: Packet) -> bool {
        let mac = usize::from(pkt.mac_id);
        match pkt.kind {
            PacketKind::State => {
                let bit = 1u64 << mac;
                if self.state_mask & bit == 0 {
                    self.state_bits[mac] = pkt.data as i16;
                    self.state_mask |= bit;
                    return true;
                }
            }
            PacketKind::SharedState => {
                if self.shared_state.is_none() {
                    self.shared_state = Some(Q88::from_bits(pkt.data as i16));
                    return true;
                }
            }
            PacketKind::Weight => {
                let bit = 1u64 << mac;
                if self.weight_mask & bit == 0 {
                    self.weight_bits[mac] = pkt.data as i16;
                    self.weight_mask |= bit;
                    return true;
                }
            }
            // Result packets are intercepted (dropped or asserted on) in
            // `try_accept` and never cached, so none can reach here.
            PacketKind::Result => {
                debug_assert!(false, "Result packet reached slot_fill");
                return false;
            }
        }
        false
    }

    /// Graceful-degradation path for a packet this PE cannot meaningfully
    /// process: count it, emit one rich diagnostic per PE, and report it
    /// consumed (returning `false` would leave it queued in the router
    /// forever, wedging the fabric).
    fn drop_packet(&mut self, pkt: Packet, why: &str) -> bool {
        self.drop_counts.dropped_packets += 1;
        if !self.diagnosed_drop {
            self.diagnosed_drop = true;
            eprintln!(
                "neurocube-pe: PE {} dropping packet at group {} op {}: {why} \
                 ({pkt:?}); counted under fault.pe.dropped_packets, further \
                 drops are silent",
                self.node, self.group, self.op,
            );
        }
        true
    }

    /// Offers a packet delivered by the NoC. Returns `false` when the packet
    /// cannot be accepted this cycle (temporal-buffer slot busy *and* its
    /// cache sub-bank full) — the caller must leave it queued in the router.
    ///
    /// A packet the PE cannot meaningfully process (unconfigured or finished
    /// PE, out-of-range MAC-ID, a misdelivered `Result`) is a counted drop
    /// in lenient mode (see [`set_lenient`](Self::set_lenient)).
    ///
    /// # Panics
    ///
    /// In strict debug builds, panics if the PE is unconfigured, already
    /// done, or the packet names a MAC outside the configured array.
    pub fn try_accept(&mut self, pkt: Packet) -> bool {
        let Some(cfg) = self.cfg else {
            debug_assert!(self.lenient, "PE {} not configured", self.node);
            return self.drop_packet(pkt, "PE not configured");
        };
        if self.done {
            debug_assert!(self.lenient, "packet for a finished layer");
            return self.drop_packet(pkt, "layer already finished");
        }
        if u32::from(pkt.mac_id) >= cfg.n_mac {
            debug_assert!(self.lenient, "MAC-ID {} out of range", pkt.mac_id);
            return self.drop_packet(pkt, "MAC-ID out of range");
        }
        if pkt.kind == PacketKind::Result {
            debug_assert!(self.lenient, "PEs never receive Result packets");
            return self.drop_packet(pkt, "Result packet delivered to a PE");
        }
        if pkt.op_id == self.current_op_id() && self.slot_fill(pkt) {
            return true;
        }
        // Ahead of the counter (or an aliased duplicate): park in SRAM.
        if self.cache.try_insert(pkt) {
            self.stats.cached_packets += 1;
            true
        } else {
            false
        }
    }

    #[inline]
    fn buffer_complete(&self, cfg: &PeLayerConfig, active: u32) -> bool {
        let need = lane_mask(active);
        let states_ok = match cfg.states {
            StateMode::PerMac => self.state_mask & need == need,
            StateMode::Shared => self.shared_state.is_some(),
        };
        let weights_ok = match cfg.weights {
            WeightMode::Local { .. } => true,
            WeightMode::Stream => self.weight_mask & need == need,
        };
        states_ok && weights_ok
    }

    /// Gathers this firing's weight and state operands into the scratch
    /// lane rows and applies any transient-fault upsets to the state row,
    /// lane-ascending (the lens-call order `fault` determinism is keyed on).
    fn gather_lanes(&mut self, cfg: &PeLayerConfig, active: usize, now: u64) {
        match cfg.weights {
            WeightMode::Local {
                weights_per_neuron, ..
            } => {
                let row = cfg.weight_row(self.group);
                let w = self.local_weights[(row * weights_per_neuron + self.op) as usize].to_bits();
                self.w_lanes[..active].fill(w);
            }
            WeightMode::Stream => {
                self.w_lanes[..active].copy_from_slice(&self.weight_bits[..active]);
            }
        }
        match cfg.states {
            StateMode::PerMac => {
                self.x_lanes[..active].copy_from_slice(&self.state_bits[..active]);
            }
            StateMode::Shared => {
                let x = self.shared_state.expect("checked complete").to_bits();
                self.x_lanes[..active].fill(x);
            }
        }
        // Transient MAC faults: a single-event upset flips one bit of the
        // state operand as it enters a lane's multiplier. Sparse pass over
        // the gathered row, lens consulted once per lane in fire order.
        if let Some(lens) = &mut self.faults {
            for (m, x) in self.x_lanes[..active].iter_mut().enumerate() {
                if let Some(bit) = lens.mac_upset(now, m as u64) {
                    *x ^= 1 << bit;
                }
            }
        }
    }

    /// Advances one reference cycle: fires the MAC array if the temporal
    /// buffer is complete and the array is free, emitting write-back packets
    /// when a neuron group finishes.
    pub fn tick(&mut self, now: u64) {
        let Some(cfg) = self.cfg else { return };
        if self.done || now < self.next_fire_at {
            return;
        }
        let active = cfg.active_macs(self.group);
        if !self.buffer_complete(&cfg, active) {
            self.stats.starved_cycles += 1;
            return;
        }

        // Fire: one multiply-accumulate per active MAC, all lanes in one
        // batch pass. The zero-operand lanes (the gated-update model) are
        // classified from the post-upset operands — an upset can turn a
        // zero state nonzero, and the model must see what the multiplier
        // sees.
        let active = active as usize;
        self.gather_lanes(&cfg, active, now);
        let (w, x) = (&self.w_lanes[..active], &self.x_lanes[..active]);
        let gated = w.iter().zip(x).filter(|&(&w, &x)| w == 0 || x == 0).count();
        self.stats.lanes_gated += gated as u64;
        match self.accumulator {
            AccumulatorWidth::Wide32 => accumulate_wide_lanes(&mut self.acc_wide[..active], w, x),
            AccumulatorWidth::Narrow16 => {
                accumulate_narrow_lanes(&mut self.acc_narrow[..active], w, x);
            }
        }
        self.shared_state = None;
        self.state_mask = 0;
        self.weight_mask = 0;
        self.stats.mac_ops += active as u64;
        self.stats.ops_fired += 1;
        self.op += 1;
        self.global_op += 1;

        if self.op == cfg.conns_per_neuron {
            // Neuron group complete: write back one result per active MAC.
            for m in 0..active {
                let bits = match self.accumulator {
                    AccumulatorWidth::Wide32 => wide_result_bits(self.acc_wide[m]),
                    AccumulatorWidth::Narrow16 => self.acc_narrow[m],
                };
                self.results.push_back(Packet {
                    dst: self.node,
                    src: self.node,
                    mac_id: m as u8,
                    op_id: (self.group % 256) as u8,
                    kind: PacketKind::Result,
                    data: bits as u16,
                });
                self.stats.results_emitted += 1;
            }
            self.acc_wide.fill(0);
            self.acc_narrow.fill(0);
            self.stats.groups_done += 1;
            self.op = 0;
            self.group += 1;
            if self.group == cfg.total_groups() {
                self.done = true;
                return;
            }
        }

        // Pull any parked packets for the new current operation; the full
        // sub-bank search overlaps the MAC array's n_mac-cycle latency.
        let mut hits = std::mem::take(&mut self.hits_scratch);
        hits.clear();
        let search_cost = self
            .cache
            .take_matching_into(self.current_op_id(), &mut hits);
        for &pkt in &hits {
            let filled = self.slot_fill(pkt);
            assert!(
                filled,
                "PE {}: cached packet {pkt:?} collided with a filled slot at group {} op {}",
                self.node, self.group, self.op
            );
        }
        self.hits_scratch = hits;
        self.next_fire_at = now + u64::from(cfg.n_mac).max(search_cost);
    }

    /// The earliest future cycle at which [`tick`](Self::tick) could do
    /// anything beyond its per-cycle starvation accounting (which
    /// [`skip`](Self::skip) reproduces in bulk).
    ///
    /// `None` means "tick me this cycle" (the MAC array would fire).
    /// `Some(next_fire_at)` while the array drains its latency;
    /// `Some(u64::MAX)` when unconfigured, done, or starved — in each of
    /// those states only external input (configuration or an operand
    /// delivery) can wake the PE.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let Some(cfg) = &self.cfg else {
            return Some(u64::MAX);
        };
        if self.done {
            return Some(u64::MAX);
        }
        if now < self.next_fire_at {
            return Some(self.next_fire_at);
        }
        if self.buffer_complete(cfg, cfg.active_macs(self.group)) {
            None
        } else {
            Some(u64::MAX)
        }
    }

    /// Bulk-charges the null ticks in `[from, to)`, a range this PE
    /// declared quiescent via [`next_event`](Self::next_event): a starved
    /// PE charges one starved cycle per tick; every other quiescent state
    /// ticks to no effect at all.
    pub fn skip(&mut self, from: u64, to: u64) {
        let Some(cfg) = self.cfg else { return };
        if self.done || from < self.next_fire_at {
            return;
        }
        debug_assert!(
            !self.buffer_complete(&cfg, cfg.active_macs(self.group)),
            "skipped over a fireable PE"
        );
        self.stats.starved_cycles += to - from;
    }

    /// The next write-back packet waiting to enter the NoC, if any.
    pub fn peek_result(&self) -> Option<&Packet> {
        self.results.front()
    }

    /// Removes the packet returned by [`peek_result`](Self::peek_result)
    /// after a successful NoC injection.
    pub fn pop_result(&mut self) -> Option<Packet> {
        self.results.pop_front()
    }
}

/// Mask with the low `active` lane bits set.
#[inline]
fn lane_mask(active: u32) -> u64 {
    debug_assert!(active <= 64);
    if active >= 64 {
        u64::MAX
    } else {
        (1u64 << active) - 1
    }
}

impl StatSource for ProcessingElement {
    fn report(&self, stats: &mut ScopedStats<'_>) {
        stats.counter("mac_ops", self.stats.mac_ops);
        stats.counter("ops_fired", self.stats.ops_fired);
        stats.counter("groups_done", self.stats.groups_done);
        stats.counter("starved_cycles", self.stats.starved_cycles);
        stats.counter("results_emitted", self.stats.results_emitted);
        stats.counter("cached_packets", self.stats.cached_packets);
        stats.counter("lanes_gated", self.stats.lanes_gated);
        stats.gauge("cache_high_water", self.cache_high_water() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u32 = 16;

    fn conv_cfg(neurons_per_map: u64, maps: u32, conns: u32) -> PeLayerConfig {
        PeLayerConfig {
            n_mac: N,
            conns_per_neuron: conns,
            neurons_per_map,
            maps,
            states: StateMode::PerMac,
            weights: WeightMode::Local {
                weights_per_neuron: conns,
                rows: maps,
            },
        }
    }

    fn state(mac: u8, op: u8, v: f64) -> Packet {
        Packet {
            dst: 0,
            src: 0,
            mac_id: mac,
            op_id: op,
            kind: PacketKind::State,
            data: Q88::from_f64(v).to_bits() as u16,
        }
    }

    /// Feeds packets and ticks until the layer is done; returns results.
    fn run_to_completion(
        pe: &mut ProcessingElement,
        mut packets: Vec<Packet>,
        deadline: u64,
    ) -> Vec<Packet> {
        packets.reverse(); // pop from the back = original order
        let mut out = Vec::new();
        let mut now = 0u64;
        while !pe.layer_done() {
            // Up to one packet per cycle, like the NoC PE port.
            if let Some(&pkt) = packets.last() {
                if pe.try_accept(pkt) {
                    packets.pop();
                }
            }
            pe.tick(now);
            if let Some(p) = pe.pop_result() {
                out.push(p);
            }
            now += 1;
            assert!(now < deadline, "PE hung at group {}", pe.group);
        }
        out
    }

    #[test]
    fn single_group_dot_product() {
        let mut pe = ProcessingElement::new(3, AccumulatorWidth::Wide32);
        // 16 neurons, 2 connections, weights [0.5, 2.0].
        pe.configure(
            conv_cfg(16, 1, 2),
            vec![Q88::from_f64(0.5), Q88::from_f64(2.0)],
        );
        let mut pkts = Vec::new();
        for op in 0..2u8 {
            for mac in 0..16u8 {
                pkts.push(state(mac, op, f64::from(mac)));
            }
        }
        let results = run_to_completion(&mut pe, pkts, 10_000);
        assert_eq!(results.len(), 16);
        for (m, r) in results.iter().enumerate() {
            assert_eq!(r.kind, PacketKind::Result);
            assert_eq!(r.dst, 3);
            assert_eq!(usize::from(r.mac_id), m);
            // y = 0.5*m + 2.0*m = 2.5*m
            assert_eq!(
                Q88::from_bits(r.data as i16).to_f64(),
                2.5 * m as f64,
                "mac {m}"
            );
        }
        assert_eq!(pe.stats().mac_ops, 32);
        assert_eq!(pe.stats().groups_done, 1);
    }

    #[test]
    fn out_of_order_packets_go_through_cache() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        pe.configure(conv_cfg(16, 1, 2), vec![Q88::ONE, Q88::ONE]);
        // Deliver op 1 packets before op 0 packets.
        let mut pkts = Vec::new();
        for mac in 0..16u8 {
            pkts.push(state(mac, 1, 1.0));
        }
        for mac in 0..16u8 {
            pkts.push(state(mac, 0, 2.0));
        }
        let results = run_to_completion(&mut pe, pkts, 10_000);
        assert_eq!(results.len(), 16);
        for r in &results {
            assert_eq!(Q88::from_bits(r.data as i16).to_f64(), 3.0);
        }
        assert!(pe.stats().cached_packets >= 16);
        assert!(pe.cache_high_water() >= 16);
    }

    #[test]
    fn fc_dataflow_shared_state_streamed_weights() {
        let mut pe = ProcessingElement::new(7, AccumulatorWidth::Wide32);
        pe.configure(
            PeLayerConfig {
                n_mac: N,
                conns_per_neuron: 3,
                neurons_per_map: 16,
                maps: 1,
                states: StateMode::Shared,
                weights: WeightMode::Stream,
            },
            Vec::new(),
        );
        let mut pkts = Vec::new();
        for op in 0..3u8 {
            pkts.push(Packet {
                dst: 7,
                src: 7,
                mac_id: 0,
                op_id: op,
                kind: PacketKind::SharedState,
                data: Q88::from_f64(2.0).to_bits() as u16,
            });
            for mac in 0..16u8 {
                pkts.push(Packet {
                    dst: 7,
                    src: 7,
                    mac_id: mac,
                    op_id: op,
                    kind: PacketKind::Weight,
                    data: Q88::from_f64(f64::from(mac) / 4.0).to_bits() as u16,
                });
            }
        }
        let results = run_to_completion(&mut pe, pkts, 10_000);
        assert_eq!(results.len(), 16);
        for (m, r) in results.iter().enumerate() {
            // y = 3 ops * (m/4 * 2.0) = 1.5 m
            assert_eq!(
                Q88::from_bits(r.data as i16).to_f64(),
                1.5 * m as f64,
                "mac {m}"
            );
        }
    }

    #[test]
    fn partial_last_group_uses_fewer_macs() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        // 20 neurons => one full group of 16, one partial of 4. With one
        // connection per neuron, the cumulative OP-ID is the group index.
        pe.configure(conv_cfg(20, 1, 1), vec![Q88::ONE]);
        let mut pkts = Vec::new();
        for mac in 0..16u8 {
            pkts.push(state(mac, 0, 1.0));
        }
        for mac in 0..4u8 {
            pkts.push(state(mac, 1, 5.0));
        }
        let results = run_to_completion(&mut pe, pkts, 10_000);
        assert_eq!(results.len(), 20);
        assert_eq!(Q88::from_bits(results[19].data as i16).to_f64(), 5.0);
        assert_eq!(pe.stats().mac_ops, 20);
    }

    #[test]
    fn weight_rows_advance_with_output_maps() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        // 2 maps * 16 neurons, 1 connection; weight row 0 = 1.0, row 1 = -1.0.
        pe.configure(
            conv_cfg(16, 2, 1),
            vec![Q88::from_f64(1.0), Q88::from_f64(-1.0)],
        );
        let mut pkts = Vec::new();
        for map in 0..2u8 {
            for mac in 0..16u8 {
                // One connection per neuron: cumulative OP-ID = group = map.
                pkts.push(state(mac, map, 3.0));
            }
        }
        let results = run_to_completion(&mut pe, pkts, 10_000);
        assert_eq!(results.len(), 32);
        assert_eq!(Q88::from_bits(results[0].data as i16).to_f64(), 3.0);
        assert_eq!(Q88::from_bits(results[16].data as i16).to_f64(), -3.0);
    }

    #[test]
    fn mac_array_latency_is_n_mac_cycles() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        pe.configure(conv_cfg(16, 1, 2), vec![Q88::ONE, Q88::ONE]);
        // Preload both ops' packets instantly.
        for op in 0..2u8 {
            for mac in 0..16u8 {
                assert!(pe.try_accept(state(mac, op, 1.0)));
            }
        }
        // First fire at cycle 0; second fire must wait 16 cycles.
        pe.tick(0);
        assert_eq!(pe.stats().ops_fired, 1);
        for now in 1..16 {
            pe.tick(now);
            assert_eq!(pe.stats().ops_fired, 1, "fired early at {now}");
        }
        pe.tick(16);
        assert_eq!(pe.stats().ops_fired, 2);
    }

    #[test]
    fn backpressure_when_sub_bank_full() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        pe.configure(conv_cfg(16, 1, 300), vec![Q88::ONE; 300]);
        // Fill sub-bank 0 with future packets (op 16 mod 16 == 0).
        let mut accepted = 0;
        for i in 0..100u32 {
            let op = 16 + (i / 16) * 16; // ops 16, 32, 48... all bank 0
            if pe.try_accept(state((i % 16) as u8, (op % 256) as u8, 1.0)) {
                accepted += 1;
            }
        }
        assert!(accepted >= 64, "cache should take 64 entries");
        assert!(accepted < 100, "sub-bank must eventually refuse");
    }

    #[test]
    fn unconfigured_pe_is_done_and_inert() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        assert!(pe.layer_done());
        pe.tick(0); // no panic
        assert!(pe.peek_result().is_none());
    }

    // The check is a `debug_assert!`: release builds drop it by design.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not configured")]
    fn accept_requires_configuration() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        let _ = pe.try_accept(state(0, 0, 1.0));
    }

    #[test]
    fn lenient_mode_counts_drops_instead_of_panicking() {
        let mut pe = ProcessingElement::new(2, AccumulatorWidth::Wide32);
        pe.set_lenient(true);
        // Unconfigured: consumed, counted.
        assert!(pe.try_accept(state(0, 0, 1.0)));
        pe.configure(conv_cfg(16, 1, 1), vec![Q88::ONE]);
        // Out-of-range MAC and a misdelivered Result: consumed, counted.
        assert!(pe.try_accept(state(200, 0, 1.0)));
        let result = Packet {
            dst: 2,
            src: 9,
            mac_id: 0,
            op_id: 0,
            kind: PacketKind::Result,
            data: 0,
        };
        assert!(pe.try_accept(result));
        assert_eq!(pe.fault_counts().dropped_packets, 3);
        // The layer still completes normally afterwards.
        let pkts = (0..16u8).map(|mac| state(mac, 0, 1.0)).collect();
        let results = run_to_completion(&mut pe, pkts, 10_000);
        assert_eq!(results.len(), 16);
    }

    #[test]
    fn mac_faults_are_deterministic_and_perturb_results() {
        let run = |rate: f64, seed: u64| {
            let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
            let cfg = neurocube_fault::FaultConfig {
                seed,
                pe_mac_rate: rate,
                ..Default::default()
            };
            pe.set_faults(Some(&cfg));
            pe.configure(conv_cfg(16, 1, 4), vec![Q88::ONE; 4]);
            let mut pkts = Vec::new();
            for op in 0..4u8 {
                for mac in 0..16u8 {
                    pkts.push(state(mac, op, 1.0));
                }
            }
            let out: Vec<u16> = run_to_completion(&mut pe, pkts, 10_000)
                .iter()
                .map(|p| p.data)
                .collect();
            (out, pe.fault_counts())
        };
        let (clean, c0) = run(0.0, 1);
        assert_eq!(c0, PeFaultCounts::default());
        let (a, ca) = run(0.25, 1);
        let (b, cb) = run(0.25, 1);
        assert_eq!(a, b, "same seed must reproduce bitwise");
        assert_eq!(ca, cb);
        assert!(ca.mac_faults > 0, "no MAC faults fired at rate 0.25");
        assert_ne!(a, clean, "faults left every result untouched");
        let (c, _) = run(0.25, 2);
        assert_ne!(a, c, "different seeds produced identical faulty runs");
    }

    #[test]
    fn reconfigure_resets_everything() {
        let mut pe = ProcessingElement::new(0, AccumulatorWidth::Wide32);
        pe.configure(conv_cfg(16, 1, 1), vec![Q88::ONE]);
        for mac in 0..16u8 {
            assert!(pe.try_accept(state(mac, 0, 1.0)));
        }
        pe.tick(0);
        assert!(pe.pop_result().is_some());
        pe.configure(conv_cfg(16, 1, 1), vec![Q88::ONE]);
        assert!(!pe.layer_done());
        assert!(pe.peek_result().is_none());
    }
}
