//! The cycle-driven fabric.

use crate::packet::{NodeId, Packet};
use crate::router::{FlatQueues, Flit};
use crate::stats::NocStats;
use crate::topology::Topology;
use neurocube_fault::{FaultConfig, LinkFault, NocFaultCounts, NocFaults};
use neurocube_sim::{ScopedStats, StatSource};
use std::fmt;

/// No-winner sentinel for the switch-allocation scratch array.
const NO_GRANT: u16 = u16::MAX;

/// No-link sentinel in the precomputed link table.
const NO_LINK: u8 = u8::MAX;

/// `v % ports` for `v < 2 * ports`, without the integer division (`ports`
/// is a runtime value, so `%` compiles to a real `div` — measurable at
/// one-hundred-plus reductions per fabric tick).
#[inline]
fn wrap(v: usize, ports: usize) -> usize {
    if v >= ports {
        v - ports
    } else {
        v
    }
}

/// A complete NoC: one router per node, each with a PE port and a memory
/// (vault/PNG) port in addition to its router-to-router links.
///
/// All router state is struct-of-arrays: the input and output FIFOs of
/// every `(router, port)` pair live in two flat ring-buffer pools and the
/// arbiter pointers in one dense array, so the per-cycle switch-allocation
/// and link-traversal phases are passes over contiguous memory (see
/// `router.rs`).
///
/// Drive the fabric with [`tick`](Network::tick) once per reference cycle.
/// Producers inject with [`try_inject_from_mem`](Network::try_inject_from_mem)
/// / [`try_inject_from_pe`](Network::try_inject_from_pe) (returns `false`
/// on backpressure) and consumers drain with
/// [`pop_for_pe`](Network::pop_for_pe) / [`pop_for_mem`](Network::pop_for_mem).
///
/// # Examples
///
/// ```
/// use neurocube_noc::{Network, Packet, PacketKind, Topology};
///
/// let mut net = Network::new(Topology::mesh4x4());
/// let pkt = Packet { dst: 5, src: 0, mac_id: 0, op_id: 0,
///                    kind: PacketKind::State, data: 42 };
/// assert!(net.try_inject_from_mem(0, pkt, 0));
/// let mut got = None;
/// for now in 1..100 {
///     net.tick(now);
///     if let Some(p) = net.pop_for_pe(5, now) { got = Some(p); break; }
/// }
/// assert_eq!(got.unwrap().data, 42);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    topo: Topology,
    nodes: usize,
    ports: usize,
    /// Input FIFOs, queue index `router * ports + port`.
    inputs: FlatQueues,
    /// Output FIFOs, same indexing.
    outputs: FlatQueues,
    /// Rotating daisy-chain priority pointer per `(router, output port)`
    /// (§III-C: "priorities are updated every clock cycle").
    priority: Vec<u8>,
    stats: NocStats,
    pe_port: usize,
    mem_port: usize,
    /// Bit `i` set ⇔ router `i` buffers at least one flit. [`tick`] scans
    /// only set bits; everything else takes the cheap idle path.
    busy: u128,
    /// Per-router flit counts backing the `busy` mask.
    occ: Vec<u32>,
    /// Count of [`tick`](Self::tick) calls. With `seen` it drives the lazy
    /// idle-arbiter rotation: an idle router's only observable behaviour is
    /// its every-cycle `+1` pointer rotation, so instead of touching every
    /// idle router's pointers each tick, phase 1 folds the accumulated lag
    /// in (mod `ports`) when a router next holds flits.
    ticks: u64,
    /// Per-router `ticks` value at which the arbiter pointers were last
    /// brought current; `ticks - seen[n]` tick calls of pending idle
    /// rotation are outstanding (every such call found the router idle, or
    /// it would have been processed and stamped).
    seen: Vec<u64>,
    /// Scratch for phase-1 switch allocation: per output port, the winning
    /// `(rank << 8) | input` pair ([`NO_GRANT`] = no requester), where rank
    /// is the input's distance from the output's priority pointer. Reused
    /// across ticks so the critical path never allocates.
    grant: Vec<u16>,
    /// Precomputed X-Y routing decision, index `node * nodes + dst`: the
    /// output port a transiting flit takes ([`NO_LINK`] = already home,
    /// the eject port applies). The topology is immutable, so the per-tick
    /// route calls are table lookups.
    route_lut: Vec<u8>,
    /// Precomputed mesh links, index `node * mesh_ports + port`:
    /// `(neighbor, reverse_port)`, neighbor [`NO_LINK`] on mesh edges.
    links: Vec<(u8, u8)>,
    /// Optional link-fault lens. Link faults are conditioned on a flit
    /// actually traversing a link, so the fabric needs no event-horizon
    /// clamping: a busy fabric never skips, and an idle one draws nothing.
    faults: Option<NocFaults>,
    /// Drops counted by the fabric itself (unroutable destinations), kept
    /// separate from the lens so they are visible even without an injector.
    drop_counts: NocFaultCounts,
    /// What the first unroutable packet was and where it came from.
    first_drop: Option<String>,
}

/// A topology the flat-pool fabric representation cannot carry — the
/// typed form of what used to be construction-time panics, so compilers
/// and hosts can surface oversized configurations gracefully (the PR 4
/// degradation policy) instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NocError {
    /// More routers than the `u128` occupancy mask can track.
    MeshTooLarge {
        /// Routers the topology wires.
        nodes: usize,
        /// The representation's limit (128).
        max: usize,
    },
    /// More ports per router than the `u8` arbiter priority pointers can
    /// index (a fully connected fabric needs `nodes + 1` ports).
    TooManyPorts {
        /// Ports per router the topology needs.
        ports: usize,
        /// The representation's limit (255).
        max: usize,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NocError::MeshTooLarge { nodes, max } => write!(
                f,
                "topology wires {nodes} routers but the occupancy mask supports at most {max}"
            ),
            NocError::TooManyPorts { ports, max } => write!(
                f,
                "topology needs {ports} ports per router but the arbiter pointers index at most {max}"
            ),
        }
    }
}

impl std::error::Error for NocError {}

impl Network {
    /// Builds an idle fabric with the given wiring.
    ///
    /// # Panics
    ///
    /// Panics if the topology exceeds the fabric representation's limits
    /// (see [`Network::try_new`]; every Neurocube configuration is 16
    /// nodes, far inside them).
    pub fn new(topo: Topology) -> Network {
        match Network::try_new(topo) {
            Ok(net) => net,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds an idle fabric with the given wiring, or reports a typed
    /// [`NocError`] when the topology exceeds what the flat-pool
    /// representation can carry: at most 128 routers (the occupancy mask
    /// is a `u128`) and at most 255 ports per router (arbiter priority
    /// pointers are `u8`).
    ///
    /// # Errors
    ///
    /// [`NocError::TooManyPorts`] or [`NocError::MeshTooLarge`] on an
    /// oversized topology.
    pub fn try_new(topo: Topology) -> Result<Network, NocError> {
        let ports = topo.ports();
        let nodes = usize::from(topo.nodes());
        if ports >= 256 {
            return Err(NocError::TooManyPorts { ports, max: 255 });
        }
        if nodes > 128 {
            return Err(NocError::MeshTooLarge { nodes, max: 128 });
        }
        let mut route_lut = vec![NO_LINK; nodes * nodes];
        for cur in 0..nodes {
            for dst in 0..nodes {
                if let Some(port) = topo.route(cur as NodeId, dst as NodeId) {
                    route_lut[cur * nodes + dst] = port as u8;
                }
            }
        }
        let mesh = topo.mesh_ports();
        let mut links = vec![(NO_LINK, 0u8); nodes * mesh];
        for cur in 0..nodes {
            for port in 0..mesh {
                if let Some(n) = topo.neighbor(cur as NodeId, port) {
                    links[cur * mesh + port] = (n, topo.reverse_port(cur as NodeId, port) as u8);
                }
            }
        }
        Ok(Network {
            nodes,
            ports,
            inputs: FlatQueues::new(nodes * ports),
            outputs: FlatQueues::new(nodes * ports),
            priority: vec![0; nodes * ports],
            stats: NocStats::default(),
            pe_port: topo.mesh_ports(),
            mem_port: topo.mesh_ports() + 1,
            busy: 0,
            occ: vec![0; nodes],
            ticks: 0,
            seen: vec![0; nodes],
            grant: vec![NO_GRANT; ports],
            route_lut,
            links,
            faults: None,
            drop_counts: NocFaultCounts::default(),
            first_drop: None,
            topo,
        })
    }

    /// Attaches (or detaches) the link-fault lens.
    pub fn set_faults(&mut self, cfg: Option<&FaultConfig>) {
        self.faults = cfg.map(NocFaults::new);
    }

    /// The first unroutable packet this fabric dropped, if any.
    pub fn first_drop(&self) -> Option<&str> {
        self.first_drop.as_deref()
    }

    /// Aggregated fault counters: lens-injected link events plus the
    /// fabric's own unroutable-packet drops.
    pub fn fault_counts(&self) -> NocFaultCounts {
        let mut c = self.drop_counts;
        if let Some(f) = &self.faults {
            c.merge(&f.counts);
        }
        c
    }

    fn note_gain(&mut self, node: usize) {
        self.occ[node] += 1;
        self.busy |= 1u128 << node;
    }

    fn note_loss(&mut self, node: usize) {
        self.occ[node] -= 1;
        if self.occ[node] == 0 {
            self.busy &= !(1u128 << node);
        }
    }

    /// The wiring this fabric was built with.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Buffered flits at a router, recounted from the queue headers
    /// (consistency checks; the hot paths use `occ`).
    fn recount(&self, node: usize) -> usize {
        let range = node * self.ports..(node + 1) * self.ports;
        self.inputs.occupancy_range(range.clone()) + self.outputs.occupancy_range(range)
    }

    /// `true` when no flit is buffered anywhere. O(1) via the mask.
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.busy == 0,
            (0..self.nodes).all(|n| self.recount(n) == 0),
            "occupancy mask out of sync with router buffers"
        );
        self.busy == 0
    }

    /// Total flits buffered in the fabric.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occ.iter().map(|&c| c as usize).sum::<usize>(),
            (0..self.nodes).map(|n| self.recount(n)).sum::<usize>(),
            "occupancy counters out of sync with router buffers"
        );
        self.occ.iter().map(|&c| c as usize).sum()
    }

    /// The output port a packet takes when it reaches its destination
    /// router.
    fn eject_port(&self, pkt: Packet) -> usize {
        if pkt.is_for_memory() {
            self.mem_port
        } else {
            self.pe_port
        }
    }

    fn inject(&mut self, node: NodeId, port: usize, pkt: Packet, now: u64) -> bool {
        let q = usize::from(node) * self.ports + port;
        if self.inputs.is_full(q) {
            self.stats.inject_stalls += 1;
            return false;
        }
        self.inputs.push_back(
            q,
            Flit {
                pkt,
                entered: now,
                injected: now,
                hops: 0,
            },
        );
        self.stats.injected += 1;
        self.note_gain(usize::from(node));
        true
    }

    /// Graceful-degradation path for a packet whose destination does not
    /// exist in this fabric: count it, note the first one, and report the
    /// packet consumed (returning `false` would look like backpressure and
    /// make the producer retry forever).
    fn consume_unroutable(&mut self, node: NodeId, pkt: Packet, now: u64, from: &str) -> bool {
        self.drop_counts.unroutable += 1;
        if self.first_drop.is_none() {
            self.first_drop = Some(format!(
                "unroutable packet at cycle {now} from the {from} port of node \
                 {node}: dst {} outside 0..{} ({pkt:?})",
                pkt.dst, self.nodes,
            ));
        }
        true
    }

    /// Injects a packet from node `node`'s vault/PNG.
    ///
    /// An unroutable destination is consumed and counted under
    /// [`fault_counts`](Self::fault_counts)`.unroutable`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn try_inject_from_mem(&mut self, node: NodeId, pkt: Packet, now: u64) -> bool {
        if usize::from(pkt.dst) >= self.nodes {
            return self.consume_unroutable(node, pkt, now, "mem");
        }
        self.inject(node, self.mem_port, pkt, now)
    }

    /// Injects a packet from node `node`'s PE (write-back results).
    ///
    /// An unroutable destination is consumed and counted under
    /// [`fault_counts`](Self::fault_counts)`.unroutable`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn try_inject_from_pe(&mut self, node: NodeId, pkt: Packet, now: u64) -> bool {
        if usize::from(pkt.dst) >= self.nodes {
            return self.consume_unroutable(node, pkt, now, "pe");
        }
        self.inject(node, self.pe_port, pkt, now)
    }

    fn pop_ejected(&mut self, node: NodeId, port: usize, now: u64) -> Option<Packet> {
        let q = usize::from(node) * self.ports + port;
        if self.outputs.front(q).is_some_and(|f| f.entered < now) {
            let f = self.outputs.pop_front(q).expect("just checked");
            self.stats.delivered += 1;
            self.stats.total_hops += u64::from(f.hops);
            self.stats.total_latency += now - f.injected;
            if f.pkt.is_lateral() {
                self.stats.lateral += 1;
            }
            self.note_loss(usize::from(node));
            Some(f.pkt)
        } else {
            None
        }
    }

    /// Removes the next packet waiting at node `node`'s PE port, if any.
    /// At most one packet per node per cycle (the PE ingest datapath is one
    /// packet wide).
    pub fn pop_for_pe(&mut self, node: NodeId, now: u64) -> Option<Packet> {
        self.pop_ejected(node, self.pe_port, now)
    }

    /// The packet [`pop_for_pe`](Self::pop_for_pe) would return, without
    /// removing it — lets a PE refuse delivery (backpressure) and leave the
    /// packet queued in the router.
    pub fn peek_for_pe(&self, node: NodeId, now: u64) -> Option<&Packet> {
        let q = usize::from(node) * self.ports + self.pe_port;
        self.outputs
            .front(q)
            .filter(|f| f.entered < now)
            .map(|f| &f.pkt)
    }

    /// Removes the next packet waiting at node `node`'s memory port
    /// (write-backs destined for the PNG/vault controller).
    pub fn pop_for_mem(&mut self, node: NodeId, now: u64) -> Option<Packet> {
        self.pop_ejected(node, self.mem_port, now)
    }

    /// The packet [`pop_for_mem`](Self::pop_for_mem) would return, without
    /// removing it (vault-controller backpressure).
    pub fn peek_for_mem(&self, node: NodeId, now: u64) -> Option<&Packet> {
        let q = usize::from(node) * self.ports + self.mem_port;
        self.outputs
            .front(q)
            .filter(|f| f.entered < now)
            .map(|f| &f.pkt)
    }

    /// Advances the fabric one cycle: switch allocation (inputs → outputs,
    /// rotating-priority arbitration per output) followed by link traversal
    /// (outputs → neighbour inputs). A flit moves at most one stage per
    /// cycle.
    pub fn tick(&mut self, now: u64) {
        let ports = self.ports;
        self.ticks += 1;
        let ticks = self.ticks;

        // Phase 1: switch allocation within each router. Only routers
        // holding flits run the want/grant scan; an empty router's sole
        // observable behaviour is its every-cycle arbiter rotation, which
        // is deferred (`ticks`/`seen`) and folded in below when the router
        // next holds flits — an idle router costs nothing per cycle.
        //
        // Flits never cross routers in phase 1, so the mask snapshot is
        // exact for the whole phase.
        let mut pending = self.busy;
        let mut grant = std::mem::take(&mut self.grant);
        while pending != 0 {
            let node = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let base = node * ports;
            // Ticks since the last stamp all found this router idle; apply
            // their pending rotation (the current tick is not one of them —
            // the grant loop below rotates or resets each pointer itself).
            let lag = (ticks - 1) - self.seen[node];
            self.seen[node] = ticks;
            let k = (lag % ports as u64) as usize;
            if k != 0 {
                for p in &mut self.priority[base..base + ports] {
                    *p = wrap(usize::from(*p) + k, ports) as u8;
                }
            }
            // One pass over the input heads computes every output's winner
            // directly: the rotating daisy chain grants the requesting
            // input closest past the priority pointer, i.e. the one with
            // the smallest rank `(i - start) mod ports`. Equivalent to
            // scanning `(start + k) % ports` per output, without the
            // O(ports²) inner loop. Encoded as `(rank << 8) | input`, so
            // the numeric minimum is the winner.
            grant.fill(NO_GRANT);
            for i in 0..ports {
                let Some(f) = self.inputs.front(base + i) else {
                    continue;
                };
                if f.entered >= now {
                    continue;
                }
                let out = if usize::from(f.pkt.dst) == node {
                    self.eject_port(f.pkt)
                } else {
                    match self.route_lut[node * self.nodes + usize::from(f.pkt.dst)] {
                        NO_LINK => continue,
                        o => usize::from(o),
                    }
                };
                let start = usize::from(self.priority[base + out]);
                let rank = wrap(i + ports - start, ports);
                let encoded = ((rank as u16) << 8) | i as u16;
                if encoded < grant[out] {
                    grant[out] = encoded;
                }
            }
            for (out, &g) in grant.iter().enumerate() {
                if self.outputs.is_full(base + out) {
                    continue;
                }
                if g != NO_GRANT {
                    let i = usize::from(g as u8);
                    let mut f = self
                        .inputs
                        .pop_front(base + i)
                        .expect("granted input had a head");
                    f.entered = now;
                    self.outputs.push_back(base + out, f);
                    self.priority[base + out] = wrap(i + 1, ports) as u8;
                } else {
                    // Priorities rotate every cycle even without a grant.
                    let start = usize::from(self.priority[base + out]);
                    self.priority[base + out] = wrap(start + 1, ports) as u8;
                }
            }
        }
        self.grant = grant;

        // Phase 2: link traversal between routers. The mask snapshot is
        // again exact: a flit arriving this phase lands in a neighbour's
        // *input* queue and cannot move again, and a router that was empty
        // has nothing in its output queues to send.
        let mesh = self.topo.mesh_ports();
        let mut pending = self.busy;
        while pending != 0 {
            let node = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let base = node * ports;
            for port in 0..mesh {
                let movable = self
                    .outputs
                    .front(base + port)
                    .is_some_and(|f| f.entered < now);
                if !movable {
                    continue;
                }
                let (neighbor, rport) = self.links[node * mesh + port];
                if neighbor == NO_LINK {
                    continue;
                }
                let rport = usize::from(rport);
                if self.inputs.is_full(usize::from(neighbor) * ports + rport) {
                    continue; // no credit
                }
                // Link-fault hook: faults strike only traversals that were
                // about to happen, so the clean schedule of link events is
                // identical with the lens detached — and identical between
                // skip and naive loops, which both tick every busy cycle.
                let (mut target, mut tport) = (neighbor, rport);
                if let Some(lens) = &mut self.faults {
                    let link = (node * ports + port) as u64;
                    match lens.link_event(now, link) {
                        LinkFault::None => {}
                        LinkFault::Corrupt => {
                            // Parity at the receiver rejects the flit; the
                            // sender's copy retries next cycle.
                            continue;
                        }
                        LinkFault::Drop => {
                            // Lost on the wire. The ack timeout holds the
                            // sender's copy for DROP_TIMEOUT cycles, then
                            // retransmits; the flit stays buffered, so the
                            // busy mask keeps the fabric unskippable.
                            let f = self
                                .outputs
                                .front_mut(base + port)
                                .expect("checked movable");
                            f.entered = now + NocFaults::DROP_TIMEOUT - 1;
                            continue;
                        }
                        LinkFault::Misroute => {
                            // Deliver out a wrong mesh port with capacity;
                            // per-hop routing recovers from the detour. With
                            // no usable wrong turn the flit proceeds
                            // correctly (the misroute is still counted as
                            // the lens saw the event fire).
                            let mesh = self.topo.mesh_ports();
                            for off in 1..mesh {
                                let cand = (port + off) % mesh;
                                let Some(alt) = self.topo.neighbor(node as NodeId, cand) else {
                                    continue;
                                };
                                let rp = self.topo.reverse_port(node as NodeId, cand);
                                if !self.inputs.is_full(usize::from(alt) * ports + rp) {
                                    target = alt;
                                    tport = rp;
                                    break;
                                }
                            }
                        }
                    }
                }
                let mut f = self
                    .outputs
                    .pop_front(base + port)
                    .expect("checked movable");
                f.entered = now;
                f.hops += 1;
                self.inputs
                    .push_back(usize::from(target) * ports + tport, f);
                self.note_loss(node);
                self.note_gain(usize::from(target));
            }
        }
    }

    /// Bulk-applies the only observable effect ticking an *idle* fabric
    /// has: every output arbiter rotates one step per cycle. Lets the
    /// cycle loop fast-forward over quiescent stretches while keeping the
    /// arbitration state (and therefore later grant decisions) bitwise
    /// identical to naive ticking.
    ///
    /// Callers must only skip while [`is_idle`](Self::is_idle) holds —
    /// the fabric reports exactly that through the system's `next_event`.
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(self.is_idle(), "fast-forward over a non-idle fabric");
        let ports = self.ports;
        for node in 0..self.nodes {
            // Outstanding lazy rotation from ticked idle cycles, plus the
            // skipped stretch itself.
            let lag = (self.ticks - self.seen[node]) + cycles;
            self.seen[node] = self.ticks;
            let k = (lag % ports as u64) as usize;
            if k == 0 {
                continue;
            }
            for p in &mut self.priority[node * ports..(node + 1) * ports] {
                *p = wrap(usize::from(*p) + k, ports) as u8;
            }
        }
    }

    /// Applies every lazily-pending idle-arbiter rotation so `priority`
    /// holds the effective pointers (tests compare the arrays directly;
    /// the hot paths never need this — phase 1 folds lag per router).
    #[cfg(test)]
    fn sync_arbiters(&mut self) {
        self.skip_cycles(0);
    }
}

impl StatSource for Network {
    fn report(&self, stats: &mut ScopedStats<'_>) {
        stats.counter("injected", self.stats.injected);
        stats.counter("delivered", self.stats.delivered);
        stats.counter("lateral", self.stats.lateral);
        stats.counter("total_hops", self.stats.total_hops);
        stats.counter("total_latency", self.stats.total_latency);
        stats.counter("inject_stalls", self.stats.inject_stalls);
        stats.gauge("occupancy", self.occupancy() as f64);
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} NoC ({} in flight)",
            self.topo,
            self.stats.in_flight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::router::BUFFER_DEPTH;

    #[test]
    fn oversized_mesh_is_a_typed_error() {
        // 12×12 = 144 routers: past the u128 occupancy mask.
        let err = Network::try_new(Topology::Mesh {
            width: 12,
            height: 12,
        })
        .expect_err("144 nodes must not construct");
        assert_eq!(
            err,
            NocError::MeshTooLarge {
                nodes: 144,
                max: 128
            }
        );
        assert!(err.to_string().contains("144 routers"));
    }

    #[test]
    fn oversized_port_count_is_a_typed_error() {
        // 255 fully connected routers need 256 ports per router: past the
        // u8 arbiter pointers (checked before the node count so each
        // limit has its own reachable error).
        let err = Network::try_new(Topology::FullyConnected { nodes: 255 })
            .expect_err("256 ports must not construct");
        assert_eq!(
            err,
            NocError::TooManyPorts {
                ports: 256,
                max: 255
            }
        );
        assert!(err.to_string().contains("256 ports"));
    }

    #[test]
    fn in_range_topologies_still_construct() {
        assert!(Network::try_new(Topology::mesh4x4()).is_ok());
        assert!(Network::try_new(Topology::FullyConnected { nodes: 128 }).is_ok());
    }

    #[test]
    #[should_panic(expected = "occupancy mask")]
    fn panicking_constructor_keeps_its_teeth() {
        let _ = Network::new(Topology::Mesh {
            width: 13,
            height: 10,
        });
    }

    fn pkt(src: NodeId, dst: NodeId, kind: PacketKind, data: u16) -> Packet {
        Packet {
            dst,
            src,
            mac_id: 0,
            op_id: 0,
            kind,
            data,
        }
    }

    /// Runs the fabric until `n` packets arrive at `dst`'s PE port.
    fn drain(net: &mut Network, dst: NodeId, n: usize, deadline: u64) -> Vec<(Packet, u64)> {
        let mut got = Vec::new();
        let mut now = 1;
        while got.len() < n {
            net.tick(now);
            if let Some(p) = net.pop_for_pe(dst, now) {
                got.push((p, now)); // one per cycle
            }
            now += 1;
            assert!(now < deadline, "NoC did not deliver in time");
        }
        got
    }

    #[test]
    fn local_delivery_takes_two_stages() {
        let mut net = Network::new(Topology::mesh4x4());
        assert!(net.try_inject_from_mem(3, pkt(3, 3, PacketKind::State, 9), 0));
        let got = drain(&mut net, 3, 1, 100);
        assert_eq!(got[0].0.data, 9);
        // inject at 0, switch at 1, eject visible at 2.
        assert_eq!(got[0].1, 2);
        assert_eq!(net.stats().lateral, 0);
        assert_eq!(net.stats().total_hops, 0);
    }

    #[test]
    fn cross_mesh_delivery_latency_grows_with_hops() {
        let mut net = Network::new(Topology::mesh4x4());
        assert!(net.try_inject_from_mem(0, pkt(0, 15, PacketKind::State, 1), 0));
        let got = drain(&mut net, 15, 1, 100);
        // 6 hops * 2 stages + 2 ejection stages = 14.
        assert_eq!(got[0].1, 14);
        assert_eq!(net.stats().total_hops, 6);
        assert_eq!(net.stats().lateral, 1);
    }

    #[test]
    fn fully_connected_is_distance_independent() {
        let mut net = Network::new(Topology::FullyConnected { nodes: 16 });
        assert!(net.try_inject_from_mem(0, pkt(0, 15, PacketKind::State, 1), 0));
        let got = drain(&mut net, 15, 1, 100);
        assert_eq!(got[0].1, 4); // 1 hop * 2 + 2
        assert_eq!(net.stats().total_hops, 1);
    }

    #[test]
    fn results_eject_at_memory_port() {
        let mut net = Network::new(Topology::mesh4x4());
        assert!(net.try_inject_from_pe(5, pkt(5, 4, PacketKind::Result, 7), 0));
        let mut now = 1;
        loop {
            net.tick(now);
            assert!(net.pop_for_pe(4, now).is_none(), "result leaked to PE port");
            if let Some(p) = net.pop_for_mem(4, now) {
                assert_eq!(p.data, 7);
                break;
            }
            now += 1;
            assert!(now < 100);
        }
    }

    #[test]
    fn fifo_order_preserved_per_flow() {
        let mut net = Network::new(Topology::mesh4x4());
        for i in 0..10u16 {
            assert!(net.try_inject_from_mem(0, pkt(0, 3, PacketKind::State, i), 0));
        }
        let got = drain(&mut net, 3, 10, 200);
        let data: Vec<u16> = got.iter().map(|(p, _)| p.data).collect();
        assert_eq!(data, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn throughput_is_one_packet_per_cycle_steady_state() {
        let mut net = Network::new(Topology::mesh4x4());
        // Saturate a single flow 0 -> 1 and measure the delivery rate.
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut last = 0;
        for now in 0..400u64 {
            if injected < 200 && net.try_inject_from_mem(0, pkt(0, 1, PacketKind::State, 0), now) {
                injected += 1;
            }
            net.tick(now);
            if net.pop_for_pe(1, now).is_some() {
                delivered += 1;
                last = now;
            }
        }
        assert_eq!(delivered, 200);
        // 200 packets in ~206 cycles: full rate after pipeline fill.
        assert!(last < 210, "last delivery at {last}");
    }

    #[test]
    fn injection_backpressure_reports_stall() {
        let mut net = Network::new(Topology::mesh4x4());
        // Fill the mem input buffer without ever ticking.
        for _ in 0..BUFFER_DEPTH {
            assert!(net.try_inject_from_mem(0, pkt(0, 1, PacketKind::State, 0), 0));
        }
        assert!(!net.try_inject_from_mem(0, pkt(0, 1, PacketKind::State, 0), 0));
        assert_eq!(net.stats().inject_stalls, 1);
    }

    #[test]
    fn no_packets_lost_under_random_all_to_all() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut net = Network::new(Topology::mesh4x4());
        let mut to_send = 2000u32;
        let mut received = 0u32;
        let mut now = 0u64;
        while received < 2000 {
            if to_send > 0 {
                let src: u8 = rng.random_range(0..16);
                let dst: u8 = rng.random_range(0..16);
                if net.try_inject_from_mem(src, pkt(src, dst, PacketKind::State, 0), now) {
                    to_send -= 1;
                }
            }
            net.tick(now);
            for node in 0..16u8 {
                if net.pop_for_pe(node, now).is_some() {
                    received += 1;
                }
            }
            now += 1;
            assert!(now < 100_000, "lost packets: {} received", received);
        }
        assert!(net.is_idle());
        assert_eq!(net.stats().in_flight(), 0);
    }

    #[test]
    fn occupancy_mask_tracks_actual_buffers_under_random_traffic() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(9);
        let mut net = Network::new(Topology::mesh4x4());
        let mut received = 0u32;
        for now in 0..3000u64 {
            if now < 1500 {
                let src: u8 = rng.random_range(0..16);
                let dst: u8 = rng.random_range(0..16);
                let _ = net.try_inject_from_mem(src, pkt(src, dst, PacketKind::State, 0), now);
            }
            net.tick(now);
            for node in 0..16u8 {
                received += u32::from(net.pop_for_pe(node, now).is_some());
            }
            // The derived mask/counters must agree with the real queues.
            let actual: usize = (0..net.nodes).map(|n| net.recount(n)).sum();
            assert_eq!(net.occupancy(), actual);
            assert_eq!(net.is_idle(), actual == 0);
            for node in 0..net.nodes {
                assert_eq!(
                    net.busy & (1 << node) != 0,
                    net.recount(node) > 0,
                    "router {node}"
                );
            }
        }
        assert!(net.is_idle());
        assert!(received > 0);
    }

    #[test]
    fn skip_cycles_matches_ticking_an_idle_fabric() {
        for topo in [Topology::mesh4x4(), Topology::FullyConnected { nodes: 16 }] {
            // Perturb the arbiters first so rotation starts off-phase.
            let mut seed = Network::new(topo);
            assert!(seed.try_inject_from_mem(2, pkt(2, 9, PacketKind::State, 1), 0));
            let mut now = 1;
            while !seed.is_idle() {
                seed.tick(now);
                let _ = seed.pop_for_pe(9, now);
                now += 1;
                assert!(now < 100);
            }
            for gap in [1u64, 5, 63, 64, 128, 1000] {
                let mut ticked = seed.clone();
                for c in 0..gap {
                    ticked.tick(now + c);
                }
                let mut skipped = seed.clone();
                skipped.skip_cycles(gap);
                // Rotation is lazy on the ticked side: materialize both
                // before comparing the raw pointer arrays.
                ticked.sync_arbiters();
                skipped.sync_arbiters();
                assert_eq!(ticked.priority, skipped.priority, "gap {gap}");
                // The two fabrics must stay bitwise interchangeable: same
                // delivery schedule for the next packet, injected at the
                // (common) post-gap cycle.
                let t0 = now + gap;
                assert!(ticked.try_inject_from_mem(0, pkt(0, 9, PacketKind::State, 3), t0));
                assert!(skipped.try_inject_from_mem(0, pkt(0, 9, PacketKind::State, 3), t0));
                for c in 1..100 {
                    ticked.tick(t0 + c);
                    skipped.tick(t0 + c);
                    let a = ticked.pop_for_pe(9, t0 + c);
                    let b = skipped.pop_for_pe(9, t0 + c);
                    assert_eq!(a, b);
                    if a.is_some() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn unroutable_packet_is_a_counted_drop() {
        let mut net = Network::new(Topology::mesh4x4());
        // Consumed (true), not backpressured: a `false` would make the
        // producer spin on an undeliverable packet forever.
        assert!(net.try_inject_from_mem(0, pkt(0, 200, PacketKind::State, 1), 5));
        assert!(net.try_inject_from_pe(3, pkt(3, 99, PacketKind::Result, 2), 6));
        assert_eq!(net.fault_counts().unroutable, 2);
        // Nothing entered the fabric.
        assert!(net.is_idle());
        assert_eq!(net.stats().injected, 0);
    }

    /// Injects `n` random packets under the given fault config and runs to
    /// completion, returning the fabric for inspection.
    fn run_faulty(seed: u64, n: u32) -> Network {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let cfg = neurocube_fault::FaultConfig {
            seed,
            noc_corrupt_rate: 0.02,
            noc_drop_rate: 0.02,
            noc_misroute_rate: 0.02,
            ..Default::default()
        };
        let mut net = Network::new(Topology::mesh4x4());
        net.set_faults(Some(&cfg));
        let mut rng = SmallRng::seed_from_u64(7);
        let mut to_send = n;
        let mut received = 0;
        let mut now = 0u64;
        while received < n {
            if to_send > 0 {
                let src: u8 = rng.random_range(0..16);
                let dst: u8 = rng.random_range(0..16);
                if net.try_inject_from_mem(src, pkt(src, dst, PacketKind::State, 0), now) {
                    to_send -= 1;
                }
            }
            net.tick(now);
            for node in 0..16u8 {
                if net.pop_for_pe(node, now).is_some() {
                    received += 1;
                }
            }
            now += 1;
            assert!(now < 200_000, "lost packets under faults: {received}/{n}");
        }
        net
    }

    #[test]
    fn link_faults_delay_but_never_lose_packets() {
        let net = run_faulty(0xDEAD, 1000);
        assert!(net.is_idle());
        assert_eq!(net.stats().in_flight(), 0);
        let c = net.fault_counts();
        // ~3 hops/packet × 1000 packets × 2% per class: every fault class
        // must have fired many times.
        assert!(c.corrupt > 0, "no corruption events: {c:?}");
        assert!(c.drops > 0, "no drop events: {c:?}");
        assert!(c.misroutes > 0, "no misroute events: {c:?}");
        assert_eq!(c.retransmits, c.corrupt + c.drops);
        assert_eq!(c.unroutable, 0);
        // Detours cost extra hops relative to minimal routing.
        assert!(net.stats().delivered == 1000);
    }

    #[test]
    fn link_faults_are_seed_deterministic() {
        let a = run_faulty(0xFEED, 400);
        let b = run_faulty(0xFEED, 400);
        assert_eq!(a.fault_counts(), b.fault_counts());
        assert_eq!(a.stats().total_hops, b.stats().total_hops);
        assert_eq!(a.stats().total_latency, b.stats().total_latency);
        let c = run_faulty(0xBEEF, 400);
        assert_ne!(
            (a.fault_counts(), a.stats().total_latency),
            (c.fault_counts(), c.stats().total_latency),
            "different fault seeds produced identical runs"
        );
    }

    #[test]
    fn zero_rate_lens_leaves_the_fabric_bitwise_unchanged() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let cfg = neurocube_fault::FaultConfig::uniform(0x11, 0.0);
        let mut plain = Network::new(Topology::mesh4x4());
        let mut lensed = Network::new(Topology::mesh4x4());
        lensed.set_faults(Some(&cfg));
        let mut rng = SmallRng::seed_from_u64(3);
        for now in 0..2000u64 {
            if now < 1000 {
                let src: u8 = rng.random_range(0..16);
                let dst: u8 = rng.random_range(0..16);
                let p = pkt(src, dst, PacketKind::State, now as u16);
                assert_eq!(
                    plain.try_inject_from_mem(src, p, now),
                    lensed.try_inject_from_mem(src, p, now)
                );
            }
            plain.tick(now);
            lensed.tick(now);
            for node in 0..16u8 {
                assert_eq!(plain.pop_for_pe(node, now), lensed.pop_for_pe(node, now));
            }
        }
        assert!(plain.is_idle() && lensed.is_idle());
        assert_eq!(plain.stats().total_latency, lensed.stats().total_latency);
        assert_eq!(
            lensed.fault_counts(),
            neurocube_fault::NocFaultCounts::default()
        );
    }

    #[test]
    fn arbitration_is_fair_between_competing_inputs() {
        // Two flows (from node 1 going west, from node 4 going north... both
        // toward node 0) compete for node 0's PE port.
        let mut net = Network::new(Topology::mesh4x4());
        let mut from1 = 0u32;
        let mut from4 = 0u32;
        for now in 0..600u64 {
            let _ = net.try_inject_from_mem(1, pkt(1, 0, PacketKind::State, 0), now);
            let _ = net.try_inject_from_mem(4, pkt(4, 0, PacketKind::State, 0), now);
            net.tick(now);
            if let Some(p) = net.pop_for_pe(0, now) {
                if p.src == 1 {
                    from1 += 1;
                } else {
                    from4 += 1;
                }
            }
        }
        let total = from1 + from4;
        assert!(total > 400, "PE port underutilized: {total}");
        let imbalance = (i64::from(from1) - i64::from(from4)).unsigned_abs();
        assert!(
            imbalance <= total as u64 / 10,
            "unfair arbitration: {from1} vs {from4}"
        );
    }
}
