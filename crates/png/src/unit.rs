//! The cycle-level PNG unit: operand stream → vault controller → NoC, and
//! NoC → activation LUT → DRAM write-back (Fig. 8(a)).

use crate::program::LayerProgram;
use crate::schedule::{OperandEvent, OperandStream, WritebackCursor};
use neurocube_dram::{MemorySystem, Request, RequestKind};
use neurocube_fixed::{ActivationLut, Q88};
use neurocube_noc::{NodeId, Packet, PacketKind};
use neurocube_sim::{ScopedStats, StatSource};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Multiplicative hasher for read-request tags. Tags are sequence numbers
/// under a fixed vault prefix, so a Fibonacci multiply spreads them
/// perfectly and the default SipHash (sized for adversarial keys) is pure
/// overhead on the per-read critical path.
#[derive(Clone, Default)]
struct TagHasher(u64);

impl Hasher for TagHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type TagMap = HashMap<u64, (u64, Vec<OperandEvent>), BuildHasherDefault<TagHasher>>;

/// Maximum packets buffered between vault-controller completions and NoC
/// injection (the PNG's packet-encapsulation FIFO).
const OUT_QUEUE_CAP: usize = 32;

/// Maximum write-backs buffered while waiting for channel write slots.
const WRITE_QUEUE_CAP: usize = 32;

/// What the prefetch-read loop would do on the next tick — the outcome of
/// replaying [`Png::tick`]'s break chain without side effects.
enum ReadPath {
    /// The tick issues a read or mutates stream state: not a null tick.
    Active,
    /// Output FIFO at its high-water mark; `live` mirrors the condition
    /// under which the naive loop charges `outq_stalls`.
    OutqStall {
        /// Whether the operand stream still has events to deliver.
        live: bool,
    },
    /// No channel queue slot free: the naive loop charges `queue_stalls`.
    QueueStall,
    /// Every event of the held word batch is run-ahead gated: the naive
    /// loop charges `gate_stalls`.
    GateStall,
    /// Nothing to do and nothing charged.
    Idle,
}

/// Low 48 bits of a write request's tag (the high 16 carry the vault id).
const WRITE_TAG: u64 = 0xFFFF_FFFF_FFFF;

/// Credit-based run-ahead window: a PNG never issues an operand more than
/// this many operations ahead of the destination PE's operation counter.
///
/// Two constraints pick the value. *Deadlock freedom*: in-flight packets
/// must always fit the PE cache — 16 ops × ≤17 packets/op over 16 OP-ID
/// residue classes bounds any sub-bank at 2 × 17 = 34 < 64 entries, so a PE
/// can always accept every in-flight packet even when memory controllers
/// with very different backlogs feed it (the DDR3 configuration).
/// *Throughput*: the PE's full sub-bank search costs `max(16, occupancy)`
/// cycles per operation (§V-B) and hides behind the 16-cycle MAC latency
/// only while sub-banks stay at ≤16 entries — i.e. at most ~one op ahead
/// per residue class, which a 16-op window guarantees. A 16-op window is
/// still 256 cycles of buffering, ample to ride out burst gaps and row
/// activations.
pub const RUN_AHEAD_OPS: u64 = 16;

/// How a PNG attaches to the physical fabric — identity for the HMC
/// (each vault's PNG sits at its own mesh node), or a shared controller
/// node for the DDR3 baseline where several regions' PNG state machines
/// live in one memory controller at one mesh location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PngHookup {
    /// Mesh node where this PNG injects and receives packets.
    pub attach: NodeId,
    /// Channel word size in bytes (4 for HMC vaults, 8 for DDR3) — the
    /// granularity of operand packing.
    pub word_bytes: u64,
    /// Cap on outstanding read requests, so PNGs sharing one physical
    /// channel cannot starve each other.
    pub max_outstanding_reads: usize,
    /// Credit-based run-ahead window in operations (see [`RUN_AHEAD_OPS`]
    /// for the default and the sizing constraints).
    pub run_ahead_ops: u64,
}

/// Per-layer/lifetime PNG counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PngStats {
    /// Operands fetched from DRAM and packetized.
    pub operands_sent: u64,
    /// DRAM read requests issued (≤ operands, thanks to word packing).
    pub reads_issued: u64,
    /// Result packets received (own PE + forwarded copies).
    pub writebacks_received: u64,
    /// Copy packets forwarded to other vaults (duplication maintenance).
    pub copies_forwarded: u64,
    /// DRAM write requests issued.
    pub writes_issued: u64,
    /// Cycles an injection-ready packet waited on NoC backpressure.
    pub inject_stalls: u64,
    /// Read-issue attempts held by the run-ahead window.
    pub gate_stalls: u64,
    /// Read-issue attempts held by a full channel queue.
    pub queue_stalls: u64,
    /// Read-issue attempts held by a full packet-out queue.
    pub outq_stalls: u64,
    /// State/SharedState operands packetized with an exactly-zero payload
    /// — the operands a zero-skipping sequencer could elide from the
    /// stream. Classification only: the shipped timing model still sends
    /// them (see `DESIGN.md` §13).
    pub zero_state_operands: u64,
    /// Weight operands packetized with an exactly-zero payload.
    pub zero_weight_operands: u64,
    /// Own write-backs whose post-activation value is exactly zero (the
    /// ReLU-sparsity source: these become the next layer's zero states).
    pub zero_activations: u64,
}

/// One vault's (region's) Programmable Neurosequence Generator.
///
/// Drive it each reference cycle with [`tick`](Png::tick); deliver channel
/// completions with [`on_completion`](Png::on_completion) and mem-port
/// packets with [`on_result`](Png::on_result) (gated by
/// [`can_take_result`](Png::can_take_result)); poll
/// [`layer_done`](Png::layer_done) — the paper's "layer done" host signal.
#[derive(Debug)]
pub struct Png {
    vault: NodeId,
    hookup: PngHookup,
    lut: Option<ActivationLut>,
    prog: Option<Arc<LayerProgram>>,
    stream: Option<OperandStream>,
    pending_group: Option<(u64, Vec<OperandEvent>)>,
    /// Release summary of a batch held fully gated: per destination in
    /// `pending_group`, the minimum `global_op` among its events. Batches
    /// stall gated for hundreds of cycles on the saturated shapes, and
    /// "every event still gated" is per destination "the minimum
    /// `global_op` still gated", so the per-tick recheck walks these one
    /// or two entries instead of rescanning the whole batch. Non-empty
    /// only while `pending_group` was stored fully gated (gating is
    /// monotone: `progress` only advances, so a batch never re-gates).
    pending_gate: Vec<(NodeId, u64)>,
    pending_event: Option<OperandEvent>,
    inflight: TagMap,
    /// Recycled event-batch buffers: completions return their spent batch
    /// here and group acquisition reuses them, so steady-state streaming
    /// never allocates on the per-word path.
    spare_batches: Vec<Vec<OperandEvent>>,
    next_seq: u64,
    outstanding_reads: usize,
    out_queue: VecDeque<Packet>,
    copy_queue: VecDeque<Packet>,
    copy_high_water: usize,
    inject_toggle: bool,
    own_cursor: Option<WritebackCursor>,
    foreign_cursors: Vec<Option<WritebackCursor>>,
    own_remaining: u64,
    foreign_remaining: u64,
    pending_writes: VecDeque<(u64, u16)>,
    write_pair: Option<(u64, u16, u64)>,
    outstanding_writes: u64,
    stats: PngStats,
    /// In lenient mode malformed packets/completions become counted drops
    /// instead of panics; fault-free runs keep `debug_assert!` teeth.
    lenient: bool,
    /// Mem-port packets the PNG could not attribute and dropped.
    dropped_packets: u64,
    /// Channel completions whose tag this PNG never issued.
    unknown_completions: u64,
    /// One-shot flag: the first drop emits a rich diagnostic.
    diagnosed: bool,
}

impl Png {
    /// Creates an idle PNG for `vault` with the given fabric hookup.
    pub fn new(vault: NodeId, hookup: PngHookup) -> Png {
        Png {
            vault,
            hookup,
            lut: None,
            prog: None,
            stream: None,
            pending_group: None,
            pending_gate: Vec::new(),
            pending_event: None,
            inflight: TagMap::default(),
            spare_batches: Vec::new(),
            next_seq: 0,
            outstanding_reads: 0,
            out_queue: VecDeque::new(),
            copy_queue: VecDeque::new(),
            copy_high_water: 0,
            inject_toggle: false,
            own_cursor: None,
            foreign_cursors: Vec::new(),
            own_remaining: 0,
            foreign_remaining: 0,
            pending_writes: VecDeque::new(),
            write_pair: None,
            outstanding_writes: 0,
            stats: PngStats::default(),
            lenient: false,
            dropped_packets: 0,
            unknown_completions: 0,
            diagnosed: false,
        }
    }

    /// Switches malformed-input handling between panicking (strict, the
    /// default) and counted drops (lenient). The core system enables this
    /// whenever a fault injector is attached, since injected faults make
    /// otherwise-impossible packet states reachable.
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Mem-port packets dropped by the lenient paths.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Channel completions ignored because their tag was unknown.
    pub fn unknown_completions(&self) -> u64 {
        self.unknown_completions
    }

    /// Graceful-degradation path for a mem-port packet this PNG cannot
    /// attribute to its expected write-back sequence: count and drop.
    fn drop_result(&mut self, pkt: Packet, why: &str) {
        self.dropped_packets += 1;
        if !self.diagnosed {
            self.diagnosed = true;
            eprintln!(
                "neurocube-png: PNG {} dropping mem-port packet: {why} \
                 ({pkt:?}); counted under fault.png.dropped_packets, \
                 further drops are silent",
                self.vault,
            );
        }
    }

    /// Graceful-degradation path for a channel completion this PNG never
    /// issued (or has no record of): count and ignore.
    fn drop_completion(&mut self, tag: u64, why: &str) {
        self.unknown_completions += 1;
        if !self.diagnosed {
            self.diagnosed = true;
            eprintln!(
                "neurocube-png: PNG {} ignoring channel completion with tag \
                 {tag:#x}: {why}; counted under fault.png.unknown_completions, \
                 further drops are silent",
                self.vault,
            );
        }
    }

    /// The standard HMC hookup: PNG of vault `v` at mesh node `v`, 32-bit
    /// words, a full private request queue.
    pub fn hmc(vault: NodeId) -> Png {
        Png::new(
            vault,
            PngHookup {
                attach: vault,
                word_bytes: 4,
                max_outstanding_reads: 48,
                run_ahead_ops: RUN_AHEAD_OPS,
            },
        )
    }

    /// The vault (region) this PNG controls.
    pub fn vault(&self) -> NodeId {
        self.vault
    }

    /// The mesh node this PNG injects at.
    pub fn attach(&self) -> NodeId {
        self.hookup.attach
    }

    /// Counters.
    pub fn stats(&self) -> &PngStats {
        &self.stats
    }

    /// One-line queue snapshot for deadlock diagnostics:
    /// `(out_queue, pending_writes, outstanding_reads, outstanding_writes,
    /// own_remaining, foreign_remaining, gated_head_op)`.
    pub fn debug_state(&self) -> (usize, usize, usize, u64, u64, u64, Option<u64>) {
        (
            self.out_queue.len(),
            self.pending_writes.len(),
            self.outstanding_reads,
            self.outstanding_writes,
            self.own_remaining,
            self.foreign_remaining,
            self.pending_group
                .as_ref()
                .map(|g| g.1[0].global_op)
                .or(self.pending_event.map(|e| e.global_op)),
        )
    }

    /// Programs the PNG for one layer: loads the configuration registers,
    /// rebuilds the address-generation FSM and the activation LUT
    /// (Fig. 8(c)'s configuration-enable phase).
    pub fn configure(&mut self, prog: Arc<LayerProgram>) {
        self.lut = Some(ActivationLut::new(prog.activation));
        self.stream = Some(OperandStream::new(Arc::clone(&prog), self.vault));
        self.pending_group = None;
        self.pending_gate.clear();
        self.pending_event = None;
        self.inflight.clear();
        self.outstanding_reads = 0;
        self.out_queue.clear();
        self.copy_queue.clear();
        self.own_remaining = prog.out_vol.assigned_count(self.vault);
        self.foreign_remaining = prog.expected_foreign_writebacks(self.vault);
        self.own_cursor = Some(WritebackCursor::new(
            Arc::clone(&prog),
            self.vault,
            self.vault,
        ));
        self.foreign_cursors = (0..prog.mapping.vaults()).map(|_| None).collect();
        self.pending_writes.clear();
        self.write_pair = None;
        self.outstanding_writes = 0;
        self.prog = Some(prog);
    }

    /// `true` when every operand has been streamed, every expected
    /// write-back received and committed to DRAM, and all queues drained —
    /// the "layer done" signal (§IV-B).
    pub fn layer_done(&self) -> bool {
        self.prog.is_some()
            && self.stream.as_ref().is_none_or(OperandStream::is_exhausted)
            && self.pending_group.is_none()
            && self.pending_event.is_none()
            && self.inflight.is_empty()
            && self.out_queue.is_empty()
            && self.copy_queue.is_empty()
            && self.own_remaining == 0
            && self.foreign_remaining == 0
            && self.pending_writes.is_empty()
            && self.write_pair.is_none()
            && self.outstanding_writes == 0
    }

    fn queue_write(&mut self, addr: u64, data: u16, now: u64) {
        // Pair two adjacent 16-bit writes into one 32-bit word write.
        match self.write_pair.take() {
            // Addresses are 2-byte aligned, so bit 0 is free to mark the
            // two halves of a paired 32-bit word write.
            Some((a, d, _)) if addr == a + 2 && a % 4 == 0 => {
                self.pending_writes.push_back((a | 1, d));
                self.pending_writes.push_back((addr | 1, data));
            }
            Some((a, d, _)) => {
                self.pending_writes.push_back((a, d));
                self.write_pair = Some((addr, data, now));
            }
            None => {
                self.write_pair = Some((addr, data, now));
            }
        }
    }

    fn flush_stale_pair(&mut self, now: u64) {
        if let Some((a, d, at)) = self.write_pair {
            if now > at {
                self.pending_writes.push_back((a, d));
                self.write_pair = None;
            }
        }
    }

    /// `true` when the PNG can absorb a mem-port packet from `src` this
    /// cycle; when `false`, the caller leaves the packet in the router
    /// (backpressure).
    ///
    /// Own-PE results may fan out into duplication copies, so they also
    /// need injection-queue headroom; *foreign* copies only need a write
    /// slot and are always drained while DRAM writes flow — the property
    /// that keeps the all-to-all replication of a duplicated FC input from
    /// deadlocking the fabric (receive readiness must never depend on send
    /// readiness).
    pub fn can_take_result(&self, src: NodeId) -> bool {
        let _ = src;
        self.pending_writes.len() + 2 <= WRITE_QUEUE_CAP
    }

    /// Peak replication-buffer occupancy (sizing statistic; see
    /// `DESIGN.md` on the duplication-maintenance buffer).
    pub fn copy_queue_high_water(&self) -> usize {
        self.copy_high_water
    }

    /// Handles a `Result` packet delivered to this PNG's mem port: applies
    /// the activation LUT (own results), writes the state to DRAM and
    /// forwards duplication copies.
    ///
    /// A packet that does not match the expected write-back sequence is a
    /// counted drop in lenient mode (see [`set_lenient`](Self::set_lenient)).
    ///
    /// # Panics
    ///
    /// In strict debug builds, panics if the PNG is unconfigured or the
    /// packet does not match the expected write-back sequence.
    pub fn on_result(&mut self, pkt: Packet, now: u64) {
        let Some(prog) = self.prog.clone() else {
            debug_assert!(self.lenient, "PNG {} not configured", self.vault);
            return self.drop_result(pkt, "PNG not configured");
        };
        if pkt.kind != PacketKind::Result {
            debug_assert!(self.lenient, "{:?} packet at the mem port", pkt.kind);
            return self.drop_result(pkt, "non-Result packet at the mem port");
        }
        self.stats.writebacks_received += 1;
        if pkt.src == self.vault {
            // Own PE's pre-activation result: LUT, write, replicate.
            let next = self.own_cursor.as_mut().expect("configured").next();
            let Some((neuron, addr)) = next else {
                debug_assert!(self.lenient, "unexpected extra own write-back");
                return self.drop_result(pkt, "unexpected extra own write-back");
            };
            let y = Q88::from_bits(pkt.data as i16);
            let x = self.lut.as_ref().expect("configured").apply(y);
            if x.to_bits() == 0 {
                self.stats.zero_activations += 1;
            }
            self.queue_write(addr, x.to_bits() as u16, now);
            self.own_remaining -= 1;
            for u in prog.copy_vaults(neuron, self.vault) {
                self.copy_queue.push_back(Packet {
                    dst: u,
                    src: self.vault,
                    mac_id: pkt.mac_id,
                    op_id: pkt.op_id,
                    kind: PacketKind::Result,
                    data: x.to_bits() as u16,
                });
                self.stats.copies_forwarded += 1;
            }
            self.copy_high_water = self.copy_high_water.max(self.copy_queue.len());
        } else {
            // A forwarded (already activated) copy from another vault.
            if usize::from(pkt.src) >= self.foreign_cursors.len() {
                debug_assert!(self.lenient, "write-back from unknown vault {}", pkt.src);
                return self.drop_result(pkt, "write-back from an unknown vault");
            }
            let cursor = self.foreign_cursors[usize::from(pkt.src)].get_or_insert_with(|| {
                WritebackCursor::new(Arc::clone(&prog), pkt.src, self.vault)
            });
            let Some((_, addr)) = cursor.next() else {
                debug_assert!(self.lenient, "unexpected extra foreign write-back");
                return self.drop_result(pkt, "unexpected extra foreign write-back");
            };
            self.queue_write(addr, pkt.data, now);
            self.foreign_remaining -= 1;
        }
    }

    /// Handles a completion from this PNG's physical channel (dispatched by
    /// the system by tag).
    ///
    /// A completion whose tag this PNG never issued is a counted drop in
    /// lenient mode (see [`set_lenient`](Self::set_lenient)).
    ///
    /// # Panics
    ///
    /// In strict debug builds, panics on a completion whose tag this PNG
    /// never issued.
    pub fn on_completion(&mut self, tag: u64, data: u64) {
        if tag & WRITE_TAG == WRITE_TAG {
            if self.outstanding_writes == 0 {
                debug_assert!(self.lenient, "write completion with none outstanding");
                return self.drop_completion(tag, "no write is outstanding");
            }
            self.outstanding_writes -= 1;
            return;
        }
        let Some((word, mut evs)) = self.inflight.remove(&tag) else {
            debug_assert!(self.lenient, "completion for unknown tag {tag:#x}");
            return self.drop_completion(tag, "completion for unknown tag");
        };
        self.outstanding_reads -= 1;
        for ev in evs.drain(..) {
            let shift = (ev.addr - word) * 8;
            let payload = ((data >> shift) & 0xFFFF) as u16;
            if payload == 0 {
                // Zero-operand classification by stream kind (a DRAM read
                // only ever produces operand packets, never Results).
                if ev.kind == PacketKind::Weight {
                    self.stats.zero_weight_operands += 1;
                } else {
                    self.stats.zero_state_operands += 1;
                }
            }
            self.out_queue.push_back(Packet {
                dst: ev.dst,
                src: self.hookup.attach,
                mac_id: ev.mac_id,
                op_id: ev.op_id,
                kind: ev.kind,
                data: payload,
            });
            self.stats.operands_sent += 1;
        }
        if self.spare_batches.len() < 64 {
            self.spare_batches.push(evs);
        }
    }

    /// The tag namespace marker for this PNG (high 16 bits).
    fn tag_base(&self) -> u64 {
        u64::from(self.vault) << 48
    }

    /// The vault id encoded in a request tag (for system-level dispatch).
    pub fn vault_of_tag(tag: u64) -> NodeId {
        (tag >> 48) as NodeId
    }

    /// Advances one reference cycle: issues DRAM writes and prefetch
    /// reads. (Channel ticking, completion dispatch and NoC injection are
    /// the system's job — channels and attach nodes may be shared.)
    ///
    /// `progress` is the system's canonical per-PE operation-counter array
    /// (the credit-return path of the run-ahead flow control): the PNG
    /// reads it in place rather than holding a per-PNG mirror, so the
    /// credit "broadcast" is one shared slice instead of sixteen copies.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem, progress: &[u64]) {
        if self.prog.is_none() {
            return;
        }
        let region = u32::from(self.vault);
        self.flush_stale_pair(now);

        // 1. Issue queued DRAM writes (priority over reads so write-back
        //    never deadlocks behind the operand stream).
        while !self.pending_writes.is_empty() && mem.free_slots(region) > 0 {
            let (addr, data) = self.pending_writes[0];
            let (req, skip) = if addr & 1 == 1 {
                let (a2, d2) = self.pending_writes[1];
                debug_assert_eq!(a2 & !1, (addr & !1) + 2);
                (
                    Request {
                        addr: addr & !1,
                        tag: self.tag_base() | WRITE_TAG,
                        kind: RequestKind::Write(u64::from(data) | (u64::from(d2) << 16)),
                    },
                    2,
                )
            } else {
                (
                    Request {
                        addr,
                        tag: self.tag_base() | WRITE_TAG,
                        kind: RequestKind::Write16(data),
                    },
                    1,
                )
            };
            if mem.try_enqueue(region, req) {
                for _ in 0..skip {
                    self.pending_writes.pop_front();
                }
                self.outstanding_writes += 1;
                self.stats.writes_issued += 1;
            } else {
                break;
            }
        }

        // 2. Issue prefetch reads: group stream operands sharing one
        //    channel word into a single request (§V-B: "the PNG receives
        //    32 bit data and encapsulates that into two packets").
        let word_mask = !(self.hookup.word_bytes - 1);
        loop {
            if self.out_queue.len() >= OUT_QUEUE_CAP / 2 {
                if self.stream.as_ref().is_some_and(|st| !st.is_exhausted()) {
                    self.stats.outq_stalls += 1;
                }
                break;
            }
            if self.outstanding_reads >= self.hookup.max_outstanding_reads {
                break;
            }
            if mem.free_slots(region) == 0 {
                self.stats.queue_stalls += 1;
                break;
            }
            let group = match self.pending_group.take() {
                Some(g) => {
                    // Held-batch fast recheck: the cached per-destination
                    // minima decide "still fully gated" without touching
                    // the batch itself.
                    if !self.pending_gate.is_empty() && self.held_still_gated(progress) {
                        self.pending_group = Some(g);
                        self.stats.gate_stalls += 1;
                        break;
                    }
                    self.pending_gate.clear();
                    g
                }
                None => {
                    let first = match self
                        .pending_event
                        .take()
                        .or_else(|| self.stream.as_mut().and_then(OperandStream::next))
                    {
                        Some(e) => e,
                        None => break,
                    };
                    let word = first.addr & word_mask;
                    let mut evs = self
                        .spare_batches
                        .pop()
                        .unwrap_or_else(|| Vec::with_capacity(16));
                    evs.push(first);
                    while evs.len() < 16 {
                        match self.stream.as_mut().and_then(OperandStream::next) {
                            Some(e) if e.addr & word_mask == word => evs.push(e),
                            Some(e) => {
                                self.pending_event = Some(e);
                                break;
                            }
                            None => break,
                        }
                    }
                    (word, evs)
                }
            };
            // Run-ahead gate: hold the stream (in order) until every
            // destination PE is close enough for its cache to absorb the
            // batch. A word batch can merge operands for *different* PEs
            // (adjacent pixels on a tile boundary), so every event must
            // pass — gating only the head would leak a neighbour's operand
            // hundreds of operations early and alias its OP-ID in the
            // receiving PE's cache.
            let gated = group.1.iter().filter(|ev| self.gated(ev, progress)).count();
            if gated == group.1.len() {
                // Nothing in the batch may fly yet; hold it (in order).
                self.note_held(&group.1);
                self.pending_group = Some(group);
                self.stats.gate_stalls += 1;
                break;
            }
            let group = if gated == 0 {
                // Common case: the whole batch flies, nothing to allocate.
                group
            } else {
                // A word batch can weld a currently-needed operand to one
                // many operations ahead (adjacent addresses, e.g. the same
                // pixel of different feature maps). Split it: fetch the word
                // now for the releasable operands and re-fetch it later for
                // the held ones — holding the whole batch would deadlock
                // (the PE cannot progress without the needed operand), and
                // releasing the future ones would alias OP-IDs in the PE
                // cache. Per-destination ordering is preserved because
                // `global_op` is monotone along the stream for each PE.
                let (word, mut evs) = group;
                let mut pass = self
                    .spare_batches
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(16));
                let mut held = self
                    .spare_batches
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(16));
                for ev in evs.drain(..) {
                    if self.gated(&ev, progress) {
                        held.push(ev);
                    } else {
                        pass.push(ev);
                    }
                }
                if self.spare_batches.len() < 64 {
                    self.spare_batches.push(evs);
                }
                self.note_held(&held);
                self.pending_group = Some((word, held));
                (word, pass)
            };
            let tag = self.tag_base() | self.next_seq;
            let req = Request {
                addr: group.0,
                tag,
                kind: RequestKind::Read,
            };
            if mem.try_enqueue(region, req) {
                self.next_seq += 1;
                debug_assert!(self.next_seq & WRITE_TAG != WRITE_TAG);
                self.inflight.insert(tag, group);
                self.outstanding_reads += 1;
                self.stats.reads_issued += 1;
            } else {
                self.pending_group = Some(group);
                break;
            }
        }
    }

    /// Run-ahead gate predicate: `true` when the destination PE is too far
    /// behind for its operand cache to absorb this event yet (§V-B). Shared
    /// by [`tick`](Self::tick)'s batch partition and the event-horizon
    /// classifier so the two can never disagree. `progress` is the shared
    /// per-PE counter array; an out-of-range destination reads as
    /// `u64::MAX` ("no such PE"), which never gates.
    fn gated(&self, ev: &OperandEvent, progress: &[u64]) -> bool {
        let progress = progress
            .get(usize::from(ev.dst))
            .copied()
            .unwrap_or(u64::MAX);
        progress != u64::MAX && ev.global_op > progress + self.hookup.run_ahead_ops
    }

    /// Rebuilds [`pending_gate`](Self::pending_gate) for a batch about to
    /// be held fully gated: per destination, the minimum `global_op` among
    /// its events (a word batch almost always targets one PE, so this is
    /// usually a single entry).
    fn note_held(&mut self, evs: &[OperandEvent]) {
        self.pending_gate.clear();
        for ev in evs {
            match self.pending_gate.iter_mut().find(|(d, _)| *d == ev.dst) {
                Some((_, min_op)) => *min_op = (*min_op).min(ev.global_op),
                None => self.pending_gate.push((ev.dst, ev.global_op)),
            }
        }
    }

    /// `true` while the held batch is still fully gated — equivalent to
    /// `evs.iter().all(gated)` because per destination "every event
    /// gated" is exactly "the minimum `global_op` gated".
    fn held_still_gated(&self, progress: &[u64]) -> bool {
        self.pending_gate.iter().all(|&(dst, min_op)| {
            let pr = progress.get(usize::from(dst)).copied().unwrap_or(u64::MAX);
            pr != u64::MAX && min_op > pr + self.hookup.run_ahead_ops
        })
    }

    /// Classifies what [`tick`](Self::tick)'s prefetch-read loop would do
    /// *right now*, mirroring its break chain exactly (same checks, same
    /// order). Used by [`next_event`](Self::next_event) to decide whether a
    /// tick is null and by [`skip`](Self::skip) to bulk-charge the stall
    /// counter the naive loop would have incremented each cycle.
    fn read_path_state(&self, mem: &MemorySystem, progress: &[u64]) -> ReadPath {
        if self.out_queue.len() >= OUT_QUEUE_CAP / 2 {
            return ReadPath::OutqStall {
                live: self.stream.as_ref().is_some_and(|st| !st.is_exhausted()),
            };
        }
        if self.outstanding_reads >= self.hookup.max_outstanding_reads {
            return ReadPath::Idle;
        }
        if mem.free_slots(u32::from(self.vault)) == 0 {
            return ReadPath::QueueStall;
        }
        if let Some((_, evs)) = &self.pending_group {
            let all_gated = if self.pending_gate.is_empty() {
                evs.iter().all(|ev| self.gated(ev, progress))
            } else {
                self.held_still_gated(progress)
            };
            if all_gated {
                return ReadPath::GateStall;
            }
            return ReadPath::Active;
        }
        // With no held batch, any available event would be *taken* this
        // tick (group acquisition mutates the stream even if the result
        // ends up gated), so a live stream or buffered event means the
        // tick is not null.
        if self.pending_event.is_some() || self.stream.as_ref().is_some_and(|st| !st.is_exhausted())
        {
            return ReadPath::Active;
        }
        ReadPath::Idle
    }

    /// The earliest future cycle at which [`tick`](Self::tick) could change
    /// state, or `None` if the tick at `now` is already non-null (the
    /// event-horizon contract; see `neurocube-sim`'s `Clocked::next_event`).
    ///
    /// `Some(t)` promises ticks in `[now, t)` only increment stall
    /// counters, which [`skip`](Self::skip) bulk-charges. Completions,
    /// ejected results and credit returns arrive through separate entry
    /// points whose quiescence the *system* stages account for.
    pub fn next_event(&self, now: u64, mem: &MemorySystem, progress: &[u64]) -> Option<u64> {
        if self.prog.is_none() {
            return Some(u64::MAX);
        }
        let mut horizon = u64::MAX;
        if let Some((_, _, at)) = self.write_pair {
            if now > at {
                // flush_stale_pair moves the pair this very tick.
                return None;
            }
            horizon = at + 1;
        }
        if !self.pending_writes.is_empty() && mem.free_slots(u32::from(self.vault)) > 0 {
            return None;
        }
        if matches!(self.read_path_state(mem, progress), ReadPath::Active) {
            return None;
        }
        Some(horizon)
    }

    /// Reproduces the effect of ticking every cycle in `[from, to)` given
    /// that [`next_event`](Self::next_event) reported all of them null:
    /// bulk-charges whichever stall counter the naive loop was
    /// incrementing.
    pub fn skip(&mut self, from: u64, to: u64, mem: &MemorySystem, progress: &[u64]) {
        if self.prog.is_none() {
            return;
        }
        let cycles = to - from;
        match self.read_path_state(mem, progress) {
            ReadPath::OutqStall { live: true } => self.stats.outq_stalls += cycles,
            ReadPath::QueueStall => self.stats.queue_stalls += cycles,
            ReadPath::GateStall => self.stats.gate_stalls += cycles,
            ReadPath::OutqStall { live: false } | ReadPath::Idle => {}
            ReadPath::Active => unreachable!("skip() over a non-null PNG tick"),
        }
    }

    /// Whether the next injection comes from the replication (copy) queue
    /// rather than the operand queue: round-robin between the two, falling
    /// back to whichever is non-empty.
    fn inject_from_copies(&self) -> bool {
        match (self.copy_queue.is_empty(), self.out_queue.is_empty()) {
            (false, true) => true,
            (false, false) => self.inject_toggle,
            _ => false,
        }
    }

    /// The next packet ready for NoC injection, if any. The *system*
    /// injects (one packet per mesh node per cycle, arbitrating between
    /// PNGs that share an attach node on a low-channel-count memory).
    /// Operand packets and duplication copies share the injection port
    /// round-robin.
    pub fn peek_outgoing(&self) -> Option<&Packet> {
        if self.inject_from_copies() {
            self.copy_queue.front()
        } else {
            self.out_queue.front()
        }
    }

    /// Removes the packet returned by [`peek_outgoing`](Self::peek_outgoing)
    /// after a successful injection.
    pub fn pop_outgoing(&mut self) -> Option<Packet> {
        let from_copies = self.inject_from_copies();
        self.inject_toggle = !self.inject_toggle;
        if from_copies {
            self.copy_queue.pop_front()
        } else {
            self.out_queue.pop_front()
        }
    }

    /// Records one cycle of injection backpressure (statistics).
    pub fn note_inject_stall(&mut self) {
        self.stats.inject_stalls += 1;
    }
}

impl StatSource for Png {
    fn report(&self, stats: &mut ScopedStats<'_>) {
        stats.counter("operands_sent", self.stats.operands_sent);
        stats.counter("reads_issued", self.stats.reads_issued);
        stats.counter("writebacks_received", self.stats.writebacks_received);
        stats.counter("copies_forwarded", self.stats.copies_forwarded);
        stats.counter("writes_issued", self.stats.writes_issued);
        stats.counter("inject_stalls", self.stats.inject_stalls);
        stats.counter("gate_stalls", self.stats.gate_stalls);
        stats.counter("queue_stalls", self.stats.queue_stalls);
        stats.counter("outq_stalls", self.stats.outq_stalls);
        stats.counter("zero_state_operands", self.stats.zero_state_operands);
        stats.counter("zero_weight_operands", self.stats.zero_weight_operands);
        stats.counter("zero_activations", self.stats.zero_activations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::compile_graph;
    use crate::program::{load_volume, read_volume, Mapping};
    use neurocube_dram::MemoryConfig;
    use neurocube_fixed::Activation;
    use neurocube_nn::{LayerSpec, NetworkSpec, Shape, Tensor};
    use neurocube_noc::{Network, Topology};

    /// The one phase of single-layer `net`, compiled with duplication.
    fn compile_dup(net: &NetworkSpec, map_cfg: &MemoryConfig) -> Arc<LayerProgram> {
        let prog = compile_graph(
            &net.to_graph(),
            Mapping::paper(true),
            &map_cfg.address_map(),
        )
        .unwrap();
        Arc::clone(&prog.phases[0])
    }

    /// A miniature end-to-end harness: PNGs + NoC, with a *perfect* PE stub
    /// that instantly bounces back results — exercising the PNG's fetch,
    /// packetize, inject and write-back machinery in isolation (full PE
    /// integration lives in the core crate).
    #[test]
    fn png_streams_all_operands_for_dup_conv() {
        let net = NetworkSpec::new(
            Shape::new(1, 8, 8),
            vec![LayerSpec::conv(1, 3, Activation::Identity)],
        )
        .unwrap();
        let map_cfg = MemoryConfig::hmc_int();
        let prog = compile_dup(&net, &map_cfg);
        let mut mem = MemorySystem::new(map_cfg);
        let mut net_fab = Network::new(Topology::mesh4x4());

        let input = Tensor::from_vec(1, 8, 8, (0..64).map(|i| Q88::from_bits(i as i16)).collect());
        load_volume(&prog.in_vol, input.as_slice(), 16, mem.storage_mut()).unwrap();

        let mut pngs: Vec<Png> = (0..16u8).map(Png::hmc).collect();
        for p in &mut pngs {
            p.configure(Arc::clone(&prog));
        }

        let mut received = vec![0u64; 16];
        let mut group_ops: Vec<u64> = vec![0; 16];
        let mut groups_sent = [0u64; 16];
        for now in 0..200_000u64 {
            for p in &mut pngs {
                p.tick(now, &mut mem, &[]);
                if let Some(&pkt) = p.peek_outgoing() {
                    if net_fab.try_inject_from_mem(p.attach(), pkt, now) {
                        p.pop_outgoing();
                    }
                }
            }
            for ch in 0..16 {
                if let Some(c) = mem.tick_channel(ch, now) {
                    let v = Png::vault_of_tag(c.tag);
                    pngs[usize::from(v)].on_completion(c.tag, c.data);
                }
            }
            // Drain mem ports into owning PNGs.
            for node in 0..16u8 {
                if let Some(&pkt) = net_fab.peek_for_mem(node, now) {
                    if pngs[usize::from(node)].can_take_result(pkt.src) {
                        let pkt = net_fab.pop_for_mem(node, now).unwrap();
                        pngs[usize::from(node)].on_result(pkt, now);
                    }
                }
            }
            net_fab.tick(now);
            for node in 0..16u8 {
                if let Some(pkt) = net_fab.pop_for_pe(node, now) {
                    assert_eq!(pkt.dst, node);
                    received[usize::from(node)] += 1;
                    group_ops[usize::from(node)] += 1;
                    if let Some(cfg) = prog.pe_config(node) {
                        let g = groups_sent[usize::from(node)];
                        if g < prog.groups_of(node) {
                            let expected =
                                u64::from(cfg.active_macs(g)) * u64::from(cfg.conns_per_neuron);
                            if group_ops[usize::from(node)] == expected {
                                group_ops[usize::from(node)] = 0;
                                for m in 0..cfg.active_macs(g) {
                                    let r = Packet {
                                        dst: node,
                                        src: node,
                                        mac_id: m as u8,
                                        op_id: (g % 256) as u8,
                                        kind: PacketKind::Result,
                                        data: Q88::from_f64(1.0).to_bits() as u16,
                                    };
                                    assert!(net_fab.try_inject_from_pe(node, r, now));
                                }
                                groups_sent[usize::from(node)] += 1;
                            }
                        }
                    }
                }
            }
            if pngs.iter().all(Png::layer_done) && net_fab.is_idle() {
                break;
            }
        }
        assert!(
            pngs.iter().all(Png::layer_done),
            "PNGs did not finish: received {received:?}"
        );
        let total: u64 = received.iter().sum();
        assert_eq!(total, net.macs_per_layer()[0]);
        let out = read_volume(&prog.out_vol, mem.storage());
        assert!(out.iter().all(|&q| q == Q88::from_f64(1.0)));
        let reads: u64 = pngs.iter().map(|p| p.stats().reads_issued).sum();
        assert!(reads < total, "reads {reads} should pack operands {total}");
    }

    /// The de-panicked paths: malformed packets and spurious completions
    /// must become counted drops in lenient mode, never crashes, and must
    /// leave the PNG able to operate normally.
    #[test]
    fn lenient_mode_counts_drops_instead_of_panicking() {
        let mut png = Png::hmc(0);
        png.set_lenient(true);
        // Unconfigured: any mem-port packet is dropped.
        let stray = Packet {
            dst: 0,
            src: 3,
            mac_id: 0,
            op_id: 0,
            kind: PacketKind::Result,
            data: 7,
        };
        png.on_result(stray, 5);
        assert_eq!(png.dropped_packets(), 1);
        // Spurious completions: unknown read tag, write with none pending.
        png.on_completion(0x1234, 0);
        png.on_completion(WRITE_TAG, 0);
        assert_eq!(png.unknown_completions(), 2);

        // Configure, then feed write-backs from impossible sources.
        let net = NetworkSpec::new(
            Shape::new(1, 8, 8),
            vec![LayerSpec::conv(1, 3, Activation::Identity)],
        )
        .unwrap();
        let map_cfg = MemoryConfig::hmc_int();
        let prog = compile_dup(&net, &map_cfg);
        png.configure(Arc::clone(&prog));
        let from_mars = Packet { src: 200, ..stray };
        png.on_result(from_mars, 6);
        let wrong_kind = Packet {
            kind: PacketKind::State,
            ..stray
        };
        png.on_result(wrong_kind, 7);
        assert_eq!(png.dropped_packets(), 3);
        assert!(!png.layer_done(), "drops must not fake completion");
    }

    /// Per-tick audit of the event-horizon contract: whenever `next_event`
    /// reports the coming tick null, a one-cycle `skip` must charge exactly
    /// the stall counters the naive tick then increments — and the tick
    /// must touch nothing else.
    #[test]
    fn next_event_null_ticks_match_skip_charges() {
        fn stall_delta(a: &PngStats, b: &PngStats) -> (u64, u64, u64) {
            (
                b.gate_stalls - a.gate_stalls,
                b.queue_stalls - a.queue_stalls,
                b.outq_stalls - a.outq_stalls,
            )
        }
        fn non_stall(s: &PngStats) -> PngStats {
            PngStats {
                gate_stalls: 0,
                queue_stalls: 0,
                outq_stalls: 0,
                ..*s
            }
        }

        let net = NetworkSpec::new(
            Shape::new(1, 8, 8),
            vec![LayerSpec::conv(1, 3, Activation::Identity)],
        )
        .unwrap();
        let map_cfg = MemoryConfig::hmc_int();
        let prog = compile_dup(&net, &map_cfg);
        let mut mem = MemorySystem::new(map_cfg);
        let mut net_fab = Network::new(Topology::mesh4x4());

        let input = Tensor::from_vec(1, 8, 8, (0..64).map(|i| Q88::from_bits(i as i16)).collect());
        load_volume(&prog.in_vol, input.as_slice(), 16, mem.storage_mut()).unwrap();

        let mut pngs: Vec<Png> = (0..16u8).map(Png::hmc).collect();
        for p in &mut pngs {
            p.configure(Arc::clone(&prog));
        }

        let mut null_ticks = 0u64;
        let mut group_ops: Vec<u64> = vec![0; 16];
        let mut groups_sent = [0u64; 16];
        for now in 0..200_000u64 {
            for p in &mut pngs {
                let before = *p.stats();
                match p.next_event(now, &mem, &[]) {
                    Some(horizon) => {
                        assert!(
                            horizon > now,
                            "horizon {horizon} not in the future of {now}"
                        );
                        null_ticks += 1;
                        p.skip(now, now + 1, &mem, &[]);
                        let mid = *p.stats();
                        p.tick(now, &mut mem, &[]);
                        let after = *p.stats();
                        assert_eq!(
                            stall_delta(&before, &mid),
                            stall_delta(&mid, &after),
                            "skip charge differs from the naive tick at cycle {now}"
                        );
                        assert_eq!(
                            non_stall(&before),
                            non_stall(&after),
                            "null tick at {now} changed a non-stall counter"
                        );
                    }
                    None => p.tick(now, &mut mem, &[]),
                }
                if let Some(&pkt) = p.peek_outgoing() {
                    if net_fab.try_inject_from_mem(p.attach(), pkt, now) {
                        p.pop_outgoing();
                    }
                }
            }
            for ch in 0..16 {
                if let Some(c) = mem.tick_channel(ch, now) {
                    let v = Png::vault_of_tag(c.tag);
                    pngs[usize::from(v)].on_completion(c.tag, c.data);
                }
            }
            for node in 0..16u8 {
                if let Some(&pkt) = net_fab.peek_for_mem(node, now) {
                    if pngs[usize::from(node)].can_take_result(pkt.src) {
                        let pkt = net_fab.pop_for_mem(node, now).unwrap();
                        pngs[usize::from(node)].on_result(pkt, now);
                    }
                }
            }
            net_fab.tick(now);
            for node in 0..16u8 {
                if let Some(pkt) = net_fab.pop_for_pe(node, now) {
                    group_ops[usize::from(node)] += 1;
                    if let Some(cfg) = prog.pe_config(node) {
                        let g = groups_sent[usize::from(node)];
                        if g < prog.groups_of(node) {
                            let expected =
                                u64::from(cfg.active_macs(g)) * u64::from(cfg.conns_per_neuron);
                            if group_ops[usize::from(node)] == expected {
                                group_ops[usize::from(node)] = 0;
                                for m in 0..cfg.active_macs(g) {
                                    let r = Packet {
                                        dst: node,
                                        src: node,
                                        mac_id: m as u8,
                                        op_id: (g % 256) as u8,
                                        kind: PacketKind::Result,
                                        data: Q88::from_f64(1.0).to_bits() as u16,
                                    };
                                    assert!(net_fab.try_inject_from_pe(node, r, now));
                                }
                                groups_sent[usize::from(node)] += 1;
                            }
                        }
                    }
                    let _ = pkt;
                }
            }
            if pngs.iter().all(Png::layer_done) && net_fab.is_idle() {
                break;
            }
        }
        assert!(pngs.iter().all(Png::layer_done), "PNGs did not finish");
        assert!(null_ticks > 0, "harness never exercised a null tick");
    }
}
