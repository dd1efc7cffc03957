//! Per-vault operand streams and write-back cursors — the PNG's three
//! nested counters (Fig. 8(b)/(d)) with the vault-ownership filter.
//!
//! All 16 PNGs conceptually run the *same* global schedule — for every
//! lockstep step `(group, connection)` and every PE — but each emits only
//! the operands its own vault stores. Exactly one vault emits each operand
//! (a PE's own copy is preferred when duplication provides one), so the
//! union of the 16 streams is precisely the layer's operand set, in an
//! order that keeps every PE's operation counter advancing.

use crate::program::LayerProgram;
use neurocube_nn::{connections, ConvConnectivity, LayerSpec};
use neurocube_noc::{NodeId, PacketKind};
use neurocube_pe::N_MAC;
use std::sync::Arc;

/// One operand the vault must fetch from DRAM and packetize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperandEvent {
    /// DRAM byte address of the 16-bit operand in this vault.
    pub addr: u64,
    /// Destination PE.
    pub dst: NodeId,
    /// Target MAC.
    pub mac_id: u8,
    /// Operation sequence number (mod 256).
    pub op_id: u8,
    /// The full (unwrapped) cumulative operation index at the destination
    /// PE — used for credit-based run-ahead flow control so a vault can
    /// never overflow a PE's cache sub-banks (see [`Png`](crate::Png)).
    pub global_op: u64,
    /// State / shared-state / weight.
    pub kind: PacketKind,
}

/// Per-destination counters maintained incrementally as the stream's
/// `(group, connection)` step advances — the `fill_for` division chains
/// (`g / gpm`, `g % gpm`, `rem0 / rw`, …) hoisted into O(1)-per-step
/// updates. Runtime-divisor `div`/`%` cost ~25 cycles each on the
/// simulation host and `fill_for` runs once per destination per step
/// (usually emitting nothing after the remote batch rejection), so the
/// prologue divisions dominated operand generation.
#[derive(Clone, Copy, Debug)]
struct ServeCursor {
    /// Output neurons per map assigned to this destination (layer
    /// constant, > 0 for every served PE).
    per_map: u64,
    /// Groups per map, `per_map.div_ceil(N_MAC)` (layer constant).
    gpm: u64,
    /// Groups this destination participates in, `gpm * maps` (layer
    /// constant); the cursor is stale and unused once `g` passes it.
    groups_p: u64,
    /// `g / gpm` — the current output map.
    map: u64,
    /// `g % gpm` — the group index within the map.
    gin: u64,
    /// `map % in_channels` (the `SingleMap` input channel); maintained
    /// for every stream, read only under that connectivity.
    icm: u64,
    /// Index (within the map) of the group's last neuron,
    /// `gin * N_MAC + active - 1` (spatial streams only).
    last_idx: u64,
    /// The destination's owned output rectangle (spatial streams only):
    /// `y0`, `x0`, `x1`.
    ry0: usize,
    rx0: usize,
    rx1: usize,
    /// Coordinates of the group's first neuron, `rem0 = gin * N_MAC`,
    /// within the owned rectangle (spatial streams only).
    oy0: usize,
    ox0: usize,
    /// Coordinates of `last_idx` (spatial streams only).
    oy_hi: usize,
    ox_hi: usize,
}

impl ServeCursor {
    /// Advances a row-major position inside the owned rectangle by `d`
    /// neurons. `d` is at most `N_MAC` (16), so the carry loop beats a
    /// division even for single-column rectangles.
    fn advance(&self, oy: &mut usize, ox: &mut usize, d: u64) {
        let rw = self.rx1 - self.rx0;
        *ox += d as usize;
        while *ox >= self.rx1 {
            *ox -= rw;
            *oy += 1;
        }
    }
}

/// How the spatial fast path derives the input channel from the cached
/// counters (layer constant).
#[derive(Clone, Copy, Debug)]
enum SpatialIc {
    /// `Conv2d` with `SingleMap` connectivity: `map % in_channels`
    /// (the cursor's `icm`).
    Single,
    /// `Conv2d` with `AllMaps` connectivity: `k / kernel²` (the stream's
    /// cached `kch`).
    All,
    /// `AvgPool`: the output map itself.
    Pool,
}

/// Lazily generated operand stream of one vault for one layer.
#[derive(Clone, Debug)]
pub struct OperandStream {
    prog: Arc<LayerProgram>,
    vault: NodeId,
    /// PEs this vault can possibly serve (ownership pre-filter).
    serves: Vec<NodeId>,
    /// Incremental per-destination counters, parallel to `serves`.
    cursors: Vec<ServeCursor>,
    g: u64,
    k: u32,
    pi: usize,
    max_groups: u64,
    conns: u32,
    /// Layer-constant admission of the conv/pool spatial fast path
    /// (spatial in/out volumes, untruncated output shape).
    spatial_ok: bool,
    /// Kernel geometry for the spatial path (1/1 otherwise, unused).
    kernel: usize,
    stride: usize,
    ic_mode: SpatialIc,
    /// `k`-derived kernel offsets, advanced with `k`: `rk = k % kernel²`,
    /// `ky = rk / kernel`, `kx = rk % kernel`, `kch = k / kernel²`.
    rk: u32,
    ky: usize,
    kx: usize,
    kch: usize,
    /// One `(g, k)` step's events, batch-generated into a flat buffer that
    /// `next` drains by cursor; the allocation is reused for every step, so
    /// steady-state streaming never touches the allocator.
    buf: Vec<OperandEvent>,
    cursor: usize,
    emitted: u64,
}

impl OperandStream {
    /// Builds the stream for `vault`.
    pub fn new(prog: Arc<LayerProgram>, vault: NodeId) -> OperandStream {
        let vaults = prog.mapping.vaults() as u8;
        let serves: Vec<NodeId> = (0..vaults)
            .filter(|&p| may_serve(&prog, vault, p))
            .collect();
        // A vault that serves nobody (e.g. an idle corner of a tiny FC
        // layer) has an empty stream.
        let max_groups = if serves.is_empty() {
            0
        } else {
            prog.max_groups()
        };
        let (spatial_ok, kernel, stride, ic_mode) = Self::spatial_admission(&prog);
        let maps = prog.out_vol.maps();
        let cursors = serves
            .iter()
            .map(|&p| {
                use crate::layout::VolumeKind;
                let per_map = prog.out_vol.assigned_per_map(p);
                let gpm = per_map.div_ceil(N_MAC);
                let (ry0, rx0, rx1) = match &prog.out_vol.kind {
                    VolumeKind::Spatial { owned, .. } if spatial_ok => {
                        let r = owned[usize::from(p)];
                        (r.y0, r.x0, r.x1)
                    }
                    _ => (0, 0, 1),
                };
                let mut cur = ServeCursor {
                    per_map,
                    gpm,
                    groups_p: gpm * maps,
                    map: 0,
                    gin: 0,
                    icm: 0,
                    last_idx: N_MAC.min(per_map) - 1,
                    ry0,
                    rx0,
                    rx1,
                    oy0: ry0,
                    ox0: rx0,
                    oy_hi: ry0,
                    ox_hi: rx0,
                };
                if spatial_ok {
                    let (mut oy, mut ox) = (ry0, rx0);
                    cur.advance(&mut oy, &mut ox, cur.last_idx);
                    cur.oy_hi = oy;
                    cur.ox_hi = ox;
                }
                cur
            })
            .collect();
        OperandStream {
            max_groups,
            conns: prog.conns(),
            prog,
            vault,
            serves,
            cursors,
            g: 0,
            k: 0,
            pi: 0,
            spatial_ok,
            kernel,
            stride,
            ic_mode,
            rk: 0,
            ky: 0,
            kx: 0,
            kch: 0,
            buf: Vec::new(),
            cursor: 0,
            emitted: 0,
        }
    }

    /// Layer-constant half of the spatial fast path's admission test (the
    /// per-call half is gone: everything it checked is invariant across
    /// the stream).
    fn spatial_admission(prog: &LayerProgram) -> (bool, usize, usize, SpatialIc) {
        use crate::layout::VolumeKind;
        let (kernel, stride, ic_mode) = match prog.layer {
            LayerSpec::Conv2d {
                kernel,
                stride,
                connectivity,
                ..
            } => {
                let mode = match connectivity {
                    ConvConnectivity::SingleMap => SpatialIc::Single,
                    ConvConnectivity::AllMaps => SpatialIc::All,
                };
                (kernel, stride, mode)
            }
            LayerSpec::AvgPool { size } => (size, size, SpatialIc::Pool),
            LayerSpec::Eltwise { .. } | LayerSpec::FullyConnected { .. } => {
                return (false, 1, 1, SpatialIc::Pool);
            }
        };
        let spatial = matches!(prog.out_vol.kind, VolumeKind::Spatial { .. })
            && matches!(prog.in_vol.kind, VolumeKind::Spatial { .. })
            && prog.out_vol.shape == prog.out_shape;
        (spatial, kernel, stride, ic_mode)
    }

    /// Operands emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// `true` once the stream is exhausted (after `next` returned `None`).
    pub(crate) fn is_exhausted(&self) -> bool {
        self.g >= self.max_groups && self.cursor >= self.buf.len()
    }

    fn fill_for(&mut self, si: usize) {
        let p = self.serves[si];
        let cur = self.cursors[si];
        if self.g >= cur.groups_p {
            return;
        }
        let prog = &self.prog;
        let (gpm, gin, map) = (cur.gpm, cur.gin, cur.map);
        let active = if gin + 1 == gpm {
            (cur.per_map - (gpm - 1) * N_MAC) as u32
        } else {
            N_MAC as u32
        };
        // Cumulative operation counter mod 256 (§V-B). Counting across
        // neuron groups (not per group) is what keeps packets for the same
        // connection index of *different* groups distinguishable in the
        // PE's cache sub-banks.
        let global_op = self.g * u64::from(self.conns) + u64::from(self.k);
        let op_id = (global_op % 256) as u8;

        if prog.is_fc() {
            // Weights stream from the PE's own vault, transposed.
            if p == self.vault {
                let bases = prog
                    .weight_base
                    .as_ref()
                    .expect("FC layers have streamed weights");
                for m in 0..active {
                    // Group-blocked transposed layout (full groups are
                    // N_MAC wide, the trailing partial group is `active`
                    // wide): one group's weight stream is a single
                    // sequential DRAM run.
                    let addr = bases[usize::from(p)]
                        + 2 * (gin * u64::from(self.conns) * N_MAC
                            + u64::from(self.k) * u64::from(active)
                            + u64::from(m));
                    self.buf.push(OperandEvent {
                        addr,
                        dst: p,
                        mac_id: m as u8,
                        op_id,
                        global_op,
                        kind: PacketKind::Weight,
                    });
                }
            }
            // One shared state x_k per (group, k), from the PE's own copy if
            // duplication provides one, else from the owner vault.
            let idx = self.k as usize;
            let src = if prog.in_vol.local_addr(p, idx).is_some() {
                p
            } else {
                prog.in_vol.owner(idx)
            };
            if src == self.vault {
                let addr = prog
                    .in_vol
                    .local_addr(self.vault, idx)
                    .expect("source vault stores the operand");
                self.buf.push(OperandEvent {
                    addr,
                    dst: p,
                    mac_id: 0,
                    op_id,
                    global_op,
                    kind: PacketKind::SharedState,
                });
            }
        } else if !self.fill_conv_spatial(si, active, global_op, op_id) {
            // Conv/pool generic path: one state per MAC, each connection
            // resolved through the canonical `connections::resolve`. Only
            // reached for volume layouts the spatial fast path declines.
            let prog = &self.prog;
            for m in 0..active {
                let assigned = map * cur.per_map + gin * N_MAC + u64::from(m);
                let neuron = prog.out_vol.assigned_neuron(p, assigned);
                let conn =
                    connections::resolve(&prog.layer, prog.in_shape, neuron, self.k as usize);
                let src = if prog.in_vol.local_addr(p, conn.input_index).is_some() {
                    p
                } else {
                    prog.in_vol.owner(conn.input_index)
                };
                if src == self.vault {
                    let addr = prog
                        .in_vol
                        .local_addr(self.vault, conn.input_index)
                        .expect("source vault stores the operand");
                    self.buf.push(OperandEvent {
                        addr,
                        dst: p,
                        mac_id: m as u8,
                        op_id,
                        global_op,
                        kind: PacketKind::State,
                    });
                }
            }
        }
    }

    /// Conv/pool fast path for spatially tiled volumes — the generic loop
    /// above with the per-MAC division chains hoisted out, and the
    /// per-call prologue (`rem0 / rw`, `k % kernel²`, …) replaced by the
    /// incrementally maintained [`ServeCursor`] / kernel-offset state.
    ///
    /// Within one `(group, k)` batch the output channel is constant
    /// (`map`), so the kernel offset `(ky, kx)` and input channel are too,
    /// and the batch walks `p`'s owned output tile row-major from
    /// `gin * N_MAC`. The ownership filter collapses to rectangle tests:
    /// `p` serves itself exactly when its stored rectangle covers the
    /// input pixel, and a remote vault supplies it exactly when `p` lacks
    /// a copy and the pixel lies in the vault's owned tile (owners are
    /// unique and `stored ⊇ owned`, so "owner == vault" ⟺ the vault's
    /// owned rectangle contains the pixel). For remote pairs a whole batch
    /// is rejected in O(1) when its input row/column span misses the
    /// vault's tile — on a 4×4 grid that kills ~14 of the 16 `(vault, p)`
    /// combinations per step, which is where the bulk of the win over the
    /// per-MAC `resolve` path comes from.
    ///
    /// Returns `false` (caller falls back to the generic loop) for layouts
    /// it does not cover. Equivalence with the generic path is pinned by
    /// `spatial_fast_path_matches_resolve_oracle` below.
    fn fill_conv_spatial(&mut self, si: usize, active: u32, global_op: u64, op_id: u8) -> bool {
        use crate::layout::VolumeKind;
        if !self.spatial_ok {
            return false;
        }
        let cur = self.cursors[si];
        let p = self.serves[si];
        let prog = &self.prog;
        let ic = match self.ic_mode {
            SpatialIc::Single => cur.icm as usize,
            SpatialIc::All => self.kch,
            SpatialIc::Pool => cur.map as usize,
        };
        let (ky, kx, stride) = (self.ky, self.kx, self.stride);
        let VolumeKind::Spatial {
            owned: in_owned,
            stored: in_stored,
        } = &prog.in_vol.kind
        else {
            // `spatial_ok` admitted only spatial input volumes.
            return false;
        };
        let v = usize::from(self.vault);
        let (sv, ov, sp) = (in_stored[v], in_owned[v], in_stored[usize::from(p)]);
        let local = p == self.vault;
        let active = active as usize;
        let (mut oy, mut ox) = (cur.oy0, cur.ox0);
        if !local {
            // O(1) batch rejection: the input rows/columns this batch can
            // touch versus the vault's owned tile.
            let iy_lo = oy * stride + ky;
            let iy_hi = cur.oy_hi * stride + ky;
            let ix_lo = cur.rx0 * stride + kx;
            let ix_hi = (cur.rx1 - 1) * stride + kx;
            if iy_hi < ov.y0 || iy_lo >= ov.y1 || ix_hi < ov.x0 || ix_lo >= ov.x1 {
                return true;
            }
        }
        let (svh, svw) = (sv.height(), sv.width());
        let base = prog.in_vol.base[v] + 2 * (ic * svh * svw) as u64;
        for m in 0..active {
            let (iy, ix) = (oy * stride + ky, ox * stride + kx);
            let emit = if local {
                sv.contains(iy, ix)
            } else {
                ov.contains(iy, ix) && !sp.contains(iy, ix)
            };
            if emit {
                // `local_addr` of the vault's stored rectangle, with the
                // channel term folded into `base`.
                let addr = base + 2 * ((iy - sv.y0) * svw + (ix - sv.x0)) as u64;
                self.buf.push(OperandEvent {
                    addr,
                    dst: p,
                    mac_id: m as u8,
                    op_id,
                    global_op,
                    kind: PacketKind::State,
                });
            }
            ox += 1;
            if ox == cur.rx1 {
                ox = cur.rx0;
                oy += 1;
            }
        }
        true
    }

    /// Steps every destination's [`ServeCursor`] to the group `self.g`
    /// just advanced to — the incremental mirror of `map = g / gpm`,
    /// `gin = g % gpm` and the spatial coordinates derived from them.
    fn advance_cursors(&mut self) {
        let g = self.g;
        let spatial_ok = self.spatial_ok;
        let in_channels = self.prog.in_shape.channels as u64;
        for cur in &mut self.cursors {
            if g >= cur.groups_p {
                // Destination exhausted; `fill_for` no longer reads it.
                continue;
            }
            cur.gin += 1;
            if cur.gin == cur.gpm {
                cur.gin = 0;
                cur.map += 1;
                cur.icm += 1;
                if cur.icm == in_channels {
                    cur.icm = 0;
                }
                cur.last_idx = N_MAC.min(cur.per_map) - 1;
                if spatial_ok {
                    cur.oy0 = cur.ry0;
                    cur.ox0 = cur.rx0;
                    let (mut oy, mut ox) = (cur.ry0, cur.rx0);
                    cur.advance(&mut oy, &mut ox, cur.last_idx);
                    cur.oy_hi = oy;
                    cur.ox_hi = ox;
                }
            } else {
                let new_last = (cur.gin * N_MAC + N_MAC).min(cur.per_map) - 1;
                if spatial_ok {
                    let (mut oy, mut ox) = (cur.oy0, cur.ox0);
                    cur.advance(&mut oy, &mut ox, N_MAC);
                    cur.oy0 = oy;
                    cur.ox0 = ox;
                    let (mut oy, mut ox) = (cur.oy_hi, cur.ox_hi);
                    cur.advance(&mut oy, &mut ox, new_last - cur.last_idx);
                    cur.oy_hi = oy;
                    cur.ox_hi = ox;
                }
                cur.last_idx = new_last;
            }
        }
    }

    /// The next operand this vault must fetch, or `None` when the layer's
    /// stream is exhausted. (Deliberately inherent rather than an
    /// `Iterator` impl: callers treat this as an FSM step with state they
    /// also query between steps.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<OperandEvent> {
        loop {
            if self.cursor < self.buf.len() {
                let e = self.buf[self.cursor];
                self.cursor += 1;
                self.emitted += 1;
                return Some(e);
            }
            if self.g >= self.max_groups {
                return None;
            }
            self.buf.clear();
            self.cursor = 0;
            self.fill_for(self.pi);
            // Advance (p, k, g) — PE innermost so one (g, k) step feeds
            // every PE before the connection counter advances. The cached
            // kernel offsets and per-destination cursors advance with the
            // counters they mirror.
            self.pi += 1;
            if self.pi == self.serves.len() {
                self.pi = 0;
                self.k += 1;
                self.rk += 1;
                self.kx += 1;
                if self.kx == self.kernel {
                    self.kx = 0;
                    self.ky += 1;
                }
                if self.rk as usize == self.kernel * self.kernel {
                    self.rk = 0;
                    self.ky = 0;
                    self.kx = 0;
                    self.kch += 1;
                }
                if self.k == self.conns {
                    self.k = 0;
                    self.g += 1;
                    self.rk = 0;
                    self.ky = 0;
                    self.kx = 0;
                    self.kch = 0;
                    self.advance_cursors();
                }
            }
        }
    }
}

/// Can `vault` ever supply an operand to PE `p` in this layer?
fn may_serve(prog: &LayerProgram, vault: NodeId, p: NodeId) -> bool {
    if prog.out_vol.assigned_per_map(p) == 0 {
        return false;
    }
    if vault == p {
        return true;
    }
    if prog.is_fc() {
        // Weights always come from p itself; shared states come from their
        // owner unless p holds a duplicate copy of the whole input.
        return match &prog.in_vol.kind {
            crate::layout::VolumeKind::Flat { duplicated, .. } => !*duplicated,
            crate::layout::VolumeKind::Spatial { owned, stored } => {
                // Spatial input consumed by FC: p serves itself if it stores
                // everything; otherwise owners serve.
                stored[usize::from(p)].area() < prog.in_shape.height * prog.in_shape.width
                    && !owned[usize::from(vault)].is_empty()
            }
        };
    }
    // Conv/pool: vault serves p iff p lacks a stored copy of some input it
    // needs, i.e. p's needed input rectangle overlaps vault's owned tile
    // beyond p's stored rectangle.
    match (&prog.in_vol.kind, &prog.out_vol.kind) {
        (
            crate::layout::VolumeKind::Spatial { owned, stored },
            crate::layout::VolumeKind::Spatial {
                owned: out_owned, ..
            },
        ) => {
            let (k, s) = crate::layout::kernel_geometry(&prog.layer)
                .expect("spatial layer has kernel geometry");
            let need =
                crate::layout::input_rect_for(out_owned[usize::from(p)], k, s, prog.in_shape);
            let have = stored[usize::from(p)];
            let own = owned[usize::from(vault)];
            // Overlap of (need \ have) with own — conservative: overlap of
            // need with own, minus the case where own ⊆ have.
            rects_overlap(need, own)
                && !(own.y0 >= have.y0
                    && own.y1 <= have.y1
                    && own.x0 >= have.x0
                    && own.x1 <= have.x1)
        }
        _ => true,
    }
}

fn rects_overlap(a: crate::layout::Rect, b: crate::layout::Rect) -> bool {
    a.y0 < b.y1 && b.y0 < a.y1 && a.x0 < b.x1 && b.x0 < a.x1
}

/// Replays the write-back sequence of PE `src` filtered to the neurons that
/// vault `store` keeps a copy of, yielding each one's local DRAM address —
/// how a PNG maps an incoming `Result` packet to a write address without
/// the packet carrying one.
#[derive(Clone, Debug)]
pub(crate) struct WritebackCursor {
    prog: Arc<LayerProgram>,
    src: NodeId,
    store: NodeId,
    idx: u64,
    total: u64,
}

impl WritebackCursor {
    /// Builds the cursor for results of PE `src` landing in vault `store`.
    pub(crate) fn new(prog: Arc<LayerProgram>, src: NodeId, store: NodeId) -> WritebackCursor {
        WritebackCursor {
            total: prog.out_vol.assigned_count(src),
            prog,
            src,
            store,
            idx: 0,
        }
    }

    /// The next expected `(neuron, local write address)` pair, or `None`
    /// when `src` has no further results destined for `store`.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn next(&mut self) -> Option<(usize, u64)> {
        while self.idx < self.total {
            let neuron = self.prog.out_vol.assigned_neuron(self.src, self.idx);
            self.idx += 1;
            if let Some(addr) = self.prog.out_vol.local_addr(self.store, neuron) {
                return Some((neuron, addr));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::compile_graph;
    use crate::program::Mapping;
    use neurocube_dram::MemoryConfig;
    use neurocube_fixed::Activation;
    use neurocube_nn::{LayerSpec, NetworkSpec, Shape};

    /// Phase `index` of `net` compiled as its graph.
    fn compile(net: &NetworkSpec, duplicate: bool, index: usize) -> Arc<LayerProgram> {
        let map = MemoryConfig::hmc_int().address_map();
        let prog = compile_graph(&net.to_graph(), Mapping::paper(duplicate), &map).unwrap();
        Arc::clone(&prog.phases[index])
    }

    /// Drains all 16 vault streams and checks each PE receives exactly the
    /// operand count its configuration demands.
    fn check_conservation(prog: &Arc<LayerProgram>) -> Vec<Vec<OperandEvent>> {
        let mut all: Vec<Vec<OperandEvent>> = Vec::new();
        for v in 0..16u8 {
            let mut s = OperandStream::new(Arc::clone(prog), v);
            let mut evs = Vec::new();
            while let Some(e) = s.next() {
                evs.push(e);
            }
            assert!(s.is_exhausted());
            assert_eq!(s.emitted(), evs.len() as u64);
            all.push(evs);
        }
        let mut per_pe = [0u64; 16];
        for e in all.iter().flatten() {
            per_pe[usize::from(e.dst)] += 1;
        }
        for p in 0..16u8 {
            let expected = match prog.pe_config(p) {
                None => 0,
                Some(cfg) => {
                    if prog.is_fc() {
                        // 16 weights + 1 shared state per (group, k) step.
                        let mut total = 0u64;
                        for g in 0..prog.groups_of(p) {
                            total += (u64::from(cfg.active_macs(g)) + 1)
                                * u64::from(cfg.conns_per_neuron);
                        }
                        total
                    } else {
                        cfg.total_macs()
                    }
                }
            };
            assert_eq!(
                per_pe[usize::from(p)],
                expected,
                "PE {p} operand count mismatch"
            );
        }
        all
    }

    /// Independent re-derivation of one vault's stream with every operand
    /// resolved through the canonical `connections::resolve` / `owner` /
    /// `local_addr` chain — the oracle the spatial fast path must match
    /// event-for-event.
    fn oracle_events(prog: &Arc<LayerProgram>, vault: u8) -> Vec<OperandEvent> {
        let s = OperandStream::new(Arc::clone(prog), vault);
        let mut out = Vec::new();
        for g in 0..s.max_groups {
            for k in 0..s.conns {
                for &p in &s.serves {
                    let per_map = prog.out_vol.assigned_per_map(p);
                    if per_map == 0 {
                        continue;
                    }
                    let gpm = per_map.div_ceil(N_MAC);
                    if g >= gpm * prog.out_vol.maps() {
                        continue;
                    }
                    let (map, gin) = (g / gpm, g % gpm);
                    let active = if gin + 1 == gpm {
                        (per_map - (gpm - 1) * N_MAC) as u32
                    } else {
                        N_MAC as u32
                    };
                    let global_op = g * u64::from(s.conns) + u64::from(k);
                    let op_id = (global_op % 256) as u8;
                    for m in 0..active {
                        let assigned = map * per_map + gin * N_MAC + u64::from(m);
                        let neuron = prog.out_vol.assigned_neuron(p, assigned);
                        let conn =
                            connections::resolve(&prog.layer, prog.in_shape, neuron, k as usize);
                        let src = if prog.in_vol.local_addr(p, conn.input_index).is_some() {
                            p
                        } else {
                            prog.in_vol.owner(conn.input_index)
                        };
                        if src == vault {
                            out.push(OperandEvent {
                                addr: prog.in_vol.local_addr(vault, conn.input_index).unwrap(),
                                dst: p,
                                mac_id: m as u8,
                                op_id,
                                global_op,
                                kind: PacketKind::State,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The spatial fast path emits bitwise the same event sequence as the
    /// per-MAC `resolve` oracle, across uneven tiles, strides, multi-map
    /// inputs, all-maps connectivity, pooling, and both duplication modes.
    #[test]
    fn spatial_fast_path_matches_resolve_oracle() {
        let cases: Vec<(NetworkSpec, bool)> = [
            // Odd spatial extents -> ragged 4x4 tiling.
            NetworkSpec::new(
                Shape::new(1, 33, 31),
                vec![LayerSpec::conv(4, 3, Activation::Tanh)],
            )
            .unwrap(),
            // Strided conv with multi-map input (round-robin ic = oc % in_c).
            NetworkSpec::new(
                Shape::new(2, 21, 19),
                vec![LayerSpec::Conv2d {
                    out_channels: 3,
                    kernel: 3,
                    stride: 2,
                    connectivity: ConvConnectivity::SingleMap,
                    activation: Activation::Identity,
                }],
            )
            .unwrap(),
            // All-maps connectivity: ic derived from k.
            NetworkSpec::new(
                Shape::new(3, 12, 12),
                vec![LayerSpec::Conv2d {
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    connectivity: ConvConnectivity::AllMaps,
                    activation: Activation::Tanh,
                }],
            )
            .unwrap(),
            // Average pooling (stride == kernel, constant weights).
            NetworkSpec::new(Shape::new(4, 16, 16), vec![LayerSpec::AvgPool { size: 2 }]).unwrap(),
        ]
        .into_iter()
        .flat_map(|net| [(net.clone(), false), (net, true)])
        .collect();
        for (net, dup) in cases {
            let prog = compile(&net, dup, 0);
            for v in 0..16u8 {
                let mut s = OperandStream::new(Arc::clone(&prog), v);
                let mut got = Vec::new();
                while let Some(e) = s.next() {
                    got.push(e);
                }
                assert_eq!(
                    got,
                    oracle_events(&prog, v),
                    "stream diverges from oracle (vault {v}, dup {dup}, net {net:?})"
                );
            }
        }
    }

    #[test]
    fn conv_dup_streams_are_purely_local() {
        let net = NetworkSpec::new(
            Shape::new(1, 16, 16),
            vec![LayerSpec::conv(2, 3, Activation::Tanh)],
        )
        .unwrap();
        let prog = compile(&net, true, 0);
        let all = check_conservation(&prog);
        let mut total = 0u64;
        for (v, evs) in all.iter().enumerate() {
            for e in evs {
                assert_eq!(
                    usize::from(e.dst),
                    v,
                    "dup conv must have no lateral traffic"
                );
                assert_eq!(e.kind, PacketKind::State);
            }
            total += evs.len() as u64;
        }
        // One state operand per MAC operation.
        let expected: u64 = net.macs_per_layer()[0];
        assert_eq!(total, expected);
    }

    #[test]
    fn conv_nodup_has_lateral_operands() {
        let net = NetworkSpec::new(
            Shape::new(1, 16, 16),
            vec![LayerSpec::conv(2, 3, Activation::Tanh)],
        )
        .unwrap();
        let prog = compile(&net, false, 0);
        let all = check_conservation(&prog);
        let total: u64 = all.iter().map(|e| e.len() as u64).sum();
        assert_eq!(total, net.macs_per_layer()[0]);
        let lateral: u64 = all
            .iter()
            .enumerate()
            .map(|(v, evs)| evs.iter().filter(|e| usize::from(e.dst) != v).count() as u64)
            .sum();
        assert!(lateral > 0, "boundary pixels must cross vaults");
        // Lateral fraction for 3x3 kernels on 4x4 tiles of 16x16 is modest.
        assert!((lateral as f64) < 0.5 * total as f64);
    }

    #[test]
    fn fc_dup_stream_counts() {
        let net = NetworkSpec::new(
            Shape::flat(64),
            vec![LayerSpec::fc(32, Activation::Sigmoid)],
        )
        .unwrap();
        let prog = compile(&net, true, 0);
        let all = check_conservation(&prog);
        for (v, evs) in all.iter().enumerate() {
            for e in evs {
                assert_eq!(usize::from(e.dst), v, "dup FC must be local");
            }
        }
        let weights: u64 = all
            .iter()
            .flatten()
            .filter(|e| e.kind == PacketKind::Weight)
            .count() as u64;
        let shared: u64 = all
            .iter()
            .flatten()
            .filter(|e| e.kind == PacketKind::SharedState)
            .count() as u64;
        // 32 outputs x 64 connections = 2048 weights; 64 shared states per
        // group; 32 outputs / 16 vaults = 2 per vault = 1 group each.
        assert_eq!(weights, 2048);
        assert_eq!(shared, 16 * 64);
    }

    #[test]
    fn fc_nodup_shared_states_fan_out() {
        let net = NetworkSpec::new(
            Shape::flat(64),
            vec![LayerSpec::fc(32, Activation::Sigmoid)],
        )
        .unwrap();
        let prog = compile(&net, false, 0);
        let all = check_conservation(&prog);
        let lateral: u64 = all
            .iter()
            .enumerate()
            .flat_map(|(v, evs)| evs.iter().map(move |e| (v, e)))
            .filter(|(v, e)| usize::from(e.dst) != *v)
            .count() as u64;
        // Each of the 64 inputs is broadcast to all 16 PEs; only the copy to
        // the owning vault's own PE is local: lateral = 64*16 - 64.
        assert_eq!(lateral, 16 * 64 - 64);
    }

    #[test]
    fn stream_ops_are_monotone_per_destination() {
        let net = NetworkSpec::new(
            Shape::new(1, 12, 12),
            vec![LayerSpec::conv(1, 3, Activation::Identity)],
        )
        .unwrap();
        let prog = compile(&net, false, 0);
        for v in 0..16u8 {
            let mut s = OperandStream::new(Arc::clone(&prog), v);
            // Per destination PE, the (group-derived) full op sequence a PE
            // sees from one vault must never regress within a group sweep:
            // op_id is monotone modulo the 0-wrap at group boundaries.
            let mut prev: Vec<i32> = vec![-1; 16];
            while let Some(e) = s.next() {
                let d = usize::from(e.dst);
                let op = i32::from(e.op_id);
                assert!(
                    op >= prev[d] || op == 0,
                    "vault {v} sent op {op} after {} to PE {d}",
                    prev[d]
                );
                prev[d] = op;
            }
        }
    }

    #[test]
    fn writeback_cursor_covers_own_neurons_in_order() {
        let net = NetworkSpec::new(
            Shape::new(1, 8, 8),
            vec![LayerSpec::conv(2, 3, Activation::Identity)],
        )
        .unwrap();
        let prog = compile(&net, false, 0);
        for v in 0..16u8 {
            let mut c = WritebackCursor::new(Arc::clone(&prog), v, v);
            let mut n = 0;
            let mut prev_addr = 0u64;
            while let Some((neuron, addr)) = c.next() {
                assert_eq!(prog.out_vol.owner(neuron), v);
                if n > 0 {
                    assert!(addr > prev_addr, "own writes are ascending");
                }
                prev_addr = addr;
                n += 1;
            }
            assert_eq!(n as u64, prog.out_vol.assigned_count(v));
        }
    }

    #[test]
    fn writeback_cursor_filters_foreign_copies() {
        let net = NetworkSpec::new(
            Shape::new(1, 16, 16),
            vec![
                LayerSpec::conv(1, 3, Activation::Identity),
                LayerSpec::AvgPool { size: 2 },
            ],
        )
        .unwrap();
        let prog = compile(&net, true, 0);
        // Count, over all (src, store) pairs with src != store, the total
        // foreign write-backs; must match the program's expectation.
        for store in 0..16u8 {
            let mut total = 0u64;
            for src in 0..16u8 {
                if src == store {
                    continue;
                }
                let mut c = WritebackCursor::new(Arc::clone(&prog), src, store);
                while c.next().is_some() {
                    total += 1;
                }
            }
            assert_eq!(total, prog.expected_foreign_writebacks(store));
        }
    }
}
