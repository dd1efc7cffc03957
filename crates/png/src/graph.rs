//! The graph compiler: lowering a [`GraphSpec`] DAG into one
//! [`MultiLayerProgram`] — a sequence of [`LayerProgram`] phases whose
//! volumes are placed so each layer's PNGs consume the previous layer's
//! write-backs *in place*, with no host round-trip between layers.
//!
//! Three ideas carry the whole lowering:
//!
//! * **Concat is aliasing, not computation.** Channel-stacking maps each
//!   part onto a channel slice of one shared buffer (channels are the
//!   outermost spatial coordinate, so a slice is just a per-vault base
//!   offset — `channel_slice`). Producers write their slice directly;
//!   a `Concat` node compiles to nothing. Multi-input element-wise nodes
//!   reuse the same trick: their operands are laid out as one stacked
//!   buffer the add consumes with a 1×1 kernel.
//! * **Buffers are double-buffered by lifetime.** Every value (graph
//!   input + each node output) lives from its producer phase to its last
//!   consumer phase; a per-vault first-fit free list reclaims dead
//!   extents, so a long chain ping-pongs between two regions instead of
//!   keeping one region per layer live for the whole run.
//! * **FC weights are permanent.** Streamed weight regions are placed
//!   first and never recycled; only state volumes rotate above them.
//!
//! A linear network is compiled as its trivial graph
//! ([`NetworkSpec::to_graph`](neurocube_nn::NetworkSpec::to_graph)):
//! this is the one function that assigns a volume or weight address.
//! The per-phase programs are ordinary [`LayerProgram`]s, the unit every
//! downstream consumer (operand streams, PE configs, write-back cursors,
//! the event horizon) works on.

use crate::error::CompileError;
use crate::layout::{
    flat_layout, grid_rect, input_rect_for, kernel_geometry, spatial_layout, union_rect, Rect,
    VolumeKind, VolumeLayout,
};
use crate::program::{LayerProgram, Mapping};
use neurocube_dram::{AddressMap, Storage};
use neurocube_fixed::Q88;
use neurocube_nn::{GraphOp, GraphSource, GraphSpec, Shape};
use neurocube_noc::NodeId;
use neurocube_pe::N_MAC;
use std::sync::Arc;

/// A view of a channel slice `[lo, hi)` of a stacked volume: same plane
/// tiling and per-vault rectangles, base addresses advanced past the
/// skipped channels (channels are outermost in the local layout). A full
/// slice is the volume itself; flat volumes are never sliced (graph
/// validation rejects flat concat parts).
///
/// # Panics
///
/// Panics when a proper slice of a flat volume is requested.
pub(crate) fn channel_slice(vol: &VolumeLayout, lo: usize, hi: usize) -> VolumeLayout {
    debug_assert!(lo < hi && hi <= vol.shape.channels);
    if lo == 0 && hi == vol.shape.channels {
        return vol.clone();
    }
    let VolumeKind::Spatial { stored, .. } = &vol.kind else {
        panic!("flat volumes are never channel-sliced")
    };
    let base = vol
        .base
        .iter()
        .zip(stored)
        .map(|(&b, r)| b + 2 * (lo * r.area()) as u64)
        .collect();
    VolumeLayout {
        shape: Shape::new(hi - lo, vol.shape.height, vol.shape.width),
        kind: vol.kind.clone(),
        base,
    }
}

/// Where a value (graph input or node output) lives: a channel range of
/// one of the compiled buffers.
#[derive(Clone, Copy, Debug)]
struct ValueLoc {
    buffer: usize,
    lo: usize,
    hi: usize,
}

/// A compiled graph: the phase sequence the cube executes for one
/// inference, plus every placement the host needs to load inputs, load
/// weights and read any node's output back.
#[derive(Clone, Debug)]
pub struct MultiLayerProgram {
    /// The validated source graph (node names, shapes, schedule).
    pub graph: GraphSpec,
    /// One program per executable node, in schedule order; `layer_index`
    /// is the phase index.
    pub phases: Vec<Arc<LayerProgram>>,
    /// Graph node index of each phase (`Concat` nodes have no phase).
    pub phase_nodes: Vec<usize>,
    /// Per graph node: the placement of its output value (a channel-slice
    /// view when the value lives inside a stacked buffer).
    pub node_vols: Vec<VolumeLayout>,
    /// Placement of the graph input volume.
    pub input_vol: VolumeLayout,
    /// Per vault: peak bytes allocated at any point of the schedule
    /// (weights + live state volumes).
    pub allocated: Vec<u64>,
    /// Number of vaults.
    pub vaults: usize,
    /// The mapping the graph was compiled for.
    pub mapping: Mapping,
    /// Bytes with no duplication and no buffer reuse: one copy of every
    /// buffer plus the streamed weight matrices.
    minimal: u64,
    /// Bytes with every buffer live at once as placed (duplicated copies
    /// included) plus the streamed weight matrices.
    duplicated: u64,
}

impl MultiLayerProgram {
    /// Peak bytes across the cube.
    pub fn total_bytes(&self) -> u64 {
        self.allocated.iter().sum()
    }

    /// Footprint with one unduplicated copy of every buffer and every
    /// streamed weight matrix (the reuse/duplication baseline).
    pub fn minimal_bytes(&self) -> u64 {
        self.minimal
    }

    /// Footprint with every buffer live at once, each with the copies its
    /// consumers' duplication adds, plus every streamed weight matrix:
    /// what duplication costs before buffer reuse wins any of it back.
    /// Over [`minimal_bytes`](Self::minimal_bytes) it is the Fig. 12(d)
    /// duplication overhead; the peak live footprint is
    /// [`total_bytes`](Self::total_bytes).
    pub fn duplicated_bytes(&self) -> u64 {
        self.duplicated
    }

    /// The graph node a phase executes.
    pub fn node_of(&self, phase: usize) -> usize {
        self.phase_nodes[phase]
    }

    /// The last phase writing into node `i`'s output buffer region —
    /// after this phase completes, `node_vols[i]` holds the node's final
    /// values. For `Concat` nodes this is the latest producing phase of
    /// any part; `None` when every part is the host-loaded graph input.
    pub fn ready_after_phase(&self, node: usize) -> Option<usize> {
        let mut latest = None;
        let mut walk = vec![node];
        while let Some(i) = walk.pop() {
            match self.graph.nodes()[i].op {
                GraphOp::Layer(_) => {
                    let p = self
                        .phase_nodes
                        .iter()
                        .position(|&n| n == i)
                        .expect("every layer node has a phase");
                    latest = Some(latest.map_or(p, |l: usize| l.max(p)));
                }
                GraphOp::Concat => {
                    for &src in self.graph.node_sources(i) {
                        if let GraphSource::Node(j) = src {
                            walk.push(j);
                        }
                    }
                }
            }
        }
        latest
    }

    /// Writes the parameters into the DRAM image: one weight array per
    /// graph node (empty for `Concat` and weight-less layers), FC matrices
    /// written transposed into each phase's weight region. Conv kernels
    /// are loaded into PE weight memories when a phase is configured and
    /// are not streamed. Untimed, like the paper's host programming phase.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::WeightLayerCount`] on a wrong node count and
    /// [`CompileError::WeightImageSize`] on a wrong per-node image — checked
    /// for every node before anything is written, so a failed load leaves
    /// `storage` untouched.
    pub fn write_weights(
        &self,
        params: &[Vec<Q88>],
        storage: &mut Storage,
    ) -> Result<(), CompileError> {
        let depth = self.graph.depth();
        if params.len() != depth {
            return Err(CompileError::WeightLayerCount {
                expected: depth,
                got: params.len(),
            });
        }
        for (i, &expected) in self.graph.weights_per_node().iter().enumerate() {
            if params[i].len() != expected {
                return Err(CompileError::WeightImageSize {
                    layer: i,
                    expected,
                    got: params[i].len(),
                });
            }
        }
        for (p, phase) in self.phases.iter().enumerate() {
            if !phase.is_fc() {
                continue;
            }
            let node = self.phase_nodes[p];
            let n_in = phase.in_shape.len();
            for v in 0..self.vaults as NodeId {
                for local in 0..phase.out_vol.assigned_count(v) {
                    let neuron = phase.out_vol.assigned_neuron(v, local);
                    for k in 0..n_in {
                        let w = params[node][neuron * n_in + k];
                        let addr = phase_fc_weight_addr(phase, v, local, k as u64);
                        storage.write_u16(addr, w.to_bits() as u16);
                    }
                }
            }
        }
        Ok(())
    }
}

fn value_of(src: GraphSource) -> usize {
    match src {
        GraphSource::Input => 0,
        GraphSource::Node(i) => i + 1,
    }
}

fn value_shape(graph: &GraphSpec, val: usize) -> Shape {
    if val == 0 {
        graph.input_shape()
    } else {
        graph.node_output_shape(val - 1)
    }
}

const EMPTY_RECT: Rect = Rect {
    y0: 0,
    y1: 0,
    x0: 0,
    x1: 0,
};

/// First-fit allocation from a sorted free-span list. Zero-byte requests
/// (a vault storing no part of a volume) succeed without consuming space.
fn span_alloc(spans: &mut Vec<(u64, u64)>, bytes: u64) -> Option<u64> {
    if bytes == 0 {
        return Some(spans.first().map_or(0, |s| s.0));
    }
    for i in 0..spans.len() {
        let (s, e) = spans[i];
        if e - s >= bytes {
            if e - s == bytes {
                spans.remove(i);
            } else {
                spans[i].0 = s + bytes;
            }
            return Some(s);
        }
    }
    None
}

/// Returns an extent to the free list, coalescing with both neighbours.
fn span_free(spans: &mut Vec<(u64, u64)>, start: u64, bytes: u64) {
    if bytes == 0 {
        return;
    }
    let pos = spans.partition_point(|&(s, _)| s < start);
    spans.insert(pos, (start, start + bytes));
    if pos + 1 < spans.len() && spans[pos].1 == spans[pos + 1].0 {
        spans[pos].1 = spans[pos + 1].1;
        spans.remove(pos + 1);
    }
    if pos > 0 && spans[pos - 1].1 == spans[pos].0 {
        spans[pos - 1].1 = spans[pos].1;
        spans.remove(pos);
    }
}

/// Compiles a validated graph into a [`MultiLayerProgram`] for `mapping`,
/// placing buffers in the address space described by `map`.
///
/// # Errors
///
/// Returns [`CompileError::VaultOverCapacity`] when the peak footprint of
/// any vault exceeds its DRAM region.
///
/// # Panics
///
/// Panics on a caller bug: a grid that does not match `map`'s channel
/// count.
pub fn compile_graph(
    graph: &GraphSpec,
    mapping: Mapping,
    map: &AddressMap,
) -> Result<MultiLayerProgram, CompileError> {
    let vaults = mapping.vaults();
    assert_eq!(vaults as u32, map.channels(), "grid must match vault count");
    let (gw, gh) = (mapping.grid_w, mapping.grid_h);
    let n = graph.depth();
    let n_values = n + 1; // value 0 = graph input, value i + 1 = node i's output

    // --- Map every value onto (buffer, channel range). A node that
    // aliases its inputs owns one stacked buffer holding its parts; a
    // Concat's own output IS that buffer. Everything else gets a buffer
    // of its own. Graph validation guarantees these cases are disjoint
    // (one alias consumer per value, no nested concat).
    let mut buffers: Vec<Shape> = Vec::new();
    let mut locs: Vec<Option<ValueLoc>> = vec![None; n_values];
    let mut alias_buf: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if !graph.aliases_inputs(i) {
            continue;
        }
        let b = buffers.len();
        buffers.push(graph.node_input_shape(i));
        alias_buf[i] = Some(b);
        let mut off = 0;
        for &src in graph.node_sources(i) {
            let val = value_of(src);
            let ch = value_shape(graph, val).channels;
            debug_assert!(locs[val].is_none(), "validated: one alias consumer");
            locs[val] = Some(ValueLoc {
                buffer: b,
                lo: off,
                hi: off + ch,
            });
            off += ch;
        }
        if matches!(graph.nodes()[i].op, GraphOp::Concat) {
            locs[i + 1] = Some(ValueLoc {
                buffer: b,
                lo: 0,
                hi: off,
            });
        }
    }
    for (val, loc) in locs.iter_mut().enumerate() {
        if loc.is_none() {
            let shape = value_shape(graph, val);
            buffers.push(shape);
            *loc = Some(ValueLoc {
                buffer: buffers.len() - 1,
                lo: 0,
                hi: shape.channels,
            });
        }
    }
    let locs: Vec<ValueLoc> = locs.into_iter().map(Option::unwrap).collect();
    let n_buf = buffers.len();
    let mut buf_values: Vec<Vec<usize>> = vec![Vec::new(); n_buf];
    for (val, loc) in locs.iter().enumerate() {
        buf_values[loc.buffer].push(val);
    }

    // --- Consumers per value (graph nodes reading it).
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n_values];
    for i in 0..n {
        for &src in graph.node_sources(i) {
            consumers[value_of(src)].push(i);
        }
    }

    // --- Buffer structure. A buffer is flat only when it holds an FC
    // output or a 1×1 graph input: conv, pool and add outputs are
    // spatial, 1×1 included, so the PE producing one iterates its maps
    // (`VolumeLayout::maps`). Validation rejects a spatial operator over
    // a 1×1 volume and flat concat parts, so a flat buffer holds one
    // value. Spatial buffers take the union of every consumer's halo
    // need (any slice's consumer extends the shared stored rectangles);
    // flat buffers replicate into every vault when consumed (Fig.
    // 10(d)). A spatial volume an FC layer consumes stays tiled: the
    // shared-state broadcast is already fine-grained across owners, so
    // replication would buy nothing and cost a 15x write-back broadcast
    // (DESIGN.md §3).
    let flat_value = |val: usize| match val {
        0 => graph.input_shape().height == 1 && graph.input_shape().width == 1,
        _ => matches!(graph.nodes()[val - 1].op, GraphOp::Layer(l) if l.weights_stream()),
    };
    let mut kinds: Vec<VolumeKind> = Vec::with_capacity(n_buf);
    for (b, &shape) in buffers.iter().enumerate() {
        if buf_values[b].iter().all(|&v| flat_value(v)) {
            let consumed = buf_values[b].iter().any(|&v| !consumers[v].is_empty());
            kinds.push(flat_layout(
                shape.len(),
                vaults,
                mapping.duplicate && consumed,
            ));
            continue;
        }
        let mut needed: Vec<Rect> = vec![EMPTY_RECT; vaults];
        let mut any = false;
        if mapping.duplicate {
            for &val in &buf_values[b] {
                for &c in &consumers[val] {
                    let GraphOp::Layer(layer) = graph.nodes()[c].op else {
                        continue; // a Concat consumer reads nothing
                    };
                    let Some((k, s)) = kernel_geometry(&layer) else {
                        continue; // FC consumers broadcast, no halo
                    };
                    let out_shape = graph.node_output_shape(c);
                    for (v, need) in needed.iter_mut().enumerate() {
                        let (gx, gy) = (v % gw, v / gw);
                        let out = grid_rect(out_shape.height, out_shape.width, gw, gh, gx, gy);
                        *need = union_rect(*need, input_rect_for(out, k, s, shape));
                    }
                    any = true;
                }
            }
        }
        let halo = if any { Some(needed.as_slice()) } else { None };
        kinds.push(spatial_layout(shape, gw, gh, halo));
    }
    let probes: Vec<VolumeLayout> = buffers
        .iter()
        .zip(&kinds)
        .map(|(&shape, kind)| VolumeLayout {
            shape,
            kind: kind.clone(),
            base: vec![0; vaults],
        })
        .collect();
    let probe_view = |val: usize| {
        let loc = locs[val];
        channel_slice(&probes[loc.buffer], loc.lo, loc.hi)
    };

    // --- FC weight regions: permanent, placed first.
    let mut cursor: Vec<u64> = (0..vaults).map(|v| map.channel_base(v as u32)).collect();
    let mut weight_bases: Vec<Option<Vec<u64>>> = vec![None; n];
    for (i, slot) in weight_bases.iter_mut().enumerate() {
        let GraphOp::Layer(layer) = graph.nodes()[i].op else {
            continue;
        };
        if !layer.weights_stream() {
            continue;
        }
        let n_in = graph.node_input_shape(i).len() as u64;
        let out_probe = probe_view(i + 1);
        let mut bases = Vec::with_capacity(vaults);
        for (v, c) in cursor.iter_mut().enumerate() {
            bases.push(*c);
            *c += 2 * n_in * out_probe.assigned_count(v as NodeId);
        }
        *slot = Some(bases);
    }

    // --- Buffer lifetimes on the schedule timeline (step -1 = host
    // loads the input). A buffer is born with its earliest producer and
    // dies after its last consumer; the sink's buffer is never freed
    // (the host reads it after the run).
    let mut birth = vec![isize::MAX; n_buf];
    let mut death = vec![isize::MIN; n_buf];
    for (val, loc) in locs.iter().enumerate() {
        let born = val as isize - 1;
        birth[loc.buffer] = birth[loc.buffer].min(born);
        if let Some(&last) = consumers[val].iter().max() {
            death[loc.buffer] = death[loc.buffer].max(last as isize);
        }
    }
    death[locs[graph.output_node() + 1].buffer] = isize::MAX;

    // --- Place buffers with per-vault first-fit free lists above the
    // weight high-water mark: at each step, allocate that step's births
    // *before* freeing its deaths (a phase's output must never land on
    // its own input). Reclaimed extents make consecutive layers
    // ping-pong between two regions — the double-buffered hand-off.
    let capacity = map.channel_bytes();
    let mut spans: Vec<Vec<(u64, u64)>> = (0..vaults)
        .map(|v| vec![(cursor[v], map.channel_base(v as u32) + capacity)])
        .collect();
    let mut used: Vec<u64> = (0..vaults)
        .map(|v| cursor[v] - map.channel_base(v as u32))
        .collect();
    for (v, &u) in used.iter().enumerate() {
        if u > capacity {
            return Err(CompileError::VaultOverCapacity {
                vault: v,
                needed: u,
                capacity,
            });
        }
    }
    let mut peak = used.clone();
    let mut bases: Vec<Vec<u64>> = vec![vec![0; vaults]; n_buf];
    for t in -1..n as isize {
        for b in 0..n_buf {
            if birth[b] != t {
                continue;
            }
            for v in 0..vaults {
                let bytes = probes[b].bytes_in_vault(v as NodeId);
                match span_alloc(&mut spans[v], bytes) {
                    Some(start) => bases[b][v] = start,
                    None => {
                        return Err(CompileError::VaultOverCapacity {
                            vault: v,
                            needed: used[v] + bytes,
                            capacity,
                        })
                    }
                }
                used[v] += bytes;
                peak[v] = peak[v].max(used[v]);
            }
        }
        for b in 0..n_buf {
            if death[b] != t {
                continue;
            }
            for v in 0..vaults {
                let bytes = probes[b].bytes_in_vault(v as NodeId);
                span_free(&mut spans[v], bases[b][v], bytes);
                used[v] -= bytes;
            }
        }
    }

    let buffer_vols: Vec<VolumeLayout> = buffers
        .iter()
        .zip(&kinds)
        .zip(&bases)
        .map(|((&shape, kind), base)| VolumeLayout {
            shape,
            kind: kind.clone(),
            base: base.clone(),
        })
        .collect();
    let view = |val: usize| {
        let loc = locs[val];
        channel_slice(&buffer_vols[loc.buffer], loc.lo, loc.hi)
    };

    // --- One phase per executable node, reading the producer's buffer
    // (or the full stacked buffer for multi-input element-wise nodes)
    // and writing its own slice in place.
    let mut phases = Vec::new();
    let mut phase_nodes = Vec::new();
    for i in 0..n {
        let GraphOp::Layer(layer) = graph.nodes()[i].op else {
            continue;
        };
        let in_vol = match alias_buf[i] {
            Some(b) => buffer_vols[b].clone(),
            None => view(value_of(graph.node_sources(i)[0])),
        };
        phases.push(Arc::new(LayerProgram {
            layer_index: phases.len(),
            layer,
            in_shape: graph.node_input_shape(i),
            out_shape: graph.node_output_shape(i),
            in_vol,
            out_vol: view(i + 1),
            weight_base: weight_bases[i].clone(),
            activation: layer.activation(),
            mapping,
        }));
        phase_nodes.push(i);
    }

    let weight_bytes: u64 = (0..n)
        .filter(|&i| weight_bases[i].is_some())
        .map(|i| {
            2 * graph.node_input_shape(i).len() as u64 * graph.node_output_shape(i).len() as u64
        })
        .sum();
    let minimal = buffer_vols
        .iter()
        .map(VolumeLayout::bytes_minimal)
        .sum::<u64>()
        + weight_bytes;
    let duplicated = buffer_vols
        .iter()
        .map(VolumeLayout::bytes_total)
        .sum::<u64>()
        + weight_bytes;

    Ok(MultiLayerProgram {
        graph: graph.clone(),
        phases,
        phase_nodes,
        node_vols: (0..n).map(|i| view(i + 1)).collect(),
        input_vol: view(0),
        allocated: peak,
        vaults,
        mapping,
        minimal,
        duplicated,
    })
}

/// DRAM address of the FC weight for (`local` output neuron, connection
/// `k`) in `vault`, for one compiled phase — group-blocked transposed
/// layout: full groups of `N_MAC` neurons store sequential
/// `[connection][mac]` blocks (`base + 2·((group·conns + k)·N_MAC +
/// mac)`); the trailing partial group uses its exact width. One group's
/// whole weight stream is therefore a single sequential DRAM run, and the
/// region carries no padding.
///
/// # Panics
///
/// Panics if the phase's weights do not stream.
pub(crate) fn phase_fc_weight_addr(prog: &LayerProgram, vault: NodeId, local: u64, k: u64) -> u64 {
    let bases = prog
        .weight_base
        .as_ref()
        .expect("phase weights do not stream from DRAM");
    let conns = prog.in_shape.len() as u64;
    let n = prog.out_vol.assigned_count(vault);
    let (group, mac) = (local / N_MAC, local % N_MAC);
    let width = N_MAC.min(n - group * N_MAC);
    bases[usize::from(vault)] + 2 * (group * conns * N_MAC + k * width + mac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{load_volume, read_volume};
    use neurocube_dram::MemoryConfig;
    use neurocube_fixed::Activation;
    use neurocube_nn::workloads::{concat_toy, residual_toy};
    use neurocube_nn::{GraphBuilder, LayerSpec, NetworkSpec, INPUT};

    fn map16() -> AddressMap {
        MemoryConfig::hmc_int().address_map()
    }

    #[test]
    fn channel_slices_alias_the_parent() {
        let shape = Shape::new(5, 12, 12);
        let kind = spatial_layout(shape, 4, 4, None);
        let vol = VolumeLayout {
            shape,
            kind,
            base: (0..16).map(|v| v * 10_000).collect(),
        };
        let slice = channel_slice(&vol, 2, 4);
        assert_eq!(slice.shape, Shape::new(2, 12, 12));
        let plane = 12 * 12;
        for n in 0..slice.shape.len() {
            let parent = n + 2 * plane; // channel c of the slice = channel c+2
            assert_eq!(slice.owner(n), vol.owner(parent));
            for v in 0..16u8 {
                assert_eq!(slice.local_addr(v, n), vol.local_addr(v, parent));
            }
        }
    }

    #[test]
    fn residual_and_concat_toys_compile() {
        let map = map16();
        for dup in [false, true] {
            let prog = compile_graph(&residual_toy(), Mapping::paper(dup), &map).unwrap();
            assert_eq!(prog.phases.len(), 5); // no Concat nodes: all execute
            assert_eq!(prog.graph.nodes()[prog.node_of(0)].name, "stem");
            // Programs agree with the graph's shapes.
            for (p, phase) in prog.phases.iter().enumerate() {
                let i = prog.node_of(p);
                assert_eq!(phase.in_shape, prog.graph.node_input_shape(i));
                assert_eq!(phase.out_shape, prog.graph.node_output_shape(i));
                assert_eq!(phase.out_vol.shape, phase.out_shape);
                assert_eq!(phase.layer_index, p);
            }

            let prog = compile_graph(&concat_toy(), Mapping::paper(dup), &map).unwrap();
            assert_eq!(prog.phases.len(), 3); // "cat" compiles to aliasing
                                              // left/right write disjoint slices of one 5-channel buffer.
            let left = &prog.node_vols[0];
            let right = &prog.node_vols[1];
            let cat = &prog.node_vols[2];
            assert_eq!(cat.shape, Shape::new(5, 10, 10));
            assert_eq!(left.kind, cat.kind);
            assert_eq!(right.kind, cat.kind);
            assert_eq!(left.base, cat.base);
        }
    }

    #[test]
    fn stacked_slices_do_not_interfere() {
        let prog = compile_graph(&concat_toy(), Mapping::paper(true), &map16()).unwrap();
        let mut storage = Storage::new();
        let left = &prog.node_vols[0];
        let right = &prog.node_vols[1];
        let lv: Vec<Q88> = (0..left.shape.len() as i16).map(Q88::from_bits).collect();
        let rv: Vec<Q88> = (0..right.shape.len() as i16)
            .map(|i| Q88::from_bits(-1 - i))
            .collect();
        load_volume(left, &lv, 16, &mut storage).unwrap();
        load_volume(right, &rv, 16, &mut storage).unwrap();
        assert_eq!(read_volume(left, &storage), lv);
        assert_eq!(read_volume(right, &storage), rv);
        // The stacked view sees left's channels then right's.
        let cat = read_volume(&prog.node_vols[2], &storage);
        assert_eq!(&cat[..lv.len()], &lv[..]);
        assert_eq!(&cat[lv.len()..], &rv[..]);
    }

    #[test]
    fn linear_chains_recycle_buffers() {
        // A deep chain's peak footprint must undercut keeping every volume
        // live for the whole run.
        let net = NetworkSpec::new(
            Shape::new(2, 20, 20),
            vec![
                LayerSpec::conv(4, 3, Activation::Tanh),
                LayerSpec::conv(4, 3, Activation::Tanh),
                LayerSpec::conv(4, 3, Activation::Tanh),
                LayerSpec::conv(4, 3, Activation::Tanh),
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::fc(10, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let graph =
            compile_graph(&GraphSpec::linear(&net), Mapping::paper(false), &map16()).unwrap();
        // Without duplication, all-live is one copy of every volume plus
        // the weights.
        let all_live = graph.duplicated_bytes();
        assert_eq!(all_live, graph.minimal_bytes());
        let volumes: u64 = net.shapes().iter().map(|s| 2 * s.len() as u64).sum();
        let weights = 2 * net.layer_input(5).len() as u64 * 10;
        assert_eq!(all_live, volumes + weights);
        assert!(
            graph.total_bytes() < all_live,
            "peak {} vs all-live {all_live}",
            graph.total_bytes(),
        );
        // Reuse never goes below the honest baseline: the two largest
        // adjacent volumes must coexist.
        assert!(graph.total_bytes() >= 2 * net.input_shape().len() as u64);
    }

    #[test]
    fn over_capacity_is_a_typed_error() {
        let mut g = GraphBuilder::new(Shape::flat(65_536));
        g.layer("big", INPUT, LayerSpec::fc(100_000, Activation::Identity));
        g.layer("head", "big", LayerSpec::fc(8, Activation::Sigmoid));
        let graph = g.build().unwrap();
        let err = compile_graph(&graph, Mapping::paper(false), &map16()).unwrap_err();
        assert!(
            matches!(err, CompileError::VaultOverCapacity { .. }),
            "{err}"
        );
    }

    #[test]
    fn graph_weight_loading_validates_and_places() {
        let prog = compile_graph(&residual_toy(), Mapping::paper(false), &map16()).unwrap();
        let mut storage = Storage::new();
        let wrong_count = vec![Vec::new(); 2];
        assert!(matches!(
            prog.write_weights(&wrong_count, &mut storage),
            Err(CompileError::WeightLayerCount {
                expected: 5,
                got: 2
            })
        ));
        let mut bad = prog.graph.init_params(7, 0.5);
        bad[0].pop();
        assert!(matches!(
            prog.write_weights(&bad, &mut storage),
            Err(CompileError::WeightImageSize { layer: 0, .. })
        ));
        let params = prog.graph.init_params(7, 0.5);
        prog.write_weights(&params, &mut storage).unwrap();
        // The FC head's weights landed at the phase addresses, transposed.
        let head = prog.phases.last().unwrap();
        assert!(head.is_fc());
        let node = *prog.phase_nodes.last().unwrap();
        let n_in = head.in_shape.len();
        let v = (0..16)
            .find(|&v| head.out_vol.assigned_count(v) > 0)
            .unwrap();
        let neuron = head.out_vol.assigned_neuron(v, 0);
        let addr = phase_fc_weight_addr(head, v, 0, 3);
        assert_eq!(
            Q88::from_bits(storage.read_u16(addr) as i16),
            params[node][neuron * n_in + 3]
        );
    }

    #[test]
    fn ready_after_phase_tracks_producers() {
        let prog = compile_graph(&concat_toy(), Mapping::paper(false), &map16()).unwrap();
        // Nodes: 0 left, 1 right, 2 cat, 3 head; phases: left, right, head.
        assert_eq!(prog.ready_after_phase(0), Some(0));
        assert_eq!(prog.ready_after_phase(1), Some(1));
        assert_eq!(prog.ready_after_phase(2), Some(1)); // cat ready once right lands
        assert_eq!(prog.ready_after_phase(3), Some(2));
    }
}
