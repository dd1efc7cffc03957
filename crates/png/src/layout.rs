//! Data layout across HMC vaults (Fig. 10).
//!
//! The host compiler places every volume (layer input/output) and every
//! streamed weight matrix in the cube before execution:
//!
//! * **Spatial volumes** (conv/pool inputs and outputs) are tiled over the
//!   PE grid: vault `(gx, gy)` *owns* the neurons whose `(y, x)` falls in
//!   its grid rectangle, for every feature map. With duplication, each
//!   vault additionally stores a *halo* — the rectangle of neighbouring
//!   pixels its PE will need for the consuming layer's kernels
//!   (Fig. 10(c)) — so no lateral NoC traffic is needed.
//! * **Flat volumes** (FC inputs/outputs) are sliced evenly by neuron
//!   index; with duplication the whole vector is replicated into every
//!   vault (Fig. 10(d)).
//! * **FC weight matrices** are partitioned by output neuron and stored
//!   *transposed* (`[connection][local neuron]`) so that the 16 weights of
//!   one operation are contiguous in DRAM and stream at full burst
//!   efficiency.
//!
//! This module is the vocabulary of a placement — rectangles, tilings and
//! per-vault address arithmetic. [`compile_graph`](crate::compile_graph)
//! is the one function that assigns addresses, for chains and DAGs alike.

use neurocube_nn::{LayerSpec, Shape};
use neurocube_noc::NodeId;

/// A half-open rectangle `[y0, y1) × [x0, x1)` of a spatial volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rect {
    /// First row.
    pub y0: usize,
    /// One past the last row.
    pub y1: usize,
    /// First column.
    pub x0: usize,
    /// One past the last column.
    pub x1: usize,
}

impl Rect {
    /// Width × height of the rectangle.
    pub fn area(&self) -> usize {
        self.height() * self.width()
    }

    /// Row count.
    pub fn height(&self) -> usize {
        self.y1.saturating_sub(self.y0)
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.x1.saturating_sub(self.x0)
    }

    /// `true` when `(y, x)` lies inside.
    pub fn contains(&self, y: usize, x: usize) -> bool {
        (self.y0..self.y1).contains(&y) && (self.x0..self.x1).contains(&x)
    }

    /// `true` when the rectangle is empty.
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }
}

/// The grid rectangle owned by grid cell `(gx, gy)` of a `gw × gh` grid
/// over an `h × w` plane (even split with remainders going to the trailing
/// cells, matching integer division boundaries `i * n / g`).
pub(crate) fn grid_rect(h: usize, w: usize, gw: usize, gh: usize, gx: usize, gy: usize) -> Rect {
    Rect {
        y0: gy * h / gh,
        y1: (gy + 1) * h / gh,
        x0: gx * w / gw,
        x1: (gx + 1) * w / gw,
    }
}

/// How one volume is stored across vaults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VolumeKind {
    /// Spatial tiling: `owned[v]` is vault `v`'s tile; `stored[v]` is the
    /// (possibly larger) rectangle it physically stores (tile + halo).
    /// Every feature map uses the same rectangles.
    Spatial {
        /// Tile owned by each vault.
        owned: Vec<Rect>,
        /// Rectangle physically stored by each vault (`⊇ owned[v]` with
        /// duplication; `== owned[v]` without).
        stored: Vec<Rect>,
    },
    /// Flat slicing: vault `v` owns indices `[starts[v], starts[v + 1])`.
    /// With `duplicated`, every vault stores the whole vector.
    Flat {
        /// Slice boundaries, length `vaults + 1`.
        starts: Vec<usize>,
        /// Full replication into every vault.
        duplicated: bool,
    },
}

/// The placement of one volume (a layer input/output) in the cube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VolumeLayout {
    /// The volume's logical shape.
    pub shape: Shape,
    /// Tiling/slicing structure.
    pub kind: VolumeKind,
    /// Per-vault base byte address of this volume's region.
    pub base: Vec<u64>,
}

impl VolumeLayout {
    /// The vault that owns (produces / is the home of) a neuron.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    pub fn owner(&self, flat: usize) -> NodeId {
        assert!(flat < self.shape.len(), "neuron index out of range");
        match &self.kind {
            VolumeKind::Spatial { owned, .. } => {
                let plane = self.shape.height * self.shape.width;
                let rem = flat % plane;
                let (y, x) = (rem / self.shape.width, rem % self.shape.width);
                for (v, r) in owned.iter().enumerate() {
                    if r.contains(y, x) {
                        return v as NodeId;
                    }
                }
                unreachable!("grid rectangles cover the plane")
            }
            VolumeKind::Flat { starts, .. } => {
                // The owner is the slice whose [starts[v], starts[v+1])
                // interval contains `flat`; empty slices make boundary
                // values repeat, so a partition point is required.
                (starts.partition_point(|&s| s <= flat) - 1) as NodeId
            }
        }
    }

    /// The DRAM byte address of vault `vault`'s copy of neuron `flat`, or
    /// `None` if that vault stores no copy.
    pub fn local_addr(&self, vault: NodeId, flat: usize) -> Option<u64> {
        debug_assert!(flat < self.shape.len());
        let v = usize::from(vault);
        match &self.kind {
            VolumeKind::Spatial { stored, .. } => {
                let r = &stored[v];
                let plane = self.shape.height * self.shape.width;
                let c = flat / plane;
                let rem = flat % plane;
                let (y, x) = (rem / self.shape.width, rem % self.shape.width);
                if !r.contains(y, x) {
                    return None;
                }
                let local = (c * r.height() + (y - r.y0)) * r.width() + (x - r.x0);
                Some(self.base[v] + 2 * local as u64)
            }
            VolumeKind::Flat { starts, duplicated } => {
                if *duplicated {
                    Some(self.base[v] + 2 * flat as u64)
                } else {
                    let lo = starts[v];
                    let hi = starts[v + 1];
                    ((lo..hi).contains(&flat)).then(|| self.base[v] + 2 * (flat - lo) as u64)
                }
            }
        }
    }

    /// Bytes this volume occupies in vault `vault`.
    pub fn bytes_in_vault(&self, vault: NodeId) -> u64 {
        let v = usize::from(vault);
        match &self.kind {
            VolumeKind::Spatial { stored, .. } => {
                (stored[v].area() * self.shape.channels * 2) as u64
            }
            VolumeKind::Flat { starts, duplicated } => {
                if *duplicated {
                    (self.shape.len() * 2) as u64
                } else {
                    ((starts[v + 1] - starts[v]) * 2) as u64
                }
            }
        }
    }

    /// Bytes the volume would occupy with no duplication (the Fig. 12(d)
    /// baseline for the overhead percentage).
    pub(crate) fn bytes_minimal(&self) -> u64 {
        (self.shape.len() * 2) as u64
    }

    /// Total bytes stored across all vaults (≥ [`bytes_minimal`](Self::bytes_minimal)).
    pub(crate) fn bytes_total(&self) -> u64 {
        (0..self.base.len())
            .map(|v| self.bytes_in_vault(v as NodeId))
            .sum()
    }

    /// The neurons vault `v` owns, in *PE schedule order*: feature map
    /// outermost, then tile rows, then tile columns (spatial), or ascending
    /// slice order (flat). Index `i` of this sequence is the neuron that
    /// vault `v`'s PE computes as its `i`-th output.
    pub(crate) fn assigned_neuron(&self, vault: NodeId, i: u64) -> usize {
        let v = usize::from(vault);
        match &self.kind {
            VolumeKind::Spatial { owned, .. } => {
                let r = &owned[v];
                let per_map = r.area() as u64;
                debug_assert!(per_map > 0 && i < per_map * self.shape.channels as u64);
                let c = (i / per_map) as usize;
                let rem = (i % per_map) as usize;
                let y = r.y0 + rem / r.width();
                let x = r.x0 + rem % r.width();
                (c * self.shape.height + y) * self.shape.width + x
            }
            VolumeKind::Flat { starts, .. } => {
                debug_assert!((i as usize) < starts[v + 1] - starts[v]);
                starts[v] + i as usize
            }
        }
    }

    /// Number of neurons vault `v` owns: `maps() × assigned_per_map(v)`.
    pub fn assigned_count(&self, vault: NodeId) -> u64 {
        self.maps() * self.assigned_per_map(vault)
    }

    /// Feature maps a PE producing this volume iterates: every channel of
    /// a spatial volume, a single "map" for a flat one.
    pub(crate) fn maps(&self) -> u64 {
        match &self.kind {
            VolumeKind::Spatial { .. } => self.shape.channels as u64,
            VolumeKind::Flat { .. } => 1,
        }
    }

    /// Neurons per feature map owned by vault `v`: its tile's area
    /// (spatial) or its whole slice (flat).
    pub(crate) fn assigned_per_map(&self, vault: NodeId) -> u64 {
        let v = usize::from(vault);
        match &self.kind {
            VolumeKind::Spatial { owned, .. } => owned[v].area() as u64,
            VolumeKind::Flat { starts, .. } => (starts[v + 1] - starts[v]) as u64,
        }
    }
}

/// Builds the spatial tiling of a volume over a `gw × gh` PE grid, with
/// `stored` rectangles extended to `needed` (the consumer-derived halo) when
/// duplicating.
pub(crate) fn spatial_layout(
    shape: Shape,
    gw: usize,
    gh: usize,
    needed: Option<&[Rect]>,
) -> VolumeKind {
    let vaults = gw * gh;
    let mut owned = Vec::with_capacity(vaults);
    let mut stored = Vec::with_capacity(vaults);
    for v in 0..vaults {
        let (gx, gy) = (v % gw, v / gw);
        let r = grid_rect(shape.height, shape.width, gw, gh, gx, gy);
        owned.push(r);
        stored.push(match needed {
            Some(n) => union_rect(r, n[v]),
            None => r,
        });
    }
    VolumeKind::Spatial { owned, stored }
}

/// Builds the flat slicing of a volume across `vaults` vaults.
pub(crate) fn flat_layout(len: usize, vaults: usize, duplicated: bool) -> VolumeKind {
    let starts = (0..=vaults).map(|v| v * len / vaults).collect();
    VolumeKind::Flat { starts, duplicated }
}

/// The input rectangle vault `v` needs to compute output rectangle `out`
/// of a conv/pool layer (`valid` windows: output `(y, x)` reads inputs
/// `[y·s, y·s + k)`).
pub(crate) fn input_rect_for(out: Rect, kernel: usize, stride: usize, in_shape: Shape) -> Rect {
    if out.is_empty() {
        return Rect {
            y0: 0,
            y1: 0,
            x0: 0,
            x1: 0,
        };
    }
    Rect {
        y0: out.y0 * stride,
        y1: ((out.y1 - 1) * stride + kernel).min(in_shape.height),
        x0: out.x0 * stride,
        x1: ((out.x1 - 1) * stride + kernel).min(in_shape.width),
    }
}

/// Bounding box of two rectangles (empty operands are ignored).
pub(crate) fn union_rect(a: Rect, b: Rect) -> Rect {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    Rect {
        y0: a.y0.min(b.y0),
        y1: a.y1.max(b.y1),
        x0: a.x0.min(b.x0),
        x1: a.x1.max(b.x1),
    }
}

/// Kernel geometry of a spatial layer, if it has one. Element-wise sums
/// read a 1×1 "window" at stride 1: fully local operands, no halo.
pub(crate) fn kernel_geometry(layer: &LayerSpec) -> Option<(usize, usize)> {
    match *layer {
        LayerSpec::Conv2d { kernel, stride, .. } => Some((kernel, stride)),
        LayerSpec::AvgPool { size } => Some((size, size)),
        LayerSpec::FullyConnected { .. } => None,
        LayerSpec::Eltwise { .. } => Some((1, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CompileError;
    use crate::graph::{compile_graph, phase_fc_weight_addr, MultiLayerProgram};
    use crate::program::Mapping;
    use neurocube_dram::{AddressMap, MemoryConfig};
    use neurocube_fixed::Activation;
    use neurocube_nn::NetworkSpec;

    fn map16() -> AddressMap {
        MemoryConfig::hmc_int().address_map()
    }

    #[test]
    fn grid_rects_partition_the_plane() {
        let (h, w) = (234, 314);
        let mut count = 0;
        for gy in 0..4 {
            for gx in 0..4 {
                count += grid_rect(h, w, 4, 4, gx, gy).area();
            }
        }
        assert_eq!(count, h * w);
    }

    #[test]
    fn spatial_owner_and_addresses() {
        let shape = Shape::new(2, 8, 8);
        let kind = spatial_layout(shape, 4, 4, None);
        let vl = VolumeLayout {
            shape,
            kind,
            base: (0..16).map(|v| v * 1000).collect(),
        };
        // Neuron (c=1, y=3, x=5): grid cell (gx=2, gy=1) => vault 6.
        let flat = (8 + 3) * 8 + 5;
        assert_eq!(vl.owner(flat), 6);
        // Its local address: tile is rows 2..4, cols 4..6 (2x2); local idx
        // within map = (3-2)*2 + (5-4) = 3; channel 1 => 4 + 3 = 7.
        assert_eq!(vl.local_addr(6, flat), Some(6000 + 2 * 7));
        // A vault that stores no copy:
        assert_eq!(vl.local_addr(0, flat), None);
    }

    #[test]
    fn halo_extends_stored_rect() {
        let in_shape = Shape::new(1, 10, 10);
        let out = Rect {
            y0: 0,
            y1: 2,
            x0: 0,
            x1: 2,
        };
        let need = input_rect_for(out, 3, 1, in_shape);
        assert_eq!(
            need,
            Rect {
                y0: 0,
                y1: 4,
                x0: 0,
                x1: 4
            }
        );
        // Pooling (k = s = 2).
        let need = input_rect_for(out, 2, 2, in_shape);
        assert_eq!(
            need,
            Rect {
                y0: 0,
                y1: 4,
                x0: 0,
                x1: 4
            }
        );
    }

    #[test]
    fn flat_slices_and_duplication() {
        let kind = flat_layout(100, 16, false);
        let vl = VolumeLayout {
            shape: Shape::flat(100),
            kind,
            base: (0..16).map(|v| v * 1_000).collect(),
        };
        assert_eq!(vl.owner(0), 0);
        assert_eq!(vl.owner(99), 15);
        assert_eq!(vl.assigned_count(0), 6); // 100/16 rounding
        assert_eq!((0..16).map(|v| vl.assigned_count(v)).sum::<u64>(), 100);
        assert!(vl.local_addr(1, 0).is_none());
        let dup = VolumeLayout {
            shape: Shape::flat(100),
            kind: flat_layout(100, 16, true),
            base: vl.base.clone(),
        };
        assert_eq!(dup.local_addr(3, 42), Some(3_000 + 84));
        assert_eq!(dup.bytes_total(), 16 * 200);
    }

    #[test]
    fn assigned_neurons_cover_volume_once() {
        let shape = Shape::new(3, 9, 9);
        let vl = VolumeLayout {
            shape,
            kind: spatial_layout(shape, 4, 4, None),
            base: vec![0; 16],
        };
        let mut seen = vec![false; shape.len()];
        for v in 0..16u8 {
            for i in 0..vl.assigned_count(v) {
                let n = vl.assigned_neuron(v, i);
                assert!(!seen[n], "neuron {n} assigned twice");
                seen[n] = true;
                assert_eq!(vl.owner(n), v);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    /// The one placement, [`compile_graph`](crate::compile_graph), of a
    /// chain for `mapping`.
    fn place(net: &NetworkSpec, duplicate: bool) -> Result<MultiLayerProgram, CompileError> {
        compile_graph(&net.to_graph(), Mapping::paper(duplicate), &map16())
    }

    #[test]
    fn network_layout_scene_like_geometry() {
        let net = NetworkSpec::new(
            Shape::new(3, 24, 32),
            vec![
                LayerSpec::conv(4, 5, Activation::Tanh),
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::fc(10, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let nodup = place(&net, false).unwrap();
        let dup = place(&net, true).unwrap();
        assert!(dup.duplicated_bytes() > nodup.duplicated_bytes());
        assert_eq!(dup.minimal_bytes(), nodup.minimal_bytes());
        // Without duplication every buffer holds exactly one copy.
        assert_eq!(nodup.duplicated_bytes(), nodup.minimal_bytes());
        // FC weights allocated only for the FC layer.
        assert!(nodup.phases[0].weight_base.is_none());
        assert!(nodup.phases[2].weight_base.is_some());
    }

    #[test]
    fn fc_weight_addresses_are_transposed() {
        let net = NetworkSpec::new(
            Shape::flat(32),
            vec![LayerSpec::fc(32, Activation::Identity)],
        )
        .unwrap();
        let prog = place(&net, false).unwrap();
        let fc = &prog.phases[0];
        // Vault 0 owns 2 output neurons (one partial group of width 2);
        // weights for op k are contiguous, and consecutive ops are
        // consecutive blocks of that width.
        let a0 = phase_fc_weight_addr(fc, 0, 0, 5);
        let a1 = phase_fc_weight_addr(fc, 0, 1, 5);
        assert_eq!(a1, a0 + 2);
        let b0 = phase_fc_weight_addr(fc, 0, 0, 6);
        assert_eq!(b0, a0 + 2 * 2);
        // A second group starts a fresh sequential run: with 32 outputs over
        // 16 vaults every vault has exactly one group, so check via a wider
        // layer.
        let wide = NetworkSpec::new(
            Shape::flat(8),
            vec![LayerSpec::fc(17 * 16, Activation::Identity)],
        )
        .unwrap();
        let wide_prog = place(&wide, false).unwrap();
        let wide_fc = &wide_prog.phases[0];
        // Vault 0 owns 17 neurons: one full group (16) + partial width 1.
        let full_first = phase_fc_weight_addr(wide_fc, 0, 0, 0);
        let partial_first = phase_fc_weight_addr(wide_fc, 0, 16, 0);
        assert_eq!(partial_first, full_first + 2 * 8 * 16);
        let partial_second_op = phase_fc_weight_addr(wide_fc, 0, 16, 1);
        assert_eq!(partial_second_op, partial_first + 2);
    }

    #[test]
    fn vault_over_capacity_is_a_typed_error() {
        // 64k inputs x 100k outputs of streamed weights: ~12.8 GB over 16
        // vaults, far beyond the 256 MB per-vault region. (Nothing is
        // written: placement is pure address arithmetic.)
        let net = NetworkSpec::new(
            Shape::flat(65_536),
            vec![LayerSpec::fc(100_000, Activation::Identity)],
        )
        .unwrap();
        let err = place(&net, false).unwrap_err();
        let CompileError::VaultOverCapacity {
            needed, capacity, ..
        } = err
        else {
            panic!("expected VaultOverCapacity, got {err}");
        };
        assert!(needed > capacity);
        assert_eq!(capacity, map16().channel_bytes());
    }

    #[test]
    fn duplicated_flat_input_has_16x_footprint() {
        let net = NetworkSpec::new(
            Shape::flat(160),
            vec![LayerSpec::fc(16, Activation::Identity)],
        )
        .unwrap();
        let dup = place(&net, true).unwrap();
        // Input vector is replicated into all 16 vaults.
        assert_eq!(dup.input_vol.bytes_total(), 16 * 160 * 2);
        assert_eq!(dup.input_vol.bytes_minimal(), 160 * 2);
    }
}
