//! Memory-requirement analysis — the paper's Fig. 1.
//!
//! Fig. 1 plots the memory a network needs (all layer states + all synaptic
//! weights, 16-bit each) against what 1 mm² of on-chip SRAM or eDRAM can
//! hold, to argue that on-chip caches cannot scale to realistic scene
//! labeling resolutions — the motivation for 3D-stacked DRAM.
//!
//! Density constants are derived from the papers the figure cites:
//! a 14 nm FinFET SRAM with 0.050 µm²/bitcell \[11\] and a 22 nm eDRAM with
//! 0.0174 µm²/cell \[12\]; both normalized to one square millimetre of cell
//! array.

use crate::network::NetworkSpec;

/// Bytes of SRAM per mm² (14 nm FinFET, 0.050 µm² per bitcell \[11\]):
/// `1 mm² / 0.050 µm² = 20 Mbit = 2.5 MB`.
pub const SRAM_BYTES_PER_MM2: u64 = 2_500_000;

/// Bytes of eDRAM per mm² (22 nm tri-gate, 0.0174 µm² per cell \[12\]):
/// `1 mm² / 0.0174 µm² ≈ 57.5 Mbit ≈ 7.18 MB`.
pub const EDRAM_BYTES_PER_MM2: u64 = 7_183_908;

/// Memory needed by one network, split the way Fig. 1 counts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes for all neuron states, input volume included (16-bit each).
    pub state_bytes: u64,
    /// Bytes for all stored synaptic weights (16-bit each).
    pub weight_bytes: u64,
}

impl Footprint {
    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.state_bytes + self.weight_bytes
    }

    /// Total in mebibytes (for report tables).
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Square millimetres of on-chip SRAM this network would occupy.
    pub fn sram_mm2(&self) -> f64 {
        self.total_bytes() as f64 / SRAM_BYTES_PER_MM2 as f64
    }

    /// Square millimetres of on-chip eDRAM this network would occupy.
    pub fn edram_mm2(&self) -> f64 {
        self.total_bytes() as f64 / EDRAM_BYTES_PER_MM2 as f64
    }
}

/// Computes the Fig. 1 footprint of a network.
pub fn of_network(net: &NetworkSpec) -> Footprint {
    let state_bytes: u64 = net.shapes().iter().map(|s| s.state_bytes() as u64).sum();
    let weight_bytes: u64 = net.weights_per_layer().iter().map(|&n| n as u64 * 2).sum();
    Footprint {
        state_bytes,
        weight_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn densities_match_cited_cells() {
        // 1e6 µm² per mm², 8 bits per byte.
        assert_eq!(SRAM_BYTES_PER_MM2, (1e6 / 0.050 / 8.0) as u64);
        // eDRAM constant is within 1% of the cell-math value.
        let ideal = 1e6 / 0.0174 / 8.0;
        assert!((EDRAM_BYTES_PER_MM2 as f64 - ideal).abs() / ideal < 0.01);
    }

    #[test]
    fn scene_labeling_exceeds_1mm2_sram_at_paper_resolution() {
        // The core claim of Fig. 1: realistic resolutions don't fit on chip.
        let fp = of_network(&workloads::scene_labeling_paper());
        assert!(fp.sram_mm2() > 1.0, "{} MiB should not fit", fp.total_mib());
        assert!(fp.edram_mm2() > 1.0);
    }

    #[test]
    fn footprint_grows_with_resolution() {
        let small = of_network(&workloads::scene_labeling(64, 64).unwrap());
        let large = of_network(&workloads::scene_labeling(240, 320).unwrap());
        assert!(large.total_bytes() > 4 * small.total_bytes());
    }

    #[test]
    fn mnist_mlp_fits_edram_but_shows_weight_dominance() {
        let fp = of_network(&workloads::mnist_mlp(100));
        // MLP footprints are weight-dominated (dense matrices).
        assert!(fp.weight_bytes > 10 * fp.state_bytes);
        assert!(fp.edram_mm2() <= 1.0);
    }

    #[test]
    fn totals_add_up() {
        let fp = Footprint {
            state_bytes: 100,
            weight_bytes: 28,
        };
        assert_eq!(fp.total_bytes(), 128);
        assert!(fp.sram_mm2() > 0.0);
        assert!(fp.edram_mm2() < fp.sram_mm2());
    }
}
