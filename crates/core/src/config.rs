//! Whole-system configuration.

use neurocube_dram::MemoryConfig;
use neurocube_fixed::AccumulatorWidth;
use neurocube_noc::{NodeId, Topology};
use neurocube_png::Mapping;

/// Configuration of a Neurocube instance: memory technology, NoC topology,
/// data-duplication policy and MAC accumulator width.
///
/// The paper's design point is [`SystemConfig::paper`]; the evaluation
/// variants ([`ddr3`](SystemConfig::ddr3),
/// [`fully_connected_noc`](SystemConfig::fully_connected_noc),
/// [`hmc_with_channels`](SystemConfig::hmc_with_channels)) reproduce the
/// Fig. 15 comparisons.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Memory subsystem.
    pub memory: MemoryConfig,
    /// On-chip network wiring.
    pub topology: Topology,
    /// Input duplication (halos / replicated FC vectors, Fig. 10).
    pub duplicate: bool,
    /// MAC accumulator width.
    pub accumulator: AccumulatorWidth,
    /// MACs per PE.
    pub n_mac: u32,
    /// Mesh node each memory region's PNG attaches to (identity for the
    /// HMC; the shared controller node for low-channel-count memories).
    pub attach: Vec<NodeId>,
    /// PE cache sub-bank capacity (the paper's design point is 64).
    pub cache_entries_per_bank: usize,
    /// PNG run-ahead credit window in operations (default 16; see the
    /// `neurocube-png` crate docs for the deadlock/throughput constraints).
    pub run_ahead_ops: u64,
    /// Host programming-phase timing (Fig. 8(c)): when set, each layer is
    /// charged the configuration-register write time before execution.
    /// `None` reproduces the paper's evaluation, which does not count the
    /// per-layer programming time.
    pub programming: Option<ProgrammingModel>,
}

/// Timing of the host's per-layer PNG/PE configuration phase (Fig. 8(c)):
/// the host asserts configuration-enable, writes every PNG's registers
/// through the HMC external links, then deasserts to start the FSMs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgrammingModel {
    /// Configuration registers written per PNG per layer (the three loop
    /// counters, kernel geometry, base addresses, LUT select, ...).
    pub registers_per_png: u32,
    /// Nanoseconds per register write over the host link (request/response
    /// latency dominated; writes are serialized by the single host).
    pub ns_per_register: f64,
}

impl ProgrammingModel {
    /// A plausible default: 12 registers per PNG at 10 ns per serialized
    /// link write.
    pub fn typical() -> ProgrammingModel {
        ProgrammingModel {
            registers_per_png: 12,
            ns_per_register: 10.0,
        }
    }

    /// Reference cycles to program one layer on `pngs` vault controllers.
    pub fn layer_cycles(&self, pngs: u32) -> u64 {
        let ns = f64::from(self.registers_per_png) * f64::from(pngs) * self.ns_per_register;
        (ns * 1e-9 * neurocube_dram::REF_CLOCK_HZ).ceil() as u64
    }
}

impl SystemConfig {
    /// The paper's design point: 16-vault HMC, 4×4 mesh, 16 MACs/PE.
    pub fn paper(duplicate: bool) -> SystemConfig {
        let memory = MemoryConfig::hmc_int();
        SystemConfig {
            attach: (0..memory.regions as u8).collect(),
            memory,
            topology: Topology::mesh4x4(),
            duplicate,
            accumulator: AccumulatorWidth::Wide32,
            n_mac: 16,
            cache_entries_per_bank: 64,
            run_ahead_ops: 16,
            programming: None,
        }
    }

    /// The paper's design point with a fully connected NoC (Fig. 15(b)).
    pub fn fully_connected_noc(duplicate: bool) -> SystemConfig {
        SystemConfig {
            topology: Topology::FullyConnected { nodes: 16 },
            ..SystemConfig::paper(duplicate)
        }
    }

    /// DDR3 main memory: 2 channels shared by the 16 PEs, controllers at
    /// opposite mesh corners (Fig. 15(a) baseline). Duplication is not
    /// supported on shared-controller memories (see `DESIGN.md`), so this
    /// configuration always runs without it.
    pub fn ddr3() -> SystemConfig {
        let memory = MemoryConfig::ddr3();
        let attach = region_attach(memory.regions, memory.channels);
        SystemConfig {
            memory,
            topology: Topology::mesh4x4(),
            duplicate: false,
            accumulator: AccumulatorWidth::Wide32,
            n_mac: 16,
            attach,
            cache_entries_per_bank: 64,
            run_ahead_ops: 16,
            programming: None,
        }
    }

    /// HMC-style memory with `channels` physical channels (Fig. 15(a)
    /// concurrency sweep). Controllers are spread evenly over the mesh.
    ///
    /// # Panics
    ///
    /// Panics unless `channels` divides 16.
    pub fn hmc_with_channels(channels: u32) -> SystemConfig {
        let memory = MemoryConfig::hmc_with_channels(channels);
        let attach = region_attach(memory.regions, memory.channels);
        SystemConfig {
            duplicate: channels == memory.regions,
            memory,
            topology: Topology::mesh4x4(),
            accumulator: AccumulatorWidth::Wide32,
            n_mac: 16,
            attach,
            cache_entries_per_bank: 64,
            run_ahead_ops: 16,
            programming: None,
        }
    }

    /// Number of PEs / mesh nodes.
    pub fn nodes(&self) -> usize {
        usize::from(self.topology.nodes())
    }

    /// PE grid width (mesh width; 4 for a fully connected 16-node NoC).
    pub fn grid(&self) -> (usize, usize) {
        match self.topology {
            Topology::Mesh { width, height } => (usize::from(width), usize::from(height)),
            Topology::FullyConnected { nodes } => {
                let w = (f64::from(nodes)).sqrt() as usize;
                assert_eq!(w * w, usize::from(nodes), "square grids only");
                (w, w)
            }
        }
    }

    /// The compiler mapping induced by this configuration.
    pub fn mapping(&self) -> Mapping {
        let (gw, gh) = self.grid();
        Mapping {
            grid_w: gw,
            grid_h: gh,
            duplicate: self.duplicate,
            n_mac: self.n_mac,
        }
    }

    /// `true` when every region's PNG sits at its own mesh node.
    pub fn identity_attach(&self) -> bool {
        self.attach
            .iter()
            .enumerate()
            .all(|(i, &n)| i == usize::from(n))
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the region count does not match the node count, or if
    /// duplication is requested on a shared-controller memory (write-back
    /// copies need per-node PNGs to demultiplex).
    pub fn validate(&self) {
        assert_eq!(
            self.memory.regions as usize,
            self.nodes(),
            "one memory region per PE"
        );
        assert_eq!(
            self.attach.len(),
            self.nodes(),
            "one attach entry per region"
        );
        if !self.identity_attach() {
            assert!(
                !self.duplicate,
                "duplication requires per-node vault controllers"
            );
        }
        // Deadlock-freedom coupling: every operand a PNG may have in
        // flight must fit the PE cache — up to ceil(window/16) ops per
        // OP-ID residue class, at most 17 packets each (FC dataflow).
        assert!(
            self.run_ahead_ops.div_ceil(16) * 17 <= self.cache_entries_per_bank as u64,
            "run-ahead window {} overflows {}-entry cache sub-banks",
            self.run_ahead_ops,
            self.cache_entries_per_bank
        );
    }
}

/// Evenly spreads `channels` controllers over `regions` mesh nodes:
/// region `r` attaches at the first node of its channel's block.
fn region_attach(regions: u32, channels: u32) -> Vec<NodeId> {
    let per = regions / channels;
    (0..regions).map(|r| ((r / per) * per) as NodeId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_identity_attached() {
        let cfg = SystemConfig::paper(true);
        cfg.validate();
        assert!(cfg.identity_attach());
        assert_eq!(cfg.nodes(), 16);
        assert_eq!(cfg.grid(), (4, 4));
        assert_eq!(cfg.mapping().vaults(), 16);
    }

    #[test]
    fn ddr3_attaches_eight_regions_per_controller() {
        let cfg = SystemConfig::ddr3();
        cfg.validate();
        assert!(!cfg.identity_attach());
        assert_eq!(cfg.attach[0], 0);
        assert_eq!(cfg.attach[7], 0);
        assert_eq!(cfg.attach[8], 8);
        assert_eq!(cfg.attach[15], 8);
        assert!(!cfg.duplicate);
    }

    #[test]
    fn channel_sweep_attach_points() {
        let cfg = SystemConfig::hmc_with_channels(4);
        cfg.validate();
        assert_eq!(cfg.attach[0], 0);
        assert_eq!(cfg.attach[5], 4);
        assert_eq!(cfg.attach[10], 8);
        assert_eq!(cfg.attach[15], 12);
        // Full 16-channel sweep degenerates to the paper config.
        let full = SystemConfig::hmc_with_channels(16);
        assert!(full.identity_attach());
    }

    #[test]
    fn programming_model_cycles() {
        let m = ProgrammingModel::typical();
        // 12 regs x 16 PNGs x 10 ns = 1.92 µs = 9600 cycles at 5 GHz.
        assert_eq!(m.layer_cycles(16), 9601); // ceil of fp rounding
        assert!(SystemConfig::paper(true).programming.is_none());
    }

    #[test]
    fn fully_connected_grid_is_4x4() {
        let cfg = SystemConfig::fully_connected_noc(true);
        cfg.validate();
        assert_eq!(cfg.grid(), (4, 4));
        assert_eq!(cfg.topology.ports(), 17);
    }
}
