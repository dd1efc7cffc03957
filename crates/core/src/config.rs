//! Whole-system configuration.

use neurocube_dram::MemoryConfig;
use neurocube_fixed::AccumulatorWidth;
use neurocube_noc::{NocError, NodeId, Topology};
use neurocube_png::Mapping;
use std::fmt;

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
    /// PE cache sub-bank capacity (the paper's design point is 64).
    pub cache_entries_per_bank: usize,
    /// PNG run-ahead credit window in operations (default 16; see
    /// [`PngHookup::run_ahead_ops`](neurocube_png::PngHookup::run_ahead_ops)
    /// for the deadlock/throughput constraints).
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
        SystemConfig {
            memory: MemoryConfig::hmc_int(),
            topology: Topology::mesh4x4(),
            duplicate,
            accumulator: AccumulatorWidth::Wide32,
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

    /// DDR3 main memory: 2 channels shared by the 16 PEs (Fig. 15(a)
    /// baseline). Each controller sits at the first node of its channel's
    /// block of eight regions ([`attach`](SystemConfig::attach)): nodes 0
    /// and 8, rows 0 and 2 of the mesh's first column. Duplication is not
    /// supported on shared-controller memories (see `DESIGN.md`), so this
    /// configuration always runs without it.
    pub fn ddr3() -> SystemConfig {
        SystemConfig {
            memory: MemoryConfig::ddr3(),
            duplicate: false,
            ..SystemConfig::paper(false)
        }
    }

    /// HMC-style memory with `channels` physical channels (Fig. 15(a)
    /// concurrency sweep). Each controller sits at the first node of its
    /// channel's block of regions, so they spread evenly over the mesh;
    /// duplication is on only when every region has its own channel.
    ///
    /// # Panics
    ///
    /// Panics unless `channels` divides 16.
    pub fn hmc_with_channels(channels: u32) -> SystemConfig {
        let memory = MemoryConfig::hmc_with_channels(channels);
        SystemConfig {
            duplicate: channels == memory.regions,
            memory,
            ..SystemConfig::paper(false)
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
        }
    }

    /// The mesh node where `region`'s PNG attaches: the first node of its
    /// channel's block of `regions / channels` regions. That is `region`
    /// itself on the HMC, and a shared controller node on a memory with
    /// fewer channels than regions.
    ///
    /// # Panics
    ///
    /// Panics when `memory.channels` is zero, which
    /// [`validate`](Self::validate) rejects.
    pub fn attach(&self, region: NodeId) -> NodeId {
        let m = &self.memory;
        (m.channel_of_region(u32::from(region)) * (m.regions / m.channels)) as NodeId
    }

    /// `true` when every region's PNG sits at its own mesh node.
    pub(crate) fn identity_attach(&self) -> bool {
        self.memory.channels == self.memory.regions
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first broken invariant: the region count does not match
    /// the node count, duplication is requested on a shared-controller
    /// memory (write-back copies need per-node PNGs to demultiplex), the
    /// PNG run-ahead window can put more operands in flight than a PE cache
    /// sub-bank holds, or the memory breaks the validated geometry
    /// ([`MemoryConfig::geometry_error`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let nodes = self.nodes();
        if self.memory.regions as usize != nodes {
            return Err(ConfigError::RegionCount {
                regions: self.memory.regions as usize,
                nodes,
            });
        }
        if self.duplicate && !self.identity_attach() {
            return Err(ConfigError::DuplicationNeedsIdentityAttach);
        }
        // Deadlock-freedom coupling: every operand a PNG may have in
        // flight must fit the PE cache — up to ceil(window/16) ops per
        // OP-ID residue class, at most 17 packets each (FC dataflow).
        if self.run_ahead_ops.div_ceil(16) * 17 > self.cache_entries_per_bank as u64 {
            return Err(ConfigError::RunAheadOverflow {
                run_ahead_ops: self.run_ahead_ops,
                cache_entries_per_bank: self.cache_entries_per_bank,
            });
        }
        if let Some(rule) = self.memory.geometry_error() {
            return Err(ConfigError::MemoryGeometry(rule));
        }
        Ok(())
    }
}

/// Why a [`SystemConfig`] cannot be built into a
/// [`Neurocube`](crate::Neurocube).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The memory does not have one region per PE.
    RegionCount {
        /// Regions the memory provides.
        regions: usize,
        /// PEs the topology wires.
        nodes: usize,
    },
    /// Duplication was requested on a memory whose regions share
    /// controllers.
    DuplicationNeedsIdentityAttach,
    /// The PNG run-ahead window can put more operands in flight than a PE
    /// cache sub-bank holds, which can deadlock the cube.
    RunAheadOverflow {
        /// The configured window, in operations.
        run_ahead_ops: u64,
        /// The configured sub-bank capacity.
        cache_entries_per_bank: usize,
    },
    /// The memory breaks the validated geometry; the payload names the
    /// first broken rule (see [`MemoryConfig::geometry_error`]).
    MemoryGeometry(&'static str),
    /// The target fabric cannot be constructed (oversized topology).
    Noc(NocError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RegionCount { regions, nodes } => write!(
                f,
                "one memory region per PE: {regions} regions for {nodes} PEs"
            ),
            ConfigError::DuplicationNeedsIdentityAttach => {
                write!(f, "duplication requires per-node vault controllers")
            }
            ConfigError::RunAheadOverflow {
                run_ahead_ops,
                cache_entries_per_bank,
            } => write!(
                f,
                "run-ahead window {run_ahead_ops} overflows \
                 {cache_entries_per_bank}-entry cache sub-banks"
            ),
            ConfigError::MemoryGeometry(rule) => write!(f, "memory geometry: {rule}"),
            ConfigError::Noc(e) => write!(f, "fabric not constructible: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Noc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NocError> for ConfigError {
    fn from(e: NocError) -> ConfigError {
        ConfigError::Noc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_dram::RefreshModel;

    #[test]
    fn paper_config_is_identity_attached() {
        let cfg = SystemConfig::paper(true);
        cfg.validate().unwrap();
        assert!(cfg.identity_attach());
        assert_eq!(cfg.nodes(), 16);
        assert_eq!(cfg.grid(), (4, 4));
        assert_eq!(cfg.mapping().vaults(), 16);
    }

    #[test]
    fn ddr3_attaches_eight_regions_per_controller() {
        let cfg = SystemConfig::ddr3();
        cfg.validate().unwrap();
        assert!(!cfg.identity_attach());
        assert_eq!(cfg.attach(0), 0);
        assert_eq!(cfg.attach(7), 0);
        assert_eq!(cfg.attach(8), 8);
        assert_eq!(cfg.attach(15), 8);
        assert!(!cfg.duplicate);
    }

    #[test]
    fn channel_sweep_attach_points() {
        let cfg = SystemConfig::hmc_with_channels(4);
        cfg.validate().unwrap();
        assert_eq!(cfg.attach(0), 0);
        assert_eq!(cfg.attach(5), 4);
        assert_eq!(cfg.attach(10), 8);
        assert_eq!(cfg.attach(15), 12);
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

    /// Each invariant broken in turn: `try_new` reports it as a value.
    #[test]
    fn try_new_rejects_each_broken_invariant() {
        let region_count = {
            let mut cfg = SystemConfig::paper(true);
            cfg.memory.regions = 8;
            cfg
        };
        let duplicated_ddr3 = SystemConfig {
            duplicate: true,
            ..SystemConfig::ddr3()
        };
        let run_ahead = SystemConfig {
            run_ahead_ops: 64,
            ..SystemConfig::paper(true)
        };
        let oversized_mesh = {
            let mut cfg = SystemConfig::paper(false);
            cfg.topology = Topology::Mesh {
                width: 12,
                height: 12,
            };
            cfg.memory.regions = 144;
            cfg
        };
        let memory = |edit: fn(&mut MemoryConfig)| {
            let mut cfg = SystemConfig::paper(false);
            edit(&mut cfg.memory);
            cfg
        };
        let cases = [
            (
                region_count,
                ConfigError::RegionCount {
                    regions: 8,
                    nodes: 16,
                },
            ),
            (duplicated_ddr3, ConfigError::DuplicationNeedsIdentityAttach),
            (
                run_ahead,
                ConfigError::RunAheadOverflow {
                    run_ahead_ops: 64,
                    cache_entries_per_bank: 64,
                },
            ),
            (
                oversized_mesh,
                ConfigError::Noc(NocError::MeshTooLarge {
                    nodes: 144,
                    max: 128,
                }),
            ),
            (
                memory(|m| m.channels = 0),
                ConfigError::MemoryGeometry("channels must be nonzero and divide regions"),
            ),
            (
                memory(|m| m.channel.banks = 0),
                ConfigError::MemoryGeometry("banks must be a power of two from 1 to 64"),
            ),
            (
                memory(|m| m.region_bytes = 0),
                ConfigError::MemoryGeometry("regions and region_bytes must be nonzero"),
            ),
            (
                memory(|m| m.channel.row_bytes = 384),
                ConfigError::MemoryGeometry("row_bytes must be a power of two"),
            ),
            (
                memory(|m| {
                    m.channel.refresh = Some(RefreshModel {
                        interval: 0,
                        duration: 1_750,
                    });
                }),
                ConfigError::MemoryGeometry("refresh interval must be nonzero"),
            ),
        ];
        for (cfg, want) in cases {
            match crate::Neurocube::try_new(cfg) {
                Err(got) => assert_eq!(got, want),
                Ok(_) => panic!("expected {want}"),
            }
        }
    }

    #[test]
    fn noc_errors_wrap_with_source() {
        use std::error::Error;
        let e = ConfigError::from(NocError::MeshTooLarge {
            nodes: 144,
            max: 128,
        });
        assert!(e.to_string().contains("fabric not constructible"));
        assert!(e.to_string().contains("144 routers"));
        assert!(e.source().is_some());
    }

    #[test]
    fn fully_connected_grid_is_4x4() {
        let cfg = SystemConfig::fully_connected_noc(true);
        cfg.validate().unwrap();
        assert_eq!(cfg.grid(), (4, 4));
        assert_eq!(cfg.topology.ports(), 17);
    }
}
