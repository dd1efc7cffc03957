//! The paper's Table I: 3D stacked memory technology comparison.

use std::fmt;

/// Physical interface style of a memory technology (Table I, row 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interface {
    /// Conventional planar DIMM interface.
    Planar2D,
    /// Interposer-based side-by-side stacking.
    Interposer2p5D,
    /// True die stacking with through-silicon vias.
    Stacked3D,
}

impl fmt::Display for Interface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Interface::Planar2D => "2D",
            Interface::Interposer2p5D => "2.5D",
            Interface::Stacked3D => "3D",
        };
        f.write_str(s)
    }
}

/// One row of the paper's Table I — the headline parameters of a candidate
/// memory technology.
///
/// # Examples
///
/// ```
/// use neurocube_dram::MEMORY_SPECS;
///
/// let hmc = &MEMORY_SPECS[4];
/// assert_eq!(hmc.name, "HMC-Int");
/// assert_eq!(hmc.max_channels, 16);
/// assert_eq!(hmc.aggregate_peak_bandwidth_gbps(), 160.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MemorySpec {
    /// Human-readable technology name.
    pub name: &'static str,
    /// Interface style.
    pub interface: Interface,
    /// Maximum number of independent channels (vaults for HMC).
    pub max_channels: u32,
    /// Channel word size in bits.
    pub word_bits: u32,
    /// Peak bandwidth per channel, GB/s.
    pub peak_bw_gbps: f64,
    /// Access latency `t_CL + t_RCD` in nanoseconds, if published.
    pub tcl_trcd_ns: Option<f64>,
    /// Operating voltage in volts.
    pub voltage_v: f64,
    /// Access energy in pJ per bit, if published.
    pub energy_pj_per_bit: Option<f64>,
}

impl MemorySpec {
    /// DDR3 SDRAM (JESD79-3F), the conventional baseline.
    pub const fn ddr3() -> MemorySpec {
        MemorySpec {
            name: "DDR3",
            interface: Interface::Planar2D,
            max_channels: 2,
            word_bits: 64,
            peak_bw_gbps: 12.8,
            tcl_trcd_ns: Some(25.0),
            voltage_v: 1.5,
            energy_pj_per_bit: Some(70.0),
        }
    }

    /// Wide I/O 2 (JESD229-2), mobile 3D stacking.
    pub(crate) const fn wide_io2() -> MemorySpec {
        MemorySpec {
            name: "Wide I/O 2",
            interface: Interface::Stacked3D,
            max_channels: 8,
            word_bits: 128,
            peak_bw_gbps: 6.4,
            tcl_trcd_ns: None,
            voltage_v: 1.1,
            energy_pj_per_bit: None,
        }
    }

    /// High Bandwidth Memory (JESD235).
    pub(crate) const fn hbm() -> MemorySpec {
        MemorySpec {
            name: "HBM",
            interface: Interface::Interposer2p5D,
            max_channels: 8,
            word_bits: 128,
            peak_bw_gbps: 16.0,
            tcl_trcd_ns: None,
            voltage_v: 1.2,
            energy_pj_per_bit: None,
        }
    }

    /// Hybrid Memory Cube, external host links.
    pub const fn hmc_external() -> MemorySpec {
        MemorySpec {
            name: "HMC-Ext",
            interface: Interface::Stacked3D,
            max_channels: 8,
            word_bits: 32,
            peak_bw_gbps: 40.0,
            tcl_trcd_ns: Some(27.5),
            voltage_v: 1.2,
            energy_pj_per_bit: Some(10.0),
        }
    }

    /// Hybrid Memory Cube, internal vault interface — what the Neurocube's
    /// logic die actually sees (one channel per vault).
    pub(crate) const fn hmc_internal() -> MemorySpec {
        MemorySpec {
            name: "HMC-Int",
            interface: Interface::Stacked3D,
            max_channels: 16,
            word_bits: 32,
            peak_bw_gbps: 10.0,
            tcl_trcd_ns: Some(27.5),
            voltage_v: 1.2,
            energy_pj_per_bit: Some(3.7),
        }
    }

    /// Peak bandwidth with every channel active, GB/s.
    pub fn aggregate_peak_bandwidth_gbps(&self) -> f64 {
        self.peak_bw_gbps * f64::from(self.max_channels)
    }
}

/// All Table I rows, in the paper's column order.
pub const MEMORY_SPECS: [MemorySpec; 5] = [
    MemorySpec::ddr3(),
    MemorySpec::wide_io2(),
    MemorySpec::hbm(),
    MemorySpec::hmc_external(),
    MemorySpec::hmc_internal(),
];

impl fmt::Display for MemorySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<11} {:>5} {:>9} {:>9} {:>11} {:>11} {:>8} {:>11}",
            self.name,
            self.interface.to_string(),
            self.max_channels,
            format!("{} bit", self.word_bits),
            format!("{} GBps", self.peak_bw_gbps),
            self.tcl_trcd_ns
                .map_or("N/A".to_string(), |v| format!("{v} ns")),
            format!("{} V", self.voltage_v),
            self.energy_pj_per_bit
                .map_or("N/A".to_string(), |v| format!("{v} pJ/bit")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_values() {
        let ddr3 = MemorySpec::ddr3();
        assert_eq!(ddr3.max_channels, 2);
        assert_eq!(ddr3.word_bits, 64);
        assert_eq!(ddr3.peak_bw_gbps, 12.8);
        assert_eq!(ddr3.energy_pj_per_bit, Some(70.0));

        let hmc = MemorySpec::hmc_internal();
        assert_eq!(hmc.max_channels, 16);
        assert_eq!(hmc.word_bits, 32);
        assert_eq!(hmc.peak_bw_gbps, 10.0);
        assert_eq!(hmc.tcl_trcd_ns, Some(27.5));
        assert_eq!(hmc.energy_pj_per_bit, Some(3.7));
    }

    #[test]
    fn hmc_aggregate_bandwidth_beats_ddr3() {
        // The core of the paper's Fig. 15(a) argument: per-channel DDR3 is
        // faster, aggregate HMC is over 6x faster.
        let hmc = MemorySpec::hmc_internal();
        let ddr3 = MemorySpec::ddr3();
        assert!(ddr3.peak_bw_gbps > hmc.peak_bw_gbps);
        assert!(hmc.aggregate_peak_bandwidth_gbps() > 6.0 * ddr3.aggregate_peak_bandwidth_gbps());
    }

    #[test]
    fn display_includes_key_fields() {
        let s = MemorySpec::hmc_internal().to_string();
        assert!(s.contains("HMC-Int"));
        assert!(s.contains("16"));
        assert!(s.contains("3.7 pJ/bit"));
        let s = MemorySpec::wide_io2().to_string();
        assert!(s.contains("N/A"));
    }

    #[test]
    fn all_specs_listed() {
        assert_eq!(MEMORY_SPECS.len(), 5);
        assert_eq!(MEMORY_SPECS[0].name, "DDR3");
        assert_eq!(MEMORY_SPECS[4].name, "HMC-Int");
    }
}
