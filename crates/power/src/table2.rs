//! Table II: synthesized per-component frequency, power and area.

use std::fmt;

/// The two synthesis nodes of §VII.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcessNode {
    /// Synopsys 28 nm CMOS generic library; SRAM limits the clock to
    /// 300 MHz, MACs run at 18.75 MHz.
    Cmos28,
    /// Nangate FreePDK15 FinFET at the 5 GHz (5,120 MHz synthesized) design
    /// point.
    FinFet15,
}

impl ProcessNode {
    /// Activity factor relative to the 5 GHz vault stream — the paper
    /// scales the vault-controller and DRAM power by `300 MHz / 5 GHz`
    /// at 28 nm.
    pub fn activity(self) -> f64 {
        match self {
            ProcessNode::Cmos28 => 0.06,
            ProcessNode::FinFet15 => 1.0,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProcessNode::Cmos28 => "28nm",
            ProcessNode::FinFet15 => "15nm",
        }
    }
}

/// One synthesized module row of Table II.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComponentPower {
    /// Module name as printed in the paper.
    pub name: &'static str,
    /// Storage size in bits where the paper lists one.
    pub size_bits: Option<u32>,
    /// Instances of this module per PE (16 MACs, 1 of everything else).
    pub per_pe: u32,
    /// Operating frequency in MHz at (28 nm, 15 nm).
    pub freq_mhz: (f64, f64),
    /// Dynamic power in watts at (28 nm, 15 nm).
    pub dynamic_w: (f64, f64),
    /// Area in mm² at (28 nm, 15 nm).
    pub area_mm2: (f64, f64),
}

impl ComponentPower {
    /// Dynamic power at a node.
    pub(crate) fn power_w(&self, node: ProcessNode) -> f64 {
        match node {
            ProcessNode::Cmos28 => self.dynamic_w.0,
            ProcessNode::FinFet15 => self.dynamic_w.1,
        }
    }

    /// Area at a node.
    pub fn area(&self, node: ProcessNode) -> f64 {
        match node {
            ProcessNode::Cmos28 => self.area_mm2.0,
            ProcessNode::FinFet15 => self.area_mm2.1,
        }
    }

    /// Power density in W/mm² at a node (a Table II column).
    pub fn power_density(&self, node: ProcessNode) -> f64 {
        self.power_w(node) / self.area(node)
    }

    /// Total power of all instances in one PE.
    pub(crate) fn pe_power_w(&self, node: ProcessNode) -> f64 {
        self.power_w(node) * f64::from(self.per_pe)
    }

    /// Total area of all instances in one PE.
    pub(crate) fn pe_area_mm2(&self, node: ProcessNode) -> f64 {
        self.area(node) * f64::from(self.per_pe)
    }
}

impl fmt::Display for ComponentPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:>8} {:>8.2} {:>8} {:>10.2e} {:>10.2e} {:>8.4} {:>8.4}",
            self.name,
            self.size_bits.map_or("N/A".into(), |b| b.to_string()),
            self.freq_mhz.0,
            self.freq_mhz.1,
            self.dynamic_w.0,
            self.dynamic_w.1,
            self.area_mm2.0,
            self.area_mm2.1,
        )
    }
}

/// The synthesized module rows of Table II, in the paper's order.
pub const TABLE2_COMPONENTS: [ComponentPower; 6] = [
    ComponentPower {
        name: "MAC",
        size_bits: Some(16),
        per_pe: 16,
        freq_mhz: (18.75, 320.0),
        dynamic_w: (3.02e-4, 9.17e-3),
        area_mm2: (0.0011, 0.0002),
    },
    ComponentPower {
        name: "SRAM Cache",
        size_bits: Some(20_480),
        per_pe: 1,
        freq_mhz: (300.0, 5120.0),
        dynamic_w: (2.93e-3, 2.90e-2),
        area_mm2: (0.0873, 0.0448),
    },
    ComponentPower {
        name: "Temporal Buffer",
        size_bits: Some(512),
        per_pe: 1,
        freq_mhz: (300.0, 5120.0),
        dynamic_w: (2.70e-5, 2.05e-5),
        area_mm2: (0.0025, 0.0003),
    },
    ComponentPower {
        name: "PMC",
        size_bits: None,
        per_pe: 1,
        freq_mhz: (300.0, 5120.0),
        dynamic_w: (4.17e-4, 1.39e-3),
        area_mm2: (0.0081, 0.0013),
    },
    ComponentPower {
        name: "Weight Reg",
        size_bits: Some(3_600),
        per_pe: 1,
        freq_mhz: (300.0, 5120.0),
        dynamic_w: (1.84e-4, 1.44e-4),
        area_mm2: (0.0173, 0.0020),
    },
    ComponentPower {
        name: "Router",
        size_bits: Some(36),
        per_pe: 1,
        freq_mhz: (300.0, 5120.0),
        dynamic_w: (7.17e-3, 3.59e-2),
        area_mm2: (0.0609, 0.0085),
    },
];

/// One PE + router power (the paper's "PE Sum" row), rebuilt from the
/// component rows.
pub fn pe_sum_power_w(node: ProcessNode) -> f64 {
    TABLE2_COMPONENTS.iter().map(|c| c.pe_power_w(node)).sum()
}

/// One PE + router area (the paper's "PE Sum" row).
pub fn pe_sum_area_mm2(node: ProcessNode) -> f64 {
    TABLE2_COMPONENTS.iter().map(|c| c.pe_area_mm2(node)).sum()
}

/// Compute-layer power: 16 PEs + 16 routers (the paper's "Compute in
/// Neurocube" row: 249 mW at 28 nm, 3.41 W at 15 nm).
pub fn compute_power_w(node: ProcessNode) -> f64 {
    16.0 * pe_sum_power_w(node)
}

/// Compute-layer area: the paper's 3.0983 mm² (28 nm) / 0.9601 mm² (15 nm).
pub fn compute_area_mm2(node: ProcessNode) -> f64 {
    16.0 * pe_sum_area_mm2(node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_sum_matches_paper_row() {
        // Paper: 1.56e-2 W / 0.1936 mm² at 28 nm; 2.13e-1 W / 0.0600 mm² at
        // 15 nm (within rounding of the published component rows).
        assert!((pe_sum_power_w(ProcessNode::Cmos28) - 1.56e-2).abs() < 2e-4);
        assert!((pe_sum_area_mm2(ProcessNode::Cmos28) - 0.1936).abs() < 2e-3);
        assert!((pe_sum_power_w(ProcessNode::FinFet15) - 2.13e-1).abs() < 2e-3);
        assert!((pe_sum_area_mm2(ProcessNode::FinFet15) - 0.0600).abs() < 1e-3);
    }

    #[test]
    fn compute_totals_match_paper() {
        // 249 mW / 3.0983 mm² at 28 nm; 3.41 W / 0.9601 mm² at 15 nm.
        assert!((compute_power_w(ProcessNode::Cmos28) - 0.249).abs() < 5e-3);
        assert!((compute_area_mm2(ProcessNode::Cmos28) - 3.0983).abs() < 5e-2);
        assert!((compute_power_w(ProcessNode::FinFet15) - 3.41).abs() < 5e-2);
        assert!((compute_area_mm2(ProcessNode::FinFet15) - 0.9601).abs() < 2e-2);
    }

    #[test]
    fn mac_frequency_is_pe_over_16() {
        let mac = &TABLE2_COMPONENTS[0];
        assert!((mac.freq_mhz.0 - 300.0 / 16.0).abs() < 1e-9);
        assert!((mac.freq_mhz.1 - 5120.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn power_density_orders_of_magnitude() {
        // The paper's headline density contrast: 15 nm MAC ~ 4.9e1 W/mm².
        let mac = &TABLE2_COMPONENTS[0];
        assert!((mac.power_density(ProcessNode::FinFet15) - 45.85).abs() < 5.0);
        assert!(mac.power_density(ProcessNode::Cmos28) < 1.0);
    }

    #[test]
    fn activity_factors() {
        assert!((ProcessNode::Cmos28.activity() - 0.06).abs() < 1e-9);
        assert_eq!(ProcessNode::FinFet15.activity(), 1.0);
        assert_eq!(ProcessNode::Cmos28.name(), "28nm");
    }

    #[test]
    fn display_has_all_columns() {
        let s = TABLE2_COMPONENTS[1].to_string();
        assert!(s.contains("SRAM Cache"));
        assert!(s.contains("20480"));
    }
}
