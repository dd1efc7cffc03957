//! Steady-state 3D thermal model of the Neurocube stack (Fig. 17).
//!
//! The paper runs 3D-ICE / Energy Introspector over the Fig. 16 floorplan
//! with a passive heat sink and reports maximum temperatures of 349 K on
//! the logic die and 344 K across the four DRAM dies at the 15 nm / 5 GHz
//! design point, against HMC 2.0 limits of 383 K (logic) and 378 K (DRAM).
//!
//! We reproduce that analysis with a steady-state finite-difference
//! resistive grid: five dies (logic at the bottom, four DRAM above), each
//! split into the 4×4 vault tiles, with vertical conduction between dies,
//! lateral conduction between neighbouring tiles, and a heat-sink path from
//! the top die to ambient. The three conductances are calibrated once so
//! the 15 nm power numbers of Table II land on the paper's reported maxima
//! (they do, within ~1 K), and the 28 nm point then follows from the model
//! — as in the paper, its temperature rise is negligible.

use crate::hmc::{dram_dies_power_w, logic_die_power_w};
use crate::table2::{compute_power_w, ProcessNode};

/// Grid width/height (vault tiles per die edge).
pub(crate) const GRID: usize = 4;

/// DRAM dies in the stack.
pub(crate) const DRAM_DIES: usize = 4;

/// Ambient / coolant temperature in kelvin.
pub(crate) const AMBIENT_K: f64 = 300.0;

/// HMC 2.0 maximum logic-die operating temperature \[36\].
pub const LOGIC_LIMIT_K: f64 = 383.0;

/// HMC 2.0 maximum DRAM-die operating temperature \[36\].
pub const DRAM_LIMIT_K: f64 = 378.0;

/// Per-tile vertical conductance between adjacent dies, W/K (TSV field +
/// bonding layers; calibrated, see module docs).
pub(crate) const G_VERTICAL: f64 = 0.22;

/// Per-tile conductance from the top DRAM die to ambient through the
/// passive heat sink, W/K (calibrated).
pub(crate) const G_SINK: f64 = 0.044;

/// Per-tile lateral conductance between neighbouring tiles of one die,
/// W/K (silicon spreading; calibrated).
pub(crate) const G_LATERAL: f64 = 0.02;

/// Result of a thermal solve.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalReport {
    /// Temperature of every tile, `[die][tile]`, die 0 = logic.
    pub temps_k: Vec<Vec<f64>>,
    /// Gauss–Seidel sweeps used.
    pub iterations: u32,
}

impl ThermalReport {
    /// Hottest logic-die tile.
    pub fn max_logic_k(&self) -> f64 {
        self.temps_k[0].iter().copied().fold(f64::MIN, f64::max)
    }

    /// Hottest DRAM tile across all four DRAM dies.
    pub fn max_dram_k(&self) -> f64 {
        self.temps_k[1..]
            .iter()
            .flatten()
            .copied()
            .fold(f64::MIN, f64::max)
    }

    /// Whether both HMC 2.0 temperature limits are met — the paper's
    /// conclusion that the 15 nm / 5 GHz Neurocube "fits within thermal
    /// conditions".
    pub fn within_hmc_limits(&self) -> bool {
        self.max_logic_k() <= LOGIC_LIMIT_K && self.max_dram_k() <= DRAM_LIMIT_K
    }
}

/// Solves the steady-state temperature field for arbitrary per-tile power
/// maps (`logic_tile_w\[16\]`, `dram_tile_w\[16\]` applied to each DRAM die).
///
/// # Panics
///
/// Panics if the power maps are not 16 entries each.
pub(crate) fn solve(logic_tile_w: &[f64], dram_tile_w: &[f64]) -> ThermalReport {
    assert_eq!(logic_tile_w.len(), GRID * GRID, "16 logic tiles");
    assert_eq!(dram_tile_w.len(), GRID * GRID, "16 DRAM tiles");
    let dies = 1 + DRAM_DIES;
    let mut t = vec![vec![AMBIENT_K; GRID * GRID]; dies];
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut delta: f64 = 0.0;
        for d in 0..dies {
            for i in 0..GRID * GRID {
                let (x, y) = (i % GRID, i / GRID);
                let p = if d == 0 {
                    logic_tile_w[i]
                } else {
                    dram_tile_w[i]
                };
                let mut num = p;
                let mut den = 0.0;
                if d > 0 {
                    num += G_VERTICAL * t[d - 1][i];
                    den += G_VERTICAL;
                }
                if d + 1 < dies {
                    num += G_VERTICAL * t[d + 1][i];
                    den += G_VERTICAL;
                }
                if d + 1 == dies {
                    num += G_SINK * AMBIENT_K;
                    den += G_SINK;
                }
                for (nx, ny) in [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ] {
                    if nx < GRID && ny < GRID {
                        num += G_LATERAL * t[d][ny * GRID + nx];
                        den += G_LATERAL;
                    }
                }
                let new = num / den;
                delta = delta.max((new - t[d][i]).abs());
                t[d][i] = new;
            }
        }
        if delta < 1e-9 || iterations >= 200_000 {
            break;
        }
    }
    ThermalReport {
        temps_k: t,
        iterations,
    }
}

/// Solves the Fig. 17 scenario for a design node: uniform tile powers
/// derived from Table II (PE + router per logic tile plus the shared
/// logic-die baseline) and the DRAM power split over the four dies.
pub fn solve_node(node: ProcessNode) -> ThermalReport {
    let logic_tile = (compute_power_w(node) + logic_die_power_w(node)) / 16.0;
    let dram_tile = dram_dies_power_w(node) / (DRAM_DIES as f64 * 16.0);
    solve(&[logic_tile; 16], &[dram_tile; 16])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig17_15nm_maxima() {
        let r = solve_node(ProcessNode::FinFet15);
        // Paper: 349 K logic, 344 K DRAM. Calibration lands within ~1.5 K.
        assert!(
            (r.max_logic_k() - 349.0).abs() < 3.0,
            "logic {}",
            r.max_logic_k()
        );
        assert!(
            (r.max_dram_k() - 344.0).abs() < 3.0,
            "dram {}",
            r.max_dram_k()
        );
        assert!(r.within_hmc_limits());
        // Logic (farthest from the sink, most power) is the hottest layer.
        assert!(r.max_logic_k() > r.max_dram_k());
    }

    #[test]
    fn cmos28_rise_is_negligible() {
        // Paper: "For the 28 nm node, the thermal effect was negligible as
        // Neurocube consumes relatively small power at 300 MHz".
        let r = solve_node(ProcessNode::Cmos28);
        assert!(r.max_logic_k() - AMBIENT_K < 10.0, "{}", r.max_logic_k());
        assert!(r.within_hmc_limits());
    }

    #[test]
    fn hotspot_follows_power() {
        // Put all power in one corner tile; that tile must be the hottest.
        let mut logic = [0.0; 16];
        logic[0] = 10.0;
        let r = solve(&logic, &[0.0; 16]);
        let corner = r.temps_k[0][0];
        for (i, &t) in r.temps_k[0].iter().enumerate() {
            if i != 0 {
                assert!(t < corner, "tile {i}");
            }
        }
    }

    #[test]
    fn zero_power_is_ambient() {
        let r = solve(&[0.0; 16], &[0.0; 16]);
        for t in r.temps_k.iter().flatten() {
            assert!((t - AMBIENT_K).abs() < 1e-6);
        }
    }

    #[test]
    fn energy_conservation_through_sink() {
        // Total heat must exit through the sink: sum over top-die tiles of
        // G_SINK * (T - ambient) == injected power.
        let logic = [0.5; 16];
        let dram = [0.1; 16];
        let r = solve(&logic, &dram);
        let injected: f64 = 16.0 * 0.5 + 4.0 * 16.0 * 0.1;
        let out: f64 = r.temps_k[DRAM_DIES]
            .iter()
            .map(|&t| G_SINK * (t - AMBIENT_K))
            .sum();
        assert!(
            (injected - out).abs() < 0.01 * injected,
            "in {injected} out {out}"
        );
    }
}
