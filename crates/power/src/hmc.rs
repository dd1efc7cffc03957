//! HMC die power from the published pJ/bit figures (§VII, "Power
//! estimation of HMC").
//!
//! The paper computes the non-Neurocube logic-die power (16 vault
//! controllers, 4 SERDES links, the VC–link interface) as
//! `6.78 pJ/bit × 32 bit × 16 vaults × 5 GHz = 17.3 W`, and DRAM power
//! analogously at `3.7 pJ/bit`, then scales both by the activity factor of
//! the design node (0.06 at 28 nm, where the PE clock limits the vault
//! stream to 300 MHz) and by the 15 nm energy-scaling factor from the ITRS
//! roadmap.

use crate::table2::{compute_power_w, ProcessNode};

/// Energy per bit through the HMC logic die (vault controllers + links +
/// interface), from \[20\].
pub(crate) const LOGIC_PJ_PER_BIT: f64 = 6.78;

/// Energy per bit through the DRAM dies, from \[20\].
pub const DRAM_PJ_PER_BIT: f64 = 3.7;

/// Vault word width in bits.
const WORD_BITS: f64 = 32.0;

/// Vault count.
const VAULTS: f64 = 16.0;

/// Vault I/O clock in Hz.
const IO_CLOCK_HZ: f64 = 5.0e9;

/// ITRS energy scaling of the (50 nm-class DRAM-process) logic die power
/// when the compute node moves to 15 nm — the paper's "scaled based on the
/// energy scaling factors from \[33\]" step, which its Table II realizes as a
/// 0.5× factor (17.3 W → 8.67 W).
pub const ITRS_15NM_LOGIC_SCALE: f64 = 0.5;

/// Logic-die power (without the Neurocube compute layer) at full stream
/// rate, before activity scaling: the paper's 17.3 W.
pub(crate) fn logic_die_peak_w() -> f64 {
    LOGIC_PJ_PER_BIT * 1e-12 * WORD_BITS * VAULTS * IO_CLOCK_HZ
}

/// Logic-die power (without Neurocube) at a design node — Table II's "HMC
/// Logic Die Without Neurocube" row (1.04 W at 28 nm, 8.67 W at 15 nm).
pub fn logic_die_power_w(node: ProcessNode) -> f64 {
    let scale = match node {
        ProcessNode::Cmos28 => 1.0,
        ProcessNode::FinFet15 => ITRS_15NM_LOGIC_SCALE,
    };
    logic_die_peak_w() * node.activity() * scale
}

/// All-DRAM-dies power at a design node — Table II's "All DRAM Dies" row
/// (0.568 W at 28 nm, 9.47 W at 15 nm).
pub fn dram_dies_power_w(node: ProcessNode) -> f64 {
    DRAM_PJ_PER_BIT * 1e-12 * WORD_BITS * VAULTS * IO_CLOCK_HZ * node.activity()
}

/// Total system power: compute layer + logic die + DRAM — the
/// parenthesized totals of Table III (1.86 W at 28 nm, 21.5 W at 15 nm).
pub fn system_power_w(node: ProcessNode) -> f64 {
    compute_power_w(node) + logic_die_power_w(node) + dram_dies_power_w(node)
}

/// Energy per bit over an external SerDes cube-to-cube link, from the HMC
/// external-interface figure (`MemorySpec::hmc_external()` carries the same
/// 10 pJ/bit for its energy model).
pub const SERDES_PJ_PER_BIT: f64 = 10.0;

/// SerDes transfer energy of a cube-to-cube hop sequence, in joules:
/// `bytes` moved across `hops` links at `pj_per_bit` each. Every hop
/// re-drives the full payload, so energy is linear in both.
pub fn serdes_transfer_j(bytes: u64, hops: u64, pj_per_bit: f64) -> f64 {
    bytes as f64 * 8.0 * hops as f64 * pj_per_bit * 1e-12
}

/// SECDED(39,32) check bits stored and moved per protected 32-bit word:
/// the fault model's count, which the DRAM channel charges too.
const SECDED_CHECK_BITS: f64 = neurocube_fault::SECDED_CHECK_BITS as f64;

/// Decode-logic energy per SECDED-protected word (syndrome generation +
/// correction mux), on top of moving the check bits themselves. XOR-tree
/// syndrome logic over 39 bits is a few hundred gates — small next to the
/// 3.7 pJ/bit DRAM access, but not free.
pub(crate) const SECDED_DECODE_PJ_PER_WORD: f64 = 0.8;

/// ECC energy overhead of a run, in joules: `ecc_words` words decoded with
/// their check bits moved at `dram_pj_per_bit` (the channel's access cost)
/// plus the decode logic. The simulator's channel model already folds the
/// check-bit *transfer* into its measured energy; combine that measurement
/// with the decode logic alone (`ecc_words` × 0.8 pJ) to avoid
/// double-charging the transfer.
pub fn secded_overhead_j(ecc_words: u64, dram_pj_per_bit: f64) -> f64 {
    ecc_words as f64 * (SECDED_CHECK_BITS * dram_pj_per_bit + SECDED_DECODE_PJ_PER_WORD) * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_logic_power_is_17_3w() {
        assert!((logic_die_peak_w() - 17.3).abs() < 0.1);
    }

    #[test]
    fn logic_die_rows_match_table2() {
        assert!((logic_die_power_w(ProcessNode::Cmos28) - 1.04).abs() < 0.01);
        assert!((logic_die_power_w(ProcessNode::FinFet15) - 8.67).abs() < 0.01);
    }

    #[test]
    fn dram_rows_match_table2() {
        assert!((dram_dies_power_w(ProcessNode::Cmos28) - 0.568).abs() < 0.005);
        assert!((dram_dies_power_w(ProcessNode::FinFet15) - 9.47).abs() < 0.01);
    }

    #[test]
    fn secded_overhead_scales_linearly_and_decomposes() {
        assert_eq!(secded_overhead_j(0, DRAM_PJ_PER_BIT), 0.0);
        let one = secded_overhead_j(1, DRAM_PJ_PER_BIT);
        let million = secded_overhead_j(1_000_000, DRAM_PJ_PER_BIT);
        assert!((million - one * 1e6).abs() < 1e-18);
        // transfer + decode parts add up
        let transfer = SECDED_CHECK_BITS * DRAM_PJ_PER_BIT * 1e-12;
        assert!((one - transfer - SECDED_DECODE_PJ_PER_WORD * 1e-12).abs() < 1e-24);
        // Overhead per word stays well under the 32 data bits' cost.
        assert!(one < 32.0 * DRAM_PJ_PER_BIT * 1e-12);
    }

    #[test]
    fn serdes_energy_is_linear_in_bytes_and_hops() {
        assert_eq!(serdes_transfer_j(0, 3, SERDES_PJ_PER_BIT), 0.0);
        assert_eq!(serdes_transfer_j(100, 0, SERDES_PJ_PER_BIT), 0.0);
        let one = serdes_transfer_j(1, 1, SERDES_PJ_PER_BIT);
        assert!((one - 8.0 * 10.0 * 1e-12).abs() < 1e-24);
        let big = serdes_transfer_j(1_000_000, 1, SERDES_PJ_PER_BIT);
        assert!((big - one * 1e6).abs() < 1e-15);
        let two_hops = serdes_transfer_j(1_000_000, 2, SERDES_PJ_PER_BIT);
        assert!((two_hops - 2.0 * big).abs() < 1e-15);
    }

    #[test]
    fn system_totals_match_table3_parentheses() {
        // Table III lists compute power 0.25 W (1.86 W with memory) at
        // 28 nm and 3.41 W (21.50 W) at 15 nm.
        assert!((system_power_w(ProcessNode::Cmos28) - 1.86).abs() < 0.02);
        assert!((system_power_w(ProcessNode::FinFet15) - 21.5).abs() < 0.1);
    }
}
