//! Run statistics — the raw material of the paper's Figs. 12–15.

use neurocube_dram::REF_CLOCK_HZ;
use std::fmt;

/// Statistics of one layer execution (or one training pass).
#[derive(Clone, Debug, PartialEq)]
pub struct LayerReport {
    /// Layer index in the network.
    pub layer_index: usize,
    /// Layer kind ("conv", "pool", "fc").
    pub kind: &'static str,
    /// Label for training passes ("forward", "grad-input", ...); "forward"
    /// for inference.
    pub pass: &'static str,
    /// Reference cycles the layer took.
    pub cycles: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// NoC packets delivered while the layer ran.
    pub packets: u64,
    /// Delivered packets that crossed at least one mesh link.
    pub lateral_packets: u64,
    /// Mean in-fabric packet latency (cycles).
    pub noc_mean_latency: f64,
    /// Bits moved across DRAM channels.
    pub dram_bits: u64,
    /// DRAM access energy (joules).
    pub dram_energy_j: f64,
    /// DRAM row activations.
    pub row_misses: u64,
}

impl LayerReport {
    /// Arithmetic operations (2 per MAC), the paper's op unit.
    pub fn ops(&self) -> u64 {
        self.macs * 2
    }

    /// Throughput in GOPs/s at the reference clock (5 GHz, the 15 nm
    /// design point; scale by `f / 5 GHz` for other nodes).
    pub fn throughput_gops(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops() as f64 / (self.cycles as f64 / REF_CLOCK_HZ) / 1e9
    }

    /// Fraction of delivered packets that crossed a mesh link — the
    /// paper's "lateral traffic" metric (Figs. 14–15).
    pub fn lateral_fraction(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.lateral_packets as f64 / self.packets as f64
        }
    }

    /// MAC-array utilization against the peak of `pes × macs` MACs/cycle...
    /// expressed for the paper's 256-MAC design (16 PEs × 16 MACs, one MAC
    /// op per PE per cycle at `f_MAC = f_PE/16`).
    pub fn mac_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * 16.0)
    }
}

impl fmt::Display for LayerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L{} {:<5} {:<11} {:>12} cycles {:>14} ops {:>7.1} GOPs/s {:>5.1}% lateral",
            self.layer_index + 1,
            self.kind,
            self.pass,
            self.cycles,
            self.ops(),
            self.throughput_gops(),
            100.0 * self.lateral_fraction()
        )
    }
}

/// Fault-injection outcome of a run — present only when an injector (or
/// ECC) was attached, so fault-free runs stay bitwise identical to builds
/// that never heard of the fault crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// DRAM read words with at least one transient bit-flip applied.
    pub dram_read_flips: u64,
    /// DRAM read words that hit a stuck-at cell.
    pub dram_stuck_bits: u64,
    /// Background upsets landed on resident pages.
    pub dram_upsets: u64,
    /// Faulty DRAM words corrected by SECDED (single-bit).
    pub ecc_corrected: u64,
    /// Faulty DRAM words detected but uncorrectable (multi-bit).
    pub ecc_detected: u64,
    /// Words that paid the SECDED check-bit/decode cost.
    pub ecc_words: u64,
    /// NoC flits caught by link parity (retransmitted).
    pub noc_corrupt: u64,
    /// NoC flits dropped in flight (retransmitted after timeout).
    pub noc_drops: u64,
    /// NoC flits forwarded out the wrong mesh port.
    pub noc_misroutes: u64,
    /// Link-level retransmissions (corrupt + dropped flits).
    pub noc_retransmits: u64,
    /// PE MAC operations with a flipped operand bit.
    pub pe_mac_faults: u64,
    /// Malformed/unroutable packets consumed as counted drops instead of
    /// panics (NoC + PE + PNG, including unknown completion tags).
    pub dropped_packets: u64,
}

impl FaultSummary {
    /// True when no fault of any kind materialized (ECC may still have
    /// charged its per-word overhead).
    pub fn is_clean(&self) -> bool {
        self.dram_read_flips == 0
            && self.dram_stuck_bits == 0
            && self.dram_upsets == 0
            && self.noc_corrupt == 0
            && self.noc_drops == 0
            && self.noc_misroutes == 0
            && self.pe_mac_faults == 0
            && self.dropped_packets == 0
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults: dram {} flips/{} stuck/{} upsets, ecc {}/{} of {} words, \
             noc {} corrupt/{} drops/{} misroutes ({} retx), {} mac faults, {} dropped",
            self.dram_read_flips,
            self.dram_stuck_bits,
            self.dram_upsets,
            self.ecc_corrected,
            self.ecc_detected,
            self.ecc_words,
            self.noc_corrupt,
            self.noc_drops,
            self.noc_misroutes,
            self.noc_retransmits,
            self.pe_mac_faults,
            self.dropped_packets
        )
    }
}

/// Statistics of a whole run (inference or one training step).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Per-layer (or per-pass) breakdown, in execution order.
    pub layers: Vec<LayerReport>,
    /// Bytes the model's buffers occupy with every duplicated copy and no
    /// buffer reuse, plus its streamed weights (the Fig. 12(d) numerator;
    /// the peak live footprint is
    /// [`MultiLayerProgram::total_bytes`](neurocube_png::MultiLayerProgram::total_bytes)).
    pub memory_bytes: u64,
    /// Bytes a duplication-free layout would need.
    pub memory_minimal_bytes: u64,
    /// Fault-injection summary; `None` when no injector was attached.
    pub fault: Option<FaultSummary>,
}

impl RunReport {
    /// Total cycles across all layers/passes.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total arithmetic operations.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(LayerReport::ops).sum()
    }

    /// End-to-end throughput in GOPs/s at the 5 GHz reference clock.
    pub fn throughput_gops(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / (cycles as f64 / REF_CLOCK_HZ) / 1e9
    }

    /// Throughput at an arbitrary logic clock (e.g. 300 MHz for the 28 nm
    /// node — cycle counts are frequency-independent).
    pub fn throughput_gops_at(&self, clock_hz: f64) -> f64 {
        self.throughput_gops() * clock_hz / REF_CLOCK_HZ
    }

    /// Wall-clock seconds per run at a given clock.
    pub fn seconds_at(&self, clock_hz: f64) -> f64 {
        self.total_cycles() as f64 / clock_hz
    }

    /// Runs (frames) per second at a given clock — the paper's
    /// frames/second metric (§VI-3).
    pub fn frames_per_second_at(&self, clock_hz: f64) -> f64 {
        1.0 / self.seconds_at(clock_hz)
    }

    /// Total DRAM energy in joules.
    pub fn dram_energy_j(&self) -> f64 {
        self.layers.iter().map(|l| l.dram_energy_j).sum()
    }

    /// Overall lateral-traffic fraction.
    pub fn lateral_fraction(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.packets).sum();
        let lateral: u64 = self.layers.iter().map(|l| l.lateral_packets).sum();
        if total == 0 {
            0.0
        } else {
            lateral as f64 / total as f64
        }
    }

    /// Duplication memory overhead over the minimal layout (Fig. 12(d)).
    pub fn memory_overhead(&self) -> f64 {
        if self.memory_minimal_bytes == 0 {
            return 0.0;
        }
        (self.memory_bytes as f64 - self.memory_minimal_bytes as f64)
            / self.memory_minimal_bytes as f64
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.layers {
            writeln!(f, "{l}")?;
        }
        writeln!(
            f,
            "total: {} cycles, {} ops, {:.1} GOPs/s @5GHz, {:.1}% memory overhead",
            self.total_cycles(),
            self.total_ops(),
            self.throughput_gops(),
            100.0 * self.memory_overhead()
        )?;
        if let Some(fault) = &self.fault {
            writeln!(f, "{fault}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cycles: u64, macs: u64) -> LayerReport {
        LayerReport {
            layer_index: 0,
            kind: "conv",
            pass: "forward",
            cycles,
            macs,
            packets: 100,
            lateral_packets: 25,
            noc_mean_latency: 4.0,
            dram_bits: 3200,
            dram_energy_j: 1e-9,
            row_misses: 2,
        }
    }

    #[test]
    fn throughput_math() {
        let l = layer(1000, 8000);
        assert_eq!(l.ops(), 16_000);
        // 16000 ops / (1000 / 5e9 s) = 8e10 ops/s = 80 GOPs/s.
        assert!((l.throughput_gops() - 80.0).abs() < 1e-9);
        assert_eq!(l.lateral_fraction(), 0.25);
        // 8000 MACs over 1000 cycles with 256-MAC peak/16 per cycle...
        assert!((l.mac_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_totals_and_scaling() {
        let r = RunReport {
            layers: vec![layer(1000, 8000), layer(3000, 8000)],
            memory_bytes: 150,
            memory_minimal_bytes: 100,
            fault: None,
        };
        assert_eq!(r.total_cycles(), 4000);
        assert_eq!(r.total_ops(), 32_000);
        assert!((r.throughput_gops() - 40.0).abs() < 1e-9);
        // 300 MHz scaling: 40 * 0.3/5 = 2.4 GOPs/s.
        assert!((r.throughput_gops_at(300e6) - 2.4).abs() < 1e-9);
        assert!((r.memory_overhead() - 0.5).abs() < 1e-12);
        assert!((r.frames_per_second_at(5e9) - 5e9 / 4000.0).abs() < 1e-3);
    }

    #[test]
    fn zero_cycles_are_safe() {
        let l = layer(0, 0);
        assert_eq!(l.throughput_gops(), 0.0);
        assert_eq!(l.mac_utilization(), 0.0);
        let r = RunReport::default();
        assert_eq!(r.throughput_gops(), 0.0);
        assert_eq!(r.lateral_fraction(), 0.0);
        assert_eq!(r.memory_overhead(), 0.0);
    }

    #[test]
    fn display_mentions_layer_and_totals() {
        let r = RunReport {
            layers: vec![layer(1000, 8000)],
            memory_bytes: 100,
            memory_minimal_bytes: 100,
            fault: None,
        };
        let s = r.to_string();
        assert!(s.contains("L1 conv"));
        assert!(s.contains("total:"));
        assert!(!s.contains("faults:"));
        let faulty = RunReport {
            fault: Some(FaultSummary {
                noc_corrupt: 3,
                noc_retransmits: 3,
                ..FaultSummary::default()
            }),
            ..r
        };
        assert!(faulty.to_string().contains("3 retx"));
        assert!(!faulty.fault.unwrap().is_clean());
        assert!(FaultSummary::default().is_clean());
    }
}
