//! Fault-injection configuration.

/// Per-domain fault rates plus the run's fault seed. All rates default to
/// zero; a config with every rate at zero is treated as "no injector" by
/// the system layer, so the zero-rate path is provably identical to a
/// build with no fault plumbing attached.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault PRNG stream. Two runs with equal seeds and
    /// equal rates observe bitwise-identical fault histories.
    pub seed: u64,
    /// Per-bit probability that a DRAM read returns a flipped bit
    /// (transient; the stored value is unharmed).
    pub dram_read_flip_rate: f64,
    /// Per-bit probability that a DRAM cell is manufactured stuck at a
    /// fixed value (permanent; keyed by address, not time).
    pub dram_stuck_rate: f64,
    /// Per-cycle, per-channel probability of a background upset that
    /// flips one stored bit in the channel's address region. The only
    /// activity-independent fault class — it forces event-horizon
    /// invalidation in `Channel::next_event`.
    pub dram_upset_rate: f64,
    /// Per-link-hop probability that a flit arrives corrupted (parity
    /// catches it; the link retransmits at a one-cycle penalty).
    pub noc_corrupt_rate: f64,
    /// Per-link-hop probability that a flit is dropped (the sender's ack
    /// timeout retransmits it after [`crate::NocFaults::DROP_TIMEOUT`]
    /// cycles).
    pub noc_drop_rate: f64,
    /// Per-link-hop probability that a flit takes a wrong turn; X-Y
    /// routing recovers from the new position at the cost of extra hops.
    pub noc_misroute_rate: f64,
    /// Per-MAC-operation probability that one operand bit flips.
    pub pe_mac_rate: f64,
    /// Enable the SECDED(39,32) ECC model on DRAM reads: single-bit
    /// errors are corrected (and counted), double-bit errors detected but
    /// passed through. Check-bit storage and decode cost extra energy —
    /// see `neurocube_power::secded_overhead_j`.
    pub ecc: bool,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            dram_read_flip_rate: 0.0,
            dram_stuck_rate: 0.0,
            dram_upset_rate: 0.0,
            noc_corrupt_rate: 0.0,
            noc_drop_rate: 0.0,
            noc_misroute_rate: 0.0,
            pe_mac_rate: 0.0,
            ecc: false,
        }
    }
}

impl FaultConfig {
    /// A config with every rate set to `rate` (the single-knob sweep of
    /// the `fault_sweep` bench).
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            dram_read_flip_rate: rate,
            dram_stuck_rate: rate,
            dram_upset_rate: rate,
            noc_corrupt_rate: rate,
            noc_drop_rate: rate,
            noc_misroute_rate: rate,
            pe_mac_rate: rate,
            ecc: false,
        }
    }

    /// Whether any fault domain can actually fire. A disabled config is
    /// equivalent to not attaching an injector at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        [
            self.dram_read_flip_rate,
            self.dram_stuck_rate,
            self.dram_upset_rate,
            self.noc_corrupt_rate,
            self.noc_drop_rate,
            self.noc_misroute_rate,
            self.pe_mac_rate,
        ]
        .iter()
        .any(|&r| r > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(!FaultConfig::default().enabled());
    }

    #[test]
    fn uniform_nonzero_is_enabled() {
        assert!(FaultConfig::uniform(1, 1e-9).enabled());
        assert!(!FaultConfig::uniform(1, 0.0).enabled());
    }
}
