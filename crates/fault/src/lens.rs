//! Per-component fault lenses: the small stateful objects each simulated
//! component holds when injection is enabled. All randomness flows
//! through the pure [`draw`](crate::draw) keyed by absolute cycle (or
//! address / event index), so a lens carries only counters and, for the
//! DRAM, the background-upset schedule.

use crate::config::FaultConfig;
use crate::domain;
use crate::prng::{draw, Bernoulli};
use crate::schedule::FaultSchedule;

/// Counters for the DRAM fault domain (monotonic; reported under the
/// system's `fault.dram.*` statistics scope).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramFaultCounts {
    /// Transient read bit-flips injected (before ECC).
    pub read_flips: u64,
    /// Reads that hit a stuck-at cell whose forced value differed from
    /// the stored data.
    pub stuck_bits: u64,
    /// Background upsets applied to resident storage.
    pub upsets: u64,
    /// Background upsets that landed on never-written (all-zero, absent)
    /// pages and were absorbed without materializing them.
    pub upsets_absorbed: u64,
    /// Single-bit read errors corrected by SECDED.
    pub ecc_corrected: u64,
    /// Multi-bit read errors SECDED detected but could not correct.
    pub ecc_detected: u64,
    /// Words that passed through the SECDED decoder (each carries 7
    /// check bits of storage/transfer overhead — see `crates/power`).
    pub ecc_words: u64,
}

impl DramFaultCounts {
    /// Accumulates another counter set (aggregation across channels).
    pub fn merge(&mut self, other: &DramFaultCounts) {
        self.read_flips += other.read_flips;
        self.stuck_bits += other.stuck_bits;
        self.upsets += other.upsets;
        self.upsets_absorbed += other.upsets_absorbed;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_detected += other.ecc_detected;
        self.ecc_words += other.ecc_words;
    }
}

/// DRAM-channel fault lens: transient read flips, a static stuck-at cell
/// map, and the background-upset schedule that clamps event horizons.
#[derive(Clone, Debug)]
pub struct DramFaults {
    seed: u64,
    channel: u16,
    /// Per-word trial for one transient flip candidate (per-bit rate
    /// linearized over the 32 data bits; exact to O(rate²), which at the
    /// swept rates ≤ 1e-4/bit is far below counter resolution).
    read_flip: Bernoulli,
    /// Per-word trial for a stuck-at cell (same linearization; at most
    /// one stuck bit is modeled per word).
    stuck: Bernoulli,
    ecc: bool,
    schedule: FaultSchedule,
    /// Monotonic event counters.
    pub counts: DramFaultCounts,
}

impl DramFaults {
    /// Builds the lens for channel `channel` from the run config.
    #[must_use]
    pub fn new(cfg: &FaultConfig, channel: u16) -> DramFaults {
        DramFaults {
            seed: cfg.seed,
            channel,
            read_flip: Bernoulli::new((cfg.dram_read_flip_rate * 32.0).clamp(0.0, 1.0)),
            stuck: Bernoulli::new((cfg.dram_stuck_rate * 32.0).clamp(0.0, 1.0)),
            ecc: cfg.ecc,
            schedule: FaultSchedule::new(
                cfg.seed,
                domain::dram_upset(channel),
                cfg.dram_upset_rate,
            ),
            counts: DramFaultCounts::default(),
        }
    }

    /// Whether the SECDED model is active.
    #[must_use]
    pub fn ecc_enabled(&self) -> bool {
        self.ecc
    }

    /// Absolute cycle of the next scheduled background upset
    /// (`u64::MAX` = never).
    #[inline]
    #[must_use]
    pub fn next_upset(&self) -> u64 {
        self.schedule.next_at()
    }

    /// Clamps a component's event-horizon promise to the next scheduled
    /// fault. `None` (tick me now) stays `None`; any quiet window is cut
    /// at the upset cycle; an upset due at or before `now` forces an
    /// immediate tick. Every `next_event` return path of a fault-bearing
    /// component must pass through this.
    #[inline]
    #[must_use]
    pub fn clamp(&self, now: u64, horizon: Option<u64>) -> Option<u64> {
        let at = self.schedule.next_at();
        if at == u64::MAX {
            return horizon;
        }
        if at <= now {
            return None;
        }
        horizon.map(|t| t.min(at))
    }

    /// Whether a background upset is due at or before `now`.
    #[inline]
    #[must_use]
    pub fn upset_due(&self, now: u64) -> bool {
        self.schedule.due(now)
    }

    /// Consumes the due upset, returning `(address_draw, bit)`: the
    /// caller maps `address_draw` into its address region and flips
    /// `bit` of the stored word there.
    pub fn pop_upset(&mut self) -> (u64, u32) {
        let d = self.schedule.pop(1);
        (d >> 5, (d & 31) as u32)
    }

    /// Filters one 32-bit word read by the channel at cycle `now` from
    /// `addr`: applies the stuck-at map and transient flips, then the
    /// SECDED model. Returns the word the requester observes.
    pub fn filter_read(&mut self, now: u64, addr: u64, word: u32) -> u32 {
        let mut out = word;
        let mut injected = 0u32;
        if !self.stuck.is_never() {
            let d = draw(self.seed, domain::dram_stuck(self.channel), addr, 0);
            if self.stuck.hit(d) {
                let sel = draw(self.seed, domain::dram_stuck(self.channel), addr, 1);
                let bit = (sel & 31) as u32;
                let val = ((sel >> 5) & 1) as u32;
                let forced = (out & !(1 << bit)) | (val << bit);
                if forced != out {
                    self.counts.stuck_bits += 1;
                    out = forced;
                    injected += 1;
                }
            }
        }
        if !self.read_flip.is_never() {
            // Two independent flip candidates per word: singles dominate
            // (SECDED-correctable), doubles appear at O(rate²)
            // (SECDED-detectable), matching the error classes the code
            // distinguishes.
            for salt in [0u64, 1] {
                let d = draw(
                    self.seed,
                    domain::dram_read(self.channel),
                    now,
                    addr.wrapping_mul(2).wrapping_add(salt),
                );
                if self.read_flip.hit(d) {
                    let bit = (draw(
                        self.seed,
                        domain::dram_read(self.channel),
                        now,
                        addr.wrapping_mul(2).wrapping_add(salt) ^ 0x8000_0000_0000_0000,
                    ) & 31) as u32;
                    out ^= 1 << bit;
                    self.counts.read_flips += 1;
                    injected += 1;
                }
            }
        }
        if self.ecc {
            self.counts.ecc_words += 1;
            match injected {
                0 => {}
                1 => {
                    self.counts.ecc_corrected += 1;
                    out = word;
                }
                _ => self.counts.ecc_detected += 1,
            }
        }
        out
    }
}

/// What happened to one flit on one link hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Clean traversal.
    None,
    /// Arrived corrupted; parity caught it and the link retransmits
    /// (one-cycle penalty).
    Corrupt,
    /// Lost on the link; the sender's ack timeout retransmits after
    /// [`NocFaults::DROP_TIMEOUT`] cycles.
    Drop,
    /// Delivered out the wrong port; per-hop routing recovers.
    Misroute,
}

/// Counters for the NoC fault domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocFaultCounts {
    /// Flits that arrived corrupted (all caught by parity).
    pub corrupt: u64,
    /// Flits dropped on a link.
    pub drops: u64,
    /// Flits sent out a wrong port.
    pub misroutes: u64,
    /// Link-level retransmissions (one per corrupt, one per drop).
    pub retransmits: u64,
    /// Packets presented for injection with an unroutable destination
    /// and dropped at the source (the de-panicked `inject` path).
    pub unroutable: u64,
}

impl NocFaultCounts {
    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &NocFaultCounts) {
        self.corrupt += other.corrupt;
        self.drops += other.drops;
        self.misroutes += other.misroutes;
        self.retransmits += other.retransmits;
        self.unroutable += other.unroutable;
    }
}

/// NoC fault lens: per-link-hop corruption, drops, and misroutes.
#[derive(Clone, Debug)]
pub struct NocFaults {
    seed: u64,
    corrupt: Bernoulli,
    drop: Bernoulli,
    misroute: Bernoulli,
    /// Monotonic event counters.
    pub counts: NocFaultCounts,
}

impl NocFaults {
    /// Cycles a dropped flit waits at the sender before the modeled ack
    /// timeout retransmits it.
    pub const DROP_TIMEOUT: u64 = 8;

    /// Builds the lens from the run config.
    #[must_use]
    pub fn new(cfg: &FaultConfig) -> NocFaults {
        NocFaults {
            seed: cfg.seed,
            corrupt: Bernoulli::new(cfg.noc_corrupt_rate.clamp(0.0, 1.0)),
            drop: Bernoulli::new(cfg.noc_drop_rate.clamp(0.0, 1.0)),
            misroute: Bernoulli::new(cfg.noc_misroute_rate.clamp(0.0, 1.0)),
            counts: NocFaultCounts::default(),
        }
    }

    /// Decides the fate of the flit crossing link `link` at cycle `now`
    /// and counts it. At most one fault fires per hop; drops dominate
    /// misroutes dominate corruption (a lost flit can't also arrive
    /// corrupted).
    pub fn link_event(&mut self, now: u64, link: u64) -> LinkFault {
        if !self.drop.is_never()
            && self
                .drop
                .hit(draw(self.seed, domain::NOC_LINK, now, link * 4))
        {
            self.counts.drops += 1;
            self.counts.retransmits += 1;
            return LinkFault::Drop;
        }
        if !self.misroute.is_never()
            && self
                .misroute
                .hit(draw(self.seed, domain::NOC_LINK, now, link * 4 + 1))
        {
            self.counts.misroutes += 1;
            return LinkFault::Misroute;
        }
        if !self.corrupt.is_never()
            && self
                .corrupt
                .hit(draw(self.seed, domain::NOC_LINK, now, link * 4 + 2))
        {
            self.counts.corrupt += 1;
            self.counts.retransmits += 1;
            return LinkFault::Corrupt;
        }
        LinkFault::None
    }
}

/// Counters for the PE fault domain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeFaultCounts {
    /// MAC operations that fired with a flipped operand bit.
    pub mac_faults: u64,
    /// Packets dropped by the de-panicked acceptance path.
    pub dropped_packets: u64,
}

impl PeFaultCounts {
    /// Accumulates another counter set (aggregation across PEs).
    pub fn merge(&mut self, other: &PeFaultCounts) {
        self.mac_faults += other.mac_faults;
        self.dropped_packets += other.dropped_packets;
    }
}

/// PE fault lens: transient MAC operand faults.
#[derive(Clone, Debug)]
pub struct PeFaults {
    seed: u64,
    pe: u16,
    mac: Bernoulli,
    /// Monotonic event counters.
    pub counts: PeFaultCounts,
}

impl PeFaults {
    /// Builds the lens for PE `pe` from the run config.
    #[must_use]
    pub fn new(cfg: &FaultConfig, pe: u16) -> PeFaults {
        PeFaults {
            seed: cfg.seed,
            pe,
            mac: Bernoulli::new(cfg.pe_mac_rate.clamp(0.0, 1.0)),
            counts: PeFaultCounts::default(),
        }
    }

    /// If MAC `mac` suffers a transient fault at cycle `now`, returns the
    /// operand bit (0..16, the Q1.7.8 width) to flip.
    pub fn mac_upset(&mut self, now: u64, mac: u64) -> Option<u32> {
        if self.mac.is_never() {
            return None;
        }
        let d = draw(self.seed, domain::pe_mac(self.pe), now, mac * 2);
        if !self.mac.hit(d) {
            return None;
        }
        self.counts.mac_faults += 1;
        Some((draw(self.seed, domain::pe_mac(self.pe), now, mac * 2 + 1) & 15) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64) -> FaultConfig {
        FaultConfig::uniform(0xFA_u64, rate)
    }

    #[test]
    fn dram_filter_is_identity_at_zero_rate() {
        let mut f = DramFaults::new(&cfg(0.0), 0);
        for addr in (0..4096).step_by(4) {
            assert_eq!(f.filter_read(17, addr, 0xA5A5_5A5A), 0xA5A5_5A5A);
        }
        assert_eq!(f.counts, DramFaultCounts::default());
        assert_eq!(f.next_upset(), u64::MAX);
    }

    #[test]
    fn dram_clamp_cuts_quiet_windows_at_the_next_upset() {
        let mut c = cfg(0.0);
        c.dram_upset_rate = 1e-2;
        let f = DramFaults::new(&c, 3);
        let at = f.next_upset();
        assert_ne!(at, u64::MAX);
        if at > 0 {
            // A quiet promise beyond the upset is cut to it.
            assert_eq!(f.clamp(0, Some(at + 1000)), Some(at));
            // A reactive promise is cut the same way.
            assert_eq!(f.clamp(0, Some(u64::MAX)), Some(at));
        }
        // At the upset cycle the component must tick.
        assert_eq!(f.clamp(at, Some(at + 1000)), None);
        // Promises that end earlier survive.
        if at > 1 {
            assert_eq!(f.clamp(0, Some(1)), Some(1));
        }
        // "Tick me now" stays.
        assert_eq!(f.clamp(0, None), None);
    }

    #[test]
    fn ecc_corrects_single_flips() {
        let mut c = cfg(0.0);
        c.dram_read_flip_rate = 1.0 / 64.0; // per-word candidate rate 0.5
        c.ecc = true;
        let mut f = DramFaults::new(&c, 1);
        let mut corrupted_out = 0u64;
        for now in 0..20_000u64 {
            let got = f.filter_read(now, 0x100, 0xDEAD_BEEF);
            if got != 0xDEAD_BEEF {
                corrupted_out += 1;
            }
        }
        assert!(f.counts.ecc_corrected > 0, "singles must occur");
        assert!(f.counts.ecc_detected > 0, "doubles must occur at this rate");
        // Only detected-uncorrectable words may escape corrupted, and a
        // double flip on the same bit re-corrects the word by accident.
        assert!(corrupted_out <= f.counts.ecc_detected);
        assert_eq!(f.counts.ecc_words, 20_000);
    }

    #[test]
    fn stuck_cells_are_stable_across_time() {
        let mut c = cfg(0.0);
        c.dram_stuck_rate = 0.01;
        let mut f = DramFaults::new(&c, 2);
        let a = f.filter_read(100, 0x40, 0xFFFF_FFFF);
        let b = f.filter_read(9_999, 0x40, 0xFFFF_FFFF);
        assert_eq!(a, b, "a stuck cell must read back the same value");
    }

    #[test]
    fn noc_zero_rate_never_faults() {
        let mut f = NocFaults::new(&cfg(0.0));
        for now in 0..1000 {
            assert_eq!(f.link_event(now, now % 64), LinkFault::None);
        }
        assert_eq!(f.counts, NocFaultCounts::default());
    }

    #[test]
    fn noc_events_are_reproducible() {
        let mut a = NocFaults::new(&cfg(1e-2));
        let mut b = NocFaults::new(&cfg(1e-2));
        for now in 0..10_000 {
            assert_eq!(a.link_event(now, 5), b.link_event(now, 5));
        }
        assert_eq!(a.counts, b.counts);
        assert!(a.counts.drops + a.counts.misroutes + a.counts.corrupt > 0);
    }

    #[test]
    fn pe_mac_upsets_hit_q88_bits_only() {
        let mut f = PeFaults::new(&cfg(0.05), 7);
        let mut hits = 0;
        for now in 0..10_000 {
            if let Some(bit) = f.mac_upset(now, 3) {
                assert!(bit < 16);
                hits += 1;
            }
        }
        assert_eq!(hits, f.counts.mac_faults);
        assert!(hits > 0);
    }
}
