//! Deterministic, seed-replayable fault injection for the Neurocube simulator.
//!
//! The paper pitches Neurocube as a *digital, deterministic* near-memory
//! accelerator; this crate asks what happens when the substrate underneath
//! that determinism misbehaves. It models three fault domains:
//!
//! * **DRAM** — transient bit-flips on read, stuck-at cells, and
//!   background upsets scheduled at absolute cycles (the only fault class
//!   that exists independently of activity, and therefore the only one
//!   that must *invalidate event horizons* — see [`DramFaults::clamp`]).
//!   An optional SECDED(39,32) ECC model corrects single-bit read errors
//!   at an energy cost accounted in `crates/power`.
//! * **NoC** — per-link-hop flit corruption (caught by a parity check and
//!   retransmitted with a one-cycle penalty), flit drops (recovered by an
//!   ack-timeout retransmit), and misroutes (the flit takes a wrong turn;
//!   per-hop X-Y routing self-heals from the new position). No packet is
//!   ever lost — loss would deadlock the PNG's write-back accounting —
//!   so faults cost latency and energy, never completion.
//! * **PE** — transient MAC faults: one operand bit flips at fire time.
//!
//! Every fault decision comes from [`draw`], a pure `ChaCha`-style counter
//! PRNG keyed by `(seed, domain, cycle, salt)`. There is no mutable RNG
//! stream to keep in sync: a component asks "does a fault happen *here,
//! now*?" and the answer is a pure function of the key. Because
//! fault-bearing events (reads, flit hops, MAC fires) occur at identical
//! absolute cycles in the skipping and naive simulation loops, injection
//! is bitwise reproducible across both — the skip-equivalence suites
//! assert exactly that.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod config;
mod lens;
mod prng;
mod schedule;

pub use config::FaultConfig;
pub use lens::{
    DramFaultCounts, DramFaults, LinkFault, NocFaultCounts, NocFaults, PeFaultCounts, PeFaults,
};
pub use prng::{draw, unit, Bernoulli};

/// SECDED(39,32): check bits stored and moved per protected 32-bit word.
pub const SECDED_CHECK_BITS: u32 = 7;

/// Domain codes separating the per-component PRNG streams. Two components
/// drawing at the same cycle with the same salt must still see independent
/// values, so each keys its draws with a distinct domain.
mod domain {
    /// Transient bit-flips on reads served by DRAM channel `ch`.
    pub(crate) fn dram_read(ch: u16) -> u64 {
        0x0100_0000_0000_0000 | u64::from(ch)
    }

    /// Static stuck-at cell map of DRAM channel `ch` (keyed by address,
    /// not cycle — the defect is permanent).
    pub(crate) fn dram_stuck(ch: u16) -> u64 {
        0x0200_0000_0000_0000 | u64::from(ch)
    }

    /// Background upset schedule of DRAM channel `ch` (keyed by event
    /// index, not cycle — arrivals are a geometric renewal process).
    pub(crate) fn dram_upset(ch: u16) -> u64 {
        0x0300_0000_0000_0000 | u64::from(ch)
    }

    /// Per-link-hop NoC fault events.
    pub(crate) const NOC_LINK: u64 = 0x0400_0000_0000_0000;

    /// Transient MAC faults in PE `pe`.
    pub(crate) fn pe_mac(pe: u16) -> u64 {
        0x0500_0000_0000_0000 | u64::from(pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_a_pure_function_of_the_key() {
        let a = draw(1, 2, 3, 4);
        let b = draw(1, 2, 3, 4);
        assert_eq!(a, b);
        assert_ne!(a, draw(1, 2, 3, 5));
        assert_ne!(a, draw(1, 2, 4, 4));
        assert_ne!(a, draw(1, 3, 3, 4));
        assert_ne!(a, draw(2, 2, 3, 4));
    }

    #[test]
    fn domains_do_not_collide() {
        let mut codes = vec![domain::NOC_LINK];
        for ch in 0..16 {
            codes.push(domain::dram_read(ch));
            codes.push(domain::dram_stuck(ch));
            codes.push(domain::dram_upset(ch));
            codes.push(domain::pe_mac(ch));
        }
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }

    #[test]
    fn unit_maps_into_the_half_open_interval() {
        for x in [0u64, 1, u64::MAX, u64::MAX / 2, 0x8000_0000_0000_0000] {
            let u = unit(x);
            assert!((0.0..1.0).contains(&u), "unit({x}) = {u}");
        }
    }

    #[test]
    fn bernoulli_edge_rates() {
        let never = Bernoulli::new(0.0);
        let always = Bernoulli::new(1.0);
        for x in [0u64, 1, u64::MAX / 3, u64::MAX] {
            assert!(!never.hit(x));
            assert!(always.hit(x));
        }
        assert!(never.is_never());
        assert!(!always.is_never());
    }

    #[test]
    fn bernoulli_rate_matches_empirical_frequency() {
        let b = Bernoulli::new(0.125);
        let hits = (0..100_000u64).filter(|&i| b.hit(draw(7, 7, i, 0))).count() as f64;
        let freq = hits / 100_000.0;
        assert!(
            (freq - 0.125).abs() < 0.01,
            "empirical frequency {freq} far from 0.125"
        );
    }
}
