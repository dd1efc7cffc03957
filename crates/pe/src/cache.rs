//! The PE's SRAM packet cache.
//!
//! Packets whose OP-ID is ahead of the PE's operation counter are parked in
//! a 2.5 KB SRAM organized as 16 sub-banks; a packet with OP-ID `o` lands in
//! sub-bank `o mod 16` (§V-B, Fig. 11(b)). Each sub-bank holds up to 64
//! entries, and retrieving the entries for the next operation is a *full
//! search* of one sub-bank costing between 16 and 64 cycles depending on
//! occupancy — a cost the PE model charges against the next firing.
//!
//! The storage is struct-of-arrays: one flat packet array with a length
//! counter per sub-bank, so an insert is a bounds check plus one store and
//! the total occupancy is a running counter rather than a 16-bank scan.
//! (`try_insert` sits on the per-delivery hot path — the NoC hands a
//! saturated PE roughly one packet per cycle.)

use neurocube_noc::{Packet, PacketKind};

/// Number of cache sub-banks (one per OP-ID residue class).
pub(crate) const CACHE_SUB_BANKS: usize = 16;

/// Maximum entries per sub-bank ("max 64 entries", §V-B).
pub(crate) const SUB_BANK_ENTRIES: usize = 64;

/// Filler for never-written slots of the flat bank array.
const EMPTY_SLOT: Packet = Packet {
    dst: 0,
    src: 0,
    mac_id: 0,
    op_id: 0,
    kind: PacketKind::State,
    data: 0,
};

/// The out-of-order packet cache.
#[derive(Clone, Debug)]
pub(crate) struct PacketCache {
    /// Flat sub-bank storage: bank `b` owns
    /// `slots[b * entries_per_bank .. b * entries_per_bank + len[b]]`.
    slots: Vec<Packet>,
    len: [u16; CACHE_SUB_BANKS],
    entries_per_bank: usize,
    total: usize,
    high_water: usize,
}

impl Default for PacketCache {
    fn default() -> PacketCache {
        PacketCache::new()
    }
}

impl PacketCache {
    /// An empty cache with the paper's 64-entry sub-banks.
    pub(crate) fn new() -> PacketCache {
        PacketCache::with_capacity(SUB_BANK_ENTRIES)
    }

    /// An empty cache with `entries_per_bank`-entry sub-banks (the sizing
    /// ablation; the paper's design point is [`SUB_BANK_ENTRIES`]).
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_bank` is zero.
    pub(crate) fn with_capacity(entries_per_bank: usize) -> PacketCache {
        assert!(entries_per_bank > 0, "sub-banks need capacity");
        PacketCache {
            slots: vec![EMPTY_SLOT; entries_per_bank * CACHE_SUB_BANKS],
            len: [0; CACHE_SUB_BANKS],
            entries_per_bank,
            total: 0,
            high_water: 0,
        }
    }

    /// The sub-bank a packet with `op_id` maps to.
    #[inline]
    pub(crate) fn bank_of(op_id: u8) -> usize {
        usize::from(op_id) % CACHE_SUB_BANKS
    }

    /// Inserts a packet; `false` (with no state change) when its sub-bank is
    /// full — the PE must then stop accepting packets from the NoC, which is
    /// exactly the backpressure path that throttles a too-fast PNG.
    pub(crate) fn try_insert(&mut self, pkt: Packet) -> bool {
        let bank = Self::bank_of(pkt.op_id);
        let n = usize::from(self.len[bank]);
        if n >= self.entries_per_bank {
            return false;
        }
        self.slots[bank * self.entries_per_bank + n] = pkt;
        self.len[bank] = (n + 1) as u16;
        self.total += 1;
        self.high_water = self.high_water.max(self.total);
        true
    }

    /// Removes every cached packet with the given OP-ID, appending it to a
    /// caller-owned buffer (the PE reuses one scratch vector across firings
    /// to keep the fire path allocation-free), and returns the cycle cost
    /// of the full sub-bank search that found them:
    /// `max(16, entries scanned)`.
    pub(crate) fn take_matching_into(&mut self, op_id: u8, hits: &mut Vec<Packet>) -> u64 {
        let bank = Self::bank_of(op_id);
        let base = bank * self.entries_per_bank;
        let scanned = usize::from(self.len[bank]);
        // In-place compaction preserving residual order, exactly like the
        // `Vec::retain` the AoS layout used.
        let mut kept = 0usize;
        for i in 0..scanned {
            let p = self.slots[base + i];
            if p.op_id == op_id {
                hits.push(p);
            } else {
                self.slots[base + kept] = p;
                kept += 1;
            }
        }
        self.len[bank] = kept as u16;
        self.total -= scanned - kept;
        scanned.max(CACHE_SUB_BANKS) as u64
    }

    /// Total buffered packets across all sub-banks.
    #[inline]
    pub(crate) fn occupancy(&self) -> usize {
        self.total
    }

    /// Highest total occupancy ever observed (sizing statistic).
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_noc::PacketKind;

    impl PacketCache {
        fn take_matching(&mut self, op_id: u8) -> (Vec<Packet>, u64) {
            let mut hits = Vec::new();
            let cost = self.take_matching_into(op_id, &mut hits);
            (hits, cost)
        }

        fn free_in_bank(&self, op_id: u8) -> usize {
            self.entries_per_bank - usize::from(self.len[Self::bank_of(op_id)])
        }
    }

    fn pkt(op_id: u8, mac_id: u8) -> Packet {
        Packet {
            dst: 0,
            src: 0,
            mac_id,
            op_id,
            kind: PacketKind::State,
            data: u16::from(op_id),
        }
    }

    #[test]
    fn packets_land_in_op_mod_16_banks() {
        assert_eq!(PacketCache::bank_of(0), 0);
        assert_eq!(PacketCache::bank_of(17), 1);
        assert_eq!(PacketCache::bank_of(255), 15);
    }

    #[test]
    fn take_matching_filters_by_exact_op() {
        let mut c = PacketCache::new();
        assert!(c.try_insert(pkt(3, 0)));
        assert!(c.try_insert(pkt(19, 1))); // same bank (3 mod 16)
        assert!(c.try_insert(pkt(3, 2)));
        let (hits, cost) = c.take_matching(3);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|p| p.op_id == 3));
        assert_eq!(cost, 16); // min search cost
        assert_eq!(c.occupancy(), 1); // op 19 remains
    }

    #[test]
    fn take_matching_preserves_residual_order() {
        let mut c = PacketCache::new();
        for (op, mac) in [(3u8, 0u8), (19, 1), (3, 2), (19, 3), (35, 4)] {
            assert!(c.try_insert(pkt(op, mac)));
        }
        let _ = c.take_matching(3);
        let (hits, _) = c.take_matching(19);
        assert_eq!(
            hits.iter().map(|p| p.mac_id).collect::<Vec<_>>(),
            vec![1, 3],
            "compaction must keep insertion order"
        );
        let (hits, _) = c.take_matching(35);
        assert_eq!(hits[0].mac_id, 4);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn search_cost_scales_with_bank_occupancy() {
        let mut c = PacketCache::new();
        for i in 0..40u8 {
            // All in bank 0: op ids 0, 16, 32, ... mod 256 cycling; use 0 and
            // 16 alternating to stay in bank 0.
            let op = if i % 2 == 0 { 0 } else { 16 };
            assert!(c.try_insert(pkt(op, i)));
        }
        let (hits, cost) = c.take_matching(0);
        assert_eq!(hits.len(), 20);
        assert_eq!(cost, 40);
    }

    #[test]
    fn sub_bank_capacity_enforced() {
        let mut c = PacketCache::new();
        for i in 0..SUB_BANK_ENTRIES {
            assert!(c.try_insert(pkt(16, i as u8)), "entry {i}");
        }
        assert!(!c.try_insert(pkt(16, 0)));
        // Another bank still has room.
        assert!(c.try_insert(pkt(1, 0)));
        assert_eq!(c.free_in_bank(16), 0);
        assert_eq!(c.free_in_bank(1), SUB_BANK_ENTRIES - 1);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut c = PacketCache::new();
        for op in 0..8u8 {
            let _ = c.try_insert(pkt(op, 0));
        }
        let _ = c.take_matching(0);
        let _ = c.take_matching(1);
        assert_eq!(c.occupancy(), 6);
        assert_eq!(c.high_water(), 8);
    }
}
