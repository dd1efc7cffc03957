//! The assembled memory subsystem: storage + channels + address map.
//!
//! The address space is divided into `regions` — one per vault/PE in the
//! Neurocube's logical mapping — served by `channels` physical memory
//! channels. For the HMC every region has its own channel (16/16); for the
//! DDR3 baseline of Fig. 15(a), 16 regions share 2 physical channels, and
//! the channel-count sweep keeps total capacity and per-channel bandwidth
//! fixed while varying how many regions contend per channel.

use crate::address::AddressMap;
use crate::channel::{Channel, ChannelConfig, Completion, Request};
use crate::storage::Storage;
use neurocube_fault::{DramFaultCounts, DramFaults, FaultConfig};
use neurocube_sim::{ScopedStats, StatSource};
use std::fmt;

/// Configuration of a whole memory subsystem.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryConfig {
    /// Technology name used in reports.
    pub name: &'static str,
    /// Physical channels (vaults for HMC, DIMM channels for DDR3).
    pub channels: u32,
    /// Logical regions (one per PE in the Neurocube mapping).
    pub regions: u32,
    /// Per-region capacity in bytes.
    pub region_bytes: u64,
    /// Per-channel timing parameters.
    pub channel: ChannelConfig,
}

impl MemoryConfig {
    /// The Neurocube's native memory: a 4 GB HMC, 16 vaults = 16 regions,
    /// HMC-internal timing.
    pub fn hmc_int() -> MemoryConfig {
        MemoryConfig {
            name: "HMC-Int",
            channels: 16,
            regions: 16,
            region_bytes: 256 << 20,
            channel: ChannelConfig::hmc_int(),
        }
    }

    /// An HMC-style memory with a reduced channel count at the same
    /// per-channel bandwidth (the Fig. 15(a) concurrency sweep): 16 regions
    /// shared over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or does not divide 16.
    pub fn hmc_with_channels(channels: u32) -> MemoryConfig {
        assert!(channels > 0 && 16 % channels == 0, "need a divisor of 16");
        MemoryConfig {
            name: "HMC-Int",
            channels,
            regions: 16,
            region_bytes: 256 << 20,
            channel: ChannelConfig::hmc_int(),
        }
    }

    /// A 2-channel DDR3 system of the same 4 GB capacity — the Fig. 15(a)
    /// baseline (higher per-channel bandwidth, far less concurrency).
    pub fn ddr3() -> MemoryConfig {
        MemoryConfig {
            name: "DDR3",
            channels: 2,
            regions: 16,
            region_bytes: 256 << 20,
            channel: ChannelConfig::ddr3(),
        }
    }

    /// The first rule of the validated memory geometry this configuration
    /// breaks, or `None`: nonzero regions, region bytes and channels, a
    /// channel count that divides the region count (each channel serves
    /// an equal block), and the channel rules [`ChannelConfig`] states.
    /// [`MemorySystem::new`] asserts it, [`Channel::new`] its channel rules.
    pub fn geometry_error(&self) -> Option<&'static str> {
        if self.regions == 0 || self.region_bytes == 0 {
            Some("regions and region_bytes must be nonzero")
        } else if self.channels == 0 || !self.regions.is_multiple_of(self.channels) {
            Some("channels must be nonzero and divide regions")
        } else {
            self.channel.geometry_error()
        }
    }

    /// The physical channel that serves `region`.
    pub fn channel_of_region(&self, region: u32) -> u32 {
        debug_assert!(region < self.regions);
        region * self.channels / self.regions
    }

    /// The address map induced by this configuration (one entry per
    /// region).
    pub fn address_map(&self) -> AddressMap {
        AddressMap::new(
            self.regions,
            self.region_bytes,
            self.channel.banks,
            self.channel.row_bytes,
        )
    }

    /// Aggregate average bandwidth in GB/s.
    pub fn aggregate_bandwidth_gbps(&self) -> f64 {
        self.channel.avg_bandwidth_gbps() * f64::from(self.channels)
    }
}

/// A complete memory subsystem: one [`Storage`] image shared by the
/// physical [`Channel`]s, with region→channel routing.
///
/// # Examples
///
/// ```
/// use neurocube_dram::{MemoryConfig, MemorySystem, Request, RequestKind};
///
/// let mut mem = MemorySystem::new(MemoryConfig::hmc_int());
/// mem.storage_mut().write_u16(0, 42);
/// mem.try_enqueue(0, Request { addr: 0, tag: 1, kind: RequestKind::Read });
/// let mut got = None;
/// for now in 0..1000 {
///     if let Some(c) = mem.tick_channel(0, now) { got = Some(c); break; }
/// }
/// assert_eq!(got.unwrap().data, 42);
/// ```
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: MemoryConfig,
    map: AddressMap,
    storage: Storage,
    channels: Vec<Channel>,
}

impl MemorySystem {
    /// Builds the subsystem described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` breaks the validated geometry (see
    /// [`MemoryConfig::geometry_error`]).
    pub fn new(config: MemoryConfig) -> MemorySystem {
        if let Some(rule) = config.geometry_error() {
            panic!("invalid memory geometry: {rule}");
        }
        let map = config.address_map();
        let channels = (0..config.channels)
            .map(|_| Channel::new(config.channel))
            .collect();
        MemorySystem {
            config,
            map,
            storage: Storage::new(),
            channels,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// The address map (region bases, decode).
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Number of physical channels.
    pub fn channels(&self) -> u32 {
        self.config.channels
    }

    /// Number of logical regions.
    pub fn regions(&self) -> u32 {
        self.config.regions
    }

    /// Immutable access to the backing store (functional verification).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable access to the backing store — the host's "load the network
    /// into the cube" path, untimed exactly like the paper's programming
    /// phase.
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Outstanding requests in the channel serving `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn pending(&self, region: u32) -> usize {
        self.channels[self.config.channel_of_region(region) as usize].pending()
    }

    /// Free request-queue slots in the channel serving `region`.
    pub fn free_slots(&self, region: u32) -> usize {
        self.channels[self.config.channel_of_region(region) as usize].free_slots()
    }

    /// Submits a request for `region`, routed to its physical channel.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the address is not owned by `region` — the
    /// Neurocube compiler must never route a request to the wrong vault.
    pub fn try_enqueue(&mut self, region: u32, req: Request) -> bool {
        debug_assert_eq!(
            self.map.channel_of(req.addr),
            region,
            "request {:#x} routed to wrong region {region}",
            req.addr
        );
        let ch = self.config.channel_of_region(region) as usize;
        self.channels[ch].try_enqueue(req)
    }

    /// Ticks physical channel `ch` one reference cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    pub fn tick_channel(&mut self, ch: u32, now: u64) -> Option<Completion> {
        self.channels[ch as usize].tick(now, &mut self.storage)
    }

    /// Attaches a fault lens to every physical channel (or detaches them
    /// all with `None`). Each channel's background upsets land in the
    /// contiguous slice of the address space its regions occupy, and its
    /// lens draws from a per-channel PRNG domain so channels fault
    /// independently.
    pub fn set_faults(&mut self, cfg: Option<&FaultConfig>) {
        let per = self.config.regions / self.config.channels;
        for (i, ch) in self.channels.iter_mut().enumerate() {
            match cfg {
                Some(c) => {
                    let first = i as u32 * per;
                    let base = self.map.channel_base(first);
                    let span = self.config.region_bytes * u64::from(per);
                    ch.set_faults(Some(DramFaults::new(c, i as u16)), base, span);
                }
                None => ch.set_faults(None, 0, 0),
            }
        }
    }

    /// Aggregated DRAM fault counters across all channels (all zero when
    /// no lens is attached).
    pub fn fault_counts(&self) -> DramFaultCounts {
        let mut total = DramFaultCounts::default();
        for ch in &self.channels {
            if let Some(f) = ch.faults() {
                total.merge(&f.counts);
            }
        }
        total
    }

    /// The earliest future cycle at which any channel could do more than a
    /// null tick (see [`Channel::next_event`]); `None` if some channel
    /// must be ticked at `now`.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut horizon = u64::MAX;
        for ch in &self.channels {
            horizon = horizon.min(ch.next_event(now)?);
        }
        Some(horizon)
    }

    /// Bulk-charges every channel's null-tick accounting for `[from, to)`,
    /// a range [`next_event`](Self::next_event) declared quiescent.
    pub fn skip(&mut self, from: u64, to: u64) {
        for ch in &mut self.channels {
            ch.skip(from, to);
        }
    }

    /// Total bits transferred across all channels.
    pub(crate) fn total_bits_transferred(&self) -> u64 {
        self.channels.iter().map(Channel::bits_transferred).sum()
    }

    /// Total DRAM access energy in joules.
    pub(crate) fn total_energy_joules(&self) -> f64 {
        self.channels.iter().map(Channel::energy_joules).sum()
    }

    /// Total row activations across all channels.
    pub(crate) fn total_row_misses(&self) -> u64 {
        self.channels.iter().map(Channel::row_misses).sum()
    }

    /// Read words whose (post-fault) payload was all zero, across all
    /// channels. Classification only — see DESIGN.md §13.
    pub fn total_zero_words_read(&self) -> u64 {
        self.channels.iter().map(Channel::zero_words_read).sum()
    }

    /// Written words whose payload was all zero, across all channels.
    pub fn total_zero_words_written(&self) -> u64 {
        self.channels.iter().map(Channel::zero_words_written).sum()
    }

    /// Maximal runs of consecutive zero read words, across all channels.
    pub fn total_zero_read_runs(&self) -> u64 {
        self.channels.iter().map(Channel::zero_read_runs).sum()
    }
}

impl StatSource for MemorySystem {
    fn report(&self, stats: &mut ScopedStats<'_>) {
        stats.counter("bits_transferred", self.total_bits_transferred());
        stats.counter("row_misses", self.total_row_misses());
        stats.metric("energy_j", self.total_energy_joules());
        stats.counter("zero_words_read", self.total_zero_words_read());
        stats.counter("zero_words_written", self.total_zero_words_written());
        stats.counter("zero_read_runs", self.total_zero_read_runs());
    }
}

impl fmt::Display for MemorySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} ch / {} regions, {}, {:.1} GB/s aggregate)",
            self.config.name,
            self.config.channels,
            self.config.regions,
            self.map,
            self.config.aggregate_bandwidth_gbps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RequestKind;

    #[test]
    fn hmc_has_16_channels() {
        let mem = MemorySystem::new(MemoryConfig::hmc_int());
        assert_eq!(mem.channels(), 16);
        assert_eq!(mem.regions(), 16);
        // 16 GB/s sustained per vault (see ChannelConfig::hmc_int docs).
        assert!((mem.config().aggregate_bandwidth_gbps() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn ddr3_shares_2_channels_over_16_regions() {
        let mem = MemorySystem::new(MemoryConfig::ddr3());
        assert_eq!(mem.channels(), 2);
        assert_eq!(mem.regions(), 16);
        assert!((mem.config().aggregate_bandwidth_gbps() - 25.6).abs() < 1e-9);
        let cfg = mem.config();
        assert_eq!(cfg.channel_of_region(0), 0);
        assert_eq!(cfg.channel_of_region(7), 0);
        assert_eq!(cfg.channel_of_region(8), 1);
        assert_eq!(cfg.channel_of_region(15), 1);
    }

    #[test]
    fn channels_progress_independently() {
        let mut mem = MemorySystem::new(MemoryConfig::hmc_int());
        let base1 = mem.map().channel_base(1);
        mem.storage_mut().write_u32(0, 10);
        mem.storage_mut().write_u32(base1, 11);
        assert!(mem.try_enqueue(
            0,
            Request {
                addr: 0,
                tag: 0,
                kind: RequestKind::Read
            }
        ));
        assert!(mem.try_enqueue(
            1,
            Request {
                addr: base1,
                tag: 1,
                kind: RequestKind::Read
            }
        ));
        let mut got = [None, None];
        for now in 0..10_000 {
            for ch in 0..2 {
                if let Some(c) = mem.tick_channel(ch, now) {
                    got[ch as usize] = Some(c);
                }
            }
            if got.iter().all(Option::is_some) {
                break;
            }
        }
        let a = got[0].unwrap();
        let b = got[1].unwrap();
        assert_eq!(a.data, 10);
        assert_eq!(b.data, 11);
        // Same timing for identical access patterns in different vaults.
        assert_eq!(a.cycle, b.cycle);
    }

    #[test]
    fn shared_channel_serializes_regions() {
        let mut mem = MemorySystem::new(MemoryConfig::hmc_with_channels(2));
        let base1 = mem.map().channel_base(1);
        assert!(mem.try_enqueue(
            0,
            Request {
                addr: 0,
                tag: 0,
                kind: RequestKind::Read
            }
        ));
        // Region 1 shares channel 0 (regions 0..8 -> channel 0).
        assert!(mem.try_enqueue(
            1,
            Request {
                addr: base1,
                tag: 1,
                kind: RequestKind::Read
            }
        ));
        let mut cycles = Vec::new();
        for now in 0..10_000 {
            if let Some(c) = mem.tick_channel(0, now) {
                cycles.push(c.cycle);
            }
            if cycles.len() == 2 {
                break;
            }
        }
        assert_eq!(cycles.len(), 2);
        assert!(cycles[1] > cycles[0], "shared channel must serialize");
    }

    #[test]
    fn channel_sweep_preserves_total_capacity() {
        for n in [2, 4, 8, 16] {
            let cfg = MemoryConfig::hmc_with_channels(n);
            assert_eq!(cfg.address_map().total_bytes(), 4 << 30);
            assert_eq!(cfg.regions, 16);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wrong region")]
    fn cross_region_enqueue_is_rejected() {
        let mut mem = MemorySystem::new(MemoryConfig::hmc_int());
        let base1 = mem.map().channel_base(1);
        let _ = mem.try_enqueue(
            0,
            Request {
                addr: base1,
                tag: 0,
                kind: RequestKind::Read,
            },
        );
    }

    #[test]
    fn energy_accumulates_across_channels() {
        let mut mem = MemorySystem::new(MemoryConfig::hmc_int());
        for ch in 0..16u32 {
            let addr = mem.map().channel_base(ch);
            assert!(mem.try_enqueue(
                ch,
                Request {
                    addr,
                    tag: 0,
                    kind: RequestKind::Write(1)
                }
            ));
        }
        for now in 0..1000 {
            for ch in 0..16 {
                let _ = mem.tick_channel(ch, now);
            }
        }
        assert_eq!(mem.total_bits_transferred(), 16 * 32);
        // One demand activation per write, plus up to two activate-ahead
        // rows per channel.
        assert!((16..=48).contains(&mem.total_row_misses()));
        assert!(mem.total_energy_joules() > 0.0);
    }
}
