//! Cycle-level memory models for the Neurocube simulator.
//!
//! The Neurocube sits on the logic die of a Micron Hybrid Memory Cube: 16
//! DRAM *vaults*, each with an independent vault controller, stream operands
//! into the compute layer (paper §II-B, §III-A). This crate provides:
//!
//! * [`MemorySpec`] — the technology comparison data of the paper's Table I
//!   (DDR3, Wide I/O 2, HBM, HMC external and HMC internal interfaces),
//! * [`Storage`] — a sparse byte-addressable backing store, so the simulator
//!   moves *real data*, not just timing tokens,
//! * [`AddressMap`] — vault / bank / row decomposition of physical addresses,
//! * [`Channel`] — the per-vault (or per-DDR3-channel) timing model: burst
//!   streaming at the I/O rate, inter-burst `t_CCD` gaps, row activation
//!   penalties (`t_CL + t_RCD`) and per-bit energy accounting,
//! * [`MemorySystem`] — the assembled memory subsystem used by the
//!   Neurocube core simulator, configurable as HMC-internal (16 channels),
//!   DDR3 (2 channels) or anything in between for the Fig. 15(a) sweep.
//!
//! All timing is expressed in *reference cycles* — ticks of the paper's
//! 5 GHz vault-I/O clock, which is also the PE and NoC clock. Slower
//! interfaces (DDR3) deliver words at a rational fraction of a word per
//! reference cycle, tracked exactly with an integer accumulator so bandwidth
//! ratios are preserved without floating-point drift.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod address;
mod channel;
mod spec;
mod storage;
mod system;

pub use address::{AddressMap, DecodedAddr};
pub use channel::{Channel, ChannelConfig, Completion, RefreshModel, Request, RequestKind};
pub use spec::{Interface, MemorySpec, MEMORY_SPECS};
pub use storage::Storage;
pub use system::{MemoryConfig, MemorySystem};

/// The paper's reference clock: the HMC vault I/O clock, 2.5 GHz DDR = 5 GHz
/// effective (§VI). PE, NoC and DRAM I/O all tick at this rate in the
/// simulator; physical-time quantities are derived from it.
pub const REF_CLOCK_HZ: f64 = 5.0e9;

/// Converts nanoseconds to (rounded-up) reference cycles.
fn ns_to_cycles(ns: f64) -> u64 {
    (ns * 1e-9 * REF_CLOCK_HZ).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_cycles_rounds_up() {
        assert_eq!(ns_to_cycles(27.5), 138); // HMC tCL + tRCD
    }
}
