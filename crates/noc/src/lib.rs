//! Cycle-level network-on-chip models for the Neurocube simulator.
//!
//! The paper's logic die connects 16 PEs and 16 vault controllers with a
//! 4×4 2D-mesh NoC (§III-C): wormhole-switched routers with credit-based
//! flow control, 16-deep packet buffers per channel, deterministic X-Y
//! routing and a rotating daisy-chain priority arbiter updated every cycle.
//! Each router has six ports: four mesh neighbours, one PE and one memory
//! (vault/PNG) port. §VI-C additionally evaluates a *fully connected* NoC in
//! which every router links directly to every other router.
//!
//! This crate provides:
//!
//! * [`Packet`] — the 36-bit NoC packet of Fig. 11 (`DST`, `SRC`, `MAC-ID`,
//!   `OP-ID`, 16-bit data) plus a 2-bit kind tag (see `DESIGN.md` for why
//!   the tag is needed),
//! * [`Topology`] — mesh or fully-connected wiring,
//! * [`Network`] — the cycle-driven fabric with injection/ejection ports for
//!   the PNGs (memory side) and PEs (compute side),
//! * [`NocStats`] — delivered/lateral packet counts and latency accounting
//!   used for the paper's lateral-traffic percentages (Fig. 14/15).
//!
//! Packets are single-flit: the link datapath is 36 bits wide (Table II), so
//! a packet *is* a flit and wormhole switching degenerates to virtual
//! cut-through with per-queue backpressure, which we model with explicit
//! buffer occupancy (equivalent to credit counting for single-flit packets).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod network;
mod packet;
mod router;
mod stats;
mod topology;

pub use network::{Network, NocError};
pub use packet::{NodeId, Packet, PacketKind};
pub use stats::NocStats;
pub use topology::Topology;
