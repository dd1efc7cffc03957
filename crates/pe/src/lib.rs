//! The Neurocube processing element (PE).
//!
//! One PE per HMC vault (§III-B): `n_MAC` multiply-accumulate units running
//! at `f_PE / n_MAC`, a 512-bit *temporal buffer* holding exactly one
//! operation's operands (16 weights + 16 states), a 2.5 KB SRAM cache split
//! into 16 sub-banks for packets that arrive ahead of the operation counter,
//! and a weight register file for layers whose (small) kernels are
//! duplicated into every PE.
//!
//! The PE is **data driven**: it fires its MAC array when, and only when,
//! the temporal buffer holds a complete operand set for the current
//! operation (Fig. 11). There is no instruction stream — sequencing comes
//! entirely from the OP-IDs stamped on incoming packets by the PNGs.
//!
//! Two dataflows cover all layer types (see `DESIGN.md`):
//!
//! * **Per-MAC states + local weights** (conv/pool): the 16 MACs compute 16
//!   adjacent output pixels; at operation `k` they share kernel weight `k`
//!   (read from the PE weight memory) and each consumes its own input pixel.
//! * **Shared state + streamed weights** (fully connected): the 16 MACs
//!   compute 16 output neurons; at operation `k` they share input state
//!   `x_k` (one broadcast packet, Fig. 11(c) "16 weights and input") and
//!   each consumes its own streamed weight.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod cache;
mod config;
mod unit;

pub use config::{PeLayerConfig, StateMode, WeightMode};
pub use unit::{PeStats, ProcessingElement};
