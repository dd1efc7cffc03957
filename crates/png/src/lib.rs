//! Memory-centric neural computing: the Programmable Neurosequence
//! Generator (PNG) and the host compiler that programs it.
//!
//! This crate is the paper's §IV. Each HMC vault controller carries a PNG —
//! a programmable finite state machine that, for one network layer at a
//! time, generates the DRAM address sequence of every operand *this vault
//! owns*, packetizes the returned data for the consuming PEs, applies the
//! activation look-up table to returning results and writes the new neuron
//! states back to DRAM. There is no instruction stream: the PNGs drive the
//! compute layer.
//!
//! Modules:
//!
//! * `graph` — the host compiler: [`compile_graph`] lowers a layer DAG (a
//!   linear network is its trivial graph) into one [`MultiLayerProgram`],
//!   assigning every volume and weight address with lifetime-based buffer
//!   reuse,
//! * [`layout`] — the vocabulary of a placement: spatial 4×4 tiling with
//!   optional halo/full duplication (Fig. 10), per-vault addressing,
//! * [`schedule`] — the per-PE neuron assignment and the per-vault operand
//!   stream FSM (the paper's three nested counters, Fig. 8),
//! * [`program`] — one compiled phase: a [`LayerProgram`] shared by every
//!   vault plus one `PeLayerConfig` per PE (the host's
//!   configuration-register writes),
//! * [`Png`] — the cycle-level PNG unit gluing stream → vault channel →
//!   NoC → write-back.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod error;
mod graph;
pub mod layout;
pub mod program;
pub mod schedule;
mod unit;

pub use error::CompileError;
pub use graph::{compile_graph, MultiLayerProgram};
pub use program::{LayerProgram, Mapping};
pub use unit::{Png, PngHookup, PngStats};
