//! Neural-network substrate for the Neurocube reproduction.
//!
//! The Neurocube executes neural networks whose structure is known a priori
//! (paper §II-C): the host compiler lays the layers out in HMC vaults and
//! programs the neurosequence generators per layer. This crate is the
//! *network-level* substrate everything else builds on:
//!
//! * [`Tensor`] — a `(channels, height, width)` array of `Q1.7.8` values,
//! * [`LayerSpec`] / [`NetworkSpec`] — layer and network descriptions with
//!   shape arithmetic, connection/operation/weight counting,
//! * [`connections`] — the **canonical connection ordering** shared by the
//!   functional executor and the PNG address generator, so the cycle-level
//!   simulator can be validated bit-for-bit against the reference,
//! * [`Executor`] — a functional fixed-point forward/backward executor
//!   using exactly the MAC and LUT semantics of `neurocube-fixed`,
//! * [`GraphSpec`] — arbitrary layer DAGs (branches, residual `Add`,
//!   `Concat`) with validation and a topological schedule; [`NetworkSpec`]
//!   embeds as the trivial linear graph,
//! * [`workloads`] — the paper's evaluation networks: the 7-layer scene
//!   labeling ConvNN (Fig. 9) and an MNIST-style MLP, with procedural data
//!   generators replacing the original datasets (see `DESIGN.md`),
//! * [`recurrent`] — the §VI extension: RNNs as unfolded MLPs, bit-exact
//!   against the direct recurrence,
//! * [`footprint`] — the memory-requirement analysis behind Fig. 1.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod connections;
mod exec;
pub mod footprint;
mod graph;
mod layer;
mod network;
pub mod recurrent;
mod tensor;
mod train;
pub mod workloads;

pub use exec::Executor;
pub use graph::{GraphBuilder, GraphError, GraphNode, GraphOp, GraphSource, GraphSpec, INPUT};
pub use layer::{ConvConnectivity, LayerSpec, Shape};
pub use network::{NetworkError, NetworkSpec};
pub use recurrent::RecurrentSpec;
pub use tensor::Tensor;
pub use train::{mse_loss, Trainer, TrainerConfig};
