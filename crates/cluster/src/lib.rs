//! Inter-cube SerDes fabric and model sharding: one layer DAG served by a
//! **cluster** of Neurocubes.
//!
//! A single cube caps model size at what its 16 vault regions can hold.
//! This crate lifts that cap the way Neurostream-class systems do — by
//! joining cubes with SerDes links — in three layers:
//!
//! * `link` — the fabric model: [`ClusterTopology`] (ring / 2D mesh),
//!   [`LinkConfig`] (bandwidth, latency, pJ/bit; [`LinkConfig::hmc_ext`]
//!   is the HMC-class default), and the cycle/Joule charge formulas
//!   shared with `neurocube_golden::timing` and `neurocube_power::hmc`.
//! * `shard` — the planner: [`shard_graph`] cuts a validated
//!   [`GraphSpec`](neurocube_nn::GraphSpec) into pipeline stages and
//!   tensor-parallel bands, costed with certified per-stage lower bounds
//!   plus link terms, and returns the cheapest feasible [`ShardedGraph`].
//! * `exec` — the executor: a [`Cluster`] runs each stage to
//!   completion on its part cubes' private clocks and sequences only what
//!   couples cubes — link arrivals and stage completions — through one
//!   `CycleLoop`, with transfers as explicit clocked link stages that
//!   honour the event-horizon contract (skip and naive runs are bitwise
//!   identical, output values match the single-big-cube reference
//!   exactly).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod exec;
mod link;
mod shard;

pub use exec::{Cluster, ClusterReport};
pub use link::{ClusterTopology, LinkConfig};
pub use shard::{shard_graph, ShardPart, ShardStage, ShardedGraph};
