//! Deterministic multi-tenant inference serving over a Neurocube pool.
//!
//! This crate layers a request-level serving frontend on the cycle
//! simulator: an open-loop `traffic` generator emits inference
//! requests (model, payload, deadline, priority) from `fault::prng`'s
//! counter PRNG; the `scheduler` admits them, forms dynamic batches
//! per model, places batches on a pool of cube timelines with
//! model-affinity awareness (a cube keeps its last-programmed network,
//! so same-model batches skip the host reprogramming charge), and sheds
//! requests that can no longer meet their deadlines — gracefully, as
//! counted statistics, never a panic. The `executor` then replays the
//! schedule on real [`ServeCube`] slots — the slot's own cube for a
//! linear or graph tenant, a `neurocube_cluster::Cluster` for a sharded
//! one — serially or on `BatchRunner` threads, with bitwise-identical
//! merged statistics either way.
//!
//! Everything is deterministic end to end: the same `(seed, trace,
//! config)` produces the same `serve.*` registry bit for bit — across
//! reruns, across fast-forward modes (the scheduler rides
//! `sim::CycleLoop`'s event-horizon contract), and across
//! serial-versus-threaded execution. An independent [`oracle`]
//! re-implements the scheduling policy longhand so the property suites
//! can difference the two.
//!
//! For scale, the `twospeed` executor replaces the full replay with an
//! analytical fast path — every dispatch priced from the catalog's
//! memoized profile, no cube ticking — plus deterministic sampled
//! audits: a counter-PRNG draw keyed by `(audit seed, dispatch index)`
//! picks a configurable fraction of dispatches for full cycle- and
//! value-accurate replay on fresh cubes, asserting the analytical
//! numbers against the certified `golden::timing` envelope and the
//! golden functional reference.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod catalog;
mod cube;
mod executor;
pub mod oracle;
mod request;
mod scheduler;
mod traffic;
mod twospeed;

pub use catalog::{ModelCatalog, ModelEntry, ModelPayload};
pub use cube::ServeCube;
pub use executor::{execute, ExecMode};
pub use request::{Outcome, RejectReason, Request};
pub use scheduler::{serve, serve_mode, DispatchRecord, ServeConfig, ServeReport};
pub use traffic::{generate, LoadProfile, Scenario, TrafficSpec, SCENARIOS};
pub use twospeed::{
    execute_two_speed, AuditRecord, AuditSampler, AuditViolation, TwoSpeedConfig, TwoSpeedReport,
};
