//! The reusable simulation kernel under every Neurocube cycle model.
//!
//! Three pieces, each independent of the architecture being simulated:
//!
//! * [`Clocked`] + [`CycleLoop`] — a per-cycle stage pipeline. A system
//!   registers its pipeline stages (each a [`Clocked`] implementation
//!   over a shared bus type) in execution order, and the loop drives them
//!   cycle by cycle, owning the completion check and the deadlock
//!   watchdog that every hand-written run loop used to duplicate.
//! * [`StatsRegistry`] + [`StatSource`] — a registry of named monotonic
//!   counters (plus accumulating float metrics, instantaneous gauges and
//!   exact [`Histogram`] sample distributions) that every component
//!   reports into through one uniform trait, with snapshot/diff
//!   semantics for per-phase reporting and CSV/JSON exporters for the
//!   experiment harnesses.
//! * [`BatchRunner`] — a scoped-thread fleet runner for independent
//!   simulator instances. Each instance stays a deterministic
//!   single-threaded cycle loop, so batch results are bitwise identical
//!   to serial runs; only *across* instances does wall-clock parallelism
//!   apply.
//!
//! The kernel deliberately knows nothing about PEs, PNGs, DRAM or NoCs —
//! those crates depend on this one, never the reverse.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod batch;
mod clocked;
mod stats;

pub use batch::BatchRunner;
pub use clocked::{Clocked, CycleLoop};
pub use stats::{Histogram, ScopedStats, StatSource, StatsRegistry};
