//! Golden reference models for differential verification.
//!
//! The paper cross-checks every simulated number against an independent
//! analytical model (Fig. 9–11: MAC utilization and vault-bandwidth
//! equations), and related near-memory compilers ship an f64 functional
//! reference next to their cycle-accurate backends. This crate is our
//! version of that oracle, split into two independent models:
//!
//! * `func` — a double-precision functional reference of a layer DAG's
//!   forward execution (a linear network is its trivial graph). It shares
//!   only the *declarative* parts of the stack (layer geometry and the
//!   canonical connection map) with the simulator; all arithmetic is ideal `f64`. Because every error source
//!   of the `Q1.7.8` datapath is bounded (product truncation, LUT
//!   quantization, activation Lipschitz constants), the model derives a
//!   per-layer **error envelope** that the fixed-point simulator's outputs
//!   must fall inside — any excursion is a real defect, never noise.
//! * [`timing`] — an analytical cycle model per layer: the maximum of MAC
//!   array occupancy, per-PE packet serialization, per-channel DRAM
//!   bandwidth (burst/`t_CCD` pacing from [`neurocube_dram::ChannelConfig`])
//!   and NoC injection/ejection port serialization, each a provable **lower
//!   bound** on the cycle-level simulator's per-layer cycle count, plus a
//!   configurable upper tolerance envelope.
//!
//! The integration suite (`tests/tests/differential_golden.rs`) drives
//! randomized network configurations through both the simulator and these
//! models; with the real shrinking property-test engine any divergence is
//! reported as a minimal counterexample.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod func;
pub mod timing;

pub use func::{Divergence, GoldenGraph};
pub use timing::{
    channel_stream_cycles, check_graph_report, graph_bounds, graph_service_envelope,
    link_serialization_cycles, link_transfer_cycles, phase_bounds, pipeline_envelope, plan_graph,
    CycleEnvelope, EnvelopeViolation, GraphPlan, LayerBound, TimingViolation, DEFAULT_SLACK,
};
