//! Power, area, efficiency and thermal models for the Neurocube.
//!
//! The paper evaluates hardware cost three ways (§VII):
//!
//! 1. **RTL synthesis** of one PE + router in 28 nm CMOS and 15 nm FinFET —
//!    Table II's per-component frequency/power/area numbers. We embed those
//!    published constants ([`table2`]) and rebuild every derived quantity
//!    (PE sums, compute totals, power density) from them.
//! 2. **HMC die power** from the pJ/bit figures of the HMC ISSCC paper
//!    \[20\]: logic die = 6.78 pJ/bit, DRAM = 3.7 pJ/bit at the full
//!    16-vault × 32-bit × 5 GHz stream rate, activity-scaled for the
//!    300 MHz 28 nm design point ([`hmc`]).
//! 3. **Thermal feasibility** (Fig. 17): a steady-state 3D resistive-grid
//!    solver over the 5-die stack ([`thermal`]), checked against the HMC
//!    2.0 operating limits (383 K logic, 378 K DRAM).
//!
//! [`efficiency`] assembles Table III (GOPs/s, compute power, GOPs/s/W
//! across published platforms plus this reproduction's measured numbers)
//! and [`area`] reproduces the Fig. 16 logic-die floorplan accounting.
//!
//! Every model here is closed-form: no simulator crate sits under this
//! one. A run's measured DRAM energy comes from the channel's per-bit
//! accounting (`mem.energy_j` in the stats registry).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod area;
pub mod efficiency;
pub mod hmc;
pub mod table2;
pub mod thermal;

pub use table2::{ComponentPower, ProcessNode, TABLE2_COMPONENTS};
