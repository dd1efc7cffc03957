//! 16-bit fixed-point arithmetic for the Neurocube simulator.
//!
//! The Neurocube paper (§III-B-1) represents both neuron states and synaptic
//! weights as 16-bit fixed-point values in the `Q1.7.8` format: one sign bit,
//! seven integer bits and eight fractional bits. This crate provides:
//!
//! * [`Q88`] — the value type, with saturating arithmetic matching what a
//!   16-bit datapath would produce,
//! * [`MacUnit`] — the multiply-accumulate semantics of a single Neurocube
//!   MAC, with a configurable accumulator width,
//! * [`ActivationLut`] — the look-up-table evaluation of non-linear
//!   activation functions exactly as the PNG's LUT hardware would compute
//!   them (§IV-A).
//!
//! Everything here is deterministic and `no_std`-friendly in spirit (no
//! allocation outside the LUT), so the cycle-level simulator built on top can
//! be compared bit-for-bit against the functional reference executor.
//!
//! # Examples
//!
//! ```
//! use neurocube_fixed::{Q88, MacUnit, AccumulatorWidth};
//!
//! let w = Q88::from_f64(0.5);
//! let x = Q88::from_f64(3.25);
//! let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
//! mac.accumulate(w, x);
//! mac.accumulate(w, x);
//! assert_eq!(mac.result().to_f64(), 3.25);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod lanes;
mod lut;
mod mac;
mod q88;

pub use lanes::{accumulate_narrow_lanes, accumulate_wide_lanes, wide_result_bits};
pub use lut::{Activation, ActivationLut};
pub use mac::{dot, AccumulatorWidth, MacUnit};
pub use q88::{ParseQ88Error, Q88};
