//! The Neurocube system simulator.
//!
//! This crate assembles the substrates into the paper's full architecture
//! (Fig. 5): an HMC-style [`MemorySystem`](neurocube_dram::MemorySystem)
//! whose 16 vaults each carry a [`Png`](neurocube_png::Png), a 2D-mesh
//! [`Network`](neurocube_noc::Network) on the logic die, and 16
//! [`ProcessingElement`](neurocube_pe::ProcessingElement)s — then drives
//! them cycle by cycle through whole-network inference and training runs.
//!
//! The simulator is **value-accurate**: the DRAM image, the packets and the
//! MACs carry real `Q1.7.8` data, so [`Neurocube::run_inference`] returns
//! the network's actual output tensor, bit-identical to
//! [`neurocube_nn::Executor`] — the central correctness property of the
//! whole reproduction (checked in this crate's tests and the integration
//! suite).
//!
//! # Quick start
//!
//! ```
//! use neurocube::{Neurocube, SystemConfig};
//! use neurocube_nn::{workloads, Tensor};
//!
//! let net = workloads::tiny_convnet();
//! let params = net.init_params(7, 0.25);
//! let mut cube = Neurocube::new(SystemConfig::paper(true));
//! let loaded = cube.load(net, params);
//! let input = Tensor::zeros(1, 12, 12);
//! let (output, report) = cube.run_inference(&loaded, &input);
//! assert_eq!(output.len(), 3);
//! assert!(report.total_cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod config;
mod report;
mod system;
mod training;

pub use config::{ConfigError, ProgrammingModel, SystemConfig};
pub use report::{FaultSummary, LayerReport, RunReport};
pub use system::{LoadedGraph, Neurocube};
pub use training::{training_ops, training_passes, PassKind};
