//! The training-pass schedule (§VI-2, Fig. 13).
//!
//! Backpropagation's passes have exactly the forward pass's three-nested-
//! loop MAC structure, so the host programs the same PNG machinery once per
//! pass per layer:
//!
//! * **grad-input** (`∂L/∂X`): a convolution with the rotated kernel (conv)
//!   or the transposed weight matrix (FC) — operand volume identical to the
//!   forward pass. Skipped for a node that reads only the graph input (no
//!   upstream consumer; the first layer of a chain).
//! * **grad-weight** (`∂L/∂W`): correlation of stored activations with
//!   output errors — one MAC per (weight, output) pair, again the forward
//!   pass's operand volume. Skipped for pooling (no weights).
//! * **weight-update** (`W ← W − η·∂W`): one MAC per weight. Negligible for
//!   conv kernels (they live in PE weight memory); a full weight-matrix
//!   streaming pass for FC layers, whose `∂W` already equals one
//!   forward-equivalent pass (`n_out × n_in` MACs).
//!
//! The timing simulator models each backward pass by re-running the phase's
//! dataflow (identical addresses, packet counts and MAC counts); gradient
//! *values* are verified functionally in `neurocube-nn`'s trainer, which
//! shares the MAC/LUT semantics. See `DESIGN.md`.

use neurocube_nn::{LayerSpec, NetworkSpec};

/// One pass of a training step over a single layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// The inference dataflow (also the first phase of training).
    Forward,
    /// Back-propagation of errors to the layer's inputs.
    GradInput,
    /// Accumulation of weight gradients.
    GradWeight,
    /// SGD weight update (FC layers only; conv kernels update in place in
    /// the PE weight memories during host reprogramming).
    WeightUpdate,
}

impl PassKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PassKind::Forward => "forward",
            PassKind::GradInput => "grad-input",
            PassKind::GradWeight => "grad-weight",
            PassKind::WeightUpdate => "weight-upd",
        }
    }
}

/// The passes a graph node running `layer` contributes to one training
/// step, in backward-sweep order (the forward pass is listed first; the
/// system runs forward passes in a separate forward sweep). `reads_input`
/// is whether every operand of the node is the graph input, so no
/// upstream layer wants its input gradient.
pub fn training_passes(layer: &LayerSpec, reads_input: bool) -> Vec<PassKind> {
    let mut passes = vec![PassKind::Forward];
    if !reads_input {
        passes.push(PassKind::GradInput);
    }
    match layer {
        // Pooling and element-wise sums carry no trainable weights.
        LayerSpec::AvgPool { .. } | LayerSpec::Eltwise { .. } => {}
        LayerSpec::Conv2d { .. } => passes.push(PassKind::GradWeight),
        LayerSpec::FullyConnected { .. } => {
            passes.push(PassKind::GradWeight);
            passes.push(PassKind::WeightUpdate);
        }
    }
    passes
}

/// Total training-step operations implied by the pass schedule (2 ops per
/// MAC), for cross-checking simulated op counts against Fig. 13(a).
pub fn training_ops(net: &NetworkSpec) -> u64 {
    let macs = net.macs_per_layer();
    net.layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| macs[i] * 2 * training_passes(layer, i == 0).len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;
    use neurocube_nn::Shape;

    fn net() -> NetworkSpec {
        NetworkSpec::new(
            Shape::new(1, 12, 12),
            vec![
                LayerSpec::conv(2, 3, Activation::Tanh),
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::fc(4, Activation::Sigmoid),
            ],
        )
        .unwrap()
    }

    #[test]
    fn first_conv_skips_grad_input() {
        assert_eq!(
            training_passes(&net().layers()[0], true),
            vec![PassKind::Forward, PassKind::GradWeight]
        );
    }

    #[test]
    fn pooling_has_no_weight_passes() {
        assert_eq!(
            training_passes(&net().layers()[1], false),
            vec![PassKind::Forward, PassKind::GradInput]
        );
    }

    #[test]
    fn fc_has_all_four_passes() {
        assert_eq!(
            training_passes(&net().layers()[2], false),
            vec![
                PassKind::Forward,
                PassKind::GradInput,
                PassKind::GradWeight,
                PassKind::WeightUpdate,
            ]
        );
    }

    #[test]
    fn training_ops_roughly_triple_inference() {
        let n = net();
        let inference = n.total_ops();
        let training = training_ops(&n);
        assert!(training > 2 * inference);
        assert!(training < 4 * inference);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            PassKind::Forward,
            PassKind::GradInput,
            PassKind::GradWeight,
            PassKind::WeightUpdate,
        ]
        .into_iter()
        .map(PassKind::label)
        .collect();
        assert_eq!(labels.len(), 4);
    }
}
