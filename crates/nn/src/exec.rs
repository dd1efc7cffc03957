//! Functional fixed-point executor — the bit-exact reference for the
//! cycle-level simulator.

use crate::connections::{self, weight_value};
use crate::network::NetworkSpec;
use crate::tensor::Tensor;
use neurocube_fixed::{AccumulatorWidth, ActivationLut, MacUnit, Q88};

/// Evaluates a network functionally with exactly the arithmetic the
/// Neurocube hardware performs: `Q1.7.8` operands, MAC accumulation of the
/// configured width, activations through the PNG's LUT, connections walked
/// in canonical order.
///
/// Because the cycle-level simulator in `neurocube` (the core crate) shares
/// every one of those components, `Executor::forward` must produce
/// *bit-identical* outputs — the strongest correctness check in the test
/// suite.
///
/// # Examples
///
/// ```
/// use neurocube_nn::{Executor, NetworkSpec, LayerSpec, Shape, Tensor};
/// use neurocube_fixed::Activation;
///
/// let net = NetworkSpec::new(
///     Shape::new(1, 4, 4),
///     vec![LayerSpec::fc(2, Activation::Sigmoid)],
/// )?;
/// let params = net.init_params(1, 0.25);
/// let exec = Executor::new(net, params);
/// let out = exec.forward(&Tensor::zeros(1, 4, 4));
/// assert_eq!(out.last().unwrap().len(), 2);
/// # Ok::<(), neurocube_nn::NetworkError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Executor {
    spec: NetworkSpec,
    params: Vec<Vec<Q88>>,
    width: AccumulatorWidth,
    luts: Vec<ActivationLut>,
}

impl Executor {
    /// Builds an executor over `spec` with the given per-layer weights and
    /// the default wide MAC accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the spec's per-layer weight counts.
    pub fn new(spec: NetworkSpec, params: Vec<Vec<Q88>>) -> Executor {
        Executor::with_accumulator(spec, params, AccumulatorWidth::Wide32)
    }

    /// Builds an executor with an explicit MAC accumulator width (the
    /// Table II ablation).
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the spec's per-layer weight counts.
    pub fn with_accumulator(
        spec: NetworkSpec,
        params: Vec<Vec<Q88>>,
        width: AccumulatorWidth,
    ) -> Executor {
        let counts = spec.weights_per_layer();
        assert_eq!(params.len(), counts.len(), "one weight array per layer");
        for (i, (p, &n)) in params.iter().zip(&counts).enumerate() {
            assert_eq!(p.len(), n, "layer {i} expects {n} weights");
        }
        let luts = spec
            .layers()
            .iter()
            .map(|l| ActivationLut::new(l.activation()))
            .collect();
        Executor {
            spec,
            params,
            width,
            luts,
        }
    }

    /// The network description.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Per-layer weights.
    pub fn params(&self) -> &[Vec<Q88>] {
        &self.params
    }

    /// Mutable per-layer weights (used by the trainer).
    pub(crate) fn params_mut(&mut self) -> &mut [Vec<Q88>] {
        &mut self.params
    }

    /// The MAC accumulator width in use.
    pub fn accumulator(&self) -> AccumulatorWidth {
        self.width
    }

    /// The activation LUT of layer `i`.
    pub fn lut(&self, i: usize) -> &ActivationLut {
        &self.luts[i]
    }

    /// Evaluates one layer: returns `(pre_activation, post_activation)`.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape disagrees with the spec.
    pub(crate) fn forward_layer(&self, i: usize, input: &Tensor) -> (Tensor, Tensor) {
        let in_shape = self.spec.layer_input(i);
        assert_eq!(
            (input.channels(), input.height(), input.width()),
            (in_shape.channels, in_shape.height, in_shape.width),
            "layer {i} input shape mismatch"
        );
        let out_shape = self.spec.layer_output(i);
        let layer = &self.spec.layers()[i];
        let n_conn = layer.connections_per_neuron(in_shape);
        let weights = &self.params[i];
        let lut = &self.luts[i];

        let mut pre = Tensor::zeros(out_shape.channels, out_shape.height, out_shape.width);
        let mut post = pre.clone();
        for neuron in 0..out_shape.len() {
            let mut mac = MacUnit::new(self.width);
            for k in 0..n_conn {
                let conn = connections::resolve(layer, in_shape, neuron, k);
                mac.accumulate(weight_value(conn, weights), input.at(conn.input_index));
            }
            let y = mac.result();
            pre.set_at(neuron, y);
            post.set_at(neuron, lut.apply(y));
        }
        (pre, post)
    }

    /// Runs the whole network; returns every layer's *post-activation*
    /// output (index `i` = output of layer `i`).
    pub fn forward(&self, input: &Tensor) -> Vec<Tensor> {
        let mut outputs = Vec::with_capacity(self.spec.depth());
        let mut cur = input.clone();
        for i in 0..self.spec.depth() {
            let (_, post) = self.forward_layer(i, &cur);
            cur = post.clone();
            outputs.push(post);
        }
        outputs
    }

    /// Runs the whole network keeping pre-activation values too
    /// (needed by the trainer): returns `(pre, post)` per layer.
    pub(crate) fn forward_detailed(&self, input: &Tensor) -> Vec<(Tensor, Tensor)> {
        let mut outputs: Vec<(Tensor, Tensor)> = Vec::with_capacity(self.spec.depth());
        for i in 0..self.spec.depth() {
            let (pre, post) = {
                let cur = outputs.last().map_or(input, |(_, post)| post);
                self.forward_layer(i, cur)
            };
            outputs.push((pre, post));
        }
        outputs
    }

    /// Convenience: the final output tensor.
    pub fn predict(&self, input: &Tensor) -> Tensor {
        self.forward(input).pop().expect("validated non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{LayerSpec, Shape};
    use neurocube_fixed::Activation;

    #[test]
    fn identity_fc_with_unit_diagonal_passes_through() {
        let spec =
            NetworkSpec::new(Shape::flat(3), vec![LayerSpec::fc(3, Activation::Identity)]).unwrap();
        // Identity weight matrix.
        let mut w = vec![Q88::ZERO; 9];
        for i in 0..3 {
            w[i * 3 + i] = Q88::ONE;
        }
        let exec = Executor::new(spec, vec![w]);
        let input = Tensor::from_flat(vec![
            Q88::from_f64(1.5),
            Q88::from_f64(-2.25),
            Q88::from_f64(0.125),
        ]);
        assert_eq!(exec.predict(&input), input);
    }

    #[test]
    fn avgpool_averages() {
        let spec =
            NetworkSpec::new(Shape::new(1, 2, 2), vec![LayerSpec::AvgPool { size: 2 }]).unwrap();
        let exec = Executor::new(spec, vec![vec![]]);
        let input = Tensor::from_vec(
            1,
            2,
            2,
            vec![
                Q88::from_f64(1.0),
                Q88::from_f64(2.0),
                Q88::from_f64(3.0),
                Q88::from_f64(6.0),
            ],
        );
        let out = exec.predict(&input);
        assert_eq!(out.at(0), Q88::from_f64(3.0));
    }

    #[test]
    fn conv_matches_hand_computation() {
        let spec = NetworkSpec::new(
            Shape::new(1, 3, 3),
            vec![LayerSpec::conv(1, 2, Activation::Identity)],
        )
        .unwrap();
        // Kernel [[1, 0.5], [0, -1]].
        let w = vec![
            Q88::from_f64(1.0),
            Q88::from_f64(0.5),
            Q88::from_f64(0.0),
            Q88::from_f64(-1.0),
        ];
        let exec = Executor::new(spec, vec![w]);
        let input = Tensor::from_vec(1, 3, 3, (1..=9).map(Q88::from_int).collect());
        let out = exec.predict(&input);
        // Window at (0,0): 1*1 + 2*0.5 + 4*0 + 5*(-1) = -3.
        assert_eq!(out.get(0, 0, 0), Q88::from_f64(-3.0));
        // Window at (1,1): 5*1 + 6*0.5 + 8*0 + 9*(-1) = -1.
        assert_eq!(out.get(0, 1, 1), Q88::from_f64(-1.0));
    }

    #[test]
    fn relu_clips_negative_preactivations() {
        let spec =
            NetworkSpec::new(Shape::flat(2), vec![LayerSpec::fc(1, Activation::ReLU)]).unwrap();
        let exec = Executor::new(spec, vec![vec![Q88::from_f64(-1.0), Q88::from_f64(-1.0)]]);
        let out = exec.predict(&Tensor::from_flat(vec![Q88::ONE, Q88::ONE]));
        assert_eq!(out.at(0), Q88::ZERO);
    }

    #[test]
    fn forward_detailed_keeps_preactivations() {
        let spec =
            NetworkSpec::new(Shape::flat(1), vec![LayerSpec::fc(1, Activation::Sigmoid)]).unwrap();
        let exec = Executor::new(spec, vec![vec![Q88::from_f64(2.0)]]);
        let d = exec.forward_detailed(&Tensor::from_flat(vec![Q88::ONE]));
        assert_eq!(d[0].0.at(0), Q88::from_f64(2.0)); // pre
        assert!(d[0].1.at(0) > Q88::from_f64(0.85)); // post = sigmoid(2)
    }

    #[test]
    fn multi_layer_pipeline_shapes() {
        let spec = NetworkSpec::new(
            Shape::new(1, 6, 6),
            vec![
                LayerSpec::conv(2, 3, Activation::ReLU),
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::fc(5, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let params = spec.init_params(3, 0.3);
        let exec = Executor::new(spec, params);
        let outs = exec.forward(&Tensor::zeros(1, 6, 6));
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].channels(), 2);
        assert_eq!(outs[1].height(), 2);
        assert_eq!(outs[2].len(), 5);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_param_counts_rejected() {
        let spec =
            NetworkSpec::new(Shape::flat(2), vec![LayerSpec::fc(1, Activation::Identity)]).unwrap();
        let _ = Executor::new(spec, vec![vec![Q88::ONE]]); // needs 2
    }

    #[test]
    fn accumulator_width_is_observable() {
        let spec =
            NetworkSpec::new(Shape::flat(2), vec![LayerSpec::fc(1, Activation::Identity)]).unwrap();
        let exec = Executor::with_accumulator(
            spec,
            vec![vec![Q88::ONE, Q88::ONE]],
            AccumulatorWidth::Narrow16,
        );
        assert_eq!(exec.accumulator(), AccumulatorWidth::Narrow16);
    }
}
