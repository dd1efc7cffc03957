//! The f64 functional reference model and its per-layer error envelope.
//!
//! # Error-envelope derivation
//!
//! Let `ε_i` bound `|sim_i(n) − gold_i(n)|` over every neuron `n` of layer
//! `i`'s post-activation output, where `sim` is the `Q1.7.8` simulator and
//! `gold` this model. The golden model consumes the *exact* real values of
//! the quantized weights and inputs, so there is no weight or input
//! quantization term — only the datapath's own error sources remain:
//!
//! 1. **Products are exact.** A `Q1.7.8 × Q1.7.8` product fits `Q2.14.16`
//!    (`i16 × i16` in `i32`) with no rounding; the wide accumulator adds
//!    them exactly. Both sides clamp the running sum to the 32-bit register
//!    range, and clamping is non-expansive, so no new error appears here.
//! 2. **Input error amplification.** Layer `i` multiplies its input error
//!    by at most `W1_i = max_n Σ_k |w_nk|` (the maximum absolute row sum of
//!    its weights).
//! 3. **Renormalization truncates.** `acc >> 8` floors at `Q1.7.8`, adding
//!    less than one LSB (`1/256`), and final saturation is non-expansive.
//! 4. **Activations.** Identity and ReLU are exact in hardware (mux /
//!    comparator paths) and 1-Lipschitz. Sigmoid (Lipschitz `1/4`) and tanh
//!    (Lipschitz `1`) go through the PNG LUT, whose worst-case deviation
//!    from the ideal curve is measured exhaustively by
//!    [`ActivationLut::max_error`], plus one LSB for output quantization.
//!
//! Together: `ε_i = L_i · (W1_i · ε_{i−1} + 1/256) + lut_i`, with `ε_{-1} =
//! 0`. The envelope is *derived*, not tuned — a simulator output outside it
//! is a real bug.

use neurocube_fixed::{Activation, ActivationLut, Q88};
use neurocube_nn::{connections, GraphOp, GraphSource, GraphSpec, LayerSpec, Shape, Tensor};
use std::fmt;

/// One `Q1.7.8` least significant bit.
const LSB: f64 = 1.0 / 256.0;

/// The wide MAC accumulator's representable range (`i32` at `Q2.14.16`).
const ACC_MAX: f64 = i32::MAX as f64 / 65536.0;
const ACC_MIN: f64 = i32::MIN as f64 / 65536.0;

/// Evaluates one layer on an f64 input volume with ideal arithmetic
/// (only the hardware's non-expansive clamps mirrored), returning
/// `(pre_activation, post_activation)` — the kernel of every
/// [`GoldenGraph`] node.
///
/// # Panics
///
/// Panics if `input` does not match `in_shape` or the layer does not fit
/// its input volume.
pub fn eval_layer(
    layer: &LayerSpec,
    in_shape: Shape,
    params: &[Q88],
    input: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(input.len(), in_shape.len(), "layer input length");
    let out_len = layer
        .output_shape(in_shape)
        .expect("layer fits its input volume")
        .len();
    let n_conn = layer.connections_per_neuron(in_shape);
    let act = layer.activation();
    let q_min = Q88::MIN.to_f64();
    let q_max = Q88::MAX.to_f64();

    let mut pre = Vec::with_capacity(out_len);
    let mut post = Vec::with_capacity(out_len);
    for neuron in 0..out_len {
        let mut acc = 0.0f64;
        for k in 0..n_conn {
            let conn = connections::resolve(layer, in_shape, neuron, k);
            let w = connections::weight_value(conn, params).to_f64();
            // Mirror the wide register's clamp after every addition —
            // non-expansive, so it cannot grow the envelope.
            acc = (acc + w * input[conn.input_index]).clamp(ACC_MIN, ACC_MAX);
        }
        let y = acc.clamp(q_min, q_max);
        pre.push(y);
        post.push(act.ideal(y));
    }
    (pre, post)
}

/// The maximum absolute weight row sum `W1 = max_n Σ_k |w_nk|` of one
/// layer — its worst-case error amplification factor.
pub fn layer_row_sum_max(layer: &LayerSpec, in_shape: Shape, params: &[Q88]) -> f64 {
    let out_len = layer
        .output_shape(in_shape)
        .expect("layer fits its input volume")
        .len();
    let n_conn = layer.connections_per_neuron(in_shape);
    let mut worst = 0.0f64;
    for neuron in 0..out_len {
        let mut sum = 0.0;
        for k in 0..n_conn {
            let conn = connections::resolve(layer, in_shape, neuron, k);
            sum += connections::weight_value(conn, params).to_f64().abs();
        }
        worst = worst.max(sum);
    }
    worst
}

/// One step of the envelope recurrence `ε = L · (W1 · ε_in + LSB) + lut`
/// (see the module docs).
fn envelope_step(
    layer: &LayerSpec,
    in_shape: Shape,
    params: &[Q88],
    eps_in: f64,
    lut_cache: &mut [Option<f64>; 2],
) -> f64 {
    let pre_err = layer_row_sum_max(layer, in_shape, params) * eps_in + LSB;
    let act = layer.activation();
    let (lipschitz, act_err) = match act {
        // Exact mux/comparator paths, both 1-Lipschitz.
        Activation::Identity | Activation::ReLU => (1.0, 0.0),
        Activation::Sigmoid => (0.25, lut_error(lut_cache, act)),
        Activation::Tanh => (1.0, lut_error(lut_cache, act)),
    };
    lipschitz * pre_err + act_err
}

/// A simulator output that escaped the derived error envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Layer whose output diverged.
    pub layer: usize,
    /// Flat neuron index within the layer output.
    pub neuron: usize,
    /// The fixed-point simulator's value.
    pub simulated: f64,
    /// The golden model's value.
    pub golden: f64,
    /// The derived envelope the difference had to stay inside.
    pub bound: f64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer {} neuron {}: |sim {} - golden {}| = {} exceeds envelope {}",
            self.layer,
            self.neuron,
            self.simulated,
            self.golden,
            (self.simulated - self.golden).abs(),
            self.bound
        )
    }
}

impl std::error::Error for Divergence {}

/// The f64 functional reference of a quantized layer DAG — a linear
/// network's via [`NetworkSpec::to_graph`](neurocube_nn::NetworkSpec::to_graph).
///
/// Built from the exact same graph and `Q1.7.8` parameters the simulator
/// loads; all execution is ideal double precision with only the
/// hardware's *saturation* behaviour (non-expansive, so it preserves the
/// envelope) mirrored. Every node consumes the channel concatenation of
/// its sources (`Concat` nodes copy; `Layer` nodes run [`eval_layer`]),
/// and the error-envelope recurrence composes along the DAG — a node's
/// input error is the worst of its sources' envelopes, since
/// concatenation mixes but never amplifies error.
#[derive(Clone, Debug)]
pub struct GoldenGraph {
    graph: GraphSpec,
    params: Vec<Vec<Q88>>,
}

impl GoldenGraph {
    /// Wraps a graph and its quantized per-node parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the graph's per-node weight
    /// counts.
    pub fn from_quantized(graph: GraphSpec, params: Vec<Vec<Q88>>) -> GoldenGraph {
        let counts = graph.weights_per_node();
        assert_eq!(params.len(), counts.len(), "one weight array per node");
        for (i, (p, &n)) in params.iter().zip(&counts).enumerate() {
            assert_eq!(p.len(), n, "node {i} expects {n} weights");
        }
        GoldenGraph { graph, params }
    }

    /// The graph description.
    pub fn graph(&self) -> &GraphSpec {
        &self.graph
    }

    /// The effective (channel-concatenated) input vector of node `i`.
    fn node_input(&self, i: usize, input_f: &[f64], outputs: &[Vec<f64>]) -> Vec<f64> {
        let mut cat = Vec::with_capacity(self.graph.node_input_shape(i).len());
        for src in self.graph.node_sources(i) {
            match src {
                GraphSource::Input => cat.extend_from_slice(input_f),
                GraphSource::Node(j) => cat.extend_from_slice(&outputs[*j]),
            }
        }
        cat
    }

    /// Runs the whole graph on a `Q1.7.8` input tensor; returns every
    /// node's output volume in f64, in topological order.
    pub fn forward(&self, input: &Tensor) -> Vec<Vec<f64>> {
        let input_f: Vec<f64> = input.as_slice().iter().map(|q| q.to_f64()).collect();
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(self.graph.depth());
        for i in 0..self.graph.depth() {
            let cat = self.node_input(i, &input_f, &outputs);
            let out = match self.graph.nodes()[i].op {
                GraphOp::Layer(layer) => {
                    eval_layer(
                        &layer,
                        self.graph.node_input_shape(i),
                        &self.params[i],
                        &cat,
                    )
                    .1
                }
                // Concatenation is pure data placement: exact.
                GraphOp::Concat => cat,
            };
            outputs.push(out);
        }
        outputs
    }

    /// The derived per-node error envelope, composed along the DAG:
    /// `envelope()[i]` bounds the absolute difference between the
    /// simulator's node-`i` output and this model's. A node's input error
    /// is the maximum of its sources' envelopes (the graph input carries
    /// none); `Concat` nodes pass it through unchanged.
    pub fn envelope(&self) -> Vec<f64> {
        let mut lut_cache: [Option<f64>; 2] = [None, None];
        let mut env: Vec<f64> = Vec::with_capacity(self.graph.depth());
        for i in 0..self.graph.depth() {
            let eps_in = self
                .graph
                .node_sources(i)
                .iter()
                .map(|src| match src {
                    GraphSource::Input => 0.0,
                    GraphSource::Node(j) => env[*j],
                })
                .fold(0.0f64, f64::max);
            let eps = match self.graph.nodes()[i].op {
                GraphOp::Layer(layer) => envelope_step(
                    &layer,
                    self.graph.node_input_shape(i),
                    &self.params[i],
                    eps_in,
                    &mut lut_cache,
                ),
                GraphOp::Concat => eps_in,
            };
            env.push(eps);
        }
        env
    }

    /// Checks a full set of simulator node outputs against the golden
    /// model and the derived envelope — `outputs[i]` must be node `i`'s
    /// output volume (what
    /// [`run_graph_replay_collect`](neurocube::Neurocube::run_graph_replay_collect)
    /// returns).
    ///
    /// # Errors
    ///
    /// Returns the first [`Divergence`] found, scanning nodes in
    /// topological order (`Divergence::layer` is the node index).
    ///
    /// # Panics
    ///
    /// Panics if `outputs` has the wrong node count or lengths.
    pub fn check(&self, input: &Tensor, outputs: &[Tensor]) -> Result<(), Divergence> {
        assert_eq!(outputs.len(), self.graph.depth(), "one tensor per node");
        let golden = self.forward(input);
        let envelope = self.envelope();
        for (i, (sim, gold)) in outputs.iter().zip(&golden).enumerate() {
            assert_eq!(sim.len(), gold.len(), "node {i} output length");
            check_node(sim, gold, envelope[i], i)?;
        }
        Ok(())
    }

    /// Checks only the graph's *final* output (the last node in
    /// topological order — what
    /// [`run_inference`](neurocube::Neurocube::run_inference)
    /// returns) against the golden model and that node's derived
    /// envelope — the per-dispatch check of the two-speed serving audits,
    /// whose replays return one output tensor per inference.
    ///
    /// # Errors
    ///
    /// Returns the first [`Divergence`] found (`Divergence::layer` is the
    /// output node's index).
    ///
    /// # Panics
    ///
    /// Panics if `output` does not match the output node's length.
    pub fn check_output(&self, input: &Tensor, output: &Tensor) -> Result<(), Divergence> {
        let golden = self.forward(input);
        let last = self.graph.depth() - 1;
        let gold = &golden[last];
        assert_eq!(output.len(), gold.len(), "final output length");
        check_node(output, gold, self.envelope()[last], last)
    }
}

/// Compares one node's simulated output with the golden values under the
/// node's derived `envelope`.
fn check_node(sim: &Tensor, gold: &[f64], envelope: f64, layer: usize) -> Result<(), Divergence> {
    // A hair of float headroom on top of the analytical bound: the
    // envelope arithmetic itself runs in f64.
    let bound = envelope + 1e-9;
    for (n, (&s, &g)) in sim.as_slice().iter().zip(gold).enumerate() {
        let s = s.to_f64();
        if (s - g).abs() > bound {
            return Err(Divergence {
                layer,
                neuron: n,
                simulated: s,
                golden: g,
                bound,
            });
        }
    }
    Ok(())
}

/// LUT quantization error for a tabulated activation, including one output
/// LSB for the final `Q1.7.8` rounding, memoized per activation kind.
fn lut_error(cache: &mut [Option<f64>; 2], act: Activation) -> f64 {
    let slot = match act {
        Activation::Sigmoid => 0,
        Activation::Tanh => 1,
        _ => unreachable!("only tabulated activations have LUT error"),
    };
    *cache[slot].get_or_insert_with(|| ActivationLut::new(act).max_error() + LSB)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;
    use neurocube_nn::{Executor, LayerSpec, NetworkSpec, Shape};

    fn ramp(shape: Shape) -> Tensor {
        let data = (0..shape.len())
            .map(|i| Q88::from_f64(((i * 37) % 128) as f64 / 64.0 - 1.0))
            .collect();
        Tensor::from_vec(shape.channels, shape.height, shape.width, data)
    }

    fn check_net(net: NetworkSpec, seed: u64, scale: f64) {
        let params = net.init_params(seed, scale);
        let input = ramp(net.input_shape());
        let exec = Executor::new(net.clone(), params.clone());
        let outputs = exec.forward(&input);
        let golden = GoldenGraph::from_quantized(net.to_graph(), params);
        if let Err(d) = golden.check(&input, &outputs) {
            panic!("executor escaped the envelope: {d}");
        }
    }

    #[test]
    fn executor_within_envelope_convnet() {
        check_net(
            NetworkSpec::new(
                Shape::new(1, 10, 10),
                vec![
                    LayerSpec::conv(3, 3, Activation::Tanh),
                    LayerSpec::AvgPool { size: 2 },
                    LayerSpec::fc(6, Activation::Sigmoid),
                ],
            )
            .unwrap(),
            11,
            0.3,
        );
    }

    #[test]
    fn executor_within_envelope_deep_fc() {
        check_net(
            NetworkSpec::new(
                Shape::flat(24),
                vec![
                    LayerSpec::fc(24, Activation::ReLU),
                    LayerSpec::fc(16, Activation::Tanh),
                    LayerSpec::fc(8, Activation::Identity),
                ],
            )
            .unwrap(),
            5,
            0.4,
        );
    }

    #[test]
    fn executor_within_envelope_under_saturation() {
        // Large weights drive the accumulator and output saturation paths;
        // the envelope grows but must still contain the simulator.
        check_net(
            NetworkSpec::new(
                Shape::flat(32),
                vec![LayerSpec::fc(4, Activation::Identity)],
            )
            .unwrap(),
            3,
            60.0,
        );
    }

    #[test]
    fn identity_diagonal_is_exact() {
        let net =
            NetworkSpec::new(Shape::flat(3), vec![LayerSpec::fc(3, Activation::Identity)]).unwrap();
        let mut w = vec![Q88::ZERO; 9];
        for i in 0..3 {
            w[i * 3 + i] = Q88::ONE;
        }
        let golden = GoldenGraph::from_quantized(net.to_graph(), vec![w]);
        let input = Tensor::from_flat(vec![
            Q88::from_f64(1.5),
            Q88::from_f64(-2.25),
            Q88::from_f64(0.125),
        ]);
        let out = golden.forward(&input);
        assert_eq!(out[0], vec![1.5, -2.25, 0.125]);
    }

    #[test]
    fn envelope_grows_with_depth() {
        let net = NetworkSpec::new(
            Shape::flat(8),
            vec![
                LayerSpec::fc(8, Activation::Identity),
                LayerSpec::fc(8, Activation::Identity),
                LayerSpec::fc(8, Activation::Identity),
            ],
        )
        .unwrap();
        let params = net.init_params(2, 0.5);
        let golden = GoldenGraph::from_quantized(net.to_graph(), params);
        let env = golden.envelope();
        assert!(env[0] >= 1.0 / 256.0, "first layer at least one LSB");
        assert!(
            env.windows(2).all(|w| w[1] >= w[0] * 0.2),
            "envelope must not collapse: {env:?}"
        );
    }

    #[test]
    fn divergence_detected_when_outputs_corrupted() {
        let net =
            NetworkSpec::new(Shape::flat(4), vec![LayerSpec::fc(2, Activation::Identity)]).unwrap();
        let params = net.init_params(9, 0.25);
        let input = ramp(net.input_shape());
        let exec = Executor::new(net.clone(), params.clone());
        let mut outputs = exec.forward(&input);
        let bad = outputs[0].at(0).saturating_add(Q88::from_f64(1.0));
        outputs[0].set_at(0, bad);
        let golden = GoldenGraph::from_quantized(net.to_graph(), params);
        let err = golden.check(&input, &outputs).unwrap_err();
        assert_eq!(err.layer, 0);
        assert_eq!(err.neuron, 0);
        assert!(err.to_string().contains("exceeds envelope"));
    }

    #[test]
    fn residual_add_sums_its_branches_exactly() {
        use neurocube_nn::{GraphBuilder, INPUT};
        let mut b = GraphBuilder::new(Shape::new(1, 6, 6));
        b.layer("stem", INPUT, LayerSpec::conv(2, 3, Activation::Identity));
        b.layer(
            "branch",
            "stem",
            LayerSpec::conv(2, 1, Activation::Identity),
        );
        b.add("res", &["stem", "branch"], Activation::Identity);
        let graph = b.build().unwrap();
        let params = graph.init_params(7, 0.1);
        let golden = GoldenGraph::from_quantized(graph.clone(), params);
        let input = ramp(graph.input_shape());
        let outs = golden.forward(&input);
        let (stem, branch, res) = (&outs[0], &outs[1], &outs[2]);
        for i in 0..res.len() {
            assert!(
                (res[i] - (stem[i] + branch[i])).abs() < 1e-12,
                "residual sum must be exact at {i}"
            );
        }
    }

    #[test]
    fn concat_envelope_is_the_worst_part_and_check_flags_corruption() {
        use neurocube_nn::{GraphBuilder, INPUT};
        let mut b = GraphBuilder::new(Shape::new(1, 8, 8));
        b.layer("left", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        b.layer("right", INPUT, LayerSpec::conv(1, 3, Activation::Sigmoid));
        b.concat("cat", &["left", "right"]);
        b.layer("head", "cat", LayerSpec::fc(4, Activation::Identity));
        let graph = b.build().unwrap();
        let params = graph.init_params(3, 0.3);
        let golden = GoldenGraph::from_quantized(graph.clone(), params);
        let env = golden.envelope();
        assert_eq!(env[2], env[0].max(env[1]), "concat passes error through");

        let input = ramp(graph.input_shape());
        let outs = golden.forward(&input);
        // Quantize the golden outputs: they are inside the envelope by
        // construction (one LSB of rounding ≤ every node's bound).
        let mut sims: Vec<Tensor> = (0..graph.depth())
            .map(|i| {
                let s = graph.node_output_shape(i);
                Tensor::from_vec(
                    s.channels,
                    s.height,
                    s.width,
                    outs[i].iter().map(|&v| Q88::from_f64(v)).collect(),
                )
            })
            .collect();
        golden
            .check(&input, &sims)
            .expect("quantized golden passes");
        let bad = sims[3].at(0).saturating_add(Q88::from_f64(2.0));
        sims[3].set_at(0, bad);
        let err = golden.check(&input, &sims).unwrap_err();
        assert_eq!(err.layer, 3, "corruption localized to the head node");
    }

    #[test]
    fn check_output_accepts_the_executor_and_flags_corruption() {
        let net = NetworkSpec::new(
            Shape::new(1, 10, 10),
            vec![
                LayerSpec::conv(2, 3, Activation::Tanh),
                LayerSpec::fc(5, Activation::Sigmoid),
            ],
        )
        .unwrap();
        let params = net.init_params(13, 0.3);
        let input = ramp(net.input_shape());
        let exec = Executor::new(net.clone(), params.clone());
        let outputs = exec.forward(&input);
        let final_out = outputs.last().unwrap().clone();
        let golden = GoldenGraph::from_quantized(net.to_graph(), params);
        golden
            .check_output(&input, &final_out)
            .expect("executor final output inside envelope");
        // Agreement with the full check on the same data.
        golden.check(&input, &outputs).expect("full check agrees");
        let mut bad = final_out;
        let v = bad.at(0).saturating_add(Q88::from_f64(1.5));
        bad.set_at(0, v);
        let err = golden.check_output(&input, &bad).unwrap_err();
        assert_eq!(err.layer, 1, "final layer index");
        assert_eq!(err.neuron, 0);
    }

    #[test]
    fn graph_check_output_checks_the_output_node_only() {
        use neurocube_nn::{GraphBuilder, INPUT};
        let mut b = GraphBuilder::new(Shape::new(1, 8, 8));
        b.layer("stem", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        b.layer("head", "stem", LayerSpec::fc(4, Activation::Identity));
        let graph = b.build().unwrap();
        let params = graph.init_params(3, 0.3);
        let golden = GoldenGraph::from_quantized(graph.clone(), params);
        let input = ramp(graph.input_shape());
        let outs = golden.forward(&input);
        let last = graph.depth() - 1;
        let s = graph.node_output_shape(last);
        let quantized = Tensor::from_vec(
            s.channels,
            s.height,
            s.width,
            outs[last].iter().map(|&v| Q88::from_f64(v)).collect(),
        );
        golden
            .check_output(&input, &quantized)
            .expect("quantized golden output passes");
        let mut bad = quantized;
        let v = bad.at(0).saturating_add(Q88::from_f64(2.0));
        bad.set_at(0, v);
        let err = golden.check_output(&input, &bad).unwrap_err();
        assert_eq!(err.layer, last, "output node index");
    }
}
