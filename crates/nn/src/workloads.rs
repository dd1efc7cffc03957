//! The paper's evaluation workloads, plus procedural data generators.
//!
//! The original evaluation uses the Stanford-background scene-labeling
//! dataset \[9\] and MNIST \[10\]; neither ships with this reproduction, so the
//! generators here synthesize inputs with comparable statistics (smooth RGB
//! scenes, stroke-like digit patterns). Throughput depends only on layer
//! geometry, so the figures are unaffected; functional/training tests use
//! the synthetic data. Documented as a substitution in `DESIGN.md`.

use crate::graph::{GraphBuilder, GraphSpec, INPUT};
use crate::layer::{LayerSpec, Shape};
use crate::network::NetworkSpec;
use crate::tensor::Tensor;
use neurocube_fixed::{Activation, Q88};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Number of scene-labeling output classes (the Stanford background dataset
/// has 8 semantic classes).
pub(crate) const SCENE_CLASSES: usize = 8;

/// Hidden width of the scene-labeling classifier's first fully connected
/// layer (reconstructed; see `DESIGN.md` — the paper states the first FC
/// layer dominates operation count, which holds for 256; 256 outputs also
/// give every PE a full 16-neuron MAC group, matching the paper's
/// near-constant per-layer throughput in Fig. 12(c)).
pub(crate) const SCENE_HIDDEN: usize = 256;

/// The paper's 7-layer scene-labeling ConvNN (Fig. 9) for an arbitrary
/// input resolution: conv7×7/16 → pool2 → conv7×7/64 → pool2 → conv7×7/256
/// → fc/128 → fc/8.
///
/// # Errors
///
/// Returns [`NetworkError`](crate::NetworkError) if the input is too small
/// for the three 7×7 convolution/pooling stages (minimum ≈ 46×46).
pub fn scene_labeling(height: usize, width: usize) -> Result<NetworkSpec, crate::NetworkError> {
    NetworkSpec::new(
        Shape::new(3, height, width),
        vec![
            LayerSpec::conv(16, 7, Activation::Tanh),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::conv(64, 7, Activation::Tanh),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::conv(256, 7, Activation::Tanh),
            LayerSpec::fc(SCENE_HIDDEN, Activation::Tanh),
            LayerSpec::fc(SCENE_CLASSES, Activation::Sigmoid),
        ],
    )
}

/// The inference evaluation point: 320×240 RGB (Fig. 9, §VI).
pub fn scene_labeling_paper() -> NetworkSpec {
    scene_labeling(240, 320).expect("paper geometry is valid")
}

/// The training evaluation point: 64×64 input (§VI-2, Fig. 13).
pub fn scene_labeling_training() -> NetworkSpec {
    scene_labeling(64, 64).expect("training geometry is valid")
}

/// An MNIST-style multi-layer perceptron: 28×28 input, one hidden layer,
/// 10 classes (the MLP workload of Fig. 1 / Table III's DaDianNao row uses
/// 784 input neurons).
pub fn mnist_mlp(hidden: usize) -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, 28, 28),
        vec![
            LayerSpec::fc(hidden, Activation::Sigmoid),
            LayerSpec::fc(10, Activation::Sigmoid),
        ],
    )
    .expect("MLP geometry is valid")
}

/// A tiny ConvNN for unit/integration tests (seconds, not minutes, at cycle
/// level): conv3×3/4 → pool2 → fc/6 → fc/3 on a 1×12×12 input.
pub fn tiny_convnet() -> NetworkSpec {
    NetworkSpec::new(
        Shape::new(1, 12, 12),
        vec![
            LayerSpec::conv(4, 3, Activation::Tanh),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::fc(6, Activation::Tanh),
            LayerSpec::fc(3, Activation::Sigmoid),
        ],
    )
    .expect("tiny geometry is valid")
}

/// A ResNet-style residual toy graph on a 1×12×12 input: a 3×3 conv stem,
/// a 1×1 conv branch on the stem, their element-wise sum, a 2×2 pool and
/// a fully connected head. Small enough for cycle-level tests, but it
/// exercises every graph feature the compiler pipelines: a branch, a
/// residual `Add` over an aliased channel-stacked buffer, and a spatial
/// consumer of the sum.
pub fn residual_toy() -> GraphSpec {
    let mut g = GraphBuilder::new(Shape::new(1, 12, 12));
    g.layer("stem", INPUT, LayerSpec::conv(4, 3, Activation::Tanh));
    g.layer(
        "branch",
        "stem",
        LayerSpec::conv(4, 1, Activation::Identity),
    );
    g.add("res", &["stem", "branch"], Activation::ReLU);
    g.layer("pool", "res", LayerSpec::AvgPool { size: 2 });
    g.layer("head", "pool", LayerSpec::fc(6, Activation::Sigmoid));
    g.build().expect("residual toy graph is valid")
}

/// An Inception-style concatenation toy graph on a 1×12×12 input: two
/// parallel 3×3 convolutions over the input, channel-concatenated (pure
/// aliasing, no cycles) and classified by a fully connected head.
pub fn concat_toy() -> GraphSpec {
    let mut g = GraphBuilder::new(Shape::new(1, 12, 12));
    g.layer("left", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
    g.layer("right", INPUT, LayerSpec::conv(3, 3, Activation::Sigmoid));
    g.concat("cat", &["left", "right"]);
    g.layer("head", "cat", LayerSpec::fc(8, Activation::Sigmoid));
    g.build().expect("concat toy graph is valid")
}

/// A cellular-neural-network-style workload (§VI: "programming a locally
/// connected layer like Cellular Neural Network is similar to programming
/// the 2D convolutional layer"): `iterations` identical locally connected
/// (3×3 conv) stages over one feature plane, unrolled the way the host
/// would program successive CNN time steps.
///
/// # Errors
///
/// Returns an error if the plane is too small for the unrolled stages
/// (each valid 3×3 stage shrinks the plane by 2).
pub fn cellular(
    height: usize,
    width: usize,
    iterations: usize,
) -> Result<NetworkSpec, crate::NetworkError> {
    let layers = (0..iterations.max(1))
        .map(|_| LayerSpec::conv(1, 3, Activation::Tanh))
        .collect();
    NetworkSpec::new(Shape::new(1, height, width), layers)
}

/// Generates a smooth synthetic RGB "scene": per-channel low-frequency
/// gradients plus bounded noise, values in `[-1, 1]`. Deterministic in
/// `seed`.
pub fn synthetic_scene(seed: u64, height: usize, width: usize) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = Tensor::zeros(3, height, width);
    for c in 0..3 {
        // Random plane gradient per channel.
        let gx: f64 = rng.random_range(-1.0..1.0);
        let gy: f64 = rng.random_range(-1.0..1.0);
        let bias: f64 = rng.random_range(-0.25..0.25);
        for y in 0..height {
            for x in 0..width {
                let v = bias
                    + gx * (x as f64 / width as f64 - 0.5)
                    + gy * (y as f64 / height as f64 - 0.5)
                    + rng.random_range(-0.1..0.1);
                t.set(c, y, x, Q88::from_f64(v.clamp(-1.0, 1.0)));
            }
        }
    }
    t
}

/// Generates a 28×28 "digit": a class-dependent arrangement of strokes so
/// that each class is visually distinct and linearly separable enough for a
/// small MLP to learn. Returns the image; the label is the `class` argument.
///
/// # Panics
///
/// Panics if `class >= 10`.
pub fn synthetic_digit(seed: u64, class: usize) -> Tensor {
    assert!(class < 10, "digit class must be 0..10");
    let mut rng = SmallRng::seed_from_u64(seed ^ (class as u64).wrapping_mul(0x9E37_79B9));
    let mut t = Tensor::zeros(1, 28, 28);
    // Class determines stroke geometry: a horizontal band, a vertical band
    // and a diagonal, with positions derived from the class index.
    let row = 3 + (class * 5) % 22;
    let col = 3 + (class * 7) % 22;
    let jitter = |rng: &mut SmallRng| rng.random_range(-1i64..=1);
    for i in 0..28i64 {
        let r = (row as i64 + jitter(&mut rng)).clamp(0, 27) as usize;
        let c = (col as i64 + jitter(&mut rng)).clamp(0, 27) as usize;
        t.set(0, r, i as usize, Q88::ONE);
        t.set(0, i as usize, c, Q88::ONE);
        if class % 2 == 1 {
            let d = ((i + class as i64) % 28) as usize;
            t.set(0, d, d, Q88::from_f64(0.75));
        }
    }
    // Sprinkle noise.
    for _ in 0..30 {
        let y: usize = rng.random_range(0..28);
        let x: usize = rng.random_range(0..28);
        t.set(0, y, x, Q88::from_f64(rng.random_range(0.0..0.5)));
    }
    t
}

/// An *irregularly connected* layer, per §V-A-2: "a fully-connected model
/// can be used to represent irregular connections between neurons by
/// storing a synapse weight of '0' for missing connections." Generates a
/// random adjacency with the given `density` and returns the network, its
/// dense weights (zeros on missing edges) and the adjacency list (for
/// reference checking).
///
/// # Panics
///
/// Panics if `density` is outside `(0, 1]` or a dimension is zero.
pub fn irregular_fc(
    inputs: usize,
    outputs: usize,
    density: f64,
    seed: u64,
) -> (NetworkSpec, Vec<Vec<Q88>>, Vec<Vec<usize>>) {
    assert!(inputs > 0 && outputs > 0, "dimensions must be nonzero");
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = NetworkSpec::new(
        Shape::flat(inputs),
        vec![LayerSpec::fc(outputs, Activation::Identity)],
    )
    .expect("FC geometry is valid");
    let mut weights = vec![Q88::ZERO; outputs * inputs];
    let mut adjacency = vec![Vec::new(); outputs];
    for (o, adj) in adjacency.iter_mut().enumerate() {
        for i in 0..inputs {
            if rng.random_range(0.0..1.0) < density {
                weights[o * inputs + i] = Q88::from_f64(rng.random_range(-0.5..0.5));
                adj.push(i);
            }
        }
        // Guarantee at least one connection so no neuron is isolated.
        if adj.is_empty() {
            let i = rng.random_range(0..inputs);
            weights[o * inputs + i] = Q88::from_f64(0.25);
            adj.push(i);
        }
    }
    (net, vec![weights], adjacency)
}

/// One-hot target vector for `class` out of `n` classes.
pub fn one_hot(class: usize, n: usize) -> Tensor {
    let mut v = vec![Q88::ZERO; n];
    v[class] = Q88::ONE;
    Tensor::from_flat(v)
}

/// A labelled synthetic digit dataset: `per_class` examples of each of the
/// ten classes, as `(image, one-hot target)` pairs. Deterministic in `seed`.
pub fn digit_dataset(seed: u64, per_class: usize) -> Vec<(Tensor, Tensor)> {
    let mut data = Vec::with_capacity(per_class * 10);
    for class in 0..10 {
        for i in 0..per_class {
            data.push((
                synthetic_digit(seed.wrapping_add(i as u64 * 131), class),
                one_hot(class, 10),
            ));
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_shapes_match_fig9() {
        let net = scene_labeling_paper();
        let shapes = net.shapes();
        assert_eq!(shapes[0], Shape::new(3, 240, 320));
        assert_eq!(shapes[1], Shape::new(16, 234, 314)); // 73,476 per map
        assert_eq!(shapes[2], Shape::new(16, 117, 157));
        assert_eq!(shapes[3], Shape::new(64, 111, 151));
        assert_eq!(shapes[4], Shape::new(64, 55, 75));
        assert_eq!(shapes[5], Shape::new(256, 49, 69));
        assert_eq!(shapes[6], Shape::flat(SCENE_HIDDEN));
        assert_eq!(shapes[7], Shape::flat(SCENE_CLASSES));
    }

    #[test]
    fn first_fc_dominates_op_count() {
        // §VI-1: "The three convolutional layers and the first fully
        // connected layer dominates the number of operations."
        let net = scene_labeling_paper();
        let macs = net.macs_per_layer();
        let fc1 = macs[5];
        for (i, &m) in macs.iter().enumerate() {
            if i != 5 {
                assert!(fc1 >= m, "layer {i} has {m} MACs > first FC's {fc1}");
            }
        }
    }

    #[test]
    fn training_network_fits_64x64() {
        let net = scene_labeling_training();
        assert_eq!(net.shapes()[5], Shape::new(256, 5, 5));
        assert_eq!(net.output_shape(), Shape::flat(SCENE_CLASSES));
    }

    #[test]
    fn mnist_mlp_has_784_inputs() {
        let net = mnist_mlp(100);
        assert_eq!(net.input_shape().len(), 784);
        assert_eq!(net.weights_per_layer(), vec![784 * 100, 1000]);
    }

    #[test]
    fn scene_generator_is_deterministic_and_bounded() {
        let a = synthetic_scene(3, 16, 16);
        let b = synthetic_scene(3, 16, 16);
        assert_eq!(a, b);
        assert_ne!(a, synthetic_scene(4, 16, 16));
        for &v in a.as_slice() {
            assert!(v.to_f64().abs() <= 1.0);
        }
    }

    #[test]
    fn digits_differ_by_class() {
        let d0 = synthetic_digit(1, 0);
        let d1 = synthetic_digit(1, 1);
        assert_ne!(d0, d1);
        assert_eq!(synthetic_digit(1, 3), synthetic_digit(1, 3));
    }

    #[test]
    fn dataset_is_labelled_one_hot() {
        let data = digit_dataset(9, 2);
        assert_eq!(data.len(), 20);
        for (i, (_, target)) in data.iter().enumerate() {
            assert_eq!(target.len(), 10);
            assert_eq!(target.argmax(), i / 2);
        }
    }

    #[test]
    #[should_panic(expected = "class must be")]
    fn digit_class_bounds() {
        let _ = synthetic_digit(0, 10);
    }

    #[test]
    fn irregular_fc_matches_sparse_reference() {
        use crate::exec::Executor;
        let (net, params, adjacency) = irregular_fc(24, 10, 0.3, 9);
        let exec = Executor::new(net, params.clone());
        let input = Tensor::from_flat(
            (0..24)
                .map(|i| Q88::from_f64(i as f64 / 16.0 - 0.7))
                .collect(),
        );
        let dense = exec.predict(&input);
        // Sparse reference: accumulate only the existing edges, in edge
        // order (zero-weight products cannot change the accumulator, so
        // the dense FC is exactly the sparse sum).
        for (o, adj) in adjacency.iter().enumerate() {
            let mut mac = neurocube_fixed::MacUnit::new(Default::default());
            for &i in adj {
                mac.accumulate(params[0][o * 24 + i], input.at(i));
            }
            assert_eq!(dense.at(o), mac.result(), "neuron {o}");
        }
    }

    #[test]
    fn irregular_fc_has_requested_density() {
        let (_, params, adjacency) = irregular_fc(50, 20, 0.2, 4);
        let edges: usize = adjacency.iter().map(Vec::len).sum();
        let nonzero = params[0].iter().filter(|w| !w.is_zero()).count();
        assert!(nonzero <= edges, "every nonzero weight is an edge");
        let density = edges as f64 / 1000.0;
        assert!((0.1..0.35).contains(&density), "density {density}");
    }

    #[test]
    fn cellular_unrolls_conv_stages() {
        let net = cellular(16, 16, 3).unwrap();
        assert_eq!(net.depth(), 3);
        assert_eq!(net.output_shape(), Shape::new(1, 10, 10));
        assert!(cellular(4, 4, 3).is_err());
    }
}
