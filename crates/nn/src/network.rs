//! Whole-network description and parameter storage.

use crate::layer::{LayerSpec, Shape};
use neurocube_fixed::Q88;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// Errors produced when validating a [`NetworkSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkError {
    /// The network has no layers.
    Empty,
    /// A layer cannot be applied to its input volume.
    BadGeometry {
        /// Index of the offending layer.
        layer: usize,
        /// The input volume it was offered.
        input: Shape,
    },
    /// A conv/pool/add layer consumes a flat (1×1) volume, such as a
    /// fully connected layer's output; flat volumes are never
    /// re-spatialized (the graph rule of the same name).
    SpatialAfterFlat {
        /// Index of the offending layer.
        layer: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Empty => f.write_str("network has no layers"),
            NetworkError::BadGeometry { layer, input } => {
                write!(f, "layer {layer} does not fit its input volume {input}")
            }
            NetworkError::SpatialAfterFlat { layer } => {
                write!(f, "layer {layer}: conv/pool after a fully connected layer")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A full network: input volume plus an ordered list of layers.
///
/// # Examples
///
/// ```
/// use neurocube_nn::{NetworkSpec, LayerSpec, Shape};
/// use neurocube_fixed::Activation;
///
/// let net = NetworkSpec::new(
///     Shape::new(1, 8, 8),
///     vec![
///         LayerSpec::conv(4, 3, Activation::ReLU),
///         LayerSpec::AvgPool { size: 2 },
///         LayerSpec::fc(10, Activation::Sigmoid),
///     ],
/// )?;
/// assert_eq!(net.output_shape(), Shape::flat(10));
/// # Ok::<(), neurocube_nn::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkSpec {
    input: Shape,
    layers: Vec<LayerSpec>,
    /// Shapes of every volume: `shapes[0]` = input, `shapes[i+1]` = output
    /// of layer `i`.
    shapes: Vec<Shape>,
}

impl NetworkSpec {
    /// Validates layer geometry and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the layer list is empty, a spatial layer
    /// consumes a flat volume, or any layer does not fit the volume
    /// produced by its predecessor.
    pub fn new(input: Shape, layers: Vec<LayerSpec>) -> Result<NetworkSpec, NetworkError> {
        if layers.is_empty() {
            return Err(NetworkError::Empty);
        }
        let mut shapes = Vec::with_capacity(layers.len() + 1);
        shapes.push(input);
        for (i, layer) in layers.iter().enumerate() {
            let cur = *shapes.last().expect("shapes is non-empty");
            if !layer.weights_stream() && cur.height == 1 && cur.width == 1 {
                return Err(NetworkError::SpatialAfterFlat { layer: i });
            }
            let out = layer.output_shape(cur).ok_or(NetworkError::BadGeometry {
                layer: i,
                input: cur,
            })?;
            shapes.push(out);
        }
        Ok(NetworkSpec {
            input,
            layers,
            shapes,
        })
    }

    /// The input volume.
    pub fn input_shape(&self) -> Shape {
        self.input
    }

    /// The final output volume.
    pub fn output_shape(&self) -> Shape {
        *self.shapes.last().expect("validated non-empty")
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The trivial graph embedding of this linear chain (see
    /// [`GraphSpec::linear`](crate::GraphSpec::linear)): weight order is
    /// preserved, so `init_params` of the spec and of the graph are
    /// interchangeable. The cube compiles and runs a chain as exactly this
    /// graph.
    pub fn to_graph(&self) -> crate::GraphSpec {
        crate::GraphSpec::linear(self)
    }

    /// The input volume of layer `i`.
    pub fn layer_input(&self, i: usize) -> Shape {
        self.shapes[i]
    }

    /// The output volume of layer `i`.
    pub fn layer_output(&self, i: usize) -> Shape {
        self.shapes[i + 1]
    }

    /// All volumes: index 0 is the network input, index `i + 1` the output
    /// of layer `i`.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// MAC count per layer for one inference.
    pub fn macs_per_layer(&self) -> Vec<u64> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.macs(self.shapes[i]).expect("validated"))
            .collect()
    }

    /// Total arithmetic operations (2 per MAC) for one inference.
    pub fn total_ops(&self) -> u64 {
        self.macs_per_layer().iter().sum::<u64>() * 2
    }

    /// Stored weights per layer.
    pub fn weights_per_layer(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| l.weight_count(self.shapes[i]))
            .collect()
    }

    /// Random parameter initialization: uniform weights in `[-scale, scale]`
    /// quantized to `Q1.7.8`, deterministic in `seed`.
    pub fn init_params(&self, seed: u64, scale: f64) -> Vec<Vec<Q88>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        self.weights_per_layer()
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| Q88::from_f64(rng.random_range(-scale..=scale)))
                    .collect()
            })
            .collect()
    }
}

impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "input {}", self.input)?;
        for (i, layer) in self.layers.iter().enumerate() {
            writeln!(f, "L{}: {layer} -> {}", i + 1, self.shapes[i + 1])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;

    fn small_net() -> NetworkSpec {
        NetworkSpec::new(
            Shape::new(1, 8, 8),
            vec![
                LayerSpec::conv(4, 3, Activation::ReLU),
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::fc(10, Activation::Sigmoid),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shapes_chain() {
        let net = small_net();
        assert_eq!(net.shapes().len(), 4);
        assert_eq!(net.layer_input(0), Shape::new(1, 8, 8));
        assert_eq!(net.layer_output(0), Shape::new(4, 6, 6));
        assert_eq!(net.layer_output(1), Shape::new(4, 3, 3));
        assert_eq!(net.output_shape(), Shape::flat(10));
    }

    #[test]
    fn op_accounting() {
        let net = small_net();
        let macs = net.macs_per_layer();
        assert_eq!(macs[0], 4 * 36 * 9);
        assert_eq!(macs[1], 4 * 9 * 4);
        assert_eq!(macs[2], 10 * 36);
        assert_eq!(net.total_ops(), 2 * macs.iter().sum::<u64>());
    }

    #[test]
    fn weights_per_layer_counts() {
        let net = small_net();
        assert_eq!(net.weights_per_layer(), vec![4 * 9, 0, 360]);
    }

    #[test]
    fn init_is_deterministic_and_bounded() {
        let net = small_net();
        let a = net.init_params(7, 0.5);
        let b = net.init_params(7, 0.5);
        assert_eq!(a, b);
        let c = net.init_params(8, 0.5);
        assert_ne!(a, c);
        for w in a.iter().flatten() {
            assert!(w.to_f64().abs() <= 0.5);
        }
    }

    #[test]
    fn empty_network_rejected() {
        assert_eq!(
            NetworkSpec::new(Shape::new(1, 4, 4), vec![]).unwrap_err(),
            NetworkError::Empty
        );
    }

    #[test]
    fn bad_geometry_reports_layer() {
        let err = NetworkSpec::new(
            Shape::new(1, 4, 4),
            vec![
                LayerSpec::AvgPool { size: 2 },
                LayerSpec::conv(1, 5, Activation::ReLU), // 5x5 kernel on 2x2
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            NetworkError::BadGeometry {
                layer: 1,
                input: Shape::new(1, 2, 2)
            }
        );
        assert!(err.to_string().contains("layer 1"));
    }

    #[test]
    fn spatial_after_flat_is_a_typed_error() {
        let err = NetworkSpec::new(
            Shape::flat(64),
            vec![
                // A 1x1 conv is geometrically legal on the flat FC output,
                // but a flat volume is never re-spatialized.
                LayerSpec::fc(256, Activation::Tanh),
                LayerSpec::conv(2, 1, Activation::Tanh),
            ],
        )
        .unwrap_err();
        assert_eq!(err, NetworkError::SpatialAfterFlat { layer: 1 });
        assert_eq!(
            err.to_string(),
            "layer 1: conv/pool after a fully connected layer"
        );
    }
}
