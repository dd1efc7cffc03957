//! Layer descriptions and shape arithmetic.

use neurocube_fixed::Activation;
use std::fmt;

/// The shape of one layer's neuron volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Feature maps.
    pub channels: usize,
    /// Rows.
    pub height: usize,
    /// Columns.
    pub width: usize,
}

impl Shape {
    /// A `(c, h, w)` shape.
    pub const fn new(channels: usize, height: usize, width: usize) -> Shape {
        Shape {
            channels,
            height,
            width,
        }
    }

    /// The shape of a flat vector of `n` neurons (an MLP layer).
    pub const fn flat(n: usize) -> Shape {
        Shape {
            channels: n,
            height: 1,
            width: 1,
        }
    }

    /// Total neuron count.
    pub const fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// `true` iff the shape has zero neurons.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes needed to store one `Q1.7.8` state per neuron.
    pub const fn state_bytes(&self) -> usize {
        self.len() * 2
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

/// How a convolutional layer's output maps connect to input maps.
///
/// The paper programs its first conv layer with **49** connections per
/// neuron (7×7, §IV-C) — i.e. each output map reads a *single* input map —
/// rather than the `49 × in_channels` of a standard ConvNN. Both variants
/// are supported; the paper-reproduction benchmarks use
/// [`SingleMap`](ConvConnectivity::SingleMap) so operation counts line up
/// with the published figures, while functional examples may use
/// [`AllMaps`](ConvConnectivity::AllMaps). See `DESIGN.md`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ConvConnectivity {
    /// Output map `oc` convolves input map `oc % in_channels` only
    /// (connections per neuron = `kernel²`).
    #[default]
    SingleMap,
    /// Every output map convolves all input maps (connections per neuron =
    /// `kernel² × in_channels`).
    AllMaps,
}

/// One layer of a network, as the host would describe it to the Neurocube.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// 2D valid convolution (no padding; output shrinks by `kernel − 1`).
    Conv2d {
        /// Output feature maps.
        out_channels: usize,
        /// Square kernel side.
        kernel: usize,
        /// Stride in both dimensions.
        stride: usize,
        /// Map-to-map connectivity.
        connectivity: ConvConnectivity,
        /// Non-linearity applied by the PNG's LUT on write-back.
        activation: Activation,
    },
    /// Non-overlapping average pooling (a MAC-expressible stand-in for the
    /// reference network's pooling stage; see `DESIGN.md`).
    AvgPool {
        /// Pooling window side (= stride).
        size: usize,
    },
    /// Fully connected layer over the flattened input volume.
    FullyConnected {
        /// Output neurons.
        outputs: usize,
        /// Non-linearity applied on write-back.
        activation: Activation,
    },
    /// Element-wise sum of `terms` channel-stacked operands: input channel
    /// group `k` (channels `[k·C, (k+1)·C)`) is added into output channel
    /// `c ∈ [0, C)` at the same spatial position. The graph compiler lowers
    /// residual `Add` nodes to this layer over the concatenation of the
    /// summands; the MAC dataflow is a degenerate 1×1 "convolution" with
    /// implicit unit weights.
    Eltwise {
        /// Operands summed per output neuron.
        terms: usize,
        /// Non-linearity applied on write-back.
        activation: Activation,
    },
}

impl LayerSpec {
    /// Convenience constructor for the common single-map conv layer.
    pub const fn conv(out_channels: usize, kernel: usize, activation: Activation) -> LayerSpec {
        LayerSpec::Conv2d {
            out_channels,
            kernel,
            stride: 1,
            connectivity: ConvConnectivity::SingleMap,
            activation,
        }
    }

    /// Convenience constructor for a fully connected layer.
    pub const fn fc(outputs: usize, activation: Activation) -> LayerSpec {
        LayerSpec::FullyConnected {
            outputs,
            activation,
        }
    }

    /// Convenience constructor for an element-wise sum of `terms` operands.
    pub const fn add(terms: usize, activation: Activation) -> LayerSpec {
        LayerSpec::Eltwise { terms, activation }
    }

    /// The output volume for a given input volume, or `None` if the layer
    /// cannot be applied (kernel larger than input, zero output, ...).
    pub fn output_shape(&self, input: Shape) -> Option<Shape> {
        match *self {
            LayerSpec::Conv2d {
                out_channels,
                kernel,
                stride,
                ..
            } => {
                if kernel == 0 || stride == 0 || out_channels == 0 {
                    return None;
                }
                if input.height < kernel || input.width < kernel {
                    return None;
                }
                Some(Shape {
                    channels: out_channels,
                    height: (input.height - kernel) / stride + 1,
                    width: (input.width - kernel) / stride + 1,
                })
            }
            LayerSpec::AvgPool { size } => {
                if size == 0 || input.height < size || input.width < size {
                    return None;
                }
                Some(Shape {
                    channels: input.channels,
                    height: input.height / size,
                    width: input.width / size,
                })
            }
            LayerSpec::FullyConnected { outputs, .. } => {
                (outputs > 0).then_some(Shape::flat(outputs))
            }
            LayerSpec::Eltwise { terms, .. } => {
                if terms == 0 || !input.channels.is_multiple_of(terms) || input.channels == 0 {
                    return None;
                }
                Some(Shape {
                    channels: input.channels / terms,
                    height: input.height,
                    width: input.width,
                })
            }
        }
    }

    /// Connections per output neuron — the PNG's `n_connections`
    /// configuration register value.
    pub fn connections_per_neuron(&self, input: Shape) -> usize {
        match *self {
            LayerSpec::Conv2d {
                kernel,
                connectivity,
                ..
            } => match connectivity {
                ConvConnectivity::SingleMap => kernel * kernel,
                ConvConnectivity::AllMaps => kernel * kernel * input.channels,
            },
            LayerSpec::AvgPool { size } => size * size,
            LayerSpec::FullyConnected { .. } => input.len(),
            LayerSpec::Eltwise { terms, .. } => terms,
        }
    }

    /// Stored synaptic weights (average pooling uses an implicit constant
    /// weight and stores none).
    pub(crate) fn weight_count(&self, input: Shape) -> usize {
        match *self {
            LayerSpec::Conv2d {
                out_channels,
                kernel,
                connectivity,
                ..
            } => {
                let per_map = match connectivity {
                    ConvConnectivity::SingleMap => kernel * kernel,
                    ConvConnectivity::AllMaps => kernel * kernel * input.channels,
                };
                out_channels * per_map
            }
            LayerSpec::AvgPool { .. } => 0,
            LayerSpec::FullyConnected { outputs, .. } => outputs * input.len(),
            LayerSpec::Eltwise { .. } => 0,
        }
    }

    /// Multiply-accumulate operations to evaluate the layer once.
    pub fn macs(&self, input: Shape) -> Option<u64> {
        let out = self.output_shape(input)?;
        Some(out.len() as u64 * self.connections_per_neuron(input) as u64)
    }

    /// Arithmetic operations (2 per MAC: multiply + add), the unit of the
    /// paper's GOPs/s throughput numbers.
    pub fn ops(&self, input: Shape) -> Option<u64> {
        Some(self.macs(input)? * 2)
    }

    /// The activation function written back through the PNG's LUT.
    pub fn activation(&self) -> Activation {
        match *self {
            LayerSpec::Conv2d { activation, .. } => activation,
            LayerSpec::AvgPool { .. } => Activation::Identity,
            LayerSpec::FullyConnected { activation, .. } => activation,
            LayerSpec::Eltwise { activation, .. } => activation,
        }
    }

    /// Short kind name for reports ("conv", "pool", "fc", "add").
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerSpec::Conv2d { .. } => "conv",
            LayerSpec::AvgPool { .. } => "pool",
            LayerSpec::FullyConnected { .. } => "fc",
            LayerSpec::Eltwise { .. } => "add",
        }
    }

    /// `true` for layers whose weights stream from DRAM rather than living
    /// in PE weight memory. Conv kernels and the pooling constant are small
    /// and duplicated into each PE's 3,600-bit weight register file
    /// (§III-B-2, Table II); fully connected weight matrices are far too
    /// large and stream from their vault (Fig. 10(d)).
    pub fn weights_stream(&self) -> bool {
        matches!(self, LayerSpec::FullyConnected { .. })
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LayerSpec::Conv2d {
                out_channels,
                kernel,
                stride,
                connectivity,
                activation,
            } => write!(
                f,
                "conv {kernel}x{kernel}/{stride} -> {out_channels} maps ({connectivity:?}, {activation})"
            ),
            LayerSpec::AvgPool { size } => write!(f, "avgpool {size}x{size}"),
            LayerSpec::FullyConnected {
                outputs,
                activation,
            } => write!(f, "fc -> {outputs} ({activation})"),
            LayerSpec::Eltwise { terms, activation } => {
                write!(f, "add x{terms} ({activation})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_matches_paper_layer1() {
        // 320x240 RGB input, 7x7 kernel, 16 maps -> 314x234 (the paper's
        // 73,476 = 314 x 234 neurons per map).
        let input = Shape::new(3, 240, 320);
        let l = LayerSpec::conv(16, 7, Activation::Tanh);
        let out = l.output_shape(input).unwrap();
        assert_eq!(out, Shape::new(16, 234, 314));
        assert_eq!(out.height * out.width, 73_476);
        assert_eq!(l.connections_per_neuron(input), 49);
    }

    #[test]
    fn conv_all_maps_connectivity() {
        let input = Shape::new(3, 240, 320);
        let l = LayerSpec::Conv2d {
            out_channels: 16,
            kernel: 7,
            stride: 1,
            connectivity: ConvConnectivity::AllMaps,
            activation: Activation::Tanh,
        };
        assert_eq!(l.connections_per_neuron(input), 147);
        assert_eq!(l.weight_count(input), 16 * 147);
    }

    #[test]
    fn pool_shape_floors() {
        let l = LayerSpec::AvgPool { size: 2 };
        let out = l.output_shape(Shape::new(16, 111, 151)).unwrap();
        assert_eq!(out, Shape::new(16, 55, 75));
        assert_eq!(l.connections_per_neuron(Shape::new(16, 4, 4)), 4);
        assert_eq!(l.weight_count(Shape::new(16, 4, 4)), 0);
    }

    #[test]
    fn fc_shape_and_weights() {
        let input = Shape::new(4, 3, 3);
        let l = LayerSpec::fc(10, Activation::Sigmoid);
        assert_eq!(l.output_shape(input).unwrap(), Shape::flat(10));
        assert_eq!(l.connections_per_neuron(input), 36);
        assert_eq!(l.weight_count(input), 360);
        assert!(l.weights_stream());
        assert!(!LayerSpec::conv(4, 3, Activation::ReLU).weights_stream());
    }

    #[test]
    fn ops_are_two_per_mac() {
        let input = Shape::new(1, 10, 10);
        let l = LayerSpec::conv(2, 3, Activation::ReLU);
        let out = l.output_shape(input).unwrap();
        assert_eq!(out, Shape::new(2, 8, 8));
        assert_eq!(l.macs(input).unwrap(), 2 * 64 * 9);
        assert_eq!(l.ops(input).unwrap(), 2 * 2 * 64 * 9);
    }

    #[test]
    fn invalid_geometry_yields_none() {
        let tiny = Shape::new(1, 3, 3);
        assert!(LayerSpec::conv(1, 7, Activation::ReLU)
            .output_shape(tiny)
            .is_none());
        assert!(LayerSpec::AvgPool { size: 4 }.output_shape(tiny).is_none());
        assert!(LayerSpec::fc(0, Activation::ReLU)
            .output_shape(tiny)
            .is_none());
    }

    #[test]
    fn strided_conv() {
        let l = LayerSpec::Conv2d {
            out_channels: 1,
            kernel: 3,
            stride: 2,
            connectivity: ConvConnectivity::SingleMap,
            activation: Activation::Identity,
        };
        assert_eq!(
            l.output_shape(Shape::new(1, 9, 9)).unwrap(),
            Shape::new(1, 4, 4)
        );
    }

    #[test]
    fn eltwise_shape_and_counts() {
        let l = LayerSpec::add(2, Activation::ReLU);
        let input = Shape::new(6, 5, 4);
        assert_eq!(l.output_shape(input).unwrap(), Shape::new(3, 5, 4));
        assert_eq!(l.connections_per_neuron(input), 2);
        assert_eq!(l.weight_count(input), 0);
        assert_eq!(l.macs(input).unwrap(), 3 * 5 * 4 * 2);
        assert_eq!(l.kind_name(), "add");
        assert!(!l.weights_stream());
        // Channel count must divide evenly.
        assert!(l.output_shape(Shape::new(5, 4, 4)).is_none());
        assert!(LayerSpec::add(0, Activation::ReLU)
            .output_shape(input)
            .is_none());
        assert_eq!(l.to_string(), "add x2 (relu)");
    }

    #[test]
    fn shape_helpers() {
        let s = Shape::new(2, 3, 4);
        assert_eq!(s.len(), 24);
        assert_eq!(s.state_bytes(), 48);
        assert!(!s.is_empty());
        assert_eq!(s.to_string(), "2x3x4");
        assert_eq!(Shape::flat(7).len(), 7);
    }
}
