//! The canonical connection ordering.
//!
//! For every output neuron, the PNG walks its input connections in a fixed
//! order — the paper's middle FSM loop ("a loop across all connections for
//! single neuron", §IV-B). The functional executor and the cycle-level
//! simulator both enumerate connections through *this* module, which is what
//! makes bit-exact cross-validation possible: same operands, same order,
//! same MAC semantics.
//!
//! Orderings:
//!
//! * **Conv / pool**: row-major over the kernel window, `(ky, kx)` with `ky`
//!   outer; for [`ConvConnectivity::AllMaps`] the input channel is the
//!   outermost index `(ic, ky, kx)`.
//! * **Fully connected**: flat input index order `0..n_in`.

use crate::layer::{ConvConnectivity, LayerSpec, Shape};
use neurocube_fixed::Q88;

/// Where the weight of one connection comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightRef {
    /// Index into the layer's stored weight array.
    Stored(usize),
    /// An implicit constant (average pooling's `1/size²`).
    Const(Q88),
}

/// One resolved connection of one output neuron.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Connection {
    /// Flat index of the connected input neuron.
    pub input_index: usize,
    /// The synaptic weight for this connection.
    pub weight: WeightRef,
}

/// Decomposes a flat output-neuron index into `(channel, y, x)` for the
/// given output shape.
#[inline]
pub(crate) fn neuron_coords(out_shape: Shape, flat: usize) -> (usize, usize, usize) {
    debug_assert!(flat < out_shape.len());
    let plane = out_shape.height * out_shape.width;
    let c = flat / plane;
    let rem = flat % plane;
    (c, rem / out_shape.width, rem % out_shape.width)
}

/// Resolves connection `k` (in canonical order) of output neuron `neuron`
/// (flat index) for `layer` applied to `in_shape`.
///
/// This is exactly the address computation the PNG performs per §IV-B
/// (Eqs. 4–5), generalized with channel strides.
///
/// # Panics
///
/// Panics in debug builds if `neuron` or `k` is out of range or the layer
/// does not fit `in_shape`.
pub fn resolve(layer: &LayerSpec, in_shape: Shape, neuron: usize, k: usize) -> Connection {
    let out_shape = layer
        .output_shape(in_shape)
        .expect("layer must fit the input shape");
    debug_assert!(k < layer.connections_per_neuron(in_shape));
    let (oc, oy, ox) = neuron_coords(out_shape, neuron);
    match *layer {
        LayerSpec::Conv2d {
            kernel,
            stride,
            connectivity,
            ..
        } => {
            let (ic, ky, kx, widx) = match connectivity {
                ConvConnectivity::SingleMap => {
                    let ky = k / kernel;
                    let kx = k % kernel;
                    (oc % in_shape.channels, ky, kx, oc * kernel * kernel + k)
                }
                ConvConnectivity::AllMaps => {
                    let per_map = kernel * kernel;
                    let ic = k / per_map;
                    let r = k % per_map;
                    (
                        ic,
                        r / kernel,
                        r % kernel,
                        oc * in_shape.channels * per_map + k,
                    )
                }
            };
            // Eq. 4: targ = cur*stride + kernel offset.
            let iy = oy * stride + ky;
            let ix = ox * stride + kx;
            // Eq. 5 with a channel stride: flat input address.
            let input_index = (ic * in_shape.height + iy) * in_shape.width + ix;
            Connection {
                input_index,
                weight: WeightRef::Stored(widx),
            }
        }
        LayerSpec::AvgPool { size } => {
            let ky = k / size;
            let kx = k % size;
            let iy = oy * size + ky;
            let ix = ox * size + kx;
            let input_index = (oc * in_shape.height + iy) * in_shape.width + ix;
            Connection {
                input_index,
                weight: WeightRef::Const(Q88::from_f64(1.0 / (size * size) as f64)),
            }
        }
        LayerSpec::FullyConnected { .. } => Connection {
            input_index: k,
            weight: WeightRef::Stored(neuron * in_shape.len() + k),
        },
        LayerSpec::Eltwise { terms, .. } => {
            // Term `k` of output channel `oc` reads input channel
            // `oc + k·C_out` at the same spatial position, with an
            // implicit unit weight (the sum of the stacked operands).
            let out_channels = in_shape.channels / terms;
            let ic = oc + k * out_channels;
            let input_index = (ic * in_shape.height + oy) * in_shape.width + ox;
            Connection {
                input_index,
                weight: WeightRef::Const(Q88::ONE),
            }
        }
    }
}

/// Materializes the weight value of a connection given the layer's stored
/// weight array.
#[inline]
pub fn weight_value(conn: Connection, weights: &[Q88]) -> Q88 {
    match conn.weight {
        WeightRef::Stored(i) => weights[i],
        WeightRef::Const(q) => q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;

    #[test]
    fn coords_roundtrip() {
        let s = Shape::new(3, 4, 5);
        for flat in 0..s.len() {
            let (c, y, x) = neuron_coords(s, flat);
            assert_eq!((c * s.height + y) * s.width + x, flat);
        }
    }

    #[test]
    fn conv_single_map_window() {
        // 1-channel 5x5 input, 3x3 kernel -> 3x3 output.
        let in_shape = Shape::new(1, 5, 5);
        let layer = LayerSpec::conv(1, 3, Activation::Identity);
        // Output neuron (0, 1, 2): window rows 1..4, cols 2..5.
        let neuron = 3 + 2;
        let expected: Vec<usize> = (1..4)
            .flat_map(|y| (2..5).map(move |x| y * 5 + x))
            .collect();
        let got: Vec<usize> = (0..9)
            .map(|k| resolve(&layer, in_shape, neuron, k).input_index)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn conv_single_map_selects_input_map_round_robin() {
        let in_shape = Shape::new(2, 4, 4);
        let layer = LayerSpec::conv(4, 3, Activation::Identity);
        let out_shape = layer.output_shape(in_shape).unwrap();
        let plane = out_shape.height * out_shape.width;
        // Output map 3 reads input map 3 % 2 = 1.
        let conn = resolve(&layer, in_shape, 3 * plane, 0);
        assert!(conn.input_index >= in_shape.height * in_shape.width);
        // Output map 2 reads input map 0.
        let conn = resolve(&layer, in_shape, 2 * plane, 0);
        assert!(conn.input_index < in_shape.height * in_shape.width);
    }

    #[test]
    fn conv_all_maps_spans_channels() {
        let in_shape = Shape::new(3, 4, 4);
        let layer = LayerSpec::Conv2d {
            out_channels: 1,
            kernel: 3,
            stride: 1,
            connectivity: ConvConnectivity::AllMaps,
            activation: Activation::Identity,
        };
        let idxs: Vec<usize> = (0..27)
            .map(|k| resolve(&layer, in_shape, 0, k).input_index)
            .collect();
        // First 9 in channel 0, next 9 in channel 1, last 9 in channel 2.
        assert!(idxs[0..9].iter().all(|&i| i < 16));
        assert!(idxs[9..18].iter().all(|&i| (16..32).contains(&i)));
        assert!(idxs[18..27].iter().all(|&i| (32..48).contains(&i)));
        // Weight indices are the canonical 0..27 for output map 0.
        for (k, idx) in idxs.iter().enumerate() {
            let _ = idx;
            assert_eq!(resolve(&layer, in_shape, 0, k).weight, WeightRef::Stored(k));
        }
    }

    #[test]
    fn pool_uses_constant_weight() {
        let in_shape = Shape::new(1, 4, 4);
        let layer = LayerSpec::AvgPool { size: 2 };
        let conn = resolve(&layer, in_shape, 0, 3);
        assert_eq!(conn.input_index, 5); // (1,1) of the top-left window
        assert_eq!(conn.weight, WeightRef::Const(Q88::from_f64(0.25)));
        assert_eq!(weight_value(conn, &[]), Q88::from_f64(0.25));
    }

    #[test]
    fn pool_windows_do_not_overlap() {
        let in_shape = Shape::new(1, 4, 4);
        let layer = LayerSpec::AvgPool { size: 2 };
        let mut seen = std::collections::HashSet::new();
        for neuron in 0..4 {
            for k in 0..4 {
                assert!(seen.insert(resolve(&layer, in_shape, neuron, k).input_index));
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn fc_walks_inputs_in_order_with_row_major_weights() {
        let in_shape = Shape::new(2, 2, 2); // 8 inputs
        let layer = LayerSpec::fc(3, Activation::Identity);
        for j in 0..3 {
            for k in 0..8 {
                let c = resolve(&layer, in_shape, j, k);
                assert_eq!(c.input_index, k);
                assert_eq!(c.weight, WeightRef::Stored(j * 8 + k));
            }
        }
    }

    #[test]
    fn eltwise_sums_channel_groups() {
        // (4, 2, 2) input, 2 terms -> (2, 2, 2) output: output (c, y, x)
        // reads input channels c and c + 2 at (y, x) with unit weights.
        let in_shape = Shape::new(4, 2, 2);
        let layer = LayerSpec::add(2, Activation::Identity);
        for neuron in 0..8 {
            let (oc, oy, ox) = neuron_coords(Shape::new(2, 2, 2), neuron);
            for k in 0..2 {
                let conn = resolve(&layer, in_shape, neuron, k);
                assert_eq!(
                    conn.input_index,
                    ((oc + 2 * k) * 2 + oy) * 2 + ox,
                    "neuron {neuron} term {k}"
                );
                assert_eq!(conn.weight, WeightRef::Const(Q88::ONE));
            }
        }
    }

    #[test]
    fn strided_conv_addresses() {
        let in_shape = Shape::new(1, 5, 5);
        let layer = LayerSpec::Conv2d {
            out_channels: 1,
            kernel: 3,
            stride: 2,
            connectivity: ConvConnectivity::SingleMap,
            activation: Activation::Identity,
        };
        // Output (0,1,1) window starts at input (2,2).
        let conn = resolve(&layer, in_shape, 2 + 1, 0);
        assert_eq!(conn.input_index, 2 * 5 + 2);
    }
}
