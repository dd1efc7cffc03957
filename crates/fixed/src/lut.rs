//! Look-up-table activation functions.
//!
//! The PNG evaluates the non-linear activation function `N.L(y)` through a
//! hardware look-up table (§IV-A: "The PNG also pushes states through the
//! non-linear activate function (implemented as the Look Up Table)"). We
//! model that LUT faithfully: the 16-bit input is quantized to an index, and
//! the table stores one precomputed `Q1.7.8` output per index. Both the
//! cycle-level simulator and the functional reference evaluate activations
//! through the same table, so results match bit-for-bit.

use crate::q88::Q88;
use std::fmt;
use std::sync::Arc;

/// Number of entries in the hardware LUT.
///
/// The paper does not publish the LUT depth; 1024 entries over the full
/// `Q1.7.8` input range gives a quantization step of `0.25` in input space,
/// refined around zero where sigmoidal activations actually vary (see
/// [`ActivationLut::new`] for the two-segment indexing scheme).
pub(crate) const LUT_ENTRIES: usize = 1024;

/// The activation functions the Neurocube host can program into a PNG's LUT.
///
/// LSTM-style networks reprogram the LUT per layer (§VI, "Extending
/// Neurocube"); the enum is the menu of tables the host compiler knows how to
/// generate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Pass-through (`x = y`); used for pooling and linear output layers.
    #[default]
    Identity,
    /// Rectified linear unit: `max(0, y)`.
    ReLU,
    /// Logistic sigmoid: `1 / (1 + e^-y)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Evaluates the mathematical function at `v` in double precision.
    ///
    /// This is the *ideal* curve; hardware evaluation goes through
    /// [`ActivationLut`] which quantizes it.
    pub fn ideal(self, v: f64) -> f64 {
        match self {
            Activation::Identity => v,
            Activation::ReLU => v.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Tanh => v.tanh(),
        }
    }

    /// The derivative of the ideal curve at `v` (used by the functional
    /// training reference).
    pub fn ideal_derivative(self, v: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::ReLU => {
                if v > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = self.ideal(v);
                s * (1.0 - s)
            }
            Activation::Tanh => 1.0 - v.tanh().powi(2),
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::Identity => "identity",
            Activation::ReLU => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        };
        f.write_str(name)
    }
}

/// A materialized hardware look-up table for one activation function.
///
/// Cheap to clone (the table is shared behind an [`Arc`]), so every one of
/// the 16 PNGs can hold the layer's LUT without duplicating storage.
///
/// # Indexing scheme
///
/// Half the table covers the *inner* input range `[-4.0, 4.0)` at fine
/// resolution (where sigmoid/tanh vary) and the other half covers the full
/// `[-128, 128)` range coarsely. Identity and ReLU bypass the table — the
/// hardware implements them with a mux/comparator, and quantizing a straight
/// line through a LUT would inject avoidable noise into every conv layer.
///
/// # Examples
///
/// ```
/// use neurocube_fixed::{Activation, ActivationLut, Q88};
///
/// let lut = ActivationLut::new(Activation::Sigmoid);
/// let y = lut.apply(Q88::ZERO);
/// assert_eq!(y, Q88::from_f64(0.5));
/// ```
#[derive(Clone)]
pub struct ActivationLut {
    kind: Activation,
    inner: Arc<[Q88]>,
    outer: Arc<[Q88]>,
}

const INNER_RANGE: f64 = 4.0;
const OUTER_RANGE: f64 = 128.0;

impl ActivationLut {
    /// Builds the table for `kind` by sampling the ideal curve at each
    /// quantization bucket's midpoint.
    pub fn new(kind: Activation) -> ActivationLut {
        let half = LUT_ENTRIES / 2;
        let build = |range: f64| -> Arc<[Q88]> {
            (0..half)
                .map(|i| {
                    let frac = (i as f64 + 0.5) / half as f64; // (0,1)
                    let v = -range + 2.0 * range * frac;
                    Q88::from_f64(kind.ideal(v))
                })
                .collect()
        };
        ActivationLut {
            kind,
            inner: build(INNER_RANGE),
            outer: build(OUTER_RANGE),
        }
    }

    /// The activation function this table was built for.
    pub fn kind(&self) -> Activation {
        self.kind
    }

    /// Evaluates the activation the way the PNG hardware would: quantize the
    /// input to a table index and return the stored output.
    pub fn apply(&self, y: Q88) -> Q88 {
        match self.kind {
            // Mux/comparator paths: exact.
            Activation::Identity => y,
            Activation::ReLU => y.max(Q88::ZERO),
            _ => {
                let v = y.to_f64();
                let half = LUT_ENTRIES / 2;
                let (table, range) = if v.abs() < INNER_RANGE {
                    (&self.inner, INNER_RANGE)
                } else {
                    (&self.outer, OUTER_RANGE)
                };
                let idx = (((v + range) / (2.0 * range)) * half as f64) as usize;
                table[idx.min(half - 1)]
            }
        }
    }

    /// Maximum absolute error of the table against the ideal curve, sampled
    /// over every representable input. Exposed so tests and documentation
    /// can state the quantization error bound.
    pub fn max_error(&self) -> f64 {
        let mut worst: f64 = 0.0;
        let mut bits = i16::MIN;
        loop {
            let q = Q88::from_bits(bits);
            let got = self.apply(q).to_f64();
            let want = self.kind.ideal(q.to_f64());
            // Compare against the best representable output, not the real line.
            let want_q = Q88::from_f64(want).to_f64();
            worst = worst.max((got - want_q).abs());
            if bits == i16::MAX {
                break;
            }
            bits += 1;
        }
        worst
    }
}

impl fmt::Debug for ActivationLut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivationLut")
            .field("kind", &self.kind)
            .field("entries", &LUT_ENTRIES)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_exact() {
        let lut = ActivationLut::new(Activation::Identity);
        for bits in [-32768i16, -300, 0, 300, 32767] {
            let q = Q88::from_bits(bits);
            assert_eq!(lut.apply(q), q);
        }
    }

    #[test]
    fn relu_is_exact() {
        let lut = ActivationLut::new(Activation::ReLU);
        assert_eq!(lut.apply(Q88::from_f64(-3.0)), Q88::ZERO);
        assert_eq!(lut.apply(Q88::from_f64(2.5)), Q88::from_f64(2.5));
        assert_eq!(lut.apply(Q88::MIN), Q88::ZERO);
    }

    #[test]
    fn sigmoid_center_and_tails() {
        let lut = ActivationLut::new(Activation::Sigmoid);
        assert_eq!(lut.apply(Q88::ZERO), Q88::from_f64(0.5));
        assert_eq!(lut.apply(Q88::from_f64(100.0)), Q88::ONE);
        assert_eq!(lut.apply(Q88::from_f64(-100.0)), Q88::ZERO);
    }

    #[test]
    fn tanh_is_odd_approximately() {
        let lut = ActivationLut::new(Activation::Tanh);
        for v in [-3.0, -1.0, -0.5, 0.5, 1.0, 3.0] {
            let pos = lut.apply(Q88::from_f64(v)).to_f64();
            let neg = lut.apply(Q88::from_f64(-v)).to_f64();
            // Bucket midpoints are not symmetric about zero (half-open
            // buckets), so oddness holds only within a few output LSBs.
            assert!(
                (pos + neg).abs() <= 4.0 / 256.0 + 1e-12,
                "tanh({v}) = {pos}, tanh({}) = {neg}",
                -v
            );
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        // Inner segment step is 8/512 = 1/64 in input space; sigmoid slope
        // <= 1/4 so output error <~ 1/256 + one output LSB.
        let err = ActivationLut::new(Activation::Sigmoid).max_error();
        assert!(err <= 3.0 / 256.0, "sigmoid LUT error {err}");
        let err = ActivationLut::new(Activation::Tanh).max_error();
        assert!(err <= 9.0 / 256.0, "tanh LUT error {err}");
    }

    #[test]
    fn clone_shares_table() {
        let lut = ActivationLut::new(Activation::Sigmoid);
        let c = lut.clone();
        assert!(Arc::ptr_eq(&lut.inner, &c.inner));
    }

    #[test]
    fn derivative_signs() {
        assert_eq!(Activation::ReLU.ideal_derivative(-1.0), 0.0);
        assert_eq!(Activation::ReLU.ideal_derivative(1.0), 1.0);
        assert!((Activation::Sigmoid.ideal_derivative(0.0) - 0.25).abs() < 1e-12);
        assert!((Activation::Tanh.ideal_derivative(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(Activation::Identity.ideal_derivative(5.0), 1.0);
    }
}
