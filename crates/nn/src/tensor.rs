//! A three-dimensional fixed-point tensor.

use neurocube_fixed::Q88;
use std::fmt;

/// A `(channels, height, width)` tensor of `Q1.7.8` values, stored row-major
/// with channel as the outermost dimension — the same flat neuron indexing
/// the Neurocube compiler uses when laying a layer's states out in DRAM
/// (Eq. 5: `Addr = targ_y × W + targ_x + Addr_last`, extended with a channel
/// stride).
///
/// # Examples
///
/// ```
/// use neurocube_nn::Tensor;
/// use neurocube_fixed::Q88;
///
/// let mut t = Tensor::zeros(3, 4, 5);
/// t.set(2, 3, 4, Q88::ONE);
/// assert_eq!(t.get(2, 3, 4), Q88::ONE);
/// assert_eq!(t.len(), 60);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Tensor {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<Q88>,
}

impl Tensor {
    /// An all-zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Tensor {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "tensor dimensions must be nonzero"
        );
        Tensor {
            channels,
            height,
            width,
            data: vec![Q88::ZERO; channels * height * width],
        }
    }

    /// Builds a tensor from a flat value slice in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * height * width`.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<Q88>) -> Tensor {
        assert_eq!(
            data.len(),
            channels * height * width,
            "data length does not match shape"
        );
        assert!(channels > 0 && height > 0 && width > 0);
        Tensor {
            channels,
            height,
            width,
            data,
        }
    }

    /// Builds a 1-channel, 1-row tensor from a vector (for MLP layers).
    pub fn from_flat(data: Vec<Q88>) -> Tensor {
        let n = data.len();
        Tensor::from_vec(n, 1, 1, data)
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the tensor has no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(c, y, x)`.
    #[inline]
    pub(crate) fn index_of(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        (c * self.height + y) * self.width + x
    }

    /// Reads element `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via the indexing assertion) if out of range.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> Q88 {
        self.data[self.index_of(c, y, x)]
    }

    /// Writes element `(c, y, x)`.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: Q88) {
        let i = self.index_of(c, y, x);
        self.data[i] = v;
    }

    /// Reads by flat index.
    #[inline]
    pub fn at(&self, i: usize) -> Q88 {
        self.data[i]
    }

    /// Writes by flat index.
    #[inline]
    pub fn set_at(&mut self, i: usize, v: Q88) {
        self.data[i] = v;
    }

    /// The flat value slice in canonical order.
    pub fn as_slice(&self) -> &[Q88] {
        &self.data
    }

    /// Index of the maximum element (first on ties) — the classifier argmax.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for i in 1..self.data.len() {
            if self.data[i] > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Serializes to little-endian bytes in canonical order — the exact DRAM
    /// image the host loads into the cube.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 2);
        for q in &self.data {
            out.extend_from_slice(&q.to_bits().to_le_bytes());
        }
        out
    }

    /// Deserializes from the byte layout of [`to_le_bytes`](Self::to_le_bytes).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != 2 * channels * height * width`.
    pub fn from_le_bytes(channels: usize, height: usize, width: usize, bytes: &[u8]) -> Tensor {
        assert_eq!(bytes.len(), channels * height * width * 2, "byte length");
        let data = bytes
            .chunks_exact(2)
            .map(|c| Q88::from_bits(i16::from_le_bytes([c[0], c[1]])))
            .collect();
        Tensor::from_vec(channels, height, width, data)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor({}x{}x{}, first={:?})",
            self.channels,
            self.height,
            self.width,
            self.data.first()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_indexing_is_channel_major() {
        let t = Tensor::zeros(2, 3, 4);
        assert_eq!(t.index_of(0, 0, 0), 0);
        assert_eq!(t.index_of(0, 0, 3), 3);
        assert_eq!(t.index_of(0, 1, 0), 4);
        assert_eq!(t.index_of(1, 0, 0), 12);
        assert_eq!(t.index_of(1, 2, 3), 23);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(2, 2, 2);
        t.set(1, 1, 1, Q88::from_f64(-2.5));
        assert_eq!(t.get(1, 1, 1), Q88::from_f64(-2.5));
        assert_eq!(t.at(7), Q88::from_f64(-2.5));
    }

    #[test]
    fn argmax_finds_first_max() {
        let t = Tensor::from_flat(vec![
            Q88::from_f64(0.5),
            Q88::from_f64(2.0),
            Q88::from_f64(2.0),
            Q88::from_f64(-3.0),
        ]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn byte_roundtrip() {
        let mut t = Tensor::zeros(2, 2, 2);
        for i in 0..8 {
            t.set_at(i, Q88::from_f64(i as f64 - 4.0));
        }
        let bytes = t.to_le_bytes();
        assert_eq!(bytes.len(), 16);
        let back = Tensor::from_le_bytes(2, 2, 2, &bytes);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_shape() {
        let _ = Tensor::from_vec(2, 2, 2, vec![Q88::ZERO; 7]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_rejected() {
        let _ = Tensor::zeros(0, 1, 1);
    }
}
