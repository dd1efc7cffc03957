//! Multiply-accumulate semantics of a single Neurocube MAC unit.

use crate::q88::{saturate, FRAC_BITS, Q88};

/// Width of the accumulation register inside a MAC unit.
///
/// The paper's Table II lists the MAC datapath as 16-bit but leaves the
/// internal accumulator width unspecified. Both plausible hardware choices
/// are modeled so their accuracy impact can be measured (an ablation in the
/// benchmark suite):
///
/// * [`Wide32`](AccumulatorWidth::Wide32) — products are accumulated in a
///   32-bit register at `Q16.16` scale and renormalized once at the end.
///   This is the default and what every fixed-point DSP MAC does.
/// * [`Narrow16`](AccumulatorWidth::Narrow16) — each product is immediately
///   renormalized and saturated to 16 bits before accumulation, so long dot
///   products can saturate early.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AccumulatorWidth {
    /// 32-bit internal accumulator (default).
    #[default]
    Wide32,
    /// 16-bit accumulator with per-step saturation.
    Narrow16,
}

/// One multiply-accumulate unit.
///
/// A Neurocube PE contains `n_MAC` of these (16 in the paper's design
/// point). Each accepts one `(weight, state)` operand pair per MAC cycle and
/// accumulates the running sum for a single output neuron
/// (Eq. 1: `y_i = Σ_k w_ik · x_k`).
///
/// # Examples
///
/// ```
/// use neurocube_fixed::{MacUnit, Q88, AccumulatorWidth};
///
/// let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
/// for k in 0..4 {
///     mac.accumulate(Q88::from_f64(0.25), Q88::from_int(k));
/// }
/// assert_eq!(mac.result().to_f64(), 1.5); // 0.25 * (0+1+2+3)
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MacUnit {
    width: AccumulatorWidth,
    wide_acc: i64,
    narrow_acc: Q88,
}

impl MacUnit {
    /// Creates a cleared MAC unit with the given accumulator width.
    pub fn new(width: AccumulatorWidth) -> MacUnit {
        MacUnit {
            width,
            wide_acc: 0,
            narrow_acc: Q88::ZERO,
        }
    }

    /// Accumulates one `weight * state` product.
    #[inline]
    pub fn accumulate(&mut self, weight: Q88, state: Q88) {
        match self.width {
            AccumulatorWidth::Wide32 => {
                self.wide_acc += i64::from(weight.wide_product(state));
                // Model the 32-bit register: clamp to i32 range at Q16.16.
                self.wide_acc = self
                    .wide_acc
                    .clamp(i64::from(i32::MIN), i64::from(i32::MAX));
            }
            AccumulatorWidth::Narrow16 => {
                self.narrow_acc = self.narrow_acc.saturating_add(weight.saturating_mul(state));
            }
        }
    }

    /// Reads the accumulated sum, renormalized and saturated to `Q1.7.8`.
    #[inline]
    pub fn result(&self) -> Q88 {
        match self.width {
            AccumulatorWidth::Wide32 => {
                Q88::from_bits(saturate((self.wide_acc >> FRAC_BITS) as i32))
            }
            AccumulatorWidth::Narrow16 => self.narrow_acc,
        }
    }

    /// Clears the accumulator for the next output neuron.
    #[inline]
    pub fn clear(&mut self) {
        self.wide_acc = 0;
        self.narrow_acc = Q88::ZERO;
    }

    /// The accumulator width this unit was built with.
    #[inline]
    pub fn width(&self) -> AccumulatorWidth {
        self.width
    }
}

/// Computes a full dot product with the given accumulator semantics.
///
/// Convenience used by the functional reference executor so that it shares
/// the exact arithmetic of the cycle-level simulator.
///
/// # Panics
///
/// Panics if `weights` and `states` have different lengths.
pub fn dot(weights: &[Q88], states: &[Q88], width: AccumulatorWidth) -> Q88 {
    assert_eq!(
        weights.len(),
        states.len(),
        "dot product operand lengths differ"
    );
    let mut mac = MacUnit::new(width);
    for (&w, &x) in weights.iter().zip(states) {
        mac.accumulate(w, x);
    }
    mac.result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_accumulator_sums_exactly() {
        let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
        for _ in 0..100 {
            mac.accumulate(Q88::from_f64(0.5), Q88::from_f64(0.5));
        }
        assert_eq!(mac.result().to_f64(), 25.0);
    }

    #[test]
    fn narrow_accumulator_saturates_early() {
        let mut mac = MacUnit::new(AccumulatorWidth::Narrow16);
        for _ in 0..300 {
            mac.accumulate(Q88::ONE, Q88::ONE);
        }
        assert_eq!(mac.result(), Q88::MAX);
    }

    #[test]
    fn wide_accumulator_saturates_at_32_bits() {
        let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
        // 127 * 127 ~ 16k per op; ~520k ops overflows Q16.16's +-32768 range
        // long before i32 wraps. Clamp keeps the result at MAX.
        for _ in 0..600_000 {
            mac.accumulate(Q88::MAX, Q88::MAX);
        }
        assert_eq!(mac.result(), Q88::MAX);
    }

    #[test]
    fn clear_resets_value() {
        let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
        mac.accumulate(Q88::ONE, Q88::ONE);
        mac.clear();
        assert_eq!(mac.result(), Q88::ZERO);
    }

    #[test]
    fn dot_matches_manual_accumulation() {
        let w: Vec<Q88> = [0.5, -0.25, 1.0]
            .iter()
            .map(|&v| Q88::from_f64(v))
            .collect();
        let x: Vec<Q88> = [2.0, 4.0, -1.5].iter().map(|&v| Q88::from_f64(v)).collect();
        let got = dot(&w, &x, AccumulatorWidth::Wide32);
        assert_eq!(got.to_f64(), 0.5 * 2.0 - 0.25 * 4.0 - 1.5);
    }

    #[test]
    #[should_panic(expected = "operand lengths differ")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[Q88::ONE], &[], AccumulatorWidth::Wide32);
    }

    #[test]
    fn wide_and_narrow_agree_when_no_saturation() {
        let w: Vec<Q88> = (0..8).map(|i| Q88::from_f64(f64::from(i) / 16.0)).collect();
        let x: Vec<Q88> = (0..8).map(|i| Q88::from_f64(f64::from(i) / 8.0)).collect();
        // All partial sums stay tiny, but truncation happens at different
        // points; both paths should agree because every product here has an
        // exact Q8.8 representation (multiples of 1/128 * 1/8 = 1/1024...
        // pick values whose product is a multiple of 1/256).
        let w: Vec<Q88> = w.iter().map(|_| Q88::from_f64(0.5)).collect();
        let a = dot(&w, &x, AccumulatorWidth::Wide32);
        let b = dot(&w, &x, AccumulatorWidth::Narrow16);
        assert_eq!(a, b);
    }
}
