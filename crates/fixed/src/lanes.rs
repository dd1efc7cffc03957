//! Batch lane kernels over raw `Q1.7.8` bit patterns — the arithmetic
//! core of the PE's MAC array.
//!
//! A Neurocube PE fires all of its MAC lanes in lockstep, and the per-lane
//! state is 16-bit fixed point, so one firing is a short vector of
//! independent 16-bit multiply-accumulates — exactly the shape
//! autovectorizers reward. These kernels operate on flat `i16`/`i32`
//! slices (the SoA layout the PE keeps) and are branch-free per lane, so a
//! 16-lane fire compiles to a handful of SIMD instructions.
//!
//! # Bit-exactness with [`MacUnit`](crate::MacUnit)
//!
//! The kernels are *derived* from, and pinned bit-for-bit against, the
//! scalar [`MacUnit::accumulate`](crate::MacUnit::accumulate) semantics
//! (the functional executor's arithmetic):
//!
//! * **Wide32.** The scalar unit adds the `Q16.16` product into an `i64`
//!   and clamps to the `i32` register range *after every step*, so the
//!   accumulator always fits in `i32` when a step begins. An `i16 × i16`
//!   product always fits in `i32` (`|p| ≤ 2^30`), therefore
//!   `clamp_i32(acc + p)` computed in `i64` is exactly
//!   `i32::saturating_add(acc, p)` — one widening multiply and one
//!   saturating add per lane, no `i64` anywhere.
//! * **Narrow16.** The scalar unit renormalizes each product to `Q1.7.8`
//!   (arithmetic shift right by 8, saturate to `i16`) and then does a
//!   16-bit saturating add; the lane kernel performs the identical two
//!   operations on raw bits.
//!
//! The equivalence is enforced at every saturation and rounding boundary
//! by this module's unit tests and the boundary-biased proptests in
//! `tests/tests/simd_equivalence.rs`, and end to end by the cube-vs-
//! `Executor` comparison in `tests/tests/bit_exactness.rs`.

use crate::q88::{saturate, FRAC_BITS};

/// Accumulates one `weight × state` product into every lane of a `Wide32`
/// accumulator bank: `acc[m] = sat32(acc[m] + w[m] * x[m])`.
///
/// Slices must have equal lengths (the PE passes `..active` sub-slices of
/// its fixed-size lane arrays).
///
/// # Panics
///
/// Panics if the slice lengths differ.
///
/// # Examples
///
/// ```
/// use neurocube_fixed::{accumulate_wide_lanes, wide_result_bits, Q88};
/// let w = Q88::from_f64(0.5).to_bits();
/// let x = Q88::from_f64(3.0).to_bits();
/// let mut acc = [0i32; 4];
/// accumulate_wide_lanes(&mut acc, &[w; 4], &[x; 4]);
/// assert_eq!(Q88::from_bits(wide_result_bits(acc[0])).to_f64(), 1.5);
/// ```
#[inline]
pub fn accumulate_wide_lanes(acc: &mut [i32], weights: &[i16], states: &[i16]) {
    assert_eq!(acc.len(), weights.len(), "lane count mismatch");
    assert_eq!(acc.len(), states.len(), "lane count mismatch");
    for m in 0..acc.len() {
        acc[m] = acc[m].saturating_add(i32::from(weights[m]) * i32::from(states[m]));
    }
}

/// Accumulates one `weight × state` product into every lane of a
/// `Narrow16` accumulator bank: each product is renormalized to `Q1.7.8`
/// (arithmetic `>> 8`, saturate) before a 16-bit saturating add — the
/// per-step-saturating hardware variant.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn accumulate_narrow_lanes(acc: &mut [i16], weights: &[i16], states: &[i16]) {
    assert_eq!(acc.len(), weights.len(), "lane count mismatch");
    assert_eq!(acc.len(), states.len(), "lane count mismatch");
    for m in 0..acc.len() {
        let product = saturate((i32::from(weights[m]) * i32::from(states[m])) >> FRAC_BITS);
        acc[m] = acc[m].saturating_add(product);
    }
}

/// Renormalizes one `Wide32` lane accumulator back to `Q1.7.8` raw bits —
/// the MAC's output stage (`Q88::from_wide` restricted to the `i32` range
/// the per-step clamp guarantees).
#[inline]
pub fn wide_result_bits(acc: i32) -> i16 {
    saturate(acc >> FRAC_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{AccumulatorWidth, MacUnit};
    use crate::q88::Q88;

    /// Drives the scalar unit and the lane kernel through the same operand
    /// sequence and demands identical results after every step.
    fn check_sequence_wide(pairs: &[(i16, i16)]) {
        let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
        let mut acc = [0i32; 1];
        for &(w, x) in pairs {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_wide_lanes(&mut acc, &[w], &[x]);
            assert_eq!(
                mac.result().to_bits(),
                wide_result_bits(acc[0]),
                "wide lane diverged after ({w}, {x})"
            );
        }
    }

    fn check_sequence_narrow(pairs: &[(i16, i16)]) {
        let mut mac = MacUnit::new(AccumulatorWidth::Narrow16);
        let mut acc = [0i16; 1];
        for &(w, x) in pairs {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_narrow_lanes(&mut acc, &[w], &[x]);
            assert_eq!(
                mac.result().to_bits(),
                acc[0],
                "narrow lane diverged after ({w}, {x})"
            );
        }
    }

    #[test]
    fn wide_lane_matches_unit_at_register_saturation() {
        // MAX*MAX repeated drives the wide accumulator into its i32 clamp;
        // the saturating_add lane must pin at exactly the same value.
        let pairs: Vec<(i16, i16)> = (0..4096).map(|_| (i16::MAX, i16::MAX)).collect();
        check_sequence_wide(&pairs);
        let pairs: Vec<(i16, i16)> = (0..4096).map(|_| (i16::MIN, i16::MAX)).collect();
        check_sequence_wide(&pairs);
    }

    #[test]
    fn narrow_lane_matches_unit_at_early_saturation() {
        let pairs: Vec<(i16, i16)> = (0..600)
            .map(|i| {
                if i % 2 == 0 {
                    (i16::MAX, i16::MAX)
                } else {
                    (i16::MIN, 257)
                }
            })
            .collect();
        check_sequence_narrow(&pairs);
    }

    #[test]
    fn narrow_truncation_direction_matches() {
        // (-1/256) * (1/2): product -128 >> 8 == -1 (toward -inf), not 0.
        check_sequence_narrow(&[(-1, 128), (1, 128), (-1, -128)]);
    }

    #[test]
    fn multi_lane_independence() {
        let w = [256i16, -256, i16::MAX, 0];
        let x = [512i16, 512, i16::MAX, 123];
        let mut acc = [0i32; 4];
        accumulate_wide_lanes(&mut acc, &w, &x);
        for m in 0..4 {
            let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
            mac.accumulate(Q88::from_bits(w[m]), Q88::from_bits(x[m]));
            assert_eq!(wide_result_bits(acc[m]), mac.result().to_bits(), "lane {m}");
        }
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mismatched_lanes_rejected() {
        accumulate_wide_lanes(&mut [0i32; 2], &[0; 2], &[0; 3]);
    }
}
