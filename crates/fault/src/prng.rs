//! Counter-mode PRNG: a reduced-round `ChaCha`-style block function.
//!
//! [`draw`] is a *pure* function of `(seed, domain, cycle, salt)` — there
//! is no stream state to advance, so the skipping and naive simulation
//! loops cannot desynchronize: a component that asks the same question at
//! the same absolute cycle gets the same answer in either mode. Eight
//! rounds of the `ChaCha` quarter-round give full avalanche on every key
//! word, which is all a fault model needs (this is a statistical source,
//! not a cryptographic one).

/// The `ChaCha` "expand 32-byte k" constants.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One 64-bit draw keyed by `(seed, domain, cycle, salt)`.
///
/// `seed` is the run's fault seed, `domain` a `crate::domain` code,
/// `cycle` the absolute simulation cycle (or an event/address counter for
/// time-independent domains), and `salt` disambiguates multiple draws at
/// the same key point.
#[must_use]
pub fn draw(seed: u64, domain: u64, cycle: u64, salt: u64) -> u64 {
    let mut s: [u32; 16] = [
        SIGMA[0],
        SIGMA[1],
        SIGMA[2],
        SIGMA[3],
        seed as u32,
        (seed >> 32) as u32,
        domain as u32,
        (domain >> 32) as u32,
        cycle as u32,
        (cycle >> 32) as u32,
        salt as u32,
        (salt >> 32) as u32,
        0x9E37_79B9,
        0x7F4A_7C15,
        0x85EB_CA6B,
        0xC2B2_AE35,
    ];
    let input = s;
    for _ in 0..4 {
        // Column round.
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        // Diagonal round.
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for (w, i) in s.iter_mut().zip(input) {
        *w = w.wrapping_add(i);
    }
    u64::from(s[0]) | (u64::from(s[1]) << 32)
}

/// Maps a draw to a uniform `f64` in `[0, 1)` (53 mantissa bits).
#[must_use]
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A Bernoulli trial over 64-bit draws: `hit(x)` is true with probability
/// `p` when `x` is uniform. The threshold is computed in 128-bit space so
/// `p = 1.0` hits every draw and `p = 0.0` hits none, exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bernoulli {
    threshold: u128,
}

impl Bernoulli {
    /// Builds a trial with probability `p`, clamped to `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Bernoulli {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        // p * 2^64, exact at both endpoints.
        let threshold = (p * (u128::from(u64::MAX) + 1) as f64) as u128;
        Bernoulli {
            threshold: threshold.min(u128::from(u64::MAX) + 1),
        }
    }

    /// Whether the draw `x` lands inside the probability window.
    #[inline]
    #[must_use]
    pub fn hit(&self, x: u64) -> bool {
        u128::from(x) < self.threshold
    }

    /// True when the trial can never hit (`p == 0`); lets hot paths skip
    /// the draw entirely.
    #[inline]
    #[must_use]
    pub fn is_never(&self) -> bool {
        self.threshold == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_key_bit_changes_flip_about_half_the_output() {
        let base = draw(0xDEAD_BEEF, 1, 1000, 0);
        for bit in 0..64 {
            let flipped = draw(0xDEAD_BEEF ^ (1 << bit), 1, 1000, 0);
            let dist = (base ^ flipped).count_ones();
            assert!(
                (10..=54).contains(&dist),
                "weak avalanche on seed bit {bit}: distance {dist}"
            );
        }
    }

    #[test]
    fn consecutive_cycles_are_uncorrelated_enough_for_rates() {
        // Mean of 10k consecutive-cycle draws, folded to [0,1), should be
        // near 1/2 (this is a sanity bound, not a statistical test suite).
        let mean = (0..10_000).map(|c| unit(draw(42, 42, c, 0))).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
