//! Absolute-cycle fault schedules.
//!
//! Activity-independent faults (DRAM background upsets) cannot be keyed
//! by "the cycle something happened" — nothing happens; the fault *is*
//! the event. They are instead scheduled as a geometric renewal process:
//! event `k`'s gap is drawn from the geometric distribution matching the
//! per-cycle rate, keyed by the event *index*, so the whole arrival
//! sequence is a pure function of `(seed, domain, rate)` and identical in
//! skipping and naive runs. A component holding a schedule must clamp its
//! event horizon to [`FaultSchedule::next_at`]: promising a quiet window
//! across a scheduled fault would let the fast-forward loop skip it.

use crate::prng::{draw, unit};

/// Salt for the gap draw of event `k` (payload draws use other salts).
const SALT_GAP: u64 = 0;

/// A deterministic stream of absolute fault cycles.
#[derive(Clone, Debug)]
pub(crate) struct FaultSchedule {
    seed: u64,
    domain: u64,
    /// Per-cycle event probability; `0` disables the stream.
    rate: f64,
    /// Index of the next event (keys its gap and payload draws).
    k: u64,
    /// Absolute cycle of the next event; `u64::MAX` when disabled.
    next_at: u64,
}

impl FaultSchedule {
    /// Builds the schedule and materializes the first arrival cycle.
    #[must_use]
    pub(crate) fn new(seed: u64, domain: u64, rate: f64) -> FaultSchedule {
        let mut s = FaultSchedule {
            seed,
            domain,
            rate: if rate.is_nan() {
                0.0
            } else {
                rate.clamp(0.0, 1.0)
            },
            k: 0,
            next_at: u64::MAX,
        };
        if s.rate > 0.0 {
            s.next_at = s.gap(0).saturating_sub(1); // first event ≥ cycle 0
        }
        s
    }

    /// Geometric inter-arrival gap (≥ 1) for event `k`.
    fn gap(&self, k: u64) -> u64 {
        let u = unit(draw(self.seed, self.domain, k, SALT_GAP));
        // Inverse-CDF of the geometric distribution with success
        // probability `rate`: floor(ln(1-u)/ln(1-rate)) + 1. ln_1p keeps
        // precision at the tiny rates the sweeps use (1e-9 and below).
        let g = ((-u).ln_1p() / (-self.rate).ln_1p()).floor();
        if g >= 9.0e18 {
            u64::MAX
        } else {
            g as u64 + 1
        }
    }

    /// Absolute cycle of the next scheduled event (`u64::MAX` = never).
    #[inline]
    #[must_use]
    pub(crate) fn next_at(&self) -> u64 {
        self.next_at
    }

    /// Whether an event is due at or before `now`.
    #[inline]
    #[must_use]
    pub(crate) fn due(&self, now: u64) -> bool {
        self.next_at <= now
    }

    /// Consumes the due event and returns a payload draw for it (pure in
    /// the event index), advancing `next_at` to the following arrival.
    pub(crate) fn pop(&mut self, salt: u64) -> u64 {
        debug_assert_ne!(self.next_at, u64::MAX, "pop on a disabled schedule");
        let payload = draw(self.seed, self.domain, self.k, salt);
        self.k += 1;
        self.next_at = self.next_at.saturating_add(self.gap(self.k));
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let s = FaultSchedule::new(1, 2, 0.0);
        assert_eq!(s.next_at(), u64::MAX);
        assert!(!s.due(u64::MAX - 1));
    }

    #[test]
    fn arrivals_are_deterministic_and_strictly_increasing() {
        let mut a = FaultSchedule::new(9, 3, 1e-3);
        let mut b = FaultSchedule::new(9, 3, 1e-3);
        let mut prev = None;
        for _ in 0..100 {
            assert_eq!(a.next_at(), b.next_at());
            if let Some(p) = prev {
                assert!(a.next_at() > p, "arrivals must advance");
            }
            prev = Some(a.next_at());
            let (pa, pb) = (a.pop(7), b.pop(7));
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn mean_gap_tracks_the_rate() {
        let mut s = FaultSchedule::new(4, 4, 1e-2);
        let mut last = 0;
        let n = 2000;
        for _ in 0..n {
            last = s.next_at();
            s.pop(0);
        }
        let mean = last as f64 / n as f64;
        assert!(
            (mean - 100.0).abs() < 10.0,
            "mean gap {mean} far from 1/rate = 100"
        );
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultSchedule::new(1, 2, 1e-3);
        let b = FaultSchedule::new(2, 2, 1e-3);
        assert_ne!(a.next_at(), b.next_at());
    }
}
