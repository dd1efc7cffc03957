//! Flattened router state: all port queues of all routers live in one
//! struct-of-arrays ring-buffer pool, indexed by `(router, port)`.
//!
//! The fabric used to hold a `Vec<VecDeque<Flit>>` pair per router; on the
//! saturated fig. 14 shapes the per-cycle switch-allocation and link
//! phases walk every busy queue, so the queue headers now sit in three
//! dense arrays (`head`, `len`, and a fixed-stride slot pool). One queue's
//! storage is a [`BUFFER_DEPTH`]-slot ring at a fixed offset, so "the
//! queue of router `r`, port `p`" is pure index arithmetic — no pointer
//! chasing, and the headers of all ports of a router share cache lines.

use crate::packet::{Packet, PacketKind};

/// Packet-buffer depth of every input and output channel (§III-C: "a
/// 16-depth packet buffer for each input and output channel").
pub(crate) const BUFFER_DEPTH: usize = 16;

/// Ring-index mask; the depth is a power of two by construction.
const RING_MASK: usize = BUFFER_DEPTH - 1;

/// A packet in flight, with the bookkeeping the fabric needs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Flit {
    pub pkt: Packet,
    /// Cycle at which the flit entered its current buffer; it may not move
    /// again until a strictly later cycle (one pipeline stage per cycle).
    pub entered: u64,
    /// Cycle at which the flit was injected into the fabric (for latency).
    pub injected: u64,
    /// Links traversed so far.
    pub hops: u32,
}

/// Filler for never-written ring slots.
const EMPTY_FLIT: Flit = Flit {
    pkt: Packet {
        dst: 0,
        src: 0,
        mac_id: 0,
        op_id: 0,
        kind: PacketKind::State,
        data: 0,
    },
    entered: 0,
    injected: 0,
    hops: 0,
};

/// A pool of fixed-depth FIFO queues in struct-of-arrays layout: queue `q`
/// owns the ring `slots[q * BUFFER_DEPTH ..][..BUFFER_DEPTH]` described by
/// `head[q]` / `len[q]`. The fabric keeps two pools (inputs and outputs),
/// each indexed by `router * ports + port`.
#[derive(Clone, Debug)]
pub(crate) struct FlatQueues {
    slots: Vec<Flit>,
    head: Vec<u8>,
    len: Vec<u8>,
}

impl FlatQueues {
    pub(crate) fn new(queues: usize) -> FlatQueues {
        FlatQueues {
            slots: vec![EMPTY_FLIT; queues * BUFFER_DEPTH],
            head: vec![0; queues],
            len: vec![0; queues],
        }
    }

    #[inline]
    pub(crate) fn len(&self, q: usize) -> usize {
        usize::from(self.len[q])
    }

    #[inline]
    pub(crate) fn is_full(&self, q: usize) -> bool {
        self.len(q) >= BUFFER_DEPTH
    }

    #[inline]
    pub(crate) fn front(&self, q: usize) -> Option<&Flit> {
        if self.len[q] == 0 {
            None
        } else {
            Some(&self.slots[q * BUFFER_DEPTH + usize::from(self.head[q])])
        }
    }

    #[inline]
    pub(crate) fn front_mut(&mut self, q: usize) -> Option<&mut Flit> {
        if self.len[q] == 0 {
            None
        } else {
            Some(&mut self.slots[q * BUFFER_DEPTH + usize::from(self.head[q])])
        }
    }

    /// Appends at the tail. Callers check [`is_full`](Self::is_full) first
    /// (that refusal *is* the credit-based flow control).
    #[inline]
    pub(crate) fn push_back(&mut self, q: usize, f: Flit) {
        let n = usize::from(self.len[q]);
        debug_assert!(n < BUFFER_DEPTH, "push into a full ring");
        let tail = (usize::from(self.head[q]) + n) & RING_MASK;
        self.slots[q * BUFFER_DEPTH + tail] = f;
        self.len[q] = (n + 1) as u8;
    }

    #[inline]
    pub(crate) fn pop_front(&mut self, q: usize) -> Option<Flit> {
        if self.len[q] == 0 {
            return None;
        }
        let h = usize::from(self.head[q]);
        let f = self.slots[q * BUFFER_DEPTH + h];
        self.head[q] = ((h + 1) & RING_MASK) as u8;
        self.len[q] -= 1;
        Some(f)
    }

    /// Total buffered flits across a contiguous queue range (diagnostics
    /// and consistency asserts).
    pub(crate) fn occupancy_range(&self, range: std::ops::Range<usize>) -> usize {
        self.len[range].iter().map(|&n| usize::from(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(data: u16) -> Flit {
        Flit {
            pkt: Packet {
                data,
                ..EMPTY_FLIT.pkt
            },
            ..EMPTY_FLIT
        }
    }

    #[test]
    fn rings_are_fifo_and_independent() {
        let mut q = FlatQueues::new(3);
        for i in 0..5u16 {
            q.push_back(1, flit(i));
        }
        q.push_back(2, flit(99));
        assert_eq!(q.len(0), 0);
        assert_eq!(q.len(1), 5);
        assert_eq!(q.front(1).unwrap().pkt.data, 0);
        for i in 0..5u16 {
            assert_eq!(q.pop_front(1).unwrap().pkt.data, i);
        }
        assert!(q.pop_front(1).is_none());
        assert_eq!(q.pop_front(2).unwrap().pkt.data, 99);
    }

    #[test]
    fn ring_wraps_at_depth() {
        let mut q = FlatQueues::new(1);
        // Drive head all the way around the ring several times.
        for round in 0..5u16 {
            for i in 0..BUFFER_DEPTH as u16 {
                q.push_back(0, flit(round * 100 + i));
            }
            assert!(q.is_full(0));
            for i in 0..BUFFER_DEPTH as u16 {
                assert_eq!(q.pop_front(0).unwrap().pkt.data, round * 100 + i);
            }
        }
        assert_eq!(q.occupancy_range(0..1), 0);
    }
}
