//! The inter-cube SerDes link model: cluster topologies, per-link
//! bandwidth/latency/energy parameters, and the cycle/Joule arithmetic
//! every transfer is charged with.
//!
//! A cluster is a set of Neurocubes joined by full-duplex SerDes links in
//! a fixed topology (Neurostream's "network of smart memory cubes"). The
//! model is deliberately coarse — hop-count routing over ideal links, one
//! egress serializer per cube — because the certified-bound planner in
//! [`crate::shard`] only needs transfer *lower bounds* and the executor
//! in [`crate::exec`] charges the same formulas, so plan and execution
//! agree by construction. Cycle arithmetic lives in
//! [`neurocube_golden::timing`] (the bound side) and energy in
//! [`neurocube_power::hmc`] (the Joule side); this module just binds them
//! to a configured link.

use neurocube_golden::{link_serialization_cycles, link_transfer_cycles};
use neurocube_power::hmc::{serdes_transfer_j, SERDES_PJ_PER_BIT};

/// How the member cubes are wired together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterTopology {
    /// A bidirectional ring of `n` cubes; messages take the shorter way
    /// around.
    Ring(usize),
    /// A `width × height` 2D mesh, row-major cube indices, dimension-order
    /// (Manhattan) routing.
    Mesh {
        /// Cubes per row.
        width: usize,
        /// Rows.
        height: usize,
    },
}

impl ClusterTopology {
    /// A near-square mesh holding at least `cubes` cubes (width ≥ height).
    pub fn square_mesh(cubes: usize) -> ClusterTopology {
        let height = ((cubes as f64).sqrt().floor() as usize).max(1);
        let width = cubes.div_ceil(height);
        ClusterTopology::Mesh { width, height }
    }

    /// Total cube slots the topology provides.
    pub fn cubes(&self) -> usize {
        match *self {
            ClusterTopology::Ring(n) => n,
            ClusterTopology::Mesh { width, height } => width * height,
        }
    }

    /// Link hops between cubes `a` and `b` under the topology's routing.
    ///
    /// # Panics
    ///
    /// Panics when either index is outside the topology.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let n = self.cubes();
        assert!(
            a < n && b < n,
            "cube index out of topology ({a}, {b} vs {n})"
        );
        match *self {
            ClusterTopology::Ring(n) => {
                let d = a.abs_diff(b);
                d.min(n - d) as u64
            }
            ClusterTopology::Mesh { width, .. } => {
                let (ax, ay) = (a % width, a / width);
                let (bx, by) = (b % width, b / width);
                (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
            }
        }
    }
}

/// One cluster's SerDes link parameters: the topology plus the per-link
/// bandwidth, latency and energy figures every transfer is charged with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// How the cubes are wired.
    pub topology: ClusterTopology,
    /// Per-link bandwidth in GB/s (HMC external SerDes class: 40).
    pub bandwidth_gbps: f64,
    /// Per-hop link latency in nanoseconds.
    pub latency_ns: f64,
    /// SerDes energy in pJ per bit per hop.
    pub pj_per_bit: f64,
}

impl LinkConfig {
    /// HMC-class external SerDes defaults on a ring of `cubes` cubes:
    /// 40 GB/s, 100 ns per hop, [`SERDES_PJ_PER_BIT`] pJ/bit.
    pub fn hmc_ext(cubes: usize) -> LinkConfig {
        LinkConfig {
            topology: ClusterTopology::Ring(cubes),
            bandwidth_gbps: 40.0,
            latency_ns: 100.0,
            pj_per_bit: SERDES_PJ_PER_BIT,
        }
    }

    /// Reference-clock cycles for `bytes` to cross `hops` links (pacing
    /// plus per-hop latency) — the golden lower bound the executor charges
    /// verbatim.
    pub(crate) fn transfer_cycles(&self, bytes: u64, hops: u64) -> u64 {
        link_transfer_cycles(bytes, hops, self.bandwidth_gbps, self.latency_ns)
    }

    /// Cycles the *source* egress serializer is busy with `bytes` — the
    /// back-to-back pacing term, without latency.
    pub(crate) fn serialization_cycles(&self, bytes: u64) -> u64 {
        link_serialization_cycles(bytes, self.bandwidth_gbps)
    }

    /// SerDes energy in Joules for `bytes` across `hops` links.
    pub(crate) fn transfer_j(&self, bytes: u64, hops: u64) -> f64 {
        serdes_transfer_j(bytes, hops, self.pj_per_bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_takes_the_shorter_way() {
        let t = ClusterTopology::Ring(8);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(6, 1), 3);
        assert_eq!(t.hops(3, 3), 0);
    }

    #[test]
    fn mesh_routes_manhattan_row_major() {
        let t = ClusterTopology::Mesh {
            width: 4,
            height: 2,
        };
        assert_eq!(t.cubes(), 8);
        assert_eq!(t.hops(0, 3), 3); // same row
        assert_eq!(t.hops(0, 4), 1); // same column, next row
        assert_eq!(t.hops(3, 4), 4); // row wrap: 3 left + 1 down
    }

    #[test]
    fn square_mesh_covers_the_cluster() {
        for cubes in 1..=64 {
            let t = ClusterTopology::square_mesh(cubes);
            assert!(t.cubes() >= cubes, "{cubes}: {t:?}");
        }
        assert_eq!(
            ClusterTopology::square_mesh(16),
            ClusterTopology::Mesh {
                width: 4,
                height: 4
            }
        );
    }

    #[test]
    fn link_charges_match_the_golden_and_power_formulas() {
        let link = LinkConfig::hmc_ext(4);
        assert_eq!(link.transfer_cycles(8_000, 2), 2_000);
        assert_eq!(link.serialization_cycles(8_000), 1_000);
        assert_eq!(link.transfer_cycles(0, 3), 0);
        // One hop: latency plus ceil(serialization), never one over.
        assert_eq!(link.transfer_cycles(2, 1), 501);
        assert_eq!(link.transfer_cycles(8, 1), 501);
        assert_eq!(link.transfer_cycles(4_096, 1), 512 + 500);
        assert_eq!(link.transfer_cycles(40_000_000_000, 1), 5_000_000_500);
        let j = link.transfer_j(1, 1);
        assert!((j - 8.0 * 10.0 * 1e-12).abs() < 1e-18);
    }
}
