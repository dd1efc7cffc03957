//! NoC wiring: 2D mesh (Fig. 6(a)) and fully connected (Fig. 6(b)).

use crate::packet::NodeId;
use std::fmt;

/// The fabric wiring pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// `width × height` 2D mesh with deterministic X-Y routing — the
    /// Neurocube's native NoC (4×4 for the 16-vault HMC).
    Mesh {
        /// Routers per row.
        width: u8,
        /// Rows.
        height: u8,
    },
    /// Every router directly linked to every other (§VI-C). One hop between
    /// any pair; each router needs `nodes + 1` I/O channels, which the paper
    /// notes is a high-radix design.
    FullyConnected {
        /// Router count.
        nodes: u8,
    },
}

impl Topology {
    /// The paper's 4×4 mesh.
    pub const fn mesh4x4() -> Topology {
        Topology::Mesh {
            width: 4,
            height: 4,
        }
    }

    /// Number of routers in the fabric.
    pub fn nodes(&self) -> u8 {
        match *self {
            Topology::Mesh { width, height } => width * height,
            Topology::FullyConnected { nodes } => nodes,
        }
    }

    /// Number of router-to-router ports on each router (excluding the PE
    /// and memory ports).
    pub(crate) fn mesh_ports(&self) -> usize {
        match *self {
            Topology::Mesh { .. } => 4,
            Topology::FullyConnected { nodes } => usize::from(nodes) - 1,
        }
    }

    /// Total ports per router including PE and memory ports.
    pub fn ports(&self) -> usize {
        self.mesh_ports() + 2
    }

    /// Minimal hop distance between two nodes (Manhattan for the mesh, 0/1
    /// for fully connected).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        match *self {
            Topology::Mesh { width, .. } => {
                let (ax, ay) = (a % width, a / width);
                let (bx, by) = (b % width, b / width);
                u32::from(ax.abs_diff(bx)) + u32::from(ay.abs_diff(by))
            }
            Topology::FullyConnected { .. } => u32::from(a != b),
        }
    }

    /// The router-port a packet at `cur` must take to reach `dst`, or `None`
    /// if it has arrived. Mesh routing is deterministic X-then-Y, the
    /// paper's stated algorithm; it is deadlock-free for single-flit packets
    /// with finite buffers because the X→Y turn order admits no cyclic
    /// channel dependencies.
    ///
    /// Port numbering for the mesh: 0 = +x (east), 1 = −x (west),
    /// 2 = +y (south), 3 = −y (north). For fully connected, port `p` leads
    /// to node `p` if `p < cur`, otherwise to node `p + 1`.
    pub fn route(&self, cur: NodeId, dst: NodeId) -> Option<usize> {
        if cur == dst {
            return None;
        }
        match *self {
            Topology::Mesh { width, .. } => {
                let (cx, cy) = (cur % width, cur / width);
                let (dx, dy) = (dst % width, dst / width);
                Some(if dx > cx {
                    0
                } else if dx < cx {
                    1
                } else if dy > cy {
                    2
                } else {
                    3
                })
            }
            Topology::FullyConnected { .. } => Some(if dst < cur {
                usize::from(dst)
            } else {
                usize::from(dst) - 1
            }),
        }
    }

    /// The node reached by leaving `cur` through router-port `port`, or
    /// `None` if that port has no link (mesh edge).
    pub fn neighbor(&self, cur: NodeId, port: usize) -> Option<NodeId> {
        match *self {
            Topology::Mesh { width, height } => {
                let (cx, cy) = (cur % width, cur / width);
                match port {
                    0 if cx + 1 < width => Some(cur + 1),
                    1 if cx > 0 => Some(cur - 1),
                    2 if cy + 1 < height => Some(cur + width),
                    3 if cy > 0 => Some(cur - width),
                    _ => None,
                }
            }
            Topology::FullyConnected { nodes } => {
                let target = if (port as u8) < cur {
                    port as u8
                } else {
                    port as u8 + 1
                };
                (target < nodes && port < usize::from(nodes) - 1).then_some(target)
            }
        }
    }

    /// The input port on the *receiving* router corresponding to a link
    /// leaving `cur` through `port` (links are bidirectional pairs).
    pub(crate) fn reverse_port(&self, cur: NodeId, port: usize) -> usize {
        match *self {
            // East pairs with west, south with north.
            Topology::Mesh { .. } => port ^ 1,
            Topology::FullyConnected { .. } => {
                let target = self
                    .neighbor(cur, port)
                    .expect("reverse_port of unconnected port");
                // On `target`, the port leading back to `cur`:
                if cur < target {
                    usize::from(cur)
                } else {
                    usize::from(cur) - 1
                }
            }
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Mesh { width, height } => write!(f, "{width}x{height} mesh"),
            Topology::FullyConnected { nodes } => write!(f, "{nodes}-node fully connected"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_geometry() {
        let t = Topology::mesh4x4();
        assert_eq!(t.nodes(), 16);
        assert_eq!(t.ports(), 6);
        assert_eq!(t.hops(0, 15), 6);
        assert_eq!(t.hops(5, 5), 0);
        assert_eq!(t.hops(0, 3), 3);
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let t = Topology::mesh4x4();
        // node 0 = (0,0), node 15 = (3,3): east until x matches, then south.
        assert_eq!(t.route(0, 15), Some(0));
        assert_eq!(t.route(3, 15), Some(2));
        assert_eq!(t.route(15, 15), None);
        // Westward and northward.
        assert_eq!(t.route(15, 0), Some(1));
        assert_eq!(t.route(12, 0), Some(3));
    }

    #[test]
    fn mesh_neighbors_respect_edges() {
        let t = Topology::mesh4x4();
        assert_eq!(t.neighbor(0, 0), Some(1)); // east
        assert_eq!(t.neighbor(0, 1), None); // west edge
        assert_eq!(t.neighbor(0, 2), Some(4)); // south
        assert_eq!(t.neighbor(0, 3), None); // north edge
        assert_eq!(t.neighbor(15, 0), None);
        assert_eq!(t.neighbor(15, 3), Some(11));
    }

    #[test]
    fn mesh_links_are_symmetric() {
        let t = Topology::mesh4x4();
        for node in 0..16u8 {
            for port in 0..4 {
                if let Some(n) = t.neighbor(node, port) {
                    let back = t.reverse_port(node, port);
                    assert_eq!(t.neighbor(n, back), Some(node), "node {node} port {port}");
                }
            }
        }
    }

    #[test]
    fn xy_routing_reaches_destination() {
        let t = Topology::mesh4x4();
        for src in 0..16u8 {
            for dst in 0..16u8 {
                let mut cur = src;
                let mut hops = 0;
                while let Some(port) = t.route(cur, dst) {
                    cur = t.neighbor(cur, port).expect("route led off the mesh");
                    hops += 1;
                    assert!(hops <= 6, "routing loop {src}->{dst}");
                }
                assert_eq!(cur, dst);
                assert_eq!(hops, t.hops(src, dst));
            }
        }
    }

    #[test]
    fn fully_connected_is_single_hop() {
        let t = Topology::FullyConnected { nodes: 16 };
        assert_eq!(t.nodes(), 16);
        assert_eq!(t.ports(), 17); // 15 mesh + PE + memory: the paper's "17 input/output channels"
        for src in 0..16u8 {
            for dst in 0..16u8 {
                if src == dst {
                    assert_eq!(t.route(src, dst), None);
                } else {
                    let port = t.route(src, dst).unwrap();
                    assert_eq!(t.neighbor(src, port), Some(dst));
                    assert_eq!(t.hops(src, dst), 1);
                }
            }
        }
    }

    #[test]
    fn fully_connected_links_are_symmetric() {
        let t = Topology::FullyConnected { nodes: 8 };
        for node in 0..8u8 {
            for port in 0..7 {
                let n = t.neighbor(node, port).unwrap();
                let back = t.reverse_port(node, port);
                assert_eq!(t.neighbor(n, back), Some(node));
            }
        }
    }

    #[test]
    fn display_names_topologies() {
        assert_eq!(Topology::mesh4x4().to_string(), "4x4 mesh");
        assert_eq!(
            Topology::FullyConnected { nodes: 16 }.to_string(),
            "16-node fully connected"
        );
    }
}
