//! Typed host-compiler errors.
//!
//! Every failure mode of graph compilation, weight placement and host
//! data loading is a [`CompileError`], returned as a `Result`.

use neurocube_nn::GraphError;
use neurocube_noc::NocError;
use std::fmt;

/// Errors produced by the host compiler and loaders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A vault's DRAM region cannot hold its share of the layout.
    VaultOverCapacity {
        /// The overflowing vault.
        vault: usize,
        /// Bytes the layout needs in that vault.
        needed: u64,
        /// Bytes the vault provides.
        capacity: u64,
    },
    /// The parameter set has the wrong number of layers.
    WeightLayerCount {
        /// Layers the network declares.
        expected: usize,
        /// Layers the parameter set provides.
        got: usize,
    },
    /// One layer's weight image has the wrong length.
    WeightImageSize {
        /// Index of the offending layer.
        layer: usize,
        /// Weights the layer declares.
        expected: usize,
        /// Weights the image provides.
        got: usize,
    },
    /// A volume payload has the wrong length.
    VolumeSize {
        /// Values the volume's shape requires.
        expected: usize,
        /// Values provided.
        got: usize,
    },
    /// The graph itself failed validation.
    Graph(GraphError),
    /// The target fabric cannot be constructed (oversized topology).
    Noc(NocError),
    /// A cluster was asked to run on zero cubes.
    EmptyPool,
    /// The sharding planner ran out of cubes: no legal split of the graph
    /// fits the cluster.
    ClusterOverCapacity {
        /// Cubes the cheapest feasible placement would need.
        needed: usize,
        /// Cubes the cluster provides.
        available: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::VaultOverCapacity {
                vault,
                needed,
                capacity,
            } => write!(f, "vault {vault} over capacity: {needed} > {capacity}"),
            CompileError::WeightLayerCount { expected, got } => {
                write!(f, "parameter set has {got} layers, network has {expected}")
            }
            CompileError::WeightImageSize {
                layer,
                expected,
                got,
            } => write!(
                f,
                "layer {layer} weight image has {got} weights, expected {expected}"
            ),
            CompileError::VolumeSize { expected, got } => {
                write!(f, "volume payload has {got} values, expected {expected}")
            }
            CompileError::Graph(e) => write!(f, "invalid graph: {e}"),
            CompileError::Noc(e) => write!(f, "fabric not constructible: {e}"),
            CompileError::EmptyPool => write!(f, "a cluster needs at least one cube"),
            CompileError::ClusterOverCapacity { needed, available } => write!(
                f,
                "cluster over capacity: placement needs {needed} cubes, {available} available"
            ),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Graph(e) => Some(e),
            CompileError::Noc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> CompileError {
        CompileError::Graph(e)
    }
}

impl From<NocError> for CompileError {
    fn from(e: NocError) -> CompileError {
        CompileError::Noc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_capacity_wording() {
        let e = CompileError::VaultOverCapacity {
            vault: 3,
            needed: 10,
            capacity: 5,
        };
        assert_eq!(e.to_string(), "vault 3 over capacity: 10 > 5");
    }

    #[test]
    fn graph_errors_wrap_with_source() {
        use std::error::Error;
        let e = CompileError::from(GraphError::Cycle);
        assert!(e.to_string().contains("cycle"));
        assert!(e.source().is_some());
    }

    #[test]
    fn empty_pool_names_a_cluster() {
        // `shard_graph` and `Cluster::new` raise it for a zero-cube
        // fabric.
        let e = CompileError::EmptyPool;
        assert_eq!(e.to_string(), "a cluster needs at least one cube");
        use std::error::Error;
        assert!(e.source().is_none());
    }

    #[test]
    fn cluster_over_capacity_names_both_counts() {
        let e = CompileError::ClusterOverCapacity {
            needed: 5,
            available: 3,
        };
        assert_eq!(
            e.to_string(),
            "cluster over capacity: placement needs 5 cubes, 3 available"
        );
    }

    #[test]
    fn noc_errors_wrap_with_source() {
        use std::error::Error;
        let e = CompileError::from(NocError::MeshTooLarge {
            nodes: 144,
            max: 128,
        });
        assert!(e.to_string().contains("fabric not constructible"));
        assert!(e.to_string().contains("144 routers"));
        assert!(e.source().is_some());
    }
}
