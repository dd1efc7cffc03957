//! Shared randomized-case generators for the cross-crate differential
//! suites. Each integration-test binary compiles its own copy (Cargo's
//! `tests/common` convention), so unused items are expected per binary.
#![allow(dead_code)]

use neurocube_fixed::Activation;
use neurocube_nn::{GraphBuilder, GraphSpec, LayerSpec, NetworkSpec, Shape, INPUT};
use proptest::prelude::*;

/// One randomized differential case: a small (cycle-simulation-friendly)
/// network plus the mapping flavor and the parameter seed.
#[derive(Clone, Debug)]
pub struct DiffCase {
    pub net: NetworkSpec,
    pub dup: bool,
    pub seed: u64,
}

pub fn activation(idx: u32) -> Activation {
    match idx % 4 {
        0 => Activation::Identity,
        1 => Activation::ReLU,
        2 => Activation::Sigmoid,
        _ => Activation::Tanh,
    }
}

/// Random small networks spanning every layer kind, both mapping
/// flavors (duplicate/partitioned) and all four activations. Shrinking
/// moves every coordinate toward its minimum, so counterexamples
/// converge to the smallest geometry that still fails.
pub fn diff_case() -> impl Strategy<Value = DiffCase> {
    (
        6u32..13,      // input height
        6u32..13,      // input width
        1u32..3,       // input channels
        0u32..6,       // architecture pick
        0u32..4,       // activation of the feature layers
        0u32..4,       // activation of the classifier layers
        any::<bool>(), // duplicate input volumes
        0u64..1 << 32, // parameter seed
    )
        .prop_filter_map(
            "valid network geometry",
            |(h, w, c, arch, a0, a1, dup, seed)| {
                let (a0, a1) = (activation(a0), activation(a1));
                let layers = match arch {
                    0 => vec![
                        LayerSpec::conv(1 + (w as usize % 3), 3, a0),
                        LayerSpec::fc(1 + (h as usize % 8), a1),
                    ],
                    1 => vec![
                        LayerSpec::conv(2, 3, a0),
                        LayerSpec::AvgPool { size: 2 },
                        LayerSpec::fc(4, a1),
                    ],
                    2 => vec![
                        LayerSpec::fc(1 + (w as usize % 12), a0),
                        LayerSpec::fc(1 + (h as usize % 6), a1),
                    ],
                    3 => vec![LayerSpec::conv(2, 5, a0), LayerSpec::fc(3, a1)],
                    4 => vec![LayerSpec::AvgPool { size: 2 }, LayerSpec::fc(5, a1)],
                    _ => vec![
                        LayerSpec::conv(1, 3, a0),
                        LayerSpec::conv(2, 3, a1),
                        LayerSpec::fc(2, a0),
                    ],
                };
                let net = NetworkSpec::new(Shape::new(c as usize, h as usize, w as usize), layers)
                    .ok()?;
                Some(DiffCase { net, dup, seed })
            },
        )
}

/// One randomized graph-compiler case: a small layer DAG plus the
/// mapping flavor and the parameter seed.
#[derive(Clone, Debug)]
pub struct GraphCase {
    pub graph: GraphSpec,
    pub dup: bool,
    pub seed: u64,
}

/// Random small layer DAGs spanning every graph feature the compiler
/// pipelines: residual `Add` (two- and three-way), channel `Concat`
/// (of siblings and of a node with its own refinement), spatial layers
/// downstream of aliased buffers, and the trivial linear embedding.
/// Shrinking converges to the smallest DAG that still fails.
pub fn graph_case() -> impl Strategy<Value = GraphCase> {
    (
        6u32..13,      // input height
        6u32..13,      // input width
        1u32..3,       // input channels
        0u32..5,       // archetype pick
        0u32..4,       // activation of the feature nodes
        0u32..4,       // activation of the head
        any::<bool>(), // duplicate input volumes
        0u64..1 << 32, // parameter seed
    )
        .prop_filter_map(
            "valid graph geometry",
            |(h, w, c, arch, a0, a1, dup, seed)| {
                let (a0, a1) = (activation(a0), activation(a1));
                let input = Shape::new(c as usize, h as usize, w as usize);
                let mut g = GraphBuilder::new(input);
                match arch {
                    0 => {
                        // ResNet-style: stem, 1x1 branch, residual sum, head.
                        g.layer("stem", INPUT, LayerSpec::conv(2, 3, a0));
                        g.layer(
                            "branch",
                            "stem",
                            LayerSpec::conv(2, 1, Activation::Identity),
                        );
                        g.add("res", &["stem", "branch"], a1);
                        g.layer("head", "res", LayerSpec::fc(1 + (h as usize % 6), a1));
                    }
                    1 => {
                        // Inception-style: sibling convs over the input,
                        // channel-concatenated.
                        g.layer("left", INPUT, LayerSpec::conv(1 + (w as usize % 2), 3, a0));
                        g.layer("right", INPUT, LayerSpec::conv(2, 3, a1));
                        g.concat("cat", &["left", "right"]);
                        g.layer("head", "cat", LayerSpec::fc(4, a0));
                    }
                    2 => {
                        // Trivial linear embedding of a plain NetworkSpec.
                        let net = NetworkSpec::new(
                            input,
                            vec![
                                LayerSpec::conv(2, 3, a0),
                                LayerSpec::fc(1 + (w as usize % 8), a1),
                            ],
                        )
                        .ok()?;
                        return Some(GraphCase {
                            graph: net.to_graph(),
                            dup,
                            seed,
                        });
                    }
                    3 => {
                        // Concat of a stem with its own 1x1 refinement,
                        // then a spatial consumer of the aliased buffer.
                        g.layer("stem", INPUT, LayerSpec::conv(2, 3, a0));
                        g.layer("refine", "stem", LayerSpec::conv(2, 1, a1));
                        g.concat("cat", &["stem", "refine"]);
                        g.layer("pool", "cat", LayerSpec::AvgPool { size: 2 });
                        g.layer("head", "pool", LayerSpec::fc(3, a0));
                    }
                    _ => {
                        // Three-way residual sum of 1x1 views of a stem.
                        g.layer("stem", INPUT, LayerSpec::conv(2, 3, a0));
                        g.layer("b1", "stem", LayerSpec::conv(2, 1, a1));
                        g.layer("b2", "stem", LayerSpec::conv(2, 1, Activation::Identity));
                        g.add("res", &["stem", "b1", "b2"], a0);
                        g.layer("head", "res", LayerSpec::fc(5, a1));
                    }
                }
                let graph = g.build().ok()?;
                Some(GraphCase { graph, dup, seed })
            },
        )
}
