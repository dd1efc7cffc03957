//! Layer DAGs: named nodes, branches, residual `Add` and `Concat`.
//!
//! A [`GraphSpec`] generalizes the linear [`NetworkSpec`] to an arbitrary
//! directed acyclic graph of layers. Every node consumes the **channel
//! concatenation** of its listed inputs (a single input is the volume
//! itself) and is one of:
//!
//! * a [`LayerSpec`] node — executed on the cube as one compiled phase
//!   (residual `Add` lowers to [`LayerSpec::Eltwise`] over the
//!   concatenation of its summands),
//! * a [`GraphOp::Concat`] node — pure data placement: the graph compiler
//!   aliases the parts into one channel-stacked volume, so concatenation
//!   costs no cycles at all.
//!
//! Validation enforces the rules the vault-level compiler relies on (see
//! `DESIGN.md` §10): unique names, acyclicity, a single sink, spatially
//! compatible concatenation parts, no flat (fully-connected-produced)
//! volumes feeding spatial operators, and at most one aliasing consumer
//! per produced volume. Construction topologically sorts the nodes, so
//! [`GraphSpec::nodes`] *is* the execution schedule.

use crate::layer::{LayerSpec, Shape};
use crate::network::NetworkSpec;
use neurocube_fixed::{Activation, Q88};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// The reserved input name: a node listing `"input"` reads the graph input.
pub const INPUT: &str = "input";

/// What a graph node does with its (concatenated) input volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphOp {
    /// Execute a layer on the cube.
    Layer(LayerSpec),
    /// Channel-stack the inputs without computing anything; the compiler
    /// lowers this to pure volume aliasing.
    Concat,
}

/// One node of a layer DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphNode {
    /// Unique node name (also the report label).
    pub name: String,
    /// Producer names (or [`INPUT`]), concatenated channel-wise in order.
    pub inputs: Vec<String>,
    /// The operation applied to the concatenated input.
    pub op: GraphOp,
}

/// A resolved input reference of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSource {
    /// The graph input volume.
    Input,
    /// The output volume of the node at this (topological) index.
    Node(usize),
}

/// Errors produced when validating a [`GraphSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// Two nodes share a name, or a node is named [`INPUT`].
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A node references an input name that no node produces.
    UnknownInput {
        /// The referencing node.
        node: String,
        /// The unresolved name.
        input: String,
    },
    /// A node lists no inputs.
    NoInputs {
        /// The offending node.
        node: String,
    },
    /// The graph contains a dependency cycle.
    Cycle,
    /// More than one node has no consumer; the graph output is ambiguous.
    MultipleSinks {
        /// The names of the competing sinks.
        names: Vec<String>,
    },
    /// Concatenation parts disagree on spatial extent.
    ConcatShapeMismatch {
        /// The concatenating node.
        node: String,
    },
    /// A flat (1×1) volume cannot be channel-concatenated: flat layouts
    /// are round-robin partitioned and have no common spatial tiling to
    /// alias into.
    FlatConcat {
        /// The concatenating node.
        node: String,
    },
    /// The same producer appears twice in one concatenation — a volume
    /// cannot occupy two channel slices of a single buffer.
    DuplicateOperand {
        /// The concatenating node.
        node: String,
        /// The repeated producer.
        input: String,
    },
    /// A produced volume feeds more than one concatenating consumer; it
    /// can be aliased into at most one stacked buffer.
    SharedConcatInput {
        /// The multiply-aliased producer (or [`INPUT`]).
        input: String,
    },
    /// A `Concat` output cannot itself be a part of another concatenation
    /// (the alias chain would need recursive re-slicing).
    NestedConcat {
        /// The outer concatenating node.
        node: String,
    },
    /// A residual `Add` requires equally shaped summands.
    AddShapeMismatch {
        /// The adding node.
        node: String,
    },
    /// A spatial operator (conv/pool/add) cannot consume a flat volume
    /// (the rule [`NetworkSpec::new`] enforces for chains too).
    SpatialAfterFlat {
        /// The offending node.
        node: String,
    },
    /// A layer cannot be applied to its (concatenated) input volume.
    BadGeometry {
        /// The offending node.
        node: String,
        /// The input volume it was offered.
        input: Shape,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => f.write_str("graph has no nodes"),
            GraphError::DuplicateName { name } => {
                write!(f, "duplicate or reserved node name {name:?}")
            }
            GraphError::UnknownInput { node, input } => {
                write!(f, "node {node:?} references unknown input {input:?}")
            }
            GraphError::NoInputs { node } => write!(f, "node {node:?} lists no inputs"),
            GraphError::Cycle => f.write_str("graph contains a dependency cycle"),
            GraphError::MultipleSinks { names } => {
                write!(f, "graph has multiple sinks: {names:?}")
            }
            GraphError::ConcatShapeMismatch { node } => {
                write!(f, "node {node:?} concatenates spatially incompatible parts")
            }
            GraphError::FlatConcat { node } => {
                write!(f, "node {node:?} concatenates a flat (1x1) volume")
            }
            GraphError::DuplicateOperand { node, input } => {
                write!(f, "node {node:?} lists {input:?} twice")
            }
            GraphError::SharedConcatInput { input } => {
                write!(f, "{input:?} feeds more than one concatenating consumer")
            }
            GraphError::NestedConcat { node } => {
                write!(f, "node {node:?} concatenates another concatenation")
            }
            GraphError::AddShapeMismatch { node } => {
                write!(f, "node {node:?} adds unequally shaped summands")
            }
            GraphError::SpatialAfterFlat { node } => {
                write!(
                    f,
                    "node {node:?} applies a spatial operator to a flat volume"
                )
            }
            GraphError::BadGeometry { node, input } => {
                write!(f, "node {node:?} does not fit its input volume {input}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated, topologically ordered layer DAG.
///
/// # Examples
///
/// ```
/// use neurocube_nn::{GraphBuilder, LayerSpec, Shape, INPUT};
/// use neurocube_fixed::Activation;
///
/// let mut g = GraphBuilder::new(Shape::new(1, 12, 12));
/// g.layer("stem", INPUT, LayerSpec::conv(4, 3, Activation::Tanh));
/// g.layer("branch", "stem", LayerSpec::conv(4, 1, Activation::Identity));
/// g.add("res", &["stem", "branch"], Activation::ReLU);
/// g.layer("head", "res", LayerSpec::fc(6, Activation::Sigmoid));
/// let graph = g.build()?;
/// assert_eq!(graph.output_shape(), Shape::flat(6));
/// # Ok::<(), neurocube_nn::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSpec {
    input: Shape,
    /// Nodes in topological (= execution) order.
    nodes: Vec<GraphNode>,
    /// Resolved input references per node.
    sources: Vec<Vec<GraphSource>>,
    /// Effective (concatenated) input shape per node.
    in_shapes: Vec<Shape>,
    /// Output shape per node.
    out_shapes: Vec<Shape>,
    /// Index of the single sink.
    output: usize,
}

/// `true` when a shape is flat — stored round-robin, like FC outputs.
fn is_flat(s: Shape) -> bool {
    s.height == 1 && s.width == 1
}

impl GraphSpec {
    /// Validates and topologically sorts a node list into a graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found (see the variant docs for
    /// the individual rules).
    pub fn new(input: Shape, nodes: Vec<GraphNode>) -> Result<GraphSpec, GraphError> {
        if nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut index = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if node.name == INPUT || index.insert(node.name.clone(), i).is_some() {
                return Err(GraphError::DuplicateName {
                    name: node.name.clone(),
                });
            }
        }
        // Resolve references (in the given order).
        let mut raw_sources = Vec::with_capacity(nodes.len());
        for node in &nodes {
            if node.inputs.is_empty() {
                return Err(GraphError::NoInputs {
                    node: node.name.clone(),
                });
            }
            let mut srcs = Vec::with_capacity(node.inputs.len());
            for input_name in &node.inputs {
                if input_name == INPUT {
                    srcs.push(GraphSource::Input);
                } else {
                    let &i = index
                        .get(input_name)
                        .ok_or_else(|| GraphError::UnknownInput {
                            node: node.name.clone(),
                            input: input_name.clone(),
                        })?;
                    srcs.push(GraphSource::Node(i));
                }
            }
            raw_sources.push(srcs);
        }
        // Kahn's algorithm for the topological schedule.
        let n = nodes.len();
        let mut indegree = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, srcs) in raw_sources.iter().enumerate() {
            for src in srcs {
                if let GraphSource::Node(j) = *src {
                    indegree[i] += 1;
                    consumers[j].push(i);
                }
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.reverse(); // pop() takes the lowest original index first
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(i);
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    // Keep the schedule stable: insert sorted by original
                    // index so ties resolve in declaration order.
                    let pos = ready.iter().rposition(|&r| r > c).map_or(0, |p| p + 1);
                    ready.insert(pos, c);
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::Cycle);
        }
        // Permute into topological order and remap references.
        let mut position = vec![0usize; n];
        for (pos, &old) in order.iter().enumerate() {
            position[old] = pos;
        }
        let mut sorted_nodes = Vec::with_capacity(n);
        let mut sources = Vec::with_capacity(n);
        for &old in &order {
            sorted_nodes.push(nodes[old].clone());
            sources.push(
                raw_sources[old]
                    .iter()
                    .map(|s| match *s {
                        GraphSource::Input => GraphSource::Input,
                        GraphSource::Node(j) => GraphSource::Node(position[j]),
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let nodes = sorted_nodes;

        // Shape propagation plus the aliasing rules.
        let mut in_shapes: Vec<Shape> = Vec::with_capacity(n);
        let mut out_shapes: Vec<Shape> = Vec::with_capacity(n);
        let mut alias_consumers: HashMap<GraphSourceKey, usize> = HashMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let parts: Vec<Shape> = sources[i]
                .iter()
                .map(|s| match *s {
                    GraphSource::Input => input,
                    GraphSource::Node(j) => out_shapes[j],
                })
                .collect();
            let aliases = matches!(node.op, GraphOp::Concat) || parts.len() > 1;
            if aliases {
                let mut seen = Vec::new();
                for (src, part) in sources[i].iter().zip(&parts) {
                    if seen.contains(src) {
                        let input_name = source_name(&nodes, *src);
                        return Err(GraphError::DuplicateOperand {
                            node: node.name.clone(),
                            input: input_name,
                        });
                    }
                    seen.push(*src);
                    if is_flat(*part) {
                        return Err(GraphError::FlatConcat {
                            node: node.name.clone(),
                        });
                    }
                    if let GraphSource::Node(j) = *src {
                        if matches!(nodes[j].op, GraphOp::Concat) {
                            return Err(GraphError::NestedConcat {
                                node: node.name.clone(),
                            });
                        }
                    }
                    if (part.height, part.width) != (parts[0].height, parts[0].width) {
                        return Err(GraphError::ConcatShapeMismatch {
                            node: node.name.clone(),
                        });
                    }
                    let key = GraphSourceKey::from(*src);
                    let count = alias_consumers.entry(key).or_insert(0);
                    *count += 1;
                    if *count > 1 {
                        return Err(GraphError::SharedConcatInput {
                            input: source_name(&nodes, *src),
                        });
                    }
                }
            }
            let in_shape = if parts.len() == 1 {
                parts[0]
            } else {
                Shape::new(
                    parts.iter().map(|p| p.channels).sum(),
                    parts[0].height,
                    parts[0].width,
                )
            };
            let out_shape = match node.op {
                GraphOp::Concat => in_shape,
                GraphOp::Layer(spec) => {
                    if let LayerSpec::Eltwise { terms, .. } = spec {
                        if parts.len() > 1
                            && (parts.len() != terms
                                || parts.iter().any(|p| p.channels != parts[0].channels))
                        {
                            return Err(GraphError::AddShapeMismatch {
                                node: node.name.clone(),
                            });
                        }
                    }
                    if !spec.weights_stream() && is_flat(in_shape) {
                        return Err(GraphError::SpatialAfterFlat {
                            node: node.name.clone(),
                        });
                    }
                    spec.output_shape(in_shape).ok_or(GraphError::BadGeometry {
                        node: node.name.clone(),
                        input: in_shape,
                    })?
                }
            };
            in_shapes.push(in_shape);
            out_shapes.push(out_shape);
        }

        // Exactly one sink.
        let mut consumed = vec![false; n];
        for srcs in &sources {
            for src in srcs {
                if let GraphSource::Node(j) = *src {
                    consumed[j] = true;
                }
            }
        }
        let sinks: Vec<usize> = (0..n).filter(|&i| !consumed[i]).collect();
        if sinks.len() != 1 {
            return Err(GraphError::MultipleSinks {
                names: sinks.iter().map(|&i| nodes[i].name.clone()).collect(),
            });
        }

        Ok(GraphSpec {
            input,
            nodes,
            sources,
            in_shapes,
            out_shapes,
            output: sinks[0],
        })
    }

    /// The trivial linear embedding of a [`NetworkSpec`]: layer `i`
    /// becomes node `"l{i}"` consuming its predecessor. Parameter
    /// initialization and per-node weight counts match the linear spec
    /// exactly, so every existing workload runs unchanged as a graph.
    pub fn linear(net: &NetworkSpec) -> GraphSpec {
        let nodes = net
            .layers()
            .iter()
            .enumerate()
            .map(|(i, &layer)| GraphNode {
                name: format!("l{i}"),
                inputs: vec![if i == 0 {
                    INPUT.to_string()
                } else {
                    format!("l{}", i - 1)
                }],
                op: GraphOp::Layer(layer),
            })
            .collect();
        // A chain has one sink, no aliasing, and `NetworkSpec::new` already
        // enforced the geometry and flat-volume rules, so validation holds.
        GraphSpec::new(net.input_shape(), nodes).expect("linear embedding of a valid network")
    }

    /// The graph input volume.
    pub fn input_shape(&self) -> Shape {
        self.input
    }

    /// The output volume (the single sink's output).
    pub fn output_shape(&self) -> Shape {
        self.out_shapes[self.output]
    }

    /// The nodes in topological (execution) order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Node count (including `Concat` nodes, which execute no cycles).
    pub fn depth(&self) -> usize {
        self.nodes.len()
    }

    /// Index of the single sink node.
    pub fn output_node(&self) -> usize {
        self.output
    }

    /// Resolved input references of node `i`.
    pub fn node_sources(&self, i: usize) -> &[GraphSource] {
        &self.sources[i]
    }

    /// Effective (channel-concatenated) input shape of node `i`.
    pub fn node_input_shape(&self, i: usize) -> Shape {
        self.in_shapes[i]
    }

    /// Output shape of node `i`.
    pub fn node_output_shape(&self, i: usize) -> Shape {
        self.out_shapes[i]
    }

    /// `true` when node `i` aliases its inputs into a stacked buffer
    /// (a `Concat` node, or any node with more than one input).
    pub fn aliases_inputs(&self, i: usize) -> bool {
        matches!(self.nodes[i].op, GraphOp::Concat) || self.sources[i].len() > 1
    }

    /// Executable (non-`Concat`) node indices, in schedule order.
    pub fn exec_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| matches!(self.nodes[i].op, GraphOp::Layer(_)))
            .collect()
    }

    /// Stored weights per node (0 for `Concat` and weight-less layers).
    pub fn weights_per_node(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .map(|i| match self.nodes[i].op {
                GraphOp::Layer(spec) => spec.weight_count(self.in_shapes[i]),
                GraphOp::Concat => 0,
            })
            .collect()
    }

    /// MAC count per node for one inference (0 for `Concat`).
    pub fn macs_per_node(&self) -> Vec<u64> {
        (0..self.nodes.len())
            .map(|i| match self.nodes[i].op {
                GraphOp::Layer(spec) => spec.macs(self.in_shapes[i]).expect("validated"),
                GraphOp::Concat => 0,
            })
            .collect()
    }

    /// Total arithmetic operations (2 per MAC) for one inference.
    pub fn total_ops(&self) -> u64 {
        self.macs_per_node().iter().sum::<u64>() * 2
    }

    /// Random parameter initialization, one weight array per node:
    /// uniform in `[-scale, scale]` quantized to `Q1.7.8`, deterministic
    /// in `seed`. For [`GraphSpec::linear`] graphs this reproduces
    /// [`NetworkSpec::init_params`] bit for bit.
    pub fn init_params(&self, seed: u64, scale: f64) -> Vec<Vec<Q88>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        self.weights_per_node()
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| Q88::from_f64(rng.random_range(-scale..=scale)))
                    .collect()
            })
            .collect()
    }
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "input {}", self.input)?;
        for (i, node) in self.nodes.iter().enumerate() {
            let op = match node.op {
                GraphOp::Layer(spec) => spec.to_string(),
                GraphOp::Concat => "concat".to_string(),
            };
            writeln!(
                f,
                "{}: {op} ({}) -> {}",
                node.name,
                node.inputs.join(", "),
                self.out_shapes[i]
            )?;
        }
        Ok(())
    }
}

/// Hashable key for a [`GraphSource`] (indices after topological sort).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum GraphSourceKey {
    Input,
    Node(usize),
}

impl From<GraphSource> for GraphSourceKey {
    fn from(s: GraphSource) -> GraphSourceKey {
        match s {
            GraphSource::Input => GraphSourceKey::Input,
            GraphSource::Node(i) => GraphSourceKey::Node(i),
        }
    }
}

fn source_name(nodes: &[GraphNode], src: GraphSource) -> String {
    match src {
        GraphSource::Input => INPUT.to_string(),
        GraphSource::Node(j) => nodes[j].name.clone(),
    }
}

/// Incremental construction of a [`GraphSpec`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    input: Shape,
    nodes: Vec<GraphNode>,
}

impl GraphBuilder {
    /// Starts a graph with the given input volume.
    pub fn new(input: Shape) -> GraphBuilder {
        GraphBuilder {
            input,
            nodes: Vec::new(),
        }
    }

    /// Adds a single-input layer node.
    pub fn layer(&mut self, name: &str, from: &str, spec: LayerSpec) -> &mut GraphBuilder {
        self.nodes.push(GraphNode {
            name: name.to_string(),
            inputs: vec![from.to_string()],
            op: GraphOp::Layer(spec),
        });
        self
    }

    /// Adds a channel concatenation node.
    pub fn concat(&mut self, name: &str, from: &[&str]) -> &mut GraphBuilder {
        self.nodes.push(GraphNode {
            name: name.to_string(),
            inputs: from.iter().map(|s| s.to_string()).collect(),
            op: GraphOp::Concat,
        });
        self
    }

    /// Adds a residual element-wise sum of the listed producers.
    pub fn add(&mut self, name: &str, from: &[&str], activation: Activation) -> &mut GraphBuilder {
        self.nodes.push(GraphNode {
            name: name.to_string(),
            inputs: from.iter().map(|s| s.to_string()).collect(),
            op: GraphOp::Layer(LayerSpec::Eltwise {
                terms: from.len(),
                activation,
            }),
        });
        self
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found.
    pub fn build(self) -> Result<GraphSpec, GraphError> {
        GraphSpec::new(self.input, self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn residual() -> GraphSpec {
        workloads::residual_toy()
    }

    #[test]
    fn residual_toy_validates() {
        let g = residual();
        assert_eq!(g.input_shape(), Shape::new(1, 12, 12));
        assert_eq!(g.output_shape(), Shape::flat(6));
        assert_eq!(g.depth(), 5);
        // The add node sees the 8-channel concatenation of its summands.
        let res = g
            .nodes()
            .iter()
            .position(|n| n.name == "res")
            .expect("res node");
        assert_eq!(g.node_input_shape(res), Shape::new(8, 10, 10));
        assert_eq!(g.node_output_shape(res), Shape::new(4, 10, 10));
        assert!(g.aliases_inputs(res));
        assert_eq!(g.exec_nodes().len(), 5);
    }

    #[test]
    fn concat_toy_validates() {
        let g = workloads::concat_toy();
        let cat = g
            .nodes()
            .iter()
            .position(|n| n.name == "cat")
            .expect("cat node");
        assert_eq!(g.node_output_shape(cat), Shape::new(5, 10, 10));
        assert_eq!(g.exec_nodes().len(), 3); // concat executes nothing
    }

    #[test]
    fn linear_embedding_matches_network() {
        let net = workloads::tiny_convnet();
        let g = GraphSpec::linear(&net);
        assert_eq!(g.depth(), net.depth());
        assert_eq!(g.output_shape(), net.output_shape());
        for i in 0..net.depth() {
            assert_eq!(g.node_input_shape(i), net.layer_input(i));
            assert_eq!(g.node_output_shape(i), net.layer_output(i));
        }
        assert_eq!(g.init_params(7, 0.25), net.init_params(7, 0.25));
        assert_eq!(g.total_ops(), net.total_ops());
    }

    #[test]
    fn nodes_are_topologically_sorted() {
        // Declared out of order: the sink first.
        let g = GraphSpec::new(
            Shape::new(1, 8, 8),
            vec![
                GraphNode {
                    name: "head".into(),
                    inputs: vec!["stem".into()],
                    op: GraphOp::Layer(LayerSpec::fc(3, Activation::Sigmoid)),
                },
                GraphNode {
                    name: "stem".into(),
                    inputs: vec![INPUT.into()],
                    op: GraphOp::Layer(LayerSpec::conv(2, 3, Activation::Tanh)),
                },
            ],
        )
        .unwrap();
        assert_eq!(g.nodes()[0].name, "stem");
        assert_eq!(g.nodes()[1].name, "head");
        assert_eq!(g.node_sources(1), &[GraphSource::Node(0)]);
        assert_eq!(g.output_node(), 1);
    }

    #[test]
    fn cycle_is_rejected() {
        let err = GraphSpec::new(
            Shape::new(1, 8, 8),
            vec![
                GraphNode {
                    name: "a".into(),
                    inputs: vec!["b".into()],
                    op: GraphOp::Layer(LayerSpec::conv(1, 3, Activation::Tanh)),
                },
                GraphNode {
                    name: "b".into(),
                    inputs: vec!["a".into()],
                    op: GraphOp::Layer(LayerSpec::conv(1, 3, Activation::Tanh)),
                },
            ],
        )
        .unwrap_err();
        assert_eq!(err, GraphError::Cycle);
    }

    #[test]
    fn validation_rejects_bad_graphs() {
        let input = Shape::new(1, 12, 12);
        assert_eq!(
            GraphSpec::new(input, vec![]).unwrap_err(),
            GraphError::Empty
        );

        let mut g = GraphBuilder::new(input);
        g.layer("x", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("x", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::DuplicateName { .. }
        ));

        let mut g = GraphBuilder::new(input);
        g.layer("x", "ghost", LayerSpec::conv(2, 3, Activation::Tanh));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::UnknownInput { .. }
        ));

        // Two sinks.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("b", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::MultipleSinks { .. }
        ));

        // Concat of spatially incompatible parts.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("b", INPUT, LayerSpec::conv(2, 5, Activation::Tanh));
        g.concat("cat", &["a", "b"]);
        g.layer("head", "cat", LayerSpec::fc(2, Activation::Sigmoid));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::ConcatShapeMismatch { .. }
        ));

        // Concat of a flat (FC-produced) volume.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("b", "a", LayerSpec::fc(4, Activation::Sigmoid));
        g.concat("cat", &["a", "b"]);
        g.layer("head", "cat", LayerSpec::fc(2, Activation::Sigmoid));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::FlatConcat { .. }
        ));

        // The same producer aliased into two concats.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("b", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.concat("c1", &["a", "b"]);
        g.layer("h1", "c1", LayerSpec::fc(2, Activation::Sigmoid));
        g.layer("c", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.add("c2", &["a", "c"], Activation::ReLU);
        g.layer("h2", "c2", LayerSpec::fc(2, Activation::Sigmoid));
        g.concat("join", &["h1", "h2"]); // also flat, but shared fires first
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::SharedConcatInput { .. }
        ));

        // A concat feeding another concat.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("b", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.concat("c1", &["a", "b"]);
        g.layer("c", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.concat("c2", &["c1", "c"]);
        g.layer("head", "c2", LayerSpec::fc(2, Activation::Sigmoid));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::NestedConcat { .. }
        ));

        // Residual add of unequal summands.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("b", INPUT, LayerSpec::conv(4, 3, Activation::Tanh));
        g.add("res", &["a", "b"], Activation::ReLU);
        g.layer("head", "res", LayerSpec::fc(2, Activation::Sigmoid));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::AddShapeMismatch { .. }
        ));

        // A duplicated operand.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.add("res", &["a", "a"], Activation::ReLU);
        g.layer("head", "res", LayerSpec::fc(2, Activation::Sigmoid));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::DuplicateOperand { .. }
        ));

        // A spatial operator on a flat volume.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::fc(9, Activation::Tanh));
        g.layer("b", "a", LayerSpec::AvgPool { size: 1 });
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::SpatialAfterFlat { .. }
        ));

        // A layer that does not fit.
        let mut g = GraphBuilder::new(input);
        g.layer("a", INPUT, LayerSpec::conv(1, 20, Activation::Tanh));
        assert!(matches!(
            g.build().unwrap_err(),
            GraphError::BadGeometry { .. }
        ));
    }

    #[test]
    fn display_lists_nodes() {
        let s = residual().to_string();
        assert!(s.contains("input 1x12x12"));
        assert!(s.contains("res: add x2"));
        assert!(s.contains("head: fc -> 6"));
    }

    #[test]
    fn errors_display() {
        for err in [
            GraphError::Empty,
            GraphError::Cycle,
            GraphError::DuplicateName { name: "x".into() },
            GraphError::SharedConcatInput { input: "x".into() },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
