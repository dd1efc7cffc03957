//! The sharding planner: splitting one [`GraphSpec`] across a cluster.
//!
//! [`shard_graph`] cuts the validated schedule into **stages** joined by
//! SerDes transfers. Two placements are considered for every stage:
//!
//! * **Pipeline-parallel** — the stage's subgraph runs whole on one cube;
//!   the phase boundary at each cut becomes an inter-cube transfer of the
//!   single value that crosses it.
//! * **Tensor-parallel** — a stage that is a single fully connected layer
//!   is banded across `m` cubes: each part computes a contiguous slice of
//!   the output neurons from the full (broadcast) input, and the consumer
//!   gathers the slices. Part `b` of `m` owns the contiguous rows
//!   `[b·n/m, (b+1)·n/m)` of the output neurons.
//!
//! The cost of a candidate plan is the sum of certified per-stage lower
//! bounds ([`neurocube_golden::phase_bounds`]) plus the link terms
//! from [`neurocube_golden::timing`] (`link_transfer_cycles` per
//! boundary), so the planner's pick is itself a certified lower bound on
//! executing that plan — the same property `plan_graph` gives a
//! single-cube mapping, extended with link costs. A search over cut
//! positions and per-stage widths keeps the cheapest feasible plan; a
//! graph that fits no decomposition surfaces the single-cube
//! [`CompileError`], and one that needs more cubes than the cluster has
//! surfaces [`CompileError::ClusterOverCapacity`].

use crate::link::LinkConfig;
use neurocube::SystemConfig;
use neurocube_fixed::{Activation, Q88};
use neurocube_golden::{phase_bounds, pipeline_envelope, CycleEnvelope, LayerBound, DEFAULT_SLACK};
use neurocube_nn::{GraphNode, GraphOp, GraphSource, GraphSpec, LayerSpec, Shape, INPUT};
use neurocube_png::{compile_graph, CompileError};
use std::collections::HashMap;
use std::rc::Rc;

/// One cube's share of a stage: a self-contained subgraph plus the slice
/// of the stage's output value it produces.
#[derive(Clone, Debug)]
pub struct ShardPart {
    /// Global cube index in the cluster.
    pub cube: usize,
    /// The subgraph this cube runs (its sink produces the part's slice).
    pub graph: GraphSpec,
    /// Per-node weight images for `graph`, in its node order.
    pub params: Vec<Vec<Q88>>,
    /// Element offset of this part's slice in the stage output value.
    pub out_lo: usize,
    /// Elements in this part's slice.
    pub out_len: usize,
}

/// One pipeline stage of a sharded plan: the original schedule range it
/// covers and the cube parts that execute it concurrently.
#[derive(Clone, Debug)]
pub struct ShardStage {
    /// Original graph schedule positions `[start, end)` this stage covers.
    pub nodes: (usize, usize),
    /// Concurrent parts; one for a pipeline stage, `m` for a banded one.
    pub parts: Vec<ShardPart>,
    /// Certified cycle lower bound for the stage (the slowest part).
    pub lower: u64,
    /// Shape of the stage's gathered output value.
    pub out_shape: Shape,
}

impl ShardStage {
    /// `true` when the stage is tensor-parallel (more than one part).
    pub fn is_banded(&self) -> bool {
        self.parts.len() > 1
    }
}

/// A placed, costed sharding of one graph across a cluster — the tenant
/// payload a [`crate::Cluster`] executes and `serve` catalogs.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    /// The original (unsplit) graph.
    pub graph: GraphSpec,
    /// The original per-node parameters.
    pub params: Vec<Vec<Q88>>,
    /// The link fabric the plan was costed against.
    pub link: LinkConfig,
    /// The chosen stages, in execution order; cube indices are dense from
    /// zero.
    pub stages: Vec<ShardStage>,
    /// Certified end-to-end lower bound: Σ stage lowers + Σ link terms.
    pub lower: u64,
    /// The link share of `lower` (Σ per-boundary transfer lower bounds).
    pub link_lower: u64,
    /// End-to-end cycle envelope for one inference through the cluster.
    pub envelope: CycleEnvelope,
}

impl ShardedGraph {
    /// Cubes the plan occupies.
    pub fn cubes(&self) -> usize {
        self.stages.iter().map(|s| s.parts.len()).sum()
    }

    /// The original graph's input shape.
    pub fn input_shape(&self) -> Shape {
        self.graph.input_shape()
    }

    /// The original graph's output shape.
    pub fn output_shape(&self) -> Shape {
        self.graph.output_shape()
    }
}

/// The value crossing the cut after schedule position `p`, if the cut is
/// legal: exactly one value produced at a position ≤ `p` (the graph input
/// counts as position −1) is consumed beyond it, and that value's
/// producer has no consumer on its own side (so both sides keep a single
/// sink). Returns the crossing node's index.
fn crossing_value(graph: &GraphSpec, p: usize) -> Option<usize> {
    let n = graph.depth();
    let mut crossing: Option<usize> = None;
    // The host-loaded input crossing the cut would make two live values
    // (it plus the path to the sink), so any late input consumer is
    // disqualifying.
    for i in p + 1..n {
        for &src in graph.node_sources(i) {
            match src {
                GraphSource::Input => return None,
                GraphSource::Node(j) if j <= p => {
                    if crossing.is_some_and(|c| c != j) {
                        return None;
                    }
                    crossing = Some(j);
                }
                GraphSource::Node(_) => {}
            }
        }
    }
    let j = crossing?;
    // The crossing producer must be the first segment's sink: a consumer
    // on its own side would leave that segment sinkless.
    for i in 0..=p {
        for &src in graph.node_sources(i) {
            if src == GraphSource::Node(j) {
                return None;
            }
        }
    }
    Some(j)
}

/// Rebuilds schedule range `[a, b)` as a self-contained graph whose
/// [`INPUT`] is the value crossing into it (`None` for the original graph
/// input). Its parameters are `params[a..b]` of the original.
fn segment_graph(
    graph: &GraphSpec,
    a: usize,
    b: usize,
    cross_in: Option<usize>,
) -> Result<GraphSpec, CompileError> {
    let in_shape = match cross_in {
        Some(j) => graph.node_output_shape(j),
        None => graph.input_shape(),
    };
    let nodes = (a..b)
        .map(|i| {
            let inputs = graph
                .node_sources(i)
                .iter()
                .map(|&src| match src {
                    GraphSource::Input => INPUT.to_string(),
                    GraphSource::Node(j) if Some(j) == cross_in => INPUT.to_string(),
                    GraphSource::Node(j) => graph.nodes()[j].name.clone(),
                })
                .collect();
            GraphNode {
                name: graph.nodes()[i].name.clone(),
                inputs,
                op: graph.nodes()[i].op,
            }
        })
        .collect();
    Ok(GraphSpec::new(in_shape, nodes)?)
}

/// Σ certified lower bounds for a compiled subgraph under `cfg` (which
/// must charge no programming phase — cluster stages are armed untimed).
fn segment_lower(cfg: &SystemConfig, seg: &GraphSpec) -> Result<u64, CompileError> {
    let prog = compile_graph(seg, cfg.mapping(), &cfg.memory.address_map())?;
    Ok(phase_bounds(cfg, &prog).iter().map(LayerBound::lower).sum())
}

/// [`segment_lower`] of the single-FC-node graphs one `shard_graph` call
/// has compiled, keyed by all the bound reads of such a graph — input
/// shape, outputs, activation; never the weights or the node's name.
/// `None` is a shape that does not compile. The ladder of band widths
/// revisits few distinct shapes, and equal layers share all of them.
type FcLowers = HashMap<(Shape, usize, Activation), Option<u64>>;

/// The memoised [`segment_lower`] of `part`, a graph of one FC node.
fn fc_lower(
    cfg: &SystemConfig,
    memo: &mut FcLowers,
    part: &GraphSpec,
    outputs: usize,
    activation: Activation,
) -> Option<u64> {
    *memo
        .entry((part.input_shape(), outputs, activation))
        .or_insert_with(|| segment_lower(cfg, part).ok())
}

/// One unplaced part of a candidate: its subgraph and the slice of the
/// stage output it produces.
struct CandidatePart {
    graph: GraphSpec,
    out_lo: usize,
    out_len: usize,
}

/// A candidate placement of one stage, before cube indices are assigned
/// and weights sliced.
struct Candidate {
    nodes: (usize, usize),
    parts: Vec<CandidatePart>,
    lower: u64,
    out_shape: Shape,
}

impl Candidate {
    /// The stage this candidate becomes on cubes `first..`, with each
    /// part's weights cut from the original graph's `params`: the node
    /// range of an unsplit stage, the band's rows of a banded one.
    fn place(&self, first: usize, params: &[Vec<Q88>]) -> ShardStage {
        let (a, b) = self.nodes;
        let parts = self
            .parts
            .iter()
            .enumerate()
            .map(|(k, part)| {
                let params = if self.parts.len() == 1 {
                    params[a..b].to_vec()
                } else {
                    let n_in = part.graph.input_shape().len();
                    let rows = part.out_lo * n_in..(part.out_lo + part.out_len) * n_in;
                    vec![params[a][rows].to_vec()]
                };
                ShardPart {
                    cube: first + k,
                    graph: part.graph.clone(),
                    params,
                    out_lo: part.out_lo,
                    out_len: part.out_len,
                }
            })
            .collect();
        ShardStage {
            nodes: self.nodes,
            parts,
            lower: self.lower,
            out_shape: self.out_shape,
        }
    }
}

/// Every feasible placement of schedule range `[a, b)`: the single-cube
/// pipeline stage if it compiles, plus banded splits when the range is
/// one fully connected node. Widths that fail to build or compile are
/// dropped — infeasibility here just prunes the search.
fn candidates(
    cfg: &SystemConfig,
    memo: &mut FcLowers,
    graph: &GraphSpec,
    a: usize,
    b: usize,
    cross_in: Option<usize>,
    max_parts: usize,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let out_shape = graph.node_output_shape(b - 1);
    let Ok(seg) = segment_graph(graph, a, b, cross_in) else {
        return out;
    };
    let fc = match graph.nodes()[a].op {
        GraphOp::Layer(LayerSpec::FullyConnected {
            outputs,
            activation,
        }) if b - a == 1 => Some((outputs, activation)),
        _ => None,
    };
    let in_shape = seg.input_shape();
    let whole = match fc {
        Some((outputs, activation)) => fc_lower(cfg, memo, &seg, outputs, activation),
        None => segment_lower(cfg, &seg).ok(),
    };
    if let Some(lower) = whole {
        out.push(Candidate {
            nodes: (a, b),
            parts: vec![CandidatePart {
                graph: seg,
                out_lo: 0,
                out_len: out_shape.len(),
            }],
            lower,
            out_shape,
        });
    }
    // Banded fully connected stage: contiguous output-row bands, gather
    // on the consumer.
    let Some((outputs, activation)) = fc else {
        return out;
    };
    'widths: for m in band_widths(max_parts.min(outputs)) {
        let mut parts = Vec::with_capacity(m);
        let mut worst = 0u64;
        for k in 0..m {
            let (o0, o1) = (k * outputs / m, (k + 1) * outputs / m);
            if o0 == o1 {
                continue 'widths; // thinner than one neuron per cube
            }
            let node = GraphNode {
                name: graph.nodes()[a].name.clone(),
                inputs: vec![INPUT.to_string()],
                op: GraphOp::Layer(LayerSpec::fc(o1 - o0, activation)),
            };
            let Ok(part) = GraphSpec::new(in_shape, vec![node]) else {
                continue 'widths;
            };
            let Some(lower) = fc_lower(cfg, memo, &part, o1 - o0, activation) else {
                continue 'widths;
            };
            worst = worst.max(lower);
            parts.push(CandidatePart {
                graph: part,
                out_lo: o0,
                out_len: o1 - o0,
            });
        }
        out.push(Candidate {
            nodes: (a, b),
            parts,
            lower: worst,
            out_shape,
        });
    }
    out
}

/// Banded widths worth probing: 2 and 3, then the doublings of each —
/// a geometric ladder offering near-even splits at every scale while
/// keeping the search logarithmic in `max` (probing every integer width
/// makes 64-cube planning quadratic in compile calls for no cost
/// benefit; any ladder restriction is sound because the winning plan's
/// cost is certified for *that plan* regardless of which widths were
/// explored).
fn band_widths(max: usize) -> Vec<usize> {
    let mut widths = Vec::new();
    let (mut a, mut b) = (2usize, 3usize);
    while a <= max {
        widths.push(a);
        if b <= max {
            widths.push(b);
        }
        a *= 2;
        b *= 2;
    }
    widths
}

/// The certified lower bound on the hand-off between two placed stages:
/// the gather completes no earlier than the slowest (src part → dst part)
/// transfer. Each destination part needs the *full* previous value, so
/// every source slice travels to every destination cube.
fn handoff_lower(link: &LinkConfig, src: &[ShardPart], dst: &[ShardPart]) -> u64 {
    let mut worst = 0;
    for s in src {
        let bytes = 2 * s.out_len as u64;
        for d in dst {
            let hops = link.topology.hops(s.cube, d.cube);
            worst = worst.max(link.transfer_cycles(bytes, hops));
        }
    }
    worst
}

/// Upper-bound widening for a hand-off: every fragment fully serialized
/// on its source link, summed — the pessimistic schedule the executor can
/// never exceed.
fn handoff_upper(link: &LinkConfig, src: &[ShardPart], dst: &[ShardPart]) -> u64 {
    let mut total = 0;
    for s in src {
        let bytes = 2 * s.out_len as u64;
        for d in dst {
            let hops = link.topology.hops(s.cube, d.cube);
            total += link.transfer_cycles(bytes, hops) + link.serialization_cycles(bytes);
        }
    }
    total
}

/// The cheapest plan prefix found for one (schedule position, cubes used)
/// cell of the cut search. The prefix itself is not stored: `last` is its
/// final stage (candidate, first cube) and the rest is the cell that
/// stage started from, `best[candidate.nodes.0][first cube]` — final
/// before this cell is first written, since starts are visited in order.
struct Cell {
    cost: u64,
    link_cost: u64,
    last: Option<(Rc<Candidate>, usize)>,
}

/// Splits `graph` across the cluster described by `link`, choosing the
/// cheapest certified placement (pipeline cuts plus banded widths) that
/// fits `link.topology.cubes()` cubes. `cfg` describes each member cube;
/// its programming model is ignored (cluster stages are armed untimed, and
/// `serve` charges reprogramming separately).
///
/// # Errors
///
/// * [`CompileError::EmptyPool`] for a zero-cube topology.
/// * [`CompileError::ClusterOverCapacity`] when a feasible split exists
///   but needs more cubes than the cluster has.
/// * The single-cube [`CompileError`] (over-capacity, invalid graph, …)
///   when no legal decomposition exists at any width.
pub fn shard_graph(
    cfg: &SystemConfig,
    graph: &GraphSpec,
    params: &[Vec<Q88>],
    link: &LinkConfig,
) -> Result<ShardedGraph, CompileError> {
    let available = link.topology.cubes();
    if available == 0 {
        return Err(CompileError::EmptyPool);
    }
    if params.len() != graph.depth() {
        return Err(CompileError::WeightLayerCount {
            expected: graph.depth(),
            got: params.len(),
        });
    }
    // Generous probe ceiling: wide enough to tell "needs a bigger
    // cluster" apart from "no decomposition exists at all".
    let probe = (2 * available + 8).min(256);
    let mut bounds_cfg = cfg.clone();
    bounds_cfg.programming = None;

    let n = graph.depth();
    let cuts: Vec<(usize, usize)> = (0..n - 1)
        .filter_map(|p| crossing_value(graph, p).map(|j| (p, j)))
        .collect();
    // Plan prefixes keyed by (schedule position, cubes used): the stored
    // prefix is the cheapest found for that key. Hand-off costs depend on
    // the stored parts' cube indices, so this is a best-first heuristic
    // over an exact per-plan cost — whatever plan wins, its cost is still
    // a certified lower bound for executing exactly that plan.
    let mut best: Vec<Vec<Option<Cell>>> = (0..=n)
        .map(|_| (0..=probe).map(|_| None).collect())
        .collect();
    best[0][0] = Some(Cell {
        cost: 0,
        link_cost: 0,
        last: None,
    });
    let ends: Vec<usize> = cuts.iter().map(|&(p, _)| p + 1).chain([n]).collect();
    let starts: Vec<(usize, Option<usize>)> = [(0, None)]
        .into_iter()
        .chain(cuts.iter().map(|&(p, j)| (p + 1, Some(j))))
        .collect();
    let mut memo = FcLowers::new();
    for &(a, cross_in) in &starts {
        for &b in ends.iter().filter(|&&b| b > a) {
            let cands: Vec<Rc<Candidate>> =
                candidates(&bounds_cfg, &mut memo, graph, a, b, cross_in, probe)
                    .into_iter()
                    .map(Rc::new)
                    .collect();
            // `b > a` always, so the source row and destination row never
            // alias.
            let (head, tail) = best.split_at_mut(a + 1);
            let row_b = &mut tail[b - a - 1];
            for used in 0..=probe {
                let Some(prefix) = head[a][used].as_ref() else {
                    continue;
                };
                for cand in &cands {
                    let m = cand.parts.len();
                    if used + m > probe {
                        continue;
                    }
                    // Cube indices may exceed the real topology during the
                    // probe; hop math then uses the ring distance of a
                    // virtual ring big enough to hold them. The hand-off
                    // bound needs only both stages' cube indices (the
                    // previous one's from its first cube, this one's
                    // `used + k`) and the previous slice widths.
                    let hop_link = probe_link(link, used + m);
                    let hand = prefix.last.as_ref().map_or(0, |(prev, prev_first)| {
                        let mut worst = 0;
                        for (i, s) in prev.parts.iter().enumerate() {
                            let bytes = 2 * s.out_len as u64;
                            for k in 0..m {
                                let hops = hop_link.topology.hops(prev_first + i, used + k);
                                worst = worst.max(hop_link.transfer_cycles(bytes, hops));
                            }
                        }
                        worst
                    });
                    let cost = prefix.cost + hand + cand.lower;
                    let slot = &mut row_b[used + m];
                    if slot.as_ref().is_none_or(|s| cost < s.cost) {
                        *slot = Some(Cell {
                            cost,
                            link_cost: prefix.link_cost + hand,
                            last: Some((Rc::clone(cand), used)),
                        });
                    }
                }
            }
        }
    }

    let winner = (0..=available.min(probe))
        .filter_map(|c| best[n][c].as_ref())
        .min_by_key(|cell| cell.cost);
    let Some(plan) = winner else {
        // Feasible only beyond the cluster, or not at all?
        if let Some(needed) = (available + 1..=probe).find(|&c| best[n][c].is_some()) {
            return Err(CompileError::ClusterOverCapacity { needed, available });
        }
        // No decomposition anywhere: surface the single-cube failure.
        return Err(
            match compile_graph(graph, cfg.mapping(), &cfg.memory.address_map()) {
                Err(e) => e,
                Ok(_) => unreachable!("a graph that fits one cube always has a 1-stage plan"),
            },
        );
    };
    // Only the winner is materialised: walk its back-references to the
    // empty prefix, cutting each part's weights on the way.
    let mut stages = Vec::new();
    let mut at = plan;
    while let Some((cand, first)) = &at.last {
        stages.push(cand.place(*first, params));
        at = best[cand.nodes.0][*first]
            .as_ref()
            .expect("a recorded stage starts from a recorded prefix");
    }
    stages.reverse();

    let stage_envs: Vec<CycleEnvelope> = stages
        .iter()
        .map(|s| stage_envelope(&bounds_cfg, s))
        .collect();
    let pair_count: u64 = stages
        .windows(2)
        .map(|w| (w[0].parts.len() * w[1].parts.len()) as u64)
        .sum();
    let mut envelope = pipeline_envelope(&stage_envs, plan.link_cost, pair_count);
    // Widen the ceiling to the fully-serialized transfer schedule; the
    // floor stays the certified overlap-friendly bound.
    let upper_extra: u64 = stages
        .windows(2)
        .map(|w| {
            handoff_upper(link, &w[0].parts, &w[1].parts)
                - handoff_lower(link, &w[0].parts, &w[1].parts)
        })
        .sum();
    envelope.upper += upper_extra;

    Ok(ShardedGraph {
        graph: graph.clone(),
        params: params.to_vec(),
        link: *link,
        lower: plan.cost,
        link_lower: plan.link_cost,
        stages,
        envelope,
    })
}

/// A link whose topology is guaranteed to index `cubes` cubes: the real
/// one when it is big enough, otherwise a virtual ring (probe plans that
/// overflow the cluster are only ever used to report `needed`).
fn probe_link(link: &LinkConfig, cubes: usize) -> LinkConfig {
    if link.topology.cubes() >= cubes {
        *link
    } else {
        LinkConfig {
            topology: crate::link::ClusterTopology::Ring(cubes),
            ..*link
        }
    }
}

/// The cycle envelope of one stage: concurrent parts finish when the
/// slowest does, so the stage envelope is the per-part envelope of the
/// slowest part (bounds recomputed per part, [`DEFAULT_SLACK`]).
fn stage_envelope(cfg: &SystemConfig, stage: &ShardStage) -> CycleEnvelope {
    let mut env = CycleEnvelope { lower: 0, upper: 0 };
    for part in &stage.parts {
        let prog = compile_graph(&part.graph, cfg.mapping(), &cfg.memory.address_map())
            .expect("planned parts compile");
        let bounds = phase_bounds(cfg, &prog);
        let part_env = CycleEnvelope::from_bounds(&bounds, DEFAULT_SLACK);
        env.lower = env.lower.max(part_env.lower);
        env.upper = env.upper.max(part_env.upper);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_fixed::Activation;
    use neurocube_nn::GraphBuilder;

    fn chain() -> (GraphSpec, Vec<Vec<Q88>>) {
        let mut g = GraphBuilder::new(Shape::new(2, 8, 8));
        g.layer("a", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("b", "a", LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("c", "b", LayerSpec::fc(10, Activation::Sigmoid));
        let graph = g.build().unwrap();
        let params = graph.init_params(11, 0.25);
        (graph, params)
    }

    /// A weight-heavy MLP: the 256×256 matrix alone needs 8 KiB per vault
    /// (permanent, streamed), so shrunken vault regions force sharding.
    fn fat_mlp() -> (GraphSpec, Vec<Vec<Q88>>) {
        let mut g = GraphBuilder::new(Shape::flat(256));
        g.layer("mid", INPUT, LayerSpec::fc(256, Activation::Tanh));
        g.layer("head", "mid", LayerSpec::fc(16, Activation::Sigmoid));
        let graph = g.build().unwrap();
        let params = graph.init_params(5, 0.125);
        (graph, params)
    }

    /// The ledger's `cluster_sharded` model: `depth` FC-256 stages and a
    /// 16-way head.
    fn fc_chain(depth: usize) -> (GraphSpec, Vec<Vec<Q88>>) {
        let mut g = GraphBuilder::new(Shape::flat(256));
        let mut prev = INPUT.to_string();
        for i in 0..depth {
            let name = format!("fc{i}");
            g.layer(&name, &prev, LayerSpec::fc(256, Activation::Tanh));
            prev = name;
        }
        g.layer("head", &prev, LayerSpec::fc(16, Activation::Tanh));
        let graph = g.build().unwrap();
        let params = graph.init_params(11, 0.125);
        (graph, params)
    }

    /// Everything that identifies a plan, one line per stage and part;
    /// weights enter as a 64-bit FNV-1a digest of their Q8.8 bits.
    fn plan_identity(plan: &ShardedGraph) -> String {
        let mut s = format!(
            "lower {} link {} envelope {}..={}\n",
            plan.lower, plan.link_lower, plan.envelope.lower, plan.envelope.upper
        );
        for stage in &plan.stages {
            let (a, b) = stage.nodes;
            s += &format!(
                "stage {a}..{b} lower {} out {}\n",
                stage.lower, stage.out_shape
            );
            for p in &stage.parts {
                let names: Vec<&str> = p.graph.nodes().iter().map(|n| n.name.as_str()).collect();
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for node in &p.params {
                    // The node's length first, so a moved boundary shows.
                    let len = (node.len() as u64).to_le_bytes();
                    let words = node.iter().flat_map(|w| w.to_bits().to_le_bytes());
                    for byte in len.into_iter().chain(words) {
                        h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                }
                s += &format!(
                    "  cube {} out {}+{} nodes {} params {h:016x}\n",
                    p.cube,
                    p.out_lo,
                    p.out_len,
                    names.join(",")
                );
            }
        }
        s
    }

    /// The back-referenced DP must pick what the prefix-cloning one picked.
    /// Recorded at commit bfbd6e9 (the parent of the change that stopped
    /// the cloning), 6 KiB vault regions on a 32-cube HMC-class ring.
    #[test]
    fn plans_are_identical_to_the_cloning_planner() {
        const FAT_MLP: &str = "\
lower 3808 link 2016 envelope 3808..=49416
stage 0..1 lower 1280 out 256x1x1
  cube 0 out 0+64 nodes mid params 84e373e6e334176a
  cube 1 out 64+64 nodes mid params a0706a6db9375ac6
  cube 2 out 128+64 nodes mid params 1f0abe0ed36953cc
  cube 3 out 192+64 nodes mid params c4ec636937f84045
stage 1..2 lower 512 out 16x1x1
  cube 4 out 0+16 nodes head params 8aae2f463d1014f4
";
        const CHAIN: &str = "\
lower 154 link 0 envelope 154..=5232
stage 0..3 lower 154 out 10x1x1
  cube 0 out 0+10 nodes a,b,c params fb90c10f6ef18bfa
";
        const FC_CHAIN: &str = "\
lower 15316 link 6612 envelope 15316..=235004
stage 0..1 lower 1280 out 256x1x1
  cube 0 out 0+64 nodes fc0 params 6c943f4538a90aa3
  cube 1 out 64+64 nodes fc0 params c6b5a89560533ef0
  cube 2 out 128+64 nodes fc0 params a4e9a7a4e8f9e7d0
  cube 3 out 192+64 nodes fc0 params a474430d124cef22
stage 1..2 lower 2304 out 256x1x1
  cube 4 out 0+128 nodes fc1 params bb46d1d4fedc4181
  cube 5 out 128+128 nodes fc1 params d946f6c397eaba1e
stage 2..3 lower 2304 out 256x1x1
  cube 6 out 0+128 nodes fc2 params 82e484344006a6f7
  cube 7 out 128+128 nodes fc2 params 4d64aa028cf9e317
stage 3..4 lower 2304 out 256x1x1
  cube 8 out 0+128 nodes fc3 params 7a4502e840919dd1
  cube 9 out 128+128 nodes fc3 params 33bdcf69555f8040
stage 4..5 lower 512 out 16x1x1
  cube 10 out 0+16 nodes head params f94ab85e4f5f4ac8
";
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 6 * 1024;
        let link = LinkConfig::hmc_ext(32);
        for ((graph, params), want) in [
            (fat_mlp(), FAT_MLP),
            (chain(), CHAIN),
            (fc_chain(4), FC_CHAIN),
        ] {
            let plan = shard_graph(&cfg, &graph, &params, &link).unwrap();
            assert_eq!(plan_identity(&plan), want);
        }
    }

    #[test]
    fn every_chain_boundary_is_a_legal_cut() {
        let (graph, _) = chain();
        assert_eq!(crossing_value(&graph, 0), Some(0));
        assert_eq!(crossing_value(&graph, 1), Some(1));
    }

    #[test]
    fn branches_block_cuts_until_they_merge() {
        let mut g = GraphBuilder::new(Shape::new(2, 8, 8));
        g.layer("l", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.layer("r", INPUT, LayerSpec::conv(2, 3, Activation::Tanh));
        g.concat("cat", &["l", "r"]);
        g.layer("head", "cat", LayerSpec::fc(4, Activation::Sigmoid));
        let graph = g.build().unwrap();
        // After the first branch: the input still feeds the other branch.
        assert_eq!(crossing_value(&graph, 0), None);
        // After both branches: two values cross into the concat.
        assert_eq!(crossing_value(&graph, 1), None);
        // The concat merges the branches back to one crossing value.
        assert_eq!(crossing_value(&graph, 2), Some(2));
    }

    #[test]
    fn segment_rebuild_consumes_the_crossing_value_as_input() {
        let (graph, params) = chain();
        let seg = segment_graph(&graph, 1, 3, Some(0)).unwrap();
        assert_eq!(seg.input_shape(), graph.node_output_shape(0));
        assert_eq!(seg.depth(), 2);
        assert_eq!(seg.output_shape(), graph.output_shape());
        // Placed, the segment carries its own nodes' weights.
        let cand = Candidate {
            nodes: (1, 3),
            out_shape: seg.output_shape(),
            parts: vec![CandidatePart {
                out_lo: 0,
                out_len: seg.output_shape().len(),
                graph: seg,
            }],
            lower: 0,
        };
        assert_eq!(cand.place(0, &params).parts[0].params, params[1..3]);
    }

    #[test]
    fn single_cube_graphs_get_single_stage_plans() {
        let (graph, params) = chain();
        let cfg = SystemConfig::paper(true);
        // The second fabric is larger than the search's 256-cube ceiling.
        for fabric in [4, 300] {
            let link = LinkConfig::hmc_ext(fabric);
            let plan = shard_graph(&cfg, &graph, &params, &link).unwrap();
            assert_eq!(plan.stages.len(), 1);
            assert_eq!(plan.cubes(), 1);
            assert_eq!(plan.link_lower, 0);
            assert!(plan.lower > 0);
        }
    }

    #[test]
    fn over_capacity_graphs_shard_across_stages() {
        let (graph, params) = fat_mlp();
        let mut cfg = SystemConfig::paper(true);
        // Shrink each vault region until one cube cannot hold the graph
        // (the 256×256 weights alone need 8 KiB per vault).
        cfg.memory.region_bytes = 6 * 1024;
        let link = LinkConfig::hmc_ext(4);
        let plan = shard_graph(&cfg, &graph, &params, &link).unwrap();
        assert!(plan.cubes() >= 2, "plan uses {} cubes", plan.cubes());
        assert!(plan.link_lower > 0);
        assert!(plan.lower > plan.link_lower);
        assert!(plan.envelope.lower >= plan.lower);
        // Stage ranges tile the schedule.
        let mut at = 0;
        for s in &plan.stages {
            assert_eq!(s.nodes.0, at);
            at = s.nodes.1;
        }
        assert_eq!(at, graph.depth());
    }

    #[test]
    fn unsplittable_graphs_surface_the_single_cube_error() {
        let (graph, params) = fat_mlp();
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 64; // nothing fits anywhere
        let link = LinkConfig::hmc_ext(8);
        let err = shard_graph(&cfg, &graph, &params, &link).unwrap_err();
        assert!(
            matches!(err, CompileError::VaultOverCapacity { .. }),
            "{err}"
        );
    }

    #[test]
    fn too_small_clusters_report_needed_cubes() {
        let (graph, params) = fat_mlp();
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 6 * 1024;
        let link = LinkConfig::hmc_ext(1);
        let err = shard_graph(&cfg, &graph, &params, &link).unwrap_err();
        match err {
            CompileError::ClusterOverCapacity { needed, available } => {
                assert_eq!(available, 1);
                assert!(needed > 1);
            }
            other => panic!("expected ClusterOverCapacity, got {other}"),
        }
    }

    #[test]
    fn banded_fc_parts_own_contiguous_output_rows() {
        let mut g = GraphBuilder::new(Shape::flat(32));
        g.layer("fc", INPUT, LayerSpec::fc(10, Activation::Sigmoid));
        let graph = g.build().unwrap();
        let params = graph.init_params(3, 0.5);
        let cfg = SystemConfig::paper(true);
        let cands = candidates(&cfg, &mut FcLowers::new(), &graph, 0, 1, None, 3);
        let banded = cands.iter().find(|c| c.parts.len() == 3).unwrap();
        let banded = banded.place(5, &params);
        let cube: Vec<usize> = banded.parts.iter().map(|p| p.cube).collect();
        let lo: Vec<usize> = banded.parts.iter().map(|p| p.out_lo).collect();
        let len: Vec<usize> = banded.parts.iter().map(|p| p.out_len).collect();
        assert_eq!(cube, vec![5, 6, 7]);
        assert_eq!(lo, vec![0, 3, 6]);
        assert_eq!(len, vec![3, 3, 4]);
        // Part weights are the band's rows of the full matrix.
        let p = &banded.parts[1];
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.params[0][..], params[0][3 * 32..6 * 32]);
    }
}
