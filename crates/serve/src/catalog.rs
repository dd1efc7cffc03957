//! The model catalog: per-model timing profiles and network payloads.
//!
//! A serving pool schedules in *virtual* time, so it needs each model's
//! service time before any request arrives. Because the cycle model's
//! timing is input-independent (operand values never change control
//! flow), one profiling inference per model captures it exactly: the
//! catalog runs each registered model once on a fresh [`ServeCube`] —
//! the slot every replay and audit runs on — and memoizes the measured
//! cycles as the model's `service_cycles`. The
//! affinity-miss charge comes from the `golden::timing` host term — the
//! sum of per-phase `programming_cycles` under a [`ProgrammingModel`],
//! one charge per model on one cube — so the scheduler and the analytical
//! timing model can never disagree about what a reprogram costs.
//!
//! Scheduler-only tests can skip the expensive profiling run with
//! [`ModelCatalog::register_synthetic`], which installs a model that has
//! timing but no network; such models schedule normally but cannot be
//! executed.

use crate::cube::ServeCube;
use neurocube::{ProgrammingModel, SystemConfig};
use neurocube_cluster::{shard_graph, LinkConfig, ShardedGraph};
use neurocube_fixed::Q88;
use neurocube_golden::timing::{graph_bounds, graph_service_envelope, DEFAULT_SLACK};
use neurocube_golden::CycleEnvelope;
use neurocube_nn::{GraphSpec, NetworkSpec, Shape, Tensor};
use std::sync::Arc;

/// The servable payload of a registered model.
pub enum ModelPayload {
    /// A model on the slot's own cube: the layer DAG (a linear network as
    /// its trivial graph) and its per-node weights, executed pipelined
    /// (one host programming round-trip per inference).
    Graph(GraphSpec, Vec<Vec<Q88>>),
    /// A sharded tenant: a certified `neurocube_cluster` plan for a
    /// graph too large for one cube, executed on a cluster of member
    /// cubes attached to the serving slot.
    Sharded(Arc<ShardedGraph>),
}

impl ModelPayload {
    /// Input element count the payload expects.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.input_shape().len()
    }

    /// Input volume shape the payload expects.
    #[must_use]
    pub fn input_shape(&self) -> Shape {
        match self {
            ModelPayload::Graph(graph, _) => graph.input_shape(),
            ModelPayload::Sharded(plan) => plan.input_shape(),
        }
    }

    /// Ensures this payload holds the serving slot `cube` under `tag`,
    /// whichever kind it is. Returns `true` on an affinity hit (see
    /// [`ServeCube`]); after this the slot serves inferences through
    /// [`ServeCube::run_service`]. Shared by catalog profiling, the
    /// full-replay executor and the two-speed audit replays so no two
    /// paths can program a slot differently.
    ///
    /// # Panics
    ///
    /// Panics if the payload does not fit the slot configuration.
    pub fn ensure_on(&self, cube: &mut ServeCube, tag: u64) -> bool {
        match cube.ensure(tag, self) {
            Ok(hit) => hit,
            Err(e) => panic!("model {tag} does not fit the serving slot: {e}"),
        }
    }

    /// Wraps a request payload in the input tensor shape this model
    /// expects.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong element count (admission rejects
    /// such requests before any replay sees them).
    #[must_use]
    pub fn input_tensor(&self, input: Vec<Q88>) -> Tensor {
        let s = self.input_shape();
        Tensor::from_vec(s.channels, s.height, s.width, input)
    }
}

/// One registered model.
pub struct ModelEntry {
    /// Catalog-unique name tenants address the model by.
    pub name: String,
    /// Dense numeric tag (the index in registration order); cubes track
    /// affinity by tag.
    pub tag: u64,
    /// Cycles one inference of this model occupies a cube, from the
    /// profiling run.
    pub service_cycles: u64,
    /// Host programming cycles charged when a cube switches to this
    /// model (the `golden::timing` host term: one programming charge for a
    /// model on one cube, one per member cube for a sharded tenant).
    pub reprogram_cycles: u64,
    /// The certified service envelope from `golden::timing`: every
    /// measured inference of this model must land inside (the two-speed
    /// audits assert it per replay). Registration asserts
    /// `service_cycles` itself sits inside, so the analytical fast path
    /// starts certified. Synthetic entries get the degenerate
    /// single-point envelope at their declared service time.
    pub envelope: CycleEnvelope,
    /// What the model executes; `None` for synthetic entries.
    pub payload: Option<ModelPayload>,
}

impl ModelEntry {
    /// Input element count this model expects (admission rejects any
    /// other payload length). Synthetic models declare a 1-element
    /// input, so shape validation applies to them uniformly.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.payload.as_ref().map_or(1, ModelPayload::input_len)
    }
}

/// The registry of servable models over one cube configuration.
pub struct ModelCatalog {
    cfg: SystemConfig,
    programming: ProgrammingModel,
    entries: Vec<ModelEntry>,
}

impl ModelCatalog {
    /// A catalog over `cfg`. Profiling and execution run with the host
    /// programming phase *untimed* (per-layer programming is not part of
    /// service time); the affinity-miss charge uses `cfg`'s programming
    /// model when set, [`ProgrammingModel::typical`] otherwise.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> ModelCatalog {
        let programming = cfg.programming.unwrap_or_else(ProgrammingModel::typical);
        let mut cfg = cfg;
        cfg.programming = None;
        ModelCatalog {
            cfg,
            programming,
            entries: Vec::new(),
        }
    }

    /// The execution configuration (programming phase untimed).
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The host programming model behind the reprogram charge.
    #[must_use]
    pub fn programming(&self) -> ProgrammingModel {
        self.programming
    }

    /// Registers a linear network under `name` as its trivial graph
    /// ([`ModelCatalog::register_graph`] of [`NetworkSpec::to_graph`]: the
    /// same weights from `seed`, the same single programming charge).
    /// Returns the model's tag.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or when the network does not fit the
    /// cube configuration.
    pub fn register(&mut self, name: &str, spec: NetworkSpec, seed: u64) -> u64 {
        self.register_graph(name, spec.to_graph(), seed)
    }

    /// Registers a compiled-graph tenant under `name`, initializing
    /// per-node weights from `seed` and profiling one pipelined inference
    /// to measure service time. The affinity-miss charge is a *single*
    /// host programming phase — the cube is programmed once per graph, so
    /// switching to a graph tenant costs one `layer_cycles` charge no
    /// matter how deep the DAG. Returns the model's tag.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or when the graph does not compile for
    /// the cube configuration.
    pub fn register_graph(&mut self, name: &str, graph: GraphSpec, seed: u64) -> u64 {
        assert!(self.lookup(name).is_none(), "duplicate model name {name}");
        let params = graph.init_params(seed, 0.25);

        // The golden timing model's host term for a compiled graph is one
        // programming charge on phase 0; asserted against the direct
        // formulation so the two can never drift apart.
        let reprogram_cycles: u64 = graph_bounds(&self.prog_cfg(), &graph)
            .iter()
            .map(|b| b.programming_cycles)
            .sum();
        assert_eq!(
            reprogram_cycles,
            self.programming.layer_cycles(self.cfg.nodes() as u32),
            "golden graph host term and one layer_cycles charge disagree"
        );

        let envelope = graph_service_envelope(&self.cfg, &graph, DEFAULT_SLACK);
        self.install(
            name,
            ModelPayload::Graph(graph, params),
            reprogram_cycles,
            envelope,
        )
    }

    /// Registers a sharded tenant under `name`: a graph too large for
    /// one cube, split by `neurocube_cluster::shard_graph` over `link`
    /// and profiled with one inference on a fresh cluster. The
    /// affinity-miss charge is one graph programming phase per member
    /// cube (the host configures every member before a cluster serves).
    /// Returns the model's tag.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names, or when the planner cannot shard the
    /// graph over `link` (over capacity or unsplittable), or when the
    /// profiled service time escapes the plan's certified envelope.
    pub fn register_sharded(
        &mut self,
        name: &str,
        graph: GraphSpec,
        seed: u64,
        link: &LinkConfig,
    ) -> u64 {
        assert!(self.lookup(name).is_none(), "duplicate model name {name}");
        let params = graph.init_params(seed, 0.25);
        let plan = match shard_graph(&self.cfg, &graph, &params, link) {
            Ok(plan) => plan,
            Err(e) => panic!("model {name}: sharding failed: {e}"),
        };

        // The host programs every member cube's subprogram before the
        // cluster can serve: one graph programming charge per member.
        let reprogram_cycles =
            plan.cubes() as u64 * self.programming.layer_cycles(self.cfg.nodes() as u32);

        // The planner's link-aware pipeline envelope is the certified
        // contract.
        let envelope = plan.envelope;
        self.install(
            name,
            ModelPayload::Sharded(Arc::new(plan)),
            reprogram_cycles,
            envelope,
        )
    }

    /// The configuration the golden host term is priced under: the
    /// catalog's with its programming model timed.
    fn prog_cfg(&self) -> SystemConfig {
        let mut cfg = self.cfg.clone();
        cfg.programming = Some(self.programming);
        cfg
    }

    /// Profiles `payload` with one inference on a fresh [`ServeCube`] —
    /// the calls the executor and the audits replay through — and adds
    /// the entry under the next tag. The profiled time must sit inside
    /// `envelope`: outside would mean the golden timing model (or the
    /// planner) and the simulator disagree, a defect registration
    /// refuses to memoize.
    fn install(
        &mut self,
        name: &str,
        payload: ModelPayload,
        reprogram_cycles: u64,
        envelope: CycleEnvelope,
    ) -> u64 {
        let tag = self.entries.len() as u64;
        let mut slot = ServeCube::new(self.cfg.clone());
        payload.ensure_on(&mut slot, tag);
        let input = payload.input_tensor(input_payload(payload.input_len(), 0));
        let (_, service_cycles) = slot.run_service(&input);
        assert!(service_cycles > 0, "profiled model must take time");
        assert!(
            envelope.contains(service_cycles),
            "model {name}: profiled {service_cycles} cycles escape the \
             certified envelope [{}, {}]",
            envelope.lower,
            envelope.upper
        );
        self.entries.push(ModelEntry {
            name: name.to_string(),
            tag,
            service_cycles,
            reprogram_cycles,
            envelope,
            payload: Some(payload),
        });
        tag
    }

    /// Registers a timing-only model for scheduler tests: it queues,
    /// batches and sheds like any other, but holds no network and cannot
    /// be executed.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or zero service time.
    pub fn register_synthetic(
        &mut self,
        name: &str,
        service_cycles: u64,
        reprogram_cycles: u64,
    ) -> u64 {
        assert!(self.lookup(name).is_none(), "duplicate model name {name}");
        assert!(service_cycles > 0, "service time must be positive");
        let tag = self.entries.len() as u64;
        self.entries.push(ModelEntry {
            name: name.to_string(),
            tag,
            service_cycles,
            reprogram_cycles,
            envelope: CycleEnvelope::exact(service_cycles),
            payload: None,
        });
        tag
    }

    /// Looks a model up by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<&ModelEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// One model by tag.
    ///
    /// # Panics
    ///
    /// Panics when the tag was never issued by this catalog.
    #[must_use]
    pub fn entry(&self, tag: u64) -> &ModelEntry {
        &self.entries[usize::try_from(tag).expect("tag fits usize")]
    }

    /// Registered models in tag order.
    pub fn entries(&self) -> impl Iterator<Item = &ModelEntry> {
        self.entries.iter()
    }

    /// Number of registered models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no model is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Deterministic per-request payload: a ramp offset by the request id so
/// different requests produce different outputs (exercising the
/// executor's checksum) while staying cheap to generate. Request id 0 is
/// the profiling input (values never affect timing; any payload of the
/// right shape measures the same service time).
#[must_use]
pub(crate) fn input_payload(len: usize, request_id: u64) -> Vec<Q88> {
    (0..len)
        .map(|i| {
            let phase = (i as u64 + request_id) % 64;
            Q88::from_f64((phase as f64 - 32.0) / 32.0)
        })
        .collect()
}

/// The shared sharding fixture of the serve suites: a two-layer MLP
/// whose 256×256 hidden layer needs 8 KiB of streamed weights per vault
/// — over capacity once `region_bytes` shrinks to 6 KiB, so the planner
/// must split it across cubes.
#[cfg(test)]
pub(crate) fn sharded_test_graph() -> GraphSpec {
    use neurocube_fixed::Activation;
    use neurocube_nn::{GraphBuilder, LayerSpec, INPUT};
    let mut g = GraphBuilder::new(Shape::flat(256));
    g.layer("mid", INPUT, LayerSpec::fc(256, Activation::Tanh));
    g.layer("head", "mid", LayerSpec::fc(16, Activation::Sigmoid));
    g.build().expect("the fixture graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube_nn::workloads;

    #[test]
    fn register_profiles_service_and_reprogram_cycles() {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        let tag = cat.register("tiny", workloads::tiny_convnet(), 7);
        let e = cat.entry(tag);
        assert_eq!(e.name, "tiny");
        assert!(e.service_cycles > 0);
        // One charge for the whole chain: 16 nodes × 12 regs × 10 ns at
        // 5 GHz.
        assert_eq!(
            e.reprogram_cycles,
            ProgrammingModel::typical().layer_cycles(16)
        );
        assert_eq!(cat.lookup("tiny").unwrap().tag, tag);
        assert!(cat.lookup("missing").is_none());
    }

    #[test]
    fn synthetic_models_schedule_without_networks() {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        let tag = cat.register_synthetic("ghost", 500, 100);
        let e = cat.entry(tag);
        assert_eq!(e.service_cycles, 500);
        assert_eq!(e.reprogram_cycles, 100);
        assert!(e.payload.is_none());
        assert_eq!(e.input_len(), 1);
        assert_eq!(e.envelope, CycleEnvelope::exact(500));
    }

    #[test]
    fn registered_entries_carry_a_certified_envelope() {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        let lin = cat.register("tiny", workloads::tiny_convnet(), 7);
        let g = cat.register_graph("res", workloads::residual_toy(), 7);
        for tag in [lin, g] {
            let e = cat.entry(tag);
            assert!(e.envelope.lower > 0, "{}: positive lower bound", e.name);
            assert!(
                e.envelope.contains(e.service_cycles),
                "{}: profiled time inside its own envelope",
                e.name
            );
            assert!(e.envelope.upper > e.envelope.lower);
        }
        // The envelopes are the golden timing model's, bit for bit.
        let lin_env = graph_service_envelope(
            cat.config(),
            &workloads::tiny_convnet().to_graph(),
            DEFAULT_SLACK,
        );
        assert_eq!(cat.entry(lin).envelope, lin_env);
    }

    #[test]
    fn payload_helpers_program_and_shape_uniformly() {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        let tag = cat.register("tiny", workloads::tiny_convnet(), 7);
        let e = cat.entry(tag);
        let payload = e.payload.as_ref().unwrap();
        assert_eq!(payload.input_shape().len(), payload.input_len());
        let mut cube = ServeCube::new(cat.config().clone());
        assert!(!payload.ensure_on(&mut cube, tag), "first load is a miss");
        assert!(payload.ensure_on(&mut cube, tag), "second is a hit");
        let input = payload.input_tensor(input_payload(payload.input_len(), 3));
        let (out, cycles) = cube.run_service(&input);
        assert!(!out.is_empty() && cycles > 0);
    }

    #[test]
    fn sharded_tenants_profile_on_a_cluster_and_charge_per_member() {
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 6 * 1024;
        let mut cat = ModelCatalog::new(cfg);
        let tag = cat.register_sharded("wide", sharded_test_graph(), 5, &LinkConfig::hmc_ext(4));
        let e = cat.entry(tag);
        assert!(e.service_cycles > 0);
        assert!(e.envelope.contains(e.service_cycles));
        let Some(ModelPayload::Sharded(plan)) = &e.payload else {
            panic!("sharded registration carries the plan");
        };
        assert!(plan.cubes() >= 2, "the fixture must actually shard");
        assert_eq!(
            e.envelope, plan.envelope,
            "the plan's envelope, bit for bit"
        );
        assert_eq!(
            e.reprogram_cycles,
            plan.cubes() as u64 * ProgrammingModel::typical().layer_cycles(16),
            "one graph programming charge per member cube"
        );
        assert_eq!(e.input_len(), 256);
    }

    #[test]
    fn graph_tenants_profile_pipelined_and_reprogram_once() {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        let lin = cat.register("tiny", workloads::tiny_convnet(), 7);
        let g = cat.register_graph("res", workloads::residual_toy(), 7);
        let e = cat.entry(g);
        assert!(e.service_cycles > 0);
        assert!(matches!(e.payload, Some(ModelPayload::Graph(..))));
        assert_eq!(e.input_len(), 144);
        // One host charge for the whole DAG, and for a linear tenant too:
        // it is programmed as its graph.
        assert_eq!(
            e.reprogram_cycles,
            ProgrammingModel::typical().layer_cycles(16)
        );
        assert_eq!(
            cat.entry(lin).reprogram_cycles,
            e.reprogram_cycles,
            "a 4-layer linear tenant pays one charge"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate model name")]
    fn duplicate_names_are_rejected() {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        cat.register_synthetic("m", 10, 0);
        cat.register_synthetic("m", 20, 0);
    }
}
