//! The serving cube: one pool slot and the one model it holds.
//!
//! The scheduler's affinity model is per *slot*: a slot keeps the last
//! model it programmed, and a same-tag dispatch skips the reprogramming
//! charge. [`ServeCube`] holds exactly one model under one tag — a
//! compiled graph (a linear network is its trivial graph) programmed on
//! the slot's own cube, or a sharded tenant's whole [`Cluster`] of member
//! cubes — so a tag match is a hit and any other load replaces what the
//! slot held. The
//! replay's hits and misses therefore reproduce the schedule's tag-based
//! predictions bit for bit no matter how tenant kinds interleave.
//!
//! The slot's own cube lives as long as the slot: a kind switch reloads
//! it but never rebuilds or resets it, so its DRAM row-buffer state (the
//! warm timing the audits envelope) carries across tenants.

use crate::catalog::ModelPayload;
use neurocube::{LoadedGraph, Neurocube, SystemConfig};
use neurocube_cluster::Cluster;
use neurocube_nn::Tensor;
use neurocube_png::CompileError;

/// What a slot holds: a model programmed on its own cube, or a sharded
/// tenant's cluster.
enum Held {
    Graph(LoadedGraph),
    Sharded(Cluster),
}

/// One serving slot: the slot's cube plus the tagged model it holds.
pub struct ServeCube {
    cube: Neurocube,
    held: Option<(u64, Held)>,
}

impl ServeCube {
    /// A fresh slot with nothing loaded.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> ServeCube {
        ServeCube {
            cube: Neurocube::new(cfg),
            held: None,
        }
    }

    /// The tag of the model holding the slot, `None` when fresh.
    #[must_use]
    pub fn loaded_tag(&self) -> Option<u64> {
        self.held.as_ref().map(|(tag, _)| *tag)
    }

    /// Ensures `payload` holds the slot under `tag`. Returns `true` on an
    /// affinity hit (the slot already holds `tag`); otherwise loads the
    /// payload — programming the slot's cube, or building a fresh
    /// [`Cluster`] for a sharded plan — and returns `false`.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] of a graph or plan that cannot be
    /// placed under the slot's configuration; the slot keeps the model it
    /// held.
    pub(crate) fn ensure(
        &mut self,
        tag: u64,
        payload: &ModelPayload,
    ) -> Result<bool, CompileError> {
        if self.loaded_tag() == Some(tag) {
            return Ok(true);
        }
        let held = match payload {
            ModelPayload::Graph(graph, params) => {
                Held::Graph(self.cube.load_graph(graph, params.clone())?)
            }
            ModelPayload::Sharded(plan) => {
                Held::Sharded(Cluster::new(self.cube.config(), plan.as_ref().clone())?)
            }
        };
        self.held = Some((tag, held));
        Ok(false)
    }

    /// Runs one inference on the model holding the slot and returns the
    /// output plus the measured cycles (the cube report's total for a
    /// model on the slot's cube, the cluster report's end-to-end cycles
    /// for a sharded one).
    ///
    /// # Panics
    ///
    /// Panics if the slot is fresh (nothing loaded).
    pub fn run_service(&mut self, input: &Tensor) -> (Tensor, u64) {
        match &mut self.held {
            Some((_, Held::Graph(graph))) => {
                let (out, report) = self.cube.run_inference(graph, input);
                (out, report.total_cycles())
            }
            Some((_, Held::Sharded(cluster))) => {
                let (out, report) = cluster.run(input);
                (out, report.cycles)
            }
            None => panic!("a serving slot runs only after a model is loaded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{input_payload, sharded_test_graph};
    use neurocube_cluster::{shard_graph, LinkConfig, ShardedGraph};
    use neurocube_nn::workloads;
    use std::sync::Arc;

    fn sharded_plan(cfg: &SystemConfig) -> Arc<ShardedGraph> {
        let graph = sharded_test_graph();
        let params = graph.init_params(5, 0.125);
        Arc::new(shard_graph(cfg, &graph, &params, &LinkConfig::hmc_ext(4)).unwrap())
    }

    /// A linear network, held as its graph.
    fn linear() -> ModelPayload {
        let graph = workloads::tiny_convnet().to_graph();
        let params = graph.init_params(1, 0.25);
        ModelPayload::Graph(graph, params)
    }

    fn graph() -> ModelPayload {
        let graph = workloads::residual_toy();
        let params = graph.init_params(5, 0.25);
        ModelPayload::Graph(graph, params)
    }

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 6 * 1024;
        cfg
    }

    /// The acceptance contract: a model too large for one cube's vault
    /// regions serves through the slot on a cluster, and the output is
    /// exactly the single-big-cube reference.
    #[test]
    fn sharded_service_matches_the_single_big_cube() {
        let cfg = small_cfg();
        let plan = sharded_plan(&cfg);
        assert!(plan.cubes() >= 2, "the fixture must actually shard");
        let shape = plan.input_shape();
        let input = Tensor::from_vec(
            shape.channels,
            shape.height,
            shape.width,
            input_payload(shape.len(), 3),
        );

        let payload = ModelPayload::Sharded(plan.clone());
        let mut slot = ServeCube::new(cfg.clone());
        assert!(!payload.ensure_on(&mut slot, 7), "first attach is a miss");
        assert!(payload.ensure_on(&mut slot, 7), "same tag is a hit");
        let (out, cycles) = slot.run_service(&input);
        assert!(cycles > 0);

        let mut big_cfg = cfg;
        big_cfg.memory.region_bytes = 256 << 20;
        let mut big = Neurocube::new(big_cfg);
        let loaded = big
            .load_graph(&plan.graph, plan.params.clone())
            .expect("the big cube holds the whole graph");
        let (reference, _) = big.run_inference(&loaded, &input);
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    /// Tenant kinds interleaving on one slot: every kind switch is a
    /// miss, matching the scheduler's tag-based affinity prediction — a
    /// sharded tenant displaces a model on the slot's cube and back.
    #[test]
    fn mono_and_sharded_tenants_share_one_slot() {
        let cfg = small_cfg();
        let sharded = ModelPayload::Sharded(sharded_plan(&cfg));
        let (lin, graph) = (linear(), graph());

        let mut slot = ServeCube::new(cfg);
        assert_eq!(slot.loaded_tag(), None);
        assert!(!lin.ensure_on(&mut slot, 10), "fresh slot misses");
        assert!(lin.ensure_on(&mut slot, 10), "same tag hits");
        assert!(!sharded.ensure_on(&mut slot, 20), "linear → sharded misses");
        assert_eq!(slot.loaded_tag(), Some(20));
        assert!(!lin.ensure_on(&mut slot, 10), "sharded → linear misses");
        assert_eq!(slot.loaded_tag(), Some(10));
        assert!(!sharded.ensure_on(&mut slot, 20), "linear → sharded misses");
        assert!(!graph.ensure_on(&mut slot, 30), "sharded → graph misses");
    }

    /// A slot that served other tenants in between reloads a model and
    /// reproduces a fresh slot's output bit for bit. Timing legitimately
    /// differs (DRAM row-buffer state persists across runs, so a warm
    /// cube is not a cold cube); value accuracy is what reloading must
    /// preserve.
    #[test]
    fn a_reloaded_model_matches_a_fresh_slot_bitwise() {
        let (lin, graph) = (linear(), graph());
        let input = Tensor::zeros(1, 12, 12);
        let fresh_out = |payload: &ModelPayload, tag| {
            let mut slot = ServeCube::new(SystemConfig::paper(true));
            payload.ensure_on(&mut slot, tag);
            slot.run_service(&input).0
        };
        let (lin_fresh, graph_fresh) = (fresh_out(&lin, 10), fresh_out(&graph, 30));

        let mut slot = ServeCube::new(SystemConfig::paper(true));
        for _ in 0..2 {
            assert!(!lin.ensure_on(&mut slot, 10));
            assert_eq!(slot.run_service(&input).0, lin_fresh);
            assert!(!graph.ensure_on(&mut slot, 30));
            assert_eq!(slot.run_service(&input).0, graph_fresh);
        }
    }

    /// `run_service` on a model held by the slot's own cube is the cube's
    /// own inference: same output, same cycles as a fresh cube's.
    #[test]
    fn run_service_dispatches_on_the_held_kind() {
        let input = Tensor::zeros(1, 12, 12);
        let spec = workloads::tiny_convnet();
        let params = spec.init_params(1, 0.25);
        let mut direct = Neurocube::new(SystemConfig::paper(true));
        let loaded = direct.load(spec, params);
        let (out, report) = direct.run_inference(&loaded, &input);

        let mut slot = ServeCube::new(SystemConfig::paper(true));
        linear().ensure_on(&mut slot, 10);
        assert_eq!(slot.run_service(&input), (out, report.total_cycles()));
    }

    #[test]
    #[should_panic(expected = "a serving slot runs only after a model is loaded")]
    fn a_fresh_slot_refuses_to_serve() {
        let mut slot = ServeCube::new(SystemConfig::paper(true));
        let _ = slot.run_service(&Tensor::zeros(1, 12, 12));
    }

    /// A graph that cannot be placed fails with the compiler's typed
    /// error and leaves the slot holding — and serving — what it held.
    #[test]
    fn an_unplaceable_graph_keeps_the_held_model() {
        let cfg = small_cfg();
        let graph = sharded_test_graph();
        let params = graph.init_params(5, 0.25);
        let too_big = ModelPayload::Graph(graph, params);
        let lin = linear();
        let input = Tensor::zeros(1, 12, 12);

        let mut slot = ServeCube::new(cfg);
        let err = slot.ensure(30, &too_big).unwrap_err();
        assert!(
            matches!(err, CompileError::VaultOverCapacity { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(slot.loaded_tag(), None, "a failed load holds nothing");

        assert!(!lin.ensure_on(&mut slot, 10));
        let (before, _) = slot.run_service(&input);
        assert!(slot.ensure(30, &too_big).is_err());
        assert_eq!(slot.loaded_tag(), Some(10));
        assert!(lin.ensure_on(&mut slot, 10), "still a hit");
        assert_eq!(slot.run_service(&input).0, before);
    }
}
