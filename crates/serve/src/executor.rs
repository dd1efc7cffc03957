//! Replays a schedule on real cubes and proves execution determinism.
//!
//! The scheduler plans in virtual time; this module carries the plan out:
//! each [`DispatchRecord`] becomes real `Neurocube` inferences on a
//! [`ServeCube`] slot (its own cube for a graph — a linear network is its
//! trivial graph — a cluster for a sharded tenant), with the payload's
//! `ensure_on`
//! reproducing exactly the affinity hits and misses the scheduler
//! predicted (asserted per record).
//!
//! Per-cube record streams are independent once the schedule is fixed, so
//! they can run serially or on [`BatchRunner`] threads; either way each
//! cube replays its own records in dispatch order, and the merged
//! `serve.exec.*` registry — including a checksum folded over every
//! output value — is bitwise identical. That is the serving layer's
//! execution-determinism contract, and the suites assert it.

use crate::catalog::ModelCatalog;
use crate::cube::ServeCube;
use crate::request::Request;
use crate::scheduler::DispatchRecord;
use neurocube_sim::{BatchRunner, StatsRegistry};

/// The order-sensitive output-checksum fold both replay paths share:
/// every output element of every request, in replay order — two replays
/// agree on the final value iff they agree on every output bit. The
/// same fold merges per-cube checksums in cube order.
const CHECKSUM_PRIME: u64 = 0x100_0000_01b3;

/// One step of the checksum fold.
pub(crate) fn fold_checksum(checksum: u64, value: u64) -> u64 {
    checksum.wrapping_mul(CHECKSUM_PRIME).wrapping_add(value)
}

/// How to drive the per-cube replay jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One cube after another on the calling thread.
    Serial,
    /// All cubes concurrently on [`BatchRunner`] threads.
    Batched,
}

impl ExecMode {
    /// Runs `job(c)` for every cube `c` in `0..cubes` in this mode and
    /// returns the results in cube order.
    pub(crate) fn run<T: Send>(self, cubes: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        match self {
            ExecMode::Serial => (0..cubes).map(job).collect(),
            ExecMode::Batched => BatchRunner::new().run(cubes, job),
        }
    }
}

/// Per-cube replay result, merged in cube order regardless of mode.
struct CubeExec {
    batches: u64,
    requests: u64,
    affinity_hits: u64,
    affinity_misses: u64,
    /// Order-sensitive fold over every output element of every request,
    /// in replay order — two replays agree on this iff they agree on
    /// every output value.
    output_checksum: u64,
}

fn replay_cube(catalog: &ModelCatalog, trace: &[Request], records: &[&DispatchRecord]) -> CubeExec {
    let mut cube = ServeCube::new(catalog.config().clone());
    let mut exec = CubeExec {
        batches: 0,
        requests: 0,
        affinity_hits: 0,
        affinity_misses: 0,
        output_checksum: 0,
    };
    for rec in records {
        let entry = catalog.entry(rec.model);
        let payload = entry
            .payload
            .as_ref()
            .expect("synthetic models cannot be executed; register real networks");
        // Graph tenants compile once and run pipelined, sharded tenants
        // attach a whole cluster. Both share the slot's single affinity
        // position.
        let hit = payload.ensure_on(&mut cube, rec.model);
        assert_eq!(
            hit, rec.affinity_hit,
            "cube {} model {}: the pool's affinity state diverged from the schedule",
            rec.cube, entry.name
        );
        if hit {
            exec.affinity_hits += 1;
        } else {
            exec.affinity_misses += 1;
        }
        exec.batches += 1;
        for &id in &rec.requests {
            let req = &trace[usize::try_from(id).expect("id fits usize")];
            let input = payload.input_tensor(req.input.clone());
            let (output, _) = cube.run_service(&input);
            for &v in output.as_slice() {
                exec.output_checksum =
                    fold_checksum(exec.output_checksum, v.to_bits() as u16 as u64);
            }
            exec.requests += 1;
        }
    }
    exec
}

/// Executes every batch in `records` on real cubes and returns the
/// merged `serve.exec.*` registry. Bitwise identical across modes.
///
/// # Panics
///
/// Panics when a record names a synthetic (timing-only) model, or when a
/// cube's real affinity state disagrees with the schedule's prediction.
#[must_use]
pub fn execute(
    catalog: &ModelCatalog,
    trace: &[Request],
    records: &[DispatchRecord],
    mode: ExecMode,
) -> StatsRegistry {
    let pool = records.iter().map(|r| r.cube + 1).max().unwrap_or(0);
    let per_cube: Vec<Vec<&DispatchRecord>> = (0..pool)
        .map(|c| records.iter().filter(|r| r.cube == c).collect())
        .collect();

    let execs = mode.run(per_cube.len(), |c| {
        replay_cube(catalog, trace, &per_cube[c])
    });

    let mut total = CubeExec {
        batches: 0,
        requests: 0,
        affinity_hits: 0,
        affinity_misses: 0,
        output_checksum: 0,
    };
    // Merge in cube order — the same fold no matter which threads ran
    // which cube, so both modes export identical registries.
    for e in &execs {
        total.batches += e.batches;
        total.requests += e.requests;
        total.affinity_hits += e.affinity_hits;
        total.affinity_misses += e.affinity_misses;
        total.output_checksum = fold_checksum(total.output_checksum, e.output_checksum);
    }

    let mut stats = StatsRegistry::new();
    let mut s = stats.scoped("serve.exec");
    s.counter("cubes", pool as u64);
    s.counter("batches", total.batches);
    s.counter("requests", total.requests);
    s.counter("affinity.hits", total.affinity_hits);
    s.counter("affinity.misses", total.affinity_misses);
    s.counter("output_checksum", total.output_checksum);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::sharded_test_graph;
    use crate::scheduler::{serve, ServeConfig};
    use crate::traffic::{generate, TrafficSpec};
    use neurocube::SystemConfig;
    use neurocube_cluster::LinkConfig;

    /// A sharded tenant is a first-class serve target: scheduled traffic
    /// replays on clusters with the same serial==threaded bitwise
    /// registry contract every other tenant kind has.
    #[test]
    fn sharded_tenants_replay_identically_in_both_modes() {
        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 6 * 1024;
        let mut cat = ModelCatalog::new(cfg);
        cat.register_sharded("wide", sharded_test_graph(), 5, &LinkConfig::hmc_ext(4));
        let spec = TrafficSpec::poisson(11, 50_000.0, 8, vec![("wide".to_string(), 1)]);
        let trace = generate(&cat, &spec);
        let report = serve(&cat, &ServeConfig::new(2), &trace);
        assert!(!report.records.is_empty(), "some batches must dispatch");

        let serial = execute(&cat, &trace, &report.records, ExecMode::Serial);
        let batched = execute(&cat, &trace, &report.records, ExecMode::Batched);
        assert_eq!(serial.first_difference(&batched), None);
        assert!(serial.counter("serve.exec.requests") > 0);
        assert!(serial.counter("serve.exec.output_checksum") != 0);

        // Reruns are bitwise identical too.
        let again = execute(&cat, &trace, &report.records, ExecMode::Serial);
        assert_eq!(serial.first_difference(&again), None);
    }

    /// Pins the serving slot: a linear, a graph and a sharded tenant
    /// interleaved on every slot of a pool of two. The profiled service
    /// times, `execute`'s counters and the cycle count of every
    /// `run_service` on a directly driven slot are frozen constants — any
    /// change to how a slot loads, holds, switches or runs a model shows
    /// up here first. The service times were recorded at a62524c; the
    /// counters and the cycle fold at 8de9fbe with the linear tenant
    /// registered as its graph. A linear tenant used to pay one
    /// programming charge per layer on a switch and now pays one per
    /// model, which reshapes the schedule (there it was `[9, 11,
    /// 15_689_397_101_876_691_554]` and `10_004_060_265_505_554_496`).
    #[test]
    fn three_tenant_kinds_interleave_on_each_slot_with_pinned_cycles() {
        use crate::cube::ServeCube;
        use neurocube_nn::workloads;

        let mut cfg = SystemConfig::paper(true);
        cfg.memory.region_bytes = 6 * 1024;
        let mut cat = ModelCatalog::new(cfg);
        let lin = cat.register("lin", workloads::tiny_convnet(), 7);
        let graph = cat.register_graph("res", workloads::residual_toy(), 7);
        let wide = cat.register_sharded("wide", sharded_test_graph(), 5, &LinkConfig::hmc_ext(4));
        let service: Vec<u64> = [lin, graph, wide]
            .iter()
            .map(|&t| cat.entry(t).service_cycles)
            .collect();

        let mix = ["lin", "res", "wide"].map(|n| (n.to_string(), 1)).to_vec();
        let spec = TrafficSpec::poisson(17, 6_000.0, 36, mix);
        let trace = generate(&cat, &spec);
        let report = serve(&cat, &ServeConfig::new(2), &trace);
        for c in 0..2 {
            let models: Vec<u64> = report
                .records
                .iter()
                .filter(|r| r.cube == c)
                .map(|r| r.model)
                .collect();
            for t in [lin, graph, wide] {
                assert!(models.contains(&t), "cube {c} serves model {t}: {models:?}");
            }
            let switches = models.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(switches >= 3, "cube {c} switches kinds: {models:?}");
        }

        let stats = execute(&cat, &trace, &report.records, ExecMode::Serial);
        let counters = [
            stats.counter("serve.exec.affinity.hits"),
            stats.counter("serve.exec.affinity.misses"),
            stats.counter("serve.exec.output_checksum"),
        ];

        // The slot driven directly, as the ledger's replay drives it.
        let mut cycles = 0u64;
        for c in 0..2 {
            let mut slot = ServeCube::new(cat.config().clone());
            for rec in report.records.iter().filter(|r| r.cube == c) {
                let payload = cat.entry(rec.model).payload.as_ref().unwrap();
                assert_eq!(payload.ensure_on(&mut slot, rec.model), rec.affinity_hit);
                for &id in &rec.requests {
                    let input = payload.input_tensor(trace[id as usize].input.clone());
                    cycles = fold_checksum(cycles, slot.run_service(&input).1);
                }
            }
        }

        assert_eq!(
            (service, counters, cycles),
            (
                vec![2_816, 2_816, 9_536],
                [10, 14, 18_345_226_349_613_690_458],
                9_135_962_838_401_606_272
            ),
            "the slot's pinned cycles or values moved"
        );
    }
}
