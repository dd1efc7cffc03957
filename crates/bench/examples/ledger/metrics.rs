//! The metrics the ledger prints: name, unit, which way is better, and
//! for an end-to-end metric the bound by which it may worsen before a
//! change counts as a regression. `BENCHMARK.json` repeats these tables;
//! the smoke test holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or memory: subject to the machine's noise.
    Host,
    /// Simulated cycles or a count the program makes: repeats exactly
    /// for one commit and one seed.
    Sim,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median; `None` for a per-layer metric.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: Some(bound),
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: None,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock: Clock::Sim,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How long one run measures, in seconds, unless `--seconds` says
/// otherwise; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// What a user of the system sees; each means the same thing on every
/// workload (README.md, "End-to-end metrics"). The bound of `sim_cycles`
/// covers the spread between seeds, which the serve workloads have
/// because `--seed` draws their traffic; between two runs with one seed
/// `ledger compare` allows it no difference at all.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, Clock::Host, 0.25),
    e2e(
        "sim_cycles_per_host_s",
        "cycles/s",
        Higher,
        Clock::Host,
        0.25,
    ),
    e2e("peak_rss_mb", "MiB", Lower, Clock::Host, 0.10),
    e2e("sim_cycles", "cycles", Lower, Clock::Sim, 0.05),
];

/// One layer each, named `<crate>.<metric>`; from the traced run. A
/// metric that is not measured on a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // core, host side
    host("core.new_s", "s", Lower),
    host("core.load_s", "s", Lower),
    host("core.run_s", "s", Lower),
    host("core.stats_registry_s", "s", Lower),
    host("core.host_ns_per_cycle", "ns/cycle", Lower),
    host("core.host_ns_per_ticked_cycle", "ns/cycle", Lower),
    // core, the model
    sim("core.sim_gops", "GOPs/s", Higher),
    sim("core.paper_gops_rel_err", "ratio", Higher),
    sim("core.registry_digest", "hash", Lower),
    // sim
    sim("sim.skipped_cycle_share", "ratio", Higher),
    sim("sim.horizon_jumps", "count", Lower),
    sim("sim.cycles_per_jump", "cycles", Higher),
    host("sim.batch_runner_speedup", "ratio", Higher),
    // pe
    sim("pe.mac_ops", "count", Lower),
    sim("pe.starved_cycles", "cycles", Lower),
    sim("pe.mac_utilization", "ratio", Higher),
    sim("pe.cache_high_water", "count", Lower),
    // png
    sim("png.operands_sent", "count", Lower),
    sim("png.reads_issued", "count", Lower),
    sim("png.writes_issued", "count", Lower),
    sim("png.inject_stalls", "count", Lower),
    sim("png.gate_stalls", "count", Lower),
    sim("png.queue_stalls", "count", Lower),
    sim("png.outq_stalls", "count", Lower),
    host("png.ns_per_operand_event", "ns", Lower),
    // noc
    sim("noc.injected", "count", Lower),
    sim("noc.lateral_share", "ratio", Lower),
    sim("noc.mean_hops", "count", Lower),
    sim("noc.mean_latency_cycles", "cycles", Lower),
    sim("noc.inject_stalls", "count", Lower),
    host("noc.ns_per_delivered_packet", "ns", Lower),
    // dram
    sim("dram.bits_transferred", "bits", Lower),
    sim("dram.row_misses", "count", Lower),
    sim("dram.energy_j", "J", Lower),
    host("dram.ns_per_read_word", "ns", Lower),
    host("dram.ns_per_write_word", "ns", Lower),
    // fixed
    host("fixed.mac_ns_per_op", "ns", Lower),
    // nn
    host("nn.init_params_s", "s", Lower),
    host("nn.forward_s", "s", Lower),
    // serve, host side
    host("serve.catalog_register_s", "s", Lower),
    host("serve.generate_s", "s", Lower),
    host("serve.schedule_s", "s", Lower),
    host("serve.execute_s", "s", Lower),
    host("serve.cube_new_s", "s", Lower),
    host("serve.ensure_on_s", "s", Lower),
    host("serve.run_service_s", "s", Lower),
    host("serve.price_s", "s", Lower),
    host("serve.release_s", "s", Lower),
    host("serve.audit_s", "s", Lower),
    host("serve.generate_ns_per_request", "ns", Lower),
    host("serve.schedule_ns_per_request", "ns", Lower),
    host("serve.run_service_ms_per_request", "ms", Lower),
    host("serve.ensure_on_ms_per_miss", "ms", Lower),
    host("serve.requests_per_host_s", "req/s", Higher),
    // serve, the model
    sim("serve.batches", "count", Lower),
    sim("serve.mean_batch_size", "req", Higher),
    sim("serve.affinity_hit_rate", "ratio", Higher),
    sim("serve.shed_share", "ratio", Lower),
    sim("serve.rejected_share", "ratio", Lower),
    sim("serve.reprogram_cycles", "cycles", Lower),
    sim("serve.goodput_per_mcycle", "req/Mcycle", Higher),
    sim("serve.latency_p50_cycles", "cycles", Lower),
    sim("serve.latency_p99_cycles", "cycles", Lower),
    sim("serve.goodput_per_mcycle.diurnal", "req/Mcycle", Higher),
    sim("serve.goodput_per_mcycle.rush", "req/Mcycle", Higher),
    sim("serve.failed_share.diurnal", "ratio", Lower),
    sim("serve.failed_share.rush", "ratio", Lower),
    sim("serve.slo_load_factor", "ratio", Higher),
    sim("serve.slo_goodput_per_mcycle", "req/Mcycle", Higher),
    sim("serve.audit_coverage", "ratio", Higher),
    sim("serve.audit_violations", "count", Lower),
    sim("serve.audit_slack_lower_min_cycles", "cycles", Lower),
    sim("serve.audit_slack_upper_min_cycles", "cycles", Lower),
    // cluster, host side
    host("cluster.plan_s", "s", Lower),
    host("cluster.build_s", "s", Lower),
    host("cluster.run_batch_s", "s", Lower),
    host("cluster.host_ns_per_cube_cycle", "ns/cycle", Lower),
    // cluster, the model
    sim("cluster.cubes", "count", Lower),
    sim("cluster.stages", "count", Lower),
    sim("cluster.transfers", "count", Lower),
    sim("cluster.link_bytes", "B", Lower),
    sim("cluster.link_energy_j", "J", Lower),
    sim("cluster.plan_lower_cycles", "cycles", Lower),
    sim("cluster.latency_over_lower", "ratio", Lower),
    sim("cluster.jumps", "count", Lower),
    // the benchmark itself
    host("trace_overhead_share", "ratio", Lower),
    host("trace_unattributed_share", "ratio", Lower),
];

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
