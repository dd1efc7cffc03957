//! The environment-knob contract: every `NEUROCUBE_SERVE_*` knob follows
//! `sim::env`'s documented rules — unset, empty, or unparseable reads as
//! `None` (the caller's default applies) and bad values return typed
//! errors or defaults, never a panic — and `NEUROCUBE_NO_SKIP` is
//! resolved fresh per cycle loop, never cached process-wide.
//!
//! These accessors read fixed process-global variable names, so every
//! test here runs behind the shared [`common::EnvGuard`] mutex: the
//! guard serializes the tests, clears the tracked names on entry and
//! restores the shell's values on exit, so parallel test threads can
//! never race on the process environment.

mod common;

use common::EnvGuard;
use neurocube::SystemConfig;
use neurocube_bench::run_inference_mode;
use neurocube_cluster::{ClusterTopology, LinkConfig};
use neurocube_serve::{AuditSampler, LoadProfile, Scenario, ServeConfig, TwoSpeedConfig};
use neurocube_sim::{
    cluster_link_gbps, cluster_link_ns, cluster_pj_bit, cluster_topology, serve_audit_rate,
    serve_load, serve_max_batch, serve_max_delay, serve_pool, serve_scenario, serve_seed,
};

/// A u64 far past `u64::MAX` — overflow must read as `None`, not wrap
/// or panic.
const OVERFLOW: &str = "99999999999999999999999";

#[test]
fn u64_knobs_parse_or_default_never_panic() {
    let g = EnvGuard::capture(&[
        "NEUROCUBE_SERVE_SEED",
        "NEUROCUBE_SERVE_MAX_BATCH",
        "NEUROCUBE_SERVE_MAX_DELAY",
        "NEUROCUBE_SERVE_POOL",
    ]);
    // Clean slate: every accessor reads None.
    assert_eq!(serve_seed(), None);
    assert_eq!(serve_max_batch(), None);
    assert_eq!(serve_max_delay(), None);
    assert_eq!(serve_pool(), None);
    for (name, read) in [
        ("NEUROCUBE_SERVE_SEED", serve_seed as fn() -> Option<u64>),
        ("NEUROCUBE_SERVE_MAX_BATCH", serve_max_batch),
        ("NEUROCUBE_SERVE_MAX_DELAY", serve_max_delay),
        ("NEUROCUBE_SERVE_POOL", serve_pool),
    ] {
        g.set(name, " 42 ");
        assert_eq!(read(), Some(42), "{name}: whitespace-tolerant parse");
        // "0" is a legitimate value under u64 rules, not an off switch.
        g.set(name, "0");
        assert_eq!(read(), Some(0), "{name}: zero is a value");
        g.set(name, "");
        assert_eq!(read(), None, "{name}: empty reads as unset");
        g.set(name, "4x2");
        assert_eq!(read(), None, "{name}: garbage reads as unset");
        g.set(name, "-3");
        assert_eq!(read(), None, "{name}: negative reads as unset");
        g.set(name, OVERFLOW);
        assert_eq!(read(), None, "{name}: overflow reads as unset");
        g.unset(name);
        assert_eq!(read(), None, "{name}: unset reads as unset");
    }
}

#[test]
fn audit_rate_follows_f64_rules_and_the_sampler_clamps() {
    let g = EnvGuard::capture(&["NEUROCUBE_SERVE_AUDIT_RATE"]);
    assert_eq!(serve_audit_rate(), None);
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "0.25");
    assert_eq!(serve_audit_rate(), Some(0.25));
    // "0" means "never audit" — a value, not an off switch.
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "0");
    assert_eq!(serve_audit_rate(), Some(0.0));
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "");
    assert_eq!(serve_audit_rate(), None);
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "often");
    assert_eq!(serve_audit_rate(), None);
    // "1e400" overflows f64 to infinity: the accessor passes it through
    // (documented f64 rules) and the sampler clamps it to 1.0 — the
    // knob can demand at most "audit everything", never a panic.
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "1e400");
    let rate = serve_audit_rate().expect("inf is a parseable f64");
    assert!(rate.is_infinite());
    assert_eq!(AuditSampler::new(1, rate).rate(), 1.0);
    // NaN likewise parses; the sampler reads it as "never audit".
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "NaN");
    let rate = serve_audit_rate().expect("NaN is a parseable f64");
    assert!(rate.is_nan());
    assert_eq!(AuditSampler::new(1, rate).rate(), 0.0);
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "-0.5");
    assert_eq!(
        AuditSampler::new(1, serve_audit_rate().unwrap()).rate(),
        0.0
    );
}

#[test]
fn scenario_resolution_returns_typed_errors_never_panics() {
    let g = EnvGuard::capture(&["NEUROCUBE_SERVE_SCENARIO"]);
    assert_eq!(serve_scenario(), None);
    assert_eq!(Scenario::from_env(), Ok(None), "unset: the default applies");
    g.set("NEUROCUBE_SERVE_SCENARIO", "");
    assert_eq!(Scenario::from_env(), Ok(None), "empty: the default applies");
    g.set("NEUROCUBE_SERVE_SCENARIO", "diurnal");
    let s = Scenario::from_env()
        .expect("valid name resolves")
        .expect("to a preset");
    assert_eq!(s.name, "diurnal");
    assert_eq!(s.profile, LoadProfile::Diurnal);
    g.set("NEUROCUBE_SERVE_SCENARIO", "weekend");
    let err = Scenario::from_env().expect_err("unknown name is a typed error");
    assert_eq!(err.0, "weekend");
    assert_eq!(
        err.to_string(),
        "unknown serving scenario \"weekend\" (valid: steady, diurnal, rush)"
    );
    // Scenario names are exact spellings, not fuzzy matches.
    g.set("NEUROCUBE_SERVE_SCENARIO", "Diurnal");
    assert!(Scenario::from_env().is_err());
}

#[test]
fn serve_load_is_a_string_knob_validated_downstream() {
    let g = EnvGuard::capture(&["NEUROCUBE_SERVE_LOAD"]);
    assert_eq!(serve_load(), None);
    g.set("NEUROCUBE_SERVE_LOAD", "bursty");
    assert_eq!(serve_load().as_deref(), Some("bursty"));
    assert_eq!(LoadProfile::parse("bursty"), Some(LoadProfile::Bursty));
    // The accessor does not validate: unknown profiles pass through and
    // the serving layer rejects them at configuration time.
    g.set("NEUROCUBE_SERVE_LOAD", "hurricane");
    assert_eq!(serve_load().as_deref(), Some("hurricane"));
    assert_eq!(LoadProfile::parse("hurricane"), None);
    g.set("NEUROCUBE_SERVE_LOAD", "");
    assert_eq!(serve_load(), None);
}

#[test]
fn serve_config_from_env_overrides_defaults() {
    let g = EnvGuard::capture(&[
        "NEUROCUBE_SERVE_POOL",
        "NEUROCUBE_SERVE_MAX_BATCH",
        "NEUROCUBE_SERVE_MAX_DELAY",
    ]);
    assert_eq!(
        ServeConfig::from_env(4),
        ServeConfig::new(4),
        "clean environment: pure defaults"
    );
    g.set("NEUROCUBE_SERVE_POOL", "6");
    g.set("NEUROCUBE_SERVE_MAX_BATCH", "16");
    g.set("NEUROCUBE_SERVE_MAX_DELAY", "999");
    let cfg = ServeConfig::from_env(4);
    assert_eq!(cfg.pool, 6);
    assert_eq!(cfg.max_batch, 16);
    assert_eq!(cfg.max_delay, 999);
    // Unparseable overrides fall back to the defaults, never panic.
    g.set("NEUROCUBE_SERVE_POOL", "six");
    g.set("NEUROCUBE_SERVE_MAX_BATCH", OVERFLOW);
    g.set("NEUROCUBE_SERVE_MAX_DELAY", "");
    assert_eq!(ServeConfig::from_env(4), ServeConfig::new(4));
}

#[test]
fn twospeed_config_from_env_overrides_defaults() {
    let g = EnvGuard::capture(&["NEUROCUBE_SERVE_SEED", "NEUROCUBE_SERVE_AUDIT_RATE"]);
    let cfg = TwoSpeedConfig::from_env(7, 0.02);
    assert_eq!(cfg.audit_seed, 7);
    assert_eq!(cfg.audit_rate, 0.02);
    assert_eq!(cfg.defect_cycles, 0, "no environment knob injects defects");
    g.set("NEUROCUBE_SERVE_SEED", "99");
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "0.5");
    let cfg = TwoSpeedConfig::from_env(7, 0.02);
    assert_eq!(cfg.audit_seed, 99);
    assert_eq!(cfg.audit_rate, 0.5);
    // Garbage falls back to the given defaults.
    g.set("NEUROCUBE_SERVE_SEED", OVERFLOW);
    g.set("NEUROCUBE_SERVE_AUDIT_RATE", "half");
    let cfg = TwoSpeedConfig::from_env(7, 0.02);
    assert_eq!((cfg.audit_seed, cfg.audit_rate), (7, 0.02));
}

/// The stale-cache regression: `NEUROCUBE_NO_SKIP` used to be resolved
/// once per process through a `OnceLock`, so a run started after the
/// environment changed (or after an `EnvGuard` restore) silently kept the
/// first-ever value. Resolution is now per cycle loop.
#[test]
fn no_skip_resolves_fresh_per_cycle_loop_never_cached() {
    let g = EnvGuard::capture(&["NEUROCUBE_NO_SKIP"]);
    let spec = neurocube_nn::workloads::mnist_mlp(64);
    let skipped = || {
        let (_, _, telemetry) = run_inference_mode(SystemConfig::paper(true), &spec, 3, None);
        telemetry.skipped_cycles
    };
    // Prime any would-be cache with the clean-slate default.
    assert!(skipped() > 0, "fast-forward is on by default");
    g.set("NEUROCUBE_NO_SKIP", "1");
    assert_eq!(skipped(), 0, "a run after the flag is set ticks naively");
    g.unset("NEUROCUBE_NO_SKIP");
    assert!(skipped() > 0, "a run after the flag is cleared skips again");
}

#[test]
fn cluster_knobs_follow_env_rules_and_resolve_fresh_per_link_config() {
    let g = EnvGuard::capture(&[
        "NEUROCUBE_CLUSTER_TOPOLOGY",
        "NEUROCUBE_CLUSTER_LINK_GBPS",
        "NEUROCUBE_CLUSTER_LINK_NS",
        "NEUROCUBE_CLUSTER_PJ_BIT",
    ]);
    // Clean slate: every accessor reads None and `from_env` is exactly
    // the HMC-class ring default.
    assert_eq!(cluster_topology(), None);
    assert_eq!(cluster_link_gbps(), None);
    assert_eq!(cluster_link_ns(), None);
    assert_eq!(cluster_pj_bit(), None);
    assert_eq!(LinkConfig::from_env(8), LinkConfig::hmc_ext(8));

    // f64 knobs: whitespace-tolerant parse, garbage and empty read as
    // unset (the default survives), never a panic.
    for (name, read) in [
        (
            "NEUROCUBE_CLUSTER_LINK_GBPS",
            cluster_link_gbps as fn() -> Option<f64>,
        ),
        ("NEUROCUBE_CLUSTER_LINK_NS", cluster_link_ns),
        ("NEUROCUBE_CLUSTER_PJ_BIT", cluster_pj_bit),
    ] {
        g.set(name, " 2.5 ");
        assert_eq!(read(), Some(2.5), "{name}: whitespace-tolerant parse");
        g.set(name, "fast");
        assert_eq!(read(), None, "{name}: garbage reads as unset");
        g.set(name, "");
        assert_eq!(read(), None, "{name}: empty reads as unset");
        g.unset(name);
    }

    // The string topology knob passes through; LinkConfig validates it.
    g.set("NEUROCUBE_CLUSTER_TOPOLOGY", "mesh8x2");
    assert_eq!(cluster_topology().as_deref(), Some("mesh8x2"));
    g.set("NEUROCUBE_CLUSTER_LINK_GBPS", "10");
    g.set("NEUROCUBE_CLUSTER_LINK_NS", "250");
    g.set("NEUROCUBE_CLUSTER_PJ_BIT", "3.5");
    let link = LinkConfig::from_env(16);
    assert_eq!(
        link.topology,
        ClusterTopology::Mesh {
            width: 8,
            height: 2
        }
    );
    assert_eq!(link.bandwidth_gbps, 10.0);
    assert_eq!(link.latency_ns, 250.0);
    assert_eq!(link.pj_per_bit, 3.5);

    // Fresh per construction, never cached: the same call after the
    // guard mutates the environment sees the new values immediately.
    g.set("NEUROCUBE_CLUSTER_TOPOLOGY", "ring");
    g.set("NEUROCUBE_CLUSTER_LINK_GBPS", "40");
    let again = LinkConfig::from_env(16);
    assert_eq!(again.topology, ClusterTopology::Ring(16));
    assert_eq!(again.bandwidth_gbps, 40.0);

    // Unparseable floats fall back to the defaults; a malformed topology
    // is a loud misconfiguration, not a silent default.
    g.set("NEUROCUBE_CLUSTER_LINK_GBPS", "warp");
    assert_eq!(LinkConfig::from_env(4).bandwidth_gbps, 40.0);
    g.set("NEUROCUBE_CLUSTER_TOPOLOGY", "torus");
    let panic = std::panic::catch_unwind(|| LinkConfig::from_env(4));
    assert!(panic.is_err(), "a malformed topology must refuse to load");
}

#[test]
fn guard_restores_the_invoking_shells_values() {
    let outer = EnvGuard::capture(&["NEUROCUBE_SERVE_SEED"]);
    outer.set("NEUROCUBE_SERVE_SEED", "123");
    {
        // A nested snapshot (under the same lock — the mutex is not
        // reentrant) sees the outer value, clears it, and restores it
        // on drop.
        let inner = common::EnvSnapshot::capture(&["NEUROCUBE_SERVE_SEED"]);
        assert_eq!(serve_seed(), None, "capture clears tracked names");
        inner.set("NEUROCUBE_SERVE_SEED", "456");
        assert_eq!(serve_seed(), Some(456));
    }
    assert_eq!(serve_seed(), Some(123), "drop restores the outer value");
}
