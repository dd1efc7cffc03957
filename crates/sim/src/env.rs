//! Unified parsing for `NEUROCUBE_*` environment variables.
//!
//! Every knob in the workspace goes through this module so that one
//! truthiness rule holds everywhere:
//!
//! * **Flags** ([`env_flag`]): a variable is ON iff it is set to a
//!   non-empty value other than `"0"`. Unset, empty, or `"0"` is OFF.
//!   A value that is not valid UTF-8 is still *set* and non-`"0"`, so it
//!   counts as ON (historically `env::var`-based readers silently treated
//!   such values as unset while `var_os`-based readers did not — this
//!   module exists to end that divergence).
//! * **Values** ([`env_u64`], [`env_f64`], [`env_str`]): unset, empty, or
//!   unparseable reads as `None`; callers apply their own defaults.
//!   `"0"` is a legitimate value here, not an off switch — rate/seed
//!   semantics (e.g. `NEUROCUBE_FAULT_RATE=0` meaning "no faults") belong
//!   to the caller.
//!
//! Known variables routed through here: `NEUROCUBE_NO_SKIP`,
//! `NEUROCUBE_STAGE_PROFILE`, `NEUROCUBE_FAULT_ECC` (flags);
//! `NEUROCUBE_FAULT_SEED`, `NEUROCUBE_SERVE_SEED`,
//! `NEUROCUBE_SERVE_MAX_BATCH`, `NEUROCUBE_SERVE_MAX_DELAY`,
//! `NEUROCUBE_SERVE_POOL` (u64); `NEUROCUBE_FAULT_RATE`,
//! `NEUROCUBE_BENCH_MIN_SPEEDUP`, `NEUROCUBE_SERVE_AUDIT_RATE` (f64);
//! `NEUROCUBE_SCALE`, `NEUROCUBE_SERVE_LOAD`,
//! `NEUROCUBE_SERVE_SCENARIO`, `NEUROCUBE_CLUSTER_TOPOLOGY` (string);
//! `NEUROCUBE_CLUSTER_LINK_GBPS`, `NEUROCUBE_CLUSTER_LINK_NS`,
//! `NEUROCUBE_CLUSTER_PJ_BIT` (f64). The serving-layer knobs have
//! dedicated accessors ([`serve_seed`], [`serve_load`],
//! [`serve_max_batch`], [`serve_max_delay`], [`serve_pool`],
//! [`serve_audit_rate`], [`serve_scenario`]) so the variable names live
//! in exactly one place, and the cluster-link knobs likewise
//! ([`cluster_topology`], [`cluster_link_gbps`], [`cluster_link_ns`],
//! [`cluster_pj_bit`]). Path-valued variables (`NEUROCUBE_CSV`,
//! `NEUROCUBE_BENCH_OUT`, `NEUROCUBE_BENCH_SERVE_OUT`) stay on `var_os`
//! — paths may legitimately be non-UTF-8.
//!
//! These accessors read fixed process-global variable names, so their
//! tests live in the integration suite (`tests/tests/env_knobs.rs`)
//! behind a shared mutex-backed environment guard — unit tests here
//! stick to `NC_TEST_*` names no other test reads.

use std::ffi::OsString;

/// Raw lookup shared by all readers: `None` when unset or set to the
/// empty string; otherwise the value, UTF-8 or not.
fn raw(name: &str) -> Option<OsString> {
    std::env::var_os(name).filter(|v| !v.is_empty())
}

/// Boolean flag: ON iff set to a non-empty value other than `"0"`.
/// Non-UTF-8 values count as ON.
#[must_use]
pub fn env_flag(name: &str) -> bool {
    raw(name).is_some_and(|v| v.to_str() != Some("0"))
}

/// String value: `None` when unset, empty, or not valid UTF-8.
#[must_use]
pub fn env_str(name: &str) -> Option<String> {
    raw(name)?.into_string().ok()
}

/// Unsigned integer value: `None` when unset, empty, or unparseable.
#[must_use]
pub fn env_u64(name: &str) -> Option<u64> {
    env_str(name)?.trim().parse().ok()
}

/// Floating-point value: `None` when unset, empty, or unparseable.
#[must_use]
pub fn env_f64(name: &str) -> Option<f64> {
    env_str(name)?.trim().parse().ok()
}

/// `NEUROCUBE_SERVE_SEED`: the serving layer's trace seed (u64 rules —
/// `0` is a legitimate seed, not an off switch).
#[must_use]
pub fn serve_seed() -> Option<u64> {
    env_u64("NEUROCUBE_SERVE_SEED")
}

/// `NEUROCUBE_SERVE_LOAD`: the arrival profile name (string rules; the
/// serving layer accepts `poisson`, `bursty` or `diurnal` and rejects
/// anything else at configuration time, not here).
#[must_use]
pub fn serve_load() -> Option<String> {
    env_str("NEUROCUBE_SERVE_LOAD")
}

/// `NEUROCUBE_SERVE_MAX_BATCH`: dynamic-batching size cap (u64 rules).
#[must_use]
pub fn serve_max_batch() -> Option<u64> {
    env_u64("NEUROCUBE_SERVE_MAX_BATCH")
}

/// `NEUROCUBE_SERVE_MAX_DELAY`: max queue delay, in virtual cycles, a
/// request may wait for batch-mates before dispatch (u64 rules).
#[must_use]
pub fn serve_max_delay() -> Option<u64> {
    env_u64("NEUROCUBE_SERVE_MAX_DELAY")
}

/// `NEUROCUBE_SERVE_POOL`: number of cubes in the serving pool (u64
/// rules; the serving layer rejects `0` at configuration time).
#[must_use]
pub fn serve_pool() -> Option<u64> {
    env_u64("NEUROCUBE_SERVE_POOL")
}

/// `NEUROCUBE_SERVE_AUDIT_RATE`: fraction of dispatches the two-speed
/// serving path replays cycle-accurately (f64 rules — `0` is a
/// legitimate rate meaning "no audits", not an off switch; unset, empty
/// or unparseable reads as `None` and the caller's default applies; the
/// audit sampler clamps whatever arrives to `[0, 1]`).
#[must_use]
pub fn serve_audit_rate() -> Option<f64> {
    env_f64("NEUROCUBE_SERVE_AUDIT_RATE")
}

/// `NEUROCUBE_SERVE_SCENARIO`: named traffic-scenario preset (string
/// rules; the serving layer resolves the name and rejects unknown ones
/// with a typed error at configuration time, not here).
#[must_use]
pub fn serve_scenario() -> Option<String> {
    env_str("NEUROCUBE_SERVE_SCENARIO")
}

/// `NEUROCUBE_CLUSTER_TOPOLOGY`: inter-cube link topology override
/// (string rules; the cluster layer accepts `ring` or `mesh` — or
/// `meshWxH` for an explicit grid — and rejects anything else at
/// configuration time, not here). Resolved fresh per `LinkConfig`
/// construction — never cached in a `OnceLock` — so tests flipping the
/// variable between constructions observe the current value.
#[must_use]
pub fn cluster_topology() -> Option<String> {
    env_str("NEUROCUBE_CLUSTER_TOPOLOGY")
}

/// `NEUROCUBE_CLUSTER_LINK_GBPS`: per-link SerDes bandwidth in GB/s
/// (f64 rules; the cluster layer rejects non-positive values at
/// configuration time). Same per-construction (uncached) resolution
/// contract as [`cluster_topology`].
#[must_use]
pub fn cluster_link_gbps() -> Option<f64> {
    env_f64("NEUROCUBE_CLUSTER_LINK_GBPS")
}

/// `NEUROCUBE_CLUSTER_LINK_NS`: per-hop SerDes link latency in
/// nanoseconds (f64 rules — `0` is a legitimate "ideal link" value).
/// Same per-construction (uncached) resolution contract as
/// [`cluster_topology`].
#[must_use]
pub fn cluster_link_ns() -> Option<f64> {
    env_f64("NEUROCUBE_CLUSTER_LINK_NS")
}

/// `NEUROCUBE_CLUSTER_PJ_BIT`: SerDes link energy in pJ/bit (f64 rules
/// — `0` is a legitimate "free link" value for energy what-ifs). Same
/// per-construction (uncached) resolution contract as
/// [`cluster_topology`].
#[must_use]
pub fn cluster_pj_bit() -> Option<f64> {
    env_f64("NEUROCUBE_CLUSTER_PJ_BIT")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment: each test uses a distinct variable name
    // so the suite stays order- and thread-independent.

    #[test]
    fn flag_truthiness_rule() {
        std::env::remove_var("NC_TEST_FLAG_UNSET");
        assert!(!env_flag("NC_TEST_FLAG_UNSET"));
        std::env::set_var("NC_TEST_FLAG_EMPTY", "");
        assert!(!env_flag("NC_TEST_FLAG_EMPTY"));
        std::env::set_var("NC_TEST_FLAG_ZERO", "0");
        assert!(!env_flag("NC_TEST_FLAG_ZERO"));
        std::env::set_var("NC_TEST_FLAG_ONE", "1");
        assert!(env_flag("NC_TEST_FLAG_ONE"));
        std::env::set_var("NC_TEST_FLAG_WORD", "yes");
        assert!(env_flag("NC_TEST_FLAG_WORD"));
        // "00" is non-empty and not exactly "0": ON, by the documented rule.
        std::env::set_var("NC_TEST_FLAG_00", "00");
        assert!(env_flag("NC_TEST_FLAG_00"));
    }

    #[test]
    fn numeric_values_parse_or_none() {
        std::env::set_var("NC_TEST_U64", " 42 ");
        assert_eq!(env_u64("NC_TEST_U64"), Some(42));
        std::env::set_var("NC_TEST_U64_BAD", "4x2");
        assert_eq!(env_u64("NC_TEST_U64_BAD"), None);
        std::env::set_var("NC_TEST_F64", "1e-7");
        assert_eq!(env_f64("NC_TEST_F64"), Some(1e-7));
        std::env::set_var("NC_TEST_F64_ZERO", "0");
        assert_eq!(env_f64("NC_TEST_F64_ZERO"), Some(0.0));
        assert_eq!(env_f64("NC_TEST_F64_UNSET_XYZ"), None);
    }

    // The serve accessors read fixed process-global variable names, so
    // their set/unset tests live in the integration suite
    // (`tests/tests/env_knobs.rs`) behind the shared `EnvGuard` mutex;
    // every test in this binary sticks to its own `NC_TEST_*` name.

    #[cfg(unix)]
    #[test]
    fn non_utf8_counts_as_set_for_flags_and_none_for_values() {
        use std::os::unix::ffi::OsStringExt;
        let bad = OsString::from_vec(vec![0xFF, 0xFE]);
        std::env::set_var("NC_TEST_NON_UTF8", &bad);
        assert!(env_flag("NC_TEST_NON_UTF8"));
        assert_eq!(env_str("NC_TEST_NON_UTF8"), None);
        assert_eq!(env_u64("NC_TEST_NON_UTF8"), None);
    }
}
