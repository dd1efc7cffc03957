//! Two-speed execution: an analytical fast path with sampled
//! cycle-accurate audits.
//!
//! The scheduler already plans every dispatch in virtual time from the
//! catalog's memoized `service_cycles`, so for throughput studies the
//! full cube replay is pure overhead: the analytical path prices each
//! dispatch from the profile alone and never ticks a cube. What the
//! fast path *cannot* see is a defect in that profile — a stale
//! memoization, a drifted timing model, a corrupted payload. The
//! two-speed executor closes that gap with sampled audits: a
//! deterministic counter-PRNG draw keyed by `(audit_seed, dispatch
//! index)` selects a configurable fraction of dispatches for full
//! cycle-accurate and value-accurate replay on a real
//! [`ServeCube`] slot.
//!
//! Each audited dispatch replays on a **fresh** slot — the catalog
//! profiles every model through the same `ServeCube::new` → `ensure_on`
//! → `run_service` calls — so the first inference's
//! measured cycles must equal the memoized `service_cycles` *exactly*
//! (service time is input-independent; the suites certify this). The
//! audit therefore asserts three nested contracts, strongest first:
//!
//! 1. the analytical per-inference service time equals the measured
//!    first-inference cycles bit for bit (catches even a ±1-cycle
//!    defect in the fast path);
//! 2. every measured inference lands inside the model's certified
//!    `golden::timing` envelope (later batch members run on a warm cube
//!    whose DRAM row-buffer state legitimately shifts timing — the
//!    envelope is the contract that survives warmth);
//! 3. every output matches the golden functional reference within its
//!    certified error envelope.
//!
//! Violations are *collected*, never panicked — the report carries them
//! so harnesses can gate on `violations.is_empty()` — and the audited
//! subset depends only on `(audit_seed, audit_rate, dispatch index)`:
//! bitwise identical across serial and threaded execution and across
//! reruns. At `audit_rate = 1.0` the audit path degenerates to the full
//! executor record for record, folding the same output checksum.

use crate::catalog::{ModelCatalog, ModelPayload};
use crate::cube::ServeCube;
use crate::executor::{fold_checksum, ExecMode};
use crate::request::Request;
use crate::scheduler::DispatchRecord;
use neurocube_fault::{draw, Bernoulli};
use neurocube_golden::{CycleEnvelope, GoldenGraph};
use neurocube_sim::{Histogram, StatsRegistry};
use std::fmt;

/// PRNG domain for audit-selection draws, disjoint from the fault
/// domains (`0x01..=0x05`) and the traffic domain (`0x06`).
pub(crate) const DOMAIN_AUDIT: u64 = 0x0700_0000_0000_0000;

/// The deterministic audit sampler: one Bernoulli trial per dispatch,
/// keyed by `(seed, dispatch index)` through the counter PRNG. No
/// stream state — whether dispatch `i` is audited never depends on any
/// other dispatch, on thread interleaving, or on how many times the
/// question is asked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditSampler {
    seed: u64,
    rate: f64,
    trial: Bernoulli,
}

impl AuditSampler {
    /// A sampler auditing `rate` of dispatches (clamped to `[0, 1]`;
    /// NaN reads as 0) under `seed`.
    #[must_use]
    pub fn new(seed: u64, rate: f64) -> AuditSampler {
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        AuditSampler {
            seed,
            rate,
            trial: Bernoulli::new(rate),
        }
    }

    /// The clamped audit rate this sampler runs at.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether dispatch `dispatch` is audited. Pure in `(seed, rate,
    /// dispatch)`.
    #[must_use]
    pub fn audited(&self, dispatch: u64) -> bool {
        !self.trial.is_never() && self.trial.hit(draw(self.seed, DOMAIN_AUDIT, dispatch, 0))
    }

    /// The audited subset of dispatches `0..n`, ascending.
    #[must_use]
    pub fn select(&self, n: u64) -> Vec<u64> {
        (0..n).filter(|&d| self.audited(d)).collect()
    }
}

/// Two-speed executor knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TwoSpeedConfig {
    /// Seed of the audit-selection PRNG (independent of the traffic
    /// seed: reusing one stream for both would correlate the audited
    /// subset with the workload).
    pub audit_seed: u64,
    /// Fraction of dispatches audited, clamped to `[0, 1]` by the
    /// sampler. `0` never touches a cube; `1` degenerates to the full
    /// executor.
    pub audit_rate: f64,
    /// Signed corruption injected into the analytical per-inference
    /// service time, for defect-detection tests: the fast path prices
    /// every inference at `service_cycles + defect_cycles` (saturating
    /// at 0) while audits still measure the truth. Any non-zero value
    /// is caught by the next audited dispatch. Production value: 0.
    pub defect_cycles: i64,
}

impl TwoSpeedConfig {
    /// A config with no injected defect.
    #[must_use]
    pub fn new(audit_seed: u64, audit_rate: f64) -> TwoSpeedConfig {
        TwoSpeedConfig {
            audit_seed,
            audit_rate,
            defect_cycles: 0,
        }
    }

    /// The sampler this config induces.
    #[must_use]
    pub fn sampler(&self) -> AuditSampler {
        AuditSampler::new(self.audit_seed, self.audit_rate)
    }
}

/// One contract an audited dispatch broke. Collected, never panicked.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditViolation {
    /// The analytical per-inference service time escaped the model's
    /// certified envelope (the fast path was selling uncertified
    /// numbers).
    AnalyticalOutsideEnvelope {
        /// Global dispatch index.
        dispatch: u64,
        /// Model tag.
        model: u64,
        /// The analytical per-inference cycles.
        cycles: u64,
        /// Envelope lower bound.
        lower: u64,
        /// Envelope upper bound.
        upper: u64,
    },
    /// The fresh-cube first-inference measurement disagreed with the
    /// analytical service time — the strongest check; catches a ±1
    /// defect.
    ServiceCycleMismatch {
        /// Global dispatch index.
        dispatch: u64,
        /// Model tag.
        model: u64,
        /// What the fast path charged per inference.
        analytical: u64,
        /// What the fresh cube measured on the first inference.
        measured: u64,
    },
    /// A measured inference (any batch member) escaped the certified
    /// envelope.
    MeasuredOutsideEnvelope {
        /// Global dispatch index.
        dispatch: u64,
        /// Model tag.
        model: u64,
        /// The measured cycles.
        cycles: u64,
        /// Envelope lower bound.
        lower: u64,
        /// Envelope upper bound.
        upper: u64,
    },
    /// An output diverged from the golden functional reference.
    OutputDivergence {
        /// Global dispatch index.
        dispatch: u64,
        /// Model tag.
        model: u64,
        /// The golden checker's diagnosis.
        detail: String,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::AnalyticalOutsideEnvelope {
                dispatch,
                model,
                cycles,
                lower,
                upper,
            } => write!(
                f,
                "dispatch {dispatch} model {model}: analytical {cycles} cycles \
                 outside certified envelope [{lower}, {upper}]"
            ),
            AuditViolation::ServiceCycleMismatch {
                dispatch,
                model,
                analytical,
                measured,
            } => write!(
                f,
                "dispatch {dispatch} model {model}: analytical {analytical} \
                 cycles but fresh-cube audit measured {measured}"
            ),
            AuditViolation::MeasuredOutsideEnvelope {
                dispatch,
                model,
                cycles,
                lower,
                upper,
            } => write!(
                f,
                "dispatch {dispatch} model {model}: measured {cycles} cycles \
                 outside certified envelope [{lower}, {upper}]"
            ),
            AuditViolation::OutputDivergence {
                dispatch,
                model,
                detail,
            } => write!(
                f,
                "dispatch {dispatch} model {model}: output diverged from the \
                 golden reference: {detail}"
            ),
        }
    }
}

/// What one audited dispatch measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Global dispatch index (position in the schedule's record list).
    pub dispatch: u64,
    /// Pool index of the cube the schedule placed the batch on.
    pub cube: usize,
    /// Model tag.
    pub model: u64,
    /// Batch size.
    pub requests: u64,
    /// What the analytical path charged per inference.
    pub analytical_cycles: u64,
    /// Fresh-cube measured cycles of the batch's first inference.
    pub measured_first_cycles: u64,
    /// The executor checksum fold over this dispatch's outputs alone.
    pub output_checksum: u64,
}

/// Everything one two-speed run produced.
pub struct TwoSpeedReport {
    /// Audited dispatch indices, ascending — a pure function of
    /// `(audit_seed, audit_rate, record count)`.
    pub audited: Vec<u64>,
    /// Per-audit measurements, ascending by dispatch index.
    pub audits: Vec<AuditRecord>,
    /// Every broken contract, ascending by dispatch index. Empty on a
    /// healthy run; harnesses gate on exactly that.
    pub violations: Vec<AuditViolation>,
    /// The run's `serve.twospeed.*` registry.
    pub stats: StatsRegistry,
}

/// The golden functional reference of an executable model. A sharded
/// tenant's functional contract is the ORIGINAL graph's — the cluster must
/// be bitwise invisible to values, so the single-big-cube golden reference
/// checks it.
fn golden_of(payload: &ModelPayload) -> GoldenGraph {
    match payload {
        ModelPayload::Graph(graph, params) => {
            GoldenGraph::from_quantized(graph.clone(), params.clone())
        }
        ModelPayload::Sharded(plan) => {
            GoldenGraph::from_quantized(plan.graph.clone(), plan.params.clone())
        }
    }
}

/// Per-model analytical timing, fixed before any replay starts.
struct ModelAudit {
    /// Per-inference cycles the fast path charges (the memoized profile
    /// plus the injected defect, saturating at 0).
    analytical: u64,
    envelope: CycleEnvelope,
}

/// Per-cube audit result, merged in cube order regardless of mode.
struct CubeAudit {
    audits: Vec<AuditRecord>,
    violations: Vec<AuditViolation>,
    audited_requests: u64,
    measured_cycles: u64,
    /// The executor's per-cube checksum fold over every audited output
    /// value, in dispatch order.
    checksum: u64,
    slack_lower: Histogram,
    slack_upper: Histogram,
}

/// Replays one cube's audited dispatches, each on a fresh slot — the
/// profiling conditions — in dispatch order.
fn audit_cube(
    catalog: &ModelCatalog,
    goldens: &[Option<GoldenGraph>],
    models: &[ModelAudit],
    trace: &[Request],
    records: &[(u64, &DispatchRecord)],
) -> CubeAudit {
    let mut out = CubeAudit {
        audits: Vec::with_capacity(records.len()),
        violations: Vec::new(),
        audited_requests: 0,
        measured_cycles: 0,
        checksum: 0,
        slack_lower: Histogram::new(),
        slack_upper: Histogram::new(),
    };
    for &(dispatch, rec) in records {
        let entry = catalog.entry(rec.model);
        let payload = entry
            .payload
            .as_ref()
            .expect("synthetic models cannot be audited; register real networks");
        let golden = goldens[rec.model as usize]
            .as_ref()
            .expect("executable models carry a golden reference");
        let m = &models[rec.model as usize];
        // Fresh slot: the calls the catalog profiled through, so the
        // first inference must reproduce `service_cycles` bit for bit.
        // Later batch members run warm — DRAM row-buffer state
        // legitimately shifts their timing inside the envelope.
        let mut cube = ServeCube::new(catalog.config().clone());
        assert!(
            !payload.ensure_on(&mut cube, rec.model),
            "a fresh cube cannot have affinity"
        );
        let mut record_checksum = 0u64;
        let mut first_cycles = 0u64;
        for (i, &id) in rec.requests.iter().enumerate() {
            let req = &trace[usize::try_from(id).expect("id fits usize")];
            let input = payload.input_tensor(req.input.clone());
            let (output, measured) = cube.run_service(&input);
            out.measured_cycles += measured;
            out.audited_requests += 1;
            if i == 0 {
                first_cycles = measured;
                if measured != m.analytical {
                    out.violations.push(AuditViolation::ServiceCycleMismatch {
                        dispatch,
                        model: rec.model,
                        analytical: m.analytical,
                        measured,
                    });
                }
            }
            if !m.envelope.contains(measured) {
                out.violations
                    .push(AuditViolation::MeasuredOutsideEnvelope {
                        dispatch,
                        model: rec.model,
                        cycles: measured,
                        lower: m.envelope.lower,
                        upper: m.envelope.upper,
                    });
            }
            out.slack_lower
                .record(measured.saturating_sub(m.envelope.lower));
            out.slack_upper
                .record(m.envelope.upper.saturating_sub(measured));
            if let Err(d) = golden.check_output(&input, &output) {
                out.violations.push(AuditViolation::OutputDivergence {
                    dispatch,
                    model: rec.model,
                    detail: d.to_string(),
                });
            }
            for &v in output.as_slice() {
                record_checksum = fold_checksum(record_checksum, v.to_bits() as u16 as u64);
                out.checksum = fold_checksum(out.checksum, v.to_bits() as u16 as u64);
            }
        }
        out.audits.push(AuditRecord {
            dispatch,
            cube: rec.cube,
            model: rec.model,
            requests: rec.requests.len() as u64,
            analytical_cycles: m.analytical,
            measured_first_cycles: first_cycles,
            output_checksum: record_checksum,
        });
    }
    out
}

/// Runs the two-speed executor over a schedule: every dispatch is
/// priced analytically from the catalog profile; the sampled subset is
/// additionally replayed cycle- and value-accurately on fresh cubes.
/// Returns the merged `serve.twospeed.*` registry plus the audit
/// evidence. Bitwise identical across [`ExecMode`]s and reruns.
///
/// # Panics
///
/// Panics when an *audited* record names a synthetic (timing-only)
/// model — synthetic tenants may ride the analytical path (rate 0) but
/// have nothing to replay.
#[must_use]
pub fn execute_two_speed(
    catalog: &ModelCatalog,
    trace: &[Request],
    records: &[DispatchRecord],
    cfg: &TwoSpeedConfig,
    mode: ExecMode,
) -> TwoSpeedReport {
    let sampler = cfg.sampler();
    let audited = sampler.select(records.len() as u64);

    let models: Vec<ModelAudit> = catalog
        .entries()
        .map(|e| ModelAudit {
            analytical: u64::try_from((e.service_cycles as i64 + cfg.defect_cycles).max(0))
                .expect("non-negative"),
            envelope: e.envelope,
        })
        .collect();
    // Build golden references once, only for models some audit needs.
    let mut needed = vec![false; catalog.len()];
    for &d in &audited {
        needed[usize::try_from(records[usize::try_from(d).expect("fits")].model)
            .expect("tag fits usize")] = true;
    }
    let goldens: Vec<Option<GoldenGraph>> = catalog
        .entries()
        .map(|e| {
            if needed[usize::try_from(e.tag).expect("tag fits usize")] {
                e.payload.as_ref().map(golden_of)
            } else {
                None
            }
        })
        .collect();

    // Analytical pass: pure arithmetic over the schedule, no cubes.
    let mut analytical_cycles = 0u64;
    let mut total_requests = 0u64;
    let mut analytical_violations: Vec<AuditViolation> = Vec::new();
    for (d, rec) in records.iter().enumerate() {
        let m = &models[usize::try_from(rec.model).expect("tag fits usize")];
        total_requests += rec.requests.len() as u64;
        analytical_cycles += m.analytical * rec.requests.len() as u64;
        // The fast path's own certification: the number it prices with
        // must sit inside the envelope the catalog certified. Checked
        // on every dispatch — it costs two compares, not a cube.
        if !m.envelope.contains(m.analytical) {
            analytical_violations.push(AuditViolation::AnalyticalOutsideEnvelope {
                dispatch: d as u64,
                model: rec.model,
                cycles: m.analytical,
                lower: m.envelope.lower,
                upper: m.envelope.upper,
            });
        }
    }

    // Audit pass: the sampled subset, grouped per cube so the jobs are
    // independent; merged in cube order so both modes fold identically.
    let pool = records.iter().map(|r| r.cube + 1).max().unwrap_or(0);
    let per_cube: Vec<Vec<(u64, &DispatchRecord)>> = (0..pool)
        .map(|c| {
            audited
                .iter()
                .map(|&d| (d, &records[usize::try_from(d).expect("fits")]))
                .filter(|(_, r)| r.cube == c)
                .collect()
        })
        .collect();
    let cube_audits = mode.run(per_cube.len(), |c| {
        audit_cube(catalog, &goldens, &models, trace, &per_cube[c])
    });

    let mut audits: Vec<AuditRecord> = Vec::with_capacity(audited.len());
    let mut violations = analytical_violations;
    let mut audited_requests = 0u64;
    let mut measured_cycles = 0u64;
    let mut checksum = 0u64;
    let mut slack_lower = Histogram::new();
    let mut slack_upper = Histogram::new();
    for a in &cube_audits {
        audits.extend(a.audits.iter().cloned());
        violations.extend(a.violations.iter().cloned());
        audited_requests += a.audited_requests;
        measured_cycles += a.measured_cycles;
        // The executor's cube-order merge fold, empty cubes included:
        // at rate 1.0 this reproduces `serve.exec.output_checksum`.
        checksum = fold_checksum(checksum, a.checksum);
        slack_lower.merge(&a.slack_lower);
        slack_upper.merge(&a.slack_upper);
    }
    audits.sort_by_key(|a| a.dispatch);
    violations.sort_by_key(violation_dispatch);

    let mut stats = StatsRegistry::new();
    let mut s = stats.scoped("serve.twospeed");
    s.counter("dispatches", records.len() as u64);
    s.counter("requests", total_requests);
    s.counter("cycles.analytical", analytical_cycles);
    s.counter("audit.dispatches", audits.len() as u64);
    s.counter("audit.requests", audited_requests);
    s.counter("audit.cycles", measured_cycles);
    s.counter("audit.violations", violations.len() as u64);
    s.counter("audit.output_checksum", checksum);
    s.gauge("audit.rate", sampler.rate());
    if !records.is_empty() {
        s.gauge("audit.coverage", audits.len() as f64 / records.len() as f64);
    }
    s.histogram("audit.slack_lower_cycles", &slack_lower);
    s.histogram("audit.slack_upper_cycles", &slack_upper);

    TwoSpeedReport {
        audited,
        audits,
        violations,
        stats,
    }
}

fn violation_dispatch(v: &AuditViolation) -> u64 {
    match v {
        AuditViolation::AnalyticalOutsideEnvelope { dispatch, .. }
        | AuditViolation::ServiceCycleMismatch { dispatch, .. }
        | AuditViolation::MeasuredOutsideEnvelope { dispatch, .. }
        | AuditViolation::OutputDivergence { dispatch, .. } => *dispatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{serve, ServeConfig};
    use crate::traffic::{generate, TrafficSpec};
    use neurocube::SystemConfig;
    use neurocube_nn::workloads;

    fn tiny_setup() -> (ModelCatalog, Vec<Request>, Vec<DispatchRecord>) {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        cat.register("tiny", workloads::tiny_convnet(), 7);
        let spec = TrafficSpec::poisson(11, 40_000.0, 24, vec![("tiny".to_string(), 1)]);
        let trace = generate(&cat, &spec);
        let report = serve(&cat, &ServeConfig::new(2), &trace);
        (cat, trace, report.records)
    }

    #[test]
    fn sampler_is_pure_in_seed_rate_and_dispatch() {
        let s = AuditSampler::new(42, 0.25);
        let first = s.select(500);
        assert_eq!(first, AuditSampler::new(42, 0.25).select(500));
        assert!(!first.is_empty() && first.len() < 500, "a real sample");
        // Membership is per-dispatch: a shorter horizon is a prefix.
        let prefix: Vec<u64> = first.iter().copied().filter(|&d| d < 100).collect();
        assert_eq!(prefix, s.select(100));
        assert!(AuditSampler::new(42, 0.0).select(500).is_empty());
        assert_eq!(AuditSampler::new(42, 1.0).select(500).len(), 500);
        // NaN and out-of-range rates clamp, never panic.
        assert_eq!(AuditSampler::new(1, f64::NAN).rate(), 0.0);
        assert_eq!(AuditSampler::new(1, f64::INFINITY).rate(), 1.0);
        assert_eq!(AuditSampler::new(1, -3.0).rate(), 0.0);
    }

    #[test]
    fn healthy_runs_audit_clean_in_both_modes() {
        let (cat, trace, records) = tiny_setup();
        assert!(!records.is_empty());
        let cfg = TwoSpeedConfig::new(9, 0.5);
        let serial = execute_two_speed(&cat, &trace, &records, &cfg, ExecMode::Serial);
        let batched = execute_two_speed(&cat, &trace, &records, &cfg, ExecMode::Batched);
        assert!(serial.violations.is_empty(), "{:?}", serial.violations);
        assert_eq!(serial.audited, batched.audited);
        assert_eq!(serial.audits, batched.audits);
        assert_eq!(serial.stats.first_difference(&batched.stats), None);
        for a in &serial.audits {
            assert_eq!(a.measured_first_cycles, a.analytical_cycles);
        }
    }

    #[test]
    fn injected_defects_are_caught_by_the_next_audit() {
        let (cat, trace, records) = tiny_setup();
        let mut cfg = TwoSpeedConfig::new(9, 0.5);
        cfg.defect_cycles = 1;
        let r = execute_two_speed(&cat, &trace, &records, &cfg, ExecMode::Serial);
        assert!(!r.audited.is_empty());
        let first = r.audited[0];
        assert!(
            r.violations.iter().any(|v| matches!(
                v,
                AuditViolation::ServiceCycleMismatch { dispatch, .. } if *dispatch == first
            )),
            "the first audited dispatch flags the ±1 defect: {:?}",
            r.violations
        );
    }

    /// Sharded tenants ride the two-speed path like any other model:
    /// the analytical price is the memoized cluster profile, and the
    /// audited replays reproduce it bit for bit on fresh clusters while
    /// the outputs match the ORIGINAL graph's golden reference.
    #[test]
    fn sharded_tenants_audit_clean() {
        use crate::catalog::sharded_test_graph;
        use neurocube_cluster::LinkConfig;
        let mut sys = SystemConfig::paper(true);
        sys.memory.region_bytes = 6 * 1024;
        let mut cat = ModelCatalog::new(sys);
        cat.register_sharded("wide", sharded_test_graph(), 5, &LinkConfig::hmc_ext(4));
        let spec = TrafficSpec::poisson(13, 80_000.0, 6, vec![("wide".to_string(), 1)]);
        let trace = generate(&cat, &spec);
        let report = serve(&cat, &ServeConfig::new(2), &trace);
        assert!(!report.records.is_empty());
        let cfg = TwoSpeedConfig::new(3, 1.0);
        let r = execute_two_speed(&cat, &trace, &report.records, &cfg, ExecMode::Serial);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.audits.len(), report.records.len());
        for a in &r.audits {
            assert_eq!(a.measured_first_cycles, a.analytical_cycles);
        }
    }

    #[test]
    fn rate_zero_never_builds_goldens_or_cubes() {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        cat.register_synthetic("ghost", 700, 100);
        let spec = TrafficSpec::poisson(3, 500.0, 40, vec![("ghost".to_string(), 1)]);
        let trace = generate(&cat, &spec);
        let report = serve(&cat, &ServeConfig::new(2), &trace);
        // Synthetic tenants cannot be replayed; the analytical path
        // serves them anyway because rate 0 audits nothing.
        let r = execute_two_speed(
            &cat,
            &trace,
            &report.records,
            &TwoSpeedConfig::new(1, 0.0),
            ExecMode::Serial,
        );
        assert!(r.audited.is_empty() && r.audits.is_empty());
        assert!(r.violations.is_empty());
        assert_eq!(r.stats.counter("serve.twospeed.audit.dispatches"), 0);
        assert!(r.stats.counter("serve.twospeed.cycles.analytical") > 0);
    }
}
