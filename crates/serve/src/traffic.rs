//! Deterministic open-loop traffic generation.
//!
//! Arrivals, model picks, priorities, deadlines and (optionally)
//! malformed payloads are all pure functions of `(seed, request_id)`
//! through `fault::prng`'s counter PRNG — there is no stream state, so
//! the same [`TrafficSpec`] always produces the same trace, bit for bit,
//! no matter who generates it or how many times.
//!
//! Three load profiles modulate the Poisson baseline's mean inter-arrival
//! gap; the modulation is a deterministic function of the request index
//! (pure arithmetic — no trig, so the shape is reproducible bit-for-bit
//! on any platform):
//!
//! * **Poisson** — constant mean; memoryless arrivals.
//! * **Bursty** — every fourth block of 32 requests arrives 5× faster
//!   than the baseline, the rest 1.4× slower (same long-run mean as a
//!   gentle open-loop approximation, much higher peak pressure).
//! * **Diurnal** — the mean sweeps a triangle wave between 0.4× and 1.6×
//!   of baseline over a 256-request period: slow dawn, peak, slow dusk.

use crate::catalog::{input_payload, ModelCatalog};
use crate::request::Request;

/// Arrival-process shapes the generator can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadProfile {
    /// Constant-rate memoryless arrivals.
    Poisson,
    /// Alternating burst/lull blocks around the same long-run rate.
    Bursty,
    /// Triangle-wave rate sweep modeling a day's load curve.
    Diurnal,
}

impl LoadProfile {
    /// Multiplier applied to the mean inter-arrival gap before request
    /// `i` (deterministic, index-keyed).
    #[must_use]
    pub fn gap_factor(self, i: u64) -> f64 {
        match self {
            LoadProfile::Poisson => 1.0,
            LoadProfile::Bursty => {
                if (i / 32).is_multiple_of(4) {
                    0.2
                } else {
                    1.4
                }
            }
            LoadProfile::Diurnal => {
                // Triangle wave over a 256-request period: 1.6 at the
                // trough (requests far apart), down to 0.4 at the peak.
                let phase = i % 256;
                let tri = if phase < 128 { phase } else { 256 - phase };
                1.6 - 1.2 * (tri as f64 / 128.0)
            }
        }
    }
}

/// Everything that defines a trace; two equal specs generate equal
/// traces.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// PRNG seed for every per-request draw.
    pub seed: u64,
    /// Arrival-process shape.
    pub profile: LoadProfile,
    /// Baseline mean inter-arrival gap in virtual cycles.
    pub mean_gap: f64,
    /// Number of requests to generate.
    pub count: u64,
    /// Weighted model mix: `(model name, weight)`; picks are
    /// weight-proportional.
    pub mix: Vec<(String, u32)>,
    /// Deadline slack range: the deadline is `arrival + u × (service +
    /// reprogram)` with `u` uniform in `[slack.0, slack.1]` — scaled by
    /// the model's full cold-start cost so any `u ≥ 1` is feasible on an
    /// idle cube even when host programming dwarfs the inference itself.
    pub slack: (f64, f64),
    /// Per-mille rate of deliberately malformed requests (unknown model,
    /// empty payload, wrong shape, or dead-on-arrival deadline) — the
    /// fuzz suites' knob; 0 for clean traces.
    pub malformed_permille: u32,
    /// Weighted priority tiers `(priority, weight)`: picks are
    /// weight-proportional, like the model mix. `None` keeps the legacy
    /// uniform draw over priorities `0..=3` — bitwise-compatible with
    /// every trace generated before tiers existed.
    pub tiers: Option<Vec<(u8, u32)>>,
}

impl TrafficSpec {
    /// A clean Poisson trace over the given mix.
    #[must_use]
    pub fn poisson(seed: u64, mean_gap: f64, count: u64, mix: Vec<(String, u32)>) -> TrafficSpec {
        TrafficSpec {
            seed,
            profile: LoadProfile::Poisson,
            mean_gap,
            count,
            mix,
            slack: (4.0, 12.0),
            malformed_permille: 0,
            tiers: None,
        }
    }

    /// Applies a named [`Scenario`]'s arrival profile and priority tiers,
    /// keeping everything else (seed, mix, count, gap).
    #[must_use]
    pub fn with_scenario(mut self, scenario: &Scenario) -> TrafficSpec {
        self.profile = scenario.profile;
        self.tiers = Some(scenario.tiers.to_vec());
        self
    }
}

/// A named trace-driven serving scenario: an arrival shape plus a
/// priority-tier mix (the presets are [`SCENARIOS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The scenario's name in reports.
    pub name: &'static str,
    /// Arrival-process shape.
    pub profile: LoadProfile,
    /// Weighted priority tiers `(priority, weight)`.
    pub tiers: &'static [(u8, u32)],
}

/// The named scenario presets, in lookup order.
pub const SCENARIOS: [Scenario; 3] = [
    // Flat day: memoryless arrivals, every priority equally likely.
    Scenario {
        name: "steady",
        profile: LoadProfile::Poisson,
        tiers: &[(0, 1), (1, 1), (2, 1), (3, 1)],
    },
    // A day's load curve; background traffic dominates, a thin
    // latency-critical tier rides on top.
    Scenario {
        name: "diurnal",
        profile: LoadProfile::Diurnal,
        tiers: &[(0, 6), (1, 3), (2, 2), (3, 1)],
    },
    // Flash-crowd bursts with a bimodal priority split: bulk batch
    // traffic and interactive spikes, nothing in between.
    Scenario {
        name: "rush",
        profile: LoadProfile::Bursty,
        tiers: &[(0, 3), (1, 1), (3, 2)],
    },
];

/// PRNG domain for traffic draws, disjoint from the fault domains
/// (`0x01..=0x05` prefixes in `fault::domain`).
pub const DOMAIN_TRAFFIC: u64 = 0x0600_0000_0000_0000;

/// Per-request draw salts.
mod salt {
    pub const GAP: u64 = 0;
    pub const MODEL: u64 = 1;
    pub const PRIORITY: u64 = 2;
    pub const SLACK: u64 = 3;
    pub const MALFORMED: u64 = 4;
    pub const MALFORMED_KIND: u64 = 5;
}

fn unit_draw(seed: u64, id: u64, salt: u64) -> f64 {
    neurocube_fault::unit(neurocube_fault::draw(seed, DOMAIN_TRAFFIC, id, salt))
}

/// Generates the trace described by `spec`, resolving service times and
/// input shapes against `catalog`. Request ids equal trace indices.
///
/// # Panics
///
/// Panics when the mix is empty, names a model missing from the catalog,
/// has zero total weight, the slack range is inverted, or the priority
/// tiers (when given) are empty or weightless.
#[must_use]
pub fn generate(catalog: &ModelCatalog, spec: &TrafficSpec) -> Vec<Request> {
    assert!(!spec.mix.is_empty(), "traffic mix must name a model");
    assert!(spec.mean_gap > 0.0, "mean gap must be positive");
    assert!(
        spec.slack.0 > 0.0 && spec.slack.1 >= spec.slack.0,
        "slack range must be positive and ordered"
    );
    let total_weight: u64 = spec.mix.iter().map(|(_, w)| u64::from(*w)).sum();
    assert!(total_weight > 0, "traffic mix needs positive weight");
    for (name, _) in &spec.mix {
        assert!(
            catalog.lookup(name).is_some(),
            "mix model {name} is not in the catalog"
        );
    }
    let tier_weight: u64 = spec
        .tiers
        .as_ref()
        .map(|t| {
            assert!(!t.is_empty(), "priority tiers must not be empty");
            t.iter().map(|(_, w)| u64::from(*w)).sum()
        })
        .unwrap_or(0);
    assert!(
        spec.tiers.is_none() || tier_weight > 0,
        "priority tiers need positive weight"
    );

    let mut trace = Vec::with_capacity(spec.count as usize);
    let mut arrival = 0u64;
    for id in 0..spec.count {
        // Exponential inter-arrival gap, modulated by the load profile.
        let u = unit_draw(spec.seed, id, salt::GAP);
        let gap = -(1.0 - u).ln() * spec.mean_gap * spec.profile.gap_factor(id);
        arrival += gap.ceil() as u64;

        // Weight-proportional model pick.
        let mut w =
            neurocube_fault::draw(spec.seed, DOMAIN_TRAFFIC, id, salt::MODEL) % total_weight;
        let mut pick = &spec.mix[0].0;
        for (name, weight) in &spec.mix {
            let weight = u64::from(*weight);
            if w < weight {
                pick = name;
                break;
            }
            w -= weight;
        }
        let entry = catalog.lookup(pick).expect("mix checked above");

        // Priority: the legacy uniform draw over 0..=3 without tiers
        // (bit-compatible with pre-tier traces), weight-proportional
        // over the scenario's tiers otherwise. Same salt either way, so
        // a spec only changes the trace where it changes the policy.
        let pri_draw = neurocube_fault::draw(spec.seed, DOMAIN_TRAFFIC, id, salt::PRIORITY);
        let priority = match &spec.tiers {
            None => (pri_draw % 4) as u8,
            Some(tiers) => {
                let mut w = pri_draw % tier_weight;
                let mut pick = tiers[0].0;
                for (p, weight) in tiers {
                    let weight = u64::from(*weight);
                    if w < weight {
                        pick = *p;
                        break;
                    }
                    w -= weight;
                }
                pick
            }
        };
        let s =
            spec.slack.0 + (spec.slack.1 - spec.slack.0) * unit_draw(spec.seed, id, salt::SLACK);
        let cold_start = entry.service_cycles + entry.reprogram_cycles;
        let deadline = arrival + (s * cold_start as f64).ceil() as u64;
        let len = entry.input_len();

        let mut req = Request {
            id,
            model: pick.clone(),
            input: input_payload(len, id),
            arrival,
            deadline,
            priority,
        };

        // Malformed-request injection for the fuzz suites: each corrupted
        // request exercises exactly one admission check.
        if spec.malformed_permille > 0 {
            let roll = neurocube_fault::draw(spec.seed, DOMAIN_TRAFFIC, id, salt::MALFORMED) % 1000;
            if roll < u64::from(spec.malformed_permille) {
                match neurocube_fault::draw(spec.seed, DOMAIN_TRAFFIC, id, salt::MALFORMED_KIND) % 4
                {
                    0 => req.model = format!("ghost-{id}"),
                    1 => req.input.clear(),
                    2 => req.input.push(neurocube_fixed::Q88::ZERO),
                    _ => req.deadline = req.arrival,
                }
            }
        }
        trace.push(req);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurocube::SystemConfig;

    fn catalog() -> ModelCatalog {
        let mut cat = ModelCatalog::new(SystemConfig::paper(true));
        cat.register_synthetic("a", 1000, 200);
        cat.register_synthetic("b", 3000, 500);
        cat
    }

    #[test]
    fn traces_are_reproducible_and_ordered() {
        let cat = catalog();
        let spec = TrafficSpec::poisson(
            42,
            500.0,
            200,
            vec![("a".to_string(), 3), ("b".to_string(), 1)],
        );
        let t1 = generate(&cat, &spec);
        let t2 = generate(&cat, &spec);
        assert_eq!(t1, t2, "same spec, same trace, bit for bit");
        assert_eq!(t1.len(), 200);
        for (i, r) in t1.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.deadline > r.arrival);
            assert!(!r.input.is_empty());
        }
        assert!(t1.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // The 3:1 mix should actually produce both models.
        assert!(t1.iter().any(|r| r.model == "a"));
        assert!(t1.iter().any(|r| r.model == "b"));
        // A different seed moves the arrivals.
        let other = generate(
            &cat,
            &TrafficSpec {
                seed: 43,
                ..spec.clone()
            },
        );
        assert_ne!(t1, other);
    }

    #[test]
    fn profiles_reshape_arrivals_without_changing_count() {
        let cat = catalog();
        let mk = |profile| {
            let spec = TrafficSpec {
                profile,
                ..TrafficSpec::poisson(7, 400.0, 256, vec![("a".to_string(), 1)])
            };
            generate(&cat, &spec)
        };
        let poisson = mk(LoadProfile::Poisson);
        let bursty = mk(LoadProfile::Bursty);
        let diurnal = mk(LoadProfile::Diurnal);
        assert_eq!(poisson.len(), 256);
        assert_eq!(bursty.len(), 256);
        assert_eq!(diurnal.len(), 256);
        // The first bursty block (factor 0.2) arrives much faster than
        // the same requests under Poisson.
        assert!(bursty[31].arrival < poisson[31].arrival);
    }

    #[test]
    fn malformed_injection_produces_each_kind() {
        let cat = catalog();
        let spec = TrafficSpec {
            malformed_permille: 400,
            ..TrafficSpec::poisson(11, 300.0, 400, vec![("a".to_string(), 1)])
        };
        let trace = generate(&cat, &spec);
        assert!(trace.iter().any(|r| r.model.starts_with("ghost-")));
        assert!(trace.iter().any(|r| r.input.is_empty()));
        assert!(trace.iter().any(|r| r.input.len() == 2));
        assert!(trace.iter().any(|r| r.deadline == r.arrival));
    }

    #[test]
    fn tiers_reshape_priorities_and_none_is_legacy_compatible() {
        let cat = catalog();
        let base = TrafficSpec::poisson(21, 300.0, 512, vec![("a".to_string(), 1)]);
        let legacy = generate(&cat, &base);
        // Explicit uniform tiers draw from the same salt but through the
        // weighted path; the *absence* of tiers is what preserves the
        // legacy bits.
        let again = generate(&cat, &base.clone());
        assert_eq!(legacy, again);
        for p in 0..4u8 {
            assert!(legacy.iter().any(|r| r.priority == p), "priority {p}");
        }
        // A bimodal tier set produces only its listed priorities, in
        // roughly weight proportion.
        let rush = generate(
            &cat,
            &TrafficSpec {
                tiers: Some(vec![(0, 3), (3, 1)]),
                ..base.clone()
            },
        );
        assert!(rush.iter().all(|r| r.priority == 0 || r.priority == 3));
        let zeros = rush.iter().filter(|r| r.priority == 0).count();
        assert!(
            (256..=512).contains(&zeros),
            "3:1 weighting should dominate: {zeros}/512"
        );
        // Arrivals and model picks are untouched by the tier change.
        for (l, r) in legacy.iter().zip(&rush) {
            assert_eq!(l.arrival, r.arrival);
            assert_eq!(l.model, r.model);
        }
    }

    #[test]
    fn scenario_presets_reshape_profile_and_priorities() {
        for preset in &SCENARIOS {
            assert!(!preset.tiers.is_empty(), "{}", preset.name);
        }
        let rush = SCENARIOS.iter().find(|s| s.name == "rush").expect("preset");
        let cat = catalog();
        let spec =
            TrafficSpec::poisson(9, 250.0, 128, vec![("b".to_string(), 1)]).with_scenario(rush);
        assert_eq!(spec.profile, LoadProfile::Bursty);
        let trace = generate(&cat, &spec);
        assert!(trace.iter().all(|r| [0, 1, 3].contains(&r.priority)));
    }

    #[test]
    #[should_panic(expected = "priority tiers must not be empty")]
    fn empty_tiers_are_rejected() {
        let cat = catalog();
        let spec = TrafficSpec {
            tiers: Some(Vec::new()),
            ..TrafficSpec::poisson(1, 100.0, 4, vec![("a".to_string(), 1)])
        };
        let _ = generate(&cat, &spec);
    }

    #[test]
    fn gap_factors_match_their_documented_shapes() {
        assert_eq!(LoadProfile::Poisson.gap_factor(5), 1.0);
        assert_eq!(LoadProfile::Bursty.gap_factor(0), 0.2);
        assert_eq!(LoadProfile::Bursty.gap_factor(33), 1.4);
        assert!((LoadProfile::Diurnal.gap_factor(0) - 1.6).abs() < 1e-12);
        assert!((LoadProfile::Diurnal.gap_factor(128) - 0.4).abs() < 1e-12);
    }
}
