//! One run of one workload: rounds of a set-up pass (with its discarded
//! warm-up rep) and timed reps, then checks, and the metrics of the run.

use crate::json::Value;
use crate::metrics::{self, MetricDef};
use crate::stats::Summary;
use crate::trace::{Phase, Tracer};
use crate::workloads::{self, Checks, Rep, Scale, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// The rounds of the run go on until this many seconds have passed,
    /// each for its share of them.
    pub seconds: f64,
    /// Record spans on every second rep and report per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
}

pub struct Outcome {
    pub timed_reps: usize,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Every metric this run measured, in table order.
    pub metrics: Vec<(&'static MetricDef, Summary)>,
    /// What must repeat from rep to rep, folded; in hex in the record.
    pub digest: u64,
    tracer: Tracer,
}

/// Runs `opts.workload`. `Err` names an unknown workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let mut checks = Checks::default();

    // A run is a few rounds: a set-up pass, then timed reps on what it
    // built, until the round's share of `seconds` is used up. One pass is
    // everything up to a first timed rep: the inputs, and a discarded
    // warm-up rep that fills whatever the program fills lazily. The
    // passes are spread over the run so that `setup_s` sees as much of
    // the machine's noise as the reps do, and no more (README.md,
    // "Noise").
    let mut setup_s = Vec::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut built: Option<Box<dyn Workload>> = None;
    // The first warm-up rep: its values are what every rep must repeat.
    let mut first: Option<Rep> = None;
    let run_start = Instant::now();
    let mut rep_id = 0;
    let rounds = opts.scale.rounds();
    for round in 0..rounds {
        // Freed first, so that the peak holds one workload, not two.
        drop(built.take());
        t.begin(opts.trace, Phase::Setup, round);
        let start = Instant::now();
        let mut workload = t
            .span("setup", |t| {
                workloads::setup(&opts.workload, opts.seed, opts.scale, t)
            })
            .ok_or_else(|| {
                format!(
                    "unknown workload {:?}; the workloads are {}",
                    opts.workload,
                    workloads::NAMES.join(", ")
                )
            })?;
        t.begin(false, Phase::Rep, 0);
        let warm_up = workload.rep(&mut t, &mut checks);
        setup_s.push(start.elapsed().as_secs_f64());
        let first = first.get_or_insert(warm_up);

        let round_end = opts.seconds * f64::from(round + 1) / f64::from(rounds);
        loop {
            rep_id += 1;
            let traced = opts.trace && rep_id % 2 == 0;
            t.begin(traced, Phase::Rep, rep_id);
            let start = Instant::now();
            let rep = t.span("rep", |t| workload.rep(t, &mut checks));
            let wall = start.elapsed().as_secs_f64();
            if traced { &mut traced_s } else { &mut plain_s }.push(wall);
            checks.record(
                1,
                u64::from(rep.digest != first.digest || rep.values != first.values),
                "simulated values repeat from rep to rep and from pass to pass",
            );
            if run_start.elapsed().as_secs_f64() >= round_end {
                break;
            }
        }
        built = Some(workload);
    }
    let mut workload = built.expect("at least one round");
    let first = first.expect("at least one round");

    t.begin(opts.trace, Phase::Extra, 0);
    let after = t.span("extra", |t| workload.after(t, &mut checks, opts.trace));

    let mut found: BTreeMap<&'static str, Summary> = BTreeMap::new();
    let reps = setup_s.len() + plain_s.len() + traced_s.len();
    if opts.trace {
        // A span name is used in one phase only, so one lookup serves.
        let mut spans = t.self_seconds(Phase::Setup);
        spans.extend(t.self_seconds(Phase::Extra));
        spans.extend(t.self_seconds(Phase::Rep));
        spans.insert(workloads::UNTRACED_REP, plain_s.clone());
        let span_s = |name: &str| spans.get(name).map_or(0.0, |s| Summary::fastest(s).value);
        for (name, samples) in &spans {
            let timed = format!("{name}_s");
            if let Some(def) = metrics::PER_LAYER.iter().find(|m| m.name == timed) {
                found.insert(def.name, Summary::fastest(samples));
            }
        }
        let derived = workload.derive(&span_s, &first);
        // What every rep read, then what was measured once.
        let every_rep = first.values.iter().map(|&(name, v)| (name, v, reps));
        let once = after
            .into_iter()
            .chain(derived)
            .map(|(name, v)| (name, v, 1));
        for (name, value, n) in every_rep.chain(once) {
            let def = metrics::find(name)
                .unwrap_or_else(|| panic!("the ledger measured {name}, which no table lists"));
            if def.bound.is_none() {
                found.insert(def.name, repeated(value, n));
            }
        }
        let traced = Summary::fastest(&traced_s).value;
        found.insert(
            "trace_overhead_share",
            Summary::single(traced / span_s(workloads::UNTRACED_REP) - 1.0),
        );
        found.insert(
            "trace_unattributed_share",
            Summary::single(span_s("rep") / traced),
        );
    } else {
        found.insert("setup_s", Summary::fastest(&setup_s));
        let rates: Vec<f64> = plain_s
            .iter()
            .map(|wall| first.host_cycles as f64 / wall)
            .collect();
        found.insert("sim_cycles_per_host_s", Summary::highest_rate(&rates));
        found.insert("peak_rss_mb", Summary::single(peak_rss_mb()));
        for &(name, value) in &first.values {
            if metrics::END_TO_END.iter().any(|m| m.name == name) {
                found.insert(name, repeated(value, reps));
            }
        }
    }

    let metrics = metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .filter_map(|def| found.remove(def.name).map(|s| (def, s)))
        .collect();
    Ok(Outcome {
        timed_reps: plain_s.len() + traced_s.len(),
        attempted: checks.attempted,
        failed: checks.failed,
        notes: checks.notes,
        metrics,
        digest: first.digest,
        tracer: t,
    })
}

/// A value read `n` times that read the same each time.
fn repeated(value: f64, n: usize) -> Summary {
    Summary {
        n,
        ..Summary::single(value)
    }
}

/// The process's peak resident set, from the kernel's own count.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux exposes /proc");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("the kernel reports VmHWM in kB");
    kib / 1024.0
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line a driver reads: every metric of the run's mode by name,
    /// each with its value and unit. A per-layer metric that this
    /// workload does not measure reads 0.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric is missing: each is defined on
    /// every workload.
    pub fn result_line(&self, trace: bool) -> Value {
        let value = |def: &MetricDef| {
            let found = self.metrics.iter().find(|(d, _)| d.name == def.name);
            match found {
                Some((_, s)) => s.value,
                None if trace => 0.0,
                None => panic!("{} was not measured", def.name),
            }
        };
        let table = if trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(table.iter().map(|def| {
                    (
                        def.name,
                        Value::obj([
                            ("value", Value::Num(value(def))),
                            ("unit", Value::str(def.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Everything about the run, one JSON object: what `--out` appends
    /// and `ledger compare` reads.
    pub fn record(&self, opts: &Options, env_cleared: &[String]) -> Value {
        let mut pairs = vec![
            ("workload", Value::str(&opts.workload)),
            ("seed", Value::Num(opts.seed as f64)),
            ("trace", Value::Bool(opts.trace)),
            ("seconds", Value::Num(opts.seconds)),
            (
                "env_cleared",
                Value::Arr(env_cleared.iter().map(Value::str).collect()),
            ),
            ("timed_reps", Value::Num(self.timed_reps as f64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "failed_checks",
                Value::Arr(self.notes.iter().map(Value::str).collect()),
            ),
            ("digest", Value::str(format!("{:016x}", self.digest))),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(def, s)| {
                    (
                        def.name,
                        Value::obj([
                            ("unit", Value::str(def.unit)),
                            ("value", Value::Num(s.value)),
                            ("n", Value::Num(s.n as f64)),
                            ("median", Value::Num(s.median)),
                            ("min", Value::Num(s.min)),
                            ("max", Value::Num(s.max)),
                            ("q1", Value::Num(s.q1)),
                            ("q3", Value::Num(s.q3)),
                        ]),
                    )
                })),
            ),
        ];
        if opts.trace {
            pairs.push(("spans", self.tracer.to_json()));
        }
        Value::obj(pairs)
    }

    /// The metrics as a table for a reader.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<36} {:>10} {:>16} {:>3} {:>16} {:>16} {:>16} {:>16} {:>16}\n",
            "metric", "unit", "value", "n", "median", "min", "max", "q1", "q3"
        );
        for (def, s) in &self.metrics {
            out.push_str(&format!(
                "{:<36} {:>10} {:>16.6} {:>3} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>16.6}\n",
                def.name, def.unit, s.value, s.n, s.median, s.min, s.max, s.q1, s.q3
            ));
        }
        out
    }
}
