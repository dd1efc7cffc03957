//! `ledger compare <a> <b>`: two sets of run records, metric by metric.
//!
//! A set is a file of records, one JSON object a line, as `--out`
//! appends them. Several records of one workload and mode stand for that
//! many runs; their medians are taken. A run whose checks failed is in
//! the file too, and no speed of set `b` counts while one of its runs
//! failed.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Clock};
use crate::stats::median;
use std::collections::BTreeMap;

/// One metric of one workload in one set.
struct Cell {
    /// What each run reported.
    values: Vec<f64>,
    /// How far, in the run that settles it least, the nearer quartile
    /// of the samples lies from the value reported, as a share of the
    /// value: for a fastest sample, how far the fastest quarter reaches.
    spread: f64,
    /// The lowest and the highest sample of any rep of any run.
    lo: f64,
    hi: f64,
    seeds: Vec<u64>,
}

impl Default for Cell {
    fn default() -> Cell {
        Cell {
            values: Vec::new(),
            spread: 0.0,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            seeds: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Set {
    /// By workload, traced or not, and metric.
    cells: BTreeMap<(String, bool, String), Cell>,
    /// Operations that failed their check, by workload and mode, over
    /// all its runs. A run marked incorrect counts as one at least.
    failed: BTreeMap<(String, bool), u64>,
}

fn read_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let record = json::parse(line).map_err(|e| bad(&e))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let trace = record.get("trace") == Some(&Value::Bool(true));
        let seed = record
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("no seed"))? as u64;
        let failed = record
            .get("failed")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("no failed"))? as u64;
        let incorrect = record.get("correct") != Some(&Value::Bool(true));
        *set.failed.entry((workload.to_string(), trace)).or_default() +=
            failed.max(u64::from(incorrect));
        let metrics = record
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let num = |key: &str| {
                m.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad(&format!("{name} has no {key}")))
            };
            let (value, min, max) = (num("value")?, num("min")?, num("max")?);
            let spread = if value == 0.0 {
                0.0
            } else {
                (num("q1")? - value).abs().min((num("q3")? - value).abs()) / value.abs()
            };
            let cell = set
                .cells
                .entry((workload.to_string(), trace, name.clone()))
                .or_default();
            cell.values.push(value);
            cell.spread = cell.spread.max(spread);
            cell.lo = cell.lo.min(min);
            cell.hi = cell.hi.max(max);
            cell.seeds.push(seed);
        }
    }
    Ok(set)
}

/// How one metric of set `b` stands against the same metric of set `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The median worsened by more than the bound, or a run of `b`
    /// failed a check.
    Worse,
    /// The samples of a run settle its value no closer than the bound,
    /// and not every sample of `b` reads better than every one of `a`.
    Unresolved,
    /// A simulated value under one seed: it reads the same, or not.
    Same,
    Differs,
    /// A per-layer host time: it has no bound, so no verdict.
    Unbounded,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Unbounded => "-",
        }
    }
}

/// `worsening` is the share of `a`'s median by which `b`'s is worse,
/// negative when it is better.
pub fn verdict(
    clock: Clock,
    bound: Option<f64>,
    same_seeds: bool,
    worsening: f64,
    spread: f64,
    b_beats_all_of_a: bool,
) -> Verdict {
    match (clock, bound) {
        (Clock::Sim, _) if same_seeds => {
            if worsening == 0.0 {
                Verdict::Same
            } else if bound.is_some() && worsening > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Differs
            }
        }
        (_, None) => Verdict::Unbounded,
        (_, Some(bound)) => {
            if spread > bound && !b_beats_all_of_a {
                Verdict::Unresolved
            } else if worsening > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
    }
}

/// One line of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `b / a - 1`: the base of the ratio is always `a`. Where `a` is 0,
    /// and for the failed operations, `b - a`.
    pub change: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// Compares what both sets hold, workload by workload: first the
/// operations that failed their checks, then every metric.
pub fn compare(path_a: &str, path_b: &str) -> Result<Vec<Row>, String> {
    let (a, b) = (read_set(path_a)?, read_set(path_b)?);
    let mut rows = Vec::new();
    for (key, &failed_a) in &a.failed {
        let Some(&failed_b) = b.failed.get(key) else {
            continue;
        };
        rows.push(Row {
            workload: key.0.clone(),
            metric: if key.1 {
                "failed, traced runs"
            } else {
                "failed"
            },
            a: failed_a as f64,
            b: failed_b as f64,
            change: failed_b as f64 - failed_a as f64,
            bound: Some(0.0),
            verdict: if failed_b > 0 {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    for ((workload, trace, name), cell_a) in &a.cells {
        let Some(cell_b) = b.cells.get(&(workload.clone(), *trace, name.clone())) else {
            continue;
        };
        let Some(def) = metrics::find(name) else {
            continue;
        };
        let (ma, mb) = (median(&cell_a.values), median(&cell_b.values));
        let change = if ma == 0.0 {
            mb - ma
        } else {
            (mb - ma) / ma.abs()
        };
        let worsening = match def.better {
            Better::Lower => change,
            Better::Higher => -change,
        };
        let beats = match def.better {
            Better::Lower => cell_b.hi < cell_a.lo,
            Better::Higher => cell_b.lo > cell_a.hi,
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: def.name,
            a: ma,
            b: mb,
            change,
            bound: def.bound,
            verdict: verdict(
                def.clock,
                def.bound,
                cell_a.seeds == cell_b.seeds,
                worsening,
                cell_a.spread.max(cell_b.spread),
                beats,
            ),
        });
    }
    Ok(rows)
}

/// `rows` as a table with a tally of the verdicts under it.
pub fn render(rows: &[Row], path_a: &str) -> String {
    let mut out = format!(
        "{:<16} {:<36} {:>16} {:>16} {:>9} {:>6}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a-1", "bound"
    );
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in rows {
        *tally.entry(r.verdict.as_str()).or_default() += 1;
        out.push_str(&format!(
            "{:<16} {:<36} {:>16.6} {:>16.6} {:>+9.4} {:>6}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change,
            r.bound.map_or("-".to_string(), |b| b.to_string()),
            r.verdict.as_str()
        ));
    }
    let tally: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    out.push_str(&format!(
        "every ratio has a = {path_a} as its base; {}\n",
        tally.join(", ")
    ));
    out
}
