//! Smoke test of the ledger (`crates/bench/examples/ledger`): every
//! workload at `Scale::Smoke` with all its checks on, the helpers the
//! numbers pass through, and the agreement of the ledger's metric tables
//! with `BENCHMARK.json`.
//!
//! The example's modules are included by path: the benchmark stays one
//! directory, and this target needs no manifest entry.

#[path = "../../examples/ledger/compare.rs"]
mod compare;
#[path = "../../examples/ledger/entry.rs"]
mod entry;
#[path = "../../examples/ledger/json.rs"]
mod json;
#[path = "../../examples/ledger/metrics.rs"]
mod metrics;
#[path = "../../examples/ledger/run.rs"]
mod run;
#[path = "../../examples/ledger/stats.rs"]
mod stats;
#[path = "../../examples/ledger/trace.rs"]
mod trace;
#[path = "../../examples/ledger/workloads.rs"]
mod workloads;

use compare::Verdict;
use json::Value;
use metrics::{Better, Clock, MetricDef};
use run::Options;
use stats::{median, quartiles, Summary};
use trace::{Phase, Tracer};
use workloads::Scale;

fn smoke(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 11,
        // No time floor: each of the two rounds ends with its first
        // timed rep.
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    }
}

fn metric_names(line: &Value) -> Vec<String> {
    line.get("metrics")
        .and_then(Value::as_obj)
        .expect("the result line has metrics")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn table_names(table: &[MetricDef]) -> Vec<String> {
    table.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_runs_at_smoke_scale_with_all_checks_on() {
    for name in workloads::NAMES {
        let opts = smoke(name, false);
        let outcome = run::run(&opts).expect("a workload of the table");
        assert!(outcome.correct(), "{name}: {:?}", outcome.notes);
        assert!(outcome.attempted >= 1, "{name} checked nothing");
        assert_eq!(outcome.timed_reps, 2, "{name}: one timed rep a round");
        let table = outcome.table();
        for (def, _) in &outcome.metrics {
            assert!(table.contains(def.name), "{name}: no row for {}", def.name);
        }

        let line = outcome.result_line(false);
        let keys: Vec<&str> = line
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_names(&line), table_names(metrics::END_TO_END));
        for (metric, v) in line.get("metrics").and_then(Value::as_obj).unwrap() {
            let value = v.get("value").and_then(Value::as_f64).unwrap();
            assert!(value > 0.0, "{name}: {metric} reads {value}");
        }

        // The record is one line of valid JSON that reads back.
        let record = outcome
            .record(&opts, &["NEUROCUBE_X".to_string()])
            .to_string();
        assert!(!record.contains('\n'));
        let back = json::parse(&record).expect("the record parses");
        assert_eq!(back.get("workload").and_then(Value::as_str), Some(name));
        assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
    }
}

#[test]
fn every_workload_traces_at_smoke_scale() {
    for name in workloads::NAMES {
        let opts = smoke(name, true);
        let outcome = run::run(&opts).expect("a workload of the table");
        assert!(outcome.correct(), "{name}: {:?}", outcome.notes);
        let line = outcome.result_line(true);
        assert_eq!(metric_names(&line), table_names(metrics::PER_LAYER));

        let measured = |metric: &str| outcome.metrics.iter().any(|(d, _)| d.name == metric);
        assert!(measured("trace_overhead_share"), "{name}");
        assert!(measured("trace_unattributed_share"), "{name}");
        let expected = match name {
            "conv_saturated" => vec!["core.run_s", "png.ns_per_operand_event", "nn.forward_s"],
            "ddr3_idle" => vec!["core.run_s", "sim.skipped_cycle_share"],
            "train_step" => vec!["core.run_s", "png.writes_issued"],
            "serve_replay" => vec![
                "serve.execute_s",
                "serve.run_service_s",
                "sim.batch_runner_speedup",
            ],
            "serve_twospeed" => vec!["serve.price_s", "serve.audit_s", "serve.slo_load_factor"],
            _ => vec!["cluster.plan_s", "cluster.latency_over_lower", "pe.mac_ops"],
        };
        for metric in expected {
            assert!(measured(metric), "{name} did not measure {metric}");
        }

        let record = json::parse(&outcome.record(&opts, &[]).to_string()).unwrap();
        assert!(matches!(record.get("spans"), Some(Value::Arr(s)) if !s.is_empty()));
    }
}

#[test]
fn an_unknown_workload_is_an_error_that_lists_the_workloads() {
    let err = run::run(&smoke("no_such_workload", false)).err().unwrap();
    for name in workloads::NAMES {
        assert!(err.contains(name), "{err}");
    }
}

#[test]
fn two_runs_of_one_seed_compare_as_the_same_simulation() {
    let dir = std::env::temp_dir();
    let path = |tag: &str| {
        dir.join(format!("ledger-smoke-{}-{tag}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    };
    let (a, b) = (path("a"), path("b"));
    for file in [&a, &b] {
        let opts = smoke("ddr3_idle", false);
        let record = run::run(&opts).unwrap().record(&opts, &[]);
        std::fs::write(file, format!("{record}\n")).unwrap();
    }
    let rows = compare::compare(&a, &b).unwrap();
    for file in [&a, &b] {
        std::fs::remove_file(file).unwrap();
    }
    assert_eq!(rows.len(), 1 + metrics::END_TO_END.len());
    assert_eq!(rows[0].metric, "failed");
    assert_eq!(
        (rows[0].a, rows[0].b, rows[0].verdict),
        (0.0, 0.0, Verdict::Ok)
    );
    let table = compare::render(&rows, &a);
    for row in &rows[1..] {
        let def = metrics::find(row.metric).unwrap();
        if def.clock == Clock::Sim {
            assert_eq!(row.verdict, Verdict::Same, "{}", row.metric);
            assert_eq!((row.a, row.change), (row.b, 0.0), "{}", row.metric);
        }
        assert_eq!(row.bound, def.bound);
        let line = table
            .lines()
            .find(|l| l.starts_with(&row.workload) && l.contains(row.metric))
            .expect("every row is a line of the table");
        assert!(line.ends_with(row.verdict.as_str()), "{line}");
    }
    let tally = table.lines().last().unwrap();
    assert!(tally.contains(&format!("a = {a} as its base")), "{tally}");
    assert!(tally.contains("1 same"), "{tally}");
}

#[test]
fn a_failed_run_in_the_second_set_compares_as_worse() {
    let dir = std::env::temp_dir();
    let path = |tag: &str| {
        dir.join(format!("ledger-failed-{}-{tag}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    };
    let record = |failed: u64, rate: f64| {
        format!(
            "{{\"workload\": \"conv_saturated\", \"seed\": 11, \"trace\": false, \
             \"correct\": {}, \"attempted\": 5, \"failed\": {failed}, \"metrics\": \
             {{\"sim_cycles_per_host_s\": {{\"value\": {rate}, \"min\": {rate}, \
             \"max\": {rate}, \"q1\": {rate}, \"q3\": {rate}}}}}}}\n",
            failed == 0
        )
    };
    let (good, bad) = (path("good"), path("bad"));
    std::fs::write(&good, record(0, 1.5) + &record(0, 1.6)).unwrap();
    // Twice as fast, and one of its two runs failed two checks.
    std::fs::write(&bad, record(0, 3.0) + &record(2, 3.2)).unwrap();
    let forward = compare::compare(&good, &bad).unwrap();
    let back = compare::compare(&bad, &good).unwrap();
    for file in [&good, &bad] {
        std::fs::remove_file(file).unwrap();
    }

    let row = |rows: &[compare::Row], metric: &str| {
        let r = rows.iter().find(|r| r.metric == metric).unwrap();
        (r.a, r.b, r.verdict)
    };
    assert_eq!(row(&forward, "failed"), (0.0, 2.0, Verdict::Worse));
    assert_eq!(row(&forward, "sim_cycles_per_host_s").2, Verdict::Ok);
    assert!(compare::render(&forward, &good).contains("1 worse"));
    // The other way round the failures are the base's, and the slower
    // set is worse by its speed alone.
    assert_eq!(row(&back, "failed"), (2.0, 0.0, Verdict::Ok));
    assert_eq!(row(&back, "sim_cycles_per_host_s").2, Verdict::Worse);
}

#[test]
fn verdicts_follow_the_bound_the_spread_and_the_seed() {
    let host = |worsening, spread, beats| {
        compare::verdict(Clock::Host, Some(0.10), true, worsening, spread, beats)
    };
    assert_eq!(host(0.05, 0.02, false), Verdict::Ok);
    assert_eq!(host(-0.30, 0.02, false), Verdict::Ok);
    assert_eq!(host(0.11, 0.02, false), Verdict::Worse);
    assert_eq!(host(0.05, 0.12, false), Verdict::Unresolved);
    assert_eq!(host(-0.30, 0.12, true), Verdict::Ok);
    // Under one seed a simulated metric may not move at all.
    let sim =
        |bound, same, worsening| compare::verdict(Clock::Sim, bound, same, worsening, 0.0, false);
    assert_eq!(sim(Some(0.02), true, 0.0), Verdict::Same);
    assert_eq!(sim(Some(0.02), true, 1e-9), Verdict::Worse);
    assert_eq!(sim(Some(0.02), true, -1e-9), Verdict::Differs);
    assert_eq!(sim(None, true, 0.5), Verdict::Differs);
    // Under different seeds its bound applies like any other.
    assert_eq!(sim(Some(0.02), false, 0.01), Verdict::Ok);
    assert_eq!(sim(Some(0.02), false, 0.03), Verdict::Worse);
    assert_eq!(sim(None, false, 0.5), Verdict::Unbounded);
}

#[test]
fn medians_and_quartiles_read_as_pythons_do() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[5.0]), (5.0, 5.0));

    let s = Summary::of(&[4.0, 2.0, 8.0, 6.0]);
    assert_eq!((s.n, s.min, s.max, s.median), (4, 2.0, 8.0, 5.0));
    assert_eq!((s.q1, s.q3), (2.5, 7.5));
    assert_eq!(Summary::single(3.0).n, 1);
}

#[test]
fn json_writes_one_line_and_reads_it_back() {
    let doc = Value::obj([
        ("whole", Value::Num(1_062_080.0)),
        ("small", Value::Num(0.000_000_544_521_6)),
        ("large", Value::Num(5.6e8)),
        ("text", Value::str("a \"quoted\"\\ line\nnext\ttab")),
        ("list", Value::Arr(vec![Value::Null, Value::Bool(false)])),
        ("nested", Value::obj([("k", Value::Num(-1.5))])),
    ]);
    let text = doc.to_string();
    assert!(text.starts_with("{\"whole\": 1062080, \"small\": 0.0000005445216, "));
    assert!(text.contains("\"large\": 560000000,"));
    assert!(!text.contains('\n'));
    assert_eq!(json::parse(&text), Ok(doc));

    assert_eq!(
        json::parse(" [1e3, -2.5E-1, \"\\u00e9\\/\"] "),
        Ok(Value::Arr(vec![
            Value::Num(1000.0),
            Value::Num(-0.25),
            Value::str("é/")
        ]))
    );
    for bad in [
        "",
        "{",
        "[1,]x",
        "{\"a\" 1}",
        "\"open",
        "nul",
        "1 2",
        "{\"a\":1,}",
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn spans_nest_and_self_times_add_up_to_the_root() {
    let mut t = Tracer::new();
    t.begin(false, Phase::Rep, 0);
    assert_eq!(t.span("off", |_| 7), 7);
    assert!(t.self_seconds(Phase::Rep).is_empty(), "off records nothing");

    let spin = || std::hint::black_box((0..20_000u64).sum::<u64>());
    t.begin(true, Phase::Rep, 1);
    t.span("rep", |t| {
        t.span("a", |t| {
            spin();
            t.span("b", |_| spin());
        });
        t.span("a", |_| spin());
    });
    let spans = match t.to_json() {
        Value::Arr(s) => s,
        other => panic!("{other}"),
    };
    let field = |i: usize, f: usize| match &spans[i] {
        Value::Arr(fields) => fields[f].clone(),
        other => panic!("{other}"),
    };
    assert_eq!(spans.len(), 4);
    assert_eq!(field(0, 3), Value::Null, "the root has no parent");
    assert_eq!(field(1, 3), Value::Num(0.0));
    assert_eq!(field(2, 3), Value::Num(1.0), "b opened inside the first a");
    assert_eq!(field(3, 3), Value::Num(0.0));
    assert_eq!(field(2, 1), Value::str("rep"));

    let own = t.self_seconds(Phase::Rep);
    assert_eq!(own["a"].len(), 1, "both a spans of the rep are one entry");
    let total: f64 = own.values().map(|v| v[0]).sum();
    let root = field(0, 5).as_f64().unwrap() - field(0, 4).as_f64().unwrap();
    assert!(
        (total * 1e9 - root).abs() < 1.0,
        "{total} s against {root} ns"
    );
    assert!(t.self_seconds(Phase::Setup).is_empty());
}

fn legal(text: &str, extra: &str, max: usize) -> bool {
    !text.is_empty()
        && text.len() <= max
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn metric_names_and_units_are_legal_and_used_once() {
    let all: Vec<&MetricDef> = metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .collect();
    for (i, m) in all.iter().enumerate() {
        assert!(legal(m.name, "_.-", 64), "{}", m.name);
        assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(legal(m.unit, "_/%.-", 16), "{}: {}", m.name, m.unit);
        assert!(
            all[..i].iter().all(|o| o.name != m.name),
            "{} twice",
            m.name
        );
    }
    for m in metrics::END_TO_END {
        let bound = m.bound.expect("an end-to-end metric has a bound");
        assert!((0.0..=0.25).contains(&bound), "{}", m.name);
    }
    assert!(metrics::PER_LAYER.iter().all(|m| m.bound.is_none()));
    assert!(metrics::PER_LAYER.len() <= 128);
    let setup = metrics::find("setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

#[test]
fn benchmark_json_lists_exactly_what_the_ledger_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the root");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let list = |key: &str| match doc.get(key) {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
    let better = |m: &MetricDef| match m.better {
        Better::Higher => "higher",
        Better::Lower => "lower",
    };

    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(metrics::RUN_SECONDS as f64)
    );
    assert_eq!(
        list("paths"),
        [
            Value::str("crates/bench/examples/ledger"),
            Value::str("crates/bench/tests/ledger")
        ]
    );
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    assert_eq!(workloads, workloads::NAMES);
    for w in list("workloads") {
        let why = text_of(&w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), metrics::END_TO_END.len());
    for (entry, m) in e2e.iter().zip(metrics::END_TO_END) {
        assert_eq!(text_of(entry, "name"), m.name);
        assert_eq!(text_of(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(text_of(entry, "better"), better(m), "{}", m.name);
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            m.bound,
            "{}",
            m.name
        );
        assert_eq!(entry.as_obj().unwrap().len(), 4, "{}", m.name);
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), metrics::PER_LAYER.len());
    for (entry, m) in per_layer.iter().zip(metrics::PER_LAYER) {
        assert_eq!(text_of(entry, "name"), m.name);
        assert_eq!(text_of(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(text_of(entry, "better"), better(m), "{}", m.name);
        assert_eq!(entry.as_obj().unwrap().len(), 3, "{}", m.name);
    }
}
