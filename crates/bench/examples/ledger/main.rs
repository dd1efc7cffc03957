//! The ledger: one benchmark for both clocks of the simulator, host time
//! and simulated cycles, on six workloads from a stage tick to a serve
//! request. README.md has the commands and the reasoning.

mod compare;
mod entry;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Options;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ledger --workload <workload> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       ledger compare <a.jsonl> <b.jsonl>";

enum Command {
    Run(Options, Option<String>),
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("compare takes two files".to_string()),
        };
    }
    let mut opts = Options {
        workload: String::new(),
        seed: 11,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        scale: workloads::Scale::Full,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("a workload")?,
            "--seed" => {
                opts.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a number that is not negative")?;
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("no workload named".to_string());
    }
    Ok(Command::Run(opts, out))
}

/// Removes every `NEUROCUBE_*` variable and returns the names removed.
/// The library reads 31 of them, some cached per process, and any one
/// could change what is measured without leaving a trace in the output.
fn clear_knobs() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NEUROCUBE_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn main() -> ExitCode {
    // Before any library call, and before any thread exists.
    let env_cleared = clear_knobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (opts, out) = match command {
        Command::Compare(a, b) => {
            return match compare::compare(&a, &b) {
                Ok(rows) => {
                    print!("{}", compare::render(&rows, &a));
                    if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("ledger: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Run(opts, out) => (opts, out),
    };

    let outcome = match run::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} seed {} ({}): {} timed reps, {} of {} operations failed, env cleared: {:?}",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        outcome.timed_reps,
        outcome.failed,
        outcome.attempted,
        env_cleared
    );
    eprint!("{}", outcome.table());
    for note in &outcome.notes {
        eprintln!("FAILED {note}");
    }
    if let Some(path) = out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", outcome.record(&opts, &env_cleared)));
        if let Err(e) = appended {
            eprintln!("ledger: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !outcome.correct() {
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line(opts.trace));
    ExitCode::SUCCESS
}
