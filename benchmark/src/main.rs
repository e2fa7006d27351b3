//! `pdp-benchmark` — the repo benchmark.
//!
//! ```text
//! pdp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                   one workload in this process; the last
//!                                   stdout line is the driver's JSON object
//! pdp-benchmark all [--seed n] [--seconds s] [--smoke] [--no-trace|--trace]
//!                                   every workload, each in a fresh process
//! pdp-benchmark aa  [--seed n] [--seconds s]
//!                                   two untraced sets of the same build, compared
//! pdp-benchmark spread [--runs n] [--seconds s]
//!                                   n seeds per workload; quartile spread per metric
//! pdp-benchmark compare <a.json> <b.json>
//! pdp-benchmark budget <results.json>
//! pdp-benchmark manifest            BENCHMARK.json, from the catalog
//! pdp-benchmark layers              which end-to-end metric each layer metric should move
//! ```

mod catalog;
mod edge;
mod gen;
mod inproc;
mod layers;
mod ops;
mod oracle;
mod report;
mod run;
mod sink;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use crate::report::obj;
use crate::run::RunOpts;

/// Result files, traces and scratch space, relative to the checkout
/// root the benchmark is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// `--name value` anywhere in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name}: cannot parse {raw:?}")),
    }
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// One workload in this process, speaking the driver's protocol.
fn single(args: &[String]) -> Result<(), String> {
    let opts = RunOpts {
        workload: flag(args, "--workload")
            .ok_or("--workload needs a name")?
            .to_owned(),
        seed: parsed(args, "--seed", 1)?,
        seconds: parsed(args, "--seconds", suite::RUN_SECONDS)?,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        smoke: has(args, "--smoke"),
        corrupt_oracle: has(args, "--corrupt-oracle"),
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let result = run::run(&opts, &out)?;
    for reason in &result.invalid {
        eprintln!("{}: INVALID RUN: {reason}", opts.workload);
    }
    let path = out.join(suite::run_file(&opts.workload, opts.seed, opts.trace));
    suite::write_json(&path, &result.record)?;
    let line = obj(vec![
        ("correct", Value::Bool(true)),
        ("attempted", Value::Int(result.attempted as i64)),
        ("failed", Value::Int(result.failed as i64)),
        ("metrics", result.metrics.to_json(false)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    if has(args, "--workload") {
        return single(args);
    }
    match args.first().map(String::as_str) {
        None | Some("all") => suite::all(args),
        Some("aa") => suite::aa(args),
        Some("spread") => suite::spread(args),
        Some("compare") => match args {
            [_, a, b] => suite::compare_files(a, b),
            _ => Err("usage: compare <a.json> <b.json>".to_owned()),
        },
        Some("budget") => match args {
            [_, file] => suite::budget(file),
            _ => Err("usage: budget <results.json>".to_owned()),
        },
        Some("layers") => {
            suite::layers();
            Ok(())
        }
        Some("manifest") => {
            println!("{}", suite::manifest()?);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // a failed check prints no metrics: the error is the output
            eprintln!("pdp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
