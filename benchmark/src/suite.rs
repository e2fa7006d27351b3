//! Whole-suite commands: every workload in its own fresh process, A/A
//! comparison, seed spread, the budget table and the manifest.

use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::report::{host_record, obj};
use crate::stats::{iqr_share, median};
use crate::{flag, has, out_dir, parsed, spec};

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: f64 = 20.0;
/// Seconds of a `--smoke` run.
const SMOKE_SECONDS: f64 = 1.0;

pub fn run_file(workload: &str, seed: u64, trace: bool) -> String {
    format!("run-{workload}-seed{seed}-trace{}.json", u8::from(trace))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    // parse back what was written: a truncated or malformed result file
    // must fail the command that produced it
    read_json(path).map(drop)
}

/// Run one workload in a fresh process and return its result record.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) failed: {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line: Value = serde_json::from_str(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload}: result line: {e}"))?;
    if line.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload}: run did not report correct outputs"));
    }
    read_json(&out_dir().join(run_file(workload, seed, trace)))
}

fn metrics_of(record: &Value) -> &[(String, Value)] {
    match record.get("metrics") {
        Some(Value::Object(entries)) => entries,
        _ => &[],
    }
}

fn metric(record: &Value, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn text<'a>(record: &'a Value, key: &str) -> &'a str {
    record.get(key).and_then(Value::as_str).unwrap_or("?")
}

fn flag_text(record: &Value, key: &str) -> String {
    record
        .get(key)
        .and_then(Value::as_bool)
        .map_or("?".to_owned(), |b| b.to_string())
}

fn is_traced(record: &Value) -> bool {
    record.get("trace").and_then(Value::as_bool) == Some(true)
}

fn print_record(record: &Value) {
    println!(
        "== {} ({}) parallel={} valid={} output_digest={} failed_share={}",
        text(record, "workload"),
        if is_traced(record) {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        flag_text(record, "parallel"),
        flag_text(record, "valid"),
        text(record, "output_digest"),
        record
            .get("failed_share")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
    );
    for (name, m) in metrics_of(record) {
        let f = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!(
            "{name:<44} {:>16.4} {:<6} n={:<9} min={:.4} max={:.4}",
            f("value"),
            m.get("unit").and_then(Value::as_str).unwrap_or("?"),
            m.get("samples").and_then(Value::as_u64).unwrap_or(0),
            f("min"),
            f("max"),
        );
    }
}

/// Run the set: every workload untraced and/or traced, each in a fresh
/// process. Returns the results document.
fn run_set(
    seed: u64,
    seconds: f64,
    smoke: bool,
    untraced: bool,
    traced: bool,
) -> Result<Value, String> {
    let mut runs = Vec::new();
    for spec in spec::all() {
        for trace in [false, true] {
            if (trace && !traced) || (!trace && !untraced) {
                continue;
            }
            eprintln!("running {} (trace {})...", spec.name, u8::from(trace));
            let record = child(spec.name, seed, seconds, trace, smoke)?;
            print_record(&record);
            runs.push(record);
        }
    }
    Ok(obj(vec![
        ("seed", Value::Int(seed as i64)),
        ("seconds", Value::Float(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("host", host_record(Path::new("."))),
        ("runs", Value::Array(runs)),
    ]))
}

fn set_options(args: &[String]) -> Result<(u64, f64, bool), String> {
    let smoke = has(args, "--smoke");
    let default = if smoke { SMOKE_SECONDS } else { RUN_SECONDS };
    Ok((
        parsed(args, "--seed", 1)?,
        parsed(args, "--seconds", default)?,
        smoke,
    ))
}

fn ensure_out() -> Result<(), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {}: {e}", out_dir().display()))
}

/// `all`: the one command. Untraced then traced unless restricted.
pub fn all(args: &[String]) -> Result<(), String> {
    let (seed, seconds, smoke) = set_options(args)?;
    ensure_out()?;
    let results = run_set(
        seed,
        seconds,
        smoke,
        !has(args, "--trace"),
        !has(args, "--no-trace"),
    )?;
    let name = if smoke {
        format!("results-seed{seed}-smoke.json")
    } else {
        format!("results-seed{seed}.json")
    };
    let path = match flag(args, "--out") {
        Some(path) => path.into(),
        None => out_dir().join(name),
    };
    write_json(&path, &results)?;
    let invalid: Vec<&str> = runs(&results)
        .iter()
        .filter(|r| r.get("valid").and_then(Value::as_bool) != Some(true))
        .map(|r| text(r, "workload"))
        .collect();
    println!("wrote {}", path.display());
    if !invalid.is_empty() {
        println!(
            "INVALID (a validity guard was breached): {}",
            invalid.join(", ")
        );
    }
    Ok(())
}

fn runs(results: &Value) -> &[Value] {
    results
        .get("runs")
        .and_then(Value::as_array)
        .map_or(&[], Vec::as_slice)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The calibration rule: at least 3 %, at least twice the A/A difference.
fn calibrated(worst_difference: f64) -> f64 {
    (2.0 * worst_difference).max(0.03)
}

/// Compare two result sets of the same build: per workload × end-to-end
/// metric the two values, their relative difference and the bound. Fails
/// if a pair differs by more than its bound, an `output_digest` differs,
/// or an operation failed.
pub fn compare(a: &Value, b: &Value) -> Result<(), String> {
    let mut failures = Vec::new();
    let mut worst = vec![0.0f64; END_TO_END.len()];
    println!(
        "{:<15} {:<20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "a", "b", "diff", "bound"
    );
    for ra in runs(a).iter().filter(|r| !is_traced(r)) {
        let workload = text(ra, "workload");
        let Some(rb) = runs(b)
            .iter()
            .find(|r| !is_traced(r) && text(r, "workload") == workload)
        else {
            failures.push(format!("{workload}: missing from the second set"));
            continue;
        };
        if text(ra, "output_digest") != text(rb, "output_digest") {
            failures.push(format!(
                "{workload}: output_digest {} vs {}",
                text(ra, "output_digest"),
                text(rb, "output_digest")
            ));
        }
        for r in [ra, rb] {
            if r.get("failed").and_then(Value::as_u64) != Some(0) {
                failures.push(format!("{workload}: failed_share is not 0"));
            }
        }
        for (i, e) in END_TO_END.iter().enumerate() {
            let (Some(va), Some(vb)) = (metric(ra, e.name), metric(rb, e.name)) else {
                failures.push(format!("{workload}: {} missing", e.name));
                continue;
            };
            let diff = worsening(e.better, va, vb);
            worst[i] = worst[i].max(diff.abs());
            println!(
                "{workload:<15} {:<20} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>6.0}%",
                e.name,
                diff * 100.0,
                e.bound * 100.0
            );
            if diff.abs() > e.bound {
                failures.push(format!(
                    "{workload}: {} differs by {:.1}% (bound {:.0}%)",
                    e.name,
                    diff * 100.0,
                    e.bound * 100.0
                ));
            }
        }
    }
    println!("calibrated bounds (max(0.03, 2 x the largest A/A difference)):");
    for (e, w) in END_TO_END.iter().zip(&worst) {
        let bound = calibrated(*w);
        let note = if bound > 0.10 && e.name != "setup_s" {
            "  <- needs more than 0.10: demote to the per-layer list"
        } else {
            ""
        };
        println!("  {:<20} {:.3}{note}", e.name, bound);
    }
    if failures.is_empty() {
        println!("A/A: every end-to-end metric within its bound, digests identical");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

pub fn compare_files(a: &str, b: &str) -> Result<(), String> {
    compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?)
}

/// `aa`: two complete untraced sets of the same build, then `compare`.
pub fn aa(args: &[String]) -> Result<(), String> {
    let (seed, seconds, smoke) = set_options(args)?;
    ensure_out()?;
    let mut sets = Vec::new();
    for tag in ["a", "b"] {
        let results = run_set(seed, seconds, smoke, true, false)?;
        write_json(&out_dir().join(format!("aa-{tag}.json")), &results)?;
        sets.push(results);
    }
    compare(&sets[0], &sets[1])
}

/// `spread`: each workload on `--runs` seeds; per end-to-end metric the
/// distance between the quartiles of its values as a share of their
/// median — the spread the driver holds each bound against.
pub fn spread(args: &[String]) -> Result<(), String> {
    let n: u64 = parsed(args, "--runs", 10)?;
    let first: u64 = parsed(args, "--seed", 1)?;
    let seconds = parsed(args, "--seconds", RUN_SECONDS)?;
    ensure_out()?;
    let mut rows = Vec::new();
    let mut worst = vec![0.0f64; END_TO_END.len()];
    for spec in spec::all() {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in first..first + n {
            eprintln!("running {} seed {seed}...", spec.name);
            let record = child(spec.name, seed, seconds, false, false)?;
            for (i, e) in END_TO_END.iter().enumerate() {
                values[i].push(
                    metric(&record, e.name)
                        .ok_or_else(|| format!("{}: {} missing", spec.name, e.name))?,
                );
            }
        }
        for (i, e) in END_TO_END.iter().enumerate() {
            let share = iqr_share(&values[i]);
            worst[i] = worst[i].max(share);
            println!(
                "{:<15} {:<20} median {:>16.4} spread {:>6.2}% (bound {:.0}%)",
                spec.name,
                e.name,
                median(&values[i]),
                share * 100.0,
                e.bound * 100.0
            );
            rows.push(obj(vec![
                ("workload", Value::Str(spec.name.to_owned())),
                ("metric", Value::Str(e.name.to_owned())),
                ("median", Value::Float(median(&values[i]))),
                ("spread", Value::Float(share)),
                (
                    "values",
                    Value::Array(values[i].iter().map(|&v| Value::Float(v)).collect()),
                ),
            ]));
        }
    }
    println!("largest spread per metric (keep each below a third of its bound):");
    for (e, w) in END_TO_END.iter().zip(&worst) {
        println!(
            "  {:<20} {:>6.2}%  bound {:.0}%{}",
            e.name,
            w * 100.0,
            e.bound * 100.0,
            if e.name != "setup_s" && *w > e.bound / 3.0 {
                "  <- too wide"
            } else {
                ""
            }
        );
    }
    let path = out_dir().join("spread.json");
    write_json(&path, &Value::Array(rows))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `budget`: per workload, the stage table of its traced run.
pub fn budget(file: &str) -> Result<(), String> {
    let results = read_json(Path::new(file))?;
    let mut printed = false;
    for record in runs(&results) {
        let Some(budget) = record.get("budget") else {
            continue;
        };
        printed = true;
        let end_to_end = budget
            .get("end_to_end_ns_per_event")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "== {} (parallel={}): end to end {end_to_end:.1} ns/event",
            text(record, "workload"),
            record
                .get("parallel")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        );
        println!("{:<28} {:>12} {:>8}", "stage", "ns/event", "share");
        for stage in budget
            .get("stages")
            .and_then(Value::as_array)
            .map_or(&[][..], Vec::as_slice)
        {
            println!(
                "{:<28} {:>12.1} {:>7.1}%",
                text(stage, "stage"),
                stage
                    .get("ns_per_event")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN),
                stage
                    .get("share")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN)
                    * 100.0,
            );
        }
        for name in [
            "core.service.stage_sum_share",
            "core.service.unattributed_share",
        ] {
            println!(
                "{name:<28} {:>12} {:>7.1}%",
                "",
                metric(record, name).unwrap_or(f64::NAN) * 100.0
            );
        }
    }
    if printed {
        Ok(())
    } else {
        Err(format!(
            "{file} holds no traced run (use `all` or `all --trace`)"
        ))
    }
}

/// `layers`: the per-layer metric → end-to-end metric table (markdown).
pub fn layers() {
    println!("| per-layer metric | unit | should move | most on |");
    println!("|---|---|---|---|");
    for l in PER_LAYER {
        println!("| `{}` | {} | {} | {} |", l.name, l.unit, l.moves, l.on);
    }
}

/// `BENCHMARK.json`, generated from the catalog and the workload list.
pub fn manifest() -> Result<String, String> {
    let value = obj(vec![
        (
            "command",
            Value::Array(vec![
                Value::Str("bash".to_owned()),
                Value::Str("benchmark/run.sh".to_owned()),
            ]),
        ),
        (
            "paths",
            Value::Array(vec![Value::Str("benchmark".to_owned())]),
        ),
        ("run_seconds", Value::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Value::Array(
                spec::all()
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("name", Value::Str(s.name.to_owned())),
                            ("why", Value::Str(s.why.to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("name", Value::Str(e.name.to_owned())),
                            ("unit", Value::Str(e.unit.to_owned())),
                            ("better", Value::Str(e.better.to_owned())),
                            ("bound", Value::Float(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("name", Value::Str(l.name.to_owned())),
                            ("unit", Value::Str(l.unit.to_owned())),
                            ("better", Value::Str(l.better.to_owned())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&value).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed manifest is the catalog's: a metric or workload
    /// renamed in one place and not the other fails here.
    #[test]
    fn committed_manifest_matches_the_catalog() {
        let committed: Value = serde_json::from_str(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root"),
        )
        .expect("BENCHMARK.json parses");
        let generated: Value = serde_json::from_str(&manifest().unwrap()).unwrap();
        assert_eq!(committed, generated);
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        for s in spec::all() {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        assert!((2..=8).contains(&spec::all().len()));
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .chain(spec::all().iter().map(|s| s.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    #[test]
    fn worsening_is_signed_toward_worse() {
        assert!(worsening("higher", 100.0, 90.0) > 0.0);
        assert!(worsening("lower", 100.0, 90.0) < 0.0);
        assert_eq!(calibrated(0.0), 0.03);
        assert_eq!(calibrated(0.04), 0.08);
    }
}
