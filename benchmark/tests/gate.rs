//! The correctness gate is fatal: a run whose outputs do not match the
//! reference oracle exits non-zero and prints no metrics.

use std::process::Command;

fn benchmark(dir: &std::path::Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pdp-benchmark"))
        .current_dir(dir)
        .args(["--workload", "sparse-4shard", "--seed", "7"])
        .args(["--seconds", "1", "--trace", "0", "--smoke"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    // inside the package's own target directory: never outside the checkout
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn corrupted_expected_digest_fails_the_run_and_prints_no_metrics() {
    let out = benchmark(&scratch("gate-corrupt"), &["--corrupt-oracle"]);
    assert!(
        !out.status.success(),
        "a digest mismatch must exit non-zero"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("metrics"),
        "no metrics may be printed: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("reference oracle"), "{stderr}");
}

#[test]
fn intact_run_passes_the_gate_and_speaks_the_driver_protocol() {
    let out = benchmark(&scratch("gate-intact"), &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let value: serde_json::Value = serde_json::from_str(last).expect("the last line is JSON");
    let serde_json::Value::Object(entries) = &value else {
        panic!("not an object: {last}")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(value.get("correct").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(value.get("failed").and_then(|v| v.as_u64()), Some(0));
    let setup = value
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .expect("setup_s is reported");
    assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
    assert!(setup.get("value").and_then(|v| v.as_f64()).unwrap() > 0.0);
}
