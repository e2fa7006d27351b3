//! Metric values, the host record, and the JSON both the driver and the
//! result files use.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

use crate::stats::median;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind `value` (segments for a median of segments,
    /// raw samples for a quantile or a mean).
    pub samples: u64,
    pub min: f64,
    pub max: f64,
}

/// The metrics of one run, in reporting order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A single measured value.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.0.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
            min: value,
            max: value,
        });
    }

    /// The median of per-segment (or per-repetition) values, with their
    /// min and max beside it; `samples` is how many raw observations the
    /// values summarise.
    pub fn put_median(&mut self, name: &str, unit: &'static str, values: &[f64], samples: u64) {
        assert!(!values.is_empty(), "metric {name} has no samples");
        self.0.push(Metric {
            name: name.to_owned(),
            unit,
            value: median(values),
            samples,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        });
    }

    /// [`Metrics::put_median`] over raw observations (each value is one).
    pub fn put_samples(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        self.put_median(name, unit, values, values.len() as u64);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{name: {value, unit}}` — the driver's shape — plus, for the result
    /// file (`detailed`), sample count and range.
    pub fn to_json(&self, detailed: bool) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.to_owned())),
                    ];
                    if detailed {
                        fields.extend([
                            ("samples", Value::Int(m.samples as i64)),
                            ("min", Value::Float(m.min)),
                            ("max", Value::Float(m.max)),
                        ]);
                    }
                    (m.name.clone(), obj(fields))
                })
                .collect(),
        )
    }
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn first_line_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_owned())
}

/// Where the numbers were taken: cores, CPU, kernel, compiler, and the
/// git revision of the checkout (when it is one).
pub fn host_record(root: &Path) -> Value {
    let unknown = || "unknown".to_owned();
    let git_rev = command_line("git", &["rev-parse", "HEAD"], root);
    let dirty = command_line("git", &["status", "--porcelain"], root).map(|s| !s.is_empty());
    obj(vec![
        // CPUs this process may run on (run.sh confines it to one)
        (
            "nproc",
            Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        (
            "cpus_online",
            Value::Str(
                std::fs::read_to_string("/sys/devices/system/cpu/online")
                    .map_or_else(|_| unknown(), |s| s.trim().to_owned()),
            ),
        ),
        (
            "cpu_model",
            Value::Str(first_line_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "kernel",
            Value::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_owned()),
            ),
        ),
        (
            "rustc",
            Value::Str(command_line("rustc", &["-V"], root).unwrap_or_else(unknown)),
        ),
        ("git_rev", Value::Str(git_rev.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    first_line_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
