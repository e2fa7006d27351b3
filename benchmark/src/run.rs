//! One workload, one fresh process: set-up timing, the correctness gate,
//! the timed run, the operator's scenario and — traced — the layer
//! replays, assembled into the metrics the catalog names.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::catalog::{
    END_TO_END, GEN_SHARE_LIMIT, LATE_P99_LIMIT_US, PER_LAYER, SEGMENT_SPREAD_LIMIT,
    TRACE_OVERHEAD_LIMIT,
};
use crate::edge::{self, Rig};
use crate::gen::Pool;
use crate::inproc::{self, Durable, MainOutcome, Segment};
use crate::layers;
use crate::ops;
use crate::oracle;
use crate::report::{host_record, obj, peak_rss_mib, Metrics};
use crate::spec::{self, Spec};
use crate::stats::{highest_supported_quantile, median, quantile};
use crate::trace::Trace;

/// Service constructions `setup_s` is the median of.
const SETUPS: usize = 15;
/// The operator's scenario is repeated to fill this much time, at least
/// 3 and at most [`OPS_MAX_REPEATS`] times — unless one pass already
/// takes [`OPS_LONG`], which is then enough work to report from.
const OPS_REPEAT_FOR: Duration = Duration::from_secs(2);
const OPS_MAX_REPEATS: usize = 9;
const OPS_LONG: Duration = Duration::from_millis(1500);
/// Spans a traced run buffers (later ones only add to the totals).
const TRACE_CAPACITY: usize = 1 << 20;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flag the result as a smoke run: never comparable.
    pub smoke: bool,
    /// Test hook: flip one bit of the oracle's expected digest, which
    /// must make the run fail.
    pub corrupt_oracle: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why the run is not a valid measurement (empty when it is).
    pub invalid: Vec<String>,
    /// The result file's content.
    pub record: Value,
}

/// Where a run keeps its files: inside the checkout, removed at exit.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path) -> Result<Self, String> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Time [`SETUPS`] constructions of everything the workload needs before
/// its first request: the service (registration, epoch-0 compile, worker
/// spawn), its WAL, and on the edge the bound server with both client
/// connections. Input generation is not part of it.
fn time_setups(spec: &Spec, seed: u64, dir: &Path) -> Result<Vec<f64>, String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        if spec.edge {
            let rig = Rig::start(spec, seed, 0)?;
            seconds.push(start.elapsed().as_secs_f64());
            rig.stop()?;
        } else {
            let mut service = spec
                .build_service(seed)
                .map_err(|e| format!("setup build: {e}"))?;
            let durable = if spec.wal {
                Some(
                    Durable::attach(dir, "setup", &mut service)
                        .map_err(|e| format!("setup wal: {e}"))?,
                )
            } else {
                None
            };
            seconds.push(start.elapsed().as_secs_f64());
            drop(service);
            if let Some(durable) = durable {
                let _ = std::fs::remove_file(durable.wal_path());
            }
        }
    }
    Ok(seconds)
}

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

/// Per-segment `q`-quantiles of a latency, in µs (segments without a
/// sample are skipped), and the total sample count.
fn segment_quantiles(
    segments: &[Segment],
    pick: impl Fn(&Segment) -> &Vec<u32>,
    q: f64,
) -> (Vec<f64>, u64) {
    let mut values = Vec::new();
    let mut samples = 0u64;
    for segment in segments {
        let mut ns = pick(segment).clone();
        if !ns.is_empty() {
            samples += ns.len() as u64;
            values.push(us(quantile(&mut ns, q)));
        }
    }
    (values, samples)
}

fn throughput(segments: &[Segment]) -> Vec<f64> {
    segments.iter().map(Segment::events_per_s).collect()
}

fn gen_share(segments: &[Segment]) -> f64 {
    let gen: Duration = segments.iter().map(|s| s.gen).sum();
    let span: Duration = segments.iter().map(|s| s.span).sum();
    gen.as_secs_f64() / span.as_secs_f64()
}

fn segment_spread(segments: &[Segment]) -> f64 {
    let rates = throughput(segments);
    let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / median(&rates)
}

fn late_p99_us(main: &MainOutcome) -> Option<f64> {
    let mut late = main.late_ns.clone();
    (!late.is_empty()).then(|| us(quantile(&mut late, 0.99)))
}

fn guard(invalid: &mut Vec<String>, name: &str, value: f64, limit: f64) {
    if value > limit {
        invalid.push(format!("{name} {value:.4} exceeds {limit}"));
    }
}

/// What one run works on and what it accumulates besides its metrics.
struct Session<'a> {
    spec: &'a Spec,
    pool: &'a Pool,
    opts: &'a RunOpts,
    /// Scratch directory for WALs and checkpoints.
    dir: &'a Path,
    attempted: u64,
    failed: u64,
    invalid: Vec<String>,
    /// Extra fields of the result file.
    record: Vec<(&'static str, Value)>,
}

impl Session<'_> {
    /// The end-to-end metrics of an untraced run.
    fn end_to_end(&mut self, setup_s: &[f64]) -> Result<Metrics, String> {
        let Session {
            spec,
            pool,
            opts,
            dir,
            ..
        } = *self;
        let (invalid, record) = (&mut self.invalid, &mut self.record);
        let main = if spec.edge {
            edge::run(spec, pool, opts.seed, opts.seconds)?
        } else {
            inproc::run(spec, pool, opts.seed, opts.seconds, dir, None)?
        };
        // the operator's scenario lasts a fraction of a second on most
        // workloads, so one slow moment of the host would sit in all of
        // its numbers: repeat it over a couple of seconds and report the
        // median repetition
        let started = Instant::now();
        let mut scenarios = vec![ops::run(spec, pool, opts.seed, dir, false, None)?];
        let first = started.elapsed();
        let repeats = if first >= OPS_LONG {
            1
        } else {
            let fill = (OPS_REPEAT_FOR.as_secs_f64() / first.as_secs_f64()).ceil() as usize;
            fill.clamp(3, OPS_MAX_REPEATS)
        };
        for _ in 1..repeats {
            scenarios.push(ops::run(spec, pool, opts.seed, dir, false, None)?);
        }
        let per_scenario = |pick: fn(&ops::OpsOutcome) -> &Vec<f64>| -> (Vec<f64>, u64) {
            (
                scenarios.iter().map(|o| median(pick(o))).collect(),
                scenarios.iter().map(|o| pick(o).len() as u64).sum(),
            )
        };
        self.attempted += main.attempted + scenarios.iter().map(|o| o.attempted).sum::<u64>();
        self.failed += main.failed;

        let mut m = Metrics::default();
        let events: u64 = main.segments.iter().map(|s| s.events).sum();
        m.put_median("events_per_s", "1/s", &throughput(&main.segments), events);
        let (ack, n) = segment_quantiles(&main.segments, |s| &s.ack_ns, 0.5);
        m.put_median("ack_p50_us", "us", &ack, n);
        let (release, n) = segment_quantiles(&main.segments, |s| &s.release_ns, 0.5);
        if release.is_empty() {
            return Err(format!("{}: no merged window was delivered", spec.name));
        }
        m.put_median("release_p50_us", "us", &release, n);
        let (epoch, n) = per_scenario(|o| &o.epoch_ms);
        m.put_median("epoch_p50_ms", "ms", &epoch, n);
        let (recover, n) = per_scenario(|o| &o.recover_ms);
        m.put_median("recover_p50_ms", "ms", &recover, n);
        m.put("rss_mb", "MiB", peak_rss_mib(), 1);
        m.put_samples("setup_s", "s", setup_s);

        // the tails, at the highest percentile each sample supports
        let mut tails = Vec::new();
        for (name, pick) in [
            (
                "ack",
                (|s: &Segment| &s.ack_ns) as fn(&Segment) -> &Vec<u32>,
            ),
            ("release", |s: &Segment| &s.release_ns),
        ] {
            let per_segment = main.segments.iter().map(|s| pick(s).len()).min();
            if let Some(q) = per_segment.and_then(highest_supported_quantile) {
                let (values, n) = segment_quantiles(&main.segments, pick, q);
                tails.push((
                    name,
                    obj(vec![
                        ("quantile", Value::Float(q)),
                        ("us", Value::Float(median(&values))),
                        ("samples", Value::Int(n as i64)),
                    ]),
                ));
            }
        }
        record.push(("tails", obj(tails)));

        guard(
            invalid,
            "bench.gen_share",
            gen_share(&main.segments),
            GEN_SHARE_LIMIT,
        );
        guard(
            invalid,
            "bench.segment_spread",
            segment_spread(&main.segments),
            SEGMENT_SPREAD_LIMIT,
        );
        if let Some(late) = late_p99_us(&main) {
            guard(
                invalid,
                "server.client.late_p99_us",
                late,
                LATE_P99_LIMIT_US,
            );
        }
        record.push(("parallel", Value::Bool(main.parallel)));
        record.push(("batches", Value::Int(main.batches as i64)));
        record.push((
            "main_epoch_transitions",
            Value::Int(main.epoch_ms.len() as i64),
        ));
        record.push((
            "main_checkpoints",
            Value::Int(main.checkpoint_ms.len() as i64),
        ));
        record.push(("operator_scenarios", Value::Int(scenarios.len() as i64)));
        record.push((
            "recovery_tail_events",
            Value::Int(scenarios[0].tail_events as i64),
        ));
        Ok(m)
    }

    /// The per-layer metrics of a traced run: the workload in-process at a
    /// quarter of the time, untraced and then traced; the operator's
    /// scenario with recovery split into its steps; the layer replays; the
    /// served probes.
    fn per_layer(&mut self, out: &Path) -> Result<Metrics, String> {
        let Session {
            spec,
            pool,
            opts,
            dir,
            ..
        } = *self;
        let (invalid, record) = (&mut self.invalid, &mut self.record);
        let quarter = opts.seconds / 4.0;
        let untraced = inproc::run(spec, pool, opts.seed, quarter, dir, None)?;
        let mut trace = Trace::with_capacity(TRACE_CAPACITY);
        let traced = inproc::run(spec, pool, opts.seed, quarter, dir, Some(&mut trace))?;
        let ops = ops::run(spec, pool, opts.seed, dir, true, Some(&mut trace))?;
        self.attempted += untraced.attempted + traced.attempted + ops.attempted;
        self.failed += untraced.failed + traced.failed;

        let mut m = Metrics::default();
        let mut stages = layers::replay(spec, pool, opts.seed, dir, &mut m)?;
        let (attempted, failed) = layers::served(
            spec,
            pool,
            opts.seed,
            Duration::from_secs_f64(opts.seconds / 8.0),
            &mut m,
        )?;
        self.attempted += attempted;
        self.failed += failed;

        // ---- spans around each service call of the traced run
        let mut push_ns = trace.durations("service.push");
        let n_push = push_ns.len() as u64;
        m.put(
            "core.service.push_p50_us",
            "us",
            quantile(&mut push_ns, 0.5) as f64 / 1e3,
            n_push,
        );
        m.put(
            "core.service.push_p99_us",
            "us",
            quantile(&mut push_ns, 0.99) as f64 / 1e3,
            n_push,
        );
        let mut release_ns: Vec<u32> = traced
            .segments
            .iter()
            .flat_map(|s| s.release_ns.iter().copied())
            .collect();
        let n_release = release_ns.len() as u64;
        if release_ns.is_empty() {
            return Err(format!("{}: no merged window was delivered", spec.name));
        }
        m.put(
            "core.service.release_p99_us",
            "us",
            us(quantile(&mut release_ns, 0.99)),
            n_release,
        );

        // ---- counts and child spans recorded by the benchmark's sink
        let events = (traced.batches * spec.batch as u64) as f64;
        m.put(
            "core.service.releases_per_kev",
            "count",
            traced.shard_releases as f64 * 1e3 / events,
            traced.shard_releases,
        );
        m.put(
            "core.service.merged_per_kev",
            "count",
            traced.merged as f64 * 1e3 / events,
            traced.merged,
        );
        let (sink_ns, _, sink_calls) = trace.total("sink.deliver");
        m.put(
            "core.sink.deliveries",
            "count",
            traced.deliveries as f64,
            traced.deliveries,
        );
        m.put(
            "core.sink.ns_per_delivery",
            "ns",
            sink_ns as f64 / sink_calls.max(1) as f64,
            sink_calls,
        );

        // ---- control plane and recovery, split
        let compile = m
            .get("core.control.compile_p50_ms")
            .expect("the control replay ran");
        m.put(
            "core.control.activate_p50_ms",
            "ms",
            (median(&ops.epoch_ms) - compile).max(0.0),
            ops.epoch_ms.len() as u64,
        );
        let epochs = (untraced.epoch_ms.len() + traced.epoch_ms.len() + ops.epoch_ms.len()) as u64;
        m.put("core.control.epochs", "count", epochs as f64, epochs);
        m.put_samples(
            "core.durability.checkpoint_p50_ms",
            "ms",
            &ops.checkpoint_ms,
        );
        m.put_samples("core.durability.wal_read_ms", "ms", &ops.wal_read_ms);
        m.put_samples("core.durability.restore_ms", "ms", &ops.restore_ms);
        m.put(
            "core.durability.replay_ns_per_event",
            "ns",
            median(&ops.replay_ms) * 1e6 / ops.tail_events as f64,
            ops.tail_events,
        );

        // ---- the budget: isolated stage costs against the end-to-end figure
        let measured = &traced.segments;
        let measured_events: u64 = measured.iter().map(|s| s.events).sum();
        let per_event = |ns: u64| ns as f64 / events;
        stages.insert(
            0,
            (
                "bench.gen",
                measured.iter().map(|s| s.gen).sum::<Duration>().as_nanos() as f64
                    / measured_events as f64,
            ),
        );
        stages.push(("core.sink", per_event(sink_ns)));
        for (stage, span) in [
            ("core.control.epoch", "service.begin_epoch"),
            ("core.durability.checkpoint", "service.checkpoint"),
        ] {
            let (ns, n, _) = trace.total(span);
            if n > 0 {
                stages.push((stage, per_event(ns)));
            }
        }
        let end_to_end_ns = 1e9 / median(&throughput(measured));
        let stage_sum: f64 = stages.iter().map(|s| s.1).sum();
        let share = stage_sum / end_to_end_ns;
        m.put(
            "core.service.stage_sum_share",
            "ratio",
            share,
            measured_events,
        );
        m.put(
            "core.service.unattributed_share",
            "ratio",
            1.0 - share,
            measured_events,
        );
        record.push((
            "budget",
            obj(vec![
                ("end_to_end_ns_per_event", Value::Float(end_to_end_ns)),
                (
                    "stages",
                    Value::Array(
                        stages
                            .iter()
                            .map(|(stage, ns)| {
                                obj(vec![
                                    ("stage", Value::Str((*stage).to_owned())),
                                    ("ns_per_event", Value::Float(*ns)),
                                    ("share", Value::Float(ns / end_to_end_ns)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));

        // ---- validity
        let untraced_rate = median(&throughput(&untraced.segments));
        let traced_rate = median(&throughput(measured));
        let overhead = (untraced_rate - traced_rate) / untraced_rate;
        m.put(
            "bench.gen_share",
            "ratio",
            gen_share(measured),
            measured_events,
        );
        m.put(
            "bench.trace_overhead_share",
            "ratio",
            overhead,
            measured_events,
        );
        m.put(
            "bench.segment_spread",
            "ratio",
            segment_spread(&untraced.segments),
            untraced.segments.len() as u64,
        );
        guard(
            invalid,
            "bench.gen_share",
            gen_share(measured),
            GEN_SHARE_LIMIT,
        );
        guard(
            invalid,
            "bench.trace_overhead_share",
            overhead,
            TRACE_OVERHEAD_LIMIT,
        );
        guard(
            invalid,
            "server.client.late_p99_us",
            m.get("server.client.late_p99_us")
                .expect("the served probes ran"),
            LATE_P99_LIMIT_US,
        );

        let path = out.join(format!("trace-{}.jsonl", spec.name));
        trace
            .write_jsonl(&path, spec.name)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        record.push(("parallel", Value::Bool(traced.parallel)));
        record.push(("trace_file", Value::Str(path.display().to_string())));
        record.push(("spans_overflowed", Value::Int(trace.overflowed as i64)));
        Ok(m)
    }
}

/// Put `m` in catalog order, refusing a run that misses a catalog name.
fn in_catalog_order(
    m: Metrics,
    names: impl Iterator<Item = &'static str>,
) -> Result<Metrics, String> {
    let mut ordered = Metrics::default();
    for name in names {
        let metric =
            m.0.iter()
                .find(|metric| metric.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !metric.value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        ordered.0.push(metric.clone());
    }
    Ok(ordered)
}

/// Run one workload. `out` is the directory result files go to.
pub fn run(opts: &RunOpts, out: &Path) -> Result<RunResult, String> {
    let spec = spec::by_name(&opts.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of: {}",
            opts.workload,
            spec::all()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    if opts.seconds.is_nan() || opts.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let scratch = Scratch::create(out)?;
    let dir = &scratch.0;
    let pool = Pool::generate(&spec, opts.seed);
    let setup_s = time_setups(&spec, opts.seed, dir)?;
    let gate = oracle::gate(&spec, &pool, opts.seed, opts.corrupt_oracle)?;

    let mut session = Session {
        spec: &spec,
        pool: &pool,
        opts,
        dir,
        attempted: oracle::GATE_BATCHES,
        failed: 0,
        invalid: Vec::new(),
        record: Vec::new(),
    };
    let metrics = if opts.trace {
        in_catalog_order(session.per_layer(out)?, PER_LAYER.iter().map(|l| l.name))?
    } else {
        in_catalog_order(
            session.end_to_end(&setup_s)?,
            END_TO_END.iter().map(|e| e.name),
        )?
    };
    let Session {
        attempted,
        failed,
        invalid,
        record: extra,
        ..
    } = session;

    let mut record = vec![
        ("workload", Value::Str(spec.name.to_owned())),
        ("why", Value::Str(spec.why.to_owned())),
        ("seed", Value::Int(opts.seed as i64)),
        ("seconds", Value::Float(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("smoke", Value::Bool(opts.smoke)),
        ("valid", Value::Bool(invalid.is_empty())),
        (
            "invalid_because",
            Value::Array(invalid.iter().cloned().map(Value::Str).collect()),
        ),
        ("output_digest", Value::Str(format!("{:016x}", gate.digest))),
        (
            "gate",
            obj(vec![
                ("batches", Value::Int(oracle::GATE_BATCHES as i64)),
                ("releases", Value::Int(gate.releases as i64)),
                ("late_dropped", Value::Int(gate.dropped as i64)),
                ("ledger_entries", Value::Int(gate.ledger_entries as i64)),
            ]),
        ),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        (
            "failed_share",
            Value::Float(failed as f64 / attempted as f64),
        ),
        (
            "params",
            Value::Object(
                spec.params()
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), Value::Float(v)))
                    .collect(),
            ),
        ),
        ("host", host_record(Path::new("."))),
    ];
    record.extend(extra);
    record.push(("metrics", metrics.to_json(true)));
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        invalid,
        record: obj(record),
    })
}
