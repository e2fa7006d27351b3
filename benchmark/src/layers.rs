//! The layer replays of the traced run: the workload's own first
//! [`REPLAY_BATCHES`] batches fed through one layer's public functions at
//! a time, with the setup the service would give it.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use pdp_cep::{ClosedWindow, IncrementalDetector, PatternId, Semantics};
use pdp_core::{
    optimize_all, write_checkpoint, AdaptiveConfig, CountingSink, EpochPlan, KeyedEvent,
    QualityModel, RouteTable, ShardedService, StreamingConfig, StreamingEngine, SubjectId, VecSink,
    WalWriter,
};
use pdp_dp::{DpRng, EpochLedger, Epsilon};
use pdp_metrics::{Alpha, LatencyHistogram};
use pdp_server::frame::MergedRecord;
use pdp_server::{Frame, WireAnswer};
use pdp_stream::{Event, IndicatorVector, ReorderBuffer, Timestamp};

use crate::edge::{open_loop, OpenLoop, Rig};
use crate::gen::Pool;
use crate::report::Metrics;
use crate::spec::{Spec, REPLAY_BATCHES};
use crate::stats::quantile;

fn ns_per(total: Duration, units: usize) -> f64 {
    total.as_nanos() as f64 / units.max(1) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p50_us(samples_ns: &mut [u64]) -> f64 {
    quantile(samples_ns, 0.5) as f64 / 1e3
}

/// Per-event stage costs of one workload, nanoseconds per ingested
/// event, for the budget table.
pub type Stages = Vec<(&'static str, f64)>;

/// Run every in-process layer replay; returns the stage costs the budget
/// table sums.
pub fn replay(
    spec: &Spec,
    pool: &Pool,
    seed: u64,
    dir: &Path,
    m: &mut Metrics,
) -> Result<Stages, String> {
    let batches: Vec<Vec<KeyedEvent>> = (0..REPLAY_BATCHES as u64).map(|k| pool.batch(k)).collect();
    let n_events: usize = batches.iter().map(Vec::len).sum();
    let plan = spec
        .control_plane(seed)
        .compile_initial()
        .map_err(|e| format!("replay compile: {e}"))?;
    let mut stages = Vec::new();

    // ---- route: RouteTable::lookup over every event; skew via shard_for
    let mut routes = RouteTable::new();
    for s in 0..spec.n_subjects {
        let subject = SubjectId(s);
        routes.insert(
            subject,
            ShardedService::shard_for(subject, spec.n_shards) as u32,
        );
    }
    let mut per_shard = vec![0u64; spec.n_shards];
    let t = Instant::now();
    for keyed in batches.iter().flatten() {
        let shard = routes.lookup(black_box(keyed.subject)).unwrap_or(0);
        per_shard[shard as usize] += 1;
    }
    let route_ns = ns_per(t.elapsed(), n_events);
    m.put(
        "core.service.route_ns_per_event",
        "ns",
        route_ns,
        n_events as u64,
    );
    let mean = n_events as f64 / spec.n_shards as f64;
    m.put(
        "core.service.shard_skew",
        "ratio",
        *per_shard.iter().max().expect("n_shards >= 1") as f64 / mean,
        n_events as u64,
    );
    stages.push(("core.service.route", route_ns));

    // ---- reorder: shard 0's partition through ReorderBuffer
    let partition: Vec<Event> = batches
        .iter()
        .flatten()
        .filter(|k| ShardedService::shard_for(k.subject, spec.n_shards) == 0)
        .map(|k| k.event.clone())
        .collect();
    let n_partition = partition.len();
    let mut buffer = ReorderBuffer::new(spec.max_delay());
    buffer.reserve(n_partition);
    let mut ordered: Vec<Event> = Vec::with_capacity(n_partition);
    let mut pending_peak = 0usize;
    let mut last = Timestamp::ZERO;
    let t = Instant::now();
    for event in partition {
        last = last.max(event.ts);
        buffer.push_into(event, &mut ordered);
        pending_peak = pending_peak.max(buffer.pending());
    }
    buffer.heartbeat_into(last + spec.max_delay(), &mut ordered);
    let reorder_ns = ns_per(t.elapsed(), n_partition);
    m.put(
        "stream.reorder.ns_per_event",
        "ns",
        reorder_ns,
        n_partition as u64,
    );
    m.put(
        "stream.reorder.late_dropped",
        "count",
        buffer.dropped() as f64,
        n_partition as u64,
    );
    m.put(
        "stream.reorder.pending_peak",
        "count",
        pending_peak as f64,
        n_partition as u64,
    );
    stages.push(("stream.reorder", reorder_ns));

    // ---- detect: the ordered partition through IncrementalDetector
    let end = last + spec.window();
    let mut detector = IncrementalDetector::new(
        plan.core.patterns().clone(),
        Semantics::Conjunction,
        spec.window(),
        spec.n_types,
    )
    .map_err(|e| format!("replay detector: {e}"))?;
    let mut closed: Vec<ClosedWindow> = Vec::new();
    let detect_fail = |e| format!("replay detector: {e}");
    let t = Instant::now();
    detector
        .advance_to_into(Timestamp::ZERO, &mut closed)
        .map_err(detect_fail)?;
    for event in &ordered {
        detector
            .push_into(event, &mut closed)
            .map_err(detect_fail)?;
    }
    detector
        .advance_to_into(end, &mut closed)
        .map_err(detect_fail)?;
    let detect_total = t.elapsed();
    let n_ordered = ordered.len();
    let n_windows = closed.len();
    m.put(
        "cep.incremental.ns_per_event",
        "ns",
        ns_per(detect_total, n_ordered),
        n_ordered as u64,
    );
    m.put(
        "cep.incremental.windows_closed",
        "count",
        n_windows as f64,
        n_ordered as u64,
    );
    stages.push(("cep.incremental", ns_per(detect_total, n_ordered)));

    // ---- protect: FlipPlan::apply_window over the closed windows
    let flip = plan.core.pipeline().plan();
    let mut rng = DpRng::seed_from(ShardedService::shard_seed(seed, 0));
    let mut windows: Vec<IndicatorVector> = closed.iter().map(|w| w.presence.clone()).collect();
    let t = Instant::now();
    for window in &mut windows {
        flip.apply_window(window, &mut rng);
    }
    let protect_total = t.elapsed();
    let flipped: u32 = windows
        .iter()
        .zip(&closed)
        .flat_map(|(after, before)| {
            after
                .words()
                .iter()
                .zip(before.presence.words())
                .map(|(a, b)| (a ^ b).count_ones())
        })
        .sum();
    m.put(
        "core.protect.ns_per_window",
        "ns",
        ns_per(protect_total, n_windows),
        n_windows as u64,
    );
    m.put(
        "core.protect.flipped_bits_per_window",
        "count",
        f64::from(flipped) / n_windows.max(1) as f64,
        n_windows as u64,
    );

    // ---- engine: the same partition through StreamingEngine; what is
    // left after the detector and the flips is its self time
    let mut engine =
        StreamingEngine::from_core(plan.core.clone(), StreamingConfig::tumbling(spec.window()))
            .map_err(|e| format!("replay engine: {e}"))?;
    let mut rng = DpRng::seed_from(ShardedService::shard_seed(seed, 0));
    let mut releases = Vec::new();
    let engine_fail = |e| format!("replay engine: {e}");
    let t = Instant::now();
    engine
        .advance_watermark_into(Timestamp::ZERO, &mut rng, &mut releases)
        .map_err(engine_fail)?;
    for event in &ordered {
        engine
            .push_into(event, &mut rng, &mut releases)
            .map_err(engine_fail)?;
    }
    engine
        .advance_watermark_into(end, &mut rng, &mut releases)
        .map_err(engine_fail)?;
    let engine_total = t.elapsed();
    let n_releases = releases.len();
    let self_total = engine_total.saturating_sub(detect_total + protect_total);
    m.put(
        "core.streaming.ns_per_event",
        "ns",
        ns_per(self_total, n_ordered),
        n_ordered as u64,
    );
    m.put(
        "core.streaming.ns_per_release",
        "ns",
        ns_per(engine_total.saturating_sub(detect_total), n_releases),
        n_releases as u64,
    );
    // flips and engine self time, per ingested event of the partition
    stages.push(("core.protect", ns_per(protect_total, n_ordered)));
    stages.push(("core.streaming", ns_per(self_total, n_ordered)));

    // ---- budget: EpochLedger::charge_releases with shard 0's share of
    // the plan's charge schedule, in the per-call runs the service uses
    let mut ledgers: Vec<EpochLedger<PatternId>> = Vec::new();
    let mut schedule: Vec<(usize, PatternId, Epsilon)> = Vec::new();
    let mut owners: Vec<SubjectId> = Vec::new();
    for &(subject, pattern, eps) in &plan.charges {
        if ShardedService::shard_for(subject, spec.n_shards) != 0 {
            continue;
        }
        let slot = match owners.iter().position(|&s| s == subject) {
            Some(slot) => slot,
            None => {
                owners.push(subject);
                ledgers.push(EpochLedger::new());
                owners.len() - 1
            }
        };
        ledgers[slot]
            .register(pattern, eps)
            .map_err(|e| format!("replay ledger: {e}"))?;
        schedule.push((slot, pattern, eps));
    }
    let per_call = n_releases.div_ceil(REPLAY_BATCHES).max(1);
    let t = Instant::now();
    let mut charged = 0usize;
    while charged < n_releases {
        let times = per_call.min(n_releases - charged);
        for &(slot, pattern, eps) in &schedule {
            ledgers[slot]
                .charge_releases(pattern, 0, eps, times)
                .map_err(|e| format!("replay ledger: {e}"))?;
        }
        charged += times;
    }
    let budget_total = t.elapsed();
    m.put(
        "dp.budget.ns_per_release",
        "ns",
        ns_per(budget_total, n_releases),
        n_releases as u64,
    );
    m.put(
        "dp.budget.charges_per_release",
        "count",
        schedule.len() as f64,
        n_releases as u64,
    );
    stages.push(("dp.budget", ns_per(budget_total, n_ordered)));

    // ---- the whole service, inline and parallel, over the same batches
    let mut default_mode: Option<ShardedService> = None;
    for (name, parallel) in [
        ("core.service.inline_ns_per_event", false),
        ("core.service.parallel_ns_per_event", true),
    ] {
        let mut service = spec
            .build_service(seed)
            .map_err(|e| format!("replay build: {e}"))?;
        let deployed = service.is_parallel();
        service.set_parallel(parallel);
        let mut sink = CountingSink::default();
        let input = batches.clone();
        let t = Instant::now();
        for batch in input {
            service
                .push_batch_into(batch, &mut sink)
                .map_err(|e| format!("replay push: {e}"))?;
        }
        service.sync().map_err(|e| format!("replay sync: {e}"))?;
        m.put(name, "ns", ns_per(t.elapsed(), n_events), n_events as u64);
        if service.is_parallel() == deployed {
            default_mode = Some(service);
        }
    }
    let mut service = default_mode.expect("one of the two modes is the deployed one");

    // ---- checkpoint: image, encode, write (on the mid-stream service)
    let image = service
        .checkpoint_into(&mut CountingSink::default())
        .map_err(|e| format!("replay checkpoint: {e}"))?;
    let t = Instant::now();
    let bytes = black_box(image.to_bytes());
    m.put(
        "core.durability.checkpoint_encode_ms",
        "ms",
        ms(t.elapsed()),
        1,
    );
    m.put(
        "core.durability.checkpoint_bytes",
        "bytes",
        bytes.len() as f64,
        1,
    );
    let path = dir.join("layer.ckpt");
    let t = Instant::now();
    write_checkpoint(&path, &image).map_err(|e| format!("replay checkpoint write: {e}"))?;
    m.put(
        "core.durability.checkpoint_write_ms",
        "ms",
        ms(t.elapsed()),
        1,
    );

    // ---- heartbeats on the quiet service, then finish
    let mut sink = VecSink::all();
    let mut heartbeat_ns = Vec::new();
    let mut at = service
        .low_watermark()
        .ok_or("replay service has no watermark")?
        + spec.max_delay();
    for _ in 0..32 {
        at += spec.window();
        let t = Instant::now();
        service
            .advance_watermark_into(at, &mut sink)
            .map_err(|e| format!("replay heartbeat: {e}"))?;
        heartbeat_ns.push(t.elapsed().as_nanos() as u64);
    }
    m.put(
        "core.service.watermark_p50_us",
        "us",
        p50_us(&mut heartbeat_ns),
        heartbeat_ns.len() as u64,
    );
    let t = Instant::now();
    service
        .finish_into(&mut sink)
        .map_err(|e| format!("replay finish: {e}"))?;
    m.put("core.service.finish_ms", "ms", ms(t.elapsed()), 1);

    // ---- WAL: WalWriter alone over the same batches
    let path = dir.join("layer.wal");
    let mut wal = WalWriter::create(&path).map_err(|e| format!("replay wal: {e}"))?;
    let header = wal.offset();
    let mut append = Duration::ZERO;
    let mut sync_ns = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        wal.append_batch(batch)
            .map_err(|e| format!("replay wal append: {e}"))?;
        append += t.elapsed();
        if (i + 1) % 64 == 0 {
            let t = Instant::now();
            wal.sync().map_err(|e| format!("replay wal sync: {e}"))?;
            sync_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    let wal_ns = ns_per(append, n_events);
    m.put(
        "core.durability.wal_append_ns_per_event",
        "ns",
        wal_ns,
        n_events as u64,
    );
    m.put(
        "core.durability.wal_bytes_per_event",
        "bytes",
        (wal.offset() - header) as f64 / n_events as f64,
        n_events as u64,
    );
    m.put(
        "core.durability.wal_sync_p50_ms",
        "ms",
        p50_us(&mut sync_ns) / 1e3,
        sync_ns.len() as u64,
    );
    if spec.wal {
        stages.push(("core.durability.wal", wal_ns));
    }

    // ---- control plane: compile_next after the churn the workload stages
    let mut control = spec.control_plane(seed);
    control
        .compile_initial()
        .map_err(|e| format!("replay control: {e}"))?;
    let mut compile_ns = Vec::new();
    for round in 1..=8 {
        let (subject, pattern) = spec.churn_pattern(round);
        let id = control.register_private_pattern(subject, pattern);
        control
            .revoke_private_pattern(subject, id)
            .map_err(|e| format!("replay control: {e}"))?;
        let t = Instant::now();
        black_box(
            control
                .compile_next()
                .map_err(|e| format!("replay control: {e}"))?,
        );
        compile_ns.push(t.elapsed().as_nanos() as u64);
    }
    m.put(
        "core.control.compile_p50_ms",
        "ms",
        p50_us(&mut compile_ns) / 1e3,
        compile_ns.len() as u64,
    );
    adaptive(spec, seed, &plan, m)?;

    frames(spec, &batches, &sink, m);

    // ---- the instrument itself
    let mut histogram = LatencyHistogram::new();
    const RECORDS: u64 = 1 << 22;
    let t = Instant::now();
    for i in 0..RECORDS {
        histogram.record(black_box(i.wrapping_mul(0x9e37_79b9) & 0xf_ffff));
    }
    black_box(&histogram);
    m.put(
        "metrics.histogram.record_ns",
        "ns",
        ns_per(t.elapsed(), RECORDS as usize),
        RECORDS,
    );

    for path in [dir.join("layer.ckpt"), dir.join("layer.wal")] {
        std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    }
    Ok(stages)
}

/// Algorithm 1 alone: `optimize_all` over (at most) the first sixteen of
/// the workload's private patterns against its history.
fn adaptive(spec: &Spec, seed: u64, plan: &EpochPlan, m: &mut Metrics) -> Result<(), String> {
    let patterns = plan.core.patterns();
    let private: Vec<PatternId> = (0..spec.n_private.min(16) as u32).map(PatternId).collect();
    let targets: Vec<PatternId> = (0..spec.n_queries)
        .map(|q| PatternId((spec.n_private + q) as u32))
        .collect();
    let model = QualityModel::new(spec.history(seed), patterns, &targets, Alpha::HALF)
        .map_err(|e| format!("replay adaptive model: {e}"))?;
    let t = Instant::now();
    black_box(
        optimize_all(
            patterns,
            &private,
            Epsilon::new(1.0).expect("1 is a valid epsilon"),
            &model,
            spec.n_types,
            &AdaptiveConfig::default(),
        )
        .map_err(|e| format!("replay adaptive: {e}"))?,
    );
    m.put(
        "core.adaptive.ms_per_pattern",
        "ms",
        ms(t.elapsed()) / private.len() as f64,
        private.len() as u64,
    );
    Ok(())
}

/// `Frame::encode` / `decode_body` over the workload's `PushBatch` frames
/// and the `DeliverMerged` frames its merged windows make.
fn frames(spec: &Spec, batches: &[Vec<KeyedEvent>], delivered: &VecSink, m: &mut Metrics) {
    let frames: Vec<Frame> = batches
        .iter()
        .take(128)
        .enumerate()
        .map(|(i, events)| Frame::PushBatch {
            seq: i as u64 + 1,
            events: events.clone(),
        })
        .collect();
    let n_events = frames.len() * spec.batch;
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode = t.elapsed();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let t = Instant::now();
    for frame in &encoded {
        // the envelope is length prefix + body + checksum
        black_box(Frame::decode_body(&frame[4..frame.len() - 8]).expect("own encoding decodes"));
    }
    let decode = t.elapsed();
    m.put(
        "server.frame.encode_ns_per_event",
        "ns",
        ns_per(encode, n_events),
        n_events as u64,
    );
    m.put(
        "server.frame.decode_ns_per_event",
        "ns",
        ns_per(decode, n_events),
        n_events as u64,
    );
    m.put(
        "server.frame.bytes_per_event",
        "bytes",
        bytes as f64 / n_events as f64,
        n_events as u64,
    );

    let deliveries: Vec<Frame> = delivered
        .merged
        .iter()
        .map(|r| Frame::DeliverMerged {
            record: MergedRecord {
                index: r.index as u64,
                start: r.start,
                epoch: r.epoch,
                answers_any: r.answers_any.clone(),
                positive_shards: r.positive_shards.iter().map(|&p| p as u64).collect(),
                protected_any: r.protected_any.clone(),
                typed: r
                    .typed_answers()
                    .iter()
                    .map(|(q, a)| (*q, WireAnswer::from(a)))
                    .collect(),
            },
        })
        .collect();
    let rounds = 64;
    let t = Instant::now();
    for _ in 0..rounds {
        for frame in &deliveries {
            black_box(frame.encode());
        }
    }
    m.put(
        "server.frame.deliver_encode_ns",
        "ns",
        ns_per(t.elapsed(), rounds * deliveries.len()),
        (rounds * deliveries.len()) as u64,
    );
}

/// Open-loop event rates of the rate steps; a workload's request rate is
/// the event rate over its batch size, so every workload is probed at
/// the same offered load (1000 / 2500 / 4000 requests/s of 128 events on
/// the edge).
pub const STEP_EVENT_RATES: [u64; 3] = [128_000, 320_000, 512_000];
/// An open-loop step "meets the limit" when its ack p99 stays under this
/// and its backlog does not grow.
const P99_LIMIT_US: f64 = 2000.0;
/// Ack-latency growth over a step, µs per second of schedule, above
/// which the backlog counts as growing.
const SLOPE_LIMIT_US_PER_S: f64 = 50.0;

/// Least-squares slope of ack latency against schedule time, µs/s.
pub fn backlog_slope(run: &OpenLoop) -> f64 {
    let n = run.ack_ns.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let xs = (0..run.ack_ns.len()).map(|j| j as f64 / run.rate_rps as f64);
    let mean_x = xs.clone().sum::<f64>() / n;
    let mean_y = run.ack_ns.iter().map(|&y| f64::from(y) / 1e3).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, &y) in xs.zip(&run.ack_ns) {
        sxy += (x - mean_x) * (f64::from(y) / 1e3 - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
    }
    sxy / sxx
}

/// The served probes: round-trip floor on the idle server, then three
/// open-loop rate steps of `step` each.
pub fn served(
    spec: &Spec,
    pool: &Pool,
    seed: u64,
    step: Duration,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let mut rig = Rig::start(spec, seed, 0)?;
    let mut rtt_ns = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        rig.producer.health().map_err(|e| format!("health: {e}"))?;
        rtt_ns.push(t.elapsed().as_nanos() as u64);
    }
    m.put(
        "server.server.rtt_floor_us",
        "us",
        p50_us(&mut rtt_ns),
        rtt_ns.len() as u64,
    );

    let mut k = 0u64;
    let mut max_ok = 0u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut step_seconds = 0.0;
    for (i, &event_rate) in STEP_EVENT_RATES.iter().enumerate() {
        let rate = event_rate / spec.batch as u64;
        let run = open_loop(&mut rig.producer, pool, k, rate, step);
        k += run.ack_ns.len() as u64;
        attempted += run.ack_ns.len() as u64;
        failed += run.failed;
        step_seconds += run.ack_ns.len() as f64 / rate as f64;
        let n = run.ack_ns.len() as u64;
        let mut acks = run.ack_ns.clone();
        let p50 = f64::from(quantile(&mut acks, 0.5)) / 1e3;
        let p99 = f64::from(quantile(&mut acks, 0.99)) / 1e3;
        let slope = backlog_slope(&run);
        if p99 <= P99_LIMIT_US && slope <= SLOPE_LIMIT_US_PER_S && run.failed == 0 {
            max_ok = rate;
        }
        let tag = match i {
            0 => Some("low"),
            2 => Some("high"),
            _ => None,
        };
        if let Some(tag) = tag {
            m.put(&format!("server.server.ack_p50_us.{tag}"), "us", p50, n);
            m.put(&format!("server.server.ack_p99_us.{tag}"), "us", p99, n);
        }
        if i == 1 {
            let mut late = run.late_ns.clone();
            m.put(
                "server.client.late_p99_us",
                "us",
                f64::from(quantile(&mut late, 0.99)) / 1e3,
                n,
            );
        }
        if i == 2 {
            m.put("server.server.backlog_slope", "us/s", slope, n);
        }
    }
    m.put(
        "server.server.max_ok_rate_rps",
        "1/s",
        max_ok as f64,
        STEP_EVENT_RATES.len() as u64,
    );
    let (ingested, log) = rig.stop()?;
    if ingested != k * spec.batch as u64 || log.out_of_order > 0 {
        return Err(format!(
            "{}: served probes: server ingested {ingested} of {} events, {} deliveries out of order",
            spec.name,
            k * spec.batch as u64,
            log.out_of_order
        ));
    }
    let deliveries = log.merged_at.len() as u64 + log.answers;
    m.put(
        "server.server.deliveries_per_s",
        "1/s",
        deliveries as f64 / step_seconds,
        deliveries,
    );
    Ok((attempted, failed))
}
