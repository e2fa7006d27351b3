//! The in-process timed run: a closed loop of `push_batch_into` calls over
//! one warm-up and five measured segments, with the workload's churn and
//! checkpoint schedule on the same thread.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pdp_core::{write_checkpoint, CoreError, ReleaseSink, ShardedService, WalWriter};

use crate::gen::{Pool, WatermarkMirror};
use crate::sink::BenchSink;
use crate::spec::Spec;
use crate::trace::Trace;

/// Measured segments per timed run (after one untimed warm-up segment).
pub const SEGMENTS: usize = 5;

/// One measured segment.
#[derive(Default)]
pub struct Segment {
    pub events: u64,
    pub span: Duration,
    /// Time the generator spent materialising batches inside `span`.
    pub gen: Duration,
    /// Per-call durations (the producer's ack latency), nanoseconds.
    pub ack_ns: Vec<u32>,
    /// Releasable-to-delivered latencies of merged windows, nanoseconds.
    pub release_ns: Vec<u32>,
}

impl Segment {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.span.as_secs_f64()
    }
}

/// What a timed run produced.
#[derive(Default)]
pub struct MainOutcome {
    pub segments: Vec<Segment>,
    pub parallel: bool,
    pub batches: u64,
    pub attempted: u64,
    pub failed: u64,
    pub epoch_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub finish_ms: f64,
    pub shard_releases: u64,
    pub merged: u64,
    pub deliveries: u64,
    /// How late the open-loop generator sent each request (edge only).
    pub late_ns: Vec<u32>,
}

/// A WAL that rotates at every checkpoint, so a long run's disk use is
/// bounded by one checkpoint interval.
pub struct Durable {
    dir: PathBuf,
    tag: &'static str,
    generation: u32,
}

impl Durable {
    /// Attach generation 0 of the log to `service`.
    pub fn attach(
        dir: &Path,
        tag: &'static str,
        service: &mut ShardedService,
    ) -> Result<Self, CoreError> {
        let durable = Durable {
            dir: dir.to_path_buf(),
            tag,
            generation: 0,
        };
        service.attach_wal(WalWriter::create(&durable.wal_path())?);
        Ok(durable)
    }

    pub fn wal_path(&self) -> PathBuf {
        self.dir
            .join(format!("{}-{}.wal", self.tag, self.generation))
    }

    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(format!("{}.ckpt", self.tag))
    }

    /// Start a fresh log generation, image the service against it
    /// (`checkpoint_into` + `write_checkpoint`, the timed part), then
    /// delete the generation the image made redundant. Returns the image
    /// time in milliseconds.
    pub fn checkpoint<S: ReleaseSink>(
        &mut self,
        service: &mut ShardedService,
        sink: &mut S,
    ) -> Result<f64, CoreError> {
        let old = self.wal_path();
        self.generation += 1;
        drop(service.attach_wal(WalWriter::create(&self.wal_path())?));
        let start = Instant::now();
        let image = service.checkpoint_into(sink)?;
        write_checkpoint(&self.checkpoint_path(), &image)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::fs::remove_file(&old)
            .map_err(|e| CoreError::Durability(format!("remove {}: {e}", old.display())))?;
        Ok(ms)
    }
}

/// Stage one pattern churn round and run the epoch transition; returns
/// the `begin_epoch` wall time in milliseconds.
pub fn churn_epoch(
    spec: &Spec,
    service: &mut ShardedService,
    round: usize,
) -> Result<f64, CoreError> {
    let (subject, pattern) = spec.churn_pattern(round);
    let id = service.register_private_pattern(subject, pattern);
    service.revoke_private_pattern(subject, id)?;
    let start = Instant::now();
    service.begin_epoch()?;
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// Run the workload in-process for `seconds` (one sixth of it warm-up).
/// With a trace, every call into the service is recorded as a span.
pub fn run(
    spec: &Spec,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    dir: &Path,
    mut trace: Option<&mut Trace>,
) -> Result<MainOutcome, String> {
    let fail = |what: &str, e: CoreError| format!("{}: {what}: {e}", spec.name);
    let mut service = spec.build_service(seed).map_err(|e| fail("build", e))?;
    let mut durable = if spec.wal {
        Some(Durable::attach(dir, "main", &mut service).map_err(|e| fail("wal", e))?)
    } else {
        None
    };
    let mut sink = BenchSink::new(spec.n_shards, trace.is_some());
    let mut mirror = WatermarkMirror::new(spec);
    let segment_len = Duration::from_secs_f64(seconds / (SEGMENTS + 1) as f64);

    let mut out = MainOutcome {
        segments: Vec::with_capacity(SEGMENTS),
        parallel: service.is_parallel(),
        ..MainOutcome::default()
    };
    let mut k = 0u64;
    for index in 0..=SEGMENTS {
        let mut segment = Segment {
            ack_ns: Vec::with_capacity(1 << 17),
            ..Segment::default()
        };
        let start = Instant::now();
        let deadline = start + segment_len;
        loop {
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            let batch = pool.batch(k);
            let closed = mirror.observe(pool, k);
            let n = batch.len() as u64;
            let t1 = Instant::now();
            sink.mark_releasable(closed, t1);
            out.attempted += 1;
            if let Err(e) = service.push_batch_into(batch, &mut sink) {
                eprintln!("{}: push {k} failed: {e}", spec.name);
                out.failed += 1;
            }
            let t2 = Instant::now();
            segment.gen += t1 - t0;
            segment.ack_ns.push((t2 - t1).as_nanos() as u32);
            segment.events += n;
            if let Some(trace) = trace.as_deref_mut() {
                trace.span(k, "bench.gen", "", t0, t1, n);
                trace.span(k, "service.push", "", t1, t2, n);
                if let Some((first, ns, count)) = sink.take_call() {
                    let end = first + Duration::from_nanos(ns);
                    trace.span(k, "sink.deliver", "service.push", first, end, count);
                }
            }
            k += 1;
            if spec.churn_every > 0 && k.is_multiple_of(spec.churn_every as u64) {
                let t = Instant::now();
                out.attempted += 1;
                match churn_epoch(spec, &mut service, (k / spec.churn_every as u64) as usize) {
                    Ok(ms) => out.epoch_ms.push(ms),
                    Err(e) => {
                        eprintln!("{}: epoch transition failed: {e}", spec.name);
                        out.failed += 1;
                    }
                }
                if let Some(trace) = trace.as_deref_mut() {
                    trace.span(k, "service.begin_epoch", "", t, Instant::now(), 1);
                }
            }
            if let Some(durable) = durable.as_mut() {
                if spec.checkpoint_every > 0 && k.is_multiple_of(spec.checkpoint_every as u64) {
                    let t = Instant::now();
                    out.attempted += 1;
                    match durable.checkpoint(&mut service, &mut sink) {
                        Ok(ms) => out.checkpoint_ms.push(ms),
                        Err(e) => {
                            eprintln!("{}: checkpoint failed: {e}", spec.name);
                            out.failed += 1;
                        }
                    }
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.span(k, "service.checkpoint", "", t, Instant::now(), 1);
                    }
                }
            }
        }
        // close the segment: pipelined work is charged to the segment
        // that submitted it
        let t = Instant::now();
        service.sync().map_err(|e| fail("sync", e))?;
        let end = Instant::now();
        if let Some(trace) = trace.as_deref_mut() {
            trace.span(k, "service.sync", "", t, end, 1);
        }
        segment.span = end - start;
        segment.release_ns = std::mem::replace(&mut sink.release_ns, Vec::with_capacity(1 << 16));
        if index > 0 {
            out.segments.push(segment);
        }
    }

    // drain, close, and check the run against what the generator knows
    let t = Instant::now();
    service
        .finish_into(&mut sink)
        .map_err(|e| fail("finish", e))?;
    out.finish_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(trace) = trace {
        trace.span(k, "service.finish", "", t, Instant::now(), 1);
    }
    out.batches = k;
    out.shard_releases = sink.shard_releases;
    out.merged = sink.merged;
    out.deliveries = sink.shard_releases + sink.merged + sink.answers;

    let dropped = service.dropped();
    if dropped != pool.expected_drops(k) {
        return Err(format!(
            "{}: {dropped} late drops after {k} batches, the generator expects {}",
            spec.name,
            pool.expected_drops(k)
        ));
    }
    let windows = mirror.windows_at_finish();
    if sink.merged != windows || sink.shard_releases != windows * spec.n_shards as u64 {
        return Err(format!(
            "{}: {} merged / {} shard releases delivered, the stream holds {windows} windows x {} shards",
            spec.name, sink.merged, sink.shard_releases, spec.n_shards
        ));
    }
    if sink.out_of_order > 0 {
        return Err(format!(
            "{}: {} deliveries out of window order",
            spec.name, sink.out_of_order
        ));
    }
    if out.failed == 0 && service.events_ingested() != k * spec.batch as u64 {
        return Err(format!(
            "{}: service ingested {} events, {} were pushed",
            spec.name,
            service.events_ingested(),
            k * spec.batch as u64
        ));
    }
    Ok(out)
}
