//! The loopback rig: `serve` over a workload's service, one producer
//! connection and one pure-subscriber connection, an open-loop sender
//! that times every ack from the instant its request was due, and a
//! closed-loop sender for throughput.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdp_server::{serve, Client, Frame, ServerConfig, ServerHandle};

use crate::gen::{Pool, WatermarkMirror};
use crate::inproc::{MainOutcome, Segment, SEGMENTS};
use crate::sink::{fold_merged, DigestSink, FNV_OFFSET};
use crate::spec::{Spec, EDGE_RATE_RPS};

/// What the subscriber connection saw.
pub struct SubscriberLog {
    /// Receipt instant of every `DeliverMerged`, by window index order.
    pub merged_at: Vec<Instant>,
    pub answers: u64,
    pub out_of_order: u64,
    /// Digest of the merged windows below the rig's `digest_limit`.
    pub digest: u64,
}

/// A served workload with its two client connections.
pub struct Rig {
    handle: ServerHandle,
    pub producer: Client,
    subscriber: JoinHandle<SubscriberLog>,
    pub parallel: bool,
}

impl Rig {
    /// Build the service, bind, connect both clients, subscribe. This is
    /// everything `setup_s` covers on the edge.
    pub fn start(spec: &Spec, seed: u64, digest_limit: u64) -> Result<Rig, String> {
        let service = spec
            .build_service(seed)
            .map_err(|e| format!("edge build: {e}"))?;
        let parallel = service.is_parallel();
        let handle =
            serve(service, &ServerConfig::default()).map_err(|e| format!("edge bind: {e}"))?;
        let producer = Client::connect(handle.addr(), "bench-producer")
            .map_err(|e| format!("producer connect: {e}"))?;
        let mut sub = Client::connect(handle.addr(), "bench-subscriber")
            .map_err(|e| format!("subscriber connect: {e}"))?;
        sub.subscribe(false, true, true)
            .map_err(|e| format!("subscribe: {e}"))?;
        // a round trip on the same connection: the subscription is
        // applied before the producer's first push can be
        sub.health().map_err(|e| format!("subscriber sync: {e}"))?;
        let subscriber = std::thread::Builder::new()
            .name("bench-subscriber".to_owned())
            .spawn(move || subscriber_loop(sub, digest_limit))
            .map_err(|e| format!("subscriber thread: {e}"))?;
        Ok(Rig {
            handle,
            producer,
            subscriber,
            parallel,
        })
    }

    /// Graceful shutdown: returns the server's lifetime event count and
    /// the subscriber's log; every thread is joined.
    pub fn stop(mut self) -> Result<(u64, SubscriberLog), String> {
        let ingested = self
            .producer
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(self.handle.join());
        let log = self
            .subscriber
            .join()
            .map_err(|_| "subscriber thread panicked".to_owned())?;
        Ok((ingested, log))
    }
}

/// Block in `read_raw` until the server closes the connection.
fn subscriber_loop(mut client: Client, digest_limit: u64) -> SubscriberLog {
    let mut log = SubscriberLog {
        merged_at: Vec::with_capacity(1 << 16),
        answers: 0,
        out_of_order: 0,
        digest: FNV_OFFSET,
    };
    while let Ok(frame) = client.read_raw() {
        match frame {
            Frame::DeliverMerged { record } => {
                let now = Instant::now();
                if record.index != log.merged_at.len() as u64 {
                    log.out_of_order += 1;
                }
                log.merged_at.push(now);
                if record.index < digest_limit {
                    log.digest = fold_merged(
                        log.digest,
                        record.index,
                        record.start.millis(),
                        record.epoch,
                        &record.answers_any,
                        record.positive_shards.iter().copied(),
                        record.protected_any.words(),
                    );
                }
            }
            Frame::DeliverAnswer { .. } => log.answers += 1,
            _ => {}
        }
    }
    log
}

/// Digest the first `limit` merged windows of the in-process run of the
/// same schedule (single producer, so the served run is deterministic).
pub fn inproc_digest(spec: &Spec, pool: &Pool, seed: u64, limit: u64) -> Result<u64, String> {
    let mut service = spec
        .build_service(seed)
        .map_err(|e| format!("replay build: {e}"))?;
    let mut sink = DigestSink {
        merged_limit: limit,
        ..DigestSink::default()
    };
    let mut k = 0u64;
    while sink.merged < limit {
        service
            .push_batch_into(pool.batch(k), &mut sink)
            .map_err(|e| format!("replay push: {e}"))?;
        k += 1;
    }
    Ok(sink.merged_digest)
}

/// Merged windows the first `batches` batches are certain to release.
pub fn windows_after(spec: &Spec, pool: &Pool, batches: u64) -> u64 {
    let mut mirror = WatermarkMirror::new(spec);
    (0..batches)
        .map(|k| mirror.observe(pool, k))
        .last()
        .unwrap_or(0) as u64
}

/// One open-loop run.
pub struct OpenLoop {
    pub start: Instant,
    pub rate_rps: u64,
    /// Per request, in schedule order: ack receipt minus due instant.
    pub ack_ns: Vec<u32>,
    /// Per request: how late the generator sent it once it could — after
    /// the later of its due instant and the previous ack (waiting for a
    /// slow ack is the server's doing and sits in `ack_ns`).
    pub late_ns: Vec<u32>,
    pub failed: u64,
}

impl OpenLoop {
    pub fn due(&self, j: u64) -> Instant {
        self.start + Duration::from_nanos(j * 1_000_000_000 / self.rate_rps)
    }
}

/// Send pool batches `k0..` on a fixed schedule of `rate_rps` requests
/// per second for `duration`, one request outstanding: a request whose
/// predecessor's ack is late is sent late, and its ack is still timed from
/// the instant it was due.
pub fn open_loop(
    producer: &mut Client,
    pool: &Pool,
    k0: u64,
    rate_rps: u64,
    duration: Duration,
) -> OpenLoop {
    let n = (duration.as_secs_f64() * rate_rps as f64) as u64;
    let mut run = OpenLoop {
        start: Instant::now(),
        rate_rps,
        ack_ns: Vec::with_capacity(n as usize),
        late_ns: Vec::with_capacity(n as usize),
        failed: 0,
    };
    let mut free_at = run.start;
    for j in 0..n {
        let batch = pool.batch(k0 + j);
        let due = run.due(j);
        // sleep to just short of the due instant, then yield in a loop:
        // the timer slack of a plain sleep would otherwise sit in every
        // sample, and a plain spin would starve the server when both
        // share a CPU
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(150) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        }
        let sent = Instant::now();
        if let Err(e) = producer.push_batch(batch) {
            eprintln!("open-loop push {j} failed: {e}");
            run.failed += 1;
        }
        let acked = Instant::now();
        run.late_ns
            .push((sent - due.max(free_at)).as_nanos() as u32);
        run.ack_ns.push((acked - due).as_nanos() as u32);
        free_at = acked;
    }
    run
}

/// One closed-loop segment.
pub struct ClosedSegment {
    pub events: u64,
    pub span: Duration,
    pub gen: Duration,
    pub failed: u64,
    pub requests: u64,
}

/// Push `group` consecutive pool batches per request, back to back, for
/// `duration`; advances `k`.
pub fn closed_loop(
    producer: &mut Client,
    pool: &Pool,
    k: &mut u64,
    group: u64,
    duration: Duration,
) -> ClosedSegment {
    let mut seg = ClosedSegment {
        events: 0,
        span: Duration::ZERO,
        gen: Duration::ZERO,
        failed: 0,
        requests: 0,
    };
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        if t0 >= start + duration {
            break;
        }
        let mut batch = pool.batch(*k);
        for g in 1..group {
            batch.extend(pool.batch(*k + g));
        }
        *k += group;
        seg.events += batch.len() as u64;
        seg.gen += t0.elapsed();
        seg.requests += 1;
        if let Err(e) = producer.push_batch(batch) {
            eprintln!("closed-loop push failed: {e}");
            seg.failed += 1;
        }
    }
    seg.span = start.elapsed();
    seg
}

/// Pool batches the delivery digest check covers (the merged windows
/// they are certain to release are compared with an in-process run).
const CHECK_BATCHES: u64 = 1000;
/// Pool batches per closed-loop request (512 events).
const CLOSED_GROUP: u64 = 4;

/// The `edge` workload's timed run. Phase A (60 % of `seconds`): open
/// loop at [`EDGE_RATE_RPS`], event time equal to schedule time, ack and
/// release latency taken from due instants. Phase B (40 %): closed loop.
/// Each phase is one warm-up and five measured segments; segment `i` of
/// the result pairs phase A's latencies with phase B's throughput.
pub fn run(spec: &Spec, pool: &Pool, seed: u64, seconds: f64) -> Result<MainOutcome, String> {
    assert_eq!(
        spec.batch_us as u64 * EDGE_RATE_RPS,
        1_000_000,
        "event time must equal schedule time"
    );
    let digest_limit = windows_after(spec, pool, CHECK_BATCHES);
    let mut rig = Rig::start(spec, seed, digest_limit)?;
    let parallel = rig.parallel;

    let open = open_loop(
        &mut rig.producer,
        pool,
        0,
        EDGE_RATE_RPS,
        Duration::from_secs_f64(seconds * 0.6),
    );
    let n_open = open.ack_ns.len() as u64;
    if n_open < CHECK_BATCHES {
        return Err(format!(
            "{}: phase A sent {n_open} requests, the delivery check needs {CHECK_BATCHES}",
            spec.name
        ));
    }
    let mut k = n_open;
    let mut closed = Vec::with_capacity(SEGMENTS + 1);
    for _ in 0..=SEGMENTS {
        closed.push(closed_loop(
            &mut rig.producer,
            pool,
            &mut k,
            CLOSED_GROUP,
            Duration::from_secs_f64(seconds * 0.4 / (SEGMENTS + 1) as f64),
        ));
    }
    let (ingested, log) = rig.stop()?;

    let sent_events = k * spec.batch as u64;
    if ingested != sent_events {
        return Err(format!(
            "{}: server ingested {ingested} events, {sent_events} were acked",
            spec.name
        ));
    }
    if log.out_of_order > 0 {
        return Err(format!(
            "{}: {} merged windows out of index order",
            spec.name, log.out_of_order
        ));
    }
    let want = inproc_digest(spec, pool, seed, digest_limit)?;
    if log.digest != want {
        return Err(format!(
            "{}: delivery digest {:016x} over the first {digest_limit} merged windows differs \
             from the in-process run's {want:016x}",
            spec.name, log.digest
        ));
    }

    // window w is releasable when the first request whose batch moves the
    // global low watermark to window_end(w) is due; event time equals
    // schedule time, so that is window_end(w) + max_delay on the schedule
    let mut mirror = WatermarkMirror::new(spec);
    let mut releasable: Vec<Instant> = Vec::with_capacity(log.merged_at.len());
    for j in 0..n_open {
        let closed = mirror.observe(pool, j);
        releasable.resize(closed, open.due(j));
    }
    let per_segment = n_open / (SEGMENTS as u64 + 1);
    let mut segments: Vec<Segment> = closed
        .iter()
        .skip(1)
        .map(|c| Segment {
            events: c.events,
            span: c.span,
            gen: c.gen,
            ack_ns: Vec::new(),
            release_ns: Vec::new(),
        })
        .collect();
    for (i, segment) in segments.iter_mut().enumerate() {
        let first = (i as u64 + 1) * per_segment;
        let (from, to) = (open.due(first), open.due(first + per_segment));
        segment.ack_ns = open.ack_ns[first as usize..(first + per_segment) as usize].to_vec();
        // (windows released by phase B's requests have no schedule)
        for (&at, &due) in log.merged_at.iter().zip(&releasable) {
            if due >= from && due < to {
                segment
                    .release_ns
                    .push(at.saturating_duration_since(due).as_nanos() as u32);
            }
        }
    }

    let requests: u64 = closed.iter().map(|c| c.requests).sum();
    Ok(MainOutcome {
        segments,
        parallel,
        batches: k,
        attempted: n_open + requests,
        failed: open.failed + closed.iter().map(|c| c.failed).sum::<u64>(),
        merged: log.merged_at.len() as u64,
        deliveries: log.merged_at.len() as u64 + log.answers,
        late_ns: open.late_ns,
        ..MainOutcome::default()
    })
}
