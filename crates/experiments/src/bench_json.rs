//! The JSON throughput runner: the start of the measured perf trajectory.
//!
//! `experiments bench-json` drives the full sharded ingestion path (the
//! same workload shape as the criterion bench `benches/sharded.rs`:
//! subject routing, reorder buffering, watermark-driven window release
//! with randomized response, per-subject accounting, cross-shard merge)
//! and the heartbeat-driven release path at 1/4/8 shards, then writes the
//! measured events/s and windows/s to `BENCH_hotpath.json`. Every later
//! perf PR is accountable to this file: rerun it on the same machine and
//! compare.
//!
//! `--smoke` shrinks the workload so CI can validate the runner end to
//! end (the runner re-reads and parses what it wrote before reporting
//! success) without spending bench-grade time.

use std::time::Instant;

use crate::alloc_meter;
use pdp_cep::Pattern;
use pdp_core::{
    quiet_poison_panics, write_checkpoint, CoreError, CountingSink, FaultPlan, KeyedEvent, PpmKind,
    ServiceBuilder, ServiceConfig, ShardedService, StreamingConfig, SubjectId, SupervisorConfig,
    WalWriter,
};
use pdp_dp::{DpRng, Epsilon};
use pdp_metrics::{Alpha, LatencyHistogram};
use pdp_server::{serve, Client, ServerConfig};
use pdp_stream::{Event, EventType, TimeDelta, Timestamp};
use serde::{Deserialize, Serialize};

const N_TYPES: usize = 32;
const N_SUBJECTS: u64 = 256;
const WINDOW: TimeDelta = TimeDelta::from_millis(100);
/// The bounded lateness of every bench service's reorder buffers.
pub const MAX_DELAY: TimeDelta = TimeDelta::from_millis(40);
/// Events per `push_batch` call in every cell but the `--latency` ones.
pub const BATCH: usize = 512;
const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// Batch size of the `--latency` cells. Much smaller than the
/// throughput [`BATCH`]: each push is one timed request/ack round trip,
/// so small batches yield enough samples for tail quantiles (625 acks
/// in full mode) and keep each sample an honest "one client call"
/// latency rather than a half-megabyte bulk transfer.
const LATENCY_BATCH: usize = 32;

/// Window length of the `--alloc` cells: large enough that the whole
/// warmup + measured workload (plus reorder slack) fits inside one open
/// window, so the measured region performs pure ingest — zero window
/// closes, zero release-path work. The release path is allowed to
/// allocate (it produces output); the steady-state ingest path is not.
const ALLOC_WINDOW: TimeDelta = TimeDelta::from_millis(1 << 21);

/// Warmup batches == measured batches per `--alloc` cell (full mode).
/// The warmup segment is shaped identically to the measured one, so
/// every lazily-grown buffer (route scratch, sub-batch pool, reply
/// queue, WAL encode buffer) reaches its high-water mark before the
/// counters start.
const ALLOC_BATCHES_FULL: usize = 48;

/// Warmup/measured batches per `--alloc` cell in smoke mode.
const ALLOC_BATCHES_SMOKE: usize = 4;

/// WAL-on `--alloc` gate: a durable round may cost at most this many
/// allocations per *batch* (per-batch-constant, never per-event). In
/// practice the persistent encode buffer makes it 0 after warmup; the
/// slack absorbs OS-level jitter without letting per-event costs hide.
const ALLOC_WAL_PER_BATCH_CAP: u64 = 8;

/// Knobs of one runner invocation.
#[derive(Debug, Clone)]
pub struct BenchJsonConfig {
    /// Events per ingest measurement.
    pub n_events: usize,
    /// Quiet windows per release measurement.
    pub n_release_windows: usize,
    /// Timed repetitions per cell (the best run is reported).
    pub reps: usize,
    /// Output path.
    pub out: String,
    /// Smoke mode: tiny workload, 1 rep (CI validation).
    pub smoke: bool,
    /// Also measure the `--churn` scenario: ingest throughput under
    /// periodic control-plane epoch transitions (pattern churn +
    /// `begin_epoch` every few batches).
    pub churn: bool,
    /// Also measure the `--sink` scenario: the same ingest workload
    /// delivered through `push_batch_into(sink)` (zero-copy consumer
    /// path, a counting sink) instead of `BatchOutput` accumulation.
    pub sink: bool,
    /// Also emit the `--scaling` summary: ingest events/s per shard
    /// count, the 8-shard/1-shard ratio, the detected core count and
    /// which execution mode each cell actually ran — failing the run if
    /// a multi-shard service silently fell back inline on a multi-core
    /// host.
    pub scaling: bool,
    /// Also measure the `--durability` scenario: the identical ingest
    /// workload with a write-ahead log attached, so the WAL's append
    /// cost on the hot path is a measured number next to the WAL-off
    /// `ingest` cells rather than folklore.
    pub durability: bool,
    /// Also measure the `--recovery` scenario: time-to-heal a poisoned
    /// shard (checkpoint load + WAL-tail replay + state steal) as a
    /// function of the WAL-tail length, and the supervised WAL-retry
    /// machinery's overhead on a run where every batch append fails
    /// transiently once.
    pub recovery: bool,
    /// Also measure the `--alloc` scenario: steady-state ingest under
    /// the counting global allocator ([`crate::alloc_meter`]), at every
    /// shard count with the WAL off and on. The runner *fails* if a
    /// WAL-off cell allocates at all, or a WAL-on cell allocates more
    /// than a per-batch constant — the zero-allocation claim is a gate,
    /// not a footnote. Requires the counting allocator to be installed
    /// (the `experiments` binary installs it; library unit tests do
    /// not, and the self-audit refuses to report meaningless zeros).
    pub alloc: bool,
    /// Also measure the `--latency` scenario: tail latency through the
    /// TCP service edge — the same workload pushed by a real
    /// `pdp-server` client over loopback, recording ingest-ack round
    /// trips and watermark-to-release-delivery times into the in-repo
    /// log-bucketed histogram and reporting p50/p99/p999/max per shard
    /// count. The runner *fails* if a cell's histograms are empty or
    /// its quantiles are not monotone — a zeroed latency table must
    /// never land in the artifact looking like a great result.
    pub latency: bool,
}

impl BenchJsonConfig {
    /// Bench-grade defaults.
    pub fn full() -> Self {
        BenchJsonConfig {
            n_events: 20_000,
            n_release_windows: 100,
            reps: 3,
            out: "BENCH_hotpath.json".to_owned(),
            smoke: false,
            churn: false,
            sink: false,
            scaling: false,
            durability: false,
            recovery: false,
            alloc: false,
            latency: false,
        }
    }

    /// CI smoke mode: exercises every path in a fraction of the time.
    pub fn smoke() -> Self {
        BenchJsonConfig {
            n_events: 2_000,
            n_release_windows: 10,
            reps: 1,
            out: "BENCH_hotpath.json".to_owned(),
            smoke: true,
            churn: false,
            sink: false,
            scaling: false,
            durability: false,
            recovery: false,
            alloc: false,
            latency: false,
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchCell {
    /// Shard count of the service under test.
    pub shards: usize,
    /// Workload units (events or windows) processed per timed run.
    pub units: u64,
    /// Best wall-clock time of the timed runs, milliseconds.
    pub best_ms: f64,
    /// Units per second of the best run.
    pub per_sec: f64,
    /// Churn cells only: cumulative time the best run spent inside
    /// `begin_epoch` — plan compilation + fan-out, measured on a drained
    /// pipeline, so it is exactly the off-hot-path cost and `best_ms`
    /// minus it is the ingest+activation cost. Absent on non-churn cells
    /// and on artifacts written before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub churn_compile_ms: Option<f64>,
}

/// One `--alloc` measurement: heap acquisition of a warmed service's
/// steady-state ingest, counted by the process-global
/// [`crate::alloc_meter`] across *all* threads (shard workers included).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocCell {
    /// Shard count of the service under test.
    pub shards: usize,
    /// Whether a write-ahead log was attached.
    pub wal: bool,
    /// Whether the parallel worker pool actually ran (a 1-core host
    /// runs every cell inline; the `zero_alloc` regression test forces
    /// parallel mode so both paths stay pinned regardless of host).
    pub parallel: bool,
    /// Events pushed in the measured segment.
    pub events: u64,
    /// Allocation calls (`alloc`/`alloc_zeroed`/`realloc`) during the
    /// measured segment, process-wide. The WAL-off gate: exactly 0.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub bytes: u64,
    /// `allocs / events` — the headline number.
    pub allocs_per_event: f64,
    /// `bytes / events`.
    pub bytes_per_event: f64,
}

/// One `--latency` measurement: tail latency through the TCP service
/// edge over loopback. Every sample is a full client round trip — frame
/// encode, socket write, server decode + validate, owner-thread service
/// call, ack encode, socket read — so the numbers are what a real
/// consumer of `pdp-server` would observe, not an in-process lower
/// bound. Quantiles come from [`pdp_metrics::LatencyHistogram`]
/// (log-bucketed, ~2% worst-case relative error, upper-edge reads), so
/// they are conservative: the true quantile is never above the reported
/// one’s bucket edge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyCell {
    /// Shard count of the service under test.
    pub shards: usize,
    /// Whether the parallel worker pool actually ran.
    pub parallel: bool,
    /// Timed ingest round trips (push → ack).
    pub samples: u64,
    /// `Deliver*` frames received across the run (each timed watermark
    /// advance that produced at least one contributes a delivery
    /// sample).
    pub deliveries: u64,
    /// Ingest-ack round-trip quantiles, nanoseconds.
    pub ingest_ack_p50_ns: u64,
    /// See [`LatencyCell::ingest_ack_p50_ns`].
    pub ingest_ack_p99_ns: u64,
    /// See [`LatencyCell::ingest_ack_p50_ns`].
    pub ingest_ack_p999_ns: u64,
    /// Worst observed ingest-ack round trip, nanoseconds (exact).
    pub ingest_ack_max_ns: u64,
    /// Release-delivery quantiles, nanoseconds: watermark send → all
    /// resulting `Deliver*` frames received (deliveries precede the ack
    /// on the wire, so the span covers window close, release, merge,
    /// encode and fan-out).
    pub delivery_p50_ns: u64,
    /// See [`LatencyCell::delivery_p50_ns`].
    pub delivery_p99_ns: u64,
    /// See [`LatencyCell::delivery_p50_ns`].
    pub delivery_p999_ns: u64,
    /// Worst observed delivery span, nanoseconds (exact).
    pub delivery_max_ns: u64,
}

/// Reference throughput of the code *before* a perf PR, for speedup
/// claims: what the same workload measured on the same machine prior to
/// the change.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Where the numbers come from.
    pub note: String,
    /// events/s per shard count, aligned with `ingest` by position.
    pub ingest_per_sec: Vec<f64>,
}

/// The `--scaling` summary: the shard-scaling story in one block, with
/// enough context (cores, execution mode) to judge whether the ratio is a
/// property of the code or of the host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchScaling {
    /// CPU cores the runner detected; shard scaling is only attainable
    /// when this exceeds 1 (a 1-core host serializes the workers).
    pub cores_detected: usize,
    /// Whether the parallel worker pool actually ran, per shard count
    /// (aligned with `ingest_per_sec`). The runner fails instead of
    /// writing `false` for a multi-shard cell on a multi-core host.
    pub parallel: Vec<bool>,
    /// Ingest events/s per shard count (the `ingest` cells' view).
    pub ingest_per_sec: Vec<f64>,
    /// 8-shard over 1-shard ingest throughput — the scaling headline.
    pub ratio_8_over_1: f64,
}

/// One time-to-heal measurement of the `--recovery` scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryCell {
    /// Shard count of the supervised service under test.
    pub shards: usize,
    /// WAL records replayed from the checkpoint's offset during the heal.
    pub wal_tail_records: u64,
    /// Best poison-to-healthy wall-clock time at the sync point
    /// (checkpoint load + WAL-tail replay + shard state steal +
    /// worker respawn), milliseconds.
    pub heal_ms: f64,
}

/// The `--recovery` summary: what supervised self-healing costs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecovery {
    /// Time-to-heal as a function of the WAL-tail length.
    pub heal: Vec<RecoveryCell>,
    /// Transient WAL append failures injected into the retried run (one
    /// per batch, each retried once with zero backoff).
    pub wal_retries: u64,
    /// Best WAL-on ingest time with no injected failures, milliseconds.
    pub ingest_clean_ms: f64,
    /// Best time of the identical run with every batch append failing
    /// once — minus `ingest_clean_ms`, the retry machinery's overhead.
    pub ingest_retried_ms: f64,
}

/// The written artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Artifact name (stable key for trend tooling).
    pub bench: String,
    /// True when produced by the CI smoke mode — numbers are not
    /// bench-grade and must not be compared.
    pub smoke: bool,
    /// Full ingestion path: events/s through `push_batch` + `finish`.
    pub ingest: Vec<BenchCell>,
    /// Release path: aggregate windows/s (summed over shards) released by
    /// heartbeats on a quiet service.
    pub release: Vec<BenchCell>,
    /// Ingest throughput under periodic epoch transitions (the `--churn`
    /// scenario); absent when the runner was invoked without `--churn`,
    /// so artifacts written before the scenario existed keep parsing.
    pub churn: Option<Vec<BenchCell>>,
    /// Ingest throughput through the sink delivery path (the `--sink`
    /// scenario: `push_batch_into` with a counting sink — no
    /// `BatchOutput` accumulation); absent without `--sink`, so earlier
    /// artifacts keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sink: Option<Vec<BenchCell>>,
    /// Shard-scaling summary (the `--scaling` flag); absent on earlier
    /// artifacts, so they keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scaling: Option<BenchScaling>,
    /// WAL-on ingest throughput (the `--durability` scenario) — compare
    /// with `ingest` for the durability overhead; absent without
    /// `--durability`, so earlier artifacts keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub durability: Option<Vec<BenchCell>>,
    /// Self-healing cost summary (the `--recovery` flag): time-to-heal
    /// per WAL-tail length and the WAL-retry overhead; absent on earlier
    /// artifacts, so they keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovery: Option<BenchRecovery>,
    /// Steady-state allocation cells (the `--alloc` scenario): per shard
    /// count, WAL off then on. Present only when the runner was invoked
    /// with `--alloc` under the counting allocator; absent on earlier
    /// artifacts, so they keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub alloc: Option<Vec<AllocCell>>,
    /// Tail-latency cells through the TCP service edge (the `--latency`
    /// scenario): ingest-ack and release-delivery p50/p99/p999 per shard
    /// count. Present only with `--latency`; absent on earlier
    /// artifacts, so they keep parsing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency: Option<Vec<LatencyCell>>,
    /// Pre-overhaul reference on the machine that produced the committed
    /// artifact (`null` in smoke runs — a CI host is a different
    /// machine, so the comparison would be meaningless there).
    pub baseline: Option<BenchBaseline>,
}

/// The pre-overhaul ingest throughput measured with the criterion bench
/// `benches/sharded.rs` (identical workload constants) on the machine
/// that produced the committed `BENCH_hotpath.json`, 2026-07-29, before
/// this PR's hot-path changes.
const BASELINE_MAIN_INGEST: [f64; 3] = [2_130_000.0, 888_940.0, 506_950.0];

fn service(n_shards: usize) -> Result<ShardedService, CoreError> {
    service_with_window(n_shards, WINDOW)
}

fn service_with_window(n_shards: usize, window: TimeDelta) -> Result<ShardedService, CoreError> {
    let mut builder = ServiceBuilder::new(ServiceConfig {
        n_shards,
        n_types: N_TYPES,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(1.0).unwrap(),
        },
        streaming: StreamingConfig::tumbling(window),
        max_delay: MAX_DELAY,
        seed: 1234,
        history_window: 0,
    })?;
    for s in 0..N_SUBJECTS {
        builder.register_subject(SubjectId(s));
        if s % 4 == 0 {
            let a = EventType((s % N_TYPES as u64) as u32);
            let b = EventType(((s + 1) % N_TYPES as u64) as u32);
            builder.register_private_pattern(
                SubjectId(s),
                Pattern::seq(&format!("priv{s}"), vec![a, b]).expect("non-empty pattern"),
            );
        }
    }
    builder.register_target_query("t0?", Pattern::single("t0", EventType(0)));
    builder.register_target_query("t1?", Pattern::single("t1", EventType(1)));
    builder.build()
}

/// The jittered arrival sequence of the criterion sharded bench.
fn arrivals(n_events: usize) -> Vec<KeyedEvent> {
    let mut rng = DpRng::seed_from(99);
    (0..n_events)
        .map(|i| {
            let base = (i as i64) * 3;
            let jitter = rng.below(MAX_DELAY.millis() as usize / 2) as i64;
            KeyedEvent::new(
                SubjectId(rng.below(N_SUBJECTS as usize) as u64),
                Event::new(
                    EventType(rng.below(N_TYPES) as u32),
                    Timestamp::from_millis((base - jitter).max(0)),
                ),
            )
        })
        .collect()
}

fn measure_ingest(
    n_shards: usize,
    events: &[KeyedEvent],
    reps: usize,
) -> Result<BenchCell, CoreError> {
    let proto = service(n_shards)?;
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut svc = proto.clone();
        let start = Instant::now();
        for chunk in events.chunks(BATCH) {
            svc.push_batch(chunk.to_vec())?;
        }
        svc.finish()?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(ms);
    }
    let units = events.len() as u64;
    Ok(BenchCell {
        shards: n_shards,
        units,
        best_ms,
        per_sec: units as f64 / (best_ms / 1e3),
        churn_compile_ms: None,
    })
}

fn measure_release(n_shards: usize, n_windows: usize, reps: usize) -> Result<BenchCell, CoreError> {
    let proto = service(n_shards)?;
    let mut best_ms = f64::INFINITY;
    let mut units = 0u64;
    for _ in 0..reps.max(1) {
        let mut svc = proto.clone();
        let end = Timestamp::from_millis(n_windows as i64 * WINDOW.millis() + MAX_DELAY.millis());
        let start = Instant::now();
        svc.advance_watermark(end)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        units = svc.releases_per_shard().iter().sum::<usize>() as u64;
        best_ms = best_ms.min(ms);
    }
    Ok(BenchCell {
        shards: n_shards,
        units,
        best_ms,
        per_sec: units as f64 / (best_ms / 1e3),
        churn_compile_ms: None,
    })
}

/// The `--sink` scenario: the identical ingest workload as
/// [`measure_ingest`], but delivered through the sink path — every
/// release moves into a [`CountingSink`] instead of being accumulated
/// into a `BatchOutput`. Expected ≥ parity with the legacy cell: the
/// sink drops what the legacy path collects, so release-heavy runs save
/// the output vectors.
fn measure_sink(
    n_shards: usize,
    events: &[KeyedEvent],
    reps: usize,
) -> Result<BenchCell, CoreError> {
    let proto = service(n_shards)?;
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut svc = proto.clone();
        let mut sink = CountingSink::default();
        let start = Instant::now();
        for chunk in events.chunks(BATCH) {
            svc.push_batch_into(chunk.to_vec(), &mut sink)?;
        }
        svc.finish_into(&mut sink)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(sink.shard_releases > 0, "sink run must deliver releases");
        best_ms = best_ms.min(ms);
    }
    let units = events.len() as u64;
    Ok(BenchCell {
        shards: n_shards,
        units,
        best_ms,
        per_sec: units as f64 / (best_ms / 1e3),
        churn_compile_ms: None,
    })
}

/// The `--durability` scenario: the identical ingest workload as
/// [`measure_ingest`], but with a write-ahead log attached, so every
/// batch is length-prefix framed and handed to the OS before any event
/// moves. The delta against the matching `ingest` cell is the price of
/// crash consistency on the hot path.
fn measure_durability(
    n_shards: usize,
    events: &[KeyedEvent],
    reps: usize,
) -> Result<BenchCell, CoreError> {
    let proto = service(n_shards)?;
    let dir = std::env::temp_dir().join(format!("pdp_bench_wal_{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| CoreError::Durability(format!("create {}: {e}", dir.display())))?;
    let wal_path = dir.join(format!("bench_{n_shards}.wal"));
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut svc = proto.clone();
        svc.attach_wal(WalWriter::create(&wal_path)?);
        let start = Instant::now();
        for chunk in events.chunks(BATCH) {
            svc.push_batch(chunk.to_vec())?;
        }
        svc.finish()?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let wal = svc.detach_wal().expect("the WAL stays attached");
        assert!(wal.offset() > 0, "durability run must have logged records");
        best_ms = best_ms.min(ms);
    }
    std::fs::remove_dir_all(&dir).ok();
    let units = events.len() as u64;
    Ok(BenchCell {
        shards: n_shards,
        units,
        best_ms,
        per_sec: units as f64 / (best_ms / 1e3),
        churn_compile_ms: None,
    })
}

/// The `--recovery` scenario, part 1: for several WAL-tail lengths, a
/// supervised service ingests the tail, a scripted poison kills a shard
/// worker mid-round (while it holds the shard lock), and the timed span
/// is exactly the heal at the next sync point — checkpoint load, inline
/// WAL-tail replay, shard state steal, worker respawn. Part 2: the
/// WAL-retry overhead — the identical WAL-on ingest once clean and once
/// with every batch append failing transiently (retried with zero
/// backoff), so the retry machinery's cost is the delta.
fn measure_recovery(reps: usize, smoke: bool) -> Result<BenchRecovery, CoreError> {
    quiet_poison_panics();
    let n_shards = 4;
    let tails: [usize; 3] = if smoke { [1, 2, 4] } else { [4, 16, 64] };
    let dir = std::env::temp_dir().join(format!("pdp_bench_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| CoreError::Durability(format!("create {}: {e}", dir.display())))?;
    let supervisor = |ckpt: &std::path::Path, wal: &std::path::Path| SupervisorConfig {
        checkpoint: Some(ckpt.to_path_buf()),
        wal: Some(wal.to_path_buf()),
        wal_retry_backoff: std::time::Duration::ZERO,
        ..SupervisorConfig::default()
    };

    let mut heal = Vec::new();
    for &tail_batches in &tails {
        let events = arrivals(tail_batches * BATCH);
        let wal_path = dir.join(format!("heal_{tail_batches}.wal"));
        let ckpt_path = dir.join(format!("heal_{tail_batches}.ckpt"));
        let mut best_ms = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let mut svc = service(n_shards)?;
            svc.set_parallel(true);
            svc.attach_wal(WalWriter::create(&wal_path)?);
            let (genesis, _) = svc.checkpoint()?;
            write_checkpoint(&ckpt_path, &genesis)?;
            svc.set_supervisor(supervisor(&ckpt_path, &wal_path));
            // the poison leads the last batch's round, so the whole tail
            // must be replayed by the heal
            svc.inject_faults(FaultPlan::new().poison_shard(1, tail_batches as u64));
            for chunk in events.chunks(BATCH) {
                svc.push_batch(chunk.to_vec())?;
            }
            let start = Instant::now();
            svc.sync()?; // folds the poisoned round: the heal happens here
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                svc.health().all_healthy(),
                "recovery run must end healed, not degraded"
            );
            best_ms = best_ms.min(ms);
        }
        heal.push(RecoveryCell {
            shards: n_shards,
            wal_tail_records: tail_batches as u64,
            heal_ms: best_ms,
        });
    }

    let retry_batches: usize = if smoke { 4 } else { 16 };
    let events = arrivals(retry_batches * BATCH);
    let wal_path = dir.join("retry.wal");
    let ckpt_path = dir.join("retry.ckpt");
    let mut clean_ms = f64::INFINITY;
    let mut retried_ms = f64::INFINITY;
    for retried in [false, true] {
        for _ in 0..reps.max(1) {
            let mut svc = service(n_shards)?;
            svc.attach_wal(WalWriter::create(&wal_path)?);
            let (genesis, _) = svc.checkpoint()?;
            write_checkpoint(&ckpt_path, &genesis)?;
            svc.set_supervisor(supervisor(&ckpt_path, &wal_path));
            if retried {
                // fail the first attempt of every batch append: op k's
                // first attempt is global attempt 2k-1 once each
                // predecessor has failed-then-retried
                let mut plan = FaultPlan::new();
                for k in 0..retry_batches as u64 {
                    plan = plan.fail_wal_append(2 * k + 1);
                }
                svc.inject_faults(plan);
            }
            let start = Instant::now();
            for chunk in events.chunks(BATCH) {
                svc.push_batch(chunk.to_vec())?;
            }
            svc.finish()?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if retried {
                assert_eq!(
                    svc.health().wal_retries,
                    retry_batches as u64,
                    "every batch append must have been retried exactly once"
                );
                retried_ms = retried_ms.min(ms);
            } else {
                clean_ms = clean_ms.min(ms);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(BenchRecovery {
        heal,
        wal_retries: retry_batches as u64,
        ingest_clean_ms: clean_ms,
        ingest_retried_ms: retried_ms,
    })
}

/// The `--alloc` scenario: how much heap a *warmed* service's ingest
/// acquires, counted by the process-global counting allocator.
///
/// The workload runs inside one enormous open window
/// (`ALLOC_WINDOW`, ~35 min), so the measured region is pure steady-state
/// ingest — routing, WAL append (when `wal`), sub-batch partitioning,
/// pipelined shard execution, reorder buffering, open-window updates —
/// with zero window closes and therefore zero legitimate release-path
/// allocation. The warmup segment is shaped identically to the measured
/// one (same batch count, same arrival law), so every lazily-grown
/// buffer hits its high-water mark before the first counter read; both
/// segments' batches are pre-built before warmup so the harness itself
/// allocates nothing inside the measured region.
///
/// `force_parallel` pins the parallel worker pool on even on a 1-core
/// host (the regression test uses it to cover both execution modes);
/// `false` keeps whatever mode the service chose, which is what the
/// committed cells report.
pub fn measure_alloc(
    n_shards: usize,
    wal: bool,
    force_parallel: bool,
    n_batches: usize,
) -> Result<AllocCell, String> {
    measure_alloc_over(
        n_shards,
        wal,
        force_parallel,
        arrivals(2 * n_batches * BATCH),
    )
}

/// [`measure_alloc`] over a caller-built arrival sequence: the first half
/// of `events` warms the service, the second half is measured, both in
/// [`BATCH`]-event batches. Subjects must be below 256 and event types
/// below 32 (the bench service's registered universe — anything else is
/// a typed `UnknownSubject` error, not a silent skip), and the two halves
/// should follow the same arrival law so the warmup reaches every
/// high-water mark the measured half will touch.
pub fn measure_alloc_over(
    n_shards: usize,
    wal: bool,
    force_parallel: bool,
    events: Vec<KeyedEvent>,
) -> Result<AllocCell, String> {
    if !alloc_meter::is_installed() {
        return Err(
            "--alloc needs the counting allocator, which this process did not install \
             as #[global_allocator]; run through the `experiments` binary or the \
             zero_alloc test harness"
                .to_owned(),
        );
    }
    let n_batches = events.len() / (2 * BATCH);
    // the whole run (plus reorder slack) must fit inside the one open
    // window
    let last = events.iter().map(|k| k.event.ts).max();
    assert!(
        n_batches > 0 && last.is_some_and(|ts| ts + MAX_DELAY < Timestamp::ZERO + ALLOC_WINDOW),
        "alloc workload must fill a batch per half and stay inside a single open window"
    );
    let mut svc = service_with_window(n_shards, ALLOC_WINDOW).map_err(|e| e.to_string())?;
    if force_parallel {
        svc.set_parallel(true);
    }
    let dir = std::env::temp_dir().join(format!("pdp_bench_alloc_{}", std::process::id()));
    if wal {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let wal_path = dir.join(format!("alloc_{n_shards}.wal"));
        svc.attach_wal(WalWriter::create(&wal_path).map_err(|e| e.to_string())?);
    }
    // pre-chunk both segments: the measured loop moves prebuilt batches,
    // it never clones slices
    let mut warmup: Vec<Vec<KeyedEvent>> = events
        .chunks_exact(BATCH)
        .take(2 * n_batches)
        .map(<[KeyedEvent]>::to_vec)
        .collect();
    let measured = warmup.split_off(n_batches);
    for batch in warmup {
        svc.push_batch(batch).map_err(|e| e.to_string())?;
    }
    svc.sync().map_err(|e| e.to_string())?;
    let parallel = svc.is_parallel();
    // diagnostic rerun support: PDP_ALLOC_TRAP=1 prints the backtrace of
    // the first measured-region allocation (see `alloc_meter`)
    let trap = std::env::var_os("PDP_ALLOC_TRAP").is_some();
    let before = alloc_meter::counters();
    if trap {
        alloc_meter::trap_next_alloc();
    }
    for batch in measured {
        svc.push_batch(batch).map_err(|e| e.to_string())?;
    }
    svc.sync().map_err(|e| e.to_string())?;
    let delta = alloc_meter::counters().since(before);
    alloc_meter::clear_trap();
    drop(svc);
    if wal {
        std::fs::remove_dir_all(&dir).ok();
    }
    let events = (n_batches * BATCH) as u64;
    Ok(AllocCell {
        shards: n_shards,
        wal,
        parallel,
        events,
        allocs: delta.allocs,
        bytes: delta.bytes,
        allocs_per_event: delta.allocs as f64 / events as f64,
        bytes_per_event: delta.bytes as f64 / events as f64,
    })
}

/// The gate [`run_bench_json`] applies to every `--alloc` cell (also
/// used by CI and the `zero_alloc` regression test): WAL-off steady
/// state must acquire **no** heap at all; WAL-on may cost at most a
/// small per-batch constant, never a per-event one.
pub fn check_alloc_cell(cell: &AllocCell, n_batches: usize) -> Result<(), String> {
    if !cell.wal && cell.allocs != 0 {
        return Err(format!(
            "zero-allocation gate failed: {} shard(s), WAL off, steady-state ingest \
             performed {} allocations ({} bytes) over {} events",
            cell.shards, cell.allocs, cell.bytes, cell.events
        ));
    }
    if cell.wal && cell.allocs > ALLOC_WAL_PER_BATCH_CAP * n_batches as u64 {
        return Err(format!(
            "WAL-on allocation gate failed: {} shard(s) allocated {} times over {} \
             batches (cap {ALLOC_WAL_PER_BATCH_CAP} per batch) — a per-event cost is hiding",
            cell.shards, cell.allocs, n_batches
        ));
    }
    Ok(())
}

/// The `--latency` scenario: the ingest workload of the throughput
/// cells, but served through the real TCP edge (`pdp_server::serve` on
/// an ephemeral loopback port, a real `Client` on the other side) and
/// measured as *per-request* latency instead of aggregate throughput.
///
/// Each [`LATENCY_BATCH`]-event push is one timed round trip into the
/// ingest-ack histogram. After every push the client advances the
/// watermark to the batch's last event time; that round trip is timed
/// too, and — because release deliveries are written to a subscribed
/// connection *before* the ack of the frame that caused them — the span
/// covers window close, noisy release, cross-shard merge, wire encode
/// and fan-out. Watermark advances that release nothing (the reorder
/// slack keeps windows open past their end time) record no delivery
/// sample, so the delivery histogram holds only spans that did the
/// work it claims to measure.
fn measure_latency(n_shards: usize, n_events: usize) -> Result<LatencyCell, String> {
    let svc = service(n_shards).map_err(|e| e.to_string())?;
    let parallel = svc.is_parallel();
    let handle = serve(svc, &ServerConfig::default()).map_err(|e| e.to_string())?;
    let run = || -> Result<(LatencyHistogram, LatencyHistogram, u64), String> {
        fn err<E: std::fmt::Display>(stage: &'static str) -> impl Fn(E) -> String {
            move |e| format!("latency {stage}: {e}")
        }
        let mut client = Client::connect(handle.addr(), "bench-latency").map_err(err("connect"))?;
        client
            .subscribe(true, false, true)
            .map_err(err("subscribe"))?;
        let mut ingest_ack = LatencyHistogram::new();
        let mut delivery = LatencyHistogram::new();
        let mut deliveries = 0u64;
        for chunk in arrivals(n_events).chunks(LATENCY_BATCH) {
            let horizon = chunk.iter().map(|e| e.event.ts).max().expect("non-empty");
            let start = Instant::now();
            client.push_batch(chunk.to_vec()).map_err(err("push"))?;
            ingest_ack.record(start.elapsed().as_nanos() as u64);
            let start = Instant::now();
            client
                .advance_watermark(horizon)
                .map_err(err("watermark"))?;
            let span = start.elapsed().as_nanos() as u64;
            let released = client.take_deliveries().len() as u64;
            if released > 0 {
                delivery.record(span);
                deliveries += released;
            }
        }
        client.shutdown().map_err(err("shutdown"))?;
        Ok((ingest_ack, delivery, deliveries))
    };
    let result = run();
    // join unconditionally: a measurement error must not leak the
    // server threads (and on success the port must be released before
    // the next cell binds its own)
    let svc = handle.join();
    let (ingest_ack, delivery, deliveries) = result?;
    if svc.events_ingested() != n_events as u64 {
        return Err(format!(
            "latency run ingested {} of {n_events} events — acks lied",
            svc.events_ingested()
        ));
    }
    Ok(LatencyCell {
        shards: n_shards,
        parallel,
        samples: ingest_ack.len(),
        deliveries,
        ingest_ack_p50_ns: ingest_ack.quantile(0.50),
        ingest_ack_p99_ns: ingest_ack.quantile(0.99),
        ingest_ack_p999_ns: ingest_ack.quantile(0.999),
        ingest_ack_max_ns: ingest_ack.max(),
        delivery_p50_ns: delivery.quantile(0.50),
        delivery_p99_ns: delivery.quantile(0.99),
        delivery_p999_ns: delivery.quantile(0.999),
        delivery_max_ns: delivery.max(),
    })
}

/// The gate [`run_bench_json`] applies to every `--latency` cell: both
/// histograms must hold real samples and the reported quantiles must be
/// monotone (p50 ≤ p99 ≤ p999 ≤ max) with a non-zero floor. A latency
/// table of zeros is indistinguishable from a perfect result to a
/// reader, so producing one fails the run instead.
pub fn check_latency_cell(cell: &LatencyCell) -> Result<(), String> {
    let check = |what: &str, n: u64, p50: u64, p99: u64, p999: u64, max: u64| {
        if n == 0 || p50 == 0 {
            return Err(format!(
                "latency gate failed: {} shard(s) {what} histogram is empty or zeroed \
                 ({n} samples, p50 {p50} ns)",
                cell.shards
            ));
        }
        if p50 > p99 || p99 > p999 || p999 > max {
            return Err(format!(
                "latency gate failed: {} shard(s) {what} quantiles are not monotone \
                 (p50 {p50} / p99 {p99} / p999 {p999} / max {max} ns)",
                cell.shards
            ));
        }
        Ok(())
    };
    check(
        "ingest-ack",
        cell.samples,
        cell.ingest_ack_p50_ns,
        cell.ingest_ack_p99_ns,
        cell.ingest_ack_p999_ns,
        cell.ingest_ack_max_ns,
    )?;
    check(
        "release-delivery",
        cell.deliveries,
        cell.delivery_p50_ns,
        cell.delivery_p99_ns,
        cell.delivery_p999_ns,
        cell.delivery_max_ns,
    )
}

/// The `--churn` scenario: the same ingest workload, but every few
/// batches one tenant registers a fresh private pattern, the previous
/// churn pattern is revoked, and `begin_epoch` recompiles + fans out the
/// plan — measuring what periodic control-plane reconfiguration costs the
/// ingest hot path.
fn measure_churn(
    n_shards: usize,
    events: &[KeyedEvent],
    reps: usize,
) -> Result<BenchCell, CoreError> {
    let proto = service(n_shards)?;
    let n_batches = events.len().div_ceil(BATCH);
    // ~5 transitions per run regardless of workload size
    let period = (n_batches / 5).max(1);
    let mut best_ms = f64::INFINITY;
    let mut best_compile_ms = 0.0;
    for _ in 0..reps.max(1) {
        let mut svc = proto.clone();
        let mut last_churn_pid = None;
        let mut step = 0u32;
        let mut compile_ms = 0.0;
        let start = Instant::now();
        for (b, chunk) in events.chunks(BATCH).enumerate() {
            if b > 0 && b % period == 0 {
                let churner = SubjectId(1); // a registered, pattern-less tenant
                let a = EventType(step % N_TYPES as u32);
                let z = EventType((step + 3) % N_TYPES as u32);
                let pid = svc.register_private_pattern(
                    churner,
                    Pattern::seq(&format!("churn{step}"), vec![a, z]).expect("non-empty pattern"),
                );
                if let Some(old) = last_churn_pid.replace(pid) {
                    svc.revoke_private_pattern(churner, old)?;
                }
                // drain the pipeline first so the timed span is exactly
                // the service-thread plan compile + fan-out, not shard
                // work that happened to be in flight
                svc.sync()?;
                let compile_start = Instant::now();
                svc.begin_epoch()?.expect("commands staged");
                compile_ms += compile_start.elapsed().as_secs_f64() * 1e3;
                step += 1;
            }
            svc.push_batch(chunk.to_vec())?;
        }
        svc.finish()?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
            best_compile_ms = compile_ms;
        }
    }
    let units = events.len() as u64;
    Ok(BenchCell {
        shards: n_shards,
        units,
        best_ms,
        per_sec: units as f64 / (best_ms / 1e3),
        churn_compile_ms: Some(best_compile_ms),
    })
}

/// Run every cell, write the report, then re-read and parse it (the CI
/// validation: a malformed artifact fails the run, not a later consumer).
pub fn run_bench_json(config: &BenchJsonConfig) -> Result<BenchReport, String> {
    let events = arrivals(config.n_events);
    let mut ingest = Vec::new();
    let mut release = Vec::new();
    let mut churn = config.churn.then(Vec::new);
    let mut sink = config.sink.then(Vec::new);
    let mut durability = config.durability.then(Vec::new);
    let mut alloc = config.alloc.then(Vec::new);
    let mut latency = config.latency.then(Vec::new);
    let alloc_batches = if config.smoke {
        ALLOC_BATCHES_SMOKE
    } else {
        ALLOC_BATCHES_FULL
    };
    for &n_shards in &SHARD_COUNTS {
        eprintln!(
            "bench-json: ingest @ {n_shards} shard(s), {} events…",
            events.len()
        );
        ingest.push(measure_ingest(n_shards, &events, config.reps).map_err(|e| e.to_string())?);
        eprintln!(
            "bench-json: release @ {n_shards} shard(s), {} windows…",
            config.n_release_windows
        );
        release.push(
            measure_release(n_shards, config.n_release_windows, config.reps)
                .map_err(|e| e.to_string())?,
        );
        if let Some(cells) = churn.as_mut() {
            eprintln!(
                "bench-json: churn ingest @ {n_shards} shard(s), {} events…",
                events.len()
            );
            cells.push(measure_churn(n_shards, &events, config.reps).map_err(|e| e.to_string())?);
        }
        if let Some(cells) = sink.as_mut() {
            eprintln!(
                "bench-json: sink ingest @ {n_shards} shard(s), {} events…",
                events.len()
            );
            cells.push(measure_sink(n_shards, &events, config.reps).map_err(|e| e.to_string())?);
        }
        if let Some(cells) = durability.as_mut() {
            eprintln!(
                "bench-json: WAL-on ingest @ {n_shards} shard(s), {} events…",
                events.len()
            );
            cells.push(
                measure_durability(n_shards, &events, config.reps).map_err(|e| e.to_string())?,
            );
        }
        if let Some(cells) = alloc.as_mut() {
            for wal in [false, true] {
                eprintln!(
                    "bench-json: alloc-tracked ingest @ {n_shards} shard(s), WAL {}, \
                     {} warmup + {} measured batches…",
                    if wal { "on" } else { "off" },
                    alloc_batches,
                    alloc_batches
                );
                let cell = measure_alloc(n_shards, wal, false, alloc_batches)?;
                // gate immediately: a failed cell fails the whole run
                check_alloc_cell(&cell, alloc_batches)?;
                cells.push(cell);
            }
        }
        if let Some(cells) = latency.as_mut() {
            eprintln!(
                "bench-json: TCP-edge latency @ {n_shards} shard(s), {} events in \
                 {LATENCY_BATCH}-event round trips…",
                config.n_events
            );
            let cell = measure_latency(n_shards, config.n_events)?;
            // gate immediately: a zeroed or non-monotone cell fails the run
            check_latency_cell(&cell)?;
            cells.push(cell);
        }
    }
    let recovery = if config.recovery {
        eprintln!("bench-json: recovery (time-to-heal vs WAL tail, retry overhead)…");
        Some(measure_recovery(config.reps, config.smoke).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let scaling = if config.scaling {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut parallel = Vec::new();
        for &n_shards in &SHARD_COUNTS {
            let svc = service(n_shards).map_err(|e| e.to_string())?;
            let is_parallel = svc.is_parallel();
            if cores > 1 && n_shards > 1 && !is_parallel {
                return Err(format!(
                    "scaling self-check failed: the {n_shards}-shard service ran \
                     inline on a {cores}-core host — the parallel path silently degraded"
                ));
            }
            parallel.push(is_parallel);
        }
        let ingest_per_sec: Vec<f64> = ingest.iter().map(|c| c.per_sec).collect();
        let ratio_8_over_1 = ingest_per_sec[SHARD_COUNTS.len() - 1] / ingest_per_sec[0];
        Some(BenchScaling {
            cores_detected: cores,
            parallel,
            ingest_per_sec,
            ratio_8_over_1,
        })
    } else {
        None
    };
    let baseline = (!config.smoke).then(|| BenchBaseline {
        note: "unmodified main before the hot-path overhaul: criterion bench \
               `sharded` (same workload constants), same machine, 2026-07-29"
            .to_owned(),
        ingest_per_sec: BASELINE_MAIN_INGEST.to_vec(),
    });
    let report = BenchReport {
        bench: "hotpath".to_owned(),
        smoke: config.smoke,
        ingest,
        release,
        churn,
        sink,
        scaling,
        durability,
        recovery,
        alloc,
        latency,
        baseline,
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&config.out, &json).map_err(|e| format!("write {}: {e}", config.out))?;
    // validate: what landed on disk must parse back into the same shape
    let on_disk =
        std::fs::read_to_string(&config.out).map_err(|e| format!("re-read {}: {e}", config.out))?;
    let parsed: BenchReport = serde_json::from_str(&on_disk)
        .map_err(|e| format!("{} is not valid JSON: {e}", config.out))?;
    if parsed.ingest.len() != SHARD_COUNTS.len() || parsed.release.len() != SHARD_COUNTS.len() {
        return Err(format!("{} round-trip lost cells", config.out));
    }
    if config.churn
        && parsed
            .churn
            .as_ref()
            .is_none_or(|cells| cells.len() != SHARD_COUNTS.len())
    {
        return Err(format!("{} round-trip lost churn cells", config.out));
    }
    if config.sink
        && parsed
            .sink
            .as_ref()
            .is_none_or(|cells| cells.len() != SHARD_COUNTS.len())
    {
        return Err(format!("{} round-trip lost sink cells", config.out));
    }
    if config.scaling
        && parsed
            .scaling
            .as_ref()
            .is_none_or(|s| s.ingest_per_sec.len() != SHARD_COUNTS.len())
    {
        return Err(format!(
            "{} round-trip lost the scaling summary",
            config.out
        ));
    }
    if config.durability
        && parsed
            .durability
            .as_ref()
            .is_none_or(|cells| cells.len() != SHARD_COUNTS.len())
    {
        return Err(format!("{} round-trip lost durability cells", config.out));
    }
    if config.recovery && parsed.recovery.as_ref().is_none_or(|r| r.heal.is_empty()) {
        return Err(format!("{} round-trip lost recovery cells", config.out));
    }
    if config.alloc
        && parsed
            .alloc
            .as_ref()
            .is_none_or(|cells| cells.len() != 2 * SHARD_COUNTS.len())
    {
        return Err(format!("{} round-trip lost alloc cells", config.out));
    }
    if config.latency
        && parsed
            .latency
            .as_ref()
            .is_none_or(|cells| cells.len() != SHARD_COUNTS.len())
    {
        return Err(format!("{} round-trip lost latency cells", config.out));
    }
    eprintln!("wrote {} (validated)", config.out);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_writes_valid_json() {
        let mut config = BenchJsonConfig::smoke();
        // even smaller than CI smoke: this is a unit test
        config.n_events = 300;
        config.n_release_windows = 3;
        let dir = std::env::temp_dir().join("pdp_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        config.out = dir
            .join("BENCH_hotpath.json")
            .to_string_lossy()
            .into_owned();
        let report = run_bench_json(&config).expect("runner succeeds");
        assert!(report.smoke);
        assert_eq!(report.ingest.len(), 3);
        assert_eq!(report.release.len(), 3);
        assert!(report.churn.is_none(), "churn is opt-in");
        assert!(report.sink.is_none(), "sink is opt-in");
        assert!(report.scaling.is_none(), "scaling is opt-in");
        assert!(report.durability.is_none(), "durability is opt-in");
        assert!(report.recovery.is_none(), "recovery is opt-in");
        assert!(report.alloc.is_none(), "alloc is opt-in");
        assert!(report.latency.is_none(), "latency is opt-in");
        for cell in report.ingest.iter().chain(&report.release) {
            assert!(cell.per_sec.is_finite() && cell.per_sec > 0.0);
            assert!(cell.units > 0);
        }
        // the artifact parses as plain serde_json too
        let raw = std::fs::read_to_string(&config.out).unwrap();
        let value: serde_json::Value = serde_json::from_str(&raw).unwrap();
        assert_eq!(value.get("bench").and_then(|b| b.as_str()), Some("hotpath"));
        std::fs::remove_file(&config.out).ok();
    }

    #[test]
    fn churn_cells_measure_epoch_transitions() {
        let mut config = BenchJsonConfig::smoke();
        config.n_events = 2_100; // > 4 batches so the churn period fires
        config.n_release_windows = 3;
        config.churn = true;
        let dir = std::env::temp_dir().join("pdp_bench_json_churn_test");
        std::fs::create_dir_all(&dir).unwrap();
        config.out = dir
            .join("BENCH_hotpath.json")
            .to_string_lossy()
            .into_owned();
        let report = run_bench_json(&config).expect("runner succeeds");
        let churn = report.churn.expect("churn cells requested");
        assert_eq!(churn.len(), SHARD_COUNTS.len());
        for (cell, &shards) in churn.iter().zip(&SHARD_COUNTS) {
            assert_eq!(cell.shards, shards);
            assert!(cell.per_sec.is_finite() && cell.per_sec > 0.0);
            assert_eq!(cell.units, 2_100);
            let compile_ms = cell
                .churn_compile_ms
                .expect("churn cells attribute compile time");
            assert!(
                compile_ms.is_finite() && compile_ms >= 0.0 && compile_ms < cell.best_ms,
                "compile time is a fraction of the run: {compile_ms} vs {}",
                cell.best_ms
            );
        }
        std::fs::remove_file(&config.out).ok();
    }

    #[test]
    fn scaling_summary_reports_mode_and_ratio() {
        let mut config = BenchJsonConfig::smoke();
        config.n_events = 300;
        config.n_release_windows = 3;
        config.scaling = true;
        let dir = std::env::temp_dir().join("pdp_bench_json_scaling_test");
        std::fs::create_dir_all(&dir).unwrap();
        config.out = dir
            .join("BENCH_hotpath.json")
            .to_string_lossy()
            .into_owned();
        let report = run_bench_json(&config).expect("runner succeeds");
        let scaling = report.scaling.expect("scaling summary requested");
        assert!(scaling.cores_detected >= 1);
        assert_eq!(scaling.parallel.len(), SHARD_COUNTS.len());
        assert_eq!(scaling.ingest_per_sec.len(), SHARD_COUNTS.len());
        assert!(!scaling.parallel[0], "1-shard always runs inline");
        if scaling.cores_detected > 1 {
            assert!(
                scaling.parallel[1..].iter().all(|&p| p),
                "multi-shard cells must run parallel on a multi-core host"
            );
        }
        assert!(scaling.ratio_8_over_1.is_finite() && scaling.ratio_8_over_1 > 0.0);
        std::fs::remove_file(&config.out).ok();
    }

    #[test]
    fn latency_cells_measure_the_tcp_edge() {
        // one cell directly (the full runner spins 3 servers; a unit
        // test needs one) — the measured path is identical
        let cell = measure_latency(2, 1_000).expect("latency run succeeds");
        check_latency_cell(&cell).expect("fresh cell passes its own gate");
        assert_eq!(cell.shards, 2);
        assert_eq!(cell.samples, (1_000usize.div_ceil(LATENCY_BATCH)) as u64);
        assert!(cell.deliveries > 0, "the run must close windows");
        // loopback TCP round trips are microseconds at least; a
        // nanosecond-scale p50 means the clock never ran
        assert!(cell.ingest_ack_p50_ns > 1_000);
        assert!(cell.delivery_p50_ns > 1_000);
    }

    #[test]
    fn latency_gate_rejects_zeroed_and_non_monotone_cells() {
        let good = measure_latency(1, 200).expect("latency run succeeds");
        let mut zeroed = good.clone();
        zeroed.ingest_ack_p50_ns = 0;
        assert!(check_latency_cell(&zeroed).is_err(), "zeroed p50 must fail");
        let mut empty = good.clone();
        empty.deliveries = 0;
        assert!(
            check_latency_cell(&empty).is_err(),
            "no deliveries must fail"
        );
        let mut inverted = good;
        inverted.delivery_p99_ns = inverted.delivery_p999_ns + 1;
        assert!(
            check_latency_cell(&inverted).is_err(),
            "non-monotone quantiles must fail"
        );
    }

    #[test]
    fn sink_cells_measure_sink_delivery() {
        let mut config = BenchJsonConfig::smoke();
        config.n_events = 600;
        config.n_release_windows = 3;
        config.sink = true;
        let dir = std::env::temp_dir().join("pdp_bench_json_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        config.out = dir
            .join("BENCH_hotpath.json")
            .to_string_lossy()
            .into_owned();
        let report = run_bench_json(&config).expect("runner succeeds");
        let sink = report.sink.expect("sink cells requested");
        assert_eq!(sink.len(), SHARD_COUNTS.len());
        for (cell, &shards) in sink.iter().zip(&SHARD_COUNTS) {
            assert_eq!(cell.shards, shards);
            assert!(cell.per_sec.is_finite() && cell.per_sec > 0.0);
            assert_eq!(cell.units, 600);
        }
        std::fs::remove_file(&config.out).ok();
    }

    #[test]
    fn durability_cells_measure_wal_on_ingest() {
        let mut config = BenchJsonConfig::smoke();
        config.n_events = 600;
        config.n_release_windows = 3;
        config.durability = true;
        let dir = std::env::temp_dir().join("pdp_bench_json_durability_test");
        std::fs::create_dir_all(&dir).unwrap();
        config.out = dir
            .join("BENCH_hotpath.json")
            .to_string_lossy()
            .into_owned();
        let report = run_bench_json(&config).expect("runner succeeds");
        let durability = report.durability.expect("durability cells requested");
        assert_eq!(durability.len(), SHARD_COUNTS.len());
        for (cell, &shards) in durability.iter().zip(&SHARD_COUNTS) {
            assert_eq!(cell.shards, shards);
            assert!(cell.per_sec.is_finite() && cell.per_sec > 0.0);
            assert_eq!(cell.units, 600);
        }
        std::fs::remove_file(&config.out).ok();
    }

    #[test]
    fn recovery_summary_measures_heal_and_retries() {
        let mut config = BenchJsonConfig::smoke();
        config.n_events = 300;
        config.n_release_windows = 3;
        config.recovery = true;
        let dir = std::env::temp_dir().join("pdp_bench_json_recovery_test");
        std::fs::create_dir_all(&dir).unwrap();
        config.out = dir
            .join("BENCH_hotpath.json")
            .to_string_lossy()
            .into_owned();
        let report = run_bench_json(&config).expect("runner succeeds");
        let recovery = report.recovery.expect("recovery summary requested");
        assert_eq!(recovery.heal.len(), 3, "three WAL-tail lengths");
        let mut last_tail = 0;
        for cell in &recovery.heal {
            assert!(cell.heal_ms.is_finite() && cell.heal_ms >= 0.0);
            assert!(cell.wal_tail_records > last_tail, "tails grow");
            last_tail = cell.wal_tail_records;
        }
        assert!(recovery.wal_retries > 0);
        assert!(recovery.ingest_clean_ms.is_finite() && recovery.ingest_clean_ms > 0.0);
        assert!(recovery.ingest_retried_ms.is_finite() && recovery.ingest_retried_ms > 0.0);
        std::fs::remove_file(&config.out).ok();
    }

    /// The committed artifact (written before the churn, sink and
    /// durability scenarios existed) must keep parsing under the
    /// extended schema.
    #[test]
    fn legacy_artifact_without_churn_still_parses() {
        let legacy = r#"{"bench":"hotpath","smoke":true,
            "ingest":[{"shards":1,"units":10,"best_ms":1.0,"per_sec":10000.0}],
            "release":[{"shards":1,"units":5,"best_ms":1.0,"per_sec":5000.0}],
            "baseline":null}"#;
        let parsed: BenchReport = serde_json::from_str(legacy).expect("legacy schema parses");
        assert!(parsed.churn.is_none());
        assert!(parsed.sink.is_none());
        assert!(parsed.scaling.is_none());
        assert!(parsed.durability.is_none());
        assert!(parsed.recovery.is_none());
        assert!(parsed.alloc.is_none());
        assert!(parsed.baseline.is_none());
        assert!(parsed.ingest[0].churn_compile_ms.is_none());
    }

    /// Library unit-test binaries do not install the counting allocator,
    /// so `--alloc` must refuse to run instead of reporting zeros that
    /// mean "nobody was counting". (The positive path — real counting,
    /// real gating — lives in the `zero_alloc` integration test, whose
    /// binary does install it.)
    #[test]
    fn alloc_cells_refuse_to_run_without_the_counting_allocator() {
        let err = measure_alloc(1, false, false, 1).unwrap_err();
        assert!(
            err.contains("counting allocator"),
            "self-audit must name the missing allocator: {err}"
        );
    }
}
