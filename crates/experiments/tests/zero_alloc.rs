//! The zero-allocation steady-state regression test.
//!
//! This binary installs the counting global allocator and pins the
//! warmed ingest path at **zero** heap acquisition per event — in
//! inline mode, in (forced) parallel mode, over disordered input that
//! drives every tier of the reorder buffers, and per-batch-constant with
//! a write-ahead log attached. Everything lives in one `#[test]` so the
//! process-global counters are never polluted by a concurrently running
//! sibling test.

use pdp_cep::Pattern;
use pdp_core::{
    CoreError, KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig, ShardedService, StreamingConfig,
    SubjectId, WalWriter,
};
use pdp_dp::{DpRng, Epsilon};
use pdp_experiments::alloc_meter::{self, CountingAlloc};
use pdp_metrics::Alpha;
use pdp_stream::{Event, EventType, ReorderBuffer, TimeDelta, Timestamp};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N_TYPES: usize = 32;
const N_SUBJECTS: u64 = 256;
/// The bounded lateness of the measured service's reorder buffers.
const MAX_DELAY: TimeDelta = TimeDelta::from_millis(40);
/// Events per `push_batch` call.
const BATCH: usize = 512;

/// Window length of the measured service: large enough that the whole
/// warmup + measured workload (plus reorder slack) fits inside one open
/// window, so the measured region performs pure ingest — zero window
/// closes, zero release-path work. The release path is allowed to
/// allocate (it produces output); the steady-state ingest path is not.
const ALLOC_WINDOW: TimeDelta = TimeDelta::from_millis(1 << 21);

/// WAL-on gate: a durable round may cost at most this many allocations
/// per *batch* (per-batch-constant, never per-event). In practice the
/// persistent encode buffer makes it 0 after warmup; the slack absorbs
/// OS-level jitter without letting per-event costs hide.
const ALLOC_WAL_PER_BATCH_CAP: u64 = 8;

/// One measurement: heap acquisition of a warmed service's steady-state
/// ingest, counted by the process-global [`alloc_meter`] across *all*
/// threads (shard workers included).
struct AllocCell {
    /// Shard count of the service under test.
    shards: usize,
    /// Whether a write-ahead log was attached.
    wal: bool,
    /// Whether the parallel worker pool actually ran (a 1-core host
    /// runs multi-shard services inline unless the test forces parallel
    /// mode, so both paths stay pinned regardless of host).
    parallel: bool,
    /// Events pushed in the measured segment.
    events: u64,
    /// Allocation calls (`alloc`/`alloc_zeroed`/`realloc`) during the
    /// measured segment, process-wide. The WAL-off gate: exactly 0.
    allocs: u64,
    /// Bytes those allocations requested.
    bytes: u64,
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

/// A seeded jittered arrival sequence: one event per 3 ms, up to half
/// the lateness bound late.
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

/// How much heap a *warmed* service's ingest acquires, counted by the
/// process-global counting allocator.
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
/// host (so both execution modes are covered); `false` keeps whatever
/// mode the service chose.
fn measure_alloc(
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
/// below 32 (the measured service's registered universe — anything else is
/// a typed `UnknownSubject` error, not a silent skip), and the two halves
/// should follow the same arrival law so the warmup reaches every
/// high-water mark the measured half will touch.
fn measure_alloc_over(
    n_shards: usize,
    wal: bool,
    force_parallel: bool,
    events: Vec<KeyedEvent>,
) -> Result<AllocCell, String> {
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
    let dir = std::env::temp_dir().join(format!("pdp_zero_alloc_{}", std::process::id()));
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
    Ok(AllocCell {
        shards: n_shards,
        wal,
        parallel,
        events: (n_batches * BATCH) as u64,
        allocs: delta.allocs,
        bytes: delta.bytes,
    })
}

/// The gate on a cell: WAL-off steady state must acquire **no** heap at
/// all; WAL-on may cost at most a small per-batch constant, never a
/// per-event one.
fn check_alloc_cell(cell: &AllocCell, n_batches: usize) -> Result<(), String> {
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

const N_BATCHES: usize = 4;

/// A dense, disordered arrival law: 16 events per millisecond (hundreds
/// pending per shard under the 40 ms bound), and in every 64 arrivals a
/// quarter jittered 2 ms back (a short shift inside the reorder run), one
/// sent 35 ms back (hundreds of slots — past the run's shift limit, into
/// its side heap) and one sent 60 ms back (beyond the bound: dropped).
/// The period divides the batch size, so the warmup and measured halves
/// are the same shape slot for slot.
fn disordered_arrivals(n_events: usize) -> Vec<KeyedEvent> {
    (0..n_events)
        .map(|i| {
            let base = (i / 16) as i64;
            let late = match i % 64 {
                7 => 35,
                23 => 60,
                k if k % 4 == 1 => 2,
                _ => 0,
            };
            KeyedEvent::new(
                SubjectId((i % 61) as u64),
                Event::new(
                    EventType((i % 8) as u32),
                    Timestamp::from_millis((base - late).max(0)),
                ),
            )
        })
        .collect()
}

#[test]
fn steady_state_ingest_acquires_no_heap() {
    assert!(
        alloc_meter::is_installed(),
        "the self-audit probe must see the counting allocator"
    );

    // inline mode: a 1-shard service always executes on the caller
    let inline = measure_alloc(1, false, false, N_BATCHES).expect("inline cell");
    assert!(!inline.parallel, "1-shard services run inline");
    assert_eq!(
        inline.allocs, 0,
        "inline steady-state ingest allocated {} times ({} bytes) over {} events",
        inline.allocs, inline.bytes, inline.events
    );

    // parallel mode, forced on regardless of host cores: the partition /
    // submit / reply / fold loop across worker threads must be just as
    // allocation-free as the inline path
    let parallel = measure_alloc(4, false, true, N_BATCHES).expect("parallel cell");
    assert!(parallel.parallel, "set_parallel(true) must stick");
    assert_eq!(
        parallel.allocs, 0,
        "parallel steady-state ingest allocated {} times ({} bytes) over {} events",
        parallel.allocs, parallel.bytes, parallel.events
    );

    // out-of-order input: the run's shift path, its side heap and the
    // late-drop path are inside the gate too, in both execution modes
    let disordered = disordered_arrivals(2 * N_BATCHES * BATCH);
    // the law is what its docs say: it drops, and a 35 ms displacement
    // passes ~7/8 of what is pending — far over 64 slots even per shard
    let mut buffer = ReorderBuffer::new(MAX_DELAY);
    let mut released = Vec::new();
    let mut pending_peak = 0;
    for keyed in &disordered {
        buffer.push_into(keyed.event.clone(), &mut released);
        pending_peak = pending_peak.max(buffer.pending());
    }
    assert!(buffer.dropped() > 0, "the law must produce late drops");
    assert!(
        pending_peak > 4 * 128,
        "pending per shard must dwarf the shift limit"
    );
    for (shards, force_parallel) in [(1, false), (4, true)] {
        let cell = measure_alloc_over(shards, false, force_parallel, disordered.clone())
            .expect("disordered cell");
        assert_eq!(cell.parallel, force_parallel);
        assert_eq!(
            cell.allocs, 0,
            "{shards}-shard steady-state ingest of disordered input allocated {} times \
             ({} bytes) over {} events",
            cell.allocs, cell.bytes, cell.events
        );
    }

    // durable ingest: the persistent WAL encode buffer bounds a round at
    // a small per-batch constant (0 after warmup in practice), never a
    // per-event cost
    let durable = measure_alloc(4, true, true, N_BATCHES).expect("durable cell");
    check_alloc_cell(&durable, N_BATCHES).expect("WAL-on per-batch gate");

    // the shared gate agrees with the raw assertions above
    check_alloc_cell(&inline, N_BATCHES).expect("inline gate");
    check_alloc_cell(&parallel, N_BATCHES).expect("parallel gate");
}
