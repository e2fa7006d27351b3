//! The zero-allocation steady-state regression test.
//!
//! This binary installs the counting global allocator and pins the
//! warmed ingest path at **zero** heap acquisition per event — in
//! inline mode, in (forced) parallel mode, over disordered input that
//! drives every tier of the reorder buffers, and per-batch-constant with
//! a write-ahead log attached. Everything lives in one `#[test]` so the
//! process-global counters are never polluted by a concurrently running
//! sibling test.

use pdp_core::{KeyedEvent, SubjectId};
use pdp_experiments::alloc_meter::{self, CountingAlloc};
use pdp_experiments::bench_json::{
    check_alloc_cell, measure_alloc, measure_alloc_over, BATCH, MAX_DELAY,
};
use pdp_stream::{Event, EventType, ReorderBuffer, Timestamp};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
