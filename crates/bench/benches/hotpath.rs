//! Microbenches for the two core hot-path claims of the overhaul:
//!
//! * **randomized response**: the legacy scalar `FlipTable::apply_window`
//!   (one `f64` Bernoulli per protected type) vs. the precompiled
//!   word-parallel `FlipPlan` (integer-threshold draws, whole 64-bit flip
//!   masks per probability class);
//! * **indicator matching**: per-call `match_indicator` (walks the
//!   pattern's distinct types) vs. precompiled `match_mask`
//!   (word-level subset test);
//! * **subject routing**: the retired per-event `HashMap` route probe
//!   vs. the dense interned [`RouteTable`] lookup (one bounds check +
//!   one load) that replaced it on the sharded ingest path;
//! * **reorder buffer**: [`ReorderBuffer::push_into`] per event over four
//!   arrival orders — in order, in-bound jitter (every arrival a
//!   `push_back` or a short shift), 10 % displaced + 2 % late at 16
//!   events/ms (some arrivals reach the side heap), and adversarial
//!   (every arrival lands mid-run behind ≥ 4 096 pending events: a failed
//!   64-slot scan plus a heap push and pop each) — so the worst case has
//!   a number next to the common one.
//!
//! Run with: `cargo bench -p pdp-bench --bench hotpath`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::HashMap;
use std::hint::black_box;

use pdp_cep::{match_indicator, match_mask, Pattern};
use pdp_core::{FlipTable, RouteTable, SubjectId};
use pdp_dp::{DpRng, Epsilon, FlipProb};
use pdp_stream::{
    Event, EventType, IndicatorVector, ReorderBuffer, TimeDelta, Timestamp, TypeMask,
};

const N_TYPES: usize = 128;
const WINDOWS: u64 = 1_000;

/// Routed subjects in the route-lookup bench (densely interned ids, the
/// shape registration produces).
const ROUTED: u64 = 4096;

/// Route probes per bench iteration.
const PROBES: usize = 1024;

/// Arrivals per reorder bench iteration.
const ARRIVALS: usize = 16_384;

/// Events pending before the first adversarial arrival.
const ADVERSARIAL_PENDING: i64 = 4_096;

/// A flip table protecting half the universe across three probability
/// classes (the shape overlapping private patterns produce).
fn table() -> FlipTable {
    let mut table = FlipTable::identity(N_TYPES);
    let probs = [
        FlipProb::from_epsilon(Epsilon::new(0.5).unwrap()),
        FlipProb::from_epsilon(Epsilon::new(1.0).unwrap()),
        FlipProb::from_epsilon(Epsilon::new(2.0).unwrap()),
    ];
    for i in 0..N_TYPES / 2 {
        let ty = EventType((i * 2) as u32);
        table.set_prob(ty, probs[i % probs.len()]).unwrap();
    }
    table
}

fn window() -> IndicatorVector {
    IndicatorVector::from_present((0..N_TYPES as u32).step_by(5).map(EventType), N_TYPES)
}

fn bench_flip_paths(c: &mut Criterion) {
    let table = table();
    let plan = table.plan();
    let base = window();
    let mut group = c.benchmark_group("flip_window");
    group.throughput(Throughput::Elements(WINDOWS));
    group.bench_function(BenchmarkId::from_parameter("scalar"), |b| {
        let mut rng = DpRng::seed_from(1);
        b.iter(|| {
            let mut hits = 0usize;
            for _ in 0..WINDOWS {
                let mut w = base.clone();
                table.apply_window(black_box(&mut w), &mut rng);
                hits += w.count_present();
            }
            black_box(hits)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("plan"), |b| {
        let mut rng = DpRng::seed_from(1);
        b.iter(|| {
            let mut hits = 0usize;
            for _ in 0..WINDOWS {
                let mut w = base.clone();
                plan.apply_window(black_box(&mut w), &mut rng);
                hits += w.count_present();
            }
            black_box(hits)
        });
    });
    group.finish();
}

fn bench_match_paths(c: &mut Criterion) {
    // a mid-sized conjunction over types the window mostly contains
    let pattern = Pattern::seq(
        "p",
        vec![EventType(0), EventType(5), EventType(10), EventType(60)],
    )
    .unwrap();
    let mask: TypeMask = pattern.type_mask(N_TYPES);
    let windows: Vec<IndicatorVector> = (0..64)
        .map(|k| {
            let mut w = window();
            // half the windows miss one conjunct
            if k % 2 == 0 {
                w.set(EventType(60), false);
            } else {
                w.set(EventType(60), true);
            }
            w
        })
        .collect();
    let mut group = c.benchmark_group("match_window");
    group.throughput(Throughput::Elements(windows.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("pattern_walk"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for w in &windows {
                hits += match_indicator(black_box(&pattern), black_box(w)) as usize;
            }
            black_box(hits)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("mask"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for w in &windows {
                hits += match_mask(black_box(&mask), black_box(w)) as usize;
            }
            black_box(hits)
        });
    });
    group.finish();
}

fn bench_route_lookup(c: &mut Criterion) {
    let n_shards = 8u32;
    let mut map: HashMap<SubjectId, u32> = HashMap::new();
    let mut table = RouteTable::new();
    for id in 0..ROUTED {
        let shard = (id % u64::from(n_shards)) as u32;
        map.insert(SubjectId(id), shard);
        table.insert(SubjectId(id), shard);
    }
    // a fixed pseudo-random probe stream over the routed id range, so
    // both probes chase the same (cache-hostile) access pattern
    let probes: Vec<SubjectId> = (0..PROBES as u64)
        .map(|i| SubjectId(i.wrapping_mul(2_654_435_761) % ROUTED))
        .collect();
    let mut group = c.benchmark_group("route_lookup");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("hashmap"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &s in &probes {
                acc += u64::from(map.get(black_box(&s)).copied().unwrap());
            }
            black_box(acc)
        });
    });
    group.bench_function(BenchmarkId::from_parameter("dense_table"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &s in &probes {
                acc += u64::from(table.lookup(black_box(s)).unwrap());
            }
            black_box(acc)
        });
    });
    group.finish();
}

/// One reorder cell: arrival times relative to the iteration's origin
/// (the first `prefill` of them are set-up, not counted as throughput)
/// and the buffer's lateness bound.
struct ReorderShape {
    name: &'static str,
    delay: i64,
    prefill: usize,
    arrivals: Vec<i64>,
}

fn reorder_shapes() -> Vec<ReorderShape> {
    let mut rng = DpRng::seed_from(7);
    let in_order = (0..ARRIVALS as i64).collect();
    // the `sparse` benchmark shape (and `bench-json`'s): ~3 ms per event,
    // up to 20 ms of jitter under a 40 ms bound
    let jitter = (0..ARRIVALS as i64)
        .map(|i| 3 * i - rng.below(20) as i64)
        .collect();
    // the `dense` benchmark shape: 16 events per ms (~640 pending under
    // the 40 ms bound), a tenth displaced anywhere inside the bound, 2 %
    // beyond it
    let displaced = (0..ARRIVALS as i64)
        .map(|i| {
            let clock = i / 16;
            match rng.below(100) {
                0..=9 => clock - 1 - rng.below(39) as i64,
                10..=11 => clock - 41 - rng.below(40) as i64,
                _ => clock,
            }
        })
        .collect();
    // nothing is released before the flush (the bound covers the whole
    // iteration), the prefill leaves ADVERSARIAL_PENDING events in the
    // run, and every arrival then belongs in its older half — at least
    // 2 048 slots from the tail
    let adversarial = (0..ADVERSARIAL_PENDING)
        .chain((0..ARRIVALS).map(|_| rng.below(ADVERSARIAL_PENDING as usize / 2) as i64))
        .collect();
    vec![
        ReorderShape {
            name: "in_order",
            delay: 40,
            prefill: 0,
            arrivals: in_order,
        },
        ReorderShape {
            name: "jitter",
            delay: 40,
            prefill: 0,
            arrivals: jitter,
        },
        ReorderShape {
            name: "displaced_10pct_late_2pct",
            delay: 40,
            prefill: 0,
            arrivals: displaced,
        },
        ReorderShape {
            name: "adversarial",
            delay: 1 << 20,
            prefill: ADVERSARIAL_PENDING as usize,
            arrivals: adversarial,
        },
    ]
}

fn bench_reorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("reorder");
    for shape in reorder_shapes() {
        // one buffer and one output vector for the whole cell, at their
        // high-water capacity after the first iteration; each iteration
        // starts a fresh stretch of stream time past the previous one's
        // clock, so nothing of it is late
        let span = shape.arrivals.iter().max().expect("non-empty shape") + 1;
        let stride = span + 2 * shape.delay.min(span);
        let mut buffer = ReorderBuffer::new(TimeDelta::from_millis(shape.delay));
        let mut out: Vec<Event> = Vec::with_capacity(shape.arrivals.len());
        let mut origin = stride;
        group.throughput(Throughput::Elements(
            (shape.arrivals.len() - shape.prefill) as u64,
        ));
        group.bench_function(BenchmarkId::from_parameter(shape.name), |b| {
            b.iter(|| {
                out.clear();
                for &ms in &shape.arrivals {
                    let ts = Timestamp::from_millis(origin + black_box(ms));
                    buffer.push_into(Event::new(EventType(0), ts), &mut out);
                }
                buffer.flush_into(&mut out);
                origin += stride;
                black_box(out.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flip_paths,
    bench_match_paths,
    bench_route_lookup,
    bench_reorder
);
criterion_main!(benches);
