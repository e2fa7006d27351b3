//! Seeded input: a pre-generated pool of batches replayed cyclically
//! with a per-cycle event-time rebase, plus what the generator knows
//! about its own stream without asking the service — how far the global
//! low watermark has moved and how many events arrived too late.

use pdp_core::{KeyedEvent, ShardedService, SubjectId};
use pdp_dp::DpRng;
use pdp_stream::{Event, EventType, Timestamp};

use crate::spec::Spec;

/// One pooled event, packed: materialising a batch is one pass over 24
/// bytes per event.
#[derive(Clone, Copy)]
struct Packed {
    subject: u64,
    /// Relative to the start of a replay cycle, milliseconds.
    ts: i64,
    ty: u32,
}

/// The input pool of one workload and seed.
pub struct Pool {
    batches: Vec<Vec<Packed>>,
    span_ms: i64,
    /// Per batch, per shard: the largest timestamp routed to that shard
    /// (cycle-relative), `i64::MIN` when the batch sends it nothing.
    shard_max: Vec<Vec<i64>>,
    /// Late drops up to and including each batch, for the first replay
    /// cycle and for every later one (a later cycle starts with the
    /// shard clocks the previous one left behind).
    drops: [Vec<u64>; 2],
}

impl Pool {
    pub fn generate(spec: &Spec, seed: u64) -> Pool {
        let mut rng = DpRng::seed_from(seed ^ 0x706f_6f6c);
        let zipf = spec.zipf.then(|| zipf_cdf(spec.n_subjects));
        // the stream starts far enough from zero that no lateness
        // reaches a negative timestamp
        let origin_ms = 2 * spec.max_delay_ms;
        let n = spec.pool_batches();
        let mut batches = Vec::with_capacity(n);
        for b in 0..n {
            let mut batch = Vec::with_capacity(spec.batch);
            for i in 0..spec.batch {
                let at_us = b as i64 * spec.batch_us + i as i64 * spec.batch_us / spec.batch as i64;
                let u = rng.unit();
                let lateness = if u < spec.late_share {
                    spec.max_delay_ms + 1 + rng.below(spec.max_delay_ms as usize) as i64
                } else if u < spec.late_share + spec.ooo_share {
                    rng.below(spec.ooo_max_ms as usize + 1) as i64
                } else {
                    0
                };
                let subject = match &zipf {
                    Some(cdf) => {
                        let u = rng.unit();
                        cdf.partition_point(|&c| c < u) as u64
                    }
                    None => rng.below(spec.n_subjects as usize) as u64,
                };
                batch.push(Packed {
                    subject: subject.min(spec.n_subjects - 1),
                    ts: origin_ms + at_us / 1000 - lateness,
                    ty: rng.below(spec.n_types) as u32,
                });
            }
            batches.push(batch);
        }

        let shard_of = |p: &Packed| ShardedService::shard_for(SubjectId(p.subject), spec.n_shards);
        let shard_max = batches
            .iter()
            .map(|batch| {
                let mut max = vec![i64::MIN; spec.n_shards];
                for p in batch {
                    let slot = &mut max[shard_of(p)];
                    *slot = (*slot).max(p.ts);
                }
                max
            })
            .collect();

        // the reorder buffer's contract, restated: an event is dropped
        // when it is stamped before its shard's clock minus the bound
        let span_ms = spec.pool_span_ms();
        let mut clock = vec![i64::MIN; spec.n_shards];
        let mut drops = [Vec::with_capacity(n), Vec::with_capacity(n)];
        for (cycle, drops) in drops.iter_mut().enumerate() {
            let mut dropped = 0u64;
            for batch in &batches {
                for p in batch {
                    let ts = p.ts + cycle as i64 * span_ms;
                    let seen = &mut clock[shard_of(p)];
                    if *seen != i64::MIN && ts < *seen - spec.max_delay_ms {
                        dropped += 1;
                    } else {
                        *seen = (*seen).max(ts);
                    }
                }
                drops.push(dropped);
            }
        }

        Pool {
            batches,
            span_ms,
            shard_max,
            drops,
        }
    }

    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Global batch `k` (cycle `k / len`), rebased to its cycle.
    pub fn batch(&self, k: u64) -> Vec<KeyedEvent> {
        let shift = self.shift(k);
        self.batches[k as usize % self.len()]
            .iter()
            .map(|p| {
                KeyedEvent::new(
                    SubjectId(p.subject),
                    Event::new(EventType(p.ty), Timestamp::from_millis(p.ts + shift)),
                )
            })
            .collect()
    }

    fn shift(&self, k: u64) -> i64 {
        (k / self.len() as u64) as i64 * self.span_ms
    }

    /// The largest timestamp batch `k` routes to each shard.
    pub fn shard_max(&self, k: u64) -> impl Iterator<Item = Option<i64>> + '_ {
        let shift = self.shift(k);
        self.shard_max[k as usize % self.len()]
            .iter()
            .map(move |&m| (m != i64::MIN).then_some(m + shift))
    }

    /// Events the service must have dropped as late after ingesting
    /// batches `0..n`.
    pub fn expected_drops(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let len = self.len() as u64;
        let (cycles, rest) = ((n - 1) / len, ((n - 1) % len) as usize);
        let full = |c: usize| *self.drops[c].last().expect("non-empty pool");
        match cycles {
            0 => self.drops[0][rest],
            c => full(0) + (c - 1) * full(1) + self.drops[1][rest],
        }
    }
}

/// Cumulative Zipf(1.0) distribution over `n` ranks.
fn zipf_cdf(n: u64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The generator's mirror of the service's global low watermark: the
/// minimum over shards of the largest timestamp routed there, minus the
/// lateness bound. Lets the harness say when a window became releasable
/// and how many windows a drained service must have merged.
pub struct WatermarkMirror {
    shard_seen: Vec<Option<i64>>,
    window_ms: i64,
    max_delay_ms: i64,
}

impl WatermarkMirror {
    pub fn new(spec: &Spec) -> Self {
        WatermarkMirror {
            shard_seen: vec![None; spec.n_shards],
            window_ms: spec.window_ms,
            max_delay_ms: spec.max_delay_ms,
        }
    }

    /// Account for global batch `k`; returns the number of windows now
    /// closed on every shard (indices `0..n`).
    pub fn observe(&mut self, pool: &Pool, k: u64) -> usize {
        for (seen, max) in self.shard_seen.iter_mut().zip(pool.shard_max(k)) {
            *seen = (*seen).max(max);
        }
        self.windows_closed()
    }

    pub fn low_watermark(&self) -> Option<i64> {
        let mut low = i64::MAX;
        for seen in &self.shard_seen {
            low = low.min((*seen)?);
        }
        Some(low - self.max_delay_ms)
    }

    pub fn windows_closed(&self) -> usize {
        self.low_watermark()
            .map_or(0, |low| low.div_euclid(self.window_ms).max(0) as usize)
    }

    /// Windows a finished service has released on every shard: `finish`
    /// aligns all shards on the furthest timestamp any of them saw and
    /// closes the window holding it.
    pub fn windows_at_finish(&self) -> u64 {
        self.shard_seen
            .iter()
            .flatten()
            .max()
            .map_or(0, |end| end.div_euclid(self.window_ms) as u64 + 1)
    }
}
