//! The benchmark's own consumers: a counting [`ReleaseSink`] that times
//! how long after a window became releasable its merged answer arrived,
//! and a digesting one for the bit-for-bit checks.

use std::collections::VecDeque;
use std::time::Instant;

use pdp_core::{Answer, MergedRelease, QueryAnswer, ReleaseSink, ShardRelease, WindowRelease};

/// Word-wise FNV-1a step.
pub fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_answer(hash: u64, answer: &Answer) -> u64 {
    match answer {
        Answer::Bool(b) => fold(hash, u64::from(*b)),
        Answer::Count(n) => fold(hash, *n as u64),
        Answer::Categorical(s) | Answer::Argmax(s) => {
            s.bytes().fold(hash, |h, b| fold(h, u64::from(b)))
        }
    }
}

/// Fold every public field of one shard release.
pub fn fold_release(mut hash: u64, shard: usize, r: &WindowRelease) -> u64 {
    hash = fold(hash, shard as u64);
    hash = fold(hash, r.index as u64);
    hash = fold(hash, r.start.millis() as u64);
    hash = fold(hash, r.epoch);
    hash = r.protected.words().iter().fold(hash, |h, &w| fold(h, w));
    r.answers.iter().fold(hash, fold_answer)
}

/// Fold the fields of a merged window that also cross the wire.
pub fn fold_merged(
    mut hash: u64,
    index: u64,
    start_ms: i64,
    epoch: u64,
    answers_any: &[bool],
    positive_shards: impl Iterator<Item = u64>,
    protected_any: &[u64],
) -> u64 {
    hash = fold(hash, index);
    hash = fold(hash, start_ms as u64);
    hash = fold(hash, epoch);
    hash = answers_any.iter().fold(hash, |h, &b| fold(h, u64::from(b)));
    hash = positive_shards.fold(hash, fold);
    protected_any.iter().fold(hash, |h, &w| fold(h, w))
}

/// Folds everything it is handed into one digest.
pub struct DigestSink {
    pub digest: u64,
    pub shard_releases: u64,
    pub merged: u64,
    /// Merged windows at or past this index are not folded (the edge
    /// check compares a fixed prefix of a time-bounded run).
    pub merged_limit: u64,
    pub merged_digest: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink {
            digest: FNV_OFFSET,
            shard_releases: 0,
            merged: 0,
            merged_limit: u64::MAX,
            merged_digest: FNV_OFFSET,
        }
    }
}

impl ReleaseSink for DigestSink {
    fn shard_release(&mut self, release: ShardRelease) {
        self.shard_releases += 1;
        self.digest = fold_release(self.digest, release.shard, &release.release);
    }

    fn answer(&mut self, answer: QueryAnswer) {
        self.digest = fold(self.digest, u64::from(answer.query.0));
        self.digest = fold_answer(self.digest, &answer.answer);
    }

    fn merged_release(&mut self, m: MergedRelease) {
        self.merged += 1;
        if (m.index as u64) < self.merged_limit {
            self.merged_digest = fold_merged(
                self.merged_digest,
                m.index as u64,
                m.start.millis(),
                m.epoch,
                &m.answers_any,
                m.positive_shards.iter().map(|&p| p as u64),
                m.protected_any.words(),
            );
        }
    }
}

/// The timed runs' consumer: counts deliveries, checks the delivery-order
/// contract, and records release latency against the instants the
/// harness marked each window releasable.
pub struct BenchSink {
    pub shard_releases: u64,
    pub answers: u64,
    pub merged: u64,
    next_shard: Vec<usize>,
    next_merged: usize,
    /// Deliveries that broke the gap-free, in-order contract.
    pub out_of_order: u64,
    /// `releasable[i]` is when window `next_merged + i` became releasable.
    releasable: VecDeque<Instant>,
    marked: usize,
    /// Merged-delivery latencies of the current segment, nanoseconds.
    pub release_ns: Vec<u32>,
    /// Traced runs time one callback in [`TIMED_ONE_IN`] (two clock
    /// reads each) and scale up.
    timed: bool,
    seen: u64,
    callback_ns: u64,
    callbacks: u64,
    first_callback: Option<Instant>,
}

/// Callback sampling of a traced run: timing every delivery would cost
/// more than most deliveries do.
const TIMED_ONE_IN: u64 = 8;

impl BenchSink {
    pub fn new(n_shards: usize, timed: bool) -> Self {
        BenchSink {
            shard_releases: 0,
            answers: 0,
            merged: 0,
            next_shard: vec![0; n_shards],
            next_merged: 0,
            out_of_order: 0,
            releasable: VecDeque::with_capacity(1 << 12),
            marked: 0,
            release_ns: Vec::with_capacity(1 << 16),
            timed,
            seen: 0,
            callback_ns: 0,
            callbacks: 0,
            first_callback: None,
        }
    }

    /// Windows `0..closed` are releasable as of `at` (those already
    /// marked keep their earlier instant).
    pub fn mark_releasable(&mut self, closed: usize, at: Instant) {
        while self.marked < closed {
            self.releasable.push_back(at);
            self.marked += 1;
        }
    }

    /// Reset the per-call callback accounting; returns what the call that
    /// just ended spent in callbacks, estimated from the timed sample:
    /// `(first timed start, ns, callbacks)`.
    pub fn take_call(&mut self) -> Option<(Instant, u64, u64)> {
        let first = self.first_callback.take()?;
        let out = (
            first,
            self.callback_ns * TIMED_ONE_IN,
            self.callbacks * TIMED_ONE_IN,
        );
        self.callback_ns = 0;
        self.callbacks = 0;
        Some(out)
    }

    fn enter(&mut self) -> Option<Instant> {
        if !self.timed {
            return None;
        }
        self.seen += 1;
        if !self.seen.is_multiple_of(TIMED_ONE_IN) {
            return None;
        }
        let now = Instant::now();
        self.first_callback.get_or_insert(now);
        Some(now)
    }

    fn leave(&mut self, entered: Option<Instant>) {
        if let Some(entered) = entered {
            self.callback_ns += entered.elapsed().as_nanos() as u64;
            self.callbacks += 1;
        }
    }
}

impl ReleaseSink for BenchSink {
    fn shard_release(&mut self, release: ShardRelease) {
        let entered = self.enter();
        self.shard_releases += 1;
        let next = &mut self.next_shard[release.shard];
        if release.release.index != *next {
            self.out_of_order += 1;
        }
        *next = release.release.index + 1;
        self.leave(entered);
    }

    fn answer(&mut self, _answer: QueryAnswer) {
        let entered = self.enter();
        self.answers += 1;
        self.leave(entered);
    }

    fn merged_release(&mut self, release: MergedRelease) {
        let entered = self.enter();
        self.merged += 1;
        if release.index != self.next_merged {
            self.out_of_order += 1;
        }
        self.next_merged = release.index + 1;
        // windows closed by `finish` were never marked
        if let Some(at) = self.releasable.pop_front() {
            self.release_ns.push(at.elapsed().as_nanos() as u32);
        }
        self.leave(entered);
    }
}
