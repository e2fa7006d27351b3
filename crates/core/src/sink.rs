//! Consumer delivery: the [`ReleaseSink`] trait and its default
//! [`VecSink`].
//!
//! The paper's service phase (§III-A, Fig. 2) is consumer-centric: each
//! consumer registers target queries and *receives* per-window answers
//! computed on the protected view. The sink API is that delivery surface:
//! instead of returning positional `Vec<bool>` batches (whose indexes
//! silently shift when queries churn across epochs), the service pushes
//! [`QueryAnswer`] records keyed by **stable** [`QueryId`] into a
//! consumer-supplied sink. Consumers subscribe per id
//! ([`ReleaseSink::wants`]); a query removed in a later epoch simply
//! stops producing records — it can never misalign another query's
//! stream.
//!
//! [`VecSink`] preserves the old return-value style (collect everything,
//! inspect afterwards); `ShardedService::push_batch` and friends are
//! reimplemented on top of it, so the sink path and the legacy
//! `BatchOutput` path are one code path, equal by construction.

use std::collections::BTreeSet;

use pdp_cep::QueryId;

use crate::answer::Answer;
use crate::service::{MergedRelease, ShardRelease};

/// One delivered answer record: a registered query's typed answer on one
/// fully merged (population-level) window, keyed by stable id.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The stable id of the registered query (never a position).
    pub query: QueryId,
    /// The window index the answer belongs to.
    pub window: usize,
    /// The control-plane epoch that released the window.
    pub epoch: u64,
    /// The typed answer, computed on the protected view only.
    pub answer: Answer,
}

/// Where the sharded service delivers releases.
///
/// # Delivery-order contract
///
/// Within one delivering call (`push_batch_into` / `advance_watermark_into`
/// / `finish_into`):
///
/// 1. **shard releases** arrive first, grouped by shard in ascending
///    shard order; within one shard they keep that shard's release
///    (window-index) order. A call can deliver several such groups when
///    it advances the watermark after ingesting.
/// 2. **merged windows** arrive strictly in window-index order, merged
///    across all shards. For each merged window, the subscribed
///    [`QueryAnswer`] records are delivered first — one per active query
///    the sink [`wants`](ReleaseSink::wants), in ascending [`QueryId`]
///    order — followed by the [`MergedRelease`] record itself.
///
/// # Delivery-time contract
///
/// Every delivering call delivers the releases its own input causes
/// before it returns: the call that moves the low watermark past a
/// window's end delivers that window. Nothing is held back for a later
/// call, and the sink-less operations (`begin_epoch`, `sync`, stats
/// reads) never settle a release, so the sink passed to a call receives
/// exactly that call's output, filtered through
/// [`wants`](ReleaseSink::wants). `checkpoint_into`, and `shutdown_into`
/// on a finished service, deliver nothing.
///
/// Two runs over the same inputs and seeds deliver the identical
/// sequence; the equivalence anchors in `tests/consumer_api.rs` pin the
/// sink path bit-for-bit to the legacy `BatchOutput` path.
///
/// All delivery is by value and zero-copy: the service moves each release
/// into the sink instead of cloning it into an output struct, so a sink
/// that only folds (or drops) what it receives adds no per-release
/// allocation.
pub trait ReleaseSink {
    /// Per-query subscription filter for [`ReleaseSink::answer`] records.
    /// Defaults to everything; a consumer interested in two queries
    /// returns `true` only for their ids. (Release records are not
    /// filtered — they are the transport, answers are the subscription.)
    fn wants(&self, _query: QueryId) -> bool {
        true
    }

    /// One shard's release (see the ordering contract above).
    fn shard_release(&mut self, release: ShardRelease);

    /// One subscribed query's typed answer on a fully merged window.
    fn answer(&mut self, answer: QueryAnswer);

    /// One fully merged (population-level) window, delivered after its
    /// answer records.
    fn merged_release(&mut self, release: MergedRelease);
}

/// The default sink: collect everything into vectors, preserving the
/// delivery order. `ShardedService::push_batch` drains one of these into
/// the legacy `BatchOutput`, so "collect via `VecSink`" and "read the
/// return value" are the same bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecSink {
    /// `None` = subscribed to every query.
    subscriptions: Option<BTreeSet<QueryId>>,
    /// Shard releases, in delivery order.
    pub shard_releases: Vec<ShardRelease>,
    /// Merged windows, in index order.
    pub merged: Vec<MergedRelease>,
    /// Subscribed answer records, in delivery order.
    pub answers: Vec<QueryAnswer>,
}

impl VecSink {
    /// A sink subscribed to every registered query.
    pub fn all() -> Self {
        VecSink::default()
    }

    /// A sink subscribed to exactly `queries` (answer records for other
    /// ids are not delivered; release records always are).
    pub fn subscribed<I: IntoIterator<Item = QueryId>>(queries: I) -> Self {
        VecSink {
            subscriptions: Some(queries.into_iter().collect()),
            ..VecSink::default()
        }
    }

    /// The answer records of one query, in window order — the id-keyed
    /// consumer read.
    pub fn answers_for(&self, query: QueryId) -> Vec<&QueryAnswer> {
        self.answers.iter().filter(|a| a.query == query).collect()
    }
}

impl ReleaseSink for VecSink {
    fn wants(&self, query: QueryId) -> bool {
        self.subscriptions
            .as_ref()
            .is_none_or(|subs| subs.contains(&query))
    }

    fn shard_release(&mut self, release: ShardRelease) {
        self.shard_releases.push(release);
    }

    fn answer(&mut self, answer: QueryAnswer) {
        self.answers.push(answer);
    }

    fn merged_release(&mut self, release: MergedRelease) {
        self.merged.push(release);
    }
}

/// A sink that counts deliveries and drops them — the zero-cost consumer
/// the repo benchmark's whole-service layer replays push into, and a
/// template for streaming consumers that fold instead of collect.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    /// Shard releases delivered.
    pub shard_releases: usize,
    /// Merged windows delivered.
    pub merged: usize,
    /// Answer records delivered.
    pub answers: usize,
}

impl ReleaseSink for CountingSink {
    fn shard_release(&mut self, _release: ShardRelease) {
        self.shard_releases += 1;
    }

    fn answer(&mut self, _answer: QueryAnswer) {
        self.answers += 1;
    }

    fn merged_release(&mut self, _release: MergedRelease) {
        self.merged += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_stream::IndicatorVector;

    fn merged(index: usize) -> MergedRelease {
        MergedRelease {
            index,
            start: pdp_stream::Timestamp::ZERO,
            epoch: 0,
            answers_any: vec![true],
            positive_shards: vec![1],
            protected_any: IndicatorVector::empty(2),
            typed: vec![(QueryId(0), Answer::Bool(true))],
        }
    }

    #[test]
    fn vec_sink_subscriptions_filter_answers() {
        let sink = VecSink::subscribed([QueryId(1), QueryId(3)]);
        assert!(!sink.wants(QueryId(0)));
        assert!(sink.wants(QueryId(1)));
        assert!(sink.wants(QueryId(3)));
        assert!(VecSink::all().wants(QueryId(7)));
    }

    #[test]
    fn vec_sink_collects_in_delivery_order() {
        let mut sink = VecSink::all();
        for w in 0..3 {
            sink.answer(QueryAnswer {
                query: QueryId(0),
                window: w,
                epoch: 0,
                answer: Answer::Bool(w % 2 == 0),
            });
            sink.merged_release(merged(w));
        }
        assert_eq!(sink.merged.len(), 3);
        let q0 = sink.answers_for(QueryId(0));
        assert_eq!(q0.len(), 3);
        assert_eq!(
            q0.iter().map(|a| a.window).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(sink.answers_for(QueryId(9)).is_empty());
    }

    #[test]
    fn counting_sink_only_counts() {
        let mut sink = CountingSink::default();
        sink.merged_release(merged(0));
        sink.answer(QueryAnswer {
            query: QueryId(0),
            window: 0,
            epoch: 0,
            answer: Answer::Count(2),
        });
        assert_eq!((sink.merged, sink.answers, sink.shard_releases), (1, 1, 0));
    }
}
