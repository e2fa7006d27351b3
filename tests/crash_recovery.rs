//! The durability contract's anchor: a service killed at an arbitrary
//! batch boundary and recovered from its checkpoint + WAL tail produces
//! **bit-for-bit** the same output as one that never crashed.
//!
//! "Same output" is total: the concatenation of the deliveries made
//! before the checkpoint and the deliveries made by replay + continuation
//! equals the uninterrupted run's delivery sequence — shard releases,
//! merged windows and id-keyed answer records — and the per-subject
//! ledger spends, query-ledger spends, low watermark and epoch agree too.
//! The crash is taken mid-pipeline (a round still in flight) and the WAL
//! tail spans a full epoch transition, so recovery re-derives staged
//! commands, the transition, a watermark heartbeat and two batches.
//!
//! The schedule runs under the uniform PPM and again under the adaptive
//! one, where every transition re-runs Algorithm 1 — the one in the WAL
//! tail on the sliding history replay rebuilds.

use std::path::PathBuf;

use pattern_dp_repro::cep::{Pattern, PatternId, QueryId};
use pattern_dp_repro::core::{
    read_checkpoint, write_checkpoint, AdaptiveConfig, BudgetDistribution, EpochTransition,
    KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig, ShardedService, StreamingConfig, SubjectId,
    VecSink, WalWriter,
};
use pattern_dp_repro::dp::Epsilon;
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{
    Event, EventType, IndicatorVector, TimeDelta, Timestamp, WindowedIndicators,
};

fn t(i: u32) -> EventType {
    EventType(i)
}

fn ke(subject: u64, ty: u32, ms: i64) -> KeyedEvent {
    KeyedEvent::new(
        SubjectId(subject),
        Event::new(t(ty), Timestamp::from_millis(ms)),
    )
}

fn config(n_shards: usize, adaptive: bool) -> ServiceConfig {
    let eps = Epsilon::new(1.0).unwrap();
    ServiceConfig {
        n_shards,
        n_types: 5,
        alpha: Alpha::HALF,
        ppm: if adaptive {
            PpmKind::Adaptive {
                eps,
                config: AdaptiveConfig::default(),
            }
        } else {
            PpmKind::Uniform { eps }
        },
        streaming: StreamingConfig::tumbling(TimeDelta::from_millis(10)),
        max_delay: TimeDelta::from_millis(5),
        seed: 41,
        history_window: 16,
    }
}

fn builder(n_shards: usize, adaptive: bool) -> ServiceBuilder {
    let mut b = ServiceBuilder::new(config(n_shards, adaptive)).unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p1", vec![t(0), t(1)]).unwrap());
    b.register_private_pattern(SubjectId(2), Pattern::single("p2", t(3)));
    b.register_subject(SubjectId(3));
    b.register_target_query("t2?", Pattern::single("t2", t(2)));
    if adaptive {
        // a target on p1's type 0, in a history where it rides on type 0
        // and p1's other type 1 is rare: Algorithm 1 moves p1's budget
        b.register_target_query("t02?", Pattern::seq("t02", vec![t(0), t(2)]).unwrap());
        b.provide_history(skewed_history());
    }
    b
}

fn skewed_history() -> WindowedIndicators {
    let windows = (0..40)
        .map(|k| {
            let mut present = Vec::new();
            if k % 2 == 0 {
                present.extend([t(0), t(2)]);
            }
            if k % 5 == 0 {
                present.push(t(1));
            }
            IndicatorVector::from_present(present, 5)
        })
        .collect();
    WindowedIndicators::new(windows)
}

/// The distribution a transition's plan gives p1 (pattern 0).
fn p1_distribution(transition: &EpochTransition) -> BudgetDistribution {
    let assignments = transition.plan.core.pipeline().assignments();
    let (_, dist) = assignments
        .iter()
        .find(|(id, _)| *id == PatternId(0))
        .expect("p1 is active");
    dist.clone()
}

/// Unique per-test scratch directory (the suite runs tests in parallel).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdp-crash-recovery-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// The scripted input history both runs consume. Ops before the
// checkpoint boundary and after it are split so the crashed run can
// switch sinks at the boundary.
fn b1() -> Vec<KeyedEvent> {
    vec![ke(1, 0, 2), ke(2, 3, 4), ke(3, 2, 7), ke(1, 1, 8)]
}
fn b2() -> Vec<KeyedEvent> {
    vec![ke(3, 2, 26), ke(1, 0, 29), ke(2, 3, 33)]
}
fn b3() -> Vec<KeyedEvent> {
    vec![ke(1, 1, 55), ke(9, 2, 58), ke(2, 3, 61), ke(3, 4, 65)]
}
fn b4() -> Vec<KeyedEvent> {
    vec![ke(9, 4, 80), ke(1, 0, 84), ke(2, 3, 88), ke(3, 2, 92)]
}
fn b5() -> Vec<KeyedEvent> {
    vec![ke(1, 1, 141), ke(9, 4, 144), ke(3, 2, 149)]
}
fn b6() -> Vec<KeyedEvent> {
    vec![ke(2, 3, 161), ke(1, 0, 165), ke(9, 2, 168)]
}

/// Phase 1 (pre-checkpoint): two batches, then a full epoch transition
/// (new query + new tenant), then a third batch under epoch 1. Returns
/// p1's distribution in epoch 1.
fn run_phase1<S: pattern_dp_repro::core::ReleaseSink>(
    svc: &mut ShardedService,
    sink: &mut S,
) -> BudgetDistribution {
    svc.push_batch_into(b1(), sink).unwrap();
    svc.push_batch_into(b2(), sink).unwrap();
    svc.add_consumer_query("t4?", Pattern::single("t4", t(4)));
    svc.register_subject(SubjectId(9));
    let transition = svc.begin_epoch().unwrap().expect("churn staged");
    assert_eq!(transition.plan.epoch, 1);
    svc.push_batch_into(b3(), sink).unwrap();
    p1_distribution(&transition)
}

/// Phase 2 (post-checkpoint — the part a crash must not lose): a batch,
/// a second epoch transition, a heartbeat, and a final batch. In the
/// crashed run everything here lands in the WAL tail and is re-derived
/// by replay. Returns p1's distribution in epoch 2.
fn run_phase2<S: pattern_dp_repro::core::ReleaseSink>(
    svc: &mut ShardedService,
    sink: &mut S,
) -> BudgetDistribution {
    svc.push_batch_into(b4(), sink).unwrap();
    svc.register_private_pattern(SubjectId(9), Pattern::single("p9", t(4)));
    let transition = svc.begin_epoch().unwrap().expect("churn staged");
    assert_eq!(transition.plan.epoch, 2);
    svc.advance_watermark_into(Timestamp::from_millis(130), sink)
        .unwrap();
    svc.push_batch_into(b5(), sink).unwrap();
    p1_distribution(&transition)
}

/// Phase 3 (post-recovery continuation): one more batch and the finish.
fn run_phase3<S: pattern_dp_repro::core::ReleaseSink>(svc: &mut ShardedService, sink: &mut S) {
    svc.push_batch_into(b6(), sink).unwrap();
    svc.finish_into(sink).unwrap();
}

fn spends(svc: &mut ShardedService) -> Vec<(u64, u32, Option<Epsilon>)> {
    let mut out = Vec::new();
    for subject in [1u64, 2, 3, 9] {
        for pattern in 0..6u32 {
            out.push((
                subject,
                pattern,
                svc.budget_spent(SubjectId(subject), PatternId(pattern)),
            ));
        }
    }
    out
}

/// The anchor, parameterized over the execution mode and the PPM.
fn crash_recovery_is_bit_for_bit(parallel: bool, adaptive: bool, tag: &str) {
    let dir = scratch(tag);
    let wal_path = dir.join("service.wal");
    let ckpt_path = dir.join("service.ckpt");

    // --- run A: uninterrupted, no durability ---
    let mut a = builder(3, adaptive).build().unwrap();
    a.set_parallel(parallel);
    let mut sink_a = VecSink::all();
    let epoch1 = run_phase1(&mut a, &mut sink_a);
    let epoch2 = run_phase2(&mut a, &mut sink_a);
    run_phase3(&mut a, &mut sink_a);
    let uniform = BudgetDistribution::uniform(Epsilon::new(1.0).unwrap(), 2).unwrap();
    for dist in [&epoch1, &epoch2] {
        if adaptive {
            // Algorithm 1 moved budget toward the target's type 0
            assert!(
                dist.shares()[0].value() > dist.shares()[1].value() + 1e-6,
                "expected a non-uniform p1: {dist:?}"
            );
        } else {
            assert_eq!(dist, &uniform);
        }
    }

    // --- run B: WAL on, checkpoint after phase 1, killed mid-phase 2 ---
    let mut b = builder(3, adaptive).build().unwrap();
    b.set_parallel(parallel);
    b.attach_wal(WalWriter::create(&wal_path).unwrap());
    let mut sink_b1 = VecSink::all();
    assert_eq!(run_phase1(&mut b, &mut sink_b1), epoch1);
    let checkpoint = b.checkpoint_into(&mut sink_b1).unwrap();
    assert!(checkpoint.wal_offset > 0, "the phase-1 records are logged");
    // the image survives its own file format round trip
    write_checkpoint(&ckpt_path, &checkpoint).unwrap();
    assert_eq!(read_checkpoint(&ckpt_path).unwrap(), checkpoint);

    // phase 2 happens, but the process dies before delivering it: the
    // crash sink's deliveries are lost with the process, and the final
    // batch's round is still in flight when the service drops
    {
        let mut crash_sink = VecSink::all();
        assert_eq!(run_phase2(&mut b, &mut crash_sink), epoch2);
        drop(b); // the kill — in-flight work, outbox and sink all vanish
    }

    // --- recovery: checkpoint + WAL tail replay, then continue ---
    let mut sink_b2 = VecSink::all();
    let recovered = read_checkpoint(&ckpt_path).unwrap();
    let mut b =
        ShardedService::recover_into(config(3, adaptive), recovered, &wal_path, &mut sink_b2)
            .unwrap();
    assert_eq!(
        b.is_parallel(),
        parallel && config(3, adaptive).n_shards > 1,
        "recovery restores the recorded execution mode"
    );
    run_phase3(&mut b, &mut sink_b2);

    // --- equivalence: B's two delivery segments concatenate to A's ---
    let releases_b: Vec<_> = sink_b1
        .shard_releases
        .iter()
        .chain(&sink_b2.shard_releases)
        .cloned()
        .collect();
    assert_eq!(releases_b, sink_a.shard_releases, "shard releases differ");
    let merged_b: Vec<_> = sink_b1
        .merged
        .iter()
        .chain(&sink_b2.merged)
        .cloned()
        .collect();
    assert_eq!(merged_b, sink_a.merged, "merged windows differ");
    let answers_b: Vec<_> = sink_b1
        .answers
        .iter()
        .chain(&sink_b2.answers)
        .cloned()
        .collect();
    assert_eq!(answers_b, sink_a.answers, "answer records differ");

    assert_eq!(spends(&mut b), spends(&mut a), "ledger spends differ");
    assert_eq!(
        b.query_budget_spent(QueryId(0)),
        a.query_budget_spent(QueryId(0))
    );
    assert_eq!(b.low_watermark(), a.low_watermark());
    assert_eq!(b.events_ingested(), a.events_ingested());
    assert_eq!(b.epoch(), a.epoch());
    assert_eq!(b.dropped(), a.dropped());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovery_is_bit_for_bit_inline() {
    crash_recovery_is_bit_for_bit(false, false, "inline");
}

#[test]
fn crash_recovery_is_bit_for_bit_parallel() {
    crash_recovery_is_bit_for_bit(true, false, "parallel");
}

#[test]
fn crash_recovery_is_bit_for_bit_adaptive_inline() {
    crash_recovery_is_bit_for_bit(false, true, "adaptive-inline");
}

#[test]
fn crash_recovery_is_bit_for_bit_adaptive_parallel() {
    crash_recovery_is_bit_for_bit(true, true, "adaptive-parallel");
}

/// Restoring a plain checkpoint (no WAL) equals cloning: the restored
/// service continues bit-for-bit from the image.
#[test]
fn checkpoint_restore_continues_identically() {
    let mut original = builder(2, false).build().unwrap();
    let mut sink = VecSink::all();
    original.push_batch_into(b1(), &mut sink).unwrap();
    original.push_batch_into(b2(), &mut sink).unwrap();
    let (checkpoint, _drained) = original.checkpoint().unwrap();
    let mut restored = ShardedService::restore(config(2, false), checkpoint).unwrap();

    let out_a = original
        .advance_watermark(Timestamp::from_millis(70))
        .unwrap();
    let out_b = restored
        .advance_watermark(Timestamp::from_millis(70))
        .unwrap();
    assert_eq!(out_a, out_b, "restored RNG streams resume mid-sequence");
    assert_eq!(original.finish().unwrap(), restored.finish().unwrap());
}

/// A checkpoint cannot be restored into a service with a different shard
/// count — routing is shard-count dependent, so this must be a hard
/// error, not a silent misroute.
#[test]
fn restore_rejects_shard_count_mismatch() {
    let mut svc = builder(2, false).build().unwrap();
    let (checkpoint, _) = svc.checkpoint().unwrap();
    let err = ShardedService::restore(config(3, false), checkpoint).unwrap_err();
    assert!(matches!(
        err,
        pattern_dp_repro::core::CoreError::Durability(_)
    ));
}

/// Commands the control plane rejected are in the log too (write-ahead);
/// their replay must re-fail silently instead of aborting recovery.
#[test]
fn rejected_commands_replay_harmlessly() {
    let dir = scratch("rejected-commands");
    let wal_path = dir.join("service.wal");
    let mut svc = builder(1, false).build().unwrap();
    svc.attach_wal(WalWriter::create(&wal_path).unwrap());
    let mut sink = VecSink::all();
    let (checkpoint, _) = svc.checkpoint().unwrap();
    // logged, then rejected: subject 3 owns no pattern 0
    assert!(svc
        .revoke_private_pattern(SubjectId(3), PatternId(0))
        .is_err());
    svc.push_batch_into(b1(), &mut sink).unwrap();
    svc.finish_into(&mut sink).unwrap();
    drop(svc);

    let mut replay_sink = VecSink::all();
    let recovered =
        ShardedService::recover_into(config(1, false), checkpoint, &wal_path, &mut replay_sink);
    let recovered = recovered.expect("rejected command must not abort recovery");
    assert_eq!(recovered.events_ingested(), b1().len() as u64);
    assert_eq!(
        replay_sink.shard_releases, sink.shard_releases,
        "replay re-derives the finished run"
    );
    assert_eq!(recovered.dropped(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
