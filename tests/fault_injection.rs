//! Deterministic fault injection: scripted worker kills and poisons via
//! [`FaultPlan`] surface as typed errors on an unsupervised service (the
//! historical fail-fast contract), and a supervised service heals a
//! killed worker in place with output bit-for-bit equal to the
//! fault-free run. The full chaos anchor (kills + poisons + WAL failures
//! across an epoch transition) lives in `tests/chaos.rs`.

use pattern_dp_repro::cep::Pattern;
use pattern_dp_repro::core::{
    quiet_poison_panics, CoreError, FaultPlan, HealAction, KeyedEvent, PpmKind, ServiceBuilder,
    ServiceConfig, StreamingConfig, SubjectId, SupervisorConfig, VecSink,
};
use pattern_dp_repro::dp::Epsilon;
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{Event, EventType, TimeDelta, Timestamp};

fn t(i: u32) -> EventType {
    EventType(i)
}

fn ke(subject: u64, ty: u32, ms: i64) -> KeyedEvent {
    KeyedEvent::new(
        SubjectId(subject),
        Event::new(t(ty), Timestamp::from_millis(ms)),
    )
}

fn service(n_shards: usize) -> pattern_dp_repro::core::ShardedService {
    let mut b = ServiceBuilder::new(ServiceConfig {
        n_shards,
        n_types: 4,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(1.0).unwrap(),
        },
        streaming: StreamingConfig::tumbling(TimeDelta::from_millis(10)),
        max_delay: TimeDelta::from_millis(5),
        seed: 7,
        history_window: 16,
    })
    .unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p1", vec![t(0), t(1)]).unwrap());
    b.register_private_pattern(SubjectId(2), Pattern::single("p2", t(3)));
    b.register_subject(SubjectId(3));
    b.register_target_query("t2?", Pattern::single("t2", t(2)));
    let mut svc = b.build().unwrap();
    svc.set_parallel(true);
    svc
}

fn batch(round: i64) -> Vec<KeyedEvent> {
    vec![
        ke(1, 0, 20 + 10 * round),
        ke(2, 3, 22 + 10 * round),
        ke(3, 2, 24 + 10 * round),
    ]
}

/// Killing a worker between two rounds is reported as a typed error
/// naming the dead shard — by the push whose round first needs it — and
/// dropping the service with the failure outstanding does not hang or
/// panic.
#[test]
fn mid_pipeline_worker_death_surfaces_and_teardown_completes() {
    let mut svc = service(3);
    // scripted: worker 1 dies before round 2 is submitted
    svc.inject_faults(FaultPlan::new().kill_worker(1, 2));
    svc.push_batch(vec![ke(1, 0, 2), ke(2, 3, 4), ke(3, 2, 7)])
        .unwrap();

    // keep pushing until the dead shard is hit: the first submit to
    // shard 1 must surface the typed error
    let mut seen = None;
    for round in 0..4 {
        if let Err(err) = svc.push_batch(batch(round)) {
            seen = Some(err);
            break;
        }
    }
    match seen {
        Some(CoreError::ShardWorker { shard }) => assert_eq!(shard, 1, "wrong shard blamed"),
        Some(other) => panic!("expected ShardWorker, got {other:?}"),
        None => panic!("worker death never surfaced"),
    }
    assert_eq!(svc.faults_remaining(), 0, "the scripted kill fired");

    // teardown with a dead worker and a poisoned pipeline must complete
    drop(svc);
}

/// A worker killed while the service is idle is reported just the same —
/// the error is about the dead thread, not about in-flight state.
#[test]
fn idle_worker_death_surfaces_on_next_push() {
    let mut svc = service(2);
    svc.inject_faults(FaultPlan::new().kill_worker(0, 1));
    let err = svc.push_batch(vec![ke(1, 0, 2), ke(2, 3, 4)]).unwrap_err();
    assert!(
        matches!(err, CoreError::ShardWorker { shard: 0 }),
        "got {err:?}"
    );
}

/// A supervised service absorbs the same kill: the bounced jobs run
/// inline under the intact shard state, the worker is respawned once the
/// round has folded, and every delivery matches the fault-free run
/// bit-for-bit.
#[test]
fn supervised_kill_heals_in_place_with_fault_free_output() {
    let mut healthy = service(3);
    let mut sink_h = VecSink::all();
    let mut faulty = service(3);
    faulty.set_supervisor(SupervisorConfig::default());
    faulty.inject_faults(FaultPlan::new().kill_worker(1, 2));
    let mut sink_f = VecSink::all();

    for (svc, sink) in [(&mut healthy, &mut sink_h), (&mut faulty, &mut sink_f)] {
        svc.push_batch_into(vec![ke(1, 0, 2), ke(2, 3, 4), ke(3, 2, 7)], sink)
            .unwrap();
        for round in 0..4 {
            svc.push_batch_into(batch(round), sink).unwrap();
        }
        svc.finish_into(sink).unwrap();
    }

    assert_eq!(sink_f.shard_releases, sink_h.shard_releases);
    assert_eq!(sink_f.merged, sink_h.merged);
    assert_eq!(sink_f.answers, sink_h.answers);

    let health = faulty.health();
    assert!(!health.degraded);
    assert_eq!(health.shards[1].heals, 1, "exactly one heal of shard 1");
    assert!(
        health
            .events
            .iter()
            .any(|e| e.shard == 1 && e.action == HealAction::Respawned),
        "heal log records the respawn: {:?}",
        health.events
    );
    assert_eq!(faulty.faults_remaining(), 0);
}

/// A scripted poison (worker panics while *holding* the shard lock) on
/// an unsupervised service surfaces as the typed `ShardPoisoned` error —
/// never a propagated panic.
#[test]
fn unsupervised_poison_surfaces_typed_error() {
    quiet_poison_panics();
    let mut svc = service(2);
    svc.inject_faults(FaultPlan::new().poison_shard(0, 1));
    // the push whose round the poison leads is the one that reports it
    let err = svc.push_batch(vec![ke(1, 0, 2), ke(2, 3, 4)]).unwrap_err();
    assert_eq!(err, CoreError::ShardPoisoned { shard: 0 });
    drop(svc);
}

/// Worker faults target worker *threads*: on an inline service there is
/// nothing to kill, the plan's worker faults stay unfired, and ingestion
/// is untouched.
#[test]
fn worker_faults_are_inert_inline() {
    let mut svc = service(3);
    svc.set_parallel(false);
    svc.inject_faults(FaultPlan::new().kill_worker(1, 1).poison_shard(2, 2));
    for round in 0..3 {
        svc.push_batch(batch(round)).unwrap();
    }
    svc.finish().unwrap();
    assert_eq!(svc.faults_remaining(), 0, "due faults are consumed");
}
