//! The loopback equivalence anchor: the same event schedule driven once
//! in-process (`push_batch_into` a `VecSink`) and once through the TCP
//! edge produces **bit-for-bit identical** sink deliveries, ledger
//! spends, watermark, ingest count and epoch state.
//!
//! The schedule deliberately crosses every service surface the protocol
//! exposes: sequenced pushes, watermark advances, mid-run control-plane
//! churn (subject + pattern registration, an epoch compile), a rejected
//! push (unknown subject — atomic, mutates nothing), a checkpoint
//! trigger, and a graceful shutdown. Both shard counts run, covering the
//! inline (1-shard) and parallel execution modes.

use pdp_cep::{Pattern, PatternId};
use pdp_core::{
    CoreError, KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig, ShardedService, StreamingConfig,
    SubjectId, VecSink,
};
use pdp_dp::{DpRng, Epsilon};
use pdp_metrics::Alpha;
use pdp_server::frame::{AnswerRecord, MergedRecord, ReleaseRecord};
use pdp_server::{serve, Client, ClientError, Frame, ServerConfig, WireCommand};
use pdp_stream::{Event, EventType, TimeDelta, Timestamp};

const N_TYPES: usize = 16;
const N_SUBJECTS: u64 = 48;
const WINDOW_MS: i64 = 100;
const MAX_DELAY_MS: i64 = 40;
const SEED: u64 = 4242;
const BATCHES: usize = 10;
const BATCH_SIZE: usize = 64;

/// The subject churned in mid-run (outside the initial range).
const CHURN_SUBJECT: u64 = N_SUBJECTS + 5;
/// The subject used by the rejected push (never registered).
const GHOST_SUBJECT: u64 = N_SUBJECTS + 99;

fn build_service(n_shards: usize) -> (ShardedService, Vec<(SubjectId, PatternId)>) {
    let mut builder = ServiceBuilder::new(ServiceConfig {
        n_shards,
        n_types: N_TYPES,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(1.0).unwrap(),
        },
        streaming: StreamingConfig::tumbling(TimeDelta::from_millis(WINDOW_MS)),
        max_delay: TimeDelta::from_millis(MAX_DELAY_MS),
        seed: SEED,
        history_window: 0,
    })
    .unwrap();
    let mut ledger_keys = Vec::new();
    for s in 0..N_SUBJECTS {
        builder.register_subject(SubjectId(s));
        if s % 3 == 0 {
            let a = EventType((s % N_TYPES as u64) as u32);
            let b = EventType(((s + 1) % N_TYPES as u64) as u32);
            let pid = builder.register_private_pattern(
                SubjectId(s),
                Pattern::seq(&format!("priv{s}"), vec![a, b]).unwrap(),
            );
            ledger_keys.push((SubjectId(s), pid));
        }
    }
    builder.register_target_query("t0?", Pattern::single("t0", EventType(0)));
    builder.register_target_query("t1?", Pattern::single("t1", EventType(1)));
    (builder.build().unwrap(), ledger_keys)
}

/// The deterministic event schedule both runs execute.
fn batches() -> Vec<Vec<KeyedEvent>> {
    let mut rng = DpRng::seed_from(31);
    (0..BATCHES)
        .map(|b| {
            (0..BATCH_SIZE)
                .map(|i| {
                    let subject = SubjectId(rng.below(N_SUBJECTS as usize) as u64);
                    let ty = EventType(rng.below(N_TYPES) as u32);
                    let base = (b * BATCH_SIZE + i) as i64;
                    let jitter = rng.below(MAX_DELAY_MS as usize / 2) as i64;
                    KeyedEvent::new(subject, Event::new(ty, Timestamp(base * 3 + jitter)))
                })
                .collect()
        })
        .collect()
}

fn churn_pattern_elements() -> Vec<EventType> {
    vec![EventType(2), EventType(3)]
}

fn ghost_batch() -> Vec<KeyedEvent> {
    vec![KeyedEvent::new(
        SubjectId(GHOST_SUBJECT),
        Event::new(EventType(0), Timestamp(0)),
    )]
}

/// The post-run state both runs must agree on, extracted identically
/// from either service.
#[derive(Debug, PartialEq)]
struct EndState {
    events_ingested: u64,
    epoch: u64,
    low_watermark: Option<Timestamp>,
    spends: Vec<Option<pdp_dp::Epsilon>>,
    churn_spend: Option<pdp_dp::Epsilon>,
}

fn end_state(
    service: &mut ShardedService,
    ledger_keys: &[(SubjectId, PatternId)],
    churn_pid: PatternId,
) -> EndState {
    EndState {
        events_ingested: service.events_ingested(),
        epoch: service.epoch(),
        low_watermark: service.low_watermark(),
        spends: ledger_keys
            .iter()
            .map(|&(s, p)| service.budget_spent(s, p))
            .collect(),
        churn_spend: service.budget_spent(SubjectId(CHURN_SUBJECT), churn_pid),
    }
}

/// Run the schedule directly against the service; returns the sink, the
/// churned-in pattern id, and the end state.
fn run_in_process(n_shards: usize) -> (VecSink, PatternId, EndState) {
    let (mut service, ledger_keys) = build_service(n_shards);
    let mut sink = VecSink::all();
    let all = batches();
    let mut churn_pid = PatternId(u32::MAX);
    for (i, batch) in all.iter().enumerate() {
        service.push_batch_into(batch.clone(), &mut sink).unwrap();
        if i == 3 {
            service
                .advance_watermark_into(Timestamp(300), &mut sink)
                .unwrap();
        }
        if i == 5 {
            service.register_subject(SubjectId(CHURN_SUBJECT));
            churn_pid = service.register_private_pattern(
                SubjectId(CHURN_SUBJECT),
                Pattern::seq("churn", churn_pattern_elements()).unwrap(),
            );
            service.begin_epoch().unwrap();
        }
        if i == 7 {
            let err = service
                .push_batch_into(ghost_batch(), &mut sink)
                .unwrap_err();
            assert!(matches!(err, CoreError::UnknownSubject(GHOST_SUBJECT)));
        }
    }
    service
        .advance_watermark_into(Timestamp(2200), &mut sink)
        .unwrap();
    let image_len = service.checkpoint_into(&mut sink).unwrap().to_bytes().len();
    assert!(image_len > 0);
    service.shutdown_into(&mut sink).unwrap();
    let state = end_state(&mut service, &ledger_keys, churn_pid);
    (sink, churn_pid, state)
}

/// Run the identical schedule through the TCP edge; returns the decoded
/// deliveries, the churned-in pattern id, and the end state read from
/// the service the server hands back at join.
fn run_over_tcp(n_shards: usize) -> (Vec<Frame>, PatternId, EndState) {
    let (service, ledger_keys) = build_service(n_shards);
    let handle = serve(service, &ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr, "anchor").unwrap();
    assert_eq!(client.n_shards, n_shards as u32);
    client.subscribe(true, true, true).unwrap();
    let all = batches();
    let mut churn_pid = PatternId(u32::MAX);
    for (i, batch) in all.iter().enumerate() {
        client.push_batch(batch.clone()).unwrap();
        if i == 3 {
            client.advance_watermark(Timestamp(300)).unwrap();
        }
        if i == 5 {
            client
                .control(WireCommand::RegisterSubject(SubjectId(CHURN_SUBJECT)))
                .unwrap();
            let pid = client
                .control(WireCommand::RegisterPattern {
                    subject: SubjectId(CHURN_SUBJECT),
                    name: "churn".to_owned(),
                    elements: churn_pattern_elements(),
                })
                .unwrap();
            churn_pid = PatternId(u32::try_from(pid).unwrap());
            client.begin_epoch().unwrap();
        }
        if i == 7 {
            let err = client.push_batch(ghost_batch()).unwrap_err();
            let ClientError::Remote { message, .. } = err else {
                panic!("expected a typed remote rejection, got {err:?}");
            };
            assert!(message.contains(&GHOST_SUBJECT.to_string()));
        }
    }
    client.advance_watermark(Timestamp(2200)).unwrap();
    let image_len = client.checkpoint().unwrap();
    assert!(image_len > 0);
    client.shutdown().unwrap();
    let deliveries = client.take_deliveries();
    let mut service = handle.join();
    let state = end_state(&mut service, &ledger_keys, churn_pid);
    (deliveries, churn_pid, state)
}

/// What the in-process sink *should* look like on the wire.
fn expected_frames(sink: &VecSink) -> Vec<Frame> {
    let mut frames = Vec::new();
    // VecSink keeps three ordered vectors; the wire interleaves them in
    // delivery order. Rebuild the interleaving from the ordering
    // contract: per delivering call, shard releases → answers → merged.
    // Comparing the three streams separately avoids re-deriving call
    // boundaries — see `split` in the assertions below.
    for sr in &sink.shard_releases {
        let r = &sr.release;
        frames.push(Frame::DeliverShard {
            shard: sr.shard as u64,
            record: ReleaseRecord {
                index: r.index as u64,
                start: r.start,
                epoch: r.epoch,
                protected: r.protected.clone(),
                answers: r.answers.iter().map(Into::into).collect(),
                query_ids: r.query_ids.to_vec(),
            },
        });
    }
    for a in &sink.answers {
        frames.push(Frame::DeliverAnswer {
            record: AnswerRecord {
                query: a.query,
                window: a.window as u64,
                epoch: a.epoch,
                answer: (&a.answer).into(),
            },
        });
    }
    for m in &sink.merged {
        frames.push(Frame::DeliverMerged {
            record: MergedRecord {
                index: m.index as u64,
                start: m.start,
                epoch: m.epoch,
                answers_any: m.answers_any.clone(),
                positive_shards: m.positive_shards.iter().map(|&n| n as u64).collect(),
                protected_any: m.protected_any.clone(),
                typed: m
                    .typed_answers()
                    .iter()
                    .map(|(q, a)| (*q, a.into()))
                    .collect(),
            },
        });
    }
    frames
}

/// Split a delivery stream into its three kinds, preserving each kind's
/// internal order (the per-kind order is what the sink contract pins;
/// `expected_frames` concatenates kinds the same way).
fn split(frames: Vec<Frame>) -> Vec<Frame> {
    let mut shards = Vec::new();
    let mut answers = Vec::new();
    let mut merged = Vec::new();
    for f in frames {
        match f {
            Frame::DeliverShard { .. } => shards.push(f),
            Frame::DeliverAnswer { .. } => answers.push(f),
            Frame::DeliverMerged { .. } => merged.push(f),
            other => panic!("non-delivery frame in delivery stream: {other:?}"),
        }
    }
    shards.extend(answers);
    shards.extend(merged);
    shards
}

fn anchor(n_shards: usize) {
    let (sink, pid_a, state_a) = run_in_process(n_shards);
    let (deliveries, pid_b, state_b) = run_over_tcp(n_shards);
    assert_eq!(pid_a, pid_b, "churned-in pattern ids diverge");
    assert_eq!(
        state_a, state_b,
        "post-run service state diverges between in-process and TCP"
    );
    let expected = expected_frames(&sink);
    let got = split(deliveries);
    assert_eq!(
        got.len(),
        expected.len(),
        "delivery counts diverge ({} shard / {} answer / {} merged expected)",
        sink.shard_releases.len(),
        sink.answers.len(),
        sink.merged.len()
    );
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "delivery {i} diverges");
    }
    // the anchor is only meaningful if the schedule actually released
    assert!(!sink.merged.is_empty(), "schedule released no windows");
    assert!(!sink.answers.is_empty(), "schedule answered no queries");
    assert!(state_a.spends.iter().any(Option::is_some));
}

#[test]
fn tcp_edge_is_bit_for_bit_equivalent_inline() {
    anchor(1);
}

#[test]
fn tcp_edge_is_bit_for_bit_equivalent_parallel() {
    anchor(4);
}

/// The same wire schedule twice must also be identical run-to-run (the
/// edge adds no hidden nondeterminism of its own).
#[test]
fn tcp_runs_are_reproducible() {
    let (d1, _, s1) = run_over_tcp(2);
    let (d2, _, s2) = run_over_tcp(2);
    assert_eq!(s1, s2);
    assert_eq!(d1, d2);
}

/// `ServerHandle::join` must imply "every queued reply is flushed": the
/// `pdp-server` binary exits its process right after `join`, so an
/// unflushed ShutdownAck at that point is lost on the wire (the client
/// sees a bare close — this was an intermittent CI failure before the
/// accept thread joined connection threads at teardown).
#[test]
fn join_returns_only_after_the_shutdown_ack_is_flushed() {
    let (service, _) = build_service(1);
    let handle = serve(service, &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr(), "flush-anchor").unwrap();
    client.send_raw(&Frame::Shutdown).unwrap();
    // join without having read the ack: by the time join returns, the
    // connection's writer has flushed and closed, so the ack must
    // already be sitting in our socket buffer
    let service = handle.join();
    assert_eq!(service.events_ingested(), 0);
    match client.read_raw().unwrap() {
        Frame::ShutdownAck { events_ingested } => assert_eq!(events_ingested, 0),
        other => panic!("expected ShutdownAck, got {other:?}"),
    }
}

/// Teardown must not wait on clients: a connection that is connected but
/// idle (its reader parked waiting for a frame) is woken by the
/// read-half shutdown sweep, so `join` still completes and the idle
/// client observes a clean close.
#[test]
fn join_completes_with_an_idle_connection_open() {
    let (service, _) = build_service(1);
    let handle = serve(service, &ServerConfig::default()).unwrap();
    let mut idle = Client::connect(handle.addr(), "idle").unwrap();
    let mut admin = Client::connect(handle.addr(), "admin").unwrap();
    assert_eq!(admin.shutdown().unwrap(), 0);
    let _ = handle.join();
    assert_eq!(idle.read_raw().unwrap_err(), ClientError::Closed);
}

/// Every subject's events at one instant: a push that moves the low
/// watermark for the whole population at once.
fn every_subject_at(ms: i64) -> Vec<KeyedEvent> {
    (0..N_SUBJECTS)
        .map(|s| KeyedEvent::new(SubjectId(s), Event::new(EventType(0), Timestamp(ms))))
        .collect()
}

/// The push that closes a window delivers it before its ack: a merged
/// subscriber already holds the window's `DeliverMerged` frame when
/// `push_batch` returns.
fn push_delivers_the_window_it_closes(n_shards: usize, parallel: bool) {
    let (mut service, _) = build_service(n_shards);
    service.set_parallel(parallel);
    assert_eq!(service.is_parallel(), parallel);
    let handle = serve(service, &ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr(), "same-call").unwrap();
    client.subscribe(false, false, true).unwrap();
    // every subject inside window 0: nothing closes
    client.push_batch(every_subject_at(10)).unwrap();
    assert!(client.take_deliveries().is_empty());
    // the low watermark moves to 110 ms, past window 0's end (100 ms)
    client
        .push_batch(every_subject_at(WINDOW_MS + MAX_DELAY_MS + 10))
        .unwrap();
    let merged: Vec<u64> = client
        .take_deliveries()
        .iter()
        .map(|frame| match frame {
            Frame::DeliverMerged { record } => record.index,
            other => panic!("only merged releases are subscribed, got {other:?}"),
        })
        .collect();
    assert_eq!(merged, vec![0], "the closing push's ack follows its window");
    client.shutdown().unwrap();
    let _ = handle.join();
}

#[test]
fn push_delivers_the_window_it_closes_inline() {
    push_delivers_the_window_it_closes(1, false);
}

#[test]
fn push_delivers_the_window_it_closes_parallel() {
    push_delivers_the_window_it_closes(4, true);
}
