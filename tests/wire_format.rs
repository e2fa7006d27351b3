//! The durable byte formats pinned: a checkpoint image and its
//! write-ahead log. (The network frames are pinned the same way in
//! `pdp_server::frame`'s tests.)
//!
//! Every other durability test is a round trip, which a codec that
//! changed its encoder and decoder in step would still pass. Here each
//! file's FNV-1a digest is a constant, captured before the durability
//! and network codecs were merged: a change to how any field is laid out
//! fails this file, so a format change has to come with a new checkpoint
//! or WAL magic.
//!
//! Also here: counters that exceed any plausible collection length still
//! round-trip through a checkpoint file.

use std::path::PathBuf;

use pattern_dp_repro::cep::Pattern;
use pattern_dp_repro::core::{
    fnv1a, read_checkpoint, write_checkpoint, KeyedEvent, PpmKind, ServiceBuilder,
    ServiceCheckpoint, ServiceConfig, ShardedService, StreamingConfig, SubjectId, VecSink,
    WalWriter,
};
use pattern_dp_repro::dp::Epsilon;
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{
    AttrValue, Event, EventType, IndicatorVector, TimeDelta, Timestamp, WindowedIndicators,
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdp-wire-format-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `fnv1a` of the checkpoint file [`durable_run`] writes.
const CHECKPOINT_DIGEST: u64 = 0x84ee_1f0f_93ca_f9b6;
/// `fnv1a` of the WAL file [`durable_run`] leaves behind.
const WAL_DIGEST: u64 = 0x371d_6750_5a46_f825;

fn config() -> ServiceConfig {
    ServiceConfig {
        n_shards: 2,
        n_types: 5,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(1.0).unwrap(),
        },
        streaming: StreamingConfig::tumbling(TimeDelta::from_millis(10)),
        max_delay: TimeDelta::from_millis(5),
        seed: 41,
        history_window: 16,
    }
}

fn service() -> ShardedService {
    let mut b = ServiceBuilder::new(config()).unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p1", vec![t(0), t(1)]).unwrap());
    b.register_private_pattern(SubjectId(2), Pattern::single("p2", t(3)));
    b.register_subject(SubjectId(3));
    b.register_target_query("t2?", Pattern::single("t2", t(2)));
    let mut svc = b.build().unwrap();
    svc.set_parallel(false);
    svc
}

/// A small fixed schedule with a WAL attached: batches (one with every
/// attribute kind), control commands, an epoch transition and a
/// watermark, a checkpoint, then more input and the finish. Returns the
/// checkpoint image and the bytes of the checkpoint and WAL files.
fn durable_run(tag: &str) -> (ServiceCheckpoint, Vec<u8>, Vec<u8>) {
    let dir = scratch(tag);
    let wal_path = dir.join("service.wal");
    let ckpt_path = dir.join("service.ckpt");
    let mut svc = service();
    svc.attach_wal(WalWriter::create(&wal_path).unwrap());
    let mut sink = VecSink::all();
    let tagged = Event::new(t(2), Timestamp::from_millis(7))
        .with_attr("int", AttrValue::Int(-3))
        .with_attr("float", AttrValue::Float(0.5))
        .with_attr("str", AttrValue::Str("x".into()))
        .with_attr("bool", AttrValue::Bool(false))
        .with_attr("loc", AttrValue::Location(3.0, 4.0));
    svc.push_batch_into(
        vec![
            ke(1, 0, 2),
            ke(2, 3, 4),
            KeyedEvent::new(SubjectId(3), tagged),
            ke(1, 1, 8),
        ],
        &mut sink,
    )
    .unwrap();
    svc.push_batch_into(vec![ke(3, 2, 26), ke(1, 0, 29), ke(2, 3, 33)], &mut sink)
        .unwrap();
    svc.add_consumer_query("t4?", Pattern::single("t4", t(4)));
    svc.register_subject(SubjectId(9));
    svc.provide_history(WindowedIndicators::new(vec![
        IndicatorVector::from_present([t(0), t(2)], 5),
        IndicatorVector::from_present([t(1)], 5),
    ]));
    svc.begin_epoch().unwrap().expect("churn staged");
    svc.advance_watermark_into(Timestamp::from_millis(40), &mut sink)
        .unwrap();
    svc.push_batch_into(vec![ke(1, 1, 55), ke(9, 2, 58), ke(2, 3, 61)], &mut sink)
        .unwrap();
    let checkpoint = svc.checkpoint_into(&mut sink).unwrap();
    write_checkpoint(&ckpt_path, &checkpoint).unwrap();
    svc.push_batch_into(vec![ke(9, 4, 80), ke(1, 0, 84)], &mut sink)
        .unwrap();
    svc.finish_into(&mut sink).unwrap();
    drop(svc);
    let ckpt = std::fs::read(&ckpt_path).unwrap();
    let wal = std::fs::read(&wal_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (checkpoint, ckpt, wal)
}

#[test]
fn checkpoint_and_wal_keep_their_bytes() {
    let (_, ckpt, wal) = durable_run("golden");
    assert_eq!(fnv1a(&ckpt), CHECKPOINT_DIGEST, "checkpoint bytes moved");
    assert_eq!(fnv1a(&wal), WAL_DIGEST, "wal bytes moved");
}

/// Event counters, window indexes and release counts grow without bound
/// in a long-running service; none of them is a collection length, so
/// no length rule may reject them.
#[test]
fn large_counters_survive_a_checkpoint_file() {
    let (checkpoint, _, _) = durable_run("counters");
    assert!(
        !checkpoint.activations.is_empty(),
        "the schedule has an epoch"
    );
    let dir = scratch("counters-file");
    let path = dir.join("service.ckpt");
    for big in [1usize << 31, 1 << 40] {
        let mut image = checkpoint.clone();
        for shard in &mut image.shards {
            shard.engine.events_seen = big;
            shard.engine.detector.emitted = big + 1;
        }
        for meta in &mut image.meta {
            meta.released = big + 2;
        }
        image.merge.next_index = big + 3;
        for (index, _) in &mut image.activations {
            *index = big + 4;
        }
        write_checkpoint(&path, &image).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), image, "counters at {big}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
