//! The sharded multi-tenant service end to end: several data subjects
//! (tenants) register private patterns, a consumer registers population
//! queries, and ingestion arrives in batches with bounded out-of-order
//! jitter. Events are hash-partitioned by subject across shards; the
//! global low watermark keeps every shard releasing aligned windows; the
//! consumer reads the *merged* (population-level) protected answers; and
//! every subject's pattern-level ε spend is accounted in their own ledger.
//!
//! Mid-stream, the **control plane** reconfigures the live service: a new
//! tenant joins with a private pattern, an existing tenant withdraws
//! theirs, and `begin_epoch` compiles the staged commands into a plan all
//! shards switch to on one window boundary.
//!
//! Run with: `cargo run --example sharded_service`

use pattern_dp_repro::cep::Pattern;
use pattern_dp_repro::core::{
    Answer, CountQuery, KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig, StreamingConfig,
    SubjectId, VecSink,
};
use pattern_dp_repro::dp::{DpRng, Epsilon};
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{Event, EventType, TimeDelta, Timestamp};

// Event-type universe of a small smart building.
const BADGE_EXIT: EventType = EventType(0);
const CORRIDOR_MOTION: EventType = EventType(1);
const HVAC_ON: EventType = EventType(2);
const ROOM_MOTION: EventType = EventType(3);
const DOOR_OPEN: EventType = EventType(4);

fn main() {
    // ---- setup phase (§III-A): subjects and consumers register ----
    let mut builder = ServiceBuilder::new(ServiceConfig {
        n_shards: 4,
        n_types: 5,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(2.0).unwrap(),
        },
        streaming: StreamingConfig::tumbling(TimeDelta::from_secs(60)),
        max_delay: TimeDelta::from_secs(10),
        seed: 7,
        history_window: 64,
    })
    .expect("valid service config");

    // Tenant 11 does not want their leaving-the-office routine visible.
    let alice = SubjectId(11);
    let alice_pattern = builder.register_private_pattern(
        alice,
        Pattern::seq("leaves-office", vec![BADGE_EXIT, CORRIDOR_MOTION]).unwrap(),
    );
    // Tenant 23 protects nightly door activity.
    let bo = SubjectId(23);
    let bo_pattern =
        builder.register_private_pattern(bo, Pattern::single("door-activity", DOOR_OPEN));
    // Tenant 35 just emits data.
    let carol = SubjectId(35);
    builder.register_subject(carol);

    // The building-operations consumer asks population-level questions —
    // a boolean pattern query and a §VII count query, registered through
    // the same registry under stable QueryIds.
    let (hvac_q, hvac_pid) = builder.register_target_query(
        "hvac-while-occupied?",
        Pattern::seq("hvac+motion", vec![HVAC_ON, ROOM_MOTION]).unwrap(),
    );
    let busy_q = builder.register_extension_query(
        "occupied-last3",
        &CountQuery::new(hvac_pid, 3).expect("valid horizon"),
    );

    let mut service = builder.build().expect("setup completes");
    println!("consumer queries (stable ids): {:?}", service.query_names());
    println!("service online: {} shards", service.n_shards());
    for subject in service.subjects() {
        println!(
            "  {subject} -> shard {}",
            service.subject_shard(subject).unwrap()
        );
    }

    // ---- service phase: batched, jittered ingestion ----
    let mut rng = DpRng::seed_from(42);
    let mut clock = 0i64;
    let mut merged_windows = 0usize;
    let dana = SubjectId(47);
    let mut dana_pattern = None;
    let mut tenants = vec![alice, bo, carol];
    for batch_no in 0..6 {
        // ---- runtime churn: after the third batch, reconfigure live ----
        if batch_no == 3 {
            // a new tenant joins with their own private pattern …
            dana_pattern = Some(
                service
                    .register_private_pattern(dana, Pattern::single("room-presence", ROOM_MOTION)),
            );
            // … and bo withdraws theirs (spend stays on the books)
            service
                .revoke_private_pattern(bo, bo_pattern)
                .expect("bo owns the pattern");
            let transition = service
                .begin_epoch()
                .expect("transition compiles")
                .expect("commands were staged");
            println!(
                "\nepoch {} begins at window {} (all shards switch together)\n",
                transition.plan.epoch, transition.activation_index
            );
            tenants.push(dana);
        }
        let mut batch = Vec::new();
        for _ in 0..40 {
            clock += 1_500; // ~1.5 s between readings
            let subject = tenants[rng.below(tenants.len())];
            let ty = EventType(rng.below(5) as u32);
            // up to 8 s of delivery jitter — inside the 10 s bound
            let jitter = rng.below(8_000) as i64;
            batch.push(KeyedEvent::new(
                subject,
                Event::new(ty, Timestamp::from_millis((clock - jitter).max(0))),
            ));
        }
        // consumers subscribe per stable QueryId and receive typed,
        // id-keyed answer records — positions never shift under churn
        let mut sink = VecSink::subscribed([hvac_q, busy_q]);
        service
            .push_batch_into(batch, &mut sink)
            .expect("ingestion");
        merged_windows += sink.merged.len();
        for record in &sink.answers {
            match (&record.answer, record.query) {
                (Answer::Bool(true), q) if q == hvac_q => println!(
                    "batch {batch_no}: window {} (epoch {}) — HVAC ran while occupied",
                    record.window, record.epoch,
                ),
                (Answer::Count(n), q) if q == busy_q && *n >= 2 => println!(
                    "batch {batch_no}: window {} — occupied in {n} of the last 3 windows",
                    record.window,
                ),
                _ => {}
            }
        }
    }
    let mut sink = VecSink::subscribed([hvac_q, busy_q]);
    service.finish_into(&mut sink).expect("drain");
    merged_windows += sink.merged.len();
    // id-keyed reads work on merged rows too, across the epoch change
    if let Some(last) = sink.merged.last() {
        println!(
            "final window {}: hvac={:?}, occupied-count={:?}",
            last.index,
            last.answer_for(hvac_q).expect("active"),
            last.answer_for(busy_q).expect("active"),
        );
    }

    // ---- what the trusted side can audit ----
    println!(
        "\ningested {} events ({} arrived too late and were dropped)",
        service.events_ingested(),
        service.dropped()
    );
    println!("released {merged_windows} merged (population-level) windows");
    let spent = |subject: SubjectId, pattern| {
        service
            .budget_spent(subject, pattern)
            .map(|e| format!("ε = {:.2}", e.value()))
            .unwrap_or_else(|| "no such ledger entry".to_owned())
    };
    println!(
        "alice spent {} on 'leaves-office' (her ledger only)",
        spent(alice, alice_pattern)
    );
    println!(
        "bo    spent {} on 'door-activity' (frozen at revocation, never refunded)",
        spent(bo, bo_pattern)
    );
    println!(
        "dana  spent {} on 'room-presence' (charged only since epoch 1)",
        spent(dana, dana_pattern.expect("registered in the churn step"))
    );
    println!(
        "carol: {} (no private pattern registered)",
        spent(carol, alice_pattern)
    );
}
