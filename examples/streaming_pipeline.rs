//! The full streaming service path: late events → reorder buffer → the
//! push-based [`StreamingEngine`] — incremental detection, randomized
//! response at window close, per-release budget accounting, and consumer
//! answers computed on the protected view only.
//!
//! Run with: `cargo run --example streaming_pipeline`
//!
//! [`StreamingEngine`]: pattern_dp_repro::core::StreamingEngine

use pattern_dp_repro::cep::{Pattern, Semantics};
use pattern_dp_repro::core::{
    Answer, PpmKind, StreamingConfig, StreamingEngine, TrustedEngine, TrustedEngineConfig,
};
use pattern_dp_repro::dp::{DpRng, Epsilon};
use pattern_dp_repro::metrics::{Alpha, AuditKey, ConfusionMatrix};
use pattern_dp_repro::stream::{Event, ReorderBuffer, TimeDelta, Timestamp, TypeRegistry};

fn main() {
    let types =
        TypeRegistry::with_names(["badge.exit", "corridor.motion", "hvac.on", "room.motion"]);
    let badge = types.get("badge.exit").unwrap();
    let corridor = types.get("corridor.motion").unwrap();
    let hvac = types.get("hvac.on").unwrap();
    let room = types.get("room.motion").unwrap();

    // 1. Setup phase (§III-A): the data subject declares the private
    //    pattern "badge exit, then corridor motion"; the consumer registers
    //    a target on "hvac on and room motion".
    let mut engine = TrustedEngine::new(TrustedEngineConfig {
        n_types: types.len(),
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(2.0).unwrap(),
        },
    });
    let private_id =
        engine.register_private_pattern(Pattern::seq("left-desk", vec![badge, corridor]).unwrap());
    let (query, target_id) = engine.register_target_query(
        "hvac+room?",
        Pattern::seq("hvac+room", vec![hvac, room]).unwrap(),
    );
    engine.setup().expect("setup completes");
    println!("registered {} event types", types.len());

    // 2. Go online: the streaming engine consumes events one at a time and
    //    releases protected windows every 60 s. The private pattern must
    //    complete within 30 s; that semantics drives the raw detection
    //    side-channel.
    let mut streaming = StreamingEngine::from_engine(
        &engine,
        StreamingConfig {
            window_len: TimeDelta::from_secs(60),
            semantics: Semantics::OrderedWithin(TimeDelta::from_secs(30)),
        },
    )
    .expect("streaming engine builds");
    let mut rng = DpRng::seed_from(5);

    // 3. Raw arrivals, out of order (gateway batching): the reorder buffer
    //    releases them ordered under a 5 s watermark delay, and they flow
    //    straight into the engine.
    let arrivals = vec![
        Event::new(badge, Timestamp::from_secs(3)),
        Event::new(hvac, Timestamp::from_secs(1)), // late by 2 s
        Event::new(corridor, Timestamp::from_secs(8)),
        Event::new(room, Timestamp::from_secs(6)), // late by 2 s
        Event::new(hvac, Timestamp::from_secs(65)),
        Event::new(room, Timestamp::from_secs(70)),
        Event::new(badge, Timestamp::from_secs(80)),
    ];
    let mut reorder = ReorderBuffer::new(TimeDelta::from_secs(5));
    let mut releases = Vec::new();
    let mut pushed = 0usize;
    for arrival in arrivals {
        for event in reorder.push(arrival) {
            releases.extend(streaming.push(&event, &mut rng).expect("ordered input"));
            pushed += 1;
        }
    }
    for event in reorder.flush() {
        releases.extend(streaming.push(&event, &mut rng).expect("ordered input"));
        pushed += 1;
    }
    if let Some(last) = streaming.finish(&mut rng).expect("release succeeds") {
        releases.push(last);
    }
    println!(
        "pushed {pushed} reordered events ({} dropped as too late), {} windows released",
        reorder.dropped(),
        streaming.releases()
    );

    // 4. Every release carries the protected indicator view and the typed
    //    consumer answers (keyed by stable QueryId) computed on the
    //    protected view only. The raw detections are *sealed*: reading
    //    them requires minting an AuditKey — the explicit trusted-boundary
    //    crossing only metering code performs.
    let key = AuditKey::trusted_boundary();
    for r in &releases {
        let (qid, name) = streaming.query_names()[query.0 as usize];
        println!(
            "window {} (start {}): raw private={}, protected answer '{}' ({})={}",
            r.index,
            r.start,
            r.audit().open(&key)[private_id.0 as usize],
            name,
            qid,
            r.answer_for(query).expect("query active"),
        );
    }
    assert!(releases[0].audit().open(&key)[private_id.0 as usize]);

    // hvac/room are uncorrelated with the private pattern, so the consumer
    // answers are exact; only badge/corridor bits carry noise.
    let truth = [true, true];
    let answers: Vec<bool> = releases
        .iter()
        .map(|r| r.answer_for(query) == Some(Answer::Bool(true)))
        .collect();
    assert_eq!(answers, truth);
    println!("target answers exact — only badge/corridor bits carry noise");

    // quality metering on the trusted side: compare each release's sealed
    // raw detection of the target against the protected answer
    let mut confusion = ConfusionMatrix::new();
    for r in &releases {
        let raw_target = r.audit().open(&key)[target_id.0 as usize];
        let protected_target = r.answer_for(query).expect("query active").truthy();
        confusion.record(raw_target, protected_target);
    }
    println!(
        "quality metering over {} windows: precision {:.2}, recall {:.2}",
        confusion.total(),
        confusion.precision(),
        confusion.recall()
    );
    assert_eq!(confusion.total() as usize, releases.len());

    // 5. The ledger recorded one ε = 2.0 release per closed window.
    println!(
        "budget spent on the private pattern: {} over {} releases",
        streaming.budget_spent(private_id),
        streaming.releases()
    );
    assert!(
        (streaming.budget_spent(private_id).value() - 2.0 * streaming.releases() as f64).abs()
            < 1e-12
    );
}
