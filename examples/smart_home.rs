//! A smart-home CEP scenario exercising the full event-stream pipeline:
//! raw sensor streams → merge → windows → ordered sequence detection →
//! pattern-level protection.
//!
//! Two sensors stream events: a door sensor and a motion sensor. The
//! private pattern is the ordered sequence `door.open → motion.hallway →
//! door.close` ("someone left the house"); the utility query is the pattern
//! `motion.kitchen` (used by the heating controller). Pattern-level DP
//! protects the leave-home sequence without touching the kitchen events.
//!
//! Run with: `cargo run --example smart_home`

use pdp_cep::{Detector, Pattern, PatternSet, Semantics};
use pdp_core::{PpmKind, TrustedEngine, TrustedEngineConfig};
use pdp_dp::{DpRng, Epsilon};
use pdp_metrics::Alpha;
use pdp_stream::{
    merge_streams, Event, EventStream, TimeDelta, Timestamp, TypeRegistry, WindowAssigner,
    WindowedIndicators,
};

fn main() {
    let types = TypeRegistry::with_names([
        "door.open",
        "door.close",
        "motion.hallway",
        "motion.kitchen",
    ]);
    let door_open = types.get("door.open").unwrap();
    let door_close = types.get("door.close").unwrap();
    let hallway = types.get("motion.hallway").unwrap();
    let kitchen = types.get("motion.kitchen").unwrap();

    // --- raw sensor streams (seconds-resolution timestamps) ---------------
    let door_stream = EventStream::from_unordered(vec![
        Event::new(door_open, Timestamp::from_secs(5)),
        Event::new(door_close, Timestamp::from_secs(9)),
        Event::new(door_open, Timestamp::from_secs(125)),
        Event::new(door_close, Timestamp::from_secs(127)),
    ]);
    let motion_stream = EventStream::from_unordered(vec![
        Event::new(hallway, Timestamp::from_secs(7)),
        Event::new(kitchen, Timestamp::from_secs(42)),
        Event::new(kitchen, Timestamp::from_secs(65)),
        Event::new(hallway, Timestamp::from_secs(126)),
        Event::new(kitchen, Timestamp::from_secs(180)),
    ]);
    let merged = merge_streams(vec![door_stream, motion_stream]);
    println!("merged stream carries {} events", merged.len());

    // --- unprotected CEP: ordered sequence detection per 60 s window ------
    let mut patterns = PatternSet::new();
    let leave_home =
        patterns.insert(Pattern::seq("leave-home", vec![door_open, hallway, door_close]).unwrap());
    patterns.insert(Pattern::single("cooking", kitchen));
    let assigner = WindowAssigner::tumbling(TimeDelta::from_secs(60)).unwrap();
    let detector = Detector::new(patterns, Semantics::Ordered);
    let unprotected = detector.detect_stream(&merged, &assigner);
    let per_window = |id| -> Vec<bool> {
        (0..unprotected.n_windows())
            .map(|w| unprotected.get(w, id))
            .collect()
    };
    for (id, pattern) in detector.patterns().iter() {
        println!("unprotected {:<10} → {:?}", pattern.name(), per_window(id));
    }
    // window 0 (0–60 s): open → hallway → close  ⇒ leave-home detected
    assert_eq!(per_window(leave_home), vec![true, false, true, false]);

    // --- protected service through the trusted engine ---------------------
    let mut engine = TrustedEngine::new(TrustedEngineConfig {
        n_types: types.len(),
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(2.0).unwrap(),
        },
    });
    engine.register_private_pattern(
        Pattern::seq("leave-home", vec![door_open, hallway, door_close]).unwrap(),
    );
    engine.register_target_query("cooking?", Pattern::single("cooking", kitchen));
    engine.setup().unwrap();

    let windows = WindowedIndicators::from_stream(&merged, &assigner, types.len());
    let mut rng = DpRng::seed_from(11);
    let answers = engine.serve(&windows, &mut rng).unwrap();
    println!(
        "protected  {:<9} → {:?}",
        answers[0].name, answers[0].answers
    );

    // kitchen events are uncorrelated with the private pattern: the
    // heating controller's answers are exact despite the protection
    // (kitchen motion occurred in windows 0, 1 and 3).
    assert_eq!(answers[0].answers, vec![true, true, false, true]);
    println!("kitchen answers are exact — pattern-level DP left them untouched");
}
