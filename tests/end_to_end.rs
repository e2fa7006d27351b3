//! End-to-end integration: raw streams → CEP → trusted engine → protected
//! answers, across crates.

use pattern_dp_repro::cep::{Detector, Pattern, PatternSet, Semantics};
use pattern_dp_repro::core::{PpmKind, TrustedEngine, TrustedEngineConfig};
use pattern_dp_repro::datasets::{SyntheticConfig, SyntheticDataset, TaxiConfig, TaxiDataset};
use pattern_dp_repro::dp::{DpRng, Epsilon};
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{
    merge_streams, Event, EventStream, EventType, TimeDelta, Timestamp, WindowAssigner,
    WindowedIndicators,
};

fn t(i: u32) -> EventType {
    EventType(i)
}

#[test]
fn raw_streams_to_protected_answers() {
    // two "sensors" → merged stream → windows → trusted engine
    let sensor_a = EventStream::from_unordered(vec![
        Event::new(t(0), Timestamp::from_secs(1)),
        Event::new(t(0), Timestamp::from_secs(61)),
        Event::new(t(0), Timestamp::from_secs(121)),
    ]);
    let sensor_b = EventStream::from_unordered(vec![
        Event::new(t(1), Timestamp::from_secs(2)),
        Event::new(t(2), Timestamp::from_secs(62)),
        Event::new(t(1), Timestamp::from_secs(122)),
    ]);
    let merged = merge_streams(vec![sensor_a, sensor_b]);
    assert_eq!(merged.len(), 6);

    let assigner = WindowAssigner::tumbling(TimeDelta::from_secs(60)).unwrap();
    let windows = WindowedIndicators::from_stream(&merged, &assigner, 3);
    assert_eq!(windows.len(), 3);

    let mut engine = TrustedEngine::new(TrustedEngineConfig {
        n_types: 3,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(1.0).unwrap(),
        },
    });
    engine.register_private_pattern(Pattern::seq("ab", vec![t(0), t(1)]).unwrap());
    let (qid, _) = engine.register_target_query("c?", Pattern::single("c", t(2)));
    engine.setup().unwrap();

    let mut rng = DpRng::seed_from(1);
    let answers = engine.serve(&windows, &mut rng).unwrap();
    assert_eq!(answers[qid.0 as usize].answers, vec![false, true, false]);
}

/// The unprotected CEP detector and the trusted engine under `PassThrough`
/// give the same per-window answers.
#[test]
fn cep_engine_and_trusted_engine_agree_without_protection() {
    let mut patterns = PatternSet::new();
    let p = patterns.insert(Pattern::seq("ab", vec![t(0), t(1)]).unwrap());

    let stream = EventStream::from_unordered(vec![
        Event::new(t(1), Timestamp::from_secs(5)),
        Event::new(t(0), Timestamp::from_secs(10)),
        Event::new(t(0), Timestamp::from_secs(70)),
    ]);
    let assigner = WindowAssigner::tumbling(TimeDelta::from_secs(60)).unwrap();
    let table = Detector::new(patterns, Semantics::Conjunction).detect_stream(&stream, &assigner);
    let unprotected: Vec<bool> = (0..table.n_windows()).map(|w| table.get(w, p)).collect();
    assert_eq!(unprotected, [true, false]);

    let mut engine = TrustedEngine::new(TrustedEngineConfig {
        n_types: 2,
        alpha: Alpha::HALF,
        ppm: PpmKind::PassThrough,
    });
    engine.register_target_query("ab?", Pattern::seq("ab", vec![t(0), t(1)]).unwrap());
    engine.setup().unwrap();
    let windows = WindowedIndicators::from_stream(&stream, &assigner, 2);
    let mut rng = DpRng::seed_from(2);
    let protected = engine.serve(&windows, &mut rng).unwrap();

    assert_eq!(unprotected, protected[0].answers);
}

#[test]
fn synthetic_dataset_flows_through_adaptive_engine() {
    let dataset = SyntheticDataset::generate(
        &SyntheticConfig {
            n_windows: 120,
            ..SyntheticConfig::default()
        },
        77,
    );
    let w = dataset.workload;
    let mut engine = TrustedEngine::new(TrustedEngineConfig {
        n_types: w.n_types,
        alpha: Alpha::HALF,
        ppm: PpmKind::Adaptive {
            eps: Epsilon::new(1.5).unwrap(),
            config: Default::default(),
        },
    });
    // re-register the dataset's patterns through the engine's API
    let mut private_ids = Vec::new();
    for &pid in &w.private {
        private_ids.push(engine.register_private_pattern(w.patterns.get(pid).unwrap().clone()));
    }
    for &tid in &w.target {
        engine.register_target_query("t", w.patterns.get(tid).unwrap().clone());
    }
    engine.provide_history(w.windows.clone());
    engine.setup().unwrap();

    let mut rng = DpRng::seed_from(3);
    let answers = engine.serve(&w.windows, &mut rng).unwrap();
    assert_eq!(answers.len(), w.target.len());
    for a in &answers {
        assert_eq!(a.answers.len(), w.windows.len());
    }
    // every window of the serve is a release of ε = 1.5 (sequential
    // composition per release — the streaming-equivalent accounting)
    let expected = 1.5 * w.windows.len() as f64;
    for &pid in &private_ids {
        assert!((engine.budget_spent(pid).value() - expected).abs() < 1e-9);
    }
}

#[test]
fn taxi_dataset_protection_preserves_uncorrelated_cells() {
    let dataset = TaxiDataset::generate(
        &TaxiConfig {
            grid_side: 8,
            n_taxis: 30,
            n_windows: 50,
            ..TaxiConfig::default()
        },
        5,
    );
    let w = dataset.workload;
    let pipeline = pattern_dp_repro::core::ProtectionPipeline::uniform(
        &w.patterns,
        &w.private,
        Epsilon::new(1.0).unwrap(),
        w.n_types,
    )
    .unwrap();
    let protected_types: std::collections::BTreeSet<u32> = pipeline
        .flip_table()
        .protected_types()
        .iter()
        .map(|ty| ty.0)
        .collect();

    use pattern_dp_repro::core::Mechanism;
    let mut rng = DpRng::seed_from(9);
    let out = pipeline.protect(&w.windows, &mut rng);
    for (win_in, win_out) in w.windows.iter().zip(out.iter()) {
        for ty_idx in 0..w.n_types {
            if !protected_types.contains(&(ty_idx as u32)) {
                assert_eq!(
                    win_in.get(t(ty_idx as u32)),
                    win_out.get(t(ty_idx as u32)),
                    "uncorrelated cell {ty_idx} was perturbed"
                );
            }
        }
    }
}

#[test]
fn multiple_serves_compose_budget_sequentially() {
    let mut engine = TrustedEngine::new(TrustedEngineConfig {
        n_types: 2,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform {
            eps: Epsilon::new(0.25).unwrap(),
        },
    });
    let pid = engine.register_private_pattern(Pattern::single("p", t(0)));
    engine.register_target_query("q", Pattern::single("q", t(1)));
    engine.setup().unwrap();
    let windows =
        WindowedIndicators::new(vec![pattern_dp_repro::stream::IndicatorVector::empty(2); 4]);
    let mut rng = DpRng::seed_from(4);
    for k in 1..=5u32 {
        engine.serve(&windows, &mut rng).unwrap();
        // 4 windows per serve, each window a release of the full ε = 0.25
        assert!(
            (engine.budget_spent(pid).value() - 0.25 * 4.0 * k as f64).abs() < 1e-12,
            "sequential composition after {k} serves"
        );
    }
}
