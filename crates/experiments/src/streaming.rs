//! Streaming variant of the Fig. 4 runner.
//!
//! The batch runner ([`crate::runner`]) protects a fully materialized
//! windowed history in one call. This module drives the same workloads
//! through the **push-based service path** instead: the workload's windows
//! are reconstructed as an ordered event stream
//! ([`WindowedIndicators::to_events`]), replayed event by event into a
//! [`StreamingEngine`], and the protected windows are collected from its
//! releases. Scoring is identical, so the two runners are directly
//! comparable — and because both paths share one protection/accounting core
//! and this module mirrors the batch trial RNG discipline
//! (`rng.fork(trial)`), a streaming cell reproduces its batch counterpart
//! **bit for bit** (asserted in the tests below).
//!
//! Only the pattern-level mechanisms run here: the w-event and landmark
//! baselines are whole-history transforms without an online formulation in
//! this workspace.

use pdp_core::{
    CoreError, PpmKind, StreamingConfig, StreamingEngine, TrustedEngine, TrustedEngineConfig,
};
use pdp_datasets::Workload;
use pdp_dp::DpRng;
use pdp_stream::{IndicatorVector, TimeDelta, Timestamp, WindowedIndicators};

use crate::fig4::{sweep, Dataset, Fig4Config, Fig4Result};
use crate::runner::{history_split, run_trials, MechanismSpec, RunConfig, TrialOutcome};

/// Window length used when reconstructing a workload's windows as an event
/// stream. The value is arbitrary (indicators carry no intra-window
/// timing); it only fixes the replay clock.
pub(crate) const REPLAY_WINDOW: TimeDelta = TimeDelta::from_millis(1_000);

/// Build a set-up [`TrustedEngine`] whose pattern ids mirror
/// `workload.patterns` exactly.
///
/// Patterns are re-registered in id order — private ones as private,
/// queried ones as target queries, any remaining ones as plain patterns —
/// so every `PatternId` in the workload is valid against the engine.
pub(crate) fn engine_for_workload(
    spec: MechanismSpec,
    workload: &Workload,
    config: &RunConfig,
) -> Result<TrustedEngine, CoreError> {
    let ppm = match spec {
        MechanismSpec::Uniform => PpmKind::Uniform { eps: config.eps },
        MechanismSpec::Adaptive => PpmKind::Adaptive {
            eps: config.eps,
            config: config.adaptive,
        },
        other => {
            return Err(CoreError::InvalidDistribution(format!(
                "the streaming service runs pattern-level mechanisms; '{}' is a \
                 whole-history baseline",
                other.label()
            )))
        }
    };
    let mut engine = TrustedEngine::new(TrustedEngineConfig {
        n_types: workload.n_types,
        alpha: config.alpha,
        ppm,
    });
    for (id, pattern) in workload.patterns.iter() {
        let registered = if workload.private.contains(&id) {
            engine.register_private_pattern(pattern.clone())
        } else if workload.target.contains(&id) {
            engine
                .register_target_query(pattern.name(), pattern.clone())
                .1
        } else {
            engine.register_pattern(pattern.clone())
        };
        // hard assert: a silent id mismatch would protect (and budget) the
        // wrong event types while reporting valid-looking scores
        assert_eq!(registered, id, "engine ids must mirror the workload");
    }
    if matches!(spec, MechanismSpec::Adaptive) {
        engine.provide_history(history_split(&workload.windows, config.history_frac));
    }
    engine.setup()?;
    Ok(engine)
}

/// Replay `windows` through a streaming engine and collect the protected
/// view from its releases.
///
/// Watermarks pin the replay to the history's boundaries so leading and
/// trailing empty windows are released too (an absent pattern is exactly
/// what randomized response may flip into a present one).
pub(crate) fn stream_protected_view(
    engine: &TrustedEngine,
    windows: &WindowedIndicators,
    rng: &mut DpRng,
) -> Result<WindowedIndicators, CoreError> {
    let mut streaming =
        StreamingEngine::from_engine(engine, StreamingConfig::tumbling(REPLAY_WINDOW))?;
    let mut protected: Vec<IndicatorVector> = Vec::with_capacity(windows.len());
    let mut push_all = |releases: Vec<pdp_core::WindowRelease>| {
        protected.extend(releases.into_iter().map(|r| r.protected));
    };
    push_all(streaming.advance_watermark(Timestamp::ZERO, rng)?);
    for event in windows.to_events(REPLAY_WINDOW).iter() {
        push_all(streaming.push(event, rng)?);
    }
    let end = Timestamp::from_millis(windows.len() as i64 * REPLAY_WINDOW.millis());
    push_all(streaming.advance_watermark(end, rng)?);
    // hard assert: misaligned window sequences would silently mis-score
    assert_eq!(
        protected.len(),
        windows.len(),
        "replay must release exactly one window per input window"
    );
    Ok(WindowedIndicators::new(protected))
}

/// Run one (workload, mechanism, ε) cell through the streaming service.
///
/// The trial discipline mirrors [`crate::runner::run_cell`]: same master
/// seed, same per-trial forks — so for the pattern-level mechanisms the
/// outcome is identical to the batch cell.
pub(crate) fn run_cell_streaming(
    spec: MechanismSpec,
    workload: &Workload,
    config: &RunConfig,
    seed: u64,
) -> Result<TrialOutcome, CoreError> {
    let engine = engine_for_workload(spec, workload, config)?;
    run_trials(spec, workload, config, seed, |rng| {
        stream_protected_view(&engine, &workload.windows, rng)
    })
}

/// The pattern-level subset of a mechanism list (what the streaming
/// service can run).
pub(crate) fn streaming_mechanisms(specs: &[MechanismSpec]) -> Vec<MechanismSpec> {
    specs
        .iter()
        .copied()
        .filter(|s| matches!(s, MechanismSpec::Uniform | MechanismSpec::Adaptive))
        .collect()
}

/// The Fig. 4 sweep, served by the streaming engine.
///
/// Mirrors [`crate::fig4::run_fig4`] cell for cell — same seeds, same
/// repeated-dataset aggregation under `n_datasets > 1` — except that
/// baseline mechanisms absent from the streaming service are skipped
/// (announced on stderr so a diff against the batch output is
/// explainable).
pub fn run_fig4_streaming(dataset: Dataset, config: &Fig4Config) -> Fig4Result {
    run_fig4_online(dataset, config, "streaming", run_cell_streaming)
}

/// The Fig. 4 sweep for the online serve fronts (streaming and sharded):
/// announce the skipped whole-history baselines, then run
/// [`crate::fig4`]'s one sweep over the pattern-level mechanisms.
pub(crate) fn run_fig4_online(
    dataset: Dataset,
    config: &Fig4Config,
    label: &str,
    run_cell: impl Fn(MechanismSpec, &Workload, &RunConfig, u64) -> Result<TrialOutcome, CoreError>,
) -> Fig4Result {
    let online = streaming_mechanisms(&config.mechanisms);
    let skipped: Vec<&str> = config
        .mechanisms
        .iter()
        .filter(|s| !online.contains(s))
        .map(|s| s.label())
        .collect();
    if !skipped.is_empty() {
        eprintln!(
            "{label} fig4: skipping whole-history baselines [{}] — only \
             pattern-level mechanisms run online",
            skipped.join(", ")
        );
    }
    sweep(
        dataset,
        config,
        &online,
        &format!("{}+{}", dataset.label(), label),
        run_cell,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;
    use pdp_datasets::{SyntheticConfig, SyntheticDataset};
    use pdp_dp::Epsilon;

    fn workload() -> Workload {
        SyntheticDataset::generate(
            &SyntheticConfig {
                n_windows: 100,
                forced_overlap: Some(0.6),
                ..SyntheticConfig::default()
            },
            31,
        )
        .workload
    }

    #[test]
    fn baselines_are_rejected() {
        let w = workload();
        let config = RunConfig::at_eps(Epsilon::new(1.0).unwrap());
        assert!(run_cell_streaming(MechanismSpec::Bd, &w, &config, 1).is_err());
        assert_eq!(
            streaming_mechanisms(&MechanismSpec::fig4_set()),
            vec![MechanismSpec::Uniform, MechanismSpec::Adaptive]
        );
    }

    #[test]
    fn streaming_cell_reproduces_batch_cell_exactly() {
        let w = workload();
        let mut config = RunConfig::at_eps(Epsilon::new(1.0).unwrap());
        config.trials = 5;
        for spec in [MechanismSpec::Uniform, MechanismSpec::Adaptive] {
            let batch = run_cell(spec, &w, &config, 77).expect("batch cell runs");
            let streamed = run_cell_streaming(spec, &w, &config, 77).expect("streaming cell runs");
            assert_eq!(batch.q_ord, streamed.q_ord, "{}", spec.label());
            assert_eq!(batch.q_ppm, streamed.q_ppm, "{}", spec.label());
            assert_eq!(batch.mre.mean, streamed.mre.mean, "{}", spec.label());
        }
    }

    #[test]
    fn streaming_sweep_covers_grid() {
        let config = Fig4Config {
            eps_grid: vec![0.5, 4.0],
            trials: 3,
            mechanisms: vec![MechanismSpec::Uniform, MechanismSpec::Bd],
            synthetic: SyntheticConfig {
                n_windows: 60,
                forced_overlap: Some(0.6),
                ..SyntheticConfig::default()
            },
            ..Fig4Config::default()
        };
        let r = run_fig4_streaming(Dataset::Synthetic, &config);
        assert_eq!(r.dataset, "synthetic+streaming");
        // Bd is filtered out
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].points.len(), 2);
        let table = r.to_table();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn streaming_sweep_matches_batch_under_multi_dataset_aggregation() {
        let config = Fig4Config {
            eps_grid: vec![1.0],
            trials: 3,
            n_datasets: 3,
            mechanisms: vec![MechanismSpec::Uniform],
            synthetic: SyntheticConfig {
                n_windows: 60,
                forced_overlap: Some(0.6),
                ..SyntheticConfig::default()
            },
            ..Fig4Config::default()
        };
        let batch = crate::fig4::run_fig4(Dataset::Synthetic, &config);
        let streamed = run_fig4_streaming(Dataset::Synthetic, &config);
        let b = &batch.series[0].points[0];
        let s = &streamed.series[0].points[0];
        // the summary spans the 3 per-dataset means in both runners …
        assert_eq!(b.mre.n, 3);
        assert_eq!(s.mre.n, 3);
        // … and the shared protection core makes them identical
        assert_eq!(b.mre.mean, s.mre.mean);
        assert_eq!(b.q_ppm, s.q_ppm);
    }
}
