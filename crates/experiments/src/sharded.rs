//! Sharded-service variant of the Fig. 4 runner.
//!
//! [`crate::streaming`] replays a workload through one push-based
//! [`StreamingEngine`](pdp_core::StreamingEngine); this module replays it
//! through the **sharded multi-tenant service**
//! ([`pdp_core::ShardedService`]) instead. Every event type is treated as
//! one data subject (the synthetic and taxi generators model exactly one
//! source per type), each private pattern is declared by the subject of
//! its first element, and the whole population is hash-partitioned across
//! `n_shards`.
//!
//! With **one shard** the service is bit-for-bit the streaming engine
//! (asserted in the tests below), so a `--sharded` run with the default
//! shard count reproduces the batch Fig. 4 cells exactly — the anchor
//! that ingestion batching, subject routing and the reorder buffer add no
//! semantic drift. With **N > 1 shards** each shard protects and releases
//! its own partition and the scored view is the population-level merge
//! (per-type disjunction across shards): quality degrades with the shard
//! count because every shard spends its own randomized response on the
//! full type universe — the measured cost of partitioned serving, not a
//! bug.

use pdp_core::{
    CoreError, KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig, StreamingConfig, SubjectId,
};
use pdp_datasets::Workload;
use pdp_dp::DpRng;
use pdp_stream::{EventType, IndicatorVector, TimeDelta, Timestamp, WindowedIndicators};

use crate::fig4::{Dataset, Fig4Config, Fig4Result};
use crate::runner::{history_split, run_trials, MechanismSpec, RunConfig, TrialOutcome};
use crate::streaming::REPLAY_WINDOW;

/// How many events each `push_batch` call carries during a replay (the
/// batching is semantically invisible; this just exercises the batched
/// ingestion path with realistic chunk sizes).
pub(crate) const REPLAY_BATCH: usize = 256;

/// Build a set-up [`ServiceBuilder`] whose pattern ids mirror
/// `workload.patterns` exactly, with one registered subject per event
/// type and each private pattern declared by its first element's subject.
pub(crate) fn service_for_workload(
    spec: MechanismSpec,
    workload: &Workload,
    config: &RunConfig,
    n_shards: usize,
    seed: u64,
) -> Result<ServiceBuilder, CoreError> {
    let ppm = match spec {
        MechanismSpec::Uniform => PpmKind::Uniform { eps: config.eps },
        MechanismSpec::Adaptive => PpmKind::Adaptive {
            eps: config.eps,
            config: config.adaptive,
        },
        other => {
            return Err(CoreError::InvalidDistribution(format!(
                "the sharded service runs pattern-level mechanisms; '{}' is a \
                 whole-history baseline",
                other.label()
            )))
        }
    };
    let mut builder = ServiceBuilder::new(ServiceConfig {
        n_shards,
        n_types: workload.n_types,
        alpha: config.alpha,
        ppm,
        streaming: StreamingConfig::tumbling(REPLAY_WINDOW),
        max_delay: TimeDelta::ZERO,
        seed,
        // replays are static (no epoch transitions): no sliding history
        history_window: 0,
    })?;
    for ty in 0..workload.n_types {
        builder.register_subject(SubjectId(ty as u64));
    }
    for (id, pattern) in workload.patterns.iter() {
        let registered = if workload.private.contains(&id) {
            let subject = replay_subject(pattern.elements()[0]);
            builder.register_private_pattern(subject, pattern.clone())
        } else if workload.target.contains(&id) {
            builder
                .register_target_query(pattern.name(), pattern.clone())
                .1
        } else {
            builder.register_pattern(pattern.clone())
        };
        // a silent id mismatch would protect (and budget) the wrong event
        // types while reporting valid-looking scores
        assert_eq!(registered, id, "service must mirror workload ids");
    }
    if matches!(spec, MechanismSpec::Adaptive) {
        builder.provide_history(history_split(&workload.windows, config.history_frac));
    }
    Ok(builder)
}

/// Replay `windows` through a sharded service and collect the
/// population-level protected view: the per-type disjunction of the shard
/// releases at each window index.
pub(crate) fn sharded_protected_view(
    builder: ServiceBuilder,
    windows: &WindowedIndicators,
    n_shards: usize,
    rng: &mut DpRng,
) -> Result<WindowedIndicators, CoreError> {
    let rngs = if n_shards == 1 {
        // hand the trial RNG straight to the single shard: bit-for-bit the
        // plain streaming replay
        vec![rng.clone()]
    } else {
        (0..n_shards).map(|s| rng.fork(s as u64)).collect()
    };
    let mut service = builder.build_with_rngs(rngs)?;
    let n_types = windows.n_types();
    let keyed: Vec<KeyedEvent> = windows
        .to_events(REPLAY_WINDOW)
        .into_events()
        .into_iter()
        .map(|event| KeyedEvent::new(replay_subject(event.ty), event))
        .collect();
    let mut merged: Vec<IndicatorVector> = vec![IndicatorVector::empty(n_types); windows.len()];
    let mut fold = |out: pdp_core::BatchOutput| {
        for sr in out.shard_releases {
            let w = sr.release.index;
            assert!(w < merged.len(), "replay stays within the history");
            for ty in sr.release.protected.present_types() {
                merged[w].set(ty, true);
            }
        }
    };
    for chunk in keyed.chunks(REPLAY_BATCH) {
        fold(service.push_batch(chunk.to_vec())?);
    }
    let end = Timestamp::from_millis(windows.len() as i64 * REPLAY_WINDOW.millis());
    fold(service.advance_watermark(end)?);
    // the replay clock pins every shard to exactly one release per window
    let per_shard = service.releases_per_shard();
    assert!(
        per_shard.iter().all(|&r| r == windows.len()),
        "every shard must release one window per input window, got {per_shard:?}"
    );
    // single shard: the merge is the identity, keep the 1:1 protected view
    Ok(WindowedIndicators::new(merged))
}

/// Run one (workload, mechanism, ε) cell through the sharded service.
///
/// Same trial discipline as [`crate::runner::run_cell`] and
/// [`crate::streaming::run_cell_streaming`]: master seed, per-trial forks.
pub(crate) fn run_cell_sharded(
    spec: MechanismSpec,
    workload: &Workload,
    config: &RunConfig,
    seed: u64,
    n_shards: usize,
) -> Result<TrialOutcome, CoreError> {
    if n_shards == 0 {
        return Err(CoreError::InvalidService("zero shards requested".into()));
    }
    run_trials(spec, workload, config, seed, |rng| {
        let builder = service_for_workload(spec, workload, config, n_shards, seed)?;
        sharded_protected_view(builder, &workload.windows, n_shards, rng)
    })
}

/// The Fig. 4 sweep, served by the sharded service at `n_shards`.
///
/// Same scaffolding as [`crate::streaming::run_fig4_streaming`]
/// (identical seeds, aggregation and baseline skipping — shared via
/// `run_fig4_online`), so a 1-shard sweep matches the streaming sweep
/// cell for cell.
pub fn run_fig4_sharded(dataset: Dataset, config: &Fig4Config, n_shards: usize) -> Fig4Result {
    crate::streaming::run_fig4_online(
        dataset,
        config,
        &format!("sharded{n_shards}"),
        |spec, workload, run, seed| run_cell_sharded(spec, workload, run, seed, n_shards),
    )
}

/// The per-type subject assignment of the replay (`SubjectId` = type id).
pub(crate) fn replay_subject(ty: EventType) -> SubjectId {
    SubjectId(ty.0 as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::run_cell_streaming;
    use pdp_datasets::{SyntheticConfig, SyntheticDataset};
    use pdp_dp::Epsilon;

    fn workload() -> Workload {
        SyntheticDataset::generate(
            &SyntheticConfig {
                n_windows: 80,
                forced_overlap: Some(0.6),
                ..SyntheticConfig::default()
            },
            23,
        )
        .workload
    }

    #[test]
    fn baselines_are_rejected() {
        let w = workload();
        let config = RunConfig::at_eps(Epsilon::new(1.0).unwrap());
        assert!(run_cell_sharded(MechanismSpec::Bd, &w, &config, 1, 1).is_err());
        assert!(run_cell_sharded(MechanismSpec::Uniform, &w, &config, 1, 0).is_err());
    }

    #[test]
    fn one_shard_reproduces_the_streaming_cell_exactly() {
        let w = workload();
        let mut config = RunConfig::at_eps(Epsilon::new(1.0).unwrap());
        config.trials = 4;
        for spec in [MechanismSpec::Uniform, MechanismSpec::Adaptive] {
            let streamed = run_cell_streaming(spec, &w, &config, 55).expect("streaming cell");
            let sharded = run_cell_sharded(spec, &w, &config, 55, 1).expect("sharded cell");
            assert_eq!(streamed.q_ord, sharded.q_ord, "{}", spec.label());
            assert_eq!(streamed.q_ppm, sharded.q_ppm, "{}", spec.label());
            assert_eq!(streamed.mre.mean, sharded.mre.mean, "{}", spec.label());
        }
    }

    #[test]
    fn multi_shard_cells_run_and_score_sanely() {
        let w = workload();
        let mut config = RunConfig::at_eps(Epsilon::new(2.0).unwrap());
        config.trials = 3;
        let four = run_cell_sharded(MechanismSpec::Uniform, &w, &config, 9, 4).unwrap();
        assert!(four.q_ppm.is_finite());
        assert!((0.0..=1.0).contains(&four.q_ppm), "{}", four.q_ppm);
        assert!(four.mre.mean >= 0.0);
    }

    #[test]
    fn sharded_sweep_covers_grid_and_labels_dataset() {
        let config = Fig4Config {
            eps_grid: vec![0.5, 4.0],
            trials: 2,
            mechanisms: vec![MechanismSpec::Uniform, MechanismSpec::Bd],
            synthetic: SyntheticConfig {
                n_windows: 50,
                forced_overlap: Some(0.6),
                ..SyntheticConfig::default()
            },
            ..Fig4Config::default()
        };
        let r = run_fig4_sharded(Dataset::Synthetic, &config, 2);
        assert_eq!(r.dataset, "synthetic+sharded2");
        assert_eq!(r.series.len(), 1, "Bd filtered out");
        assert_eq!(r.series[0].points.len(), 2);
    }
}
