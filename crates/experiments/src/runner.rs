//! Shared experiment machinery: mechanism construction, trial execution,
//! MRE scoring.

use serde::Serialize;

use pdp_baselines::{
    convert_budget, BudgetAbsorption, BudgetDistributionMechanism, ConversionPolicy, FullStreamRr,
    LandmarkPrivacy,
};
use pdp_cep::PatternId;
use pdp_core::{AdaptiveConfig, CoreError, Mechanism, ProtectionPipeline, QualityModel};
use pdp_datasets::Workload;
use pdp_dp::{DpRng, Epsilon};
use pdp_metrics::{Alpha, ConfusionMatrix, QualityReport};
use pdp_stream::{EventType, WindowedIndicators};

use crate::stats::Summary;

/// Which mechanism a run uses. All budgets are **pattern-level** ε; the
/// baselines convert internally (§VI-A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismSpec {
    /// §V-A uniform pattern-level PPM.
    Uniform,
    /// §V-B adaptive pattern-level PPM (Algorithm 1).
    Adaptive,
    /// w-event Budget Distribution.
    Bd,
    /// w-event Budget Absorption.
    Ba,
    /// Landmark privacy (adaptive allocation).
    Landmark,
    /// Whole-stream randomized response (ablation reference).
    FullRr,
    /// Event-level DP (Dwork et al.): full ε per single event (ablation
    /// reference — a *weaker* guarantee, shown for the related-work lineup).
    EventLevel,
    /// User-level DP: ε stretched over the whole stream horizon (ablation
    /// reference — a *stronger* guarantee, impractical on streams).
    UserLevel,
}

impl MechanismSpec {
    /// Display name used in tables (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            MechanismSpec::Uniform => "uniform",
            MechanismSpec::Adaptive => "adaptive",
            MechanismSpec::Bd => "bd",
            MechanismSpec::Ba => "ba",
            MechanismSpec::Landmark => "landmark",
            MechanismSpec::FullRr => "full-rr",
            MechanismSpec::EventLevel => "event-level",
            MechanismSpec::UserLevel => "user-level",
        }
    }

    /// The five mechanisms of Fig. 4.
    pub fn fig4_set() -> [MechanismSpec; 5] {
        [
            MechanismSpec::Uniform,
            MechanismSpec::Adaptive,
            MechanismSpec::Bd,
            MechanismSpec::Ba,
            MechanismSpec::Landmark,
        ]
    }
}

/// Per-run parameters shared across mechanisms.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Pattern-level privacy budget.
    pub eps: Epsilon,
    /// Quality weight (paper: 0.5).
    pub alpha: Alpha,
    /// Monte-Carlo trials per point.
    pub trials: usize,
    /// w-event window for BD/BA.
    pub w: usize,
    /// Adaptive optimizer knobs.
    pub adaptive: AdaptiveConfig,
    /// Fraction of windows used as the adaptive PPM's historical data
    /// (taken from the front of the stream).
    pub history_frac: f64,
    /// Landmark budget share.
    pub landmark_share: f64,
}

impl RunConfig {
    /// Paper-like defaults at a given ε.
    pub fn at_eps(eps: Epsilon) -> RunConfig {
        RunConfig {
            eps,
            alpha: Alpha::HALF,
            trials: 20,
            w: 10,
            adaptive: AdaptiveConfig::default(),
            history_frac: 0.5,
            landmark_share: 0.5,
        }
    }
}

/// The outcome of one (workload, mechanism, ε) cell.
#[derive(Debug, Clone, Serialize)]
pub struct TrialOutcome {
    /// Mechanism label.
    pub mechanism: String,
    /// Pattern-level ε.
    pub eps: f64,
    /// Unprotected quality `Q_ord`.
    pub q_ord: f64,
    /// Mean protected quality across trials.
    pub q_ppm: f64,
    /// MRE summary across trials (Eq. 4).
    pub mre: Summary,
}

/// Build the mechanism described by `spec` for `workload`.
pub(crate) fn build_mechanism(
    spec: MechanismSpec,
    workload: &Workload,
    config: &RunConfig,
) -> Result<Box<dyn Mechanism>, CoreError> {
    let mean_len =
        pdp_baselines::conversion::mean_pattern_len(&workload.patterns, &workload.private);
    Ok(match spec {
        MechanismSpec::Uniform => Box::new(ProtectionPipeline::uniform(
            &workload.patterns,
            &workload.private,
            config.eps,
            workload.n_types,
        )?),
        MechanismSpec::Adaptive => {
            let history = history_split(&workload.windows, config.history_frac);
            let model =
                QualityModel::new(history, &workload.patterns, &workload.target, config.alpha)?;
            Box::new(ProtectionPipeline::adaptive(
                &workload.patterns,
                &workload.private,
                config.eps,
                &model,
                workload.n_types,
                &config.adaptive,
            )?)
        }
        MechanismSpec::Bd => {
            let eps_w = convert_budget(config.eps, mean_len, ConversionPolicy::BudgetDistribution);
            Box::new(BudgetDistributionMechanism::new(config.w, eps_w))
        }
        MechanismSpec::Ba => {
            let eps_w = convert_budget(
                config.eps,
                mean_len,
                ConversionPolicy::BudgetAbsorption { w: config.w },
            );
            Box::new(BudgetAbsorption::new(config.w, eps_w))
        }
        MechanismSpec::Landmark => {
            // the adaptive allocation the paper evaluates: share derived
            // from historical landmark density
            let history = history_split(&workload.windows, config.history_frac);
            Box::new(LandmarkPrivacy::with_adaptive_share(
                &workload.patterns,
                &workload.private,
                config.eps,
                &history,
            ))
        }
        MechanismSpec::FullRr => {
            let per_type = convert_budget(config.eps, mean_len, ConversionPolicy::FullStreamRr);
            Box::new(FullStreamRr::new(per_type))
        }
        MechanismSpec::EventLevel => Box::new(pdp_baselines::EventLevelRr::new(config.eps)),
        MechanismSpec::UserLevel => Box::new(pdp_baselines::UserLevelRr::new(
            config.eps,
            workload.windows.len(),
        )),
    })
}

/// The front `frac` of the windows (the adaptive PPM's historical data).
pub(crate) fn history_split(windows: &WindowedIndicators, frac: f64) -> WindowedIndicators {
    let keep = ((windows.len() as f64) * frac.clamp(0.05, 1.0)).round() as usize;
    let keep = keep.clamp(1.min(windows.len()), windows.len());
    WindowedIndicators::new(windows.iter().take(keep).cloned().collect())
}

/// Quality of a detection table against the ground truth.
pub(crate) fn score(
    truth: &WindowedIndicators,
    protected: &WindowedIndicators,
    workload: &Workload,
    alpha: Alpha,
) -> QualityReport {
    let targets: Vec<(PatternId, Vec<EventType>)> = workload
        .target
        .iter()
        .map(|&id| {
            let p = workload.patterns.get(id).expect("validated workload");
            (id, p.distinct_types().into_iter().collect())
        })
        .collect();
    let mut conf = ConfusionMatrix::new();
    for w in 0..truth.len() {
        for (_, tys) in &targets {
            let t = tys.iter().all(|&ty| truth.window(w).get(ty));
            let p = tys.iter().all(|&ty| protected.window(w).get(ty));
            conf.record(t, p);
        }
    }
    QualityReport::from_confusion(&conf, alpha)
}

/// Run one (workload, mechanism, ε) cell: protect the stream `trials`
/// times and summarize the MRE.
pub fn run_cell(
    spec: MechanismSpec,
    workload: &Workload,
    config: &RunConfig,
    seed: u64,
) -> Result<TrialOutcome, CoreError> {
    let mechanism = build_mechanism(spec, workload, config)?;
    run_trials(spec, workload, config, seed, |rng| {
        Ok(mechanism.protect(&workload.windows, rng))
    })
}

/// The trial loop every serve mode shares: trial `i` protects the
/// workload with fork `i` of `DpRng::seed_from(seed)`, is scored against
/// the unprotected windows, and the MREs are summarized. Because the
/// batch, streaming and sharded cells differ only in `protect`, equal
/// protected views give bit-identical outcomes.
pub(crate) fn run_trials(
    spec: MechanismSpec,
    workload: &Workload,
    config: &RunConfig,
    seed: u64,
    mut protect: impl FnMut(&mut DpRng) -> Result<WindowedIndicators, CoreError>,
) -> Result<TrialOutcome, CoreError> {
    // Q_ord: the unprotected answers are exact, so Q_ord = 1 under exact
    // truth playback; still measured, not assumed.
    let q_ord = score(&workload.windows, &workload.windows, workload, config.alpha).q;

    let mut rng = DpRng::seed_from(seed);
    let mut mres = Vec::with_capacity(config.trials);
    let mut q_sum = 0.0;
    for trial in 0..config.trials {
        let mut trial_rng = rng.fork(trial as u64);
        let protected = protect(&mut trial_rng)?;
        let q_ppm = score(&workload.windows, &protected, workload, config.alpha).q;
        q_sum += q_ppm;
        mres.push(pdp_metrics::mre(q_ord, q_ppm));
    }
    Ok(TrialOutcome {
        mechanism: spec.label().to_owned(),
        eps: config.eps.value(),
        q_ord,
        q_ppm: q_sum / config.trials.max(1) as f64,
        mre: Summary::from_values(&mres).expect("at least one trial"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_datasets::{SyntheticConfig, SyntheticDataset};

    fn small_workload() -> Workload {
        let config = SyntheticConfig {
            n_windows: 120,
            forced_overlap: Some(0.6),
            ..SyntheticConfig::default()
        };
        SyntheticDataset::generate(&config, 77).workload
    }

    fn quick_config(eps: f64) -> RunConfig {
        RunConfig {
            trials: 5,
            ..RunConfig::at_eps(Epsilon::new(eps).unwrap())
        }
    }

    #[test]
    fn q_ord_is_perfect_for_exact_playback() {
        let w = small_workload();
        let out = run_cell(MechanismSpec::Uniform, &w, &quick_config(1.0), 1).unwrap();
        assert!((out.q_ord - 1.0).abs() < 1e-12);
        assert!(out.q_ppm <= 1.0 + 1e-12);
    }

    #[test]
    fn every_mechanism_builds_and_runs() {
        let w = small_workload();
        let config = quick_config(1.0);
        for spec in [
            MechanismSpec::Uniform,
            MechanismSpec::Adaptive,
            MechanismSpec::Bd,
            MechanismSpec::Ba,
            MechanismSpec::Landmark,
            MechanismSpec::FullRr,
            MechanismSpec::EventLevel,
            MechanismSpec::UserLevel,
        ] {
            let out = run_cell(spec, &w, &config, 3).unwrap();
            assert_eq!(out.mechanism, spec.label());
            assert!(out.mre.mean.is_finite(), "{}", spec.label());
            assert!(out.mre.mean <= 1.0 + 1e-9, "{}", spec.label());
        }
    }

    #[test]
    fn mre_decreases_with_budget_for_uniform() {
        let w = small_workload();
        let low = run_cell(MechanismSpec::Uniform, &w, &quick_config(0.2), 5).unwrap();
        let high = run_cell(MechanismSpec::Uniform, &w, &quick_config(8.0), 5).unwrap();
        assert!(
            high.mre.mean < low.mre.mean,
            "MRE should fall with ε: {} vs {}",
            high.mre.mean,
            low.mre.mean
        );
    }

    #[test]
    fn pattern_level_beats_whole_stream_baselines() {
        let w = small_workload();
        let config = quick_config(1.0);
        let uniform = run_cell(MechanismSpec::Uniform, &w, &config, 7).unwrap();
        let full = run_cell(MechanismSpec::FullRr, &w, &config, 7).unwrap();
        assert!(
            uniform.mre.mean < full.mre.mean,
            "uniform {} should beat full-rr {}",
            uniform.mre.mean,
            full.mre.mean
        );
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let w = small_workload();
        let config = quick_config(0.5);
        let a = run_cell(MechanismSpec::Landmark, &w, &config, 11).unwrap();
        let b = run_cell(MechanismSpec::Landmark, &w, &config, 11).unwrap();
        assert_eq!(a.mre.mean, b.mre.mean);
        let c = run_cell(MechanismSpec::Landmark, &w, &config, 12).unwrap();
        assert_ne!(a.mre.mean, c.mre.mean);
    }

    #[test]
    fn fig4_set_is_the_paper_lineup() {
        let labels: Vec<&str> = MechanismSpec::fig4_set()
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(labels, ["uniform", "adaptive", "bd", "ba", "landmark"]);
    }
}
