//! Ablation sweeps: sensitivity of the headline result to the design knobs
//! DESIGN.md calls out.

use pdp_core::{AdaptiveConfig, StepRule};
use pdp_datasets::{SyntheticConfig, SyntheticDataset};
use pdp_dp::Epsilon;
use pdp_metrics::{Alpha, Table};

use crate::runner::{run_cell, MechanismSpec, RunConfig};

/// Shared ablation parameters.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Pattern-level ε at which the ablations are run.
    pub eps: f64,
    /// Trials per cell.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Windows per generated dataset.
    pub n_windows: usize,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            eps: 1.0,
            trials: 10,
            seed: 4242,
            n_windows: 400,
        }
    }
}

fn base_synthetic(config: &AblationConfig) -> SyntheticConfig {
    SyntheticConfig {
        n_windows: config.n_windows,
        forced_overlap: Some(0.6),
        ..SyntheticConfig::default()
    }
}

fn run_config(config: &AblationConfig) -> RunConfig {
    RunConfig {
        trials: config.trials,
        ..RunConfig::at_eps(Epsilon::new(config.eps).expect("valid eps"))
    }
}

/// Abl-α: MRE of uniform/adaptive/landmark across the quality weight α.
pub fn ablation_alpha(config: &AblationConfig) -> Table {
    let workload = SyntheticDataset::generate(&base_synthetic(config), config.seed).workload;
    let mut table = Table::new(
        "Ablation — quality weight alpha",
        &["alpha", "mre[uniform]", "mre[adaptive]", "mre[landmark]"],
    );
    for &alpha in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut run = run_config(config);
        run.alpha = Alpha::new(alpha).expect("alpha in range");
        let mut row = vec![format!("{alpha:.2}")];
        for spec in [
            MechanismSpec::Uniform,
            MechanismSpec::Adaptive,
            MechanismSpec::Landmark,
        ] {
            let out = run_cell(spec, &workload, &run, config.seed + 1).expect("ablation cell");
            row.push(format!("{:.4}", out.mre.mean));
        }
        table.push_row(row);
    }
    table
}

/// Abl-len: MRE vs private-pattern length `m` (uniform vs adaptive vs
/// full-stream RR — the pattern-level advantage grows with m because noise
/// per event shrinks as ε/m only for events that need it).
pub fn ablation_pattern_len(config: &AblationConfig) -> Table {
    let mut table = Table::new(
        "Ablation — pattern length m",
        &["m", "mre[uniform]", "mre[adaptive]", "mre[full-rr]"],
    );
    for m in 1..=5usize {
        let synth = SyntheticConfig {
            pattern_len: m,
            ..base_synthetic(config)
        };
        let workload = SyntheticDataset::generate(&synth, config.seed + m as u64).workload;
        let run = run_config(config);
        let mut row = vec![m.to_string()];
        for spec in [
            MechanismSpec::Uniform,
            MechanismSpec::Adaptive,
            MechanismSpec::FullRr,
        ] {
            let out = run_cell(spec, &workload, &run, config.seed + 2).expect("ablation cell");
            row.push(format!("{:.4}", out.mre.mean));
        }
        table.push_row(row);
    }
    table
}

/// Abl-overlap: MRE vs the fraction of target patterns overlapping private
/// patterns. With no overlap a pattern-level PPM costs (almost) nothing.
pub fn ablation_overlap(config: &AblationConfig) -> Table {
    let mut table = Table::new(
        "Ablation — private/target overlap fraction",
        &["overlap", "mre[uniform]", "mre[adaptive]", "mre[ba]"],
    );
    for &overlap in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let synth = SyntheticConfig {
            forced_overlap: Some(overlap),
            ..base_synthetic(config)
        };
        let workload = SyntheticDataset::generate(&synth, config.seed + 7).workload;
        let run = run_config(config);
        let mut row = vec![format!("{overlap:.2}")];
        for spec in [
            MechanismSpec::Uniform,
            MechanismSpec::Adaptive,
            MechanismSpec::Ba,
        ] {
            let out = run_cell(spec, &workload, &run, config.seed + 3).expect("ablation cell");
            row.push(format!("{:.4}", out.mre.mean));
        }
        table.push_row(row);
    }
    table
}

/// Abl-step: Algorithm 1's step size δε and step rule.
pub fn ablation_step_size(config: &AblationConfig) -> Table {
    let workload = SyntheticDataset::generate(&base_synthetic(config), config.seed + 9).workload;
    let mut table = Table::new(
        "Ablation — Algorithm 1 step size and rule",
        &["step_divisor", "rule", "mre[adaptive]"],
    );
    for &divisor in &[20.0, 100.0, 500.0] {
        for rule in [StepRule::Conserving, StepRule::PaperLiteral] {
            let mut run = run_config(config);
            run.adaptive = AdaptiveConfig {
                step_divisor: divisor,
                step_rule: rule,
                ..AdaptiveConfig::default()
            };
            let out = run_cell(MechanismSpec::Adaptive, &workload, &run, config.seed + 4)
                .expect("ablation cell");
            table.push_row(vec![
                format!("{divisor}"),
                format!("{rule:?}"),
                format!("{:.4}", out.mre.mean),
            ]);
        }
    }
    table
}

/// Abl-w: the w-event window for BD/BA.
pub fn ablation_w_event(config: &AblationConfig) -> Table {
    let workload = SyntheticDataset::generate(&base_synthetic(config), config.seed + 11).workload;
    let mut table = Table::new(
        "Ablation — w-event window w",
        &["w", "mre[bd]", "mre[ba]", "mre[uniform] (ref)"],
    );
    for &w in &[5usize, 10, 20, 40] {
        let mut run = run_config(config);
        run.w = w;
        let mut row = vec![w.to_string()];
        for spec in [MechanismSpec::Bd, MechanismSpec::Ba, MechanismSpec::Uniform] {
            let out = run_cell(spec, &workload, &run, config.seed + 5).expect("ablation cell");
            row.push(format!("{:.4}", out.mre.mean));
        }
        table.push_row(row);
    }
    table
}

/// Abl-levels: the related-work guarantee lineup at one ε — pattern-level
/// (uniform), event-level (weaker guarantee, full ε per bit), whole-stream
/// RR (converted), landmark. MRE alone does not rank them fairly — the
/// guarantees differ — but the lineup shows *why* pattern-level protection
/// is the right unit: event-level is cheap but does not protect patterns;
/// full-stream at pattern strength is expensive everywhere.
pub fn ablation_guarantee_levels(config: &AblationConfig) -> Table {
    let workload = SyntheticDataset::generate(&base_synthetic(config), config.seed + 13).workload;
    let mut table = Table::new(
        "Ablation — guarantee levels at fixed eps",
        &["mechanism", "guarantee unit", "mre"],
    );
    let rows: [(MechanismSpec, &str); 5] = [
        (MechanismSpec::Uniform, "pattern (this paper)"),
        (MechanismSpec::EventLevel, "single event (weaker)"),
        (MechanismSpec::UserLevel, "whole user history (stronger)"),
        (MechanismSpec::FullRr, "pattern, whole-stream noise"),
        (MechanismSpec::Landmark, "landmarks + one regular"),
    ];
    let run = run_config(config);
    for (spec, unit) in rows {
        let out = run_cell(spec, &workload, &run, config.seed + 6).expect("ablation cell");
        table.push_row(vec![
            spec.label().to_owned(),
            unit.to_owned(),
            format!("{:.4}", out.mre.mean),
        ]);
    }
    table
}

/// Abl-history: the adaptive PPM's sensitivity to how much historical data
/// Algorithm 1 sees.
pub fn ablation_history(config: &AblationConfig) -> Table {
    let workload = SyntheticDataset::generate(&base_synthetic(config), config.seed + 17).workload;
    let mut table = Table::new(
        "Ablation — adaptive PPM history fraction",
        &["history_frac", "mre[adaptive]", "mre[uniform] (ref)"],
    );
    let run = run_config(config);
    let uniform_ref =
        run_cell(MechanismSpec::Uniform, &workload, &run, config.seed + 7).expect("ablation cell");
    for &frac in &[0.1, 0.25, 0.5, 1.0] {
        let mut run = run_config(config);
        run.history_frac = frac;
        let out = run_cell(MechanismSpec::Adaptive, &workload, &run, config.seed + 7)
            .expect("ablation cell");
        table.push_row(vec![
            format!("{frac:.2}"),
            format!("{:.4}", out.mre.mean),
            format!("{:.4}", uniform_ref.mre.mean),
        ]);
    }
    table
}

/// Run every ablation and return the tables in order.
pub fn run_all(config: &AblationConfig) -> Vec<Table> {
    vec![
        ablation_alpha(config),
        ablation_pattern_len(config),
        ablation_overlap(config),
        ablation_step_size(config),
        ablation_w_event(config),
        ablation_guarantee_levels(config),
        ablation_history(config),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationConfig {
        AblationConfig {
            trials: 2,
            n_windows: 60,
            ..AblationConfig::default()
        }
    }

    #[test]
    fn alpha_ablation_shapes() {
        let t = ablation_alpha(&tiny());
        assert_eq!(t.len(), 5);
        assert_eq!(t.headers.len(), 4);
    }

    #[test]
    fn w_event_ablation_shapes() {
        let t = ablation_w_event(&tiny());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn guarantee_levels_ablation_shapes() {
        let t = ablation_guarantee_levels(&tiny());
        assert_eq!(t.len(), 5);
        assert_eq!(t.headers.len(), 3);
    }

    #[test]
    fn history_ablation_shapes() {
        let t = ablation_history(&tiny());
        assert_eq!(t.len(), 4);
        // adaptive should not be (much) worse than uniform at any fraction
        for row in &t.rows {
            let adaptive: f64 = row[1].parse().unwrap();
            let uniform: f64 = row[2].parse().unwrap();
            assert!(adaptive <= uniform + 0.05, "row {row:?}");
        }
    }

    #[test]
    fn overlap_zero_is_cheap_for_pattern_level() {
        let config = tiny();
        let t = ablation_overlap(&config);
        // first row = overlap 0.0; uniform MRE should be small
        let uniform_at_zero: f64 = t.rows[0][1].parse().unwrap();
        let uniform_at_full: f64 = t.rows[4][1].parse().unwrap();
        assert!(
            uniform_at_zero <= uniform_at_full + 0.05,
            "no-overlap {uniform_at_zero} should not exceed full-overlap {uniform_at_full}"
        );
    }
}
