//! Fig. 4: MRE vs. privacy budget ε, five mechanisms, two datasets.

use serde::Serialize;

use pdp_core::CoreError;
use pdp_datasets::{SyntheticConfig, SyntheticDataset, TaxiConfig, TaxiDataset, Workload};
use pdp_dp::Epsilon;
use pdp_metrics::Table;

use crate::runner::{run_cell, MechanismSpec, RunConfig, TrialOutcome};
use crate::stats::Summary;

/// Which dataset a Fig. 4 sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The T-Drive substitute.
    Taxi,
    /// Algorithm 2.
    Synthetic,
}

impl Dataset {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Taxi => "taxi",
            Dataset::Synthetic => "synthetic",
        }
    }
}

/// Parameters of a Fig. 4 sweep.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// The ε grid (pattern-level budgets).
    pub eps_grid: Vec<f64>,
    /// Monte-Carlo trials per cell (per dataset).
    pub trials: usize,
    /// Independently regenerated datasets to average over. The paper
    /// synthesizes 1000 artificial datasets by repeating Algorithm 2;
    /// 1 keeps a single fixed dataset (fast default), larger values
    /// reproduce the paper's averaging methodology.
    pub n_datasets: usize,
    /// Master seed.
    pub seed: u64,
    /// Mechanisms to sweep (defaults to the paper's five).
    pub mechanisms: Vec<MechanismSpec>,
    /// Synthetic generator overrides.
    pub synthetic: SyntheticConfig,
    /// Taxi generator overrides.
    pub taxi: TaxiConfig,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            eps_grid: vec![0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0],
            trials: 20,
            n_datasets: 1,
            seed: 2023,
            mechanisms: MechanismSpec::fig4_set().to_vec(),
            synthetic: SyntheticConfig {
                // keep detection density informative: the raw [0,1) band
                // often saturates 3-event conjunctions; the paper regenerates
                // rates per dataset, we fix a mid band for stable sweeps
                forced_overlap: Some(0.6),
                ..SyntheticConfig::default()
            },
            taxi: TaxiConfig::default(),
        }
    }
}

impl Fig4Config {
    /// A configuration small enough for CI smoke tests.
    pub fn smoke() -> Self {
        Fig4Config {
            eps_grid: vec![0.5, 2.0],
            trials: 3,
            ..Fig4Config::default()
        }
    }
}

/// One series of Fig. 4: a mechanism's MRE across the ε grid.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Series {
    /// Mechanism label.
    pub mechanism: String,
    /// Points `(ε, outcome)` in grid order.
    pub points: Vec<TrialOutcome>,
}

/// The complete result of one dataset's sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Result {
    /// Which dataset.
    pub dataset: String,
    /// One series per mechanism.
    pub series: Vec<Fig4Series>,
}

/// Build the workload for `dataset` under `config`.
pub fn build_workload(dataset: Dataset, config: &Fig4Config) -> Workload {
    match dataset {
        Dataset::Synthetic => SyntheticDataset::generate(&config.synthetic, config.seed).workload,
        Dataset::Taxi => TaxiDataset::generate(&config.taxi, config.seed).workload,
    }
}

/// Run the Fig. 4 sweep for one dataset.
///
/// With `n_datasets > 1`, the sweep regenerates the dataset that many
/// times (seeds `seed, seed+1, …`) and reports, per cell, the summary of
/// per-dataset mean MREs — the paper's repeated-Algorithm-2 methodology.
pub fn run_fig4(dataset: Dataset, config: &Fig4Config) -> Fig4Result {
    sweep(
        dataset,
        config,
        &config.mechanisms,
        dataset.label(),
        run_cell,
    )
}

/// The one Fig. 4 sweep every serve mode runs: replicate the workload
/// `n_datasets` times, run `run_cell` for each (mechanism, ε) cell of
/// `mechanisms` × the ε grid, and aggregate across datasets. The cell
/// seed formula lives only here, which is what keeps the batch ↔
/// streaming ↔ sharded cells bit-for-bit equal.
pub(crate) fn sweep(
    dataset: Dataset,
    config: &Fig4Config,
    mechanisms: &[MechanismSpec],
    label: &str,
    run_cell: impl Fn(MechanismSpec, &Workload, &RunConfig, u64) -> Result<TrialOutcome, CoreError>,
) -> Fig4Result {
    let n_datasets = config.n_datasets.max(1);
    let workloads: Vec<Workload> = (0..n_datasets)
        .map(|k| {
            let mut cfg = config.clone();
            cfg.seed = config.seed.wrapping_add(k as u64);
            build_workload(dataset, &cfg)
        })
        .collect();
    let series = mechanisms
        .iter()
        .map(|&spec| {
            let points = config
                .eps_grid
                .iter()
                .enumerate()
                .map(|(i, &eps)| {
                    let run = RunConfig {
                        trials: config.trials,
                        ..RunConfig::at_eps(Epsilon::new(eps).expect("grid eps valid"))
                    };
                    let cell_seed = config
                        .seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add(i as u64 * 97 + spec.label().len() as u64);
                    let cells: Vec<TrialOutcome> = workloads
                        .iter()
                        .map(|w| {
                            run_cell(spec, w, &run, cell_seed)
                                .unwrap_or_else(|e| panic!("{label} fig4 cell must run: {e}"))
                        })
                        .collect();
                    aggregate_cells(cells)
                })
                .collect();
            Fig4Series {
                mechanism: spec.label().to_owned(),
                points,
            }
        })
        .collect();
    Fig4Result {
        dataset: label.to_owned(),
        series,
    }
}

/// Merge per-dataset outcomes into one: means of q values, and a summary
/// over the per-dataset mean MREs (a single dataset passes through).
fn aggregate_cells(mut cells: Vec<TrialOutcome>) -> TrialOutcome {
    if cells.len() == 1 {
        return cells.pop().expect("one cell");
    }
    let n = cells.len() as f64;
    let means: Vec<f64> = cells.iter().map(|c| c.mre.mean).collect();
    TrialOutcome {
        mechanism: cells[0].mechanism.clone(),
        eps: cells[0].eps,
        q_ord: cells.iter().map(|c| c.q_ord).sum::<f64>() / n,
        q_ppm: cells.iter().map(|c| c.q_ppm).sum::<f64>() / n,
        mre: Summary::from_values(&means).expect("at least one dataset"),
    }
}

impl Fig4Result {
    /// Render the sweep as the table the paper's figure plots.
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["eps".to_owned()];
        for s in &self.series {
            headers.push(format!("mre[{}]", s.mechanism));
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(
            &format!("Fig. 4 — MRE vs eps ({})", self.dataset),
            &header_refs,
        );
        if let Some(first) = self.series.first() {
            for (i, p) in first.points.iter().enumerate() {
                let mut row = vec![format!("{:.2}", p.eps)];
                for s in &self.series {
                    row.push(format!("{:.4}", s.points[i].mre.mean));
                }
                table.push_row(row);
            }
        }
        table
    }

    /// The series for one mechanism, if present.
    pub fn series_for(&self, mechanism: &str) -> Option<&Fig4Series> {
        self.series.iter().find(|s| s.mechanism == mechanism)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig4Config {
        Fig4Config {
            eps_grid: vec![0.5, 4.0],
            trials: 4,
            n_datasets: 1,
            seed: 9,
            mechanisms: vec![MechanismSpec::Uniform, MechanismSpec::Landmark],
            synthetic: SyntheticConfig {
                n_windows: 80,
                forced_overlap: Some(0.6),
                ..SyntheticConfig::default()
            },
            taxi: TaxiConfig {
                grid_side: 6,
                n_taxis: 20,
                n_windows: 40,
                ..TaxiConfig::default()
            },
        }
    }

    #[test]
    fn sweep_produces_full_grid() {
        let r = run_fig4(Dataset::Synthetic, &tiny_config());
        assert_eq!(r.dataset, "synthetic");
        assert_eq!(r.series.len(), 2);
        for s in &r.series {
            assert_eq!(s.points.len(), 2);
        }
    }

    #[test]
    fn table_has_row_per_eps() {
        let r = run_fig4(Dataset::Synthetic, &tiny_config());
        let t = r.to_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.headers.len(), 3);
    }

    #[test]
    fn taxi_dataset_also_runs() {
        let r = run_fig4(Dataset::Taxi, &tiny_config());
        assert_eq!(r.dataset, "taxi");
        assert!(r.series_for("uniform").is_some());
        assert!(r.series_for("nope").is_none());
    }

    #[test]
    fn multi_dataset_aggregation() {
        let mut config = tiny_config();
        config.n_datasets = 3;
        config.mechanisms = vec![MechanismSpec::Uniform];
        let r = run_fig4(Dataset::Synthetic, &config);
        let s = &r.series[0];
        // the summary now spans the 3 per-dataset means
        assert_eq!(s.points[0].mre.n, 3);
        assert!((0.0..=1.0).contains(&s.points[0].q_ppm));
    }

    #[test]
    fn mre_falls_with_eps_in_sweep() {
        let r = run_fig4(Dataset::Synthetic, &tiny_config());
        let s = r.series_for("uniform").unwrap();
        assert!(
            s.points[1].mre.mean <= s.points[0].mre.mean + 0.05,
            "MRE did not fall: {} → {}",
            s.points[0].mre.mean,
            s.points[1].mre.mean
        );
    }
}
