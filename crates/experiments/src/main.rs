//! The `experiments` binary: regenerates every table/figure of the paper.
//!
//! ```text
//! experiments fig4 [--dataset taxi|synthetic|both] [--trials N] [--seed S] [--quick]
//!                  [--streaming] [--sharded [--shards N]]
//! experiments ablation <alpha|pattern-len|overlap|step-size|w-event|guarantee-levels|history|all>
//! experiments all            # everything, printed as markdown + saved as JSON
//! ```
//!
//! `--streaming` serves the Fig. 4 cells through the push-based
//! `StreamingEngine` instead of the batch adapter (pattern-level
//! mechanisms only; scores match the batch path bit for bit).
//! `--sharded` serves them through the sharded multi-tenant service;
//! with the default `--shards 1` the scores again match bit for bit,
//! higher shard counts measure the quality cost of partitioned serving.

use std::env;
use std::fs;

use pdp_experiments::ablations::{self, AblationConfig};
use pdp_experiments::fig4::{run_fig4, Dataset, Fig4Config};
use pdp_experiments::sharded::run_fig4_sharded;
use pdp_experiments::streaming::run_fig4_streaming;
use pdp_metrics::{markdown_table, text_table};

/// How the Fig. 4 cells are served.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeMode {
    Batch,
    Streaming,
    Sharded(usize),
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    match command {
        "fig4" => {
            let (dataset, config) = parse_fig4(&args[1..]);
            run_fig4_command(dataset, &config, serve_mode(&args[1..]));
        }
        "ablation" => {
            let which = args.get(1).map(String::as_str).unwrap_or("all");
            run_ablation_command(which, &parse_ablation(&args[2..]));
        }
        "all" => {
            let (_, config) = parse_fig4(&args[1..]);
            run_fig4_command("both", &config, serve_mode(&args[1..]));
            run_ablation_command("all", &parse_ablation(&args[1..]));
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!("usage: experiments <fig4|ablation|all> [options]");
            std::process::exit(2);
        }
    }
}

fn parse_fig4(args: &[String]) -> (&str, Fig4Config) {
    let mut dataset = "both";
    let mut config = Fig4Config::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => {
                dataset = args.get(i + 1).map(String::as_str).unwrap_or("both");
                // leak is fine for a CLI lifetime; avoid by matching below
                i += 1;
            }
            "--trials" => {
                config.trials = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.trials);
                i += 1;
            }
            "--seed" => {
                config.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.seed);
                i += 1;
            }
            "--datasets" => {
                config.n_datasets = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.n_datasets);
                i += 1;
            }
            "--quick" => {
                config = Fig4Config {
                    eps_grid: vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
                    trials: 8,
                    ..config
                };
            }
            _ => {}
        }
        i += 1;
    }
    let dataset = match dataset {
        "taxi" => "taxi",
        "synthetic" => "synthetic",
        _ => "both",
    };
    (dataset, config)
}

fn serve_mode(args: &[String]) -> ServeMode {
    if args.iter().any(|a| a == "--sharded") {
        let shards = args
            .iter()
            .position(|a| a == "--shards")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        ServeMode::Sharded(shards.max(1))
    } else if args.iter().any(|a| a == "--streaming") {
        ServeMode::Streaming
    } else {
        ServeMode::Batch
    }
}

fn parse_ablation(args: &[String]) -> AblationConfig {
    let mut config = AblationConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                config.trials = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.trials);
                i += 1;
            }
            "--seed" => {
                config.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(config.seed);
                i += 1;
            }
            "--quick" => {
                config.trials = 4;
                config.n_windows = 150;
            }
            _ => {}
        }
        i += 1;
    }
    config
}

fn run_fig4_command(dataset: &str, config: &Fig4Config, mode: ServeMode) {
    let datasets: Vec<Dataset> = match dataset {
        "taxi" => vec![Dataset::Taxi],
        "synthetic" => vec![Dataset::Synthetic],
        _ => vec![Dataset::Taxi, Dataset::Synthetic],
    };
    for d in datasets {
        let via = match mode {
            ServeMode::Batch => String::new(),
            ServeMode::Streaming => " via streaming engine".to_owned(),
            ServeMode::Sharded(n) => format!(" via sharded service ({n} shards)"),
        };
        eprintln!(
            "running Fig. 4 sweep on {}{} (eps grid {:?}, {} trials)…",
            d.label(),
            via,
            config.eps_grid,
            config.trials
        );
        let result = match mode {
            ServeMode::Batch => run_fig4(d, config),
            ServeMode::Streaming => run_fig4_streaming(d, config),
            ServeMode::Sharded(n) => run_fig4_sharded(d, config, n),
        };
        let table = result.to_table();
        println!("{}", text_table(&table));
        println!("{}", markdown_table(&table));
        if let Ok(json) = serde_json::to_string_pretty(&result) {
            let path = format!("fig4_{}.json", result.dataset);
            if fs::write(&path, json).is_ok() {
                eprintln!("wrote {path}");
            }
        }
    }
}

fn run_ablation_command(which: &str, config: &AblationConfig) {
    let tables = match which {
        "alpha" => vec![ablations::ablation_alpha(config)],
        "pattern-len" => vec![ablations::ablation_pattern_len(config)],
        "overlap" => vec![ablations::ablation_overlap(config)],
        "step-size" => vec![ablations::ablation_step_size(config)],
        "w-event" => vec![ablations::ablation_w_event(config)],
        "guarantee-levels" => vec![ablations::ablation_guarantee_levels(config)],
        "history" => vec![ablations::ablation_history(config)],
        _ => ablations::run_all(config),
    };
    for table in tables {
        println!("{}", text_table(&table));
        println!("{}", markdown_table(&table));
    }
}
