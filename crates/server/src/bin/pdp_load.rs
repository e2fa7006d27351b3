//! The `pdp-load` binary: a seeded multi-connection load run against a
//! serving `pdp-server`, reporting ingest-ack tail latency.
//!
//! ```text
//! pdp-load --addr HOST:PORT [--connections 4] [--batches 50]
//!          [--batch-size 128] [--subjects 256] [--types 32]
//!          [--churn-every 16] [--watermark-every 8] [--seed 7]
//!          [--shutdown]
//! ```
//!
//! `--shutdown` sends a graceful `Shutdown` to the server after the run
//! (CI uses this to assert a clean teardown). Exits non-zero if any
//! connection failed at the transport level, if nothing was acked, or if
//! the subscribed connection received no delivery although the run
//! advanced the watermark (`--watermark-every` > 0): a server that acks
//! but never delivers fails. The shutdown is still sent in the last two
//! cases, so the server comes down either way.

use pdp_server::{run_load, Client, LoadConfig};

fn parse_args() -> Result<(LoadConfig, bool), String> {
    let mut config = LoadConfig::default();
    let mut addr_set = false;
    let mut shutdown = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--shutdown" {
            shutdown = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let parse_usize = || value.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--addr" => {
                config.addr = value.clone();
                addr_set = true;
            }
            "--connections" => config.connections = parse_usize()?,
            "--batches" => config.batches = parse_usize()?,
            "--batch-size" => config.batch_size = parse_usize()?,
            "--subjects" => {
                config.n_subjects = value.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--types" => config.n_types = parse_usize()?,
            "--churn-every" => config.churn_every = parse_usize()?,
            "--watermark-every" => config.watermark_every = parse_usize()?,
            "--seed" => config.seed = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !addr_set {
        return Err("--addr is required".to_owned());
    }
    Ok((config, shutdown))
}

fn main() {
    let (config, shutdown) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pdp-load: {e}");
            std::process::exit(2);
        }
    };
    let report = match run_load(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pdp-load: run failed: {e}");
            std::process::exit(1);
        }
    };
    let h = &report.ingest_ack;
    println!(
        "pdp-load: {} batches acked, {} events sent, {} rejections, {} churn ops, {} epochs, {} deliveries",
        report.batches_acked,
        report.events_sent,
        report.rejections,
        report.churn_ops,
        report.epochs,
        report.deliveries,
    );
    println!(
        "pdp-load: ingest-ack latency p50 {} ns, p99 {} ns, p999 {} ns, max {} ns over {} samples",
        h.quantile(0.50),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max(),
        h.len(),
    );
    let mut failed = false;
    if report.batches_acked == 0 {
        eprintln!("pdp-load: nothing was acknowledged");
        failed = true;
    }
    if config.subscribe && config.watermark_every > 0 && report.deliveries == 0 {
        eprintln!("pdp-load: the subscribed connection received no delivery");
        failed = true;
    }
    if shutdown {
        match Client::connect(&config.addr, "pdp-load-admin").and_then(|mut c| c.shutdown()) {
            Ok(total) => println!("pdp-load: server shut down after {total} events"),
            Err(e) => {
                eprintln!("pdp-load: shutdown failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
