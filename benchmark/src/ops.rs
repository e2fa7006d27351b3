//! The operator's scenario, fixed-size on every workload: a fresh durable
//! service ingests a prefix of the input with pattern churn + epoch
//! transitions and rotating checkpoints, is dropped without `shutdown`
//! part-way into the log tail, and is recovered several times from fresh
//! copies of its files. Every recovery must reproduce the uninterrupted
//! service's deliveries, ledgers and low watermark bit for bit.

use std::path::Path;
use std::time::Instant;

use pdp_core::{read_checkpoint, read_wal_from, replay_into, CoreError, ShardedService};
use pdp_stream::Timestamp;

use crate::gen::Pool;
use crate::inproc::{churn_epoch, Durable};
use crate::sink::{fold, DigestSink};
use crate::spec::Spec;
use crate::trace::Trace;

/// Events the scenario ingests (whole batches of the workload's size).
const EVENTS: u64 = 1 << 19;
/// An epoch transition after every this many events.
const EPOCH_EVERY_EVENTS: u64 = 1 << 14;
/// A checkpoint after every this many events (never after the last
/// stretch, which is the log tail recovery replays).
const CHECKPOINT_EVERY_EVENTS: u64 = 1 << 16;
/// Recoveries timed.
pub const RECOVERIES: usize = 5;

/// What must survive a crash.
#[derive(Debug, PartialEq)]
struct Survivors {
    /// Deliveries since the last checkpoint.
    tail_digest: u64,
    tail_deliveries: u64,
    low_watermark: Option<Timestamp>,
    dropped: u64,
    events_ingested: u64,
    epoch: u64,
    /// Spend of every setup-phase private pattern, in registration order.
    spends: Vec<u64>,
}

fn survivors(
    spec: &Spec,
    service: &mut ShardedService,
    sink: &mut DigestSink,
) -> Result<Survivors, CoreError> {
    // a draining, delivering sync point (the image itself is not needed)
    service.checkpoint_into(sink)?;
    Ok(Survivors {
        tail_digest: fold(sink.digest, sink.merged_digest),
        tail_deliveries: sink.shard_releases + sink.merged,
        low_watermark: service.low_watermark(),
        dropped: service.dropped(),
        events_ingested: service.events_ingested(),
        epoch: service.epoch(),
        spends: (0..spec.n_private)
            .map(|i| {
                let (owner, _) = spec.private_pattern(i);
                service
                    .budget_spent(owner, pdp_cep::PatternId(i as u32))
                    .map_or(u64::MAX, |e| e.value().to_bits())
            })
            .collect(),
    })
}

/// Timings of the scenario.
pub struct OpsOutcome {
    pub epoch_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    /// Recovery split, one sample per recovery (traced runs only).
    pub wal_read_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    /// Events the log tail holds.
    pub tail_events: u64,
    pub attempted: u64,
}

/// Run the scenario in `dir`. With `split`, each recovery is performed
/// step by step (`read_wal_from`, `restore`, `replay_into`) so the three
/// parts are timed separately; otherwise through `recover_into`.
pub fn run(
    spec: &Spec,
    pool: &Pool,
    seed: u64,
    dir: &Path,
    split: bool,
    mut trace: Option<&mut Trace>,
) -> Result<OpsOutcome, String> {
    let fail = |what: &str, e: CoreError| format!("{} ops: {what}: {e}", spec.name);
    let io = |what: &str, e: std::io::Error| format!("{} ops: {what}: {e}", spec.name);
    let mut out = OpsOutcome {
        epoch_ms: Vec::new(),
        checkpoint_ms: Vec::new(),
        recover_ms: Vec::new(),
        wal_read_ms: Vec::new(),
        restore_ms: Vec::new(),
        replay_ms: Vec::new(),
        tail_events: 0,
        attempted: 0,
    };
    let mut service = spec.build_service(seed).map_err(|e| fail("build", e))?;
    let mut durable = Durable::attach(dir, "ops", &mut service).map_err(|e| fail("wal", e))?;
    let mut sink = DigestSink::default();
    let batch = spec.batch as u64;
    let (batches, epoch_every, checkpoint_every) = (
        EVENTS / batch,
        EPOCH_EVERY_EVENTS / batch,
        CHECKPOINT_EVERY_EVENTS / batch,
    );
    for k in 0..batches {
        service
            .push_batch_into(pool.batch(k), &mut sink)
            .map_err(|e| fail("push", e))?;
        out.tail_events += spec.batch as u64;
        let done = k + 1;
        if done.is_multiple_of(epoch_every) {
            let t = Instant::now();
            let ms = churn_epoch(spec, &mut service, (done / epoch_every) as usize)
                .map_err(|e| fail("begin_epoch", e))?;
            out.epoch_ms.push(ms);
            if let Some(trace) = trace.as_deref_mut() {
                trace.span(k, "ops.begin_epoch", "", t, Instant::now(), 1);
            }
        }
        if done.is_multiple_of(checkpoint_every) && done < batches {
            let t = Instant::now();
            let ms = durable
                .checkpoint(&mut service, &mut sink)
                .map_err(|e| fail("checkpoint", e))?;
            out.checkpoint_ms.push(ms);
            if let Some(trace) = trace.as_deref_mut() {
                trace.span(k, "ops.checkpoint", "", t, Instant::now(), 1);
            }
            // everything delivered so far is covered by the image
            sink = DigestSink::default();
            out.tail_events = 0;
        }
    }
    out.attempted = batches + (out.epoch_ms.len() + out.checkpoint_ms.len()) as u64;
    let want = survivors(spec, &mut service, &mut sink).map_err(|e| fail("drain", e))?;
    // the crash: no shutdown, no fsync — the log is whatever reached the OS
    drop(service);

    let config = spec.service_config(seed);
    for r in 0..RECOVERIES {
        let wal = dir.join(format!("recover-{r}.wal"));
        let ckpt = dir.join(format!("recover-{r}.ckpt"));
        std::fs::copy(durable.wal_path(), &wal).map_err(|e| io("copy wal", e))?;
        std::fs::copy(durable.checkpoint_path(), &ckpt).map_err(|e| io("copy checkpoint", e))?;
        let mut sink = DigestSink::default();
        let start = Instant::now();
        let image = read_checkpoint(&ckpt).map_err(|e| fail("read checkpoint", e))?;
        let mut recovered = if split {
            let t = Instant::now();
            let records = read_wal_from(&wal, image.wal_offset).map_err(|e| fail("wal", e))?;
            out.wal_read_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let mut service =
                ShardedService::restore(config.clone(), image).map_err(|e| fail("restore", e))?;
            out.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            replay_into(&mut service, records, &mut sink).map_err(|e| fail("replay", e))?;
            out.replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
            service
        } else {
            ShardedService::recover_into(config.clone(), image, &wal, &mut sink)
                .map_err(|e| fail("recover", e))?
        };
        let end = Instant::now();
        out.recover_ms.push((end - start).as_secs_f64() * 1e3);
        if let Some(trace) = trace.as_deref_mut() {
            trace.span(r as u64, "ops.recover", "", start, end, out.tail_events);
        }
        out.attempted += 1;
        let got = survivors(spec, &mut recovered, &mut sink).map_err(|e| fail("drain", e))?;
        if got != want {
            return Err(format!(
                "{}: recovery {r} diverged from the uninterrupted run:\n got {got:?}\nwant {want:?}",
                spec.name
            ));
        }
        drop(recovered);
        for path in [&wal, &ckpt] {
            std::fs::remove_file(path).map_err(|e| io("remove copy", e))?;
        }
    }
    Ok(out)
}
