//! The correctness gate: a fixed prefix of the workload's input through a
//! fresh service and through the reference oracle — one independent
//! [`StreamingEngine`] per `shard_for` partition, the sharded service's
//! own equivalence anchor — requiring identical releases, late-drop
//! counts and per-subject ledger spends.

use pdp_core::{
    EpochPlan, KeyedEvent, ShardedService, StreamingConfig, StreamingEngine, VecSink, WindowRelease,
};
use pdp_dp::DpRng;
use pdp_stream::Timestamp;

use crate::gen::Pool;
use crate::sink::{fold_release, FNV_OFFSET};
use crate::spec::{Spec, REPLAY_BATCHES};

/// Batches the gate runs.
pub const GATE_BATCHES: u64 = REPLAY_BATCHES as u64 / 2;

/// What a passed gate established.
pub struct GateOutcome {
    /// Digest of every shard release of the prefix, in (shard, index)
    /// order — the workload's `output_digest`.
    pub digest: u64,
    pub releases: u64,
    pub dropped: u64,
    pub ledger_entries: u64,
}

/// Per-shard release sequences of the reference oracle, and how many
/// events it dropped as late.
fn reference(
    spec: &Spec,
    seed: u64,
    plan: &EpochPlan,
    events: &[KeyedEvent],
) -> Result<(Vec<Vec<WindowRelease>>, u64), String> {
    let mut partitions: Vec<Vec<&KeyedEvent>> = vec![Vec::new(); spec.n_shards];
    let mut dropped = 0u64;
    let mut clocks: Vec<Option<Timestamp>> = vec![None; spec.n_shards];
    for keyed in events {
        let shard = ShardedService::shard_for(keyed.subject, spec.n_shards);
        // bounded lateness, restated: stamped before the partition's
        // clock minus the bound means dropped
        if clocks[shard].is_some_and(|seen| keyed.event.ts < seen - spec.max_delay()) {
            dropped += 1;
            continue;
        }
        clocks[shard] = clocks[shard].max(Some(keyed.event.ts));
        partitions[shard].push(keyed);
    }
    // the service aligns every shard on the furthest frontier at finish
    let end = clocks.iter().flatten().max().copied();

    let mut per_shard = Vec::with_capacity(spec.n_shards);
    for (shard, mut partition) in partitions.into_iter().enumerate() {
        let mut engine =
            StreamingEngine::from_core(plan.core.clone(), StreamingConfig::tumbling(spec.window()))
                .map_err(|e| format!("oracle engine: {e}"))?;
        let mut rng = DpRng::seed_from(ShardedService::shard_seed(seed, shard));
        let mut releases = Vec::new();
        let fail = |e| format!("oracle shard {shard}: {e}");
        engine
            .advance_watermark_into(Timestamp::ZERO, &mut rng, &mut releases)
            .map_err(fail)?;
        partition.sort_by_key(|k| k.event.ts); // stable: ties keep arrival order
        let mut frontier = Timestamp::ZERO;
        for keyed in partition {
            engine
                .push_into(&keyed.event, &mut rng, &mut releases)
                .map_err(fail)?;
            frontier = frontier.max(keyed.event.ts);
        }
        if let Some(end) = end.filter(|&end| end > frontier) {
            engine
                .advance_watermark_into(end, &mut rng, &mut releases)
                .map_err(fail)?;
        }
        releases.extend(engine.finish(&mut rng).map_err(fail)?);
        per_shard.push(releases);
    }
    Ok((per_shard, dropped))
}

fn digest(per_shard: &[Vec<WindowRelease>]) -> u64 {
    let mut hash = FNV_OFFSET;
    for (shard, releases) in per_shard.iter().enumerate() {
        for r in releases {
            hash = fold_release(hash, shard, r);
        }
    }
    hash
}

/// Run the gate. `corrupt_expected` flips one bit of the oracle's digest
/// (the benchmark's own test that a mismatch is fatal).
pub fn gate(
    spec: &Spec,
    pool: &Pool,
    seed: u64,
    corrupt_expected: bool,
) -> Result<GateOutcome, String> {
    let batches: Vec<Vec<KeyedEvent>> = (0..GATE_BATCHES).map(|k| pool.batch(k)).collect();
    let events: Vec<KeyedEvent> = batches.iter().flatten().cloned().collect();

    let mut service = spec
        .build_service(seed)
        .map_err(|e| format!("gate build: {e}"))?;
    let mut sink = VecSink::subscribed([]);
    for batch in batches {
        service
            .push_batch_into(batch, &mut sink)
            .map_err(|e| format!("gate push: {e}"))?;
    }
    service
        .finish_into(&mut sink)
        .map_err(|e| format!("gate finish: {e}"))?;
    let mut got: Vec<Vec<WindowRelease>> = vec![Vec::new(); spec.n_shards];
    for r in sink.shard_releases {
        got[r.shard].push(r.release);
    }

    // the oracle's plan comes from its own control plane, fed the same
    // registrations
    let plan = spec
        .control_plane(seed)
        .compile_initial()
        .map_err(|e| format!("oracle compile: {e}"))?;
    let (want, want_dropped) = reference(spec, seed, &plan, &events)?;
    let expected_digest = digest(&want) ^ u64::from(corrupt_expected);
    let got_digest = digest(&got);
    if got_digest != expected_digest || (!corrupt_expected && got != want) {
        return Err(format!(
            "release digest {got_digest:016x} differs from the reference oracle's {expected_digest:016x}"
        ));
    }
    let dropped = service.dropped();
    if dropped != want_dropped || dropped != pool.expected_drops(GATE_BATCHES) {
        return Err(format!(
            "late drops: service {dropped}, oracle {want_dropped}, generator {}",
            pool.expected_drops(GATE_BATCHES)
        ));
    }

    // per-subject ledgers: every release of a subject's shard charges
    // each of the subject's active patterns its pattern-level ε, and by
    // Thm. 1 the flip table must deliver at least that guarantee
    let table = plan.core.pipeline().flip_table();
    for &(subject, pattern, eps) in &plan.charges {
        let shard = ShardedService::shard_for(subject, spec.n_shards);
        let want_spend = want[shard].len() as f64 * eps.value();
        let got_spend = service
            .budget_spent(subject, pattern)
            .ok_or_else(|| format!("no ledger for {subject} pattern {}", pattern.0))?
            .value();
        if (got_spend - want_spend).abs() > 1e-9 * want_spend.max(1.0) {
            return Err(format!(
                "{subject} pattern {}: spent {got_spend}, expected {} releases x {} = {want_spend}",
                pattern.0,
                want[shard].len(),
                eps.value()
            ));
        }
        let elements = plan
            .core
            .patterns()
            .get(pattern)
            .ok_or_else(|| format!("pattern {} not in the plan", pattern.0))?
            .elements();
        let guaranteed: f64 = elements
            .iter()
            .map(|&ty| {
                let p = table.prob(ty).value();
                ((1.0 - p) / p).ln()
            })
            .sum();
        if guaranteed > eps.value() + 1e-9 {
            return Err(format!(
                "pattern {}: flip table gives {guaranteed}-DP, charged {}",
                pattern.0,
                eps.value()
            ));
        }
    }

    Ok(GateOutcome {
        digest: got_digest,
        releases: got.iter().map(|r| r.len() as u64).sum(),
        dropped,
        ledger_entries: plan.charges.len() as u64,
    })
}
