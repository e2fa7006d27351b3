//! Crash-consistent durability for the sharded service: checkpoints + WAL.
//!
//! The paper's engine is an online service over an unbounded stream; a
//! production deployment must survive a crash without violating the
//! accounting that backs the pattern-level ε-DP guarantee (Thm. 1): budget
//! *spent* must never be forgotten (forgetting spend would let a restarted
//! service re-release and overrun ε), and a restarted service must release
//! the **same** protected windows an uninterrupted one would have — the
//! randomized response draws are part of the released output, so recovery
//! has to resume the per-shard RNG streams mid-sequence, not reseed them.
//!
//! Two artifacts cooperate:
//!
//! * **checkpoint** ([`ServiceCheckpoint`]): a full plain-data image of
//!   every shard (reorder buffer, engine windows/ledgers/detector, RNG
//!   position), the service-side accounting (per-subject epoch ledgers,
//!   merge accumulators, epoch cores, control plane) and the WAL offset it
//!   is consistent with. Captured only between calls (every call
//!   settles and delivers its own round before it returns), so a
//!   checkpoint never contains an in-flight round or an undelivered
//!   release — the sealed audit surface is never serialized;
//! * **write-ahead log** ([`WalWriter`] / [`read_wal_from`]): a framed
//!   record stream of every *input* the service accepted after the
//!   checkpoint — ingested batches, watermark heartbeats, control-plane
//!   commands, epoch transitions, the finish call. Every frame carries a
//!   sequence number and an FNV-1a checksum, so a duplicated frame or a
//!   bit flip is a typed error (with [`recover_wal_prefix`] to salvage
//!   the records before the damage) while a torn tail from a crash
//!   mid-append stays silently recoverable. Replaying the tail
//!   (`offset ≥` the checkpoint's) through the normal public entry
//!   points re-derives the exact pre-crash state, because the service is
//!   deterministic in its inputs under seeded RNGs.
//!
//! **Recovery = [`read_checkpoint`] + [`replay_into`] the WAL tail.** The
//! equivalence anchor (see `tests/crash_recovery.rs`): a service killed at
//! an arbitrary batch boundary and recovered produces bit-for-bit the same
//! sink deliveries, ledger spends and low watermark as one that never
//! crashed.
//!
//! Both artifacts lay their fields out with the workspace's one byte
//! codec ([`crate::codec`]); the magics below version them.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use pdp_cep::DetectorSnapshot;
use pdp_cep::{Pattern, PatternId, PatternSet, QueryId, Semantics};
use pdp_dp::{BudgetLedgerSnapshot, EpochLedgerSnapshot, Epsilon};
use pdp_stream::{
    EventType, IndicatorVector, ReorderSnapshot, TimeDelta, Timestamp, WindowedIndicators,
};

use crate::answer::QuerySpec;
use crate::codec::{ByteReader, ByteWriter, CodecError, Wire};
use crate::control::{Command, ControlPlaneSnapshot};
use crate::distribution::BudgetDistribution;
use crate::error::CoreError;
use crate::protect::PipelineSnapshot;
use crate::service::{KeyedEvent, ShardedService, SubjectId};
use crate::sink::ReleaseSink;
use crate::streaming::{EngineSnapshot, OnlineCoreSnapshot, QueryRef};

/// File magic of a checkpoint artifact (the trailing byte is the format
/// version; v2 added the control plane's dense subject-intern indexes).
const CKPT_MAGIC: &[u8; 8] = b"PDPCKPT\x02";
/// The v1 magic: recognized only to produce a typed "unsupported
/// version" error instead of a generic bad-magic one. v1 images predate
/// dense subject interning and cannot be decoded by this build.
const CKPT_MAGIC_V1: &[u8; 8] = b"PDPCKPT\x01";
/// File magic of a write-ahead log (the trailing byte is the format
/// version; v2 added per-frame sequence numbers and checksums).
const WAL_MAGIC: &[u8; 8] = b"PDPWAL\x00\x02";
/// The v1 magic: recognized only to produce a typed "unsupported
/// version" error instead of a generic bad-magic one.
const WAL_MAGIC_V1: &[u8; 8] = b"PDPWAL\x00\x01";
/// Fixed per-frame overhead: `u32` length + `u64` sequence number before
/// the payload, `u64` FNV-1a checksum after it.
const WAL_FRAME_OVERHEAD: u64 = 4 + 8 + 8;
/// Largest WAL record length a scan accepts (1 GiB): a frame announcing
/// more is corruption, not a torn tail.
const MAX_WAL_RECORD: u64 = 1 << 30;

fn durability_err(msg: impl Into<String>) -> CoreError {
    CoreError::Durability(msg.into())
}

fn io_err(context: &str, e: std::io::Error) -> CoreError {
    CoreError::Durability(format!("{context}: {e}"))
}

impl Wire for Epsilon {
    fn encode(&self, w: &mut ByteWriter) {
        self.value().encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Epsilon::new(f64::decode(r)?)
            .map_err(|e| CodecError::Malformed(format!("invalid epsilon: {e}")))
    }
}

impl Wire for Pattern {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self.name());
        self.elements().to_vec().encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let name = String::decode(r)?;
        let elements = Vec::<EventType>::decode(r)?;
        Pattern::seq(&name, elements)
            .map_err(|e| CodecError::Malformed(format!("invalid pattern: {e}")))
    }
}

impl Wire for PatternSet {
    fn encode(&self, w: &mut ByteWriter) {
        self.len().encode(w);
        for (_, pattern) in self.iter() {
            pattern.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.read_len()?;
        let mut set = PatternSet::new();
        for _ in 0..len {
            set.insert(Pattern::decode(r)?);
        }
        Ok(set)
    }
}

impl Wire for Semantics {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Semantics::Ordered => 0u8.encode(w),
            Semantics::Conjunction => 1u8.encode(w),
            Semantics::OrderedWithin(d) => {
                2u8.encode(w);
                d.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => Semantics::Ordered,
            1 => Semantics::Conjunction,
            2 => Semantics::OrderedWithin(TimeDelta::decode(r)?),
            t => return Err(CodecError::Malformed(format!("invalid semantics tag {t}"))),
        })
    }
}

impl Wire for QuerySpec {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            QuerySpec::Pattern { pattern } => {
                0u8.encode(w);
                pattern.encode(w);
            }
            QuerySpec::Count { pattern, horizon } => {
                1u8.encode(w);
                pattern.encode(w);
                horizon.encode(w);
            }
            QuerySpec::Categorical { options, fallback } => {
                2u8.encode(w);
                options.encode(w);
                fallback.encode(w);
            }
            QuerySpec::Argmax {
                candidates,
                horizon,
                eps,
            } => {
                3u8.encode(w);
                candidates.encode(w);
                horizon.encode(w);
                eps.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => QuerySpec::Pattern {
                pattern: PatternId::decode(r)?,
            },
            1 => QuerySpec::Count {
                pattern: PatternId::decode(r)?,
                horizon: usize::decode(r)?,
            },
            2 => QuerySpec::Categorical {
                options: Vec::decode(r)?,
                fallback: String::decode(r)?,
            },
            3 => QuerySpec::Argmax {
                candidates: Vec::decode(r)?,
                horizon: usize::decode(r)?,
                eps: Epsilon::decode(r)?,
            },
            t => return Err(CodecError::Malformed(format!("invalid query spec tag {t}"))),
        })
    }
}

impl Wire for QueryRef {
    fn encode(&self, w: &mut ByteWriter) {
        self.id.encode(w);
        self.name.encode(w);
        self.spec.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(QueryRef {
            id: QueryId::decode(r)?,
            name: String::decode(r)?,
            spec: QuerySpec::decode(r)?,
        })
    }
}

impl Wire for BudgetDistribution {
    fn encode(&self, w: &mut ByteWriter) {
        self.total().encode(w);
        self.shares().to_vec().encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let total = Epsilon::decode(r)?;
        let shares = Vec::<Epsilon>::decode(r)?;
        BudgetDistribution::from_shares(total, shares)
            .map_err(|e| CodecError::Malformed(format!("invalid distribution: {e}")))
    }
}

impl Wire for PipelineSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.label.encode(w);
        self.probs.encode(w);
        self.assignments.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PipelineSnapshot {
            label: String::decode(r)?,
            probs: Vec::decode(r)?,
            assignments: Vec::decode(r)?,
        })
    }
}

impl Wire for OnlineCoreSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.pipeline.encode(w);
        self.patterns.encode(w);
        self.queries.encode(w);
        self.epoch.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(OnlineCoreSnapshot {
            pipeline: PipelineSnapshot::decode(r)?,
            patterns: PatternSet::decode(r)?,
            queries: Vec::decode(r)?,
            epoch: u64::decode(r)?,
        })
    }
}

impl<K: Wire> Wire for BudgetLedgerSnapshot<K> {
    fn encode(&self, w: &mut ByteWriter) {
        self.limit.encode(w);
        self.spent.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(BudgetLedgerSnapshot {
            limit: Option::decode(r)?,
            spent: Vec::decode(r)?,
        })
    }
}

impl<K: Wire> Wire for EpochLedgerSnapshot<K> {
    fn encode(&self, w: &mut ByteWriter) {
        self.caps.encode(w);
        self.retired_from.encode(w);
        self.per_epoch.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(EpochLedgerSnapshot {
            caps: Vec::decode(r)?,
            retired_from: Vec::decode(r)?,
            per_epoch: Vec::decode(r)?,
        })
    }
}

impl Wire for DetectorSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.patterns.encode(w);
        self.semantics.encode(w);
        self.window_len.encode(w);
        self.n_types.encode(w);
        self.open_window.encode(w);
        self.emitted.encode(w);
        self.nfa_states.encode(w);
        self.present.encode(w);
        self.timed.encode(w);
        self.last_ts.encode(w);
        self.pending.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(DetectorSnapshot {
            patterns: PatternSet::decode(r)?,
            semantics: Semantics::decode(r)?,
            window_len: TimeDelta::decode(r)?,
            n_types: r.read_universe()?,
            open_window: Option::decode(r)?,
            emitted: usize::decode(r)?,
            nfa_states: Vec::decode(r)?,
            present: IndicatorVector::decode(r)?,
            timed: Vec::decode(r)?,
            last_ts: Option::decode(r)?,
            pending: Vec::decode(r)?,
        })
    }
}

impl Wire for ReorderSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.max_delay.encode(w);
        self.pending.encode(w);
        self.max_seen.encode(w);
        self.seq.encode(w);
        self.dropped.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ReorderSnapshot {
            max_delay: TimeDelta::decode(r)?,
            pending: Vec::decode(r)?,
            max_seen: Option::decode(r)?,
            seq: u64::decode(r)?,
            dropped: u64::decode(r)?,
        })
    }
}

impl Wire for EngineSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.core.encode(w);
        self.ledger.encode(w);
        self.query_ledger.encode(w);
        self.query_state.encode(w);
        self.detector.encode(w);
        self.events_seen.encode(w);
        self.pending_epochs.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(EngineSnapshot {
            core: OnlineCoreSnapshot::decode(r)?,
            ledger: BudgetLedgerSnapshot::decode(r)?,
            query_ledger: BudgetLedgerSnapshot::decode(r)?,
            query_state: Vec::decode(r)?,
            detector: DetectorSnapshot::decode(r)?,
            events_seen: usize::decode(r)?,
            pending_epochs: Vec::decode(r)?,
        })
    }
}

impl Wire for ControlPlaneSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.patterns.encode(w);
        self.private_order.encode(w);
        self.revoked.encode(w);
        self.subjects.encode(w);
        self.queries.encode(w);
        self.explicit_history.encode(w);
        self.released_history.encode(w);
        self.widening.encode(w);
        self.epoch.encode(w);
        self.compiled_initial.encode(w);
        self.dirty.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ControlPlaneSnapshot {
            patterns: PatternSet::decode(r)?,
            private_order: Vec::decode(r)?,
            revoked: Vec::decode(r)?,
            subjects: {
                // The dense intern indexes must be a permutation of
                // 0..len: ControlPlane::restore indexes its reverse table
                // with them, so a corrupt image must fail typed here, not
                // panic there.
                let subjects: Vec<(SubjectId, u32, Vec<PatternId>, bool)> = Vec::decode(r)?;
                let mut seen = vec![false; subjects.len()];
                for &(_, dense, _, _) in &subjects {
                    match seen.get_mut(dense as usize) {
                        Some(slot) if !*slot => *slot = true,
                        _ => {
                            return Err(CodecError::Malformed(format!(
                                "invalid dense subject index {dense} (must be a \
                                 permutation of 0..{})",
                                subjects.len()
                            )))
                        }
                    }
                }
                subjects
            },
            queries: Vec::decode(r)?,
            explicit_history: Option::decode(r)?,
            released_history: Vec::decode(r)?,
            widening: Option::decode(r)?,
            epoch: u64::decode(r)?,
            compiled_initial: bool::decode(r)?,
            dirty: bool::decode(r)?,
        })
    }
}

impl Wire for Command {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Command::RegisterSubject(s) => {
                0u8.encode(w);
                s.encode(w);
            }
            Command::RetireSubject(s) => {
                1u8.encode(w);
                s.encode(w);
            }
            Command::RegisterPrivatePattern { subject, pattern } => {
                2u8.encode(w);
                subject.encode(w);
                pattern.encode(w);
            }
            Command::RevokePrivatePattern { subject, pattern } => {
                3u8.encode(w);
                subject.encode(w);
                pattern.encode(w);
            }
            Command::AddConsumerQuery { name, pattern } => {
                4u8.encode(w);
                name.encode(w);
                pattern.encode(w);
            }
            Command::AddTypedQuery { name, spec } => {
                5u8.encode(w);
                name.encode(w);
                spec.encode(w);
            }
            Command::RemoveConsumerQuery(q) => {
                6u8.encode(w);
                q.encode(w);
            }
            Command::ProvideHistory(windows) => {
                7u8.encode(w);
                let rows: Vec<IndicatorVector> = windows.iter().cloned().collect();
                rows.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => Command::RegisterSubject(SubjectId::decode(r)?),
            1 => Command::RetireSubject(SubjectId::decode(r)?),
            2 => Command::RegisterPrivatePattern {
                subject: SubjectId::decode(r)?,
                pattern: Pattern::decode(r)?,
            },
            3 => Command::RevokePrivatePattern {
                subject: SubjectId::decode(r)?,
                pattern: PatternId::decode(r)?,
            },
            4 => Command::AddConsumerQuery {
                name: String::decode(r)?,
                pattern: Pattern::decode(r)?,
            },
            5 => Command::AddTypedQuery {
                name: String::decode(r)?,
                spec: QuerySpec::decode(r)?,
            },
            6 => Command::RemoveConsumerQuery(QueryId::decode(r)?),
            7 => Command::ProvideHistory(WindowedIndicators::new(Vec::decode(r)?)),
            t => return Err(CodecError::Malformed(format!("invalid command tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// The checkpoint image
// ---------------------------------------------------------------------------

/// One shard's durable state: everything that lives behind the shard
/// mutex, including the RNG position (restoring it resumes the xoshiro
/// stream mid-sequence — replay determinism depends on it).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// The reorder buffer (pending events, clock, drop count).
    pub buffer: ReorderSnapshot,
    /// The shard engine (open window, detector, ledgers, staged epochs).
    pub engine: EngineSnapshot,
    /// The shard RNG's xoshiro256++ state words.
    pub rng: [u64; 4],
    /// The shard's stream-time frontier.
    pub frontier: Timestamp,
}

/// The service-side mirror of one shard's observable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetaSnapshot {
    /// Mirror of the shard buffer's `max_seen` clock.
    pub max_seen: Option<Timestamp>,
    /// Mirror of the shard's frontier.
    pub frontier: Timestamp,
    /// Mirror of the dropped-event count.
    pub dropped: u64,
    /// Mirror of the pending-event count.
    pub buffered: usize,
    /// Mirror of the released-window count.
    pub released: usize,
}

/// One partially merged window accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeRowSnapshot {
    /// Window start.
    pub start: Timestamp,
    /// Releasing epoch.
    pub epoch: u64,
    /// Shards that have released this window so far.
    pub shards_done: usize,
    /// Per-query disjunction so far.
    pub answers_any: Vec<bool>,
    /// Per-query positive-shard counts so far.
    pub positive_shards: Vec<usize>,
    /// Per-type union so far (`None` for placeholder rows).
    pub union: Option<IndicatorVector>,
}

/// The merge accumulator (per-window rows awaiting the last shard).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeSnapshot {
    /// Index of the lowest unmerged window.
    pub next_index: usize,
    /// Accumulator rows, front = `next_index`.
    pub rows: Vec<MergeRowSnapshot>,
}

/// A full, self-contained image of a [`ShardedService`] captured between
/// calls (no in-flight round, nothing undelivered). Pair with the
/// same [`ServiceConfig`](crate::service::ServiceConfig) the service was
/// built with to [`ShardedService::restore`] it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCheckpoint {
    /// The recorded execution mode (worker pool vs inline).
    pub parallel: bool,
    /// Per-shard resident state.
    pub shards: Vec<ShardCheckpoint>,
    /// Per-shard service-side mirrors.
    pub meta: Vec<ShardMetaSnapshot>,
    /// Per shard, per epoch: the release charge schedule.
    pub shard_charges: Vec<Vec<Vec<(SubjectId, PatternId, Epsilon)>>>,
    /// Per-subject epoch ledgers, sorted by subject id.
    pub ledgers: Vec<(SubjectId, EpochLedgerSnapshot<PatternId>)>,
    /// The service's query-budget ledger.
    pub query_ledger: EpochLedgerSnapshot<QueryId>,
    /// The merge accumulator.
    pub merge: MergeSnapshot,
    /// Every compiled epoch core, indexed by epoch.
    pub cores_by_epoch: Vec<OnlineCoreSnapshot>,
    /// Per-epoch query charge schedules.
    pub query_charges_by_epoch: Vec<Vec<(QueryId, Epsilon)>>,
    /// Trailing-window state of the merged stateful queries.
    pub merged_state: Vec<(QueryId, Vec<u64>)>,
    /// The control plane's dynamic state.
    pub control: ControlPlaneSnapshot,
    /// `(activation_index, epoch)` of every scheduled transition.
    pub activations: Vec<(usize, u64)>,
    /// Total events accepted so far.
    pub events_ingested: u64,
    /// Whether the stream was finished.
    pub finished: bool,
    /// WAL byte offset this checkpoint is consistent with: recovery
    /// replays records from here on. Zero when no WAL was attached.
    pub wal_offset: u64,
}

impl Wire for ShardCheckpoint {
    fn encode(&self, w: &mut ByteWriter) {
        self.buffer.encode(w);
        self.engine.encode(w);
        self.rng.encode(w);
        self.frontier.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ShardCheckpoint {
            buffer: ReorderSnapshot::decode(r)?,
            engine: EngineSnapshot::decode(r)?,
            rng: <[u64; 4]>::decode(r)?,
            frontier: Timestamp::decode(r)?,
        })
    }
}

impl Wire for ShardMetaSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.max_seen.encode(w);
        self.frontier.encode(w);
        self.dropped.encode(w);
        self.buffered.encode(w);
        self.released.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ShardMetaSnapshot {
            max_seen: Option::decode(r)?,
            frontier: Timestamp::decode(r)?,
            dropped: u64::decode(r)?,
            buffered: usize::decode(r)?,
            released: usize::decode(r)?,
        })
    }
}

impl Wire for MergeRowSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.start.encode(w);
        self.epoch.encode(w);
        self.shards_done.encode(w);
        self.answers_any.encode(w);
        self.positive_shards.encode(w);
        self.union.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(MergeRowSnapshot {
            start: Timestamp::decode(r)?,
            epoch: u64::decode(r)?,
            shards_done: usize::decode(r)?,
            answers_any: Vec::decode(r)?,
            positive_shards: Vec::decode(r)?,
            union: Option::decode(r)?,
        })
    }
}

impl Wire for MergeSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.next_index.encode(w);
        self.rows.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(MergeSnapshot {
            next_index: usize::decode(r)?,
            rows: Vec::decode(r)?,
        })
    }
}

impl Wire for ServiceCheckpoint {
    fn encode(&self, w: &mut ByteWriter) {
        self.parallel.encode(w);
        self.shards.encode(w);
        self.meta.encode(w);
        self.shard_charges.encode(w);
        self.ledgers.encode(w);
        self.query_ledger.encode(w);
        self.merge.encode(w);
        self.cores_by_epoch.encode(w);
        self.query_charges_by_epoch.encode(w);
        self.merged_state.encode(w);
        self.control.encode(w);
        self.activations.encode(w);
        self.events_ingested.encode(w);
        self.finished.encode(w);
        self.wal_offset.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ServiceCheckpoint {
            parallel: bool::decode(r)?,
            shards: Vec::decode(r)?,
            meta: Vec::decode(r)?,
            shard_charges: Vec::decode(r)?,
            ledgers: Vec::decode(r)?,
            query_ledger: EpochLedgerSnapshot::decode(r)?,
            merge: MergeSnapshot::decode(r)?,
            cores_by_epoch: Vec::decode(r)?,
            query_charges_by_epoch: Vec::decode(r)?,
            merged_state: Vec::decode(r)?,
            control: ControlPlaneSnapshot::decode(r)?,
            activations: Vec::decode(r)?,
            events_ingested: u64::decode(r)?,
            finished: bool::decode(r)?,
            wal_offset: u64::decode(r)?,
        })
    }
}

impl ServiceCheckpoint {
    /// Encode to the deterministic binary wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode from [`ServiceCheckpoint::to_bytes`] output; rejects
    /// truncated or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = ByteReader::new(bytes);
        let ckpt = Self::decode(&mut r)?;
        r.finish()?;
        Ok(ckpt)
    }
}

/// FNV-1a 64 over `bytes` — a torn-write detector, not a security
/// feature. The one checksum of the workspace: checkpoint and WAL frames
/// here, network frames in `pdp-server`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Write a checkpoint file atomically: encode, write `magic + length +
/// payload + fnv64` to a sibling temp file, fsync, rename over `path`.
/// A crash mid-write leaves the previous checkpoint intact.
pub fn write_checkpoint(path: &Path, checkpoint: &ServiceCheckpoint) -> Result<(), CoreError> {
    let payload = checkpoint.to_bytes();
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    let tmp = path.with_extension("ckpt-tmp");
    let mut file = File::create(&tmp).map_err(|e| io_err("create checkpoint temp", e))?;
    file.write_all(&out)
        .map_err(|e| io_err("write checkpoint", e))?;
    file.sync_all().map_err(|e| io_err("sync checkpoint", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_err("publish checkpoint", e))
}

/// Read and validate a checkpoint file written by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<ServiceCheckpoint, CoreError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read checkpoint", e))?;
    if bytes.len() >= 8 && &bytes[..8] == CKPT_MAGIC_V1 {
        return Err(durability_err(
            "unsupported checkpoint format version 1 (predates dense subject \
             interning); re-checkpoint from a live service",
        ));
    }
    if bytes.len() < 24 || &bytes[..8] != CKPT_MAGIC {
        return Err(durability_err("not a checkpoint file (bad magic)"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if bytes.len() as u64 - 24 != len {
        return Err(durability_err("checkpoint file length mismatch"));
    }
    let payload = &bytes[16..16 + len as usize];
    let stored = u64::from_le_bytes(bytes[16 + len as usize..].try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(durability_err("checkpoint checksum mismatch (torn write)"));
    }
    ServiceCheckpoint::from_bytes(payload)
}

// ---------------------------------------------------------------------------
// The write-ahead log
// ---------------------------------------------------------------------------

/// One durable input record: everything that can change service state,
/// in the order the service accepted it.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch accepted by `push_batch` (already validated: every subject
    /// was routable when it was logged).
    Batch(Vec<KeyedEvent>),
    /// A watermark heartbeat.
    Watermark(Timestamp),
    /// A staged control-plane command.
    Command(Command),
    /// A successful epoch transition.
    BeginEpoch,
    /// The terminal finish call.
    Finish,
}

impl Wire for WalRecord {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            WalRecord::Batch(events) => {
                0u8.encode(w);
                events.encode(w);
            }
            WalRecord::Watermark(ts) => {
                1u8.encode(w);
                ts.encode(w);
            }
            WalRecord::Command(cmd) => {
                2u8.encode(w);
                cmd.encode(w);
            }
            WalRecord::BeginEpoch => 3u8.encode(w),
            WalRecord::Finish => 4u8.encode(w),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => WalRecord::Batch(Vec::decode(r)?),
            1 => WalRecord::Watermark(Timestamp::decode(r)?),
            2 => WalRecord::Command(Command::decode(r)?),
            3 => WalRecord::BeginEpoch,
            4 => WalRecord::Finish,
            t => return Err(CodecError::Malformed(format!("invalid wal record tag {t}"))),
        })
    }
}

/// Append handle over a write-ahead log file. Records are framed as
/// `u32 length + u64 sequence + payload + u64 fnv1a(sequence ∥ payload)`;
/// the sequence number makes a duplicated frame detectable and the
/// checksum makes a bit flip detectable, while a torn *tail* (a crash
/// mid-append) stays silently recoverable. [`WalWriter::offset`] after
/// an append is the durable position a checkpoint taken *now* is
/// consistent with.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    offset: u64,
    seq: u64,
    /// Persistent frame encode buffer: every append encodes the payload
    /// *directly* into this buffer after a 12-byte length/sequence
    /// placeholder, patches the header in place, and appends the
    /// checksum — one buffered write, zero steady-state allocations
    /// (capacity is retained across appends).
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Create (truncate) a fresh WAL at `path`.
    pub fn create(path: &Path) -> Result<Self, CoreError> {
        let mut file = File::create(path).map_err(|e| io_err("create wal", e))?;
        file.write_all(WAL_MAGIC)
            .map_err(|e| io_err("write wal header", e))?;
        file.sync_all().map_err(|e| io_err("sync wal header", e))?;
        Ok(WalWriter {
            file,
            offset: WAL_MAGIC.len() as u64,
            seq: 0,
            scratch: Vec::new(),
        })
    }

    /// Reopen an existing WAL for appending. Scans the record stream and
    /// positions after the last *complete* record. A torn tail from a
    /// crash mid-append is cut off (and the cut synced) before anything
    /// is appended: a short record written over a longer torn one would
    /// otherwise leave the torn frame's remainder behind it, which the
    /// next scan reads as a frame with a bogus sequence number. Mid-log
    /// corruption (a bad checksum or sequence before the tail) is refused
    /// with a typed error — appending after it would launder the damage.
    pub fn open_append(path: &Path) -> Result<Self, CoreError> {
        let bytes = std::fs::read(path).map_err(|e| io_err("read wal", e))?;
        let scan = scan_wal(&bytes)?;
        if let Some(anomaly) = scan.anomaly {
            return Err(durability_err(format!("refusing to append: {anomaly}")));
        }
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open wal", e))?;
        if bytes.len() as u64 > scan.end {
            file.set_len(scan.end)
                .map_err(|e| io_err("truncate torn wal tail", e))?;
            file.sync_data()
                .map_err(|e| io_err("sync truncated wal", e))?;
        }
        file.seek(SeekFrom::Start(scan.end))
            .map_err(|e| io_err("seek wal", e))?;
        Ok(WalWriter {
            file,
            offset: scan.end,
            seq: scan.frames.len() as u64,
            scratch: Vec::new(),
        })
    }

    /// Bytes of complete records written so far (including the header).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Append one record and flush it to the OS.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), CoreError> {
        self.append_frame(|w| record.encode(w))
    }

    /// Append a batch record without taking ownership of the batch — the
    /// service logs at partition time, while it still only borrows the
    /// events. Encodes identically to [`WalRecord::Batch`].
    pub fn append_batch(&mut self, batch: &[KeyedEvent]) -> Result<(), CoreError> {
        self.append_frame(|w| {
            0u8.encode(w);
            batch.len().encode(w);
            for keyed in batch {
                keyed.encode(w);
            }
        })
    }

    /// Append a command record from a borrow (encodes identically to
    /// [`WalRecord::Command`]).
    pub fn append_command(&mut self, command: &Command) -> Result<(), CoreError> {
        self.append_frame(|w| {
            2u8.encode(w);
            command.encode(w);
        })
    }

    /// Frame one record: the payload encoder runs directly against the
    /// persistent scratch buffer (after a 12-byte header placeholder),
    /// then the length and sequence are patched in place and the checksum
    /// appended — no writer→frame copy, no per-append allocation once the
    /// buffer has grown to the workload's frame size.
    fn append_frame(
        &mut self,
        encode_payload: impl FnOnce(&mut ByteWriter),
    ) -> Result<(), CoreError> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend_from_slice(&[0u8; 12]); // length + sequence, patched below
        let mut w = ByteWriter::from_vec(buf);
        encode_payload(&mut w);
        let mut frame = w.into_bytes();
        let payload_len = (frame.len() - 12) as u32;
        frame[0..4].copy_from_slice(&payload_len.to_le_bytes());
        frame[4..12].copy_from_slice(&self.seq.to_le_bytes());
        let checksum = fnv1a(&frame[4..]);
        frame.extend_from_slice(&checksum.to_le_bytes());
        let result = self.file.write_all(&frame).and_then(|()| self.file.flush());
        let frame_len = frame.len() as u64;
        self.scratch = frame; // keep the capacity for the next append
        if let Err(e) = result {
            // a partial write may have landed; reposition so a retry of
            // the same frame overwrites it byte-for-byte instead of
            // appending after garbage
            self.file.seek(SeekFrom::Start(self.offset)).ok();
            return Err(io_err("append wal record", e));
        }
        self.offset += frame_len;
        self.seq += 1;
        Ok(())
    }

    /// fsync the log — the true durability barrier. [`WalWriter::append`]
    /// only flushes to the OS; call this at the cadence the deployment's
    /// loss tolerance requires.
    pub fn sync(&mut self) -> Result<(), CoreError> {
        self.file.sync_data().map_err(|e| io_err("fsync wal", e))
    }
}

/// Result of walking a WAL byte image: the valid frame prefix, where it
/// ends, and the first anomaly that stopped the walk (if any).
struct WalScan {
    /// `(frame_start, payload_start, payload_end)` of each valid frame.
    frames: Vec<(u64, u64, u64)>,
    /// Position after the last valid frame — where an append may resume.
    end: u64,
    /// First *corruption* found (bad checksum, duplicated/out-of-order
    /// sequence, implausible length). `None` for a clean log; a torn
    /// tail is a crash artifact, not corruption, and stays `None`.
    anomaly: Option<String>,
}

/// Walk the framed records of a WAL byte image. Trailing partial frames
/// (a crash mid-append) silently end the walk; complete-but-invalid
/// frames are reported as an anomaly so callers choose between strict
/// failure ([`read_wal_from`]) and prefix recovery
/// ([`recover_wal_prefix`]).
fn scan_wal(bytes: &[u8]) -> Result<WalScan, CoreError> {
    if bytes.len() >= WAL_MAGIC_V1.len() && &bytes[..WAL_MAGIC_V1.len()] == WAL_MAGIC_V1 {
        return Err(durability_err(
            "unsupported wal format version 1 (no frame checksums); re-create the log",
        ));
    }
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(durability_err("not a wal file (bad magic)"));
    }
    let mut frames = Vec::new();
    let mut pos = WAL_MAGIC.len() as u64;
    let mut anomaly = None;
    loop {
        let p = pos as usize;
        if p + 12 > bytes.len() {
            break; // torn tail (or clean end)
        }
        let len = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap()) as u64;
        if len > MAX_WAL_RECORD {
            anomaly = Some(format!(
                "implausible wal record length {len} at offset {pos}"
            ));
            break;
        }
        let end = pos + WAL_FRAME_OVERHEAD + len;
        if end as usize > bytes.len() {
            break; // torn tail
        }
        let seq = u64::from_le_bytes(bytes[p + 4..p + 12].try_into().unwrap());
        let expected = frames.len() as u64;
        if seq != expected {
            anomaly = Some(format!(
                "wal frame at offset {pos} carries sequence {seq}, expected {expected} \
                 (duplicated or out-of-order frame)"
            ));
            break;
        }
        let body = &bytes[p + 4..(end - 8) as usize];
        let stored =
            u64::from_le_bytes(bytes[(end - 8) as usize..end as usize].try_into().unwrap());
        if fnv1a(body) != stored {
            anomaly = Some(format!(
                "wal frame {seq} at offset {pos} fails its checksum (corrupt frame)"
            ));
            break;
        }
        frames.push((pos, pos + 12, end - 8));
        pos = end;
    }
    Ok(WalScan {
        frames,
        end: pos,
        anomaly,
    })
}

fn decode_frames(
    bytes: &[u8],
    frames: &[(u64, u64, u64)],
    from: u64,
) -> Result<Vec<WalRecord>, CoreError> {
    let mut records = Vec::new();
    for &(frame_start, start, end) in frames {
        if frame_start < from.max(WAL_MAGIC.len() as u64) {
            continue;
        }
        let mut r = ByteReader::new(&bytes[start as usize..end as usize]);
        let record = WalRecord::decode(&mut r)?;
        r.finish()?;
        records.push(record);
    }
    Ok(records)
}

/// Read every complete record at byte offset ≥ `from` (a checkpoint's
/// [`ServiceCheckpoint::wal_offset`]; `0` means the whole log). Torn
/// trailing bytes are discarded — they belong to an append the crash
/// interrupted, whose operation is not part of the recovered history.
/// Mid-log corruption (checksum or sequence violations) is a typed
/// error; use [`recover_wal_prefix`] to salvage the valid prefix.
///
/// A log whose complete records end before `from` is a typed error too:
/// the checkpoint that recorded `from` outlived records the log lost, and
/// appending below `from` would file every later record where a
/// recovery from that checkpoint silently skips it.
pub fn read_wal_from(path: &Path, from: u64) -> Result<Vec<WalRecord>, CoreError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read wal", e))?;
    let scan = scan_wal(&bytes)?;
    if let Some(anomaly) = scan.anomaly {
        return Err(durability_err(anomaly));
    }
    if scan.end < from {
        return Err(durability_err(format!(
            "wal ends at offset {} before the checkpoint's offset {from}: \
             the log lost records the checkpoint covers",
            scan.end
        )));
    }
    decode_frames(&bytes, &scan.frames, from)
}

/// Salvage the valid record prefix of a possibly corrupt WAL: returns
/// every record before the first invalid frame, plus a description of
/// that frame's defect (`None` when the log is clean apart from, at
/// most, a torn tail). A log whose header is unreadable has no valid
/// prefix and errors like [`read_wal_from`].
pub fn recover_wal_prefix(path: &Path) -> Result<(Vec<WalRecord>, Option<String>), CoreError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read wal", e))?;
    let scan = scan_wal(&bytes)?;
    let records = decode_frames(&bytes, &scan.frames, 0)?;
    Ok((records, scan.anomaly))
}

/// Replay a WAL tail through the service's normal public entry points,
/// delivering the releases it re-derives into `sink`. Must run **before**
/// a [`WalWriter`] is attached, or the replayed operations would be
/// logged twice.
///
/// Command records are write-ahead (logged before staging), so a command
/// the control plane rejected is in the log too; its replay re-fails
/// deterministically and is skipped. Every other record was logged after
/// its operation succeeded, so replay errors are real corruption and
/// propagate.
pub fn replay_into<S: ReleaseSink>(
    service: &mut ShardedService,
    records: Vec<WalRecord>,
    sink: &mut S,
) -> Result<(), CoreError> {
    for record in records {
        match record {
            WalRecord::Batch(events) => service.push_batch_into(events, sink)?,
            WalRecord::Watermark(ts) => service.advance_watermark_into(ts, sink)?,
            WalRecord::Command(cmd) => match service.submit(cmd) {
                Ok(_)
                | Err(CoreError::InvalidCommand(_))
                | Err(CoreError::UnknownSubject(_))
                | Err(CoreError::UnknownQuery(_)) => {}
                Err(e) => return Err(e),
            },
            WalRecord::BeginEpoch => {
                service.begin_epoch()?;
            }
            WalRecord::Finish => service.finish_into(sink)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_stream::{AttrValue, Event};

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    #[test]
    fn checksum_matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn primitives_round_trip_at_full_precision() {
        let mut w = ByteWriter::new();
        u64::MAX.encode(&mut w);
        (u64::MAX - 1).encode(&mut w);
        f64::MIN_POSITIVE.encode(&mut w);
        (-0.0f64).encode(&mut w);
        i64::MIN.encode(&mut w);
        "héllo".to_owned().encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(f64::decode(&mut r).unwrap(), f64::MIN_POSITIVE);
        assert_eq!(f64::decode(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(i64::decode(&mut r).unwrap(), i64::MIN);
        assert_eq!(String::decode(&mut r).unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_and_trailing_payloads_error() {
        let mut w = ByteWriter::new();
        7u64.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..4]);
        assert!(u64::decode(&mut r).is_err());
        let mut r = ByteReader::new(&bytes);
        u32::decode(&mut r).unwrap();
        assert!(r.finish().is_err(), "trailing bytes must be rejected");
    }

    #[test]
    fn events_and_commands_round_trip() {
        let event = Event::new(t(2), Timestamp::from_millis(41))
            .with_attr("cell", AttrValue::Location(3.5, -1.25))
            .with_attr("id", AttrValue::Int(i64::MAX));
        let records = vec![
            WalRecord::Batch(vec![KeyedEvent::new(SubjectId(u64::MAX), event)]),
            WalRecord::Watermark(Timestamp::from_millis(99)),
            WalRecord::Command(Command::RegisterPrivatePattern {
                subject: SubjectId(7),
                pattern: Pattern::seq("p", vec![t(0), t(1)]).unwrap(),
            }),
            WalRecord::Command(Command::AddTypedQuery {
                name: "cnt".into(),
                spec: QuerySpec::Count {
                    pattern: PatternId(0),
                    horizon: 3,
                },
            }),
            WalRecord::BeginEpoch,
            WalRecord::Finish,
        ];
        for record in &records {
            let mut w = ByteWriter::new();
            record.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&WalRecord::decode(&mut r).unwrap(), record);
            r.finish().unwrap();
        }
    }

    #[test]
    fn wal_files_tolerate_torn_tails() {
        let dir = std::env::temp_dir().join(format!("pdp-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&WalRecord::Watermark(Timestamp::from_millis(10)))
            .unwrap();
        let complete = wal.offset();
        wal.append(&WalRecord::Watermark(Timestamp::from_millis(20)))
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        // simulate a crash mid-append: truncate into the second record
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..complete as usize + 3]).unwrap();
        let records = read_wal_from(&path, 0).unwrap();
        assert_eq!(
            records,
            vec![WalRecord::Watermark(Timestamp::from_millis(10))]
        );
        // reopening for append lands after the last complete record …
        let mut wal = WalWriter::open_append(&path).unwrap();
        assert_eq!(wal.offset(), complete);
        wal.append(&WalRecord::Finish).unwrap();
        drop(wal);
        // … and the new record replaces the torn tail
        assert_eq!(
            read_wal_from(&path, 0).unwrap(),
            vec![
                WalRecord::Watermark(Timestamp::from_millis(10)),
                WalRecord::Finish
            ]
        );
        // offset filtering skips already-checkpointed records
        assert_eq!(
            read_wal_from(&path, complete).unwrap(),
            vec![WalRecord::Finish]
        );

        // A torn tail longer than the record appended after the restart:
        // the leftover of the torn frame must not survive behind it, or
        // the next scan reads a frame out of the torn payload.
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&WalRecord::Watermark(Timestamp::from_millis(10)))
            .unwrap();
        let complete = wal.offset();
        let batch: Vec<KeyedEvent> = (0..64)
            .map(|i| KeyedEvent::new(SubjectId(i), Event::new(t(i as u32), Timestamp::ZERO)))
            .collect();
        wal.append_batch(&batch).unwrap();
        let torn_at = wal.offset() - 40;
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..torn_at as usize]).unwrap();
        let mut wal = WalWriter::open_append(&path).unwrap();
        assert_eq!(wal.offset(), complete);
        wal.append(&WalRecord::Finish).unwrap();
        drop(wal);
        let expected = vec![
            WalRecord::Watermark(Timestamp::from_millis(10)),
            WalRecord::Finish,
        ];
        assert_eq!(read_wal_from(&path, 0).unwrap(), expected);
        let reopened = WalWriter::open_append(&path).unwrap();
        assert_eq!(reopened.offset(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_frames_detect_duplication_and_bit_flips() {
        let dir = std::env::temp_dir().join(format!("pdp-wal-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // duplicated frame: re-append the bytes of the last frame
        let path = dir.join("dup.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&WalRecord::Watermark(Timestamp::from_millis(10)))
            .unwrap();
        let first_end = wal.offset() as usize;
        wal.append(&WalRecord::BeginEpoch).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let dup = bytes[first_end..].to_vec();
        bytes.extend_from_slice(&dup);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_wal_from(&path, 0).unwrap_err();
        assert!(
            matches!(&err, CoreError::Durability(msg) if msg.contains("sequence")),
            "got {err:?}"
        );
        // appending over corruption is refused too
        assert!(WalWriter::open_append(&path).is_err());
        // … but the valid prefix is recoverable
        let (records, anomaly) = recover_wal_prefix(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Watermark(Timestamp::from_millis(10)),
                WalRecord::BeginEpoch
            ]
        );
        assert!(anomaly.unwrap().contains("sequence"));

        // bit flip inside the first frame's payload
        let path = dir.join("flip.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&WalRecord::Watermark(Timestamp::from_millis(10)))
            .unwrap();
        wal.append(&WalRecord::Finish).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let payload_pos = WAL_MAGIC.len() + 12 + 2;
        bytes[payload_pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_wal_from(&path, 0).unwrap_err();
        assert!(
            matches!(&err, CoreError::Durability(msg) if msg.contains("checksum")),
            "got {err:?}"
        );
        let (records, anomaly) = recover_wal_prefix(&path).unwrap();
        assert!(records.is_empty(), "nothing before the corrupt frame");
        assert!(anomaly.unwrap().contains("checksum"));

        // wrong magic and the retired v1 magic are typed errors
        let path = dir.join("magic.wal");
        std::fs::write(&path, b"NOTAWAL!rest").unwrap();
        assert!(matches!(
            read_wal_from(&path, 0),
            Err(CoreError::Durability(_))
        ));
        std::fs::write(&path, b"PDPWAL\x00\x01tail").unwrap();
        let err = read_wal_from(&path, 0).unwrap_err();
        assert!(
            matches!(&err, CoreError::Durability(msg) if msg.contains("version")),
            "got {err:?}"
        );
        assert!(recover_wal_prefix(&path).is_err(), "no valid prefix at all");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_files_reject_corruption() {
        let dir = std::env::temp_dir().join(format!("pdp-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.ckpt");
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CoreError::Durability(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
