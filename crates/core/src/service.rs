//! The sharded multi-tenant service layer.
//!
//! The paper's model (§III-A, Fig. 1) is one trusted engine serving *many*
//! data subjects and consumers over an unbounded stream. A production-scale
//! deployment cannot run that as a single single-threaded
//! [`StreamingEngine`]: ingestion arrives in batches, events arrive late,
//! and the event volume of millions of subjects has to be spread over
//! independent partitions. [`ShardedService`] is that deployment shape:
//!
//! * **setup phase** ([`ServiceBuilder`]): data subjects register under a
//!   [`SubjectId`] and declare their private patterns; data consumers
//!   register named target queries. One protection pipeline is built over
//!   the union of all registrations, exactly as in
//!   [`TrustedEngine::setup`](crate::engine::TrustedEngine::setup);
//! * **sharding**: every subject is hash-assigned to one of `n_shards`
//!   partitions ([`ShardedService::shard_for`]), so a subject's whole
//!   stream — and therefore every window of it — is always processed by
//!   the same shard. Each shard runs its own [`OnlineCore`]-backed
//!   [`StreamingEngine`] with an independent [`DpRng`];
//! * **dense subject routing** ([`RouteTable`]): the control plane
//!   interns every registered subject into a dense `u32` index at
//!   registration time (append-only — the index is stable across
//!   retire/re-register, checkpoints carry it explicitly, and WAL replay
//!   re-derives it from command order, so recovery and the live service
//!   agree bit-for-bit). The per-event route probe is an indexed table
//!   lookup — `direct[subject.0] → shard`, with a hashed overflow tier
//!   for sparse ids above [`RouteTable::DIRECT_CAP`] — instead of a
//!   per-event `HashMap` probe, and the per-subject budget ledgers are a
//!   dense `Vec` keyed by the intern index on the settle path. Unknown
//!   or retired subjects hit the table's sentinel and reject the whole
//!   batch atomically ([`CoreError::UnknownSubject`]) before any event
//!   moves, exactly as the hash probe did. Checkpoint images written
//!   before dense interning (format v1) are rejected with a typed
//!   version error — re-checkpoint from a live service to migrate (the
//!   wire format stays subject-keyed and sorted, so images mean the
//!   same thing; only the version byte moved);
//! * **pipelined shard workers (shard-resident state)**: a multi-shard
//!   service spawns one persistent worker thread per shard (plain
//!   `std::thread` + channels — no external dependencies). Each worker
//!   permanently owns its shard's state — [`ReorderBuffer`],
//!   [`StreamingEngine`] and [`DpRng`] — behind an `Arc<Mutex<…>>` the
//!   service thread only locks between calls
//!   ([`ShardedService::begin_epoch`], checkpoints), when every worker
//!   is idle and the locks are uncontended. Nothing is moved over a
//!   channel per job;
//! * **double-buffered bounded hand-off**:
//!   [`ShardedService::push_batch`] partitions a batch into per-shard
//!   sub-batch buffers that are swapped into a **bounded** SPSC job queue
//!   the moment they fill, so partitioning a batch's tail overlaps shard
//!   work on its head. Backpressure is the queue filling up (the send
//!   blocks); memory never grows unboundedly. Emptied buffers ride the
//!   reply channel back and are reused — the steady state recycles
//!   allocations instead of making them;
//! * **same-call fold-back**: every call submits its round's jobs to all
//!   shards first, then collects the replies, settles them and delivers
//!   into the caller's sink before it returns — nothing is in flight
//!   between calls, so the sink passed to a call receives exactly that
//!   call's releases. Replies fold back **in shard order** via per-shard
//!   FIFO reply channels, so accounting, merging and output are
//!   deterministic regardless of thread scheduling. Each shard's RNG
//!   lives with its engine, so an N-shard parallel run is bit-for-bit
//!   identical to the inline one — and a 1-shard service stays
//!   bit-for-bit a plain [`StreamingEngine`];
//! * **batched out-of-order ingestion** ([`ShardedService::push_batch`]):
//!   events are keyed by subject, routed to their shard's
//!   [`ReorderBuffer`] (ownership moves all the way in — no per-event
//!   clone), and only enter the shard engine once the shard watermark
//!   passes them; events later than the bounded delay are counted and
//!   dropped. A shard works **per sub-batch**, not per event: one
//!   `push_batch_into` offers the whole sub-batch to the buffer and
//!   releases once, then one pass feeds the released run to the engine
//!   (identical output to event-at-a-time by the buffer's batch law).
//!   The service thread mirrors every shard buffer's clock at
//!   routing time, so the **global low watermark** (the minimum across
//!   shard buffers) is known without a barrier and drives
//!   [`StreamingEngine::advance_watermark`] on every shard in the same
//!   round, keeping quiet partitions releasing (protected, possibly
//!   flipped-present) windows on one aligned window timeline;
//! * **merged releases**: shard releases fold into per-window-index
//!   accumulators as they arrive; once every shard has released a given
//!   index the row is emitted as a [`MergedRelease`] — boolean queries
//!   fold as the disjunction over shards (with per-query positive-shard
//!   counts kept for aggregate consumers), extension queries evaluate
//!   typed on the population-union protected view. (Releases are never
//!   cloned into a merge queue; the accumulator only folds their answer
//!   bits.)
//! * **consumer delivery** ([`ReleaseSink`]): `push_batch_into` /
//!   `advance_watermark_into` / `finish_into` push every release and
//!   every subscribed id-keyed [`QueryAnswer`] record into a
//!   consumer-supplied sink; `push_batch`/[`BatchOutput`] is the same
//!   path collected through the default [`VecSink`].
//! * **per-subject accounting**: each shard release charges every subject
//!   assigned to that shard for their own registered patterns in a
//!   per-subject [`BudgetLedger`](pdp_dp::BudgetLedger) — the
//!   pattern-level ε-DP guarantee
//!   (Thm. 1) is per subject and must hold regardless of how the stream is
//!   partitioned.
//!
//! * **control plane / data plane split** ([`ControlPlane`]): the static
//!   setup phase is only the *initial* epoch. At runtime, tenants join and
//!   leave ([`ShardedService::register_subject`] /
//!   [`ShardedService::retire_subject`]), patterns and queries churn
//!   ([`ShardedService::register_private_pattern`] /
//!   [`ShardedService::revoke_private_pattern`] /
//!   [`ShardedService::add_consumer_query`] /
//!   [`ShardedService::remove_consumer_query`]), and history arrives
//!   ([`ShardedService::provide_history`]). Staged commands take effect
//!   only at [`ShardedService::begin_epoch`], which compiles them into an
//!   immutable [`EpochPlan`] and fans it out to every shard with one
//!   **activation window index** — the first window no shard has released
//!   yet (the frontier the global low watermark drives). Every shard —
//!   and any independent engine handed the same `(activation, plan)` —
//!   switches on the same window, so the equivalence anchors below extend
//!   to the dynamic setting. The detector-side pattern compile happens
//!   **once**, on the service thread
//!   ([`PreparedPatternSwap`]), and is
//!   shared across all shards behind an `Arc`: activation at the
//!   scheduled window is an atomic plan swap, not a per-shard
//!   stop-the-world recompile. See [`crate::control`] for the
//!   determinism contract of command schedules.
//!
//! * **crash consistency** ([`crate::durability`]): the service can
//!   journal every accepted input to a write-ahead log and image its full
//!   state into a [`ServiceCheckpoint`]. The consistency contract:
//!
//!   - **checkpoints between calls.** Every call settles and delivers
//!     its own round before it returns, so
//!     [`ShardedService::checkpoint_into`] never images an in-flight
//!     round, an undelivered release, or a sealed audit record. Any
//!     state a checkpoint captures has already been delivered and
//!     charged.
//!   - **write-ahead commands, write-behind effects.** Control-plane
//!     commands are logged *before* they are staged (their replay
//!     re-fails deterministically if the plane rejected them); batches
//!     are logged after atomic subject validation but before any event
//!     moves; watermarks before their round is submitted; `BeginEpoch`
//!     only after the whole transition succeeded; `Finish` when the
//!     service seals. An operation interrupted by a crash before its
//!     record hit the log simply never happened — recovery is always a
//!     clean prefix of the accepted history.
//!   - **recovery = checkpoint + replay.** [`ShardedService::recover_into`]
//!     restores the checkpoint image (including every shard's RNG
//!     position, resumed mid-stream) and replays the WAL tail from
//!     [`ServiceCheckpoint::wal_offset`] through the normal public entry
//!     points. Because the service is deterministic in its inputs under
//!     seeded RNGs, the recovered service produces **bit-for-bit** the
//!     same deliveries, ledger spends and low watermark as one that never
//!     crashed (see `tests/crash_recovery.rs`).
//!
//! Correctness is anchored by equivalence, not by re-proof: a 1-shard
//! service reproduces [`StreamingEngine`] bit-for-bit under a seeded
//! [`DpRng`], and an N-shard service over a partitioned stream matches N
//! independent engines (see `tests/sharded_equivalence.rs`) — including
//! under a non-empty command schedule.
//!
//! [`ReorderBuffer`]: pdp_stream::ReorderBuffer

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pdp_cep::{Pattern, PatternId, PreparedPatternSwap, QueryId};
use pdp_dp::{DpRng, EpochLedger, Epsilon};
use pdp_metrics::Alpha;
use pdp_stream::{Event, IndicatorVector, ReorderBuffer, TimeDelta, Timestamp, WindowedIndicators};

use crate::answer::{Answer, Query, QueryStateSet};
use crate::control::{Command, CommandOutcome, ControlPlane, ControlPlaneConfig, EpochPlan};
use crate::durability::{
    read_checkpoint, read_wal_from, replay_into, MergeRowSnapshot, MergeSnapshot,
    ServiceCheckpoint, ShardCheckpoint, ShardMetaSnapshot, WalRecord, WalWriter,
};
use crate::engine::PpmKind;
use crate::error::CoreError;
use crate::sink::{QueryAnswer, ReleaseSink, VecSink};
use crate::streaming::{OnlineCore, StreamingConfig, StreamingEngine, WindowRelease};
use crate::supervision::{
    DueFault, FaultInjector, FaultPlan, HealAction, HealEvent, HealthReport, ShardHealth,
    SupervisorConfig,
};

/// Identifies one data subject (tenant) of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubjectId(pub u64);

impl std::fmt::Display for SubjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subject#{}", self.0)
    }
}

/// An event keyed by the data subject that emitted it — the unit of
/// ingestion for the sharded service.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedEvent {
    /// The emitting data subject; determines the shard.
    pub subject: SubjectId,
    /// The event itself.
    pub event: Event,
}

impl KeyedEvent {
    /// Convenience constructor.
    pub fn new(subject: SubjectId, event: Event) -> Self {
        KeyedEvent { subject, event }
    }
}

/// Construction parameters of a [`ShardedService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of partitions (≥ 1).
    pub n_shards: usize,
    /// Size of the event-type universe.
    pub n_types: usize,
    /// The consumers' quality weight (Eq. 3).
    pub alpha: Alpha,
    /// The pattern-level PPM every shard applies.
    pub ppm: PpmKind,
    /// Window length and detection semantics of every shard engine.
    pub streaming: StreamingConfig,
    /// Bounded lateness tolerated by the per-shard reorder buffers.
    pub max_delay: TimeDelta,
    /// Base seed; shard `i` draws from [`ShardedService::shard_seed`]`(seed, i)`.
    pub seed: u64,
    /// Capacity of the sliding released-window history the control plane
    /// keeps for the online adaptive PPM (0 disables it; explicitly
    /// granted history is never truncated). See
    /// [`ControlPlane::observe_release`].
    pub history_window: usize,
}

/// One shard's release, tagged with its partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRelease {
    /// The partition that released the window.
    pub shard: usize,
    /// The protected release itself.
    pub release: WindowRelease,
}

/// One window index merged across every shard: the population-level view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedRelease {
    /// Window index (shared by all shards — they run one aligned timeline).
    pub index: usize,
    /// Start of the window.
    pub start: Timestamp,
    /// The control-plane epoch that released this window (identical on
    /// every shard — epoch switches land on one window index).
    pub epoch: u64,
    /// **Positional — handle with care.** Per *active* query of the
    /// releasing epoch (aligned with that epoch's
    /// [`OnlineCore::queries`](crate::streaming::OnlineCore::queries)):
    /// the boolean coercion ([`Answer::truthy`]) of each shard's answer,
    /// OR-ed over shards. Across an epoch transition that removes a
    /// query, index `i` of two releases can belong to **different
    /// queries** — positional reads silently misattribute answers after
    /// churn. Prefer [`MergedRelease::answer_for`], which is keyed by
    /// stable [`QueryId`].
    pub answers_any: Vec<bool>,
    /// **Positional — same caution as [`MergedRelease::answers_any`].**
    /// Per query: how many shards answered truthily (the aggregate
    /// consumers' counting view).
    pub positive_shards: Vec<usize>,
    /// The population-level protected indicator view: the per-type
    /// disjunction of every shard's protected release of this window.
    /// Also what feeds the control plane's sliding history.
    pub protected_any: IndicatorVector,
    /// The typed population-level answers, keyed by stable [`QueryId`]
    /// (ascending): boolean queries fold the per-shard answers, extension
    /// queries evaluate on [`MergedRelease::protected_any`].
    pub(crate) typed: Vec<(QueryId, Answer)>,
}

impl MergedRelease {
    /// Id-keyed answer lookup — the stable way to read releases across
    /// epoch churn (a removed query returns `None` instead of shifting
    /// its neighbours' positions). This is the consumer-facing read; the
    /// positional fields exist for aggregate tooling that tracks the
    /// epoch itself.
    pub fn answer_for(&self, query: QueryId) -> Option<Answer> {
        let i = self.typed.iter().position(|(q, _)| *q == query)?;
        Some(self.typed[i].1.clone())
    }

    /// Every typed answer of this window as `(stable id, answer)` pairs,
    /// in ascending [`QueryId`] order.
    pub fn typed_answers(&self) -> &[(QueryId, Answer)] {
        &self.typed
    }
}

/// What one ingestion call produced (the legacy return-value delivery
/// style). Reimplemented on top of [`VecSink`]: `push_batch` collects
/// into a sink subscribed to everything and hands its vectors back, so
/// the sink path and this struct are one code path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutput {
    /// Every window released by any shard. Within one call, releases are
    /// grouped by shard in ascending shard order (each shard's own
    /// releases stay in its release order).
    pub shard_releases: Vec<ShardRelease>,
    /// Window indexes completed by *all* shards since the last call,
    /// merged (in index order).
    pub merged: Vec<MergedRelease>,
}

impl From<VecSink> for BatchOutput {
    fn from(sink: VecSink) -> Self {
        BatchOutput {
            shard_releases: sink.shard_releases,
            merged: sink.merged,
        }
    }
}

/// Setup phase of the sharded service (§III-A): subject and consumer
/// registration, then [`ServiceBuilder::build`] to go online.
///
/// **Setup → service phase contract.** The builder is a thin wrapper over
/// the [`ControlPlane`]: every registration stages a command and returns
/// the stable id it assigned (ids are append-only and survive later
/// revocation). [`ServiceBuilder::build`] compiles the staged commands
/// into the **epoch-0** [`EpochPlan`] — the paper's static setup phase —
/// and hands the control plane to the [`ShardedService`], where further
/// registrations stage runtime commands that take effect at the next
/// [`ShardedService::begin_epoch`]. A builder on which nothing is staged
/// after construction builds a service identical to the pre-control-plane
/// static one.
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    config: ServiceConfig,
    control: ControlPlane,
}

impl ServiceBuilder {
    /// Start the setup phase.
    pub fn new(config: ServiceConfig) -> Result<Self, CoreError> {
        if config.n_shards == 0 {
            return Err(CoreError::InvalidService(
                "a service needs at least one shard".into(),
            ));
        }
        let control = ControlPlane::new(ControlPlaneConfig {
            n_types: config.n_types,
            alpha: config.alpha,
            ppm: config.ppm.clone(),
            history_window: config.history_window,
        });
        Ok(ServiceBuilder { config, control })
    }

    /// Register a data subject with no private patterns (a tenant whose
    /// stream needs no protection but must still be routable). Returns the
    /// id (the builder's registration methods all return what they
    /// registered).
    pub fn register_subject(&mut self, subject: SubjectId) -> SubjectId {
        self.control.register_subject(subject)
    }

    /// Data subject `subject`: declare a private pattern to protect.
    pub fn register_private_pattern(&mut self, subject: SubjectId, pattern: Pattern) -> PatternId {
        self.control.register_private_pattern(subject, pattern)
    }

    /// Data consumer: declare a named target-pattern query.
    pub fn register_target_query(&mut self, name: &str, pattern: Pattern) -> (QueryId, PatternId) {
        self.control.add_consumer_query(name, pattern)
    }

    /// Data consumer: declare a named §VII extension query (count,
    /// categorical, argmax) over already-registered patterns. Joins the
    /// same registry as pattern queries: stable [`QueryId`], compiled
    /// into every epoch plan, answered (typed) on the protected view
    /// inside the release path.
    pub fn register_extension_query(&mut self, name: &str, query: &dyn Query) -> QueryId {
        self.control.add_typed_query(name, query)
    }

    /// Register a pattern that is neither private nor queried (kept for
    /// [`PatternId`] parity with an external registry, e.g. a workload).
    pub fn register_pattern(&mut self, pattern: Pattern) -> PatternId {
        self.control.register_pattern(pattern)
    }

    /// Grant access to historical data (required by the adaptive PPM).
    pub fn provide_history(&mut self, windows: WindowedIndicators) {
        self.control.provide_history(windows);
    }

    /// Enable §V-C correlation widening on every epoch compile (including
    /// the initial one); requires history. See
    /// [`ControlPlane::set_correlate_widening`].
    pub fn set_correlate_widening(&mut self, widening: Option<(f64, Epsilon)>) {
        self.control.set_correlate_widening(widening);
    }

    /// Complete setup and go online, deriving each shard's [`DpRng`] from
    /// [`ServiceConfig::seed`] via [`ShardedService::shard_seed`].
    pub fn build(self) -> Result<ShardedService, CoreError> {
        let rngs = (0..self.config.n_shards)
            .map(|s| DpRng::seed_from(ShardedService::shard_seed(self.config.seed, s)))
            .collect();
        self.build_with_rngs(rngs)
    }

    /// Complete setup with explicit per-shard generators (one per shard).
    ///
    /// This is how a replay harness hands the service an already-forked
    /// trial RNG so a 1-shard run reproduces a plain [`StreamingEngine`]
    /// trial bit-for-bit.
    pub fn build_with_rngs(mut self, rngs: Vec<DpRng>) -> Result<ShardedService, CoreError> {
        if rngs.len() != self.config.n_shards {
            return Err(CoreError::InvalidService(format!(
                "{} shard rngs provided for {} shards",
                rngs.len(),
                self.config.n_shards
            )));
        }
        let plan = self.control.compile_initial()?;
        let n_shards = self.config.n_shards;
        let mut routes = RouteTable::new();
        for s in self.control.active_subjects() {
            routes.insert(s, ShardedService::shard_for(s, n_shards) as u32);
        }

        let mut shards = Vec::with_capacity(n_shards);
        for rng in rngs {
            let mut engine = StreamingEngine::from_core(plan.core.clone(), self.config.streaming)?;
            // Pin every shard to the same window origin so all shards run
            // one aligned timeline (required by the merge path, and by the
            // global watermark which may reach a shard before its first
            // event). Closes nothing and draws no randomness.
            engine.advance_watermark(Timestamp::ZERO, &mut DpRng::seed_from(0))?;
            let buffer = ReorderBuffer::new(self.config.max_delay);
            shards.push(Arc::new(Mutex::new(Shard::new(
                buffer,
                engine,
                rng,
                Timestamp::ZERO,
            ))));
        }
        let mut meta = vec![ShardMeta::default(); n_shards];
        for (_, shard) in routes.iter() {
            meta[shard as usize].n_subjects += 1;
        }

        let parallel = default_parallel(n_shards);
        let workers = if parallel {
            shards
                .iter()
                .map(|s| WorkerHandle::spawn(s.clone()))
                .collect()
        } else {
            Vec::new()
        };
        let (fill, spare) = partition_buffers(n_shards);
        let mut service = ShardedService {
            shards,
            workers,
            parallel,
            meta,
            shard_charges: vec![vec![Vec::new()]; n_shards],
            routes,
            ledgers: Vec::new(),
            query_ledger: EpochLedger::new(),
            merge: MergeState::new(n_shards),
            cores_by_epoch: Vec::new(),
            query_charges_by_epoch: Vec::new(),
            merged_state: QueryStateSet::new(),
            activations: Vec::new(),
            control: self.control,
            deferred: None,
            fill,
            spare,
            route_scratch: Vec::new(),
            round: Round::default(),
            settle_scratch: Vec::new(),
            merged_scratch: Vec::new(),
            wrapper_sink: VecSink::subscribed([]),
            n_types: self.config.n_types,
            max_delay: self.config.max_delay,
            events_ingested: 0,
            finished: false,
            wal: None,
            config: self.config.clone(),
            supervisor: None,
            injector: None,
            rounds_submitted: 0,
            poison_next: vec![false; n_shards],
            needs_respawn: vec![false; n_shards],
            rebuilt: vec![false; n_shards],
            heals: vec![0; n_shards],
            heal_log: Vec::new(),
            degraded: false,
            wal_retries: 0,
            wal_appends: 0,
        };
        service.install_plan(&plan)?;
        Ok(service)
    }
}

/// One shard's resident state: the reorder buffer, the engine and its
/// RNG. Owned by the shard's worker thread in parallel mode (the service
/// thread holds the same `Arc<Mutex<…>>` and locks it only between
/// calls, when the worker is idle); owned outright in inline mode.
/// Everything the service needs on its own hot path (routing, ledgers,
/// merge accumulators, watermark mirrors) lives on the service side.
#[derive(Debug, Clone)]
struct Shard {
    buffer: ReorderBuffer,
    engine: StreamingEngine,
    rng: DpRng,
    /// The furthest point in stream time this shard's engine has seen
    /// (event pushes and watermark advances); the global watermark is only
    /// applied when it moves a shard forward.
    frontier: Timestamp,
    /// Reused scratch for events the reorder buffer releases per push.
    ready: Vec<Event>,
}

/// One unit of work queued to a shard worker (or run inline at fold time).
#[derive(Debug)]
enum ShardJob {
    /// This shard's slice of a batch, in arrival order: offer the whole
    /// sub-batch to the reorder buffer in one call, then feed everything
    /// it released into the engine.
    Ingest(Vec<Event>),
    /// Heartbeat the reorder buffer to `ts`, feeding what it releases.
    Heartbeat(Timestamp),
    /// Advance the shard engine to the global low watermark.
    Advance(Timestamp),
    /// End of stream, phase 1: drain the reorder buffer into the engine.
    Flush,
    /// End of stream, phase 2: align on the final frontier and close the
    /// open window.
    Close(Timestamp),
    /// Scripted fault ([`crate::supervision::Fault::PoisonShard`]): panic
    /// while holding the shard lock so the mutex is genuinely poisoned.
    /// Never submitted in inline mode.
    Poison,
}

impl Shard {
    /// A shard around its buffer, engine and RNG, with both reorder tiers
    /// and the release scratch pre-reserved — like `partition_buffers`,
    /// leaving the high-water mark to workload noise would let a late
    /// burst pay a realloc mid-ingest and break the zero-allocation gate.
    /// `ready` receives everything one sub-batch releases (what was
    /// pending plus the sub-batch itself after a watermark jump), hence
    /// two sub-batches.
    fn new(
        mut buffer: ReorderBuffer,
        engine: StreamingEngine,
        rng: DpRng,
        frontier: Timestamp,
    ) -> Self {
        buffer.reserve(SUB_BATCH);
        Shard {
            buffer,
            engine,
            rng,
            frontier,
            ready: Vec::with_capacity(2 * SUB_BATCH),
        }
    }

    /// Execute one job and build the reply: the releases it caused, the
    /// emptied ingest buffer (recycled by the partitioner), and a snapshot
    /// of the shard's observable stats — so the service thread can serve
    /// reads from mirrors without ever locking the shard mid-flight.
    ///
    /// An engine error is carried in the reply and surfaces, typed, from
    /// the call whose round ran the job. When an `Ingest` job fails that
    /// way the **whole** sub-batch has already been offered to the
    /// reorder buffer (events behind the failing one stay pending or
    /// were dropped as late); the events released but not yet fed to the
    /// engine are discarded, `ready` is left empty, and the recycled
    /// buffer is still handed back.
    fn execute(&mut self, job: ShardJob) -> ShardReply {
        let mut releases = Vec::new();
        let mut recycled = None;
        let error = self.run(job, &mut releases, &mut recycled).err();
        ShardReply {
            releases,
            recycled,
            frontier: self.frontier,
            dropped: self.buffer.dropped(),
            buffered: self.buffer.pending(),
            released: self.engine.releases(),
            error,
        }
    }

    /// Execute one job against this shard's state, appending the releases
    /// it causes to `out`; an `Ingest` job's emptied buffer goes to
    /// `recycled`.
    fn run(
        &mut self,
        job: ShardJob,
        out: &mut Vec<WindowRelease>,
        recycled: &mut Option<Vec<Event>>,
    ) -> Result<(), CoreError> {
        match job {
            ShardJob::Ingest(mut events) => {
                // one release can emit at most what is pending plus the
                // sub-batch: size the scratch from that bound, so whether
                // it ever grows does not hang on where the watermark lands
                self.ready.reserve(self.buffer.pending() + events.len());
                self.buffer
                    .push_batch_into(events.drain(..), &mut self.ready);
                *recycled = Some(events);
                self.drain_ready(out)
            }
            ShardJob::Heartbeat(ts) => {
                self.buffer.heartbeat_into(ts, &mut self.ready);
                self.drain_ready(out)
            }
            ShardJob::Advance(to) => self.advance_engine(to, out),
            ShardJob::Flush => {
                self.buffer.flush_into(&mut self.ready);
                self.drain_ready(out)
            }
            ShardJob::Close(end) => {
                self.advance_engine(end, out)?;
                if let Some(last) = self.engine.finish(&mut self.rng)? {
                    out.push(last);
                }
                Ok(())
            }
            ShardJob::Poison => std::panic::panic_any(crate::supervision::PoisonPill),
        }
    }

    /// Feed the events the reorder buffer just released into the engine,
    /// leaving the `ready` scratch empty (also when the engine fails).
    fn drain_ready(&mut self, out: &mut Vec<WindowRelease>) -> Result<(), CoreError> {
        for event in self.ready.drain(..) {
            self.frontier = self.frontier.max(event.ts);
            self.engine.push_into(&event, &mut self.rng, out)?;
        }
        Ok(())
    }

    fn advance_engine(
        &mut self,
        to: Timestamp,
        out: &mut Vec<WindowRelease>,
    ) -> Result<(), CoreError> {
        if to > self.frontier {
            self.engine.advance_watermark_into(to, &mut self.rng, out)?;
            self.frontier = to;
        }
        Ok(())
    }
}

/// A shard worker's reply: what one job released, the emptied ingest
/// buffer for reuse, and a stats snapshot the service keeps as mirrors.
/// The shard state itself never moves — it stays resident on the worker.
#[derive(Debug)]
struct ShardReply {
    releases: Vec<WindowRelease>,
    /// The ingest sub-batch buffer, emptied — handed back so the
    /// partitioner reuses it instead of allocating.
    recycled: Option<Vec<Event>>,
    frontier: Timestamp,
    dropped: u64,
    buffered: usize,
    released: usize,
    error: Option<CoreError>,
}

/// How many ingest sub-batches may sit in a shard's job queue before the
/// submitting thread blocks — the backpressure bound of the pipeline.
/// Memory in flight per shard is at most `QUEUE_DEPTH + 2` sub-batch
/// buffers (one filling, one executing).
const QUEUE_DEPTH: usize = 4;

/// Events per ingest sub-batch: the partitioner swaps a shard's fill
/// buffer into the job queue as soon as it holds this many events, so
/// shard work on the front of a large batch overlaps partitioning of its
/// tail.
const SUB_BATCH: usize = 256;

/// The partitioner's double-buffer set, pre-reserved at construction:
/// every fill slot and every pooled spare starts at [`SUB_BATCH`]
/// capacity, so the parallel submit threshold is reached without a
/// single mid-ingest `Vec` growth. Sizing buffers lazily would leave the
/// high-water mark to workload noise — a shard that happens to see fewer
/// than `SUB_BATCH` events per batch during warmup would keep a
/// half-grown buffer and pay a realloc the first time traffic skews its
/// way, breaking the zero-allocation steady state.
fn partition_buffers(n_shards: usize) -> (Vec<Vec<Event>>, Vec<Vec<Event>>) {
    let fill = (0..n_shards)
        .map(|_| Vec::with_capacity(SUB_BATCH))
        .collect();
    // one pool entry for every buffer that can be in flight at once (a
    // full queue, one executing, one filling, per shard) — the same
    // bound `absorb` retains recycled buffers up to
    let spare = (0..(QUEUE_DEPTH + 2) * n_shards)
        .map(|_| Vec::with_capacity(SUB_BATCH))
        .collect();
    (fill, spare)
}

/// The reply lane of one shard worker: an unbounded FIFO over
/// `Mutex<VecDeque>` + `Condvar` instead of `std::sync::mpsc::channel`.
/// The std unbounded channel allocates a fresh block roughly every 32
/// sends, which would put a heap allocation on the steady-state ingest
/// path; this queue reaches its high-water capacity during warmup and
/// then recycles it forever. Occupancy is bounded by the jobs of the
/// current round (*not* by `QUEUE_DEPTH` — a large batch parks every
/// sub-batch reply here until the call has submitted its whole round and
/// starts folding), which is why the lane must stay unbounded: a bounded
/// reply queue would deadlock the submitter against its own uncollected
/// round.
#[derive(Debug, Default)]
struct ReplyQueue {
    inner: Mutex<ReplyQueueInner>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct ReplyQueueInner {
    queue: VecDeque<ShardReply>,
    /// Set (under the lock) when the worker thread exits for any reason —
    /// normal shutdown or a caught panic — so a blocked `recv` wakes up
    /// and maps the shortfall to [`CoreError::ShardWorker`] exactly as the
    /// old channel's `RecvError` did. Buffered replies still drain first.
    disconnected: bool,
}

impl ReplyQueue {
    /// A queue pre-sized for the common occupancy envelope: one round's
    /// queued jobs (`QUEUE_DEPTH`) plus generous execution/fold slack.
    /// Larger batches can still outgrow this
    /// — the `VecDeque` then grows once and keeps the capacity — but
    /// pre-reserving keeps the typical workload off the allocator even
    /// when reply drain timing varies run to run.
    fn with_default_capacity() -> ReplyQueue {
        ReplyQueue {
            inner: Mutex::new(ReplyQueueInner {
                queue: VecDeque::with_capacity(4 * QUEUE_DEPTH),
                disconnected: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn send(&self, reply: ShardReply) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.queue.push_back(reply);
        drop(inner);
        self.ready.notify_one();
    }

    fn disconnect(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.disconnected = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Pop the next reply in send order, blocking while the queue is
    /// empty and the worker is alive; `None` once the worker is gone and
    /// every buffered reply has been drained.
    fn recv(&self) -> Option<ShardReply> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(reply) = inner.queue.pop_front() {
                return Some(reply);
            }
            if inner.disconnected {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Flags the reply lane disconnected when the worker thread unwinds or
/// returns — the drop runs on every exit path, so the service can never
/// block forever on a reply that will not come.
struct DisconnectOnExit(Arc<ReplyQueue>);

impl Drop for DisconnectOnExit {
    fn drop(&mut self) {
        self.0.disconnect();
    }
}

/// A persistent per-shard worker thread owning its shard behind an
/// `Arc<Mutex<…>>`. Jobs stream in over a **bounded** SPSC channel
/// (backpressure = a full queue blocks the submitter); replies stream
/// back over an unbounded allocation-recycling [`ReplyQueue`] whose
/// occupancy is bounded by the current round's job count. The service
/// thread locks the shard only between calls, when the worker has
/// drained its queue and the lock is uncontended.
#[derive(Debug)]
struct WorkerHandle {
    job_tx: Option<SyncSender<ShardJob>>,
    replies: Arc<ReplyQueue>,
    handle: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    fn spawn(shard: Arc<Mutex<Shard>>) -> WorkerHandle {
        let (job_tx, job_rx) = sync_channel::<ShardJob>(QUEUE_DEPTH);
        let replies = Arc::new(ReplyQueue::with_default_capacity());
        let reply_tx = replies.clone();
        let handle = std::thread::Builder::new()
            .name("pdp-shard-worker".into())
            .spawn(move || {
                let _disconnect = DisconnectOnExit(reply_tx.clone());
                while let Ok(job) = job_rx.recv() {
                    // a panic mid-job (scripted poison or an engine bug)
                    // poisons the mutex as the guard unwinds; catch it so
                    // the thread exits cleanly — without a reply — and
                    // the service sees the shortfall when it folds the
                    // round instead of an opaque propagated panic at join
                    // time
                    let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut shard = shard.lock().unwrap_or_else(|p| p.into_inner());
                        shard.execute(job)
                    }));
                    match reply {
                        Ok(reply) => reply_tx.send(reply),
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn shard worker");
        WorkerHandle {
            job_tx: Some(job_tx),
            replies,
            handle: Some(handle),
        }
    }

    /// Queue one job; blocks while the shard's queue is full (bounded
    /// hand-off). If the worker thread died the job is handed back to the
    /// caller, so a supervised service can run it inline instead.
    fn submit(&self, job: ShardJob) -> Result<(), ShardJob> {
        match self.job_tx.as_ref() {
            None => Err(job),
            Some(tx) => tx.send(job).map_err(|e| e.0),
        }
    }

    /// Whether the worker still accepts jobs: its channel is intact and
    /// its thread has not exited (a panicked worker keeps its sender
    /// until the service notices, so the thread state is checked too).
    fn is_alive(&self) -> bool {
        self.job_tx.is_some() && self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Receive the next reply, in submission order (SPSC FIFO). Fails if
    /// the worker thread died without replying.
    fn collect(&self, shard_idx: usize) -> Result<ShardReply, CoreError> {
        self.replies
            .recv()
            .ok_or(CoreError::ShardWorker { shard: shard_idx })
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // closing the job channel ends the worker loop; then join
        drop(self.job_tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Accumulates shard answers per window index until every shard has
/// released it. Folds answer bits as releases arrive — no release is ever
/// cloned or queued for merging. Rows are sized lazily from the first
/// release observed for their window: the number of active queries is a
/// property of the releasing *epoch*, not of the service, and every shard
/// releases a given window under the same epoch (switches land on one
/// window index).
#[derive(Debug, Clone)]
struct MergeState {
    n_shards: usize,
    /// Index of the lowest window not yet merged (the front of `rows`).
    next_index: usize,
    rows: VecDeque<MergeRow>,
}

#[derive(Debug, Clone)]
struct MergeRow {
    start: Timestamp,
    epoch: u64,
    shards_done: usize,
    answers_any: Vec<bool>,
    positive_shards: Vec<usize>,
    /// Per-type disjunction of the shard releases; `None` until the first
    /// release arrives (placeholder rows created for later indexes).
    union: Option<IndicatorVector>,
}

impl MergeState {
    fn new(n_shards: usize) -> Self {
        MergeState {
            n_shards,
            next_index: 0,
            rows: VecDeque::new(),
        }
    }

    /// Fold one shard release into its window's accumulator.
    fn observe(&mut self, release: &WindowRelease) {
        debug_assert!(
            release.index >= self.next_index,
            "shards release indexes monotonically"
        );
        let offset = release.index - self.next_index;
        while self.rows.len() <= offset {
            self.rows.push_back(MergeRow {
                start: release.start,
                epoch: 0,
                shards_done: 0,
                answers_any: Vec::new(),
                positive_shards: Vec::new(),
                union: None,
            });
        }
        let row = &mut self.rows[offset];
        if row.shards_done == 0 {
            row.answers_any = vec![false; release.answers.len()];
            row.positive_shards = vec![0; release.answers.len()];
            row.epoch = release.epoch;
        }
        debug_assert_eq!(row.epoch, release.epoch, "one epoch per window");
        debug_assert_eq!(row.answers_any.len(), release.answers.len());
        row.start = release.start;
        row.shards_done += 1;
        match &mut row.union {
            Some(union) => union.union_with(&release.protected),
            none => *none = Some(release.protected.clone()),
        }
        for (q, answer) in release.answers.iter().enumerate() {
            if answer.truthy() {
                row.answers_any[q] = true;
                row.positive_shards[q] += 1;
            }
        }
    }

    /// Pop every fully merged window, in index order.
    fn drain_into(&mut self, merged: &mut Vec<MergedRelease>) {
        while self
            .rows
            .front()
            .is_some_and(|row| row.shards_done == self.n_shards)
        {
            let row = self.rows.pop_front().expect("checked non-empty");
            merged.push(MergedRelease {
                index: self.next_index,
                start: row.start,
                epoch: row.epoch,
                answers_any: row.answers_any,
                positive_shards: row.positive_shards,
                protected_any: row
                    .union
                    .expect("n_shards >= 1: at least one release folded"),
                // filled by the service once the epoch's compiled queries
                // evaluate the population view
                typed: Vec::new(),
            });
            self.next_index += 1;
        }
    }
}

/// What one [`ShardedService::begin_epoch`] produced: the compiled plan
/// and the window boundary it activates on. Handing the same pair to
/// independent engines ([`StreamingEngine::schedule_epoch`]) reproduces
/// the service bit-for-bit — the dynamic-setting equivalence anchor.
#[derive(Debug, Clone)]
pub struct EpochTransition {
    /// The first window index released under the new plan. Chosen
    /// deterministically: the lowest index no shard has released yet (the
    /// frontier the global low watermark drives).
    pub activation_index: usize,
    /// The compiled plan itself.
    pub plan: EpochPlan,
}

/// The service-side mirror of one shard's observable state, updated at
/// routing time (`max_seen` — deterministically identical to the shard
/// buffer's clock, because routing sees every event the buffer will see)
/// and from job replies (everything else — exact whenever no call is
/// running, because every call folds its own round). Mirrors are what let
/// stats reads and the global low watermark work without locking a shard
/// or waiting on a barrier.
#[derive(Debug, Clone, Default)]
struct ShardMeta {
    /// Subjects routed to this shard. A shard with none can never receive
    /// events, so it must not hold the global low watermark back.
    n_subjects: usize,
    /// Mirror of the shard reorder buffer's `max_seen` clock.
    max_seen: Option<Timestamp>,
    /// Mirror of the shard's stream-time frontier (post-fold).
    frontier: Timestamp,
    /// Mirror of the shard buffer's dropped-event count (post-fold).
    dropped: u64,
    /// Mirror of the shard buffer's pending-event count (post-fold).
    buffered: usize,
    /// Mirror of the shard engine's released-window count (post-fold).
    released: usize,
}

impl ShardMeta {
    /// Mirror of [`pdp_stream::ReorderBuffer::push_into`]'s clock update:
    /// an accepted event raises `max_seen`; a dropped one (ts below the
    /// watermark, hence below `max_seen`) leaves it unchanged — so the
    /// unconditional max is exact in both cases. Heartbeats use the same
    /// rule.
    fn observe(&mut self, ts: Timestamp) {
        self.max_seen = Some(match self.max_seen {
            Some(m) if m >= ts => m,
            _ => ts,
        });
    }

    fn watermark(&self, max_delay: TimeDelta) -> Option<Timestamp> {
        self.max_seen.map(|t| t - max_delay)
    }
}

/// The shard work of one call, built and folded before the call returns:
/// per shard, either the number of job replies to collect (parallel mode)
/// or the jobs to run at fold time (inline mode — run at the same point,
/// so inline and parallel services produce bit-identical per-call
/// output).
#[derive(Debug, Default)]
struct Round {
    /// Per shard: replies outstanding on the worker (parallel mode).
    expected: Vec<usize>,
    /// Per shard: jobs queued for execution at fold time (inline mode).
    queued: Vec<Vec<ShardJob>>,
}

impl Round {
    /// Reset the recycled round for reuse (see `ShardedService::take_round`)
    /// — counters zeroed, queued-job vectors emptied with their capacity
    /// kept, so each call's round is built without allocating.
    fn reset(&mut self, n_shards: usize) {
        self.expected.clear();
        self.expected.resize(n_shards, 0);
        self.queued.iter_mut().for_each(Vec::clear);
        self.queued.resize_with(n_shards, Vec::new);
    }
}

/// `splitmix64`-based hasher for subject routing: one multiply-xor chain
/// per lookup instead of SipHash, on the per-event hot path.
#[derive(Default)]
struct SplitMixHasher(u64);

impl std::hash::Hasher for SplitMixHasher {
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 ^= i;
    }
}

/// Overflow tier of the [`RouteTable`]: a `splitmix64`-hashed map for the
/// sparse subject ids above [`RouteTable::DIRECT_CAP`].
type OverflowMap = HashMap<SubjectId, u32, std::hash::BuildHasherDefault<SplitMixHasher>>;

/// The dense subject → shard routing table of the ingest hot path.
///
/// Small subject ids (the overwhelmingly common case — registration
/// assigns them densely in practice) resolve through `direct`, a flat
/// `Vec<u32>` indexed by the raw id where [`RouteTable::UNROUTED`] marks
/// "unknown or retired": one bounds check plus one load per event, no
/// hashing. Ids at or above [`RouteTable::DIRECT_CAP`] fall back to a
/// `splitmix64`-hashed overflow map so a single huge id cannot balloon
/// the flat table. Both tiers return the shard index; an absent entry is
/// the atomic unknown-subject rejection path of
/// [`ShardedService::push_batch`].
///
/// The table is rebuilt wholesale at routing boundaries (build, epoch
/// activation, restore) and its buffers are retained across rebuilds —
/// steady-state ingest never allocates here.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// Shard index per raw subject id; [`RouteTable::UNROUTED`] = not
    /// routable. Sized to the largest routed id below the cap, +1.
    direct: Vec<u32>,
    /// Routes for subject ids ≥ [`RouteTable::DIRECT_CAP`].
    overflow: OverflowMap,
    /// Routable subjects across both tiers.
    len: usize,
}

impl RouteTable {
    /// Sentinel marking an unrouted slot in the direct tier (also why
    /// [`RouteTable::insert`] rejects `u32::MAX` as a shard index).
    pub const UNROUTED: u32 = u32::MAX;

    /// Largest raw subject id (exclusive) served by the flat direct tier;
    /// ids beyond it route through the hashed overflow tier. 2^20 slots =
    /// 4 MiB — covers a million densely-registered subjects flat.
    pub const DIRECT_CAP: u64 = 1 << 20;

    /// An empty table (nothing routable).
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Number of routable subjects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no subject is routable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unroute everything, keeping both tiers' capacity for the rebuild.
    pub fn clear(&mut self) {
        self.direct.iter_mut().for_each(|s| *s = Self::UNROUTED);
        self.overflow.clear();
        self.len = 0;
    }

    /// Route `subject` to `shard` (last insert wins; `shard` must not be
    /// `u32::MAX`, which is reserved as the unrouted sentinel).
    pub fn insert(&mut self, subject: SubjectId, shard: u32) {
        debug_assert_ne!(shard, Self::UNROUTED, "u32::MAX is the unrouted sentinel");
        if subject.0 < Self::DIRECT_CAP {
            let idx = subject.0 as usize;
            if idx >= self.direct.len() {
                self.direct.resize(idx + 1, Self::UNROUTED);
            }
            if self.direct[idx] == Self::UNROUTED {
                self.len += 1;
            }
            self.direct[idx] = shard;
        } else if self.overflow.insert(subject, shard).is_none() {
            self.len += 1;
        }
    }

    /// The shard `subject` routes to, or `None` for unknown/retired
    /// subjects — the per-event hot-path probe.
    #[inline]
    pub fn lookup(&self, subject: SubjectId) -> Option<u32> {
        let id = subject.0;
        if (id as usize) < self.direct.len() {
            let shard = self.direct[id as usize];
            (shard != Self::UNROUTED).then_some(shard)
        } else if id < Self::DIRECT_CAP {
            None
        } else {
            self.overflow.get(&subject).copied()
        }
    }

    /// Every routed `(subject, shard)` pair, direct tier first (ascending
    /// id), then the overflow tier in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (SubjectId, u32)> + '_ {
        self.direct
            .iter()
            .enumerate()
            .filter(|(_, &shard)| shard != Self::UNROUTED)
            .map(|(id, &shard)| (SubjectId(id as u64), shard))
            .chain(self.overflow.iter().map(|(&s, &shard)| (s, shard)))
    }
}

/// The online sharded multi-tenant service. Built by [`ServiceBuilder`].
#[derive(Debug)]
pub struct ShardedService {
    /// Shard-resident state, shared with the worker threads in parallel
    /// mode. The service thread locks a shard only between calls (every
    /// round folded, workers idle) or in inline mode — both uncontended
    /// by construction.
    shards: Vec<Arc<Mutex<Shard>>>,
    /// One persistent worker thread per shard (empty in inline mode).
    workers: Vec<WorkerHandle>,
    /// The recorded execution mode: decided once at build time (or by
    /// [`ShardedService::set_parallel`]), never re-derived — clones copy
    /// it, and [`ShardedService::is_parallel`] reports it.
    parallel: bool,
    /// Per-shard observable-state mirrors (see [`ShardMeta`]).
    meta: Vec<ShardMeta>,
    /// Per shard, indexed by epoch: `(dense subject index, pattern,
    /// per-release ε)` to charge on every release of that epoch. Kept for
    /// *all* epochs — releases of an earlier epoch can still settle after
    /// a later plan was staged. Service-side so folding never touches a
    /// shard lock. In memory the subject is its dense intern index (the
    /// settle path indexes `ledgers` directly); the checkpoint wire format
    /// stays `SubjectId`-keyed, converted at the image boundary.
    shard_charges: Vec<Vec<Vec<(u32, PatternId, Epsilon)>>>,
    /// Routing for *active* (non-retired) subjects.
    routes: RouteTable,
    /// Per-subject epoch-aware accounting, indexed by the control plane's
    /// dense intern index. Ledgers of retired subjects keep their slot —
    /// their spend stays queryable and is never refunded. May lag
    /// `ControlPlane::dense_count` for subjects staged but not yet
    /// activated (they have no charges to settle yet).
    ledgers: Vec<EpochLedger<PatternId>>,
    /// Epoch-aware accounting of the non-boolean consumer queries'
    /// dedicated budgets (argmax draws), charged per shard release.
    query_ledger: EpochLedger<QueryId>,
    merge: MergeState,
    /// Every compiled epoch core, indexed by epoch: the merge path
    /// evaluates each merged window's typed answers under the epoch that
    /// released it.
    cores_by_epoch: Vec<OnlineCore>,
    /// Per-epoch `(query, ε)` charge schedule for the query ledger.
    query_charges_by_epoch: Vec<Vec<(QueryId, Epsilon)>>,
    /// Trailing-window state of the population-level (merged) stateful
    /// queries, keyed by stable id (merged rows emit in strict index
    /// order, so this is deterministic).
    merged_state: QueryStateSet,
    /// The control plane: staged runtime commands, the append-only
    /// registries, and the sliding released-window history.
    control: ControlPlane,
    /// `(activation_index, epoch)` of every scheduled transition, in
    /// scheduling order — how the service knows which epoch's queries are
    /// in force without reading a shard engine.
    activations: Vec<(usize, u64)>,
    /// The first error a fold (or an infallible staging wrapper) met,
    /// surfaced when the current call returns — or, from a staging
    /// wrapper, by the next fallible operation. Deliveries already made
    /// stay delivered.
    deferred: Option<CoreError>,
    /// Per-shard sub-batch fill buffers (the partitioner's double-buffer
    /// front half).
    fill: Vec<Vec<Event>>,
    /// Emptied sub-batch buffers recycled from shard replies.
    spare: Vec<Vec<Event>>,
    /// Persistent scratch for the per-batch route resolution — cleared
    /// and refilled each `push_batch`, never reallocated once warmed.
    route_scratch: Vec<u32>,
    /// The recycled [`Round`]: folding hands its vectors back here so the
    /// next call reuses their capacity instead of allocating.
    round: Round,
    /// Persistent scratch for the releases one shard's fold settles.
    settle_scratch: Vec<WindowRelease>,
    /// Persistent scratch for the merged rows one fold drains.
    merged_scratch: Vec<MergedRelease>,
    /// The persistent no-subscription sink behind the legacy
    /// return-value wrappers (`push_batch`, `advance_watermark`,
    /// `finish`, `shutdown`) — one sink reused across calls instead of
    /// one constructed per call.
    wrapper_sink: VecSink,
    n_types: usize,
    max_delay: TimeDelta,
    events_ingested: u64,
    finished: bool,
    /// The attached write-ahead log, if any. Every accepted input is
    /// journaled here before (commands) or as (batches, watermarks,
    /// transitions) it takes effect — see the module-level crash
    /// consistency contract. `None` = durability off, zero overhead.
    wal: Option<WalWriter>,
    /// The construction parameters, kept so a supervised heal can restore
    /// a scratch service from a checkpoint without caller involvement.
    config: ServiceConfig,
    /// Supervision policy ([`ShardedService::set_supervisor`]); `None`
    /// keeps the historical fail-fast behavior: typed errors, no healing.
    supervisor: Option<SupervisorConfig>,
    /// Scripted chaos ([`ShardedService::inject_faults`]), consulted at
    /// every round submission and WAL append attempt.
    injector: Option<FaultInjector>,
    /// Rounds run so far; [`FaultPlan`] rounds are
    /// 1-based indices into this counter.
    rounds_submitted: u64,
    /// Shards flagged to receive a poison job at the head of their next
    /// eligible round (scripted [`Fault::PoisonShard`]).
    poison_next: Vec<bool>,
    /// Shards whose worker died and must be respawned (or the service
    /// degraded) at the end of the current fold.
    needs_respawn: Vec<bool>,
    /// Whether a pending respawn came from a checkpoint + WAL rebuild
    /// (reported as [`HealAction::Rebuilt`] instead of `Respawned`).
    rebuilt: Vec<bool>,
    /// Per-shard heal count: respawns plus rebuilds.
    heals: Vec<u32>,
    /// Every heal performed, in order, for [`ShardedService::health`].
    heal_log: Vec<HealEvent>,
    /// Whether the supervisor exhausted a shard's heal budget and
    /// switched the service to inline execution for good.
    degraded: bool,
    /// WAL append retries performed (attempts beyond each first try).
    wal_retries: u64,
    /// WAL append attempts, including retries — the counter scripted
    /// [`Fault::WalAppendFailure`]s index into.
    wal_appends: u64,
}

/// The default execution-mode policy, consulted **once** at build time:
/// parallel when there is both more than one shard *and* more than one
/// core — on a single-core host (or a 1-shard service) the channel
/// round-trips are pure overhead, so shards run inline. Either mode
/// produces bit-identical output; [`ShardedService::set_parallel`]
/// overrides the choice explicitly, and [`ShardedService::is_parallel`]
/// reports which mode is actually live.
fn default_parallel(n_shards: usize) -> bool {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    n_shards > 1 && cores > 1
}

impl ShardedService {
    /// The deterministic subject → shard assignment (splitmix64 of the
    /// subject id, reduced modulo `n_shards`). Stable across runs and Rust
    /// versions — partition equivalence tests depend on it.
    pub fn shard_for(subject: SubjectId, n_shards: usize) -> usize {
        assert!(n_shards > 0, "shard_for needs at least one shard");
        (splitmix64(subject.0) % n_shards as u64) as usize
    }

    /// The seed shard `shard` derives its [`DpRng`] from.
    ///
    /// Shard 0 keeps the base seed unchanged so a 1-shard service is
    /// bit-for-bit a [`StreamingEngine`] driven with
    /// `DpRng::seed_from(base)`; higher shards mix the shard index in.
    pub fn shard_seed(base: u64, shard: usize) -> u64 {
        if shard == 0 {
            base
        } else {
            base ^ splitmix64(shard as u64)
        }
    }

    /// Ingest one batch of keyed events, in arrival order. Events may be
    /// out of temporal order up to the configured bounded delay; later
    /// ones are dropped (see [`ShardedService::dropped`]). Returns every
    /// release the batch caused, plus the window indexes newly completed
    /// by all shards.
    ///
    /// The batch is partitioned once and the per-shard sub-batches run on
    /// the persistent shard workers in parallel (inline for a 1-shard
    /// service); results are folded back in shard order, so output and
    /// accounting are deterministic.
    ///
    /// The call is atomic with respect to registration: every subject in
    /// the batch is resolved *before* any event is ingested, so an
    /// [`CoreError::UnknownSubject`] rejection leaves the service — and
    /// the releases a partial batch would have produced — untouched.
    pub fn push_batch(&mut self, batch: Vec<KeyedEvent>) -> Result<BatchOutput, CoreError> {
        self.with_wrapper_sink(|service, sink| service.push_batch_into(batch, sink))
    }

    /// A fresh round for submission, recycled from the previous call (its
    /// vectors keep their capacity).
    fn take_round(&mut self) -> Round {
        let mut round = std::mem::take(&mut self.round);
        round.reset(self.shards.len());
        round
    }

    /// Run one sink-delivering operation through the persistent
    /// no-subscription wrapper sink (subscribed to no query ids:
    /// [`BatchOutput`] carries releases only, so answer records would be
    /// built and dropped) and collect what it delivered. The sink lives
    /// on the service — constructed once, reused by every legacy
    /// return-value wrapper — and a release-less call moves nothing, so
    /// the wrapper adds no per-call allocation. On error, deliveries the
    /// failed call already made are discarded exactly as the per-call
    /// sinks used to be.
    fn with_wrapper_sink(
        &mut self,
        op: impl FnOnce(&mut Self, &mut VecSink) -> Result<(), CoreError>,
    ) -> Result<BatchOutput, CoreError> {
        let mut sink = std::mem::take(&mut self.wrapper_sink);
        let result = op(self, &mut sink);
        let output = BatchOutput {
            shard_releases: std::mem::take(&mut sink.shard_releases),
            merged: std::mem::take(&mut sink.merged),
        };
        sink.answers.clear();
        self.wrapper_sink = sink;
        result.map(|()| output)
    }

    /// Sink-delivering form of [`ShardedService::push_batch`]: every
    /// release and every subscribed [`QueryAnswer`] record is pushed into
    /// `sink` (see [`ReleaseSink`] for the delivery-order contract)
    /// instead of being collected into a return value — the zero-copy
    /// consumer path. On error, deliveries already made stay delivered:
    /// they are real releases that spent budget.
    ///
    /// Every release the batch causes is delivered before this call
    /// returns, and an error the batch's round meets is returned by this
    /// call. In parallel mode the batch is partitioned into sub-batches
    /// swapped into each shard's bounded job queue as they fill (a full
    /// queue blocks — the backpressure contract), so the shards work on
    /// the batch's head while its tail is still being split; the call
    /// then collects every shard's replies in shard order.
    pub fn push_batch_into<S: ReleaseSink>(
        &mut self,
        batch: Vec<KeyedEvent>,
        sink: &mut S,
    ) -> Result<(), CoreError> {
        self.ensure_live()?;
        self.apply_due_faults();
        self.take_deferred()?;
        // atomic rejection: resolve every subject before any event moves.
        // The resolution buffer is persistent scratch — cleared, refilled
        // through the dense route table, and handed back below.
        let mut routes = std::mem::take(&mut self.route_scratch);
        routes.clear();
        for keyed in &batch {
            match self.routes.lookup(keyed.subject) {
                Some(shard) => routes.push(shard),
                None => {
                    let unknown = keyed.subject.0;
                    self.route_scratch = routes;
                    return Err(CoreError::UnknownSubject(unknown));
                }
            }
        }
        // journal the batch once it is known valid and before any event
        // moves: the log holds exactly the batches that were applied, and
        // a failed append rejects the batch as atomically as a bad subject
        if let Err(e) = self.wal_append(|wal| wal.append_batch(&batch)) {
            self.route_scratch = routes;
            return Err(e);
        }
        let n_events = batch.len() as u64;
        let mut round = self.take_round();
        self.submit_poisons(&mut round);
        // partition into per-shard sub-batches in arrival order (event
        // ownership moves all the way through), mirroring each shard
        // buffer's clock; in parallel mode a filled sub-batch is submitted
        // immediately, overlapping shard work with the rest of the split
        for (keyed, &shard) in batch.into_iter().zip(&routes) {
            let shard_idx = shard as usize;
            self.meta[shard_idx].observe(keyed.event.ts);
            self.fill[shard_idx].push(keyed.event);
            if self.parallel && self.fill[shard_idx].len() >= SUB_BATCH {
                self.submit_fill(shard_idx, &mut round);
            }
        }
        self.route_scratch = routes;
        // remainders, in shard order
        for shard_idx in 0..self.shards.len() {
            if !self.fill[shard_idx].is_empty() {
                self.submit_fill(shard_idx, &mut round);
            }
        }
        self.events_ingested += n_events;
        // the global low watermark is exact from the routing-time mirrors,
        // so the advance rides in the same round — no barrier between
        // ingestion and watermark alignment (a stale-or-equal target is a
        // shard-side no-op)
        if let Some(low) = self.low_watermark() {
            for shard_idx in 0..self.shards.len() {
                self.submit_job(shard_idx, ShardJob::Advance(low), &mut round);
            }
        }
        self.run_round(round, sink);
        self.drain_merged(sink);
        self.take_deferred()
    }

    /// Heartbeat: behave as if every source had just been observed at
    /// `ts` — each shard buffer's watermark advances to `ts − max_delay`
    /// (events up to `max_delay` late are still accepted afterwards), and
    /// the global low watermark then drives every shard engine forward,
    /// releasing quiet windows.
    pub fn advance_watermark(&mut self, ts: Timestamp) -> Result<BatchOutput, CoreError> {
        self.with_wrapper_sink(|service, sink| service.advance_watermark_into(ts, sink))
    }

    /// Sink-delivering form of [`ShardedService::advance_watermark`]:
    /// the heartbeat round runs to completion and delivers before this
    /// returns.
    pub fn advance_watermark_into<S: ReleaseSink>(
        &mut self,
        ts: Timestamp,
        sink: &mut S,
    ) -> Result<(), CoreError> {
        self.ensure_live()?;
        self.apply_due_faults();
        self.take_deferred()?;
        self.wal_append(|wal| wal.append(&WalRecord::Watermark(ts)))?;
        let mut round = self.take_round();
        self.submit_poisons(&mut round);
        for shard_idx in 0..self.shards.len() {
            self.meta[shard_idx].observe(ts);
            self.submit_job(shard_idx, ShardJob::Heartbeat(ts), &mut round);
        }
        if let Some(low) = self.low_watermark() {
            for shard_idx in 0..self.shards.len() {
                self.submit_job(shard_idx, ShardJob::Advance(low), &mut round);
            }
        }
        self.run_round(round, sink);
        self.drain_merged(sink);
        self.take_deferred()
    }

    /// End of stream: drain every reorder buffer into its engine, align
    /// every shard on one final frontier (the furthest any shard reached —
    /// the stream ends at the same instant for every tenant, so the last
    /// windows merge too), close the open windows, and merge. The service
    /// rejects ingestion afterwards.
    pub fn finish(&mut self) -> Result<BatchOutput, CoreError> {
        self.with_wrapper_sink(|service, sink| service.finish_into(sink))
    }

    /// Sink-delivering form of [`ShardedService::finish`].
    ///
    /// Flushes and closes every shard, and delivers everything before
    /// sealing the service.
    pub fn finish_into<S: ReleaseSink>(&mut self, sink: &mut S) -> Result<(), CoreError> {
        self.ensure_live()?;
        // worker kills may land here (their jobs are preserved and run
        // inline); scripted poisons never lead a finish round — replaying
        // a `Finish` record mid-finish would double-close the shard — so
        // `submit_poisons` is deliberately not called below
        self.apply_due_faults();
        self.take_deferred()?;
        self.wal_append(|wal| wal.append(&WalRecord::Finish))?;
        self.finished = true;
        let mut flush = self.take_round();
        for shard_idx in 0..self.shards.len() {
            self.submit_job(shard_idx, ShardJob::Flush, &mut flush);
        }
        // barrier: the final frontier needs every shard's flushed clock
        self.run_round(flush, sink);
        let end = self
            .meta
            .iter()
            .map(|m| m.frontier)
            .max()
            .expect("n_shards >= 1");
        let mut close = self.take_round();
        for shard_idx in 0..self.shards.len() {
            self.submit_job(shard_idx, ShardJob::Close(end), &mut close);
        }
        self.run_round(close, sink);
        self.drain_merged(sink);
        self.take_deferred()
    }

    /// Graceful close — the one correct teardown path. Equivalent to
    /// calling [`ShardedService::finish`] (if the stream is still open)
    /// followed by a WAL fsync, in the right order:
    ///
    /// 1. every shard flushes its reorder buffer and closes its open
    ///    windows on one aligned final frontier (skipped when the service
    ///    is already finished — `shutdown` is idempotent);
    /// 2. everything that settles is delivered (here into the legacy
    ///    [`BatchOutput`]; see [`ShardedService::shutdown_into`] for the
    ///    sink form);
    /// 3. the attached WAL, if any, is fsynced — the true durability
    ///    barrier, so nothing accepted before the shutdown can be lost.
    ///
    /// Callers no longer need to know to call `sync()` / `finish` / the
    /// WAL's own [`WalWriter::sync`] in the right order; the network
    /// edge (`pdp-server`) tears the service down through exactly this
    /// path.
    pub fn shutdown(&mut self) -> Result<BatchOutput, CoreError> {
        self.with_wrapper_sink(|service, sink| service.shutdown_into(sink))
    }

    /// Sink-delivering form of [`ShardedService::shutdown`]: finishes the
    /// stream (unless already finished), delivering what that settles into
    /// `sink`, and fsyncs the WAL. Idempotent: a second call delivers
    /// nothing, surfaces any deferred error and re-fsyncs.
    pub fn shutdown_into<S: ReleaseSink>(&mut self, sink: &mut S) -> Result<(), CoreError> {
        if self.finished {
            self.take_deferred()?;
        } else {
            self.finish_into(sink)?;
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    /// Deliver every fully merged window into `sink` — the subscribed
    /// typed answers first (one [`QueryAnswer`] per active query the sink
    /// [`wants`](ReleaseSink::wants), ascending id), then the
    /// [`MergedRelease`] itself — and feed each population-level
    /// protected view into the control plane's sliding history (the
    /// online adaptive PPM's input). Runs once, at the end of every
    /// delivering call. Deterministic and draw-free: typed answers are
    /// pure functions of the already-noised merged row, so computing them
    /// (even when no sink subscribes) changes no randomness downstream.
    fn drain_merged<S: ReleaseSink>(&mut self, sink: &mut S) {
        let mut rows = std::mem::take(&mut self.merged_scratch);
        rows.clear();
        self.merge.drain_into(&mut rows);
        for mut row in rows.drain(..) {
            self.control.observe_release(&row.protected_any);
            // a window tagged with an uninstalled epoch is runtime
            // corruption, not a caller bug: report it typed and deliver
            // the merged row without typed answers instead of panicking
            let Some(core) = self.cores_by_epoch.get(row.epoch as usize) else {
                self.deferred
                    .get_or_insert(CoreError::InvalidService(format!(
                        "merged window {} released under unknown epoch {}",
                        row.index, row.epoch
                    )));
                sink.merged_release(row);
                continue;
            };
            row.typed =
                core.answer_merged(&row.answers_any, &row.protected_any, &mut self.merged_state);
            for (query, answer) in &row.typed {
                if sink.wants(*query) {
                    sink.answer(QueryAnswer {
                        query: *query,
                        window: row.index,
                        epoch: row.epoch,
                        answer: answer.clone(),
                    });
                }
            }
            sink.merged_release(row);
        }
        self.merged_scratch = rows;
    }

    // ---- the runtime command surface (control plane) ----
    //
    // Every method below *stages* a command; nothing takes effect until
    // `begin_epoch` compiles the staged batch into an `EpochPlan` and
    // fans it out. Ids are assigned at staging time and are stable
    // forever (append-only registries).
    //
    // With a WAL attached, every command is journaled *before* it is
    // staged (true write-ahead): a command the control plane rejects is
    // in the log too, and its replay re-fails deterministically — see
    // `durability::replay_into`.

    /// Journal one command from the infallible staging wrappers; the
    /// record is only built when a WAL is attached, and an append failure
    /// is deferred to the next fallible operation (these wrappers have no
    /// error channel of their own).
    fn note_command(&mut self, command: impl FnOnce() -> Command) {
        if self.wal.is_some() {
            let command = command();
            if let Err(e) = self.wal_append(|wal| wal.append_command(&command)) {
                self.deferred.get_or_insert(e);
            }
        }
    }

    /// Journal one command from the fallible staging wrappers, surfacing
    /// an append failure immediately (before the command stages — the log
    /// never misses a staged command).
    fn log_command(&mut self, command: impl FnOnce() -> Command) -> Result<(), CoreError> {
        if self.wal.is_some() {
            let command = command();
            self.wal_append(|wal| wal.append_command(&command))
        } else {
            Ok(())
        }
    }

    /// Stage: a new tenant joins (routable from the next epoch on).
    pub fn register_subject(&mut self, subject: SubjectId) -> SubjectId {
        self.note_command(|| Command::RegisterSubject(subject));
        self.control.register_subject(subject)
    }

    /// Stage: a tenant leaves. From the next epoch on their events are
    /// rejected and their patterns stop charging; spend already recorded
    /// is never refunded.
    pub fn retire_subject(&mut self, subject: SubjectId) -> Result<(), CoreError> {
        self.log_command(|| Command::RetireSubject(subject))?;
        self.control.retire_subject(subject)
    }

    /// Stage: a tenant declares a new private pattern (protected and
    /// charged from the next epoch on).
    pub fn register_private_pattern(&mut self, subject: SubjectId, pattern: Pattern) -> PatternId {
        self.note_command(|| Command::RegisterPrivatePattern {
            subject,
            pattern: pattern.clone(),
        });
        self.control.register_private_pattern(subject, pattern)
    }

    /// Stage: a tenant withdraws a private pattern — it stops being
    /// protected and charged from the next epoch on, and never refunds.
    pub fn revoke_private_pattern(
        &mut self,
        subject: SubjectId,
        pattern: PatternId,
    ) -> Result<(), CoreError> {
        self.log_command(|| Command::RevokePrivatePattern { subject, pattern })?;
        self.control.revoke_private_pattern(subject, pattern)
    }

    /// Stage: a consumer adds a named target-pattern query (answered from
    /// the next epoch on).
    pub fn add_consumer_query(&mut self, name: &str, pattern: Pattern) -> (QueryId, PatternId) {
        self.note_command(|| Command::AddConsumerQuery {
            name: name.to_owned(),
            pattern: pattern.clone(),
        });
        self.control.add_consumer_query(name, pattern)
    }

    /// Stage: a consumer adds a named §VII extension query (count,
    /// categorical, argmax — anything implementing [`Query`]); answered
    /// (typed) from the next epoch on, with argmax budgets charged
    /// through the service's query ledger.
    pub fn add_extension_query(&mut self, name: &str, query: &dyn Query) -> QueryId {
        self.note_command(|| Command::AddTypedQuery {
            name: name.to_owned(),
            spec: query.spec(),
        });
        self.control.add_typed_query(name, query)
    }

    /// Stage: a consumer withdraws a query (unanswered from the next
    /// epoch on).
    pub fn remove_consumer_query(&mut self, query: QueryId) -> Result<(), CoreError> {
        self.log_command(|| Command::RemoveConsumerQuery(query))?;
        self.control.remove_consumer_query(query)
    }

    /// Stage: grant (replace) the explicit historical data the adaptive
    /// PPM optimizes against at the next transition.
    pub fn provide_history(&mut self, windows: WindowedIndicators) {
        self.note_command(|| Command::ProvideHistory(windows.clone()));
        self.control.provide_history(windows);
    }

    /// Stage one [`Command`] in enum form (schedules as data).
    pub fn submit(&mut self, command: Command) -> Result<CommandOutcome, CoreError> {
        if let Some(wal) = self.wal.as_mut() {
            wal.append_command(&command)?;
        }
        self.control.submit(command)
    }

    /// Read access to the control plane (registries, staged state,
    /// effective history).
    pub fn control(&self) -> &ControlPlane {
        &self.control
    }

    /// The control-plane epoch currently compiled (releases may still be
    /// settling under earlier epochs until the activation boundary).
    pub fn epoch(&self) -> u64 {
        self.control.epoch()
    }

    /// Compile every staged command into the next epoch and fan the plan
    /// out to all shards. Returns `Ok(None)` when nothing is staged (a
    /// zero-command schedule leaves the service bit-for-bit unchanged).
    ///
    /// The transition is **deterministic**: the plan is compiled from the
    /// control plane's state alone, and the activation boundary is the
    /// first window index no shard has released yet — the frontier the
    /// global low watermark has driven the shards to. Every shard (and
    /// any independent engine handed the returned
    /// `(activation_index, plan)`) switches on that same window. Windows
    /// below the boundary still release, charge and answer under the plan
    /// that was in force when they were current; under the adaptive PPM
    /// the new plan re-distributes each subject's pattern budget with
    /// [`optimize_all`](crate::adaptive::optimize_all) over the control
    /// plane's effective history.
    pub fn begin_epoch(&mut self) -> Result<Option<EpochTransition>, CoreError> {
        self.ensure_live()?;
        self.take_deferred()?;
        if !self.control.has_pending() {
            return Ok(None);
        }
        let plan = self.control.compile_next()?;
        let activation_index = self
            .meta
            .iter()
            .map(|m| m.released)
            .max()
            .expect("n_shards >= 1");
        // compile the detector-side pattern swap ONCE on the service
        // thread; every shard activates the shared precompiled plan at the
        // boundary instead of re-running the pattern compiler per shard at
        // window close (the off-hot-path epoch activation)
        let swap = Arc::new(PreparedPatternSwap::prepare(
            plan.core.patterns().clone(),
            self.n_types,
        ));
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let mut guard = shard
                .lock()
                .map_err(|_| CoreError::ShardPoisoned { shard: shard_idx })?;
            guard.engine.schedule_epoch_prepared(
                activation_index,
                plan.core.clone(),
                swap.clone(),
            )?;
        }
        self.activations.push((activation_index, plan.epoch));
        // routing: newly active subjects become routable, retired ones
        // stop (their buffered events still drain through the engine)
        let n_shards = self.shards.len();
        self.routes.clear();
        for meta in &mut self.meta {
            meta.n_subjects = 0;
        }
        for s in self.control.active_subjects() {
            let shard_idx = Self::shard_for(s, n_shards);
            self.routes.insert(s, shard_idx as u32);
            self.meta[shard_idx].n_subjects += 1;
        }
        self.install_plan(&plan)?;
        // journaled only once the whole transition succeeded: a crash
        // anywhere above discards it wholesale, and recovery resumes
        // cleanly under the previous epoch (the staged commands are in the
        // log individually and re-stage on replay)
        self.wal_append(|wal| wal.append(&WalRecord::BeginEpoch))?;
        Ok(Some(EpochTransition {
            activation_index,
            plan,
        }))
    }

    /// Wire one compiled plan into the bookkeeping shared by the initial
    /// build and every transition: the per-shard per-epoch charge
    /// schedules and the per-subject epoch ledgers (register caps for
    /// newly charged patterns, fence everything the plan dropped).
    fn install_plan(&mut self, plan: &EpochPlan) -> Result<(), CoreError> {
        let epoch = plan.epoch as usize;
        // plans install strictly in epoch order (a failed compile never
        // burns the number), so the epoch-indexed schedules are dense
        debug_assert_eq!(self.cores_by_epoch.len(), epoch);
        self.cores_by_epoch.push(plan.core.clone());
        self.query_charges_by_epoch.push(plan.query_charges.clone());
        for &(query, eps) in &plan.query_charges {
            self.query_ledger
                .register(query, eps)
                .map_err(CoreError::Dp)?;
        }
        for query in self.query_ledger.keys() {
            if !plan.query_charges.iter().any(|(q, _)| *q == query) {
                self.query_ledger.retire(&query, plan.epoch);
            }
        }
        for charges in &mut self.shard_charges {
            if charges.len() <= epoch {
                charges.resize(epoch + 1, Vec::new());
            } else {
                charges[epoch].clear();
            }
        }
        // every interned subject gets a ledger slot (dense-indexed; empty
        // slots are inert — nothing charges them until a plan does)
        if self.ledgers.len() < self.control.dense_count() {
            self.ledgers
                .resize_with(self.control.dense_count(), EpochLedger::new);
        }
        let mut active: Vec<Vec<(PatternId, Epsilon)>> = vec![Vec::new(); self.ledgers.len()];
        for &(subject, pid, eps) in &plan.charges {
            let (Some(shard_idx), Some(dense)) = (
                self.routes.lookup(subject),
                self.control.dense_index(subject),
            ) else {
                return Err(CoreError::InvalidService(format!(
                    "epoch {} charges {subject} which is not routed to any shard",
                    plan.epoch
                )));
            };
            self.shard_charges[shard_idx as usize][epoch].push((dense, pid, eps));
            active[dense as usize].push((pid, eps));
        }
        for (dense, ledger) in self.ledgers.iter_mut().enumerate() {
            let keep = std::mem::take(&mut active[dense]);
            for pid in ledger.keys() {
                if !keep.iter().any(|(kept, _)| *kept == pid) {
                    ledger.retire(&pid, plan.epoch);
                }
            }
            for (pid, eps) in keep {
                ledger.register(pid, eps).map_err(CoreError::Dp)?;
            }
        }
        Ok(())
    }

    /// Swap one shard's filled sub-batch buffer for a spare and submit it
    /// — the double-buffered hand-off: the partitioner keeps writing into
    /// the fresh buffer while the full one travels to the worker, and the
    /// worker sends the emptied Vec back for reuse.
    fn submit_fill(&mut self, shard_idx: usize, round: &mut Round) {
        // the pool is pre-sized to cover every in-flight buffer (see
        // `partition_buffers`), so the fallback should never fire — but
        // if it does, start the replacement at full capacity instead of
        // growing it push by push
        let next = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(SUB_BATCH));
        let chunk = std::mem::replace(&mut self.fill[shard_idx], next);
        self.submit_job(shard_idx, ShardJob::Ingest(chunk), round);
    }

    /// Route one job into the current round: parallel mode sends it into
    /// the shard's bounded queue right away (a full queue blocks — that is
    /// the backpressure), inline mode queues it for execution at fold
    /// time. Either way the job is folded back in shard order.
    ///
    /// A dead worker never fails the round mid-flight — replies already in
    /// the air still fold, so the round's reply accounting never
    /// desynchronizes. What happens to the bounced job depends on
    /// supervision: unsupervised, [`CoreError::ShardWorker`] is deferred
    /// to the end of the call (the historical fail-fast contract).
    /// Supervised with a *clean* shard mutex, the job is requeued for
    /// inline execution at fold time — same lock, same order, bit-for-bit
    /// the fault-free output — and the worker is respawned once the round
    /// has folded. Supervised with a *poisoned* mutex the job is dropped:
    /// the shard state cannot be trusted, and the checkpoint + WAL rebuild
    /// at fold time re-derives the whole round from the journal instead.
    fn submit_job(&mut self, shard_idx: usize, job: ShardJob, round: &mut Round) {
        if self.parallel {
            match self.workers[shard_idx].submit(job) {
                Ok(()) => round.expected[shard_idx] += 1,
                Err(job) => {
                    if self.supervisor.is_none() {
                        // a worker that died of a panic under the shard
                        // lock is reported as the poison it left, exactly
                        // as when its reply goes missing at fold time —
                        // which of the two sees it first is a race
                        let err = if self.shards[shard_idx].is_poisoned() {
                            CoreError::ShardPoisoned { shard: shard_idx }
                        } else {
                            CoreError::ShardWorker { shard: shard_idx }
                        };
                        self.deferred.get_or_insert(err);
                    } else if !self.shards[shard_idx].is_poisoned() {
                        round.queued[shard_idx].push(job);
                        self.needs_respawn[shard_idx] = true;
                    }
                }
            }
        } else {
            round.queued[shard_idx].push(job);
        }
    }

    /// Settle one submitted round: collect (or, inline, run) each shard's
    /// jobs and fold the releases into ledgers and merge accumulators,
    /// delivering each shard release into `sink` — **in shard order**,
    /// which is the reorder stage that keeps accounting and output
    /// deterministic while replies arrive whenever shards finish. Errors
    /// are deferred to the end of the call; everything released before a
    /// failure still settles (it spent budget). Then, with every worker
    /// idle, dead workers are respawned (or the service degrades).
    fn run_round<S: ReleaseSink>(&mut self, mut round: Round, sink: &mut S) {
        self.rounds_submitted += 1;
        let mut releases = std::mem::take(&mut self.settle_scratch);
        for shard_idx in 0..self.shards.len() {
            releases.clear();
            for _ in 0..round.expected[shard_idx] {
                match self.workers[shard_idx].collect(shard_idx) {
                    Ok(reply) => self.absorb(shard_idx, reply, &mut releases),
                    Err(e) => {
                        // replies are lost (the worker panicked mid-round):
                        // heal by rebuilding this one shard from durability,
                        // recovering the round's missing releases in place
                        // so settlement continues in fault-free order
                        round.queued[shard_idx].clear();
                        if let Err(heal_err) = self.heal_lost_replies(shard_idx, &mut releases, e) {
                            self.deferred.get_or_insert(heal_err);
                        }
                        break;
                    }
                }
            }
            if !round.queued[shard_idx].is_empty() {
                let shard = self.shards[shard_idx].clone();
                match shard.lock() {
                    Ok(mut guard) => {
                        for job in round.queued[shard_idx].drain(..) {
                            // a poison that bounced off a dead worker is
                            // unachievable inline: executing it would
                            // panic the service thread, which the typed-
                            // error contract forbids — drop it instead
                            if matches!(job, ShardJob::Poison) {
                                continue;
                            }
                            let reply = guard.execute(job);
                            self.absorb(shard_idx, reply, &mut releases);
                        }
                    }
                    // a poisoned lock is a typed error, never a panic
                    Err(_) => {
                        self.deferred
                            .get_or_insert(CoreError::ShardPoisoned { shard: shard_idx });
                    }
                };
            }
            self.settle(shard_idx, &mut releases, sink);
        }
        self.settle_scratch = releases;
        self.round = round;
        self.heal_workers();
    }

    /// Fold one shard reply: refresh the service-side stats mirror,
    /// recycle the emptied ingest buffer, defer any error (first in
    /// shard/submission order wins) and stage the releases for settling.
    fn absorb(&mut self, shard_idx: usize, reply: ShardReply, releases: &mut Vec<WindowRelease>) {
        let meta = &mut self.meta[shard_idx];
        meta.frontier = reply.frontier;
        meta.dropped = reply.dropped;
        meta.buffered = reply.buffered;
        meta.released = reply.released;
        if let Some(buf) = reply.recycled {
            // retain enough spares to cover every buffer that can be in
            // flight at once (a full queue, one executing, one filling,
            // per shard) — fewer would force steady-state reallocation
            if self.spare.len() < (QUEUE_DEPTH + 2) * self.shards.len() {
                self.spare.push(buf);
            }
        }
        if let Some(e) = reply.error {
            self.deferred.get_or_insert(e);
        }
        releases.extend(reply.releases);
    }

    // ---- supervision: scripted faults, healing, health ----

    /// Enable supervision: dead workers are healed in place, WAL appends
    /// are retried, and the service degrades to inline execution instead
    /// of failing terminally once a shard's heal budget is exhausted. See
    /// [`SupervisorConfig`] for the healing contract. Without a
    /// supervisor the service keeps its historical fail-fast behavior.
    pub fn set_supervisor(&mut self, config: SupervisorConfig) {
        self.supervisor = Some(config);
    }

    /// The active supervision policy, if any.
    pub fn supervisor(&self) -> Option<&SupervisorConfig> {
        self.supervisor.as_ref()
    }

    /// Arm a scripted [`FaultPlan`] (replacing any previous one): the
    /// service consults it before every round submission and WAL append,
    /// so a chaos scenario reproduces exactly from the plan alone.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Scripted faults that have not fired yet (0 when no plan is armed).
    /// Worker faults never fire in inline mode — there is no worker
    /// thread to kill — so inline chaos runs end with those remaining.
    pub fn faults_remaining(&self) -> usize {
        self.injector.as_ref().map_or(0, FaultInjector::remaining)
    }

    /// Supervision snapshot: execution mode, degradation flag, per-shard
    /// liveness/poison/heal counts, WAL retry counters and the heal log.
    /// Deferred errors stay deferred — this is a read, not a drain.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            parallel: self.parallel,
            degraded: self.degraded,
            wal_retries: self.wal_retries,
            wal_appends: self.wal_appends,
            shards: (0..self.shards.len())
                .map(|shard_idx| ShardHealth {
                    shard: shard_idx,
                    alive: !self.parallel || self.workers[shard_idx].is_alive(),
                    poisoned: self.shards[shard_idx].is_poisoned(),
                    heals: self.heals[shard_idx],
                })
                .collect(),
            events: self.heal_log.clone(),
        }
    }

    /// Fire the scripted worker faults due before the next round: kills
    /// sever the target's job channel now (the worker is idle between
    /// calls, so it exits at once), poisons flag the shard so a poison
    /// job leads its next eligible round. No-ops in inline mode: there is
    /// no worker thread to fault.
    fn apply_due_faults(&mut self) {
        let Some(injector) = self.injector.as_mut() else {
            return;
        };
        let next_round = self.rounds_submitted + 1;
        for fault in injector.due_before_round(next_round) {
            match fault {
                DueFault::Kill { shard } => {
                    if self.parallel && shard < self.workers.len() {
                        self.workers[shard].job_tx = None;
                    }
                }
                DueFault::Poison { shard } => {
                    if self.parallel && shard < self.poison_next.len() {
                        self.poison_next[shard] = true;
                    }
                }
            }
        }
    }

    /// Lead the round with the flagged poison jobs (parallel mode only —
    /// an inline poison would panic the service thread itself, which is
    /// exactly what the typed-error contract forbids).
    fn submit_poisons(&mut self, round: &mut Round) {
        if !self.parallel {
            self.poison_next.iter_mut().for_each(|f| *f = false);
            return;
        }
        for shard_idx in 0..self.shards.len() {
            if std::mem::take(&mut self.poison_next[shard_idx]) {
                self.submit_job(shard_idx, ShardJob::Poison, round);
            }
        }
    }

    /// Append to the WAL (no-op when none is attached) with supervised
    /// retry: a failed attempt — scripted or real — is retried up to
    /// [`SupervisorConfig::wal_retry_limit`] times with doubling backoff
    /// before the operation is rejected. Scripted failures are consulted
    /// *before* the physical write, so they are genuinely transient; real
    /// failures reposition the writer first (see `WalWriter`), so a retry
    /// overwrites any partial frame.
    fn wal_append<F>(&mut self, mut op: F) -> Result<(), CoreError>
    where
        F: FnMut(&mut WalWriter) -> Result<(), CoreError>,
    {
        if self.wal.is_none() {
            return Ok(());
        }
        let (retries, backoff) = match self.supervisor.as_ref() {
            Some(sup) => (sup.wal_retry_limit, sup.wal_retry_backoff),
            None => (0, std::time::Duration::ZERO),
        };
        let mut last = None;
        for attempt in 0..=retries {
            if attempt > 0 {
                self.wal_retries += 1;
                let pause = backoff * 2u32.saturating_pow(attempt - 1);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            self.wal_appends += 1;
            let scripted_failure = self
                .injector
                .as_mut()
                .is_some_and(|i| i.wal_append_should_fail(self.wal_appends));
            let result = if scripted_failure {
                Err(CoreError::Durability(format!(
                    "injected transient failure of wal append attempt {}",
                    self.wal_appends
                )))
            } else {
                op(self.wal.as_mut().expect("checked non-None above"))
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Heal a shard whose worker died *mid-round* (replies lost):
    /// unsupervised this surfaces the typed error; supervised it rebuilds
    /// the shard from the last checkpoint plus a WAL-tail replay and
    /// recovers the crashed round's missing releases into `releases`, so
    /// the caller settles them in fault-free order.
    fn heal_lost_replies(
        &mut self,
        shard_idx: usize,
        releases: &mut Vec<WindowRelease>,
        base: CoreError,
    ) -> Result<(), CoreError> {
        let base = if self.shards[shard_idx].is_poisoned() {
            CoreError::ShardPoisoned { shard: shard_idx }
        } else {
            base
        };
        let Some(sup) = self.supervisor.clone() else {
            return Err(base);
        };
        let (Some(ckpt), Some(wal)) = (sup.checkpoint, sup.wal) else {
            // no durability artifacts to rebuild from: surface typed
            return Err(base);
        };
        self.rebuild_shard(shard_idx, &ckpt, &wal, releases)?;
        self.needs_respawn[shard_idx] = true;
        self.rebuilt[shard_idx] = true;
        Ok(())
    }

    /// Rebuild one shard from durability: restore the checkpoint into a
    /// scratch service, replay the WAL tail inline, then steal the
    /// target shard's state and stats mirror and harvest the releases the
    /// live service has not settled yet. The other shards' state is
    /// untouched.
    fn rebuild_shard(
        &mut self,
        shard_idx: usize,
        ckpt_path: &Path,
        wal_path: &Path,
        releases: &mut Vec<WindowRelease>,
    ) -> Result<(), CoreError> {
        let mut checkpoint = read_checkpoint(ckpt_path)?;
        // the scratch replay is single-threaded by construction (inline
        // and parallel modes are bit-identical, and a worker pool for a
        // throwaway replay would be pure overhead)
        checkpoint.parallel = false;
        let records = read_wal_from(wal_path, checkpoint.wal_offset)?;
        let mut scratch = ShardedService::restore(self.config.clone(), checkpoint)?;
        let mut sink = VecSink::all();
        replay_into(&mut scratch, records, &mut sink)?;
        scratch.sync()?;
        if scratch.events_ingested != self.events_ingested {
            return Err(CoreError::Durability(format!(
                "shard {shard_idx} rebuild diverged: replay ingested {} events, \
                 the live service accepted {} — the checkpoint/WAL pair is stale",
                scratch.events_ingested, self.events_ingested
            )));
        }
        // everything below `released_before` already settled live; the
        // rebuilt releases at or above it are the crashed round's output
        let released_before = self.meta[shard_idx].released;
        let rebuilt = scratch.shards[shard_idx]
            .lock()
            .map_err(|_| CoreError::ShardPoisoned { shard: shard_idx })?
            .clone();
        self.shards[shard_idx] = Arc::new(Mutex::new(rebuilt));
        self.meta[shard_idx] = scratch.meta[shard_idx].clone();
        for shard_release in sink.shard_releases {
            if shard_release.shard == shard_idx && shard_release.release.index >= released_before {
                releases.push(shard_release.release);
            }
        }
        Ok(())
    }

    /// Respawn the workers flagged dead, or — once a shard's heal budget
    /// is exhausted — tear the pool down and degrade to inline execution
    /// for good. Runs only after a round has folded (every worker idle),
    /// so replacing a worker never strands an in-flight reply.
    fn heal_workers(&mut self) {
        if !self.parallel {
            self.needs_respawn.iter_mut().for_each(|f| *f = false);
            self.rebuilt.iter_mut().for_each(|f| *f = false);
            return;
        }
        for shard_idx in 0..self.shards.len() {
            if !std::mem::take(&mut self.needs_respawn[shard_idx]) {
                continue;
            }
            let action = if std::mem::take(&mut self.rebuilt[shard_idx]) {
                HealAction::Rebuilt
            } else {
                HealAction::Respawned
            };
            self.heals[shard_idx] += 1;
            let round = self.rounds_submitted;
            let budget = self
                .supervisor
                .as_ref()
                .map_or(0, |sup| sup.max_heal_attempts);
            if self.heals[shard_idx] > budget {
                // heal budget exhausted: keep serving, single-threaded —
                // inline output is bit-identical, only parallelism is lost
                self.heal_log.push(HealEvent {
                    shard: shard_idx,
                    round,
                    action: HealAction::Degraded,
                });
                self.degraded = true;
                self.parallel = false;
                self.workers.clear();
                self.needs_respawn.iter_mut().for_each(|f| *f = false);
                self.rebuilt.iter_mut().for_each(|f| *f = false);
                return;
            }
            self.workers[shard_idx] = WorkerHandle::spawn(self.shards[shard_idx].clone());
            self.heal_log.push(HealEvent {
                shard: shard_idx,
                round,
                action,
            });
        }
    }

    /// Surface the first error any fold deferred.
    fn take_deferred(&mut self) -> Result<(), CoreError> {
        match self.deferred.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Surface the error an infallible staging wrapper deferred (a failed
    /// WAL append of a command), if any. Nothing is ever in flight
    /// between calls — every call settles, delivers and heals its own
    /// round — so there is nothing else to settle here.
    pub fn sync(&mut self) -> Result<(), CoreError> {
        self.take_deferred()
    }

    /// Attach a write-ahead log: from now on every accepted input is
    /// journaled per the module-level crash consistency contract.
    /// Replaces (and returns) a previously attached writer.
    pub fn attach_wal(&mut self, wal: WalWriter) -> Option<WalWriter> {
        self.wal.replace(wal)
    }

    /// Detach the write-ahead log (durability off; the returned writer
    /// can be synced or dropped by the caller).
    pub fn detach_wal(&mut self) -> Option<WalWriter> {
        self.wal.take()
    }

    /// Byte offset of the attached WAL after the last journaled record,
    /// `None` without a WAL. A checkpoint taken now records this offset
    /// as its replay cursor.
    pub fn wal_offset(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.offset())
    }

    /// The [`SubjectId`] behind one dense intern index. Total for every
    /// index the service stores (the registry is append-only); a miss is
    /// internal corruption, reported typed rather than panicking.
    fn subject_for_dense(&self, dense: u32) -> Result<SubjectId, CoreError> {
        self.control.subject_of_dense(dense).ok_or_else(|| {
            CoreError::InvalidService(format!(
                "dense subject index {dense} is not interned in the control plane"
            ))
        })
    }

    /// Image the full service state into a [`ServiceCheckpoint`]. Every
    /// call settles and delivers its own round before returning, so the
    /// image never contains an in-flight round or an undelivered release,
    /// and everything it does contain has already been delivered and
    /// charged; `sink` therefore receives nothing. The image pairs with
    /// the [`ServiceConfig`] the service was built with
    /// ([`ShardedService::restore`]) and records the WAL offset recovery
    /// should replay from.
    ///
    /// The imaged state includes every shard's RNG position: a restored
    /// service resumes the per-shard randomness streams mid-sequence,
    /// which is what makes recovery bit-for-bit (the flips already
    /// released before the checkpoint are never redrawn, and the ones
    /// after it redraw identically).
    pub fn checkpoint_into<S: ReleaseSink>(
        &mut self,
        _sink: &mut S,
    ) -> Result<ServiceCheckpoint, CoreError> {
        self.take_deferred()?;
        // workers are idle between calls: the shard locks are
        // uncontended. A poisoned shard must never be imaged — its state
        // may be mid-job.
        let mut shards = Vec::with_capacity(self.shards.len());
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let guard = shard
                .lock()
                .map_err(|_| CoreError::ShardPoisoned { shard: shard_idx })?;
            shards.push(ShardCheckpoint {
                buffer: guard.buffer.snapshot(),
                engine: guard.engine.snapshot(),
                rng: guard.rng.state(),
                frontier: guard.frontier,
            });
        }
        let meta = self
            .meta
            .iter()
            .map(|m| ShardMetaSnapshot {
                max_seen: m.max_seen,
                frontier: m.frontier,
                dropped: m.dropped,
                buffered: m.buffered,
                released: m.released,
            })
            .collect();
        // the wire format stays subject-keyed: dense indexes resolve back
        // through the control plane at the image boundary, sorted so equal
        // states encode byte-identically
        let mut ledgers = Vec::with_capacity(self.ledgers.len());
        for (dense, ledger) in self.ledgers.iter().enumerate() {
            ledgers.push((self.subject_for_dense(dense as u32)?, ledger.snapshot()));
        }
        ledgers.sort_unstable_by_key(|(subject, _)| *subject);
        let mut shard_charges = Vec::with_capacity(self.shard_charges.len());
        for per_epoch in &self.shard_charges {
            let mut epochs = Vec::with_capacity(per_epoch.len());
            for charges in per_epoch {
                let mut wire = Vec::with_capacity(charges.len());
                for &(dense, pid, eps) in charges {
                    wire.push((self.subject_for_dense(dense)?, pid, eps));
                }
                epochs.push(wire);
            }
            shard_charges.push(epochs);
        }
        let merge = MergeSnapshot {
            next_index: self.merge.next_index,
            rows: self
                .merge
                .rows
                .iter()
                .map(|row| MergeRowSnapshot {
                    start: row.start,
                    epoch: row.epoch,
                    shards_done: row.shards_done,
                    answers_any: row.answers_any.clone(),
                    positive_shards: row.positive_shards.clone(),
                    union: row.union.clone(),
                })
                .collect(),
        };
        // the image must not point past what the log has made durable: a
        // power loss could keep the fsynced image and drop the WAL tail
        if let Some(wal) = self.wal.as_mut() {
            wal.sync()?;
        }
        Ok(ServiceCheckpoint {
            parallel: self.parallel,
            shards,
            meta,
            shard_charges,
            ledgers,
            query_ledger: self.query_ledger.snapshot(),
            merge,
            cores_by_epoch: self.cores_by_epoch.iter().map(|c| c.snapshot()).collect(),
            query_charges_by_epoch: self.query_charges_by_epoch.clone(),
            merged_state: self.merged_state.snapshot(),
            control: self.control.snapshot(),
            activations: self.activations.clone(),
            events_ingested: self.events_ingested,
            finished: self.finished,
            wal_offset: self.wal.as_ref().map(|w| w.offset()).unwrap_or(0),
        })
    }

    /// [`ShardedService::checkpoint_into`] with the return-value shape of
    /// the other legacy wrappers: the [`BatchOutput`] is always empty.
    pub fn checkpoint(&mut self) -> Result<(ServiceCheckpoint, BatchOutput), CoreError> {
        let image = self.checkpoint_into(&mut VecSink::subscribed([]))?;
        Ok((image, BatchOutput::default()))
    }

    /// Rebuild a service from a checkpoint image and the [`ServiceConfig`]
    /// it was built with. Routing, worker threads and compiled artifacts
    /// (flip plans, NFAs) are re-derived deterministically; dynamic state
    /// (windows, ledgers, RNG positions, merge accumulators, the control
    /// plane) comes from the image. The restored service has no WAL
    /// attached — [`ShardedService::recover_into`] is the full recovery
    /// path.
    pub fn restore(
        config: ServiceConfig,
        checkpoint: ServiceCheckpoint,
    ) -> Result<Self, CoreError> {
        if config.n_shards == 0 {
            return Err(CoreError::InvalidService(
                "a service needs at least one shard".into(),
            ));
        }
        if checkpoint.shards.len() != config.n_shards
            || checkpoint.meta.len() != config.n_shards
            || checkpoint.shard_charges.len() != config.n_shards
        {
            return Err(CoreError::Durability(format!(
                "checkpoint has {} shards, config expects {} (shard count \
                 cannot change across recovery: subject routing is shard-\
                 count dependent)",
                checkpoint.shards.len(),
                config.n_shards
            )));
        }
        let control = ControlPlane::restore(
            ControlPlaneConfig {
                n_types: config.n_types,
                alpha: config.alpha,
                ppm: config.ppm.clone(),
                history_window: config.history_window,
            },
            checkpoint.control,
        );
        let n_shards = config.n_shards;
        let mut routes = RouteTable::new();
        for s in control.active_subjects() {
            routes.insert(s, Self::shard_for(s, n_shards) as u32);
        }
        // the image is subject-keyed on the wire; re-key ledgers and
        // charge schedules by the restored control plane's dense indexes
        // (the intern table itself rides in the control snapshot)
        let mut ledgers: Vec<EpochLedger<PatternId>> = Vec::new();
        ledgers.resize_with(control.dense_count(), EpochLedger::new);
        for (subject, snapshot) in checkpoint.ledgers {
            let Some(dense) = control.dense_index(subject) else {
                return Err(CoreError::Durability(format!(
                    "checkpoint carries a ledger for {subject}, which the \
                     imaged control plane never registered"
                )));
            };
            ledgers[dense as usize] = EpochLedger::restore(snapshot);
        }
        let mut shard_charges = Vec::with_capacity(checkpoint.shard_charges.len());
        for per_epoch in checkpoint.shard_charges {
            let mut epochs = Vec::with_capacity(per_epoch.len());
            for charges in per_epoch {
                let mut dense_charges = Vec::with_capacity(charges.len());
                for (subject, pid, eps) in charges {
                    let Some(dense) = control.dense_index(subject) else {
                        return Err(CoreError::Durability(format!(
                            "checkpoint charge schedule references {subject}, \
                             which the imaged control plane never registered"
                        )));
                    };
                    dense_charges.push((dense, pid, eps));
                }
                epochs.push(dense_charges);
            }
            shard_charges.push(epochs);
        }
        let mut shards = Vec::with_capacity(n_shards);
        for image in checkpoint.shards {
            // `Shard::new` pre-reserves exactly as in the builder: a
            // recovered service honors the zero-allocation steady-state
            // contract immediately
            shards.push(Arc::new(Mutex::new(Shard::new(
                ReorderBuffer::restore(image.buffer),
                StreamingEngine::restore(image.engine)?,
                DpRng::from_state(image.rng),
                image.frontier,
            ))));
        }
        let mut meta: Vec<ShardMeta> = checkpoint
            .meta
            .into_iter()
            .map(|m| ShardMeta {
                n_subjects: 0,
                max_seen: m.max_seen,
                frontier: m.frontier,
                dropped: m.dropped,
                buffered: m.buffered,
                released: m.released,
            })
            .collect();
        for (_, shard_idx) in routes.iter() {
            meta[shard_idx as usize].n_subjects += 1;
        }
        let merge = MergeState {
            n_shards,
            next_index: checkpoint.merge.next_index,
            rows: checkpoint
                .merge
                .rows
                .into_iter()
                .map(|row| MergeRow {
                    start: row.start,
                    epoch: row.epoch,
                    shards_done: row.shards_done,
                    answers_any: row.answers_any,
                    positive_shards: row.positive_shards,
                    union: row.union,
                })
                .collect(),
        };
        let cores_by_epoch: Vec<OnlineCore> = checkpoint
            .cores_by_epoch
            .into_iter()
            .map(OnlineCore::restore)
            .collect::<Result<_, _>>()?;
        let parallel = checkpoint.parallel && n_shards > 1;
        let workers = if parallel {
            shards
                .iter()
                .map(|s| WorkerHandle::spawn(s.clone()))
                .collect()
        } else {
            Vec::new()
        };
        let (fill, spare) = partition_buffers(n_shards);
        Ok(ShardedService {
            shards,
            workers,
            parallel,
            meta,
            shard_charges,
            routes,
            ledgers,
            query_ledger: EpochLedger::restore(checkpoint.query_ledger),
            merge,
            cores_by_epoch,
            query_charges_by_epoch: checkpoint.query_charges_by_epoch,
            merged_state: QueryStateSet::restore(checkpoint.merged_state),
            control,
            activations: checkpoint.activations,
            deferred: None,
            fill,
            spare,
            route_scratch: Vec::new(),
            round: Round::default(),
            settle_scratch: Vec::new(),
            merged_scratch: Vec::new(),
            wrapper_sink: VecSink::subscribed([]),
            n_types: config.n_types,
            max_delay: config.max_delay,
            events_ingested: checkpoint.events_ingested,
            finished: checkpoint.finished,
            wal: None,
            poison_next: vec![false; n_shards],
            needs_respawn: vec![false; n_shards],
            rebuilt: vec![false; n_shards],
            heals: vec![0; n_shards],
            heal_log: Vec::new(),
            degraded: false,
            wal_retries: 0,
            wal_appends: 0,
            config,
            supervisor: None,
            injector: None,
            rounds_submitted: 0,
        })
    }

    /// Full crash recovery: restore the checkpoint image, replay the WAL
    /// tail (every complete record at byte offset ≥
    /// [`ServiceCheckpoint::wal_offset`]) through the normal entry points
    /// — delivering the re-derived releases into `sink` — and re-attach
    /// the log for appending (positioned after its last complete record,
    /// so a torn tail from the crash is cut off). A log whose complete
    /// records end before the checkpoint's offset is refused with
    /// [`CoreError::Durability`].
    ///
    /// The recovered service is bit-for-bit the uninterrupted one: same
    /// deliveries, same ledger spends, same low watermark
    /// (`tests/crash_recovery.rs` is the anchor).
    pub fn recover_into<S: ReleaseSink>(
        config: ServiceConfig,
        checkpoint: ServiceCheckpoint,
        wal_path: &Path,
        sink: &mut S,
    ) -> Result<Self, CoreError> {
        let records = read_wal_from(wal_path, checkpoint.wal_offset)?;
        let mut service = Self::restore(config, checkpoint)?;
        // replay with no WAL attached: the records are already durable
        replay_into(&mut service, records, sink)?;
        service.attach_wal(WalWriter::open_append(wal_path)?);
        Ok(service)
    }

    /// Book one shard's releases everywhere they matter: the per-subject
    /// ledgers, the query ledger, the merge accumulators, and `sink`
    /// (which takes ownership — releases are never cloned).
    ///
    /// Charging is epoch-aware: releases arrive in index order, so their
    /// epochs are non-decreasing, and each run of same-epoch releases
    /// charges that epoch's schedule in one ledger pass. Releases of an
    /// epoch that has since been superseded still charge *their own*
    /// epoch's schedule — a revocation staged later never rewrites what an
    /// earlier plan already released.
    ///
    /// Accounting invariants (installed schedules, registered ledgers,
    /// caps) are enforced as *deferred typed errors*, never panics: a
    /// violation records the first [`CoreError`] for the next fallible
    /// call while deliveries keep flowing, so a corrupted plan cannot
    /// poison the whole service.
    fn settle<S: ReleaseSink>(
        &mut self,
        shard_idx: usize,
        releases: &mut Vec<WindowRelease>,
        sink: &mut S,
    ) {
        if releases.is_empty() {
            return;
        }
        let mut i = 0;
        while i < releases.len() {
            let epoch = releases[i].epoch;
            let mut j = i + 1;
            while j < releases.len() && releases[j].epoch == epoch {
                j += 1;
            }
            let Some(charges) = self.shard_charges[shard_idx].get(epoch as usize) else {
                self.deferred
                    .get_or_insert(CoreError::InvalidService(format!(
                        "shard {shard_idx} released windows under epoch {epoch} \
                     with no installed charge schedule"
                    )));
                i = j;
                continue;
            };
            for &(dense, pid, eps) in charges {
                let Some(ledger) = self.ledgers.get_mut(dense as usize) else {
                    self.deferred
                        .get_or_insert(CoreError::InvalidService(format!(
                            "epoch {epoch} charges dense subject index {dense} \
                             which has no budget ledger"
                        )));
                    continue;
                };
                if let Err(e) = ledger.charge_releases(pid, epoch, eps, j - i) {
                    self.deferred.get_or_insert(CoreError::Dp(e));
                }
            }
            let Some(query_charges) = self.query_charges_by_epoch.get(epoch as usize) else {
                self.deferred
                    .get_or_insert(CoreError::InvalidService(format!(
                        "epoch {epoch} released windows with no installed query charge schedule"
                    )));
                i = j;
                continue;
            };
            for &(query, eps) in query_charges {
                if let Err(e) = self.query_ledger.charge_releases(query, epoch, eps, j - i) {
                    self.deferred.get_or_insert(CoreError::Dp(e));
                }
            }
            i = j;
        }
        for release in releases.drain(..) {
            self.merge.observe(&release);
            sink.shard_release(ShardRelease {
                shard: shard_idx,
                release,
            });
        }
    }

    /// The global low watermark: the minimum of the shard buffers'
    /// watermarks, or `None` until every shard that can receive events has
    /// observed stream time. Shards with no registered subjects can never
    /// receive events and are excluded (they are advanced *by* the global
    /// watermark instead of contributing to it); a service with no
    /// subjects at all has no watermark.
    ///
    /// Read from the routing-time clock mirrors, so it is exact even
    /// while a call's round is still being built: the mirror tracks the
    /// max timestamp ever routed to (or heartbeat at) each shard, which
    /// is precisely the reorder buffer's clock (late arrivals below the
    /// watermark never raise it).
    pub fn low_watermark(&self) -> Option<Timestamp> {
        // a pure fold over the mirrors (no scratch): `None` when no shard
        // has subjects, or when any subject-bearing shard has not yet
        // observed stream time; the minimum watermark otherwise
        let mut low: Option<Timestamp> = None;
        let mut any_active = false;
        for m in self.meta.iter().filter(|m| m.n_subjects > 0) {
            any_active = true;
            let wm = m.watermark(self.max_delay)?;
            low = Some(match low {
                Some(l) if l <= wm => l,
                _ => wm,
            });
        }
        if any_active {
            low
        } else {
            None
        }
    }

    fn ensure_live(&self) -> Result<(), CoreError> {
        if self.finished {
            return Err(CoreError::InvalidService(
                "the service has been finished; no further ingestion".into(),
            ));
        }
        Ok(())
    }

    /// Number of partitions.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// True when ingestion runs on the persistent worker pool. The mode
    /// is chosen **once at build time** (multi-shard and multi-core) and
    /// recorded on the service — `Clone` copies it instead of re-deriving
    /// host parallelism, so benches and tests can assert which path
    /// actually ran; see [`ShardedService::set_parallel`].
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Override the execution mode: `true` spawns the persistent
    /// per-shard worker pool (even on a single-core host — an explicit
    /// override), `false` tears it down and runs shards inline at fold
    /// time. Both modes are bit-for-bit identical (shard state never
    /// moves; jobs fold back in shard order either way), so this only
    /// trades thread fan-out against channel overhead. A 1-shard service
    /// always runs inline.
    ///
    /// Calling `set_parallel(true)` on a service the supervisor demoted
    /// (see [`ShardedService::health`]) is an explicit *re-promotion*: it
    /// clears the degraded flag and resets the per-shard heal budgets, so
    /// the supervisor starts healing from a clean slate again.
    pub fn set_parallel(&mut self, parallel: bool) {
        if !parallel {
            self.workers.clear();
            self.parallel = false;
        } else if self.shards.len() > 1 {
            if self.workers.is_empty() {
                self.workers = self
                    .shards
                    .iter()
                    .map(|shard| WorkerHandle::spawn(shard.clone()))
                    .collect();
            }
            self.parallel = true;
            self.degraded = false;
            self.heals.iter_mut().for_each(|h| *h = 0);
        }
    }

    /// The *active* (non-retired) subjects, in id order.
    pub fn subjects(&self) -> Vec<SubjectId> {
        let mut ids: Vec<SubjectId> = self.routes.iter().map(|(subject, _)| subject).collect();
        ids.sort_unstable();
        ids
    }

    /// The shard an active subject's events are routed to; `None` for
    /// unknown or retired subjects.
    pub fn subject_shard(&self, subject: SubjectId) -> Option<usize> {
        self.routes.lookup(subject).map(|shard| shard as usize)
    }

    /// Budget spent so far *for one subject* on one of their patterns
    /// (sequential composition across their shard's releases, summed over
    /// epochs — spend of revoked patterns and retired subjects stays on
    /// the books).
    ///
    /// Unknown keys are explicit: `None` when `subject` never had a
    /// ledger, or when `pattern` was never a charged pattern of theirs —
    /// never a silent zero. `Some(Epsilon::ZERO)` means "registered,
    /// nothing spent yet". The spend includes every release of every
    /// call already returned.
    pub fn budget_spent(&self, subject: SubjectId, pattern: PatternId) -> Option<Epsilon> {
        let dense = self.control.dense_index(subject)?;
        self.ledgers.get(dense as usize)?.try_spent(&pattern)
    }

    /// Budget `subject` spent on `pattern` inside one epoch (`None` under
    /// the same unknown-key rules as [`ShardedService::budget_spent`]).
    pub fn budget_spent_in_epoch(
        &self,
        subject: SubjectId,
        pattern: PatternId,
        epoch: u64,
    ) -> Option<Epsilon> {
        let dense = self.control.dense_index(subject)?;
        self.ledgers
            .get(dense as usize)?
            .spent_in_epoch(&pattern, epoch)
    }

    /// Total events accepted by `push_batch` so far (dropped ones
    /// included — they were ingested, then discarded as too late).
    pub fn events_ingested(&self) -> u64 {
        self.events_ingested
    }

    /// Events that arrived later than the bounded delay and were dropped,
    /// summed over shards.
    pub fn dropped(&self) -> u64 {
        self.meta.iter().map(|m| m.dropped).sum()
    }

    /// Windows released so far, per shard.
    pub fn releases_per_shard(&self) -> Vec<usize> {
        self.meta.iter().map(|m| m.released).collect()
    }

    /// The consumer queries of the epoch currently in force on the shard
    /// engines, as `(stable id, name)` pairs (a staged transition takes
    /// over at its activation window). Names are ambiguous after
    /// revocation and re-registration; the id is the stable consumer
    /// handle — key reads with [`MergedRelease::answer_for`] or sink
    /// subscriptions, not positions. The in-force epoch is the latest
    /// activation whose boundary the release frontier has passed.
    pub fn query_names(&self) -> Vec<(QueryId, &str)> {
        let released = self.meta[0].released;
        let epoch = self
            .activations
            .iter()
            .filter(|(at, _)| *at < released)
            .map(|(_, epoch)| *epoch)
            .next_back()
            .unwrap_or(0);
        self.cores_by_epoch[epoch as usize]
            .queries()
            .iter()
            .map(|q| (q.id, q.name.as_str()))
            .collect()
    }

    /// Dedicated budget one non-boolean consumer query (argmax) spent so
    /// far across every shard release, summed over epochs. Unknown keys
    /// are explicit: `None` when `query` never carried a dedicated
    /// budget; `Some(Epsilon::ZERO)` means "registered, nothing spent
    /// yet".
    pub fn query_budget_spent(&self, query: QueryId) -> Option<Epsilon> {
        self.query_ledger.try_spent(&query)
    }

    /// Events sitting in reorder buffers, not yet past the watermark.
    pub fn buffered(&self) -> usize {
        self.meta.iter().map(|m| m.buffered).sum()
    }
}

/// The splitmix64 finalizer: the service's stable hash for shard routing
/// and seed derivation (also reused by [`crate::supervision`] to derive
/// seeded fault plans).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_stream::EventType;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn e(ty: u32, ms: i64) -> Event {
        Event::new(t(ty), Timestamp::from_millis(ms))
    }

    fn ke(subject: u64, ty: u32, ms: i64) -> KeyedEvent {
        KeyedEvent::new(SubjectId(subject), e(ty, ms))
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn config(n_shards: usize) -> ServiceConfig {
        ServiceConfig {
            n_shards,
            n_types: 4,
            alpha: Alpha::HALF,
            ppm: PpmKind::Uniform { eps: eps(1.0) },
            streaming: StreamingConfig::tumbling(TimeDelta::from_millis(10)),
            max_delay: TimeDelta::from_millis(5),
            seed: 7,
            history_window: 16,
        }
    }

    fn builder(n_shards: usize) -> ServiceBuilder {
        let mut b = ServiceBuilder::new(config(n_shards)).unwrap();
        b.register_private_pattern(SubjectId(1), Pattern::seq("p1", vec![t(0), t(1)]).unwrap());
        b.register_private_pattern(SubjectId(2), Pattern::single("p2", t(3)));
        b.register_subject(SubjectId(3));
        b.register_target_query("t2?", Pattern::single("t2", t(2)));
        b
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(matches!(
            ServiceBuilder::new(config(0)),
            Err(CoreError::InvalidService(_))
        ));
    }

    #[test]
    fn rng_count_must_match_shards() {
        let b = builder(2);
        assert!(matches!(
            b.build_with_rngs(vec![DpRng::seed_from(1)]),
            Err(CoreError::InvalidService(_))
        ));
    }

    #[test]
    fn single_shard_never_spawns_workers() {
        let mut svc = builder(1).build().unwrap();
        assert!(!svc.is_parallel());
        svc.set_parallel(true);
        assert!(!svc.is_parallel(), "1-shard services always run inline");
    }

    #[test]
    fn multi_shard_build_is_parallel_exactly_on_multi_core_hosts() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let svc = builder(4).build().unwrap();
        assert_eq!(
            svc.is_parallel(),
            cores > 1,
            "a 4-shard service on {cores} core(s) chose the wrong execution mode"
        );
    }

    #[test]
    fn parallel_workers_match_inline_bit_for_bit() {
        // the same batches through the worker pool and the inline path
        // must produce identical releases, merges and ledgers
        let batches: Vec<Vec<KeyedEvent>> = vec![
            vec![ke(1, 0, 5), ke(2, 3, 6), ke(3, 2, 7)],
            vec![ke(1, 1, 30), ke(3, 2, 31)],
            vec![ke(2, 3, 64), ke(1, 0, 66)],
        ];
        let mut parallel = builder(3).build().unwrap();
        parallel.set_parallel(true);
        assert!(parallel.is_parallel());
        let mut inline = builder(3).build().unwrap();
        inline.set_parallel(false);
        assert!(!inline.is_parallel());
        let mut delivered = 0;
        for batch in &batches {
            let a = parallel.push_batch(batch.clone()).unwrap();
            let b = inline.push_batch(batch.clone()).unwrap();
            delivered += a.shard_releases.len();
            assert_eq!(a, b);
        }
        assert!(delivered > 0, "the pushes compared at least one release");
        let a = parallel
            .advance_watermark(Timestamp::from_millis(90))
            .unwrap();
        let b = inline
            .advance_watermark(Timestamp::from_millis(90))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(parallel.finish().unwrap(), inline.finish().unwrap());
        for subject in inline.subjects() {
            for pid in 0..3u32 {
                assert_eq!(
                    parallel.budget_spent(subject, pdp_cep::PatternId(pid)),
                    inline.budget_spent(subject, pdp_cep::PatternId(pid)),
                );
            }
        }
    }

    /// The push whose batch moves the low watermark past a window's end
    /// delivers that window — every shard's release, its answer records
    /// and the merged row — into its own sink, inline and on workers.
    #[test]
    fn the_push_that_closes_a_window_delivers_it() {
        for (n_shards, parallel) in [(1, false), (3, true)] {
            let mut svc = builder(n_shards).build().unwrap();
            svc.set_parallel(parallel);
            assert_eq!(svc.is_parallel(), parallel);
            // every subject reports inside window 0: nothing closes
            let mut sink = VecSink::all();
            svc.push_batch_into(vec![ke(1, 0, 2), ke(2, 3, 4), ke(3, 2, 6)], &mut sink)
                .unwrap();
            assert!(sink.shard_releases.is_empty() && sink.merged.is_empty());
            // every subject reaches 16 ms: the low watermark (11 ms)
            // passes window 0's end (10 ms)
            let mut sink = VecSink::all();
            svc.push_batch_into(vec![ke(1, 1, 16), ke(2, 3, 16), ke(3, 2, 16)], &mut sink)
                .unwrap();
            let released: Vec<(usize, usize)> = sink
                .shard_releases
                .iter()
                .map(|sr| (sr.shard, sr.release.index))
                .collect();
            let want: Vec<(usize, usize)> = (0..n_shards).map(|s| (s, 0)).collect();
            assert_eq!(released, want, "{n_shards} shard(s)");
            let merged: Vec<usize> = sink.merged.iter().map(|m| m.index).collect();
            assert_eq!(merged, vec![0], "{n_shards} shard(s)");
            let answered: Vec<(QueryId, usize)> =
                sink.answers.iter().map(|a| (a.query, a.window)).collect();
            assert_eq!(answered, vec![(QueryId(0), 0)], "{n_shards} shard(s)");
        }
    }

    #[test]
    fn unknown_subjects_are_rejected() {
        let mut svc = builder(2).build().unwrap();
        let err = svc.push_batch(vec![ke(99, 0, 1)]).unwrap_err();
        assert!(matches!(err, CoreError::UnknownSubject(99)));
    }

    #[test]
    fn rejected_batches_leave_the_service_untouched() {
        // an unknown subject *after* events that would close windows must
        // not half-apply the batch: no ingestion, no releases, no spend
        let mut svc = builder(1).build().unwrap();
        let poisoned = vec![ke(1, 0, 1), ke(1, 1, 500), ke(99, 0, 501)];
        assert!(matches!(
            svc.push_batch(poisoned.clone()),
            Err(CoreError::UnknownSubject(99))
        ));
        assert_eq!(svc.events_ingested(), 0);
        assert_eq!(svc.buffered(), 0);
        assert_eq!(svc.releases_per_shard(), vec![0]);
        // the same batch without the poison pill applies normally (the
        // watermark it sets stays inside window 0, so finish closes it)
        svc.push_batch(poisoned[..2].to_vec()).unwrap();
        let out = svc.finish().unwrap();
        assert!(!out.shard_releases.is_empty());
        assert_eq!(svc.events_ingested(), 2);
    }

    #[test]
    fn dead_worker_surfaces_which_shard_died() {
        let mut svc = builder(2).build().unwrap();
        svc.set_parallel(true); // force workers even on a 1-core host
        assert!(svc.is_parallel());
        // unsupervised: a scripted kill still fails fast with a typed error
        svc.inject_faults(FaultPlan::new().kill_worker(1, 1));
        let err = svc.push_batch(vec![ke(1, 0, 5), ke(2, 3, 6)]).unwrap_err();
        assert_eq!(err, CoreError::ShardWorker { shard: 1 });
        assert_eq!(svc.faults_remaining(), 0);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let svc = builder(4).build().unwrap();
        for subject in svc.subjects() {
            let s = svc.subject_shard(subject).unwrap();
            assert_eq!(s, ShardedService::shard_for(subject, 4));
            assert!(s < 4);
        }
        assert_eq!(
            svc.subjects(),
            vec![SubjectId(1), SubjectId(2), SubjectId(3)]
        );
    }

    #[test]
    fn shard_seed_keeps_base_for_shard_zero() {
        assert_eq!(ShardedService::shard_seed(42, 0), 42);
        assert_ne!(ShardedService::shard_seed(42, 1), 42);
        assert_ne!(
            ShardedService::shard_seed(42, 1),
            ShardedService::shard_seed(42, 2)
        );
    }

    #[test]
    fn late_events_are_dropped_and_counted() {
        let mut svc = builder(1).build().unwrap();
        svc.push_batch(vec![ke(1, 0, 100)]).unwrap(); // watermark 95
        svc.push_batch(vec![ke(1, 1, 50)]).unwrap(); // too late
        assert_eq!(svc.dropped(), 1);
        assert_eq!(svc.events_ingested(), 2);
    }

    #[test]
    fn quiet_shards_release_via_global_watermark() {
        // subjects 1 and 2 land on different shards of a 4-way service,
        // leaving at least one shard with no subjects at all
        let svc = builder(4).build().unwrap();
        let s1 = svc.subject_shard(SubjectId(1)).unwrap();
        let s2 = svc.subject_shard(SubjectId(2)).unwrap();
        assert_ne!(s1, s2, "fixture subjects must split across shards");

        let mut svc = builder(4).build().unwrap();
        // only subject 1 reports: subject 2's shard is quiet and holds the
        // global watermark back (subjectless shards never do — they can
        // never receive events)
        svc.push_batch(vec![ke(1, 0, 100)]).unwrap();
        assert_eq!(svc.low_watermark(), None, "quiet tenant shard holds it");
        // a heartbeat covers the quiet shard, and *every* shard releases
        let out = svc.advance_watermark(Timestamp::from_millis(100)).unwrap();
        assert_eq!(svc.low_watermark(), Some(Timestamp::from_millis(95)));
        // windows 0..=8 closed on *every* shard (95ms watermark, 10ms windows)
        assert_eq!(out.merged.len(), 9);
        let per_shard = svc.releases_per_shard();
        assert!(per_shard.iter().all(|&r| r == 9), "{per_shard:?}");
    }

    #[test]
    fn merged_answers_are_disjunctions() {
        let mut svc = builder(2).build().unwrap();
        // subject 3 emits the target type 2; nothing flips it (uniform PPM
        // touches only private-pattern types 0, 1, 3)
        svc.push_batch(vec![ke(3, 2, 5)]).unwrap();
        let out = svc.advance_watermark(Timestamp::from_millis(40)).unwrap();
        assert!(!out.merged.is_empty());
        let w0 = &out.merged[0];
        assert_eq!(w0.index, 0);
        assert!(w0.answers_any[0], "target type present in population");
        assert_eq!(w0.positive_shards[0], 1, "exactly one shard saw it");
        // merged rows arrive in index order
        for (k, m) in out.merged.iter().enumerate() {
            assert_eq!(m.index, k);
        }
    }

    #[test]
    fn batch_releases_group_by_shard_in_order() {
        let mut svc = builder(2).build().unwrap();
        svc.push_batch(vec![ke(1, 0, 5), ke(2, 3, 5), ke(3, 2, 5)])
            .unwrap();
        let out = svc.advance_watermark(Timestamp::from_millis(60)).unwrap();
        let shards: Vec<usize> = out.shard_releases.iter().map(|sr| sr.shard).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted, "shard-major ordering: {shards:?}");
        // within a shard, indexes ascend
        for shard in 0..svc.n_shards() {
            let idx: Vec<usize> = out
                .shard_releases
                .iter()
                .filter(|sr| sr.shard == shard)
                .map(|sr| sr.release.index)
                .collect();
            let mut want = idx.clone();
            want.sort_unstable();
            assert_eq!(idx, want);
        }
    }

    #[test]
    fn per_subject_ledgers_charge_only_their_patterns() {
        let mut b = ServiceBuilder::new(config(1)).unwrap();
        let p1 =
            b.register_private_pattern(SubjectId(1), Pattern::seq("p1", vec![t(0), t(1)]).unwrap());
        let p2 = b.register_private_pattern(SubjectId(2), Pattern::single("p2", t(3)));
        b.register_target_query("t2?", Pattern::single("t2", t(2)));
        let mut svc = b.build().unwrap();
        svc.push_batch(vec![ke(1, 0, 5)]).unwrap();
        let out = svc.advance_watermark(Timestamp::from_millis(35)).unwrap();
        let released: usize = out.merged.len();
        assert!(released >= 3);
        // both subjects sit on the single shard: each release charges each
        // subject their own pattern's full ε = 1.0 — and never the other's
        let spent1 = svc.budget_spent(SubjectId(1), p1).unwrap().value();
        let spent2 = svc.budget_spent(SubjectId(2), p2).unwrap().value();
        assert!((spent1 - released as f64).abs() < 1e-12, "{spent1}");
        assert!((spent2 - released as f64).abs() < 1e-12, "{spent2}");
        // the other tenant's pattern is an *unknown key* for this ledger,
        // not a silent zero
        assert_eq!(svc.budget_spent(SubjectId(1), p2), None);
        assert_eq!(svc.budget_spent(SubjectId(2), p1), None);
        // an unknown subject is unknown too
        assert_eq!(svc.budget_spent(SubjectId(99), p1), None);
    }

    #[test]
    fn finish_drains_buffers_and_seals_the_service() {
        let mut svc = builder(1).build().unwrap();
        svc.push_batch(vec![ke(1, 0, 3), ke(1, 1, 4)]).unwrap();
        assert!(svc.buffered() > 0, "events await the watermark");
        let out = svc.finish().unwrap();
        assert_eq!(svc.buffered(), 0);
        assert_eq!(out.merged.len(), 1, "open window closed at finish");
        assert!(matches!(
            svc.push_batch(vec![ke(1, 0, 50)]),
            Err(CoreError::InvalidService(_))
        ));
        assert!(matches!(svc.finish(), Err(CoreError::InvalidService(_))));
    }

    #[test]
    fn begin_epoch_without_staged_commands_is_none() {
        let mut svc = builder(2).build().unwrap();
        assert!(svc.begin_epoch().unwrap().is_none());
        assert_eq!(svc.epoch(), 0);
    }

    #[test]
    fn new_subject_becomes_routable_at_the_next_epoch() {
        let mut svc = builder(2).build().unwrap();
        // staged but not yet active: events still rejected
        svc.register_subject(SubjectId(9));
        assert!(matches!(
            svc.push_batch(vec![ke(9, 0, 1)]),
            Err(CoreError::UnknownSubject(9))
        ));
        let transition = svc.begin_epoch().unwrap().expect("staged");
        assert_eq!(transition.plan.epoch, 1);
        assert_eq!(transition.activation_index, 0, "nothing released yet");
        svc.push_batch(vec![ke(9, 0, 1)]).unwrap();
        assert!(svc.subject_shard(SubjectId(9)).is_some());
    }

    #[test]
    fn retired_subjects_are_rejected_and_spend_freezes() {
        let mut svc = builder(1).build().unwrap();
        svc.push_batch(vec![ke(2, 3, 5)]).unwrap();
        let out = svc.advance_watermark(Timestamp::from_millis(40)).unwrap();
        let released_before = out.merged.len();
        assert!(released_before > 0);
        let p2 = pdp_cep::PatternId(1); // subject 2's single-type pattern
        let spent_before = svc.budget_spent(SubjectId(2), p2).unwrap();
        assert!(spent_before.value() > 0.0);

        svc.retire_subject(SubjectId(2)).unwrap();
        svc.begin_epoch().unwrap().expect("staged");
        assert!(svc.subject_shard(SubjectId(2)).is_none());
        assert!(matches!(
            svc.push_batch(vec![ke(2, 3, 50)]),
            Err(CoreError::UnknownSubject(2))
        ));
        // further releases charge subject 2 nothing; spend stays queryable
        svc.advance_watermark(Timestamp::from_millis(100)).unwrap();
        assert_eq!(svc.budget_spent(SubjectId(2), p2), Some(spent_before));
        assert!(!svc.subjects().contains(&SubjectId(2)));
    }

    #[test]
    fn query_churn_changes_answer_shape_at_the_boundary() {
        let mut svc = builder(1).build().unwrap();
        svc.push_batch(vec![ke(3, 2, 5)]).unwrap();
        let out = svc.advance_watermark(Timestamp::from_millis(25)).unwrap();
        assert!(out.merged.iter().all(|m| m.answers_any.len() == 1));
        assert_eq!(svc.query_names(), vec![(QueryId(0), "t2?")]);

        let (q1, _) = svc.add_consumer_query("t3?", Pattern::single("t3", t(3)));
        let transition = svc.begin_epoch().unwrap().expect("staged");
        let boundary = transition.activation_index;
        let out = svc.advance_watermark(Timestamp::from_millis(65)).unwrap();
        for m in &out.merged {
            let expect = if m.index < boundary { 1 } else { 2 };
            assert_eq!(m.answers_any.len(), expect, "window {}", m.index);
            assert_eq!(m.epoch, u64::from(m.index >= boundary));
        }
        // and the new query can be removed again
        svc.remove_consumer_query(q1).unwrap();
        svc.begin_epoch().unwrap().expect("staged");
        let out = svc.finish().unwrap();
        assert!(out
            .merged
            .iter()
            .all(|m| m.epoch != 2 || m.answers_any.len() == 1));
    }

    #[test]
    fn shutdown_equals_finish_plus_wal_fsync() {
        // shutdown on an open service delivers exactly what finish would
        let mut reference = builder(2).build().unwrap();
        let batch = vec![ke(1, 0, 2), ke(2, 3, 5), ke(3, 2, 12)];
        reference.push_batch(batch.clone()).unwrap();
        let finished = reference.finish().unwrap();

        let dir = std::env::temp_dir().join(format!("pdp_shutdown_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("shutdown.wal");
        let mut svc = builder(2).build().unwrap();
        svc.attach_wal(WalWriter::create(&wal_path).unwrap());
        svc.push_batch(batch).unwrap();
        let closed = svc.shutdown().unwrap();
        assert_eq!(closed, finished, "shutdown delivers what finish would");
        // sealed: further ingestion is rejected, a second shutdown is fine
        assert!(svc.push_batch(vec![ke(1, 0, 40)]).is_err());
        let again = svc.shutdown().unwrap();
        assert!(again.merged.is_empty() && again.shard_releases.is_empty());
        // the log survived the fsync barrier and ends with Finish
        let wal = svc.detach_wal().unwrap();
        drop(wal);
        let records = crate::durability::read_wal_from(&wal_path, 0).unwrap();
        assert!(matches!(records.last(), Some(WalRecord::Finish)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint whose `wal_offset` lies past the end of the log (the
    /// image survived a power loss the WAL tail did not) must be refused:
    /// recovering from it would reopen the log below the offset, and every
    /// record appended afterwards would be skipped by the next recovery.
    #[test]
    fn recovery_refuses_a_log_that_ends_before_the_checkpoint() {
        let dir = std::env::temp_dir().join(format!("pdp_wal_behind_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("behind.wal");
        let mut svc = builder(2).build().unwrap();
        svc.attach_wal(WalWriter::create(&wal_path).unwrap());
        svc.push_batch(vec![ke(1, 0, 2)]).unwrap();
        let durable = svc.wal_offset().unwrap();
        svc.push_batch(vec![ke(2, 3, 5)]).unwrap();
        let (image, _) = svc.checkpoint().unwrap();
        assert!(image.wal_offset > durable);
        drop(svc);
        // the power loss keeps the image but drops the log's second batch
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        file.set_len(durable).unwrap();
        drop(file);
        let Err(err) =
            ShardedService::recover_into(config(2), image, &wal_path, &mut VecSink::all())
        else {
            panic!("a log behind the checkpoint is refused");
        };
        assert!(matches!(err, CoreError::Durability(ref m) if m.contains("before the checkpoint")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_after_finish_is_a_noop_drain() {
        let mut svc = builder(1).build().unwrap();
        svc.push_batch(vec![ke(1, 0, 2)]).unwrap();
        let finished = svc.finish().unwrap();
        assert!(!finished.merged.is_empty());
        let closed = svc.shutdown().unwrap();
        assert!(closed.merged.is_empty(), "everything was already delivered");
    }

    #[test]
    fn merged_releases_carry_the_population_union() {
        let mut svc = builder(2).build().unwrap();
        svc.push_batch(vec![ke(1, 0, 2), ke(2, 3, 5), ke(3, 2, 5)])
            .unwrap();
        let out = svc.advance_watermark(Timestamp::from_millis(25)).unwrap();
        let w0 = &out.merged[0];
        // every shard's protected bits OR into the population view; the
        // uniform PPM only ever flips private types (0, 1, 3), so type 2
        // is reported exactly
        assert!(w0.protected_any.get(t(2)));
        let per_shard_union = out
            .shard_releases
            .iter()
            .filter(|sr| sr.release.index == 0)
            .fold(pdp_stream::IndicatorVector::empty(4), |mut acc, sr| {
                acc.union_with(&sr.release.protected);
                acc
            });
        assert_eq!(w0.protected_any, per_shard_union);
    }

    #[test]
    fn engine_error_inside_a_sub_batch_is_deferred_with_the_whole_sub_batch_offered() {
        let mut svc = builder(1).build().unwrap();
        let pool = svc.spare.len();
        // put the engine ahead of the stream, so its next push fails
        {
            let mut guard = svc.shards[0].lock().unwrap();
            let shard = &mut *guard;
            let ahead = Timestamp::from_millis(1_000);
            shard
                .engine
                .advance_watermark(ahead, &mut shard.rng)
                .unwrap();
        }
        // 500 puts the watermark at 495: 10 and 20 are released to the
        // engine (which refuses the first), 500 itself stays pending; the
        // push that caused the failure is the one that reports it
        assert!(matches!(
            svc.push_batch(vec![ke(1, 0, 10), ke(1, 1, 20), ke(1, 2, 500)]),
            Err(CoreError::Detection(_))
        ));
        let shard = svc.shards[0].lock().unwrap();
        assert!(shard.ready.is_empty(), "unfed releases are discarded");
        assert_eq!(
            shard.buffer.pending(),
            1,
            "the event after the failure was offered"
        );
        assert_eq!(svc.spare.len(), pool, "the sub-batch buffer was recycled");
    }

    #[test]
    fn out_of_order_within_delay_is_reordered() {
        let mut svc = builder(1).build().unwrap();
        // 4 arrives after 7 but within the 5ms bound → reordered, not lost
        svc.push_batch(vec![ke(1, 0, 7), ke(1, 1, 4), ke(1, 2, 9)])
            .unwrap();
        let out = svc.finish().unwrap();
        assert_eq!(svc.dropped(), 0);
        assert_eq!(out.merged.len(), 1);
        let release = &out.shard_releases.last().unwrap().release;
        // all three types present in window 0 — the late event made it in
        assert!(release.protected.get(t(2)));
        // one detection flag per registered pattern (p1, p2, the target),
        // sealed behind the trusted boundary
        assert_eq!(release.audit().len(), 3);
    }
}
