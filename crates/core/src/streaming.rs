//! The push-based streaming service layer (§III, Fig. 1–2).
//!
//! The paper's model is an *unbounded* stream: data subjects emit events
//! continuously, the trusted engine maintains the open window, and every
//! window close is a **release** — the only moment protected information
//! leaves the engine. [`StreamingEngine`] implements exactly that loop:
//!
//! 1. events arrive one at a time ([`StreamingEngine::push`]); the engine
//!    drives an [`IncrementalDetector`] for raw per-pattern detections and
//!    maintains the open window's indicator vector;
//! 2. when an event (or a watermark heartbeat,
//!    [`StreamingEngine::advance_watermark`]) moves time past the open
//!    window, every closed window is released: the [`FlipTable`] randomized
//!    response perturbs the private bits, the budget ledger records each
//!    protected pattern's spend for that release, and every registered
//!    consumer query is answered from the *protected* view only;
//! 3. the typed answers (keyed by stable query id) and the protected
//!    indicator vector come back as [`WindowRelease`]s for downstream
//!    consumers; the raw detections ride along **sealed** in a
//!    [`TrustedAudit`] only quality metering can open.
//!
//! [`OnlineCore`] is the **single protection + accounting code path**: the
//! batch [`crate::engine::TrustedEngine`] service methods are
//! thin adapters that replay a windowed history through the same
//! [`OnlineCore::release_window`], so batch and streaming are equivalent by
//! construction (and verified equivalent under a seeded
//! [`DpRng`] in the test suite).
//!
//! # Allocation contract
//!
//! The drain-style entry points ([`StreamingEngine::push_into`],
//! [`StreamingEngine::advance_watermark_into`]) are the per-event hot
//! path of the sharded service above this layer, and they uphold a
//! strict contract: **an event (or heartbeat) that closes no window
//! performs no heap allocation.** Closed-window rows land in a
//! persistent `closed_scratch` buffer that is drained and handed back on
//! every call, and releases append into the *caller's* reused buffer —
//! the only allocating work left is building the released window's
//! protected view, which happens exactly once per window close, never
//! per event. The sharded service's CI-gated zero-allocation ingest
//! measurement (the `zero_alloc` test under a counting global allocator)
//! bottoms out in this contract.
//!
//! [`FlipTable`]: crate::protect::FlipTable

use std::collections::VecDeque;
use std::sync::Arc;

use pdp_cep::{
    ClosedWindow, IncrementalDetector, PatternId, PatternSet, PreparedPatternSwap, QueryId,
    Semantics,
};
use pdp_dp::{BudgetLedger, DpRng, Epsilon};
use pdp_metrics::TrustedAudit;
use pdp_stream::{Event, IndicatorVector, TimeDelta, Timestamp};

use crate::answer::{Answer, CompiledQuery, QuerySpec, QueryStateSet};
use crate::engine::TrustedEngine;
use crate::error::CoreError;
use crate::protect::ProtectionPipeline;

/// One registered consumer query, carried by the compiled core with its
/// **stable** [`QueryId`]: under the dynamic control plane queries can be
/// removed and later windows answer a different (sub)set, so a release's
/// `answers[i]` is identified by `queries()[i].id`, never by position
/// alone.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRef {
    /// The stable id assigned at registration.
    pub id: QueryId,
    /// Display name.
    pub name: String,
    /// What the query asks (pattern detection or a §VII extension form).
    pub spec: QuerySpec,
}

impl QueryRef {
    /// Shorthand for the base form: "is `pattern` detected?".
    pub fn pattern(id: QueryId, name: impl Into<String>, pattern: PatternId) -> Self {
        QueryRef {
            id,
            name: name.into(),
            spec: QuerySpec::Pattern { pattern },
        }
    }
}

/// The shared online release path: protection, accounting and query
/// answering for one closed window at a time.
///
/// Built by [`TrustedEngine::setup`](crate::engine::TrustedEngine::setup);
/// used directly by the batch adapters and via [`StreamingEngine`] by the
/// push path. Holds no per-stream state — window state lives in the caller
/// (open-window vectors for streaming, the input history for batch), and
/// the ledger is passed in so each service front keeps its own accounting.
#[derive(Debug, Clone)]
pub struct OnlineCore {
    /// The protection pipeline, which carries the word-parallel
    /// [`FlipPlan`](crate::protect::FlipPlan) compiled at construction
    /// and applied per release.
    pipeline: ProtectionPipeline,
    /// Cached `pipeline.budgets()`: the per-release spend, charged per
    /// closed window (sequential composition across releases).
    budgets: Vec<(PatternId, Epsilon)>,
    patterns: PatternSet,
    queries: Vec<QueryRef>,
    /// Per active query (aligned with `queries`): the compiled form —
    /// pattern references resolved to precompiled type masks, the argmax
    /// mechanism pre-built. Resolved once at compile so answering a
    /// release is branch-predictable work per query — no map lookups,
    /// string keys or panic paths on the boolean hot path.
    compiled: Vec<CompiledQuery>,
    /// The active [`QueryId`]s in answer order, shared — every release
    /// of this epoch carries the same list, so it is built once here and
    /// reference-counted into [`WindowRelease::query_ids`].
    query_ids: Arc<[QueryId]>,
    /// The control-plane epoch this core was compiled for (0 for the
    /// static setup-phase build).
    epoch: u64,
}

impl OnlineCore {
    /// The static (setup-phase) form: queries receive dense [`QueryId`]s
    /// in registration order, epoch 0.
    pub(crate) fn new(
        pipeline: ProtectionPipeline,
        patterns: PatternSet,
        queries: Vec<(String, PatternId)>,
    ) -> Result<Self, CoreError> {
        let queries = queries
            .into_iter()
            .enumerate()
            .map(|(i, (name, pattern))| QueryRef::pattern(QueryId(i as u32), name, pattern))
            .collect();
        Self::with_queries(pipeline, patterns, queries, 0)
    }

    /// The dynamic form: the control plane compiles one core per epoch,
    /// with stable query ids carried through churn.
    pub(crate) fn with_queries(
        pipeline: ProtectionPipeline,
        patterns: PatternSet,
        queries: Vec<QueryRef>,
        epoch: u64,
    ) -> Result<Self, CoreError> {
        let budgets = pipeline.budgets();
        let n_types = pipeline.flip_table().width();
        // resolve query → pattern references once, at compile: a dangling
        // reference is a registration bug and is rejected here instead of
        // panicking per release
        let compiled = queries
            .iter()
            .map(|q| CompiledQuery::compile(&q.spec, &patterns, n_types))
            .collect::<Result<Vec<_>, _>>()?;
        let query_ids: Arc<[QueryId]> = queries.iter().map(|q| q.id).collect();
        Ok(OnlineCore {
            pipeline,
            budgets,
            patterns,
            queries,
            compiled,
            query_ids,
            epoch,
        })
    }

    /// The protection pipeline in force.
    pub fn pipeline(&self) -> &ProtectionPipeline {
        &self.pipeline
    }

    /// The registered pattern set (private + target).
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The active consumer queries; a release's `answers[i]` belongs to
    /// `queries()[i].id`.
    pub fn queries(&self) -> &[QueryRef] {
        &self.queries
    }

    /// The active [`QueryId`]s in answer order (shared, cheap to clone).
    pub fn query_ids(&self) -> Arc<[QueryId]> {
        Arc::clone(&self.query_ids)
    }

    /// The control-plane epoch this core was compiled for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Release one closed window **in place**: apply the precompiled flip
    /// plan to the private bits of `window` and charge every protected
    /// pattern's budget to `ledger`. Zero-allocation — the caller's
    /// vector becomes the protected view.
    ///
    /// This is the **only** place protected views are produced and budget
    /// is spent — both the batch and the streaming service fronts funnel
    /// every window through here.
    pub fn release_window_in_place(
        &self,
        window: &mut IndicatorVector,
        ledger: &mut BudgetLedger<PatternId>,
        rng: &mut DpRng,
    ) -> Result<(), CoreError> {
        let width = self.pipeline.flip_table().width();
        if window.n_types() != width {
            return Err(CoreError::WidthMismatch {
                expected: width,
                got: window.n_types(),
            });
        }
        for &(id, eps) in &self.budgets {
            ledger.spend(id, eps)?;
        }
        self.pipeline.plan().apply_window(window, rng);
        Ok(())
    }

    /// Release one closed window from a borrowed input (clones it first —
    /// the batch adapters replay borrowed histories; the streaming path
    /// owns its windows and uses
    /// [`OnlineCore::release_window_in_place`] directly).
    pub fn release_window(
        &self,
        window: &IndicatorVector,
        ledger: &mut BudgetLedger<PatternId>,
        rng: &mut DpRng,
    ) -> Result<IndicatorVector, CoreError> {
        let mut out = window.clone();
        self.release_window_in_place(&mut out, ledger, rng)?;
        Ok(out)
    }

    /// Answer every registered query on a protected window, in
    /// [`QueryId`] order, updating the serving front's trailing-window
    /// `state` and drawing from `rng` for argmax selections (the
    /// deterministic draw order: after the flip plan, active argmax
    /// queries in id order). Returns the typed answers plus the
    /// `(query, ε)` charges the argmax draws incurred — the caller books
    /// them in its query ledger.
    pub fn answer_window(
        &self,
        protected: &IndicatorVector,
        state: &mut QueryStateSet,
        rng: &mut DpRng,
    ) -> (Vec<Answer>, Vec<(QueryId, Epsilon)>) {
        let mut charges = Vec::new();
        let answers = self
            .queries
            .iter()
            .zip(&self.compiled)
            .map(|(q, compiled)| {
                if let Some(eps) = compiled.charge() {
                    charges.push((q.id, eps));
                }
                compiled.answer(protected, q.id, state, Some(rng))
            })
            .collect();
        (answers, charges)
    }

    /// The population-level (merged) typed answers for one fully merged
    /// window: boolean queries keep the fold of the per-shard answers
    /// (`answers_any[i]`), extension queries evaluate on the
    /// population-union protected view (`protected_any`) with the
    /// merge-level trailing state — post-processing of already-protected
    /// bits, so nothing is charged and no randomness is drawn (argmax
    /// takes the plain, deterministic argmax).
    pub fn answer_merged(
        &self,
        answers_any: &[bool],
        protected_any: &IndicatorVector,
        state: &mut QueryStateSet,
    ) -> Vec<(QueryId, Answer)> {
        debug_assert_eq!(answers_any.len(), self.queries.len());
        self.queries
            .iter()
            .zip(&self.compiled)
            .enumerate()
            .map(|(i, (q, compiled))| {
                let answer = match compiled {
                    CompiledQuery::Bool { .. } => Answer::Bool(answers_any[i]),
                    _ => compiled.answer(protected_any, q.id, state, None),
                };
                (q.id, answer)
            })
            .collect()
    }

    /// The per-release `(query, ε)` charge schedule of this epoch's
    /// non-boolean queries (argmax draws); empty when none are active.
    pub fn query_charges(&self) -> Vec<(QueryId, Epsilon)> {
        self.queries
            .iter()
            .zip(&self.compiled)
            .filter_map(|(q, c)| c.charge().map(|eps| (q.id, eps)))
            .collect()
    }

    /// Plain-data snapshot of the compiled core's inputs (pipeline,
    /// patterns, queries, epoch). Compiled queries and the flip plan are
    /// not captured; [`OnlineCore::restore`] recompiles them — compilation
    /// is deterministic, so the restored core is equivalent bit-for-bit.
    pub fn snapshot(&self) -> OnlineCoreSnapshot {
        OnlineCoreSnapshot {
            pipeline: self.pipeline.snapshot(),
            patterns: self.patterns.clone(),
            queries: self.queries.clone(),
            epoch: self.epoch,
        }
    }

    /// Rebuild a core from an [`OnlineCore::snapshot`].
    pub fn restore(snapshot: OnlineCoreSnapshot) -> Result<Self, CoreError> {
        let pipeline = ProtectionPipeline::restore(snapshot.pipeline)?;
        Self::with_queries(
            pipeline,
            snapshot.patterns,
            snapshot.queries,
            snapshot.epoch,
        )
    }
}

/// The exact state of an [`OnlineCore`], as plain data (see
/// [`OnlineCore::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineCoreSnapshot {
    /// The protection pipeline's snapshot.
    pub pipeline: crate::protect::PipelineSnapshot,
    /// The registered pattern set.
    pub patterns: PatternSet,
    /// The active consumer queries.
    pub queries: Vec<QueryRef>,
    /// The control-plane epoch the core was compiled for.
    pub epoch: u64,
}

/// Streaming-specific knobs on top of a set-up engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Tumbling window length (the release cadence).
    pub window_len: TimeDelta,
    /// Matching semantics for the raw detection side-channel.
    pub semantics: Semantics,
}

impl StreamingConfig {
    /// Tumbling windows of `window_len` with conjunction semantics (the
    /// indicator-level semantics the protected view is matched under).
    pub fn tumbling(window_len: TimeDelta) -> Self {
        StreamingConfig {
            window_len,
            semantics: Semantics::Conjunction,
        }
    }
}

/// One closed, protected, answered window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRelease {
    /// Sequential release index.
    pub index: usize,
    /// Start of the released window.
    pub start: Timestamp,
    /// The control-plane epoch whose compiled plan protected, charged and
    /// answered this window (0 until the first reconfiguration).
    pub epoch: u64,
    /// The raw (pre-protection) per-pattern detections, **sealed** behind
    /// the trusted boundary: no public field exposes them, and reading
    /// requires minting a [`pdp_metrics::AuditKey`] — the explicit,
    /// grep-able trusted-boundary crossing quality metering performs.
    audit: TrustedAudit,
    /// The protected indicator view — what consumers receive.
    pub protected: IndicatorVector,
    /// Per *active* query of the releasing epoch (in [`QueryId`] order):
    /// the typed answer computed on the protected view only.
    ///
    /// **Positional caution:** alignment is with the releasing epoch's
    /// [`OnlineCore::queries`] — after query churn, `answers[i]` of two
    /// different epochs can belong to different queries. Use
    /// [`WindowRelease::answer_for`] for id-keyed reads.
    pub answers: Vec<Answer>,
    /// The [`QueryId`]s `answers` is aligned with (the releasing epoch's
    /// active queries). Reference-counted: every release of one epoch
    /// shares the same list.
    pub query_ids: Arc<[QueryId]>,
}

impl WindowRelease {
    /// The sealed raw-detection view (quality metering opens it with an
    /// [`pdp_metrics::AuditKey`]).
    pub fn audit(&self) -> &TrustedAudit {
        &self.audit
    }

    /// Id-keyed answer lookup: the stable way to read a release across
    /// epoch churn. `None` when `query` was not active in this release's
    /// epoch.
    pub fn answer_for(&self, query: QueryId) -> Option<Answer> {
        let i = self.query_ids.iter().position(|&q| q == query)?;
        Some(self.answers[i].clone())
    }
}

/// The push-based trusted engine: consumes [`Event`]s, emits
/// [`WindowRelease`]s.
///
/// Construct with [`StreamingEngine::from_engine`] after completing the
/// setup phase on a [`TrustedEngine`]. The streaming engine keeps its own
/// budget ledger (it is a separate service front over the same protection
/// core).
#[derive(Debug, Clone)]
pub struct StreamingEngine {
    core: OnlineCore,
    ledger: BudgetLedger<PatternId>,
    /// Accounting of the non-boolean consumer queries' dedicated budgets
    /// (argmax draws), keyed by stable [`QueryId`].
    query_ledger: BudgetLedger<QueryId>,
    /// Trailing-window state of the stateful queries (count/argmax),
    /// keyed by stable [`QueryId`] so it survives epoch switches.
    query_state: QueryStateSet,
    detector: IncrementalDetector,
    n_types: usize,
    events_seen: usize,
    /// Reused buffer for the detector's closed windows: drained into
    /// releases on every push, so the per-event steady state performs no
    /// allocation.
    closed_scratch: Vec<ClosedWindow>,
    /// Epoch switches staged by activation window index: the front plan
    /// takes over for every release with index `>= at`. Ascending.
    pending_epochs: VecDeque<(usize, OnlineCore)>,
}

impl StreamingEngine {
    /// Go online: take the protection core of a set-up batch engine and
    /// start consuming events. Fails with [`CoreError::NotSetUp`] if
    /// `engine.setup()` has not completed.
    pub fn from_engine(engine: &TrustedEngine, config: StreamingConfig) -> Result<Self, CoreError> {
        let core = engine.online_core().ok_or(CoreError::NotSetUp)?.clone();
        Self::from_core(core, config)
    }

    /// Go online directly from a compiled [`OnlineCore`] — the form the
    /// control plane uses (epoch plans are compiled cores; there is no
    /// batch engine in the loop).
    pub fn from_core(core: OnlineCore, config: StreamingConfig) -> Result<Self, CoreError> {
        let n_types = core.pipeline().flip_table().width();
        let detector = IncrementalDetector::new(
            core.patterns().clone(),
            config.semantics,
            config.window_len,
            n_types,
        )
        .map_err(|e| CoreError::Detection(e.to_string()))?;
        Ok(StreamingEngine {
            core,
            ledger: BudgetLedger::unlimited(),
            query_ledger: BudgetLedger::unlimited(),
            query_state: QueryStateSet::new(),
            detector,
            n_types,
            events_seen: 0,
            closed_scratch: Vec::new(),
            pending_epochs: VecDeque::new(),
        })
    }

    /// Stage an epoch switch: `core` becomes the protection/answer plan
    /// for every window with release index `>= at_index`, no matter how
    /// pushes, heartbeats and gap windows interleave — all engines (and
    /// all shards of a service) given the same `(at_index, core)` switch
    /// on the same window, which is what keeps dynamic reconfiguration
    /// inside the bit-for-bit equivalence anchors.
    ///
    /// The new core must cover the same type universe and its pattern set
    /// must extend the current one (ids are stable; "removal" is
    /// deactivation in the plan, not deletion from the registry). Rejected
    /// if `at_index` precedes an already-released window or an
    /// already-staged switch.
    pub fn schedule_epoch(&mut self, at_index: usize, core: OnlineCore) -> Result<(), CoreError> {
        let swap = Arc::new(PreparedPatternSwap::prepare(
            core.patterns().clone(),
            self.n_types,
        ));
        self.schedule_epoch_prepared(at_index, core, swap)
    }

    /// Stage an epoch switch whose detector-side pattern compile was
    /// already done (once, off the hot path) by the caller. The sharded
    /// service prepares a single [`PreparedPatternSwap`] on the service
    /// thread and shares it across all shard engines behind an [`Arc`], so
    /// activation at the scheduled window is a plan swap, not a per-shard
    /// stop-the-world recompile.
    ///
    /// `swap` must carry exactly `core.patterns()` compiled for this
    /// engine's type universe; same validation as
    /// [`StreamingEngine::schedule_epoch`] otherwise.
    pub fn schedule_epoch_prepared(
        &mut self,
        at_index: usize,
        core: OnlineCore,
        swap: Arc<PreparedPatternSwap>,
    ) -> Result<(), CoreError> {
        let width = core.pipeline().flip_table().width();
        if width != self.n_types {
            return Err(CoreError::WidthMismatch {
                expected: self.n_types,
                got: width,
            });
        }
        let matches = swap.patterns().len() == core.patterns().len()
            && core
                .patterns()
                .iter()
                .all(|(id, p)| swap.patterns().get(id) == Some(p));
        if !matches {
            return Err(CoreError::Detection(
                "prepared swap does not match the scheduled core's patterns".into(),
            ));
        }
        self.detector
            .schedule_prepared_update(at_index, swap)
            .map_err(|e| CoreError::Detection(e.to_string()))?;
        self.pending_epochs.push_back((at_index, core));
        Ok(())
    }

    /// The epoch of the core currently in force (staged switches excluded).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Push one event (events must arrive in temporal order). Returns the
    /// releases of every window that closed before it — empty gap windows
    /// included, so downstream consumers see the full timeline and absent
    /// patterns can still flip into present ones.
    pub fn push(
        &mut self,
        event: &Event,
        rng: &mut DpRng,
    ) -> Result<Vec<WindowRelease>, CoreError> {
        let mut out = Vec::new();
        self.push_into(event, rng, &mut out)?;
        Ok(out)
    }

    /// Drain-style [`StreamingEngine::push`]: appends the releases to a
    /// caller-reused buffer and returns how many were appended. The
    /// hot-path form — an event that closes no window allocates nothing.
    pub fn push_into(
        &mut self,
        event: &Event,
        rng: &mut DpRng,
        out: &mut Vec<WindowRelease>,
    ) -> Result<usize, CoreError> {
        let mut rows = std::mem::take(&mut self.closed_scratch);
        let pushed = self
            .detector
            .push_into(event, &mut rows)
            .map_err(|e| CoreError::Detection(e.to_string()));
        let released = match pushed {
            Ok(_) => self.release_rows(&mut rows, rng, out),
            Err(e) => Err(e),
        };
        rows.clear();
        self.closed_scratch = rows;
        if released.is_ok() {
            self.events_seen += 1;
        }
        released
    }

    /// Advance the watermark to `ts` without an event (heartbeat): closes
    /// and releases every window ending at or before `ts`'s window start.
    /// A long-running service calls this on quiet streams so consumers
    /// keep receiving (protected, possibly flipped-present) windows.
    pub fn advance_watermark(
        &mut self,
        ts: Timestamp,
        rng: &mut DpRng,
    ) -> Result<Vec<WindowRelease>, CoreError> {
        let mut out = Vec::new();
        self.advance_watermark_into(ts, rng, &mut out)?;
        Ok(out)
    }

    /// Drain-style [`StreamingEngine::advance_watermark`]; appends to
    /// `out` and returns the number of releases.
    pub fn advance_watermark_into(
        &mut self,
        ts: Timestamp,
        rng: &mut DpRng,
        out: &mut Vec<WindowRelease>,
    ) -> Result<usize, CoreError> {
        let mut rows = std::mem::take(&mut self.closed_scratch);
        let advanced = self
            .detector
            .advance_to_into(ts, &mut rows)
            .map_err(|e| CoreError::Detection(e.to_string()));
        let released = match advanced {
            Ok(_) => self.release_rows(&mut rows, rng, out),
            Err(e) => Err(e),
        };
        rows.clear();
        self.closed_scratch = rows;
        released
    }

    /// Flush the open window (end of stream). `None` if no window is open.
    pub fn finish(&mut self, rng: &mut DpRng) -> Result<Option<WindowRelease>, CoreError> {
        match self.detector.finish() {
            Some(row) => self.release_one(row, rng).map(Some),
            None => Ok(None),
        }
    }

    fn release_rows(
        &mut self,
        rows: &mut Vec<ClosedWindow>,
        rng: &mut DpRng,
        out: &mut Vec<WindowRelease>,
    ) -> Result<usize, CoreError> {
        let n = rows.len();
        for row in rows.drain(..) {
            let release = self.release_one(row, rng)?;
            out.push(release);
        }
        Ok(n)
    }

    /// Turn one closed window into a release without copying: the row's
    /// packed presence vector is perturbed in place and becomes the
    /// protected view.
    fn release_one(
        &mut self,
        row: ClosedWindow,
        rng: &mut DpRng,
    ) -> Result<WindowRelease, CoreError> {
        // staged epoch switches due at this window take over before it is
        // protected — mirroring the detector, which swapped its pattern
        // set at the same index when it closed the row
        while self
            .pending_epochs
            .front()
            .is_some_and(|(at, _)| *at <= row.index)
        {
            self.core = self
                .pending_epochs
                .pop_front()
                .expect("checked non-empty")
                .1;
        }
        let mut protected = row.presence;
        self.core
            .release_window_in_place(&mut protected, &mut self.ledger, rng)?;
        let (answers, charges) = self
            .core
            .answer_window(&protected, &mut self.query_state, rng);
        for (query, eps) in charges {
            self.query_ledger
                .spend(query, eps)
                .expect("the engine query ledger is unlimited");
        }
        Ok(WindowRelease {
            index: row.index,
            start: row.start,
            epoch: self.core.epoch(),
            audit: TrustedAudit::seal(row.detections),
            protected,
            answers,
            query_ids: self.core.query_ids(),
        })
    }

    /// The shared protection core (pipeline, patterns, queries).
    pub fn core(&self) -> &OnlineCore {
        &self.core
    }

    /// Number of windows released so far.
    pub fn releases(&self) -> usize {
        self.detector.emitted()
    }

    /// Number of events consumed so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Budget spent so far on one private pattern (sequential composition
    /// across this front's releases).
    pub fn budget_spent(&self, id: PatternId) -> Epsilon {
        self.ledger.spent(&id)
    }

    /// Dedicated budget spent so far by one non-boolean consumer query
    /// (argmax draws; zero for boolean/count/categorical queries, which
    /// are pure post-processing).
    pub fn query_budget_spent(&self, query: QueryId) -> Epsilon {
        self.query_ledger.spent(&query)
    }

    /// The active queries as `(stable id, name)` pairs, in the order of
    /// [`WindowRelease::answers`]. Names are ambiguous after revocation
    /// and re-registration; the id is the stable consumer handle.
    pub fn query_names(&self) -> Vec<(QueryId, &str)> {
        self.core
            .queries()
            .iter()
            .map(|q| (q.id, q.name.as_str()))
            .collect()
    }

    /// Width of the event-type universe.
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Plain-data snapshot of the whole engine: the active core, both
    /// ledgers, the trailing query state, the detector (open window
    /// included) and every staged epoch switch. Taken between pushes,
    /// the snapshot plus the same subsequent inputs and RNG positions
    /// reproduces the original's releases bit-for-bit.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            core: self.core.snapshot(),
            ledger: self.ledger.snapshot(),
            query_ledger: self.query_ledger.snapshot(),
            query_state: self.query_state.snapshot(),
            detector: self.detector.snapshot(),
            events_seen: self.events_seen,
            pending_epochs: self
                .pending_epochs
                .iter()
                .map(|(at, core)| (*at, core.snapshot()))
                .collect(),
        }
    }

    /// Rebuild an engine from a [`StreamingEngine::snapshot`]. Every
    /// compiled artifact (flip plan, query masks, detector NFAs) is
    /// recompiled from the snapshot's plain data; the detector restores
    /// its own staged swaps, and the engine-level pending cores are
    /// reattached in lockstep with them.
    pub fn restore(snapshot: EngineSnapshot) -> Result<Self, CoreError> {
        let core = OnlineCore::restore(snapshot.core)?;
        let n_types = core.pipeline().flip_table().width();
        let detector = IncrementalDetector::restore(snapshot.detector)
            .map_err(|e| CoreError::Detection(e.to_string()))?;
        let mut pending_epochs = VecDeque::new();
        for (at, pending) in snapshot.pending_epochs {
            pending_epochs.push_back((at, OnlineCore::restore(pending)?));
        }
        Ok(StreamingEngine {
            core,
            ledger: BudgetLedger::restore(snapshot.ledger),
            query_ledger: BudgetLedger::restore(snapshot.query_ledger),
            query_state: QueryStateSet::restore(snapshot.query_state),
            detector,
            n_types,
            events_seen: snapshot.events_seen,
            closed_scratch: Vec::new(),
            pending_epochs,
        })
    }
}

/// The exact state of a [`StreamingEngine`], as plain data (see
/// [`StreamingEngine::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// The active protection core.
    pub core: OnlineCoreSnapshot,
    /// Per-pattern spend of this front.
    pub ledger: pdp_dp::BudgetLedgerSnapshot<PatternId>,
    /// Per-query (argmax) spend of this front.
    pub query_ledger: pdp_dp::BudgetLedgerSnapshot<QueryId>,
    /// Trailing-window state of the stateful queries.
    pub query_state: Vec<(QueryId, Vec<u64>)>,
    /// The incremental detector (open window, emit frontier, staged
    /// swaps).
    pub detector: pdp_cep::DetectorSnapshot,
    /// Events consumed so far.
    pub events_seen: usize,
    /// Staged epoch switches as `(activation index, core)`, ascending —
    /// mirrors the detector's staged swaps one for one.
    pub pending_epochs: Vec<(usize, OnlineCoreSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PpmKind, TrustedEngineConfig};
    use pdp_cep::Pattern;
    use pdp_metrics::Alpha;
    use pdp_metrics::AuditKey;
    use pdp_stream::{EventType, WindowedIndicators};

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn e(ty: u32, ms: i64) -> Event {
        Event::new(t(ty), Timestamp::from_millis(ms))
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn set_up_engine(ppm: PpmKind) -> TrustedEngine {
        let mut engine = TrustedEngine::new(TrustedEngineConfig {
            n_types: 4,
            alpha: Alpha::HALF,
            ppm,
        });
        engine.register_private_pattern(Pattern::seq("priv", vec![t(0), t(1)]).unwrap());
        engine.register_target_query("t2?", Pattern::single("t2", t(2)));
        engine.setup().unwrap();
        engine
    }

    fn streaming(ppm: PpmKind) -> StreamingEngine {
        StreamingEngine::from_engine(
            &set_up_engine(ppm),
            StreamingConfig::tumbling(TimeDelta::from_millis(10)),
        )
        .unwrap()
    }

    #[test]
    fn requires_set_up_engine() {
        let engine = TrustedEngine::new(TrustedEngineConfig {
            n_types: 4,
            alpha: Alpha::HALF,
            ppm: PpmKind::PassThrough,
        });
        assert!(matches!(
            StreamingEngine::from_engine(
                &engine,
                StreamingConfig::tumbling(TimeDelta::from_millis(10))
            ),
            Err(CoreError::NotSetUp)
        ));
    }

    #[test]
    fn invalid_window_length_rejected() {
        let engine = set_up_engine(PpmKind::PassThrough);
        assert!(matches!(
            StreamingEngine::from_engine(&engine, StreamingConfig::tumbling(TimeDelta::ZERO)),
            Err(CoreError::Detection(_))
        ));
    }

    #[test]
    fn pass_through_releases_answer_truth() {
        let mut s = streaming(PpmKind::PassThrough);
        let mut rng = DpRng::seed_from(1);
        assert!(s.push(&e(2, 1), &mut rng).unwrap().is_empty());
        assert!(s.push(&e(0, 5), &mut rng).unwrap().is_empty());
        // t=25 closes window 0 and the empty window 1
        let releases = s.push(&e(2, 25), &mut rng).unwrap();
        assert_eq!(releases.len(), 2);
        assert_eq!(releases[0].index, 0);
        assert_eq!(releases[0].start, Timestamp::ZERO);
        assert_eq!(releases[0].answers, vec![Answer::Bool(true)]); // t2 present
        assert!(releases[0].protected.get(t(0)));
        assert_eq!(releases[1].answers, vec![Answer::Bool(false)]); // gap window empty
        assert_eq!(releases[1].protected.count_present(), 0);
        let last = s.finish(&mut rng).unwrap().unwrap();
        assert_eq!(last.index, 2);
        assert_eq!(last.answers, vec![Answer::Bool(true)]);
        assert_eq!(last.answer_for(QueryId(0)), Some(Answer::Bool(true)));
        assert_eq!(last.answer_for(QueryId(7)), None);
        assert_eq!(s.releases(), 3);
        assert_eq!(s.events_seen(), 3);
        assert!(s.finish(&mut rng).unwrap().is_none());
    }

    #[test]
    fn out_of_universe_query_answers_false_every_window() {
        // a registered query whose pattern lies outside the type universe
        // can never be satisfied; the precompiled mask must preserve the
        // always-false answer (not collapse to a vacuous always-true one)
        let mut engine = TrustedEngine::new(TrustedEngineConfig {
            n_types: 4,
            alpha: Alpha::HALF,
            ppm: PpmKind::PassThrough,
        });
        engine.register_target_query("ghost?", Pattern::single("ghost", t(9)));
        engine.setup().unwrap();
        let mut s = StreamingEngine::from_engine(
            &engine,
            StreamingConfig::tumbling(TimeDelta::from_millis(10)),
        )
        .unwrap();
        let mut rng = DpRng::seed_from(1);
        s.push(&e(0, 1), &mut rng).unwrap();
        let release = s.finish(&mut rng).unwrap().unwrap();
        assert_eq!(release.answers, vec![Answer::Bool(false)]);
    }

    #[test]
    fn sealed_audit_carries_the_incremental_detections() {
        let engine = set_up_engine(PpmKind::PassThrough);
        let mut s = StreamingEngine::from_engine(
            &engine,
            StreamingConfig {
                window_len: TimeDelta::from_millis(10),
                semantics: Semantics::Ordered,
            },
        )
        .unwrap();
        let mut rng = DpRng::seed_from(3);
        s.push(&e(0, 1), &mut rng).unwrap();
        s.push(&e(1, 4), &mut rng).unwrap();
        let release = s.finish(&mut rng).unwrap().unwrap();
        // pattern 0 = SEQ(t0, t1) observed in order; pattern 1 = t2 absent —
        // readable only through the explicit trusted-boundary key
        let key = AuditKey::trusted_boundary();
        assert_eq!(release.audit().open(&key), &[true, false]);
        assert_eq!(release.audit().len(), 2);
    }

    #[test]
    fn budget_accrues_per_release() {
        let mut s = streaming(PpmKind::Uniform { eps: eps(0.5) });
        let private = s.core().patterns().iter().next().unwrap().0;
        let mut rng = DpRng::seed_from(7);
        s.push(&e(0, 1), &mut rng).unwrap();
        s.push(&e(1, 35), &mut rng).unwrap(); // releases windows 0..=2
        s.finish(&mut rng).unwrap(); // releases window 3
        assert_eq!(s.releases(), 4);
        assert!((s.budget_spent(private).value() - 4.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn watermark_releases_quiet_windows() {
        let mut s = streaming(PpmKind::Uniform { eps: eps(1.0) });
        let mut rng = DpRng::seed_from(9);
        // pin the logical stream start
        assert!(s
            .advance_watermark(Timestamp::ZERO, &mut rng)
            .unwrap()
            .is_empty());
        // a quiet stream still releases protected windows on heartbeats
        let releases = s
            .advance_watermark(Timestamp::from_millis(30), &mut rng)
            .unwrap();
        assert_eq!(releases.len(), 3);
        // uncorrelated types stay absent; private bits may flip in
        for r in &releases {
            assert!(!r.protected.get(t(2)));
            assert!(!r.protected.get(t(3)));
        }
        // watermark regression is rejected
        assert!(s
            .advance_watermark(Timestamp::from_millis(5), &mut rng)
            .is_err());
    }

    #[test]
    fn scheduled_epoch_switches_on_its_window() {
        let mut s = streaming(PpmKind::PassThrough);
        // a grown epoch-1 core: same patterns plus one more target query
        let mut engine_b = TrustedEngine::new(TrustedEngineConfig {
            n_types: 4,
            alpha: Alpha::HALF,
            ppm: PpmKind::PassThrough,
        });
        engine_b.register_private_pattern(Pattern::seq("priv", vec![t(0), t(1)]).unwrap());
        engine_b.register_target_query("t2?", Pattern::single("t2", t(2)));
        engine_b.register_target_query("t3?", Pattern::single("t3", t(3)));
        engine_b.setup().unwrap();
        let base = engine_b.online_core().unwrap();
        let core_b = OnlineCore::with_queries(
            base.pipeline().clone(),
            base.patterns().clone(),
            base.queries().to_vec(),
            1,
        )
        .unwrap();
        s.schedule_epoch(1, core_b).unwrap();
        assert_eq!(s.epoch(), 0, "switch is staged, not applied");

        let mut rng = DpRng::seed_from(5);
        let mut releases = s.push(&e(2, 1), &mut rng).unwrap();
        releases.extend(s.push(&e(3, 15), &mut rng).unwrap());
        releases.extend(
            s.advance_watermark(Timestamp::from_millis(30), &mut rng)
                .unwrap(),
        );
        assert_eq!(releases.len(), 3);
        // window 0 still answers under the old plan; 1 and 2 under the new
        assert_eq!(releases[0].epoch, 0);
        assert_eq!(releases[0].answers, vec![Answer::Bool(true)]);
        assert_eq!(releases[1].epoch, 1);
        assert_eq!(
            releases[1].answers,
            vec![Answer::Bool(false), Answer::Bool(true)]
        );
        assert_eq!(releases[2].epoch, 1);
        assert_eq!(
            releases[2].answers,
            vec![Answer::Bool(false), Answer::Bool(false)]
        );
        assert_eq!(s.epoch(), 1);
        assert_eq!(
            s.query_names(),
            vec![(QueryId(0), "t2?"), (QueryId(1), "t3?")]
        );
    }

    #[test]
    fn scheduled_epoch_validation() {
        let mut s = streaming(PpmKind::PassThrough);
        let mut rng = DpRng::seed_from(1);
        s.push(&e(0, 1), &mut rng).unwrap();
        s.push(&e(0, 25), &mut rng).unwrap(); // windows 0, 1 released
        let core = s.core().clone();
        // behind the release frontier
        assert!(s.schedule_epoch(1, core.clone()).is_err());
        assert!(s.schedule_epoch(2, core.clone()).is_ok());
        // staged switches must not regress either
        assert!(s.schedule_epoch(1, core).is_err());
        // a core over a different type universe is rejected
        let mut narrow = TrustedEngine::new(TrustedEngineConfig {
            n_types: 2,
            alpha: Alpha::HALF,
            ppm: PpmKind::PassThrough,
        });
        narrow.register_target_query("t0?", Pattern::single("t0", t(0)));
        narrow.setup().unwrap();
        let narrow_core = narrow.online_core().unwrap().clone();
        assert!(matches!(
            s.schedule_epoch(5, narrow_core),
            Err(CoreError::WidthMismatch {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn engine_snapshot_round_trip_mid_stream() {
        use crate::codec::{ByteReader, ByteWriter, Wire};
        for semantics in [
            Semantics::Ordered,
            Semantics::Conjunction,
            Semantics::OrderedWithin(TimeDelta::from_millis(10)),
        ] {
            let engine = set_up_engine(PpmKind::Uniform { eps: eps(1.0) });
            let config = StreamingConfig {
                window_len: TimeDelta::from_millis(10),
                semantics,
            };
            let mut s = StreamingEngine::from_engine(&engine, config).unwrap();
            let mut rng = DpRng::seed_from(13);
            s.push(&e(0, 1), &mut rng).unwrap();
            s.push(&e(0, 12), &mut rng).unwrap(); // window 0 released, 1 open
            s.push(&e(2, 15), &mut rng).unwrap();
            let snap = s.snapshot();
            // the open window's half-matched `priv` = seq(t0, t1) is in the
            // snapshot: NFA progress when ordered, the events when timed,
            // t0's presence bit when conjunctive
            match semantics {
                Semantics::Ordered => assert!(snap.detector.nfa_states.contains(&1)),
                Semantics::OrderedWithin(_) => assert_eq!(snap.detector.timed.len(), 2),
                Semantics::Conjunction => assert!(snap.detector.present.get(t(0))),
            }

            // through the checkpoint codec and back
            let mut w = ByteWriter::new();
            snap.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let decoded = EngineSnapshot::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(decoded, snap, "{semantics:?}");

            let mut restored = StreamingEngine::restore(decoded).unwrap();
            assert_eq!(restored.snapshot(), snap, "snapshot is a fixed point");
            // continuing from the same RNG position, both engines release
            // bit-for-bit identically
            let mut rng2 = DpRng::from_state(rng.state());
            let mut released = Vec::new();
            for ev in [e(1, 17), e(1, 27)] {
                let a = s.push(&ev, &mut rng).unwrap();
                let b = restored.push(&ev, &mut rng2).unwrap();
                assert_eq!(a, b, "{semantics:?}");
                released.extend(a);
            }
            // t1@17 completes `priv` in window 1 only because the snapshot
            // carried t0@12
            let key = AuditKey::trusted_boundary();
            assert_eq!(released[0].index, 1);
            assert!(released[0].audit().open(&key)[0], "{semantics:?}");
            assert_eq!(
                s.finish(&mut rng).unwrap(),
                restored.finish(&mut rng2).unwrap()
            );
            let private = s.core().patterns().iter().next().unwrap().0;
            assert_eq!(
                s.budget_spent(private).value(),
                restored.budget_spent(private).value()
            );
        }
    }

    #[test]
    fn engine_snapshot_preserves_staged_epochs() {
        let mut s = streaming(PpmKind::PassThrough);
        let mut rng = DpRng::seed_from(5);
        s.push(&e(2, 1), &mut rng).unwrap();
        let core_b = OnlineCore::with_queries(
            s.core().pipeline().clone(),
            s.core().patterns().clone(),
            s.core().queries().to_vec(),
            1,
        )
        .unwrap();
        s.schedule_epoch(1, core_b).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.pending_epochs.len(), 1);
        let mut restored = StreamingEngine::restore(snap).unwrap();
        let mut rng2 = DpRng::from_state(rng.state());
        // the staged switch lands on window 1 in both engines
        let a = s
            .advance_watermark(Timestamp::from_millis(30), &mut rng)
            .unwrap();
        let b = restored
            .advance_watermark(Timestamp::from_millis(30), &mut rng2)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a[1].epoch, 1);
        assert_eq!(restored.epoch(), 1);
    }

    #[test]
    fn streaming_matches_batch_protected_view_bit_for_bit() {
        // the equivalence the refactor promises: same windows, same seed —
        // identical protected output and identical ledger spend
        let windows = WindowedIndicators::new(vec![
            IndicatorVector::from_present([t(0), t(2)], 4),
            IndicatorVector::empty(4),
            IndicatorVector::from_present([t(1)], 4),
            IndicatorVector::from_present([t(0), t(1), t(3)], 4),
        ]);
        let len = TimeDelta::from_millis(10);

        let mut batch_engine = set_up_engine(PpmKind::Uniform { eps: eps(1.2) });
        let mut batch_rng = DpRng::seed_from(42);
        let batch_view = batch_engine
            .protected_view(&windows, &mut batch_rng)
            .unwrap();

        let engine = set_up_engine(PpmKind::Uniform { eps: eps(1.2) });
        let mut s = StreamingEngine::from_engine(&engine, StreamingConfig::tumbling(len)).unwrap();
        let mut stream_rng = DpRng::seed_from(42);
        let mut released = Vec::new();
        s.advance_watermark(Timestamp::ZERO, &mut stream_rng)
            .unwrap();
        for ev in windows.to_events(len).iter() {
            released.extend(s.push(ev, &mut stream_rng).unwrap());
        }
        released.extend(
            s.advance_watermark(
                Timestamp::from_millis(windows.len() as i64 * len.millis()),
                &mut stream_rng,
            )
            .unwrap(),
        );

        assert_eq!(released.len(), batch_view.len());
        for (i, r) in released.iter().enumerate() {
            assert_eq!(&r.protected, batch_view.window(i), "window {i}");
        }
        let private = engine.private_patterns()[0];
        assert_eq!(
            s.budget_spent(private).value(),
            batch_engine.budget_spent(private).value()
        );
    }
}
