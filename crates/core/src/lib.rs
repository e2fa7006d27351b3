//! # `pdp-core` — pattern-level ε-differential privacy (the paper's contribution)
//!
//! Implements §IV and §V of *"Differential Privacy for Protecting Private
//! Patterns in Data Streams"* (ICDE 2023):
//!
//! * [`is_in_pattern_neighbor`] / [`in_pattern_neighbors`] — Def. 1
//!   (in-pattern neighbors) and Def. 3 (pattern-level neighbors), with
//!   generators used by the DP verification tests;
//! * [`satisfies_pattern_level_dp`] / [`pattern_epsilon`] — Def. 4
//!   (pattern-level ε-DP) and **Theorem 1**: a randomized response with
//!   flip probabilities `pᵢ ≤ 1/2` over a pattern's elements guarantees
//!   `Σᵢ ln((1−pᵢ)/pᵢ)`-pattern-level DP;
//! * [`BudgetDistribution`] — per-element budget shares: the **uniform**
//!   distribution (Fig. 3) and the **adaptive** bidirectional stepwise
//!   Algorithm 1 ([`optimize_all`]) driven by historical data;
//! * [`QualityModel`] — closed-form and Monte-Carlo estimators of the
//!   quality metric `Q = α·Prec + (1−α)·Rec` under per-event flips;
//! * [`ProtectionPipeline`] — flip tables composed across overlapping
//!   private patterns, applied **only** to events that correlate with
//!   private patterns;
//! * [`TrustedEngine`] — the trusted CEP engine middleware of §III-A
//!   (Fig. 2);
//! * [`Answer`] / [`QuerySpec`] — typed consumer answers and the unified
//!   query registry: pattern queries and the §VII extension queries
//!   (count, categorical, argmax) share one id space, compile into every
//!   epoch plan, and are answered typed on the protected view inside the
//!   release path;
//! * [`ReleaseSink`] — the consumer delivery surface: subscriptions per
//!   stable [`QueryId`](pdp_cep::QueryId), id-keyed [`QueryAnswer`]
//!   records, and the default [`VecSink`] the legacy `BatchOutput` style
//!   is reimplemented on;
//! * [`StreamingEngine`] — the push-based service layer: it consumes
//!   events one at a time and releases protected windows online, through
//!   the same [`OnlineCore`] the batch engine adapts;
//! * [`ShardedService`] — the sharded multi-tenant deployment shape on
//!   top: subject-keyed batched ingestion with bounded out-of-order
//!   tolerance, hash partitioning across [`StreamingEngine`] shards, a
//!   global low watermark, per-subject budget ledgers, and
//!   population-level merged answers;
//! * [`ControlPlane`] — the dynamic control plane: runtime subject/pattern/
//!   query churn staged as commands, compiled into immutable per-epoch
//!   plans that every shard activates deterministically on one window
//!   boundary, with the adaptive PPM re-run online at each transition
//!   and epoch-aware budget accounting;
//! * [`codec`] — the one byte codec every checkpoint, WAL record and
//!   network frame is laid out with;
//! * [`WalWriter`] / [`ServiceCheckpoint`] — crash consistency for the
//!   sharded service: full plain-data checkpoints captured between calls
//!   plus a checksummed, sequence-numbered write-ahead log of
//!   accepted inputs; recovery loads the checkpoint and replays the WAL
//!   tail for bit-identical output;
//! * [`SupervisorConfig`] — crash *resilience* on top: scripted
//!   deterministic fault injection ([`FaultPlan`]), in-place shard healing
//!   (worker respawn when the state mirror is clean, checkpoint + WAL-tail
//!   rebuild when it is poisoned), bounded WAL retry with backoff, and
//!   graceful degradation to inline execution with a [`HealthReport`].

mod adaptive;
mod answer;
pub mod codec;
mod control;
mod correlation;
mod distribution;
mod durability;
mod engine;
mod error;
mod extensions;
mod guarantee;
mod neighbors;
mod protect;
mod quality_model;
mod service;
mod sink;
mod streaming;
mod supervision;

pub use adaptive::{optimize_all, optimize_single, AdaptiveConfig, StepRule};
pub use answer::{Answer, ArgmaxQuery, Query, QuerySpec, QueryStateSet};
pub use control::{
    Command, CommandOutcome, ControlPlane, ControlPlaneConfig, ControlPlaneSnapshot, EpochPlan,
};
pub use correlation::{find_correlates, lift, widen_protection, Correlate};
pub use distribution::BudgetDistribution;
pub use durability::{
    fnv1a, read_checkpoint, read_wal_from, recover_wal_prefix, replay_into, write_checkpoint,
    MergeRowSnapshot, MergeSnapshot, ServiceCheckpoint, ShardCheckpoint, ShardMetaSnapshot,
    WalRecord, WalWriter,
};
pub use engine::{PpmKind, ProtectedAnswer, TrustedEngine, TrustedEngineConfig};
pub use error::CoreError;
pub use extensions::{CategoricalQuery, CountQuery, NoisyArgmax};
pub use guarantee::{
    max_log_ratio, pattern_epsilon, satisfies_pattern_level_dp, uniform_flip_prob,
};
pub use neighbors::{
    in_pattern_neighbors, indicator_neighbors, is_in_pattern_neighbor, is_indicator_neighbor,
};
pub use protect::{FlipPlan, FlipTable, Mechanism, PipelineSnapshot, ProtectionPipeline};
pub use quality_model::QualityModel;
pub use service::{
    BatchOutput, EpochTransition, KeyedEvent, MergedRelease, RouteTable, ServiceBuilder,
    ServiceConfig, ShardRelease, ShardedService, SubjectId,
};
pub use sink::{CountingSink, QueryAnswer, ReleaseSink, VecSink};
pub use streaming::{
    EngineSnapshot, OnlineCore, OnlineCoreSnapshot, QueryRef, StreamingConfig, StreamingEngine,
    WindowRelease,
};
pub use supervision::{
    quiet_poison_panics, Fault, FaultInjector, FaultPlan, HealAction, HealEvent, HealthReport,
    ShardHealth, SupervisorConfig,
};
