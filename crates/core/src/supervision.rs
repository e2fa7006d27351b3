//! Self-healing supervision for the sharded service: deterministic fault
//! injection, per-shard recovery, and graceful degradation.
//!
//! # The healing contract
//!
//! A supervised [`ShardedService`](crate::service::ShardedService) detects
//! a dead or poisoned shard worker when it folds the round that met it
//! (every batch, watermark or finish call folds its own round before it
//! returns) and heals it **in place**, without disturbing the other
//! shards. Which heal applies depends on what the fault destroyed:
//!
//! * **In-place respawn** — when the worker thread died but the shard's
//!   mutex is *clean* (e.g. a scripted kill severed its channel), the
//!   in-service state mirror is still authoritative: jobs that could not
//!   be submitted run inline under the same lock, in the same order, and
//!   a fresh worker thread is spawned once the round has folded. No
//!   durability artifacts are consulted; the output is bit-for-bit the
//!   fault-free output.
//! * **Checkpoint + WAL-tail replay** — when the worker panicked while
//!   holding the lock the mutex is *poisoned* and the in-memory shard may
//!   be mid-job, so it cannot be trusted. The supervisor rebuilds that one
//!   shard from the last checkpoint plus an inline replay of the WAL tail
//!   (both paths come from [`SupervisorConfig`]), swaps the rebuilt state
//!   in behind a fresh lock, and re-derives the releases the crashed
//!   round lost so settlement — deliveries, ledger spends, merge rows —
//!   proceeds exactly as in the fault-free run. Because the WAL records
//!   every accepted input *before* the round that applies it is submitted,
//!   the replay is always exactly as current as the live service.
//! * **Graceful degradation** — after a configurable number of heal
//!   attempts on one shard ([`SupervisorConfig::max_heal_attempts`]) the
//!   supervisor stops respawning workers and switches the whole service to
//!   inline (single-threaded) execution. Degradation preserves *all*
//!   semantics — the service's inline and parallel modes are bit-for-bit
//!   identical by construction — it only gives up thread-parallelism. The
//!   mode change is reported (a [`HealAction::Degraded`] event and the
//!   [`HealthReport::degraded`] flag), never silent, and the service keeps
//!   serving.
//!
//! Transient WAL append failures are retried with bounded backoff
//! ([`SupervisorConfig::wal_retry_limit`] /
//! [`SupervisorConfig::wal_retry_backoff`]) before a batch is rejected;
//! the retry count is surfaced in [`HealthReport::wal_retries`].
//!
//! # Deterministic fault injection
//!
//! Chaos scenarios are scripted as a [`FaultPlan`] — kill worker *k*
//! before round *r*, poison shard *k* before round *r*, fail the *n*-th
//! WAL append attempt, corrupt byte *b* of a checkpoint — and threaded
//! through the service with
//! [`inject_faults`](crate::service::ShardedService::inject_faults), so
//! every scenario is reproducible from a seed
//! ([`FaultPlan::from_seed`]). Worker kill/poison faults target worker
//! threads and are therefore no-ops in inline mode (the plan's WAL faults
//! still apply); a poison scheduled for a round that only `finish`
//! submits stays unfired, so scripted plans should target ingestion or
//! watermark rounds.

use std::path::Path;
use std::sync::Once;
use std::time::Duration;

use crate::error::CoreError;
use crate::service::splitmix64;

/// One scripted fault in a [`FaultPlan`].
///
/// Rounds are 1-based and count every round the service submits
/// (each `push_batch` and `advance_watermark` submits one round; `finish`
/// submits two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sever worker `shard`'s job channel at the start of the call that
    /// submits round `before_round`. The worker is idle between calls, so
    /// it exits at once; the shard's state mirror stays clean.
    KillWorker {
        /// Target shard.
        shard: usize,
        /// The round whose submission the kill precedes.
        before_round: u64,
    },
    /// Make worker `shard` panic while holding its shard lock, as the
    /// first job of round `before_round`. The mutex is genuinely
    /// poisoned; an unsupervised service surfaces
    /// [`CoreError::ShardPoisoned`], a supervised one rebuilds the shard
    /// from checkpoint + WAL tail.
    PoisonShard {
        /// Target shard.
        shard: usize,
        /// The round whose submission the poison job leads.
        before_round: u64,
    },
    /// Fail the `nth` WAL append *attempt* (1-based, counted across
    /// retries) before anything is written, simulating a transient I/O
    /// error. A retried attempt gets a fresh number, so a single scripted
    /// failure is transient by construction.
    WalAppendFailure {
        /// Which append attempt fails.
        nth: u64,
    },
    /// Corrupt one byte of a checkpoint artifact: XOR the byte at
    /// `offset` with `xor`. Applied on demand via
    /// [`FaultInjector::corrupt_checkpoint`], not by the service itself.
    CorruptCheckpointByte {
        /// Byte offset into the checkpoint file.
        offset: u64,
        /// Mask XORed into that byte (must be non-zero to corrupt).
        xor: u8,
    },
}

/// A deterministic, scripted schedule of faults.
///
/// Build one with the chainable constructors or derive a reproducible
/// random schedule from a seed with [`FaultPlan::from_seed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a worker kill: sever `shard`'s job channel before round
    /// `before_round` is submitted.
    #[must_use]
    pub fn kill_worker(mut self, shard: usize, before_round: u64) -> Self {
        self.faults.push(Fault::KillWorker {
            shard,
            before_round,
        });
        self
    }

    /// Schedule a poison: worker `shard` panics while holding its lock as
    /// the first job of round `before_round`.
    #[must_use]
    pub fn poison_shard(mut self, shard: usize, before_round: u64) -> Self {
        self.faults.push(Fault::PoisonShard {
            shard,
            before_round,
        });
        self
    }

    /// Schedule a transient failure of the `nth` WAL append attempt.
    #[must_use]
    pub fn fail_wal_append(mut self, nth: u64) -> Self {
        self.faults.push(Fault::WalAppendFailure { nth });
        self
    }

    /// Schedule a single-byte checkpoint corruption (applied via
    /// [`FaultInjector::corrupt_checkpoint`]).
    #[must_use]
    pub fn corrupt_checkpoint_byte(mut self, offset: u64, xor: u8) -> Self {
        self.faults
            .push(Fault::CorruptCheckpointByte { offset, xor });
        self
    }

    /// Derive a reproducible random chaos schedule from a seed: one
    /// worker kill, one shard poison and one transient WAL failure,
    /// spread over `rounds` rounds and `shards` shards via the
    /// same splitmix64 chain the service uses for routing. Same seed,
    /// same plan — always.
    pub fn from_seed(seed: u64, rounds: u64, shards: usize) -> Self {
        let rounds = rounds.max(1);
        let shards = shards.max(1) as u64;
        let draw = |lane: u64| splitmix64(seed ^ splitmix64(lane));
        // keep the poison strictly after the kill so both fire even on
        // short schedules; WAL appends roughly track rounds.
        let kill_round = 1 + draw(1) % rounds;
        let poison_round = 1 + kill_round.max(draw(2) % rounds);
        Self::new()
            .kill_worker((draw(3) % shards) as usize, kill_round)
            .poison_shard((draw(4) % shards) as usize, poison_round.min(rounds))
            .fail_wal_append(1 + draw(5) % rounds)
    }

    /// The scripted faults, in schedule order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }
}

/// A worker-targeting fault that is due now (internal hand-off between
/// the injector and the service's round submission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DueFault {
    /// Sever the shard's job channel immediately.
    Kill {
        /// Target shard.
        shard: usize,
    },
    /// Lead the next eligible round with a poison job.
    Poison {
        /// Target shard.
        shard: usize,
    },
}

/// Executes a [`FaultPlan`]: the service consults it at every round
/// submission and WAL append attempt, and each fault fires exactly once.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Vec<Fault>,
}

impl FaultInjector {
    /// Wrap a plan for execution.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan: plan.faults }
    }

    /// Remove and return the worker faults due at or before `round`
    /// (late-scheduled faults fire at the next submitted round rather
    /// than being lost).
    pub(crate) fn due_before_round(&mut self, round: u64) -> Vec<DueFault> {
        let mut due = Vec::new();
        self.plan.retain(|fault| match *fault {
            Fault::KillWorker {
                shard,
                before_round,
            } if before_round <= round => {
                due.push(DueFault::Kill { shard });
                false
            }
            Fault::PoisonShard {
                shard,
                before_round,
            } if before_round <= round => {
                due.push(DueFault::Poison { shard });
                false
            }
            _ => true,
        });
        due
    }

    /// Whether WAL append attempt number `nth` (1-based) is scripted to
    /// fail. Consumes the matching fault.
    pub(crate) fn wal_append_should_fail(&mut self, nth: u64) -> bool {
        let before = self.plan.len();
        self.plan
            .retain(|fault| !matches!(*fault, Fault::WalAppendFailure { nth: n } if n == nth));
        self.plan.len() != before
    }

    /// Apply every scripted [`Fault::CorruptCheckpointByte`] to the file
    /// at `path`, consuming them. Returns how many bytes were corrupted.
    /// Offsets beyond the file are ignored (the fault is still consumed).
    pub fn corrupt_checkpoint(&mut self, path: &Path) -> Result<usize, CoreError> {
        let mut corruptions = Vec::new();
        self.plan.retain(|fault| match *fault {
            Fault::CorruptCheckpointByte { offset, xor } => {
                corruptions.push((offset, xor));
                false
            }
            _ => true,
        });
        let mut applied = 0;
        if !corruptions.is_empty() {
            let mut bytes = std::fs::read(path).map_err(|e| {
                CoreError::Durability(format!("corrupt checkpoint {}: {e}", path.display()))
            })?;
            for (offset, xor) in corruptions {
                if let Some(byte) = bytes.get_mut(offset as usize) {
                    *byte ^= xor;
                    applied += 1;
                }
            }
            std::fs::write(path, bytes).map_err(|e| {
                CoreError::Durability(format!("corrupt checkpoint {}: {e}", path.display()))
            })?;
        }
        Ok(applied)
    }

    /// Faults that have not fired yet. A completed chaos run should end
    /// with zero remaining (inline runs keep their worker faults — they
    /// have no worker to target).
    pub fn remaining(&self) -> usize {
        self.plan.len()
    }
}

/// Supervision policy for a [`ShardedService`](crate::service::ShardedService):
/// enables in-place healing, WAL retry and graceful degradation. Without
/// it the service keeps its historical fail-fast behavior (typed errors,
/// no healing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Heals tolerated per shard before the service degrades to inline
    /// execution. The `max_heal_attempts + 1`-th fault on one shard
    /// triggers degradation.
    pub max_heal_attempts: u32,
    /// Retries (beyond the first attempt) for a failed WAL append before
    /// the batch is rejected.
    pub wal_retry_limit: u32,
    /// Base backoff slept before each WAL retry, doubled per attempt.
    pub wal_retry_backoff: Duration,
    /// Path of the latest checkpoint, used to rebuild a poisoned shard.
    /// `None` disables the checkpoint-replay heal (poison then surfaces
    /// as a typed error).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Path of the write-ahead log backing the service, replayed from the
    /// checkpoint's offset during a rebuild.
    pub wal: Option<std::path::PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_heal_attempts: 3,
            wal_retry_limit: 3,
            wal_retry_backoff: Duration::from_millis(1),
            checkpoint: None,
            wal: None,
        }
    }
}

/// What a heal did, in the order the contract tries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealAction {
    /// Worker thread respawned over the intact in-service state mirror.
    Respawned,
    /// Shard state rebuilt from the last checkpoint + WAL-tail replay,
    /// then a fresh worker spawned.
    Rebuilt,
    /// Heal budget exhausted: the service switched to inline execution
    /// and keeps serving single-threaded.
    Degraded,
}

/// One heal event, kept in submission order in [`HealthReport::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealEvent {
    /// Shard that was healed (or whose fault triggered degradation).
    pub shard: usize,
    /// The last round submitted when the heal ran.
    pub round: u64,
    /// What the supervisor did.
    pub action: HealAction,
}

/// Liveness and heal history of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Whether a live worker thread serves this shard. Always `true` in
    /// inline mode — the service thread itself is the executor.
    pub alive: bool,
    /// Whether the shard's mutex is currently poisoned (only possible
    /// when an unsupervised heal was refused).
    pub poisoned: bool,
    /// How many times this shard has been healed.
    pub heals: u32,
}

/// Snapshot of the service's supervision state, from
/// [`health`](crate::service::ShardedService::health).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Whether the service currently executes rounds on worker threads.
    pub parallel: bool,
    /// Whether the supervisor gave up on parallelism after exhausting a
    /// shard's heal budget.
    pub degraded: bool,
    /// WAL append retries performed so far.
    pub wal_retries: u64,
    /// Total WAL append attempts (including retries).
    pub wal_appends: u64,
    /// Per-shard liveness and heal counts.
    pub shards: Vec<ShardHealth>,
    /// Every heal performed, in order.
    pub events: Vec<HealEvent>,
}

impl HealthReport {
    /// True when every shard is alive, nothing is poisoned and the
    /// service has not degraded.
    pub fn all_healthy(&self) -> bool {
        !self.degraded && self.shards.iter().all(|s| s.alive && !s.poisoned)
    }
}

/// Panic payload of a scripted [`Fault::PoisonShard`] job: poisoning a
/// `std::sync::Mutex` requires a real unwind while the guard is held, so
/// the injected job panics with this marker value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoisonPill;

/// Install (once) a panic hook that suppresses the default stderr report
/// for the panics of scripted [`Fault::PoisonShard`] jobs and delegates
/// everything else to the previous hook. Chaos tests call this so scripted
/// poisons do not spam the test output; real panics still print.
pub fn quiet_poison_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<PoisonPill>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_build_and_report() {
        let plan = FaultPlan::new()
            .kill_worker(1, 3)
            .poison_shard(0, 5)
            .fail_wal_append(2)
            .corrupt_checkpoint_byte(16, 0x40);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert!(matches!(
            plan.faults()[0],
            Fault::KillWorker {
                shard: 1,
                before_round: 3
            }
        ));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = FaultPlan::from_seed(41, 6, 3);
        let b = FaultPlan::from_seed(41, 6, 3);
        assert_eq!(a, b, "same seed must give the same plan");
        let c = FaultPlan::from_seed(42, 6, 3);
        assert_ne!(a, c, "different seeds should differ");
        for fault in a.faults() {
            match *fault {
                Fault::KillWorker {
                    shard,
                    before_round,
                }
                | Fault::PoisonShard {
                    shard,
                    before_round,
                } => {
                    assert!(shard < 3);
                    assert!((1..=6).contains(&before_round));
                }
                Fault::WalAppendFailure { nth } => assert!((1..=6).contains(&nth)),
                Fault::CorruptCheckpointByte { .. } => {}
            }
        }
    }

    #[test]
    fn injector_fires_each_fault_once() {
        let mut inj = FaultInjector::new(
            FaultPlan::new()
                .kill_worker(0, 2)
                .poison_shard(1, 4)
                .fail_wal_append(3),
        );
        assert!(inj.due_before_round(1).is_empty());
        assert_eq!(inj.due_before_round(2), vec![DueFault::Kill { shard: 0 }]);
        assert!(inj.due_before_round(2).is_empty(), "kill fires once");
        // a late fault fires at the next round instead of being lost
        assert_eq!(inj.due_before_round(9), vec![DueFault::Poison { shard: 1 }]);
        assert!(!inj.wal_append_should_fail(2));
        assert!(inj.wal_append_should_fail(3));
        assert!(!inj.wal_append_should_fail(3), "wal fault fires once");
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn checkpoint_corruption_is_scripted() {
        let path = std::env::temp_dir().join(format!(
            "pdp-supervision-corrupt-{}.bin",
            std::process::id()
        ));
        std::fs::write(&path, [0u8, 1, 2, 3]).unwrap();
        let mut inj = FaultInjector::new(
            FaultPlan::new()
                .corrupt_checkpoint_byte(2, 0xFF)
                .corrupt_checkpoint_byte(400, 0xFF),
        );
        // the out-of-range offset is consumed but corrupts nothing
        assert_eq!(inj.corrupt_checkpoint(&path).unwrap(), 1);
        assert_eq!(inj.remaining(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), vec![0u8, 1, 0xFD, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn defaults_are_bounded() {
        let cfg = SupervisorConfig::default();
        assert!(cfg.max_heal_attempts >= 1);
        assert!(cfg.wal_retry_limit >= 1);
        assert!(cfg.checkpoint.is_none() && cfg.wal.is_none());
    }
}
