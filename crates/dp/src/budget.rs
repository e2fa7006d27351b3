//! Privacy budgets: the validated `ε` newtype and a spend ledger.
//!
//! Pattern-level DP distributes one total budget `ε` over the elements of a
//! private pattern (`Σ εᵢ = ε`, §V-B). [`Epsilon`] keeps budgets finite and
//! non-negative so distribution arithmetic cannot silently produce nonsense;
//! [`BudgetLedger`] tracks cumulative spend per protected entity.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::error::DpError;

/// A validated privacy budget: finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Epsilon(f64);

impl Epsilon {
    /// The zero budget (perfect indistinguishability under RR: `p = 1/2`).
    pub const ZERO: Epsilon = Epsilon(0.0);

    /// Construct a budget, rejecting negatives, NaN and infinities.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if value.is_finite() && value >= 0.0 {
            Ok(Epsilon(value))
        } else {
            Err(DpError::InvalidEpsilon(value))
        }
    }

    /// Construct without validation; panics in debug builds on bad input.
    ///
    /// Use for compile-time constants and arithmetic whose operands are
    /// already validated.
    pub fn new_unchecked(value: f64) -> Self {
        debug_assert!(value.is_finite() && value >= 0.0, "invalid epsilon {value}");
        Epsilon(value)
    }

    /// The raw value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// True for the zero budget.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Split evenly into `n` shares (`Σ shares = self` up to float error).
    pub fn split_even(self, n: usize) -> Result<Vec<Epsilon>, DpError> {
        if n == 0 {
            return Err(DpError::InvalidParameter(
                "cannot split a budget into zero shares".into(),
            ));
        }
        Ok(vec![Epsilon(self.0 / n as f64); n])
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, rhs: Epsilon) -> Epsilon {
        Epsilon((self.0 - rhs.0).max(0.0))
    }

    /// The smaller of two budgets.
    pub fn min(self, rhs: Epsilon) -> Epsilon {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The larger of two budgets.
    pub fn max(self, rhs: Epsilon) -> Epsilon {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }
}

impl Add for Epsilon {
    type Output = Epsilon;
    fn add(self, rhs: Epsilon) -> Epsilon {
        Epsilon(self.0 + rhs.0)
    }
}

impl AddAssign for Epsilon {
    fn add_assign(&mut self, rhs: Epsilon) {
        self.0 += rhs.0;
    }
}

impl Sub for Epsilon {
    type Output = Epsilon;
    /// Panics in debug builds if the result would be negative; use
    /// [`Epsilon::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: Epsilon) -> Epsilon {
        Epsilon::new_unchecked(self.0 - rhs.0)
    }
}

impl Mul<f64> for Epsilon {
    type Output = Epsilon;
    fn mul(self, rhs: f64) -> Epsilon {
        Epsilon::new_unchecked(self.0 * rhs)
    }
}

impl Div<f64> for Epsilon {
    type Output = Epsilon;
    fn div(self, rhs: f64) -> Epsilon {
        Epsilon::new_unchecked(self.0 / rhs)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// Tracks cumulative budget spend per protected entity.
///
/// The trusted engine keeps one ledger keyed by private-pattern id so that
/// repeated protections account their total exposure (sequential
/// composition: spends add).
#[derive(Debug, Clone)]
pub struct BudgetLedger<K: Eq + Hash> {
    limit: Option<Epsilon>,
    spent: HashMap<K, Epsilon>,
}

impl<K: Eq + Hash + Clone> BudgetLedger<K> {
    /// A ledger with no cap: spends are recorded but never refused.
    pub fn unlimited() -> Self {
        BudgetLedger {
            limit: None,
            spent: HashMap::new(),
        }
    }

    /// A ledger that refuses spends pushing any key past `limit`.
    pub fn with_limit(limit: Epsilon) -> Self {
        BudgetLedger {
            limit: Some(limit),
            spent: HashMap::new(),
        }
    }

    /// Record a spend for `key`; errors if the cap would be exceeded.
    pub fn spend(&mut self, key: K, amount: Epsilon) -> Result<(), DpError> {
        self.spend_repeated(key, amount, 1)
    }

    /// Record `times` sequential spends of `amount` for `key` with a
    /// single ledger lookup. Bit-identical to calling
    /// [`BudgetLedger::spend`] `times` times (same repeated-addition float
    /// semantics, same per-step cap check; on refusal the steps before the
    /// failing one remain recorded) — the batch form the release hot path
    /// uses to charge a window run without re-hashing per release.
    pub fn spend_repeated(&mut self, key: K, amount: Epsilon, times: usize) -> Result<(), DpError> {
        if times == 0 {
            return Ok(());
        }
        // check the first step before touching the map: a fully refused
        // spend must leave the ledger unchanged (no zero-value entry)
        if let Some(limit) = self.limit {
            let current = self.spent.get(&key).copied().unwrap_or(Epsilon::ZERO);
            let remaining = limit.saturating_sub(current);
            if amount.value() > remaining.value() + 1e-12 {
                return Err(DpError::BudgetExhausted {
                    requested: amount.value(),
                    remaining: remaining.value(),
                });
            }
        }
        let slot = self.spent.entry(key).or_insert(Epsilon::ZERO);
        *slot += amount;
        for _ in 1..times {
            if let Some(limit) = self.limit {
                let remaining = limit.saturating_sub(*slot);
                if amount.value() > remaining.value() + 1e-12 {
                    return Err(DpError::BudgetExhausted {
                        requested: amount.value(),
                        remaining: remaining.value(),
                    });
                }
            }
            *slot += amount;
        }
        Ok(())
    }

    /// Total spent for `key` so far.
    pub fn spent(&self, key: &K) -> Epsilon {
        self.spent.get(key).copied().unwrap_or(Epsilon::ZERO)
    }

    /// Remaining budget for `key` (`None` if the ledger is unlimited).
    pub fn remaining(&self, key: &K) -> Option<Epsilon> {
        self.limit.map(|l| l.saturating_sub(self.spent(key)))
    }

    /// Number of keys with recorded spend.
    pub fn tracked_keys(&self) -> usize {
        self.spent.len()
    }
}

impl<K: Eq + Hash + Clone + Ord> BudgetLedger<K> {
    /// Plain-data snapshot of the ledger, with spends sorted by key so
    /// two snapshots of equal ledgers are byte-identical (the checkpoint
    /// determinism requirement).
    pub fn snapshot(&self) -> BudgetLedgerSnapshot<K> {
        let mut spent: Vec<(K, Epsilon)> =
            self.spent.iter().map(|(k, &v)| (k.clone(), v)).collect();
        spent.sort_by(|a, b| a.0.cmp(&b.0));
        BudgetLedgerSnapshot {
            limit: self.limit,
            spent,
        }
    }

    /// Rebuild a ledger from a [`BudgetLedger::snapshot`].
    pub fn restore(snapshot: BudgetLedgerSnapshot<K>) -> Self {
        BudgetLedger {
            limit: snapshot.limit,
            spent: snapshot.spent.into_iter().collect(),
        }
    }
}

/// The exact state of a [`BudgetLedger`], as sorted plain data (see
/// [`BudgetLedger::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLedgerSnapshot<K> {
    /// The ledger's cap (`None` = unlimited).
    pub limit: Option<Epsilon>,
    /// Cumulative spend per key, sorted by key.
    pub spent: Vec<(K, Epsilon)>,
}

/// Epoch-aware accounting for a dynamic control plane.
///
/// A [`BudgetLedger`] only answers "how much has this key spent in total";
/// a service whose protection is *reconfigured at runtime* (pattern churn,
/// adaptive re-distribution) additionally needs, per protected key:
///
/// * a **registered cap** — the pattern-level budget `ε` declared at
///   registration. Re-distribution (Algorithm 1) may move shares between a
///   pattern's elements across epochs, but **no single release may ever
///   charge more than the registered budget** — the invariant this ledger
///   enforces at charge time, so a buggy re-compile cannot silently
///   over-spend a tenant;
/// * **per-epoch spend** — which reconfiguration interval the exposure
///   happened in (sequential composition still adds across epochs);
/// * **retirement** — a revoked pattern stops charging immediately but its
///   recorded spend is frozen, never refunded: the information already
///   released stays released.
#[derive(Debug, Clone)]
pub struct EpochLedger<K: Eq + Hash> {
    /// Per-release cap per key (`None` value is impossible — registration
    /// is explicit).
    caps: HashMap<K, Epsilon>,
    /// Keys whose charging has been stopped, with the first epoch the stop
    /// applies to: releases of *earlier* epochs may still settle late
    /// (epoch activation lies at a window boundary in the future), so
    /// retirement is an epoch fence, not a wall-clock switch. Spend stays
    /// on the books.
    retired_from: HashMap<K, u64>,
    /// Cumulative spend per key per epoch (`BTreeMap` so per-key epoch
    /// iteration is ordered and deterministic).
    per_epoch: HashMap<K, BTreeMap<u64, Epsilon>>,
}

impl<K: Eq + Hash + Clone> EpochLedger<K> {
    /// An empty ledger: every key must be registered before it can charge.
    pub fn new() -> Self {
        EpochLedger {
            caps: HashMap::new(),
            retired_from: HashMap::new(),
            per_epoch: HashMap::new(),
        }
    }

    /// Register `key` with its per-release cap (the pattern-level budget).
    /// Registering an existing key re-activates it (lifts any retirement
    /// fence) but must not change the cap — a silent cap change would
    /// rewrite history.
    pub fn register(&mut self, key: K, cap: Epsilon) -> Result<(), DpError> {
        if let Some(&existing) = self.caps.get(&key) {
            if (existing.value() - cap.value()).abs() > 1e-12 {
                return Err(DpError::InvalidParameter(format!(
                    "key re-registered with cap {} != original {}",
                    cap.value(),
                    existing.value()
                )));
            }
        } else {
            self.caps.insert(key.clone(), cap);
        }
        self.retired_from.remove(&key);
        Ok(())
    }

    /// Stop charging `key` for epochs `>= from_epoch` (revocation takes
    /// effect with the epoch that dropped the key; earlier epochs'
    /// releases may still settle). Spend recorded so far is kept —
    /// revocation never refunds. An existing earlier fence is kept;
    /// unknown keys are a no-op.
    pub fn retire(&mut self, key: &K, from_epoch: u64) {
        if self.caps.contains_key(key) {
            let fence = self.retired_from.entry(key.clone()).or_insert(from_epoch);
            *fence = (*fence).min(from_epoch);
        }
    }

    /// True if `key` is registered with no retirement fence.
    pub fn is_active(&self, key: &K) -> bool {
        self.caps.contains_key(key) && !self.retired_from.contains_key(key)
    }

    /// Charge `times` releases of `amount` against `key` in `epoch`.
    ///
    /// Refused (ledger untouched) when `key` is unregistered, when
    /// `epoch` lies at or past `key`'s retirement fence, or when `amount`
    /// exceeds the registered cap — each release's charge is the
    /// pattern's whole per-release distribution total, so the cap check
    /// is exactly the "re-distribution must conserve `Σεᵢ = ε`"
    /// enforcement.
    pub fn charge_releases(
        &mut self,
        key: K,
        epoch: u64,
        amount: Epsilon,
        times: usize,
    ) -> Result<(), DpError> {
        if times == 0 {
            return Ok(());
        }
        let Some(&cap) = self.caps.get(&key) else {
            return Err(DpError::InvalidParameter(
                "charge for an unregistered key".into(),
            ));
        };
        if self.retired_from.get(&key).is_some_and(|&r| epoch >= r) {
            return Err(DpError::InvalidParameter("charge for a retired key".into()));
        }
        if amount.value() > cap.value() + 1e-12 {
            return Err(DpError::BudgetExhausted {
                requested: amount.value(),
                remaining: cap.value(),
            });
        }
        let slot = self
            .per_epoch
            .entry(key)
            .or_default()
            .entry(epoch)
            .or_insert(Epsilon::ZERO);
        for _ in 0..times {
            *slot += amount;
        }
        Ok(())
    }

    /// Total spend of `key` across every epoch, or `None` if `key` was
    /// never registered (unknown-key behaviour is explicit, not zero).
    pub fn try_spent(&self, key: &K) -> Option<Epsilon> {
        self.caps.get(key)?;
        Some(
            self.per_epoch
                .get(key)
                .map(|by| by.values().fold(Epsilon::ZERO, |acc, &e| acc + e))
                .unwrap_or(Epsilon::ZERO),
        )
    }

    /// Spend of `key` inside one epoch (`None` for unregistered keys).
    pub fn spent_in_epoch(&self, key: &K, epoch: u64) -> Option<Epsilon> {
        self.caps.get(key)?;
        Some(
            self.per_epoch
                .get(key)
                .and_then(|by| by.get(&epoch).copied())
                .unwrap_or(Epsilon::ZERO),
        )
    }

    /// The epochs in which `key` spent anything, ascending.
    pub fn epochs(&self, key: &K) -> Vec<u64> {
        self.per_epoch
            .get(key)
            .map(|by| by.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Every registered key (retired ones included), in arbitrary order.
    pub fn keys(&self) -> Vec<K> {
        self.caps.keys().cloned().collect()
    }
}

impl<K: Eq + Hash + Clone + Ord> EpochLedger<K> {
    /// Plain-data snapshot: caps, retirement fences and per-epoch spend,
    /// each sorted by key so equal ledgers snapshot byte-identically.
    pub fn snapshot(&self) -> EpochLedgerSnapshot<K> {
        let mut caps: Vec<(K, Epsilon)> = self.caps.iter().map(|(k, &v)| (k.clone(), v)).collect();
        caps.sort_by(|a, b| a.0.cmp(&b.0));
        let mut retired_from: Vec<(K, u64)> = self
            .retired_from
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        retired_from.sort_by(|a, b| a.0.cmp(&b.0));
        let mut per_epoch: Vec<(K, Vec<(u64, Epsilon)>)> = self
            .per_epoch
            .iter()
            .map(|(k, by)| (k.clone(), by.iter().map(|(&e, &v)| (e, v)).collect()))
            .collect();
        per_epoch.sort_by(|a, b| a.0.cmp(&b.0));
        EpochLedgerSnapshot {
            caps,
            retired_from,
            per_epoch,
        }
    }

    /// Rebuild a ledger from an [`EpochLedger::snapshot`].
    pub fn restore(snapshot: EpochLedgerSnapshot<K>) -> Self {
        EpochLedger {
            caps: snapshot.caps.into_iter().collect(),
            retired_from: snapshot.retired_from.into_iter().collect(),
            per_epoch: snapshot
                .per_epoch
                .into_iter()
                .map(|(k, by)| (k, by.into_iter().collect()))
                .collect(),
        }
    }
}

/// The exact state of an [`EpochLedger`], as sorted plain data (see
/// [`EpochLedger::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochLedgerSnapshot<K> {
    /// Registered per-release caps, sorted by key.
    pub caps: Vec<(K, Epsilon)>,
    /// Retirement fences (first stopped epoch), sorted by key.
    pub retired_from: Vec<(K, u64)>,
    /// Cumulative spend per key per epoch (epochs ascending), sorted by
    /// key.
    pub per_epoch: Vec<(K, Vec<(u64, Epsilon)>)>,
}

impl<K: Eq + Hash + Clone> Default for EpochLedger<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_budgets() {
        assert!(Epsilon::new(-0.1).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(0.0).is_ok());
        assert!(Epsilon::new(3.5).is_ok());
    }

    #[test]
    fn split_even_sums_back() {
        let e = Epsilon::new(1.0).unwrap();
        let shares = e.split_even(3).unwrap();
        assert_eq!(shares.len(), 3);
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(e.split_even(0).is_err());
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Epsilon::new(2.0).unwrap();
        let b = Epsilon::new(0.5).unwrap();
        assert_eq!((a + b).value(), 2.5);
        assert_eq!((a - b).value(), 1.5);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!((a / 4.0).value(), 0.5);
        assert_eq!(b.saturating_sub(a), Epsilon::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn ledger_caps_spend_per_key() {
        let mut ledger = BudgetLedger::with_limit(Epsilon::new(1.0).unwrap());
        ledger.spend("pat", Epsilon::new(0.6).unwrap()).unwrap();
        ledger.spend("pat", Epsilon::new(0.4).unwrap()).unwrap();
        let err = ledger.spend("pat", Epsilon::new(0.1).unwrap()).unwrap_err();
        assert!(matches!(err, DpError::BudgetExhausted { .. }));
        // other keys unaffected
        ledger.spend("other", Epsilon::new(1.0).unwrap()).unwrap();
        assert_eq!(ledger.tracked_keys(), 2);
        assert!(ledger.remaining(&"pat").unwrap().value() < 1e-9);
    }

    #[test]
    fn spend_repeated_matches_sequential_spends() {
        let amount = Epsilon::new(0.3).unwrap();
        let mut seq = BudgetLedger::unlimited();
        for _ in 0..7 {
            seq.spend("k", amount).unwrap();
        }
        let mut rep = BudgetLedger::unlimited();
        rep.spend_repeated("k", amount, 7).unwrap();
        // bit-identical, not just close: same repeated-addition order
        assert_eq!(seq.spent(&"k").value(), rep.spent(&"k").value());
        // capped: refusal leaves the pre-failure steps recorded, like the
        // sequential loop would
        let mut capped = BudgetLedger::with_limit(Epsilon::new(1.0).unwrap());
        assert!(capped.spend_repeated("k", amount, 7).is_err());
        let mut capped_seq = BudgetLedger::with_limit(Epsilon::new(1.0).unwrap());
        let mut spent = 0;
        while capped_seq.spend("k", amount).is_ok() {
            spent += 1;
        }
        assert_eq!(spent, 3);
        assert_eq!(capped.spent(&"k").value(), capped_seq.spent(&"k").value());
        // zero repetitions are a no-op
        capped.spend_repeated("fresh", amount, 0).unwrap();
        assert_eq!(capped.spent(&"fresh"), Epsilon::ZERO);
    }

    #[test]
    fn fully_refused_spend_leaves_ledger_untouched() {
        let mut ledger = BudgetLedger::with_limit(Epsilon::new(1.0).unwrap());
        assert!(ledger.spend("k", Epsilon::new(2.0).unwrap()).is_err());
        assert_eq!(ledger.tracked_keys(), 0, "no zero-value entry recorded");
        assert!(ledger
            .spend_repeated("k", Epsilon::new(2.0).unwrap(), 3)
            .is_err());
        assert_eq!(ledger.tracked_keys(), 0);
        // a partially refused spend keeps its progress, like the
        // sequential loop it mirrors
        assert!(ledger
            .spend_repeated("k", Epsilon::new(0.6).unwrap(), 2)
            .is_err());
        assert_eq!(ledger.tracked_keys(), 1);
        assert!((ledger.spent(&"k").value() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn unlimited_ledger_never_refuses() {
        let mut ledger = BudgetLedger::unlimited();
        for _ in 0..100 {
            ledger.spend(0u32, Epsilon::new(10.0).unwrap()).unwrap();
        }
        assert!((ledger.spent(&0).value() - 1000.0).abs() < 1e-9);
        assert_eq!(ledger.remaining(&0), None);
    }

    #[test]
    fn epoch_ledger_requires_registration_and_enforces_caps() {
        let mut ledger = EpochLedger::new();
        let eps1 = Epsilon::new(1.0).unwrap();
        assert!(ledger.charge_releases("p", 0, eps1, 1).is_err());
        assert_eq!(ledger.try_spent(&"p"), None, "unknown key is explicit");
        ledger.register("p", eps1).unwrap();
        assert_eq!(ledger.try_spent(&"p"), Some(Epsilon::ZERO));
        ledger.charge_releases("p", 0, eps1, 3).unwrap();
        assert!((ledger.try_spent(&"p").unwrap().value() - 3.0).abs() < 1e-12);
        // a single release may never exceed the registered pattern budget
        let err = ledger
            .charge_releases("p", 1, Epsilon::new(1.5).unwrap(), 1)
            .unwrap_err();
        assert!(matches!(err, DpError::BudgetExhausted { .. }));
        // the refused charge left nothing behind
        assert_eq!(ledger.spent_in_epoch(&"p", 1), Some(Epsilon::ZERO));
        // re-registering with a different cap is rejected
        assert!(ledger.register("p", Epsilon::new(2.0).unwrap()).is_err());
        assert!(ledger.register("p", eps1).is_ok());
    }

    #[test]
    fn epoch_ledger_retirement_freezes_spend() {
        let mut ledger = EpochLedger::new();
        let eps = Epsilon::new(0.5).unwrap();
        ledger.register(7u32, eps).unwrap();
        ledger.charge_releases(7, 0, eps, 4).unwrap();
        // revoked with epoch 1: the fence stops epoch >= 1 …
        ledger.retire(&7, 1);
        assert!(!ledger.is_active(&7));
        assert!(ledger.charge_releases(7, 1, eps, 1).is_err());
        // … but epoch-0 releases that settle late still charge epoch 0
        ledger.charge_releases(7, 0, eps, 1).unwrap();
        // spend stays on the books — revocation never refunds
        assert!((ledger.try_spent(&7).unwrap().value() - 2.5).abs() < 1e-12);
        // re-registration lifts the fence at the same cap
        ledger.register(7, eps).unwrap();
        ledger.charge_releases(7, 2, eps, 1).unwrap();
        assert_eq!(ledger.epochs(&7), vec![0, 2]);
        // retiring an unknown key is a no-op
        ledger.retire(&9, 0);
        assert!(!ledger.is_active(&9));
        assert_eq!(ledger.try_spent(&9), None);
    }

    #[test]
    fn ledger_snapshots_round_trip() {
        let mut ledger = BudgetLedger::with_limit(Epsilon::new(2.0).unwrap());
        ledger.spend(3u32, Epsilon::new(0.5).unwrap()).unwrap();
        ledger.spend(1u32, Epsilon::new(1.0).unwrap()).unwrap();
        let snap = ledger.snapshot();
        assert_eq!(snap.spent.iter().map(|e| e.0).collect::<Vec<_>>(), [1, 3]);
        let restored = BudgetLedger::restore(snap.clone());
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.spent(&3).value(), 0.5);
        assert_eq!(restored.remaining(&1).unwrap().value(), 1.0);

        let eps = Epsilon::new(0.5).unwrap();
        let mut epoch = EpochLedger::new();
        epoch.register(9u32, eps).unwrap();
        epoch.register(2u32, eps).unwrap();
        epoch.charge_releases(9, 0, eps, 2).unwrap();
        epoch.charge_releases(9, 3, eps, 1).unwrap();
        epoch.retire(&2, 1);
        let snap = epoch.snapshot();
        assert_eq!(snap.caps.iter().map(|e| e.0).collect::<Vec<_>>(), [2, 9]);
        let restored = EpochLedger::restore(snap.clone());
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.epochs(&9), vec![0, 3]);
        assert!(!restored.is_active(&2));
        assert!((restored.try_spent(&9).unwrap().value() - 1.5).abs() < 1e-12);
    }

    proptest! {
        /// The dynamic-setting budget property: across arbitrary epoch
        /// schedules (charges, retirements, re-activations), (a) no single
        /// release ever charges more than the registered pattern budget,
        /// (b) total spend is exactly the sum of the per-epoch spends, and
        /// (c) spend recorded before a retirement survives it.
        #[test]
        fn epoch_ledger_conserves_across_epochs(
            cap in 0.1f64..4.0,
            schedule in proptest::collection::vec(
                (0u64..6, 0.0f64..5.0, 1usize..4, any::<bool>()), 1..40),
        ) {
            let cap = Epsilon::new(cap).unwrap();
            let mut ledger = EpochLedger::new();
            ledger.register("k", cap).unwrap();
            let mut expected = 0.0f64;
            let mut frozen_floor = 0.0f64;
            let mut fence: Option<u64> = None;
            for (epoch, amount, times, toggle_retire) in schedule {
                let amount = Epsilon::new(amount).unwrap();
                let result = ledger.charge_releases("k", epoch, amount, times);
                let fenced = fence.is_some_and(|r| epoch >= r);
                if !fenced && amount.value() <= cap.value() + 1e-12 {
                    prop_assert!(result.is_ok());
                    for _ in 0..times {
                        expected += amount.value();
                    }
                } else {
                    // over-cap or past the retirement fence: refused,
                    // nothing recorded
                    prop_assert!(result.is_err());
                }
                if toggle_retire {
                    if fence.is_none() {
                        ledger.retire(&"k", epoch);
                        fence = Some(epoch);
                        frozen_floor = expected;
                    } else {
                        ledger.register("k", cap).unwrap();
                        fence = None;
                    }
                }
                let total = ledger.try_spent(&"k").unwrap().value();
                let per_epoch_sum: f64 = ledger
                    .epochs(&"k")
                    .iter()
                    .map(|&e| ledger.spent_in_epoch(&"k", e).unwrap().value())
                    .sum();
                prop_assert!((total - per_epoch_sum).abs() < 1e-9);
                prop_assert!((total - expected).abs() < 1e-9);
                prop_assert!(total + 1e-9 >= frozen_floor, "retirement refunded spend");
            }
        }

        /// The dense-index refactor property: a per-subject ledger table
        /// keyed by dense interned indices (`Vec<EpochLedger>` plus a
        /// subject→index map — the sharded service's zero-hash layout) is
        /// observationally equal to the `HashMap`-keyed table it
        /// replaced: same accept/refuse decisions, same spends, same
        /// epoch decomposition, and identical sorted-by-subject
        /// checkpoint snapshots.
        #[test]
        fn dense_ledger_table_matches_hashmap_table(
            cap in 0.5f64..2.0,
            ops in proptest::collection::vec(
                (0u64..6, 0u32..3, 0u64..4, 0.1f64..2.0, 1usize..3, 0u8..3), 1..60),
        ) {
            let cap = Epsilon::new(cap).unwrap();
            let mut sparse: HashMap<u64, EpochLedger<u32>> = HashMap::new();
            let mut index: HashMap<u64, usize> = HashMap::new();
            let mut dense: Vec<EpochLedger<u32>> = Vec::new();
            for (subject, pattern, epoch, amount, times, op) in ops {
                let amount = Epsilon::new(amount).unwrap();
                // intern on first touch: the control plane assigns each
                // subject its dense index exactly once
                let slot = *index.entry(subject).or_insert_with(|| {
                    dense.push(EpochLedger::new());
                    dense.len() - 1
                });
                let model = sparse.entry(subject).or_default();
                let table = &mut dense[slot];
                match op {
                    0 => prop_assert_eq!(
                        model.register(pattern, cap).is_ok(),
                        table.register(pattern, cap).is_ok()
                    ),
                    1 => prop_assert_eq!(
                        model.charge_releases(pattern, epoch, amount, times).is_ok(),
                        table.charge_releases(pattern, epoch, amount, times).is_ok()
                    ),
                    _ => {
                        model.retire(&pattern, epoch);
                        table.retire(&pattern, epoch);
                    }
                }
                // every observation agrees after every operation
                prop_assert_eq!(model.is_active(&pattern), table.is_active(&pattern));
                prop_assert_eq!(model.try_spent(&pattern), table.try_spent(&pattern));
                prop_assert_eq!(model.epochs(&pattern), table.epochs(&pattern));
                prop_assert_eq!(
                    model.spent_in_epoch(&pattern, epoch),
                    table.spent_in_epoch(&pattern, epoch)
                );
            }
            // the dense table iterated through the subject→index map in
            // subject order reproduces the sparse table's checkpoint
            // image bit for bit
            let mut subjects: Vec<u64> = index.keys().copied().collect();
            subjects.sort_unstable();
            for s in subjects {
                prop_assert_eq!(sparse[&s].snapshot(), dense[index[&s]].snapshot());
            }
        }

        #[test]
        fn split_even_conserves(total in 0.0f64..100.0, n in 1usize..50) {
            let e = Epsilon::new(total).unwrap();
            let shares = e.split_even(n).unwrap();
            let sum: f64 = shares.iter().map(|s| s.value()).sum();
            prop_assert!((sum - total).abs() < 1e-9);
        }

        #[test]
        fn saturating_sub_never_negative(a in 0.0f64..10.0, b in 0.0f64..10.0) {
            let r = Epsilon::new(a).unwrap().saturating_sub(Epsilon::new(b).unwrap());
            prop_assert!(r.value() >= 0.0);
        }
    }
}
