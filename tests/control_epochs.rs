//! Acceptance tests for the epoch-based dynamic control plane:
//!
//! * the **adaptive PPM runs online** — an epoch transition with history
//!   produces exactly the distribution `optimize_all` (Algorithm 1)
//!   computes on the control plane's effective history, and it is
//!   genuinely non-uniform on skewed workloads;
//! * **budget accounting is ledger-enforced across epochs** — each
//!   release charges a pattern its registered pattern-level ε and never
//!   more, re-distribution across epochs conserves the per-release total,
//!   and revocation freezes (never refunds) spend. Property-tested over
//!   random churn schedules through the real service release path.

use pattern_dp_repro::cep::Pattern;
use pattern_dp_repro::core::{
    optimize_all, AdaptiveConfig, KeyedEvent, PpmKind, QualityModel, ServiceBuilder, ServiceConfig,
    StreamingConfig, SubjectId,
};
use pattern_dp_repro::dp::Epsilon;
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{
    Event, EventType, IndicatorVector, TimeDelta, Timestamp, WindowedIndicators,
};
use proptest::prelude::*;

const WINDOW: TimeDelta = TimeDelta::from_millis(10);

fn t(i: u32) -> EventType {
    EventType(i)
}

fn ke(subject: u64, ty: u32, ms: i64) -> KeyedEvent {
    KeyedEvent::new(
        SubjectId(subject),
        Event::new(t(ty), Timestamp::from_millis(ms)),
    )
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn config(ppm: PpmKind, history_window: usize) -> ServiceConfig {
    ServiceConfig {
        n_shards: 1,
        n_types: 3,
        alpha: Alpha::HALF,
        ppm,
        streaming: StreamingConfig::tumbling(WINDOW),
        max_delay: TimeDelta::from_millis(4),
        seed: 99,
        history_window,
    }
}

/// History where the target (types 0, 2) rides on type 0 while the
/// private-only type 1 is rare: Algorithm 1 shifts budget toward the
/// shared element 0.
fn skewed_history(n: usize) -> WindowedIndicators {
    let mut windows = Vec::new();
    for k in 0..n {
        let mut present = Vec::new();
        if k % 2 == 0 {
            present.extend([t(0), t(2)]);
        }
        if k % 5 == 0 {
            present.push(t(1));
        }
        windows.push(IndicatorVector::from_present(present, 3));
    }
    WindowedIndicators::new(windows)
}

#[test]
fn epoch_transition_runs_optimize_all_on_the_effective_history() {
    let total = eps(2.0);
    let adaptive = AdaptiveConfig::default();
    let mut b = ServiceBuilder::new(config(
        PpmKind::Adaptive {
            eps: total,
            config: adaptive,
        },
        64,
    ))
    .unwrap();
    let private =
        b.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
    b.register_target_query("target", Pattern::seq("q", vec![t(0), t(2)]).unwrap());
    b.provide_history(skewed_history(40));
    let mut svc = b.build().unwrap();

    // serve a while: releases flow into the sliding history
    svc.push_batch(vec![ke(1, 0, 2), ke(1, 2, 3)]).unwrap();
    let out = svc.advance_watermark(Timestamp::from_millis(100)).unwrap();
    assert!(!out.merged.is_empty());

    // a fresh explicit grant joins the sliding history at the transition
    svc.provide_history(skewed_history(60));
    let transition = svc.begin_epoch().unwrap().expect("history staged");
    let plan = &transition.plan;

    // the acceptance criterion: the epoch's distribution IS optimize_all
    // over the same WindowedIndicators the control plane reports
    let history = svc.control().effective_history().expect("history exists");
    assert!(
        history.len() > 60,
        "effective history includes released windows, got {}",
        history.len()
    );
    // mirror the plan compile's cross-query dedup (first-reference order)
    let mut targets: Vec<_> = Vec::new();
    for q in plan.core.queries() {
        for pid in q.spec.referenced_patterns() {
            if !targets.contains(&pid) {
                targets.push(pid);
            }
        }
    }
    let model =
        QualityModel::new(history, svc.control().patterns(), &targets, Alpha::HALF).unwrap();
    let expected = optimize_all(
        svc.control().patterns(),
        &svc.control().active_private(),
        total,
        &model,
        3,
        &adaptive,
    )
    .unwrap();
    let got = plan.core.pipeline().assignments();
    assert_eq!(got.len(), expected.len());
    for ((gid, gdist), (eid, edist)) in got.iter().zip(&expected) {
        assert_eq!(gid, eid);
        assert_eq!(gid, &private);
        for (g, e) in gdist.shares().iter().zip(edist.shares()) {
            assert!((g.value() - e.value()).abs() < 1e-12, "{g} vs {e}");
        }
    }

    // non-uniform on the skewed workload, and conserving Σεᵢ = ε
    let shares = got[0].1.shares();
    assert!(
        shares[0].value() > shares[1].value() + 1e-6,
        "expected skew toward the shared element: {shares:?}"
    );
    let sum: f64 = shares.iter().map(|s| s.value()).sum();
    assert!((sum - total.value()).abs() < 1e-9);
}

#[test]
fn sliding_history_alone_feeds_the_online_optimizer() {
    // no new explicit grant: the transition optimizes on what the service
    // itself released (initial grant + sliding tail)
    let mut b = ServiceBuilder::new(config(
        PpmKind::Adaptive {
            eps: eps(1.0),
            config: AdaptiveConfig::default(),
        },
        8,
    ))
    .unwrap();
    b.register_private_pattern(SubjectId(1), Pattern::seq("p", vec![t(0), t(1)]).unwrap());
    b.register_target_query("target", Pattern::seq("q", vec![t(0), t(2)]).unwrap());
    b.provide_history(skewed_history(20));
    let mut svc = b.build().unwrap();
    svc.push_batch(vec![ke(1, 0, 2)]).unwrap();
    svc.advance_watermark(Timestamp::from_millis(200)).unwrap();
    // > 8 windows released, but the sliding tail is bounded at 8
    let history = svc.control().effective_history().unwrap();
    assert_eq!(history.len(), 20 + 8);
    // stage a structural command and transition on the sliding history
    svc.register_subject(SubjectId(2));
    let transition = svc.begin_epoch().unwrap().expect("staged");
    assert_eq!(transition.plan.epoch, 1);
    assert_eq!(transition.plan.core.pipeline().assignments().len(), 1);
}

/// One uniform-PPM service driven through a churn schedule; checks the
/// ledger invariants the acceptance criteria name. Returns releases per
/// epoch for the extra per-epoch assertions.
fn run_churn_schedule(batches_before: usize, batches_after: usize, events_per_batch: usize) {
    let total = eps(1.5);
    let mut b = ServiceBuilder::new(config(PpmKind::Uniform { eps: total }, 0)).unwrap();
    let p1 = b.register_private_pattern(SubjectId(1), Pattern::seq("a", vec![t(0), t(1)]).unwrap());
    let p2 = b.register_private_pattern(SubjectId(2), Pattern::single("b", t(2)));
    b.register_target_query("t2?", Pattern::single("t2", t(2)));
    let mut svc = b.build().unwrap();

    let mut clock = 0i64;
    let mut merged = Vec::new();
    let mut push = |svc: &mut pattern_dp_repro::core::ShardedService,
                    merged: &mut Vec<pattern_dp_repro::core::MergedRelease>,
                    n: usize| {
        let mut batch = Vec::new();
        for _ in 0..n {
            clock += 3;
            batch.push(ke(1 + (clock as u64 % 2), (clock % 3) as u32, clock));
        }
        merged.extend(svc.push_batch(batch).unwrap().merged);
    };
    for _ in 0..batches_before {
        push(&mut svc, &mut merged, events_per_batch);
    }
    // subject 1 revokes their pattern; subject 2 stays
    svc.revoke_private_pattern(SubjectId(1), p1).unwrap();
    let transition = svc.begin_epoch().unwrap().expect("staged");
    let boundary = transition.activation_index;
    for _ in 0..batches_after {
        push(&mut svc, &mut merged, events_per_batch);
    }
    merged.extend(svc.finish().unwrap().merged);
    // split by the activation boundary: the window index, not the push
    // that delivered a window, is the authoritative epoch split
    let epoch0_releases = merged.iter().filter(|m| m.index < boundary).count();
    let epoch1_releases = merged.len() - epoch0_releases;

    // counted releases match the boundary split
    assert_eq!(epoch0_releases, boundary);

    // --- the ledger invariants ---
    let spent1 = svc.budget_spent(SubjectId(1), p1).unwrap().value();
    let spent2 = svc.budget_spent(SubjectId(2), p2).unwrap().value();
    // (1) every release charges exactly the registered pattern budget ε,
    // and only while the pattern was active: p1 spent ε per epoch-0
    // release and froze at revocation …
    assert!((spent1 - total.value() * epoch0_releases as f64).abs() < 1e-9);
    // … while p2 kept charging through both epochs
    assert!((spent2 - total.value() * (epoch0_releases + epoch1_releases) as f64).abs() < 1e-9);
    // (2) per-epoch spend decomposes the total and respects the
    // per-release cap (the registered pattern budget) in every epoch
    for (subject, pid) in [(SubjectId(1), p1), (SubjectId(2), p2)] {
        let mut sum = 0.0;
        for (epoch, releases) in [(0u64, epoch0_releases), (1, epoch1_releases)] {
            let in_epoch = svc
                .budget_spent_in_epoch(subject, pid, epoch)
                .unwrap()
                .value();
            sum += in_epoch;
            assert!(
                in_epoch <= total.value() * releases as f64 + 1e-9,
                "epoch {epoch} overcharged: {in_epoch}"
            );
        }
        let spent = svc.budget_spent(subject, pid).unwrap().value();
        assert!((sum - spent).abs() < 1e-9, "epoch spends must sum to total");
    }
    // (3) revoked pattern charged nothing in epoch 1
    let p1_epoch1 = svc.budget_spent_in_epoch(SubjectId(1), p1, 1).unwrap();
    assert_eq!(p1_epoch1, Epsilon::ZERO);
}

#[test]
fn churn_schedule_ledger_invariants_hold() {
    run_churn_schedule(3, 4, 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The acceptance property: across random churn schedules, total
    /// per-subject spend across epochs never exceeds the registered
    /// pattern budget × the releases the pattern was active for,
    /// per-epoch spends decompose the total, and revocation freezes
    /// spend — all enforced by the epoch ledgers through the real
    /// release path.
    #[test]
    fn ledger_invariants_hold_across_random_schedules(
        batches_before in 1usize..5,
        batches_after in 1usize..5,
        events_per_batch in 4usize..24,
    ) {
        run_churn_schedule(batches_before, batches_after, events_per_batch);
    }
}
