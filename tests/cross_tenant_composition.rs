//! Pins how the deployed service composes privacy across tenants today.
//!
//! * **One flip table for everyone.** An epoch compiles every active
//!   private pattern of every subject into a single flip table, so a type
//!   is flipped with the serial composition `p ⊕ q = p + q − 2pq` of the
//!   per-element flips of *every* pattern, of any subject, that contains
//!   it. On the benchmark's workload shapes (declared below) every type
//!   sits in several patterns and every released bit is flipped with
//!   probability ≈ ½.
//! * **One indicator vector per shard.** A shard detects and flips one
//!   window over the events of all its co-located subjects. Subject A's
//!   type is flipped because subject B made it private, and a target
//!   `a ∧ c` is detected from A's `a` and B's `c`.
//!
//! The expected values here are today's behaviour, not the paper's
//! per-subject guarantee (Thm. 1 composes flips over one subject's own
//! patterns). A change to per-subject protection changes them on purpose.

use pattern_dp_repro::cep::Pattern;
use pattern_dp_repro::core::{
    ControlPlane, ControlPlaneConfig, KeyedEvent, PpmKind, ServiceBuilder, ServiceConfig,
    StreamingConfig, SubjectId, VecSink,
};
use pattern_dp_repro::dp::{Epsilon, FlipProb};
use pattern_dp_repro::metrics::Alpha;
use pattern_dp_repro::stream::{Event, EventType, TimeDelta, Timestamp};

fn t(i: u32) -> EventType {
    EventType(i)
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// The pattern layout of one benchmark workload: private patterns and
/// target queries are runs of consecutive types (mod `n_types`), the
/// `i`-th private pattern starting at type `i` and owned by subject
/// `i · n_subjects / n_private`; the `q`-th query starting at type `q`.
struct Shape {
    name: &'static str,
    n_subjects: u64,
    n_types: usize,
    n_private: usize,
    private_len: usize,
    n_queries: usize,
    query_len: usize,
    /// Private patterns on every type (each of the `private_len` runs
    /// through a type, `n_private / n_types` times over).
    per_type: i32,
}

const SHAPES: [Shape; 5] = [
    Shape {
        name: "sparse-1shard",
        n_subjects: 256,
        n_types: 32,
        n_private: 64,
        private_len: 2,
        n_queries: 2,
        query_len: 1,
        per_type: 4,
    },
    Shape {
        name: "sparse-4shard",
        n_subjects: 256,
        n_types: 32,
        n_private: 64,
        private_len: 2,
        n_queries: 2,
        query_len: 1,
        per_type: 4,
    },
    Shape {
        name: "dense-4shard",
        n_subjects: 65_536,
        n_types: 256,
        n_private: 1024,
        private_len: 2,
        n_queries: 2,
        query_len: 1,
        per_type: 8,
    },
    Shape {
        name: "edge",
        n_subjects: 4096,
        n_types: 32,
        n_private: 64,
        private_len: 2,
        n_queries: 8,
        query_len: 1,
        per_type: 4,
    },
    Shape {
        name: "durable-churn",
        n_subjects: 256,
        n_types: 32,
        n_private: 64,
        private_len: 3,
        n_queries: 8,
        query_len: 2,
        per_type: 6,
    },
];

impl Shape {
    fn run(&self, name: &str, first: usize, len: usize) -> Pattern {
        let types = (0..len)
            .map(|j| t(((first + j) % self.n_types) as u32))
            .collect();
        Pattern::seq(name, types).unwrap()
    }

    /// The per-type flip probabilities of a uniform ε = 1 compile.
    fn compiled_probs(&self) -> Vec<FlipProb> {
        let mut control = ControlPlane::new(ControlPlaneConfig {
            n_types: self.n_types,
            alpha: Alpha::HALF,
            ppm: PpmKind::Uniform { eps: eps(1.0) },
            history_window: 0,
        });
        // subjects without patterns do not reach the flip table
        let stride = self.n_subjects / self.n_private as u64;
        for i in 0..self.n_private {
            let owner = SubjectId(i as u64 * stride);
            control.register_private_pattern(owner, self.run("private", i, self.private_len));
        }
        for q in 0..self.n_queries {
            control.add_consumer_query("query", self.run("query", q, self.query_len));
        }
        let plan = control.compile_initial().unwrap();
        plan.core.pipeline().flip_table().probs().to_vec()
    }
}

#[test]
fn benchmark_shapes_flip_every_type_with_probability_near_one_half() {
    for shape in &SHAPES {
        let probs = shape.compiled_probs();
        assert_eq!(probs.len(), shape.n_types, "{}", shape.name);
        // one pattern element's flip under the uniform split of ε = 1 …
        let element = FlipProb::from_epsilon(eps(1.0 / shape.private_len as f64));
        // … composed once per pattern on the type, whoever owns it
        let composed =
            (0..shape.per_type).fold(FlipProb::new(0.0).unwrap(), |acc, _| acc.compose(element));
        let closed_form = 0.5 * (1.0 - (1.0 - 2.0 * element.value()).powi(shape.per_type));
        assert!((composed.value() - closed_form).abs() < 1e-12);
        for (ty, p) in probs.iter().enumerate() {
            assert_eq!(*p, composed, "{} type {ty}", shape.name);
        }
        let p = composed.value();
        match shape.per_type {
            4 => assert!((p - 0.498).abs() < 5e-4, "{}: p = {p}", shape.name),
            _ => assert!((p - 0.499_99).abs() < 5e-6, "{}: p = {p}", shape.name),
        }
    }
}

fn ke(subject: u64, ty: u32, ms: i64) -> KeyedEvent {
    KeyedEvent::new(
        SubjectId(subject),
        Event::new(t(ty), Timestamp::from_millis(ms)),
    )
}

/// Two subjects on one shard: A (1) registers nothing, B (2) makes type
/// `b` private. A's `b` is flipped for B's sake, and a target `a ∧ c`
/// fires on A's `a` plus B's `c`.
#[test]
fn co_located_subjects_share_one_flipped_window() {
    const A: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;
    const WINDOWS: i64 = 64;
    let mut builder = ServiceBuilder::new(ServiceConfig {
        n_shards: 1,
        n_types: 3,
        alpha: Alpha::HALF,
        ppm: PpmKind::Uniform { eps: eps(1.0) },
        streaming: StreamingConfig::tumbling(TimeDelta::from_millis(10)),
        max_delay: TimeDelta::from_millis(2),
        seed: 3,
        history_window: 0,
    })
    .unwrap();
    builder.register_subject(SubjectId(1));
    builder.register_private_pattern(SubjectId(2), Pattern::single("b", t(B)));
    let (a_and_c, _) =
        builder.register_target_query("a∧c?", Pattern::seq("ac", vec![t(A), t(C)]).unwrap());
    let mut svc = builder.build().unwrap();

    // every window: A holds `a` and `b`, B holds `c`; neither alone
    // holds both `a` and `c`
    let mut sink = VecSink::all();
    for w in 0..WINDOWS {
        let base = w * 10;
        let batch = vec![ke(1, A, base + 1), ke(1, B, base + 2), ke(2, C, base + 3)];
        svc.push_batch_into(batch, &mut sink).unwrap();
    }
    svc.finish_into(&mut sink).unwrap();
    assert_eq!(sink.merged.len(), WINDOWS as usize);

    let mut b_flipped = 0;
    for merged in &sink.merged {
        let released = &merged.protected_any;
        // neither `a` nor `c` is private to anyone: both pass through …
        assert!(released.get(t(A)) && released.get(t(C)));
        // … so the cross-subject conjunction is detected in every window
        assert!(merged.answer_for(a_and_c).unwrap().truthy());
        // A's `b` is present in every window; B's pattern flips it
        b_flipped += usize::from(!released.get(t(B)));
    }
    // flipped at p = 1/(1 + e) ≈ 0.27: about 17 of 64 windows
    assert!(
        (5..=32).contains(&b_flipped),
        "A's non-private `b` flipped in {b_flipped} of {WINDOWS} windows"
    );
}
