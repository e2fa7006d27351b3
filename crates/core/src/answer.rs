//! Typed consumer answers and the unified query registry.
//!
//! The paper's service phase answers *binary* continuous queries; §VII
//! sketches extensions to numerical and categorical answers. Before this
//! module, those extension queries ([`CountQuery`], [`CategoricalQuery`],
//! [`NoisyArgmax`]) were evaluated by hand outside the registered query
//! path — no stable id, no epoch compilation, no budget accounting.
//! Here they join the same registry as pattern queries:
//!
//! * [`Answer`] is the typed answer a release carries per registered
//!   query — one variant per query family, never a positional `bool`;
//! * [`QuerySpec`] is the registry's wire form: what the control plane
//!   stores append-only under a stable [`QueryId`] and compiles into
//!   each epoch plan;
//! * the [`Query`] trait unifies registration: anything that can compile
//!   itself to a [`QuerySpec`] (the extension query types implement it)
//!   registers through `ServiceBuilder::register_extension_query` /
//!   `ControlPlane::add_typed_query` exactly like a pattern query;
//! * `CompiledQuery` (crate-internal) is the per-epoch compiled form
//!   (type masks resolved, the exponential mechanism pre-built) evaluated
//!   inside the release path on the **protected** view only.
//!
//! **Statefulness.** `Count` and `Argmax` answers are trailing-window
//! aggregates, so each serving front keeps one [`QueryStateSet`]: a
//! rolling per-query hit history keyed by stable [`QueryId`] (ids survive
//! epoch transitions, so a query's trailing window is preserved across
//! `begin_epoch`). The state holds only *protected* detections —
//! post-processing, nothing to account.
//!
//! **Budget.** `Argmax` answers draw the exponential mechanism per
//! release with a dedicated budget, charged through the serving front's
//! query ledger (the same [`EpochLedger`](pdp_dp::EpochLedger) machinery
//! that meters pattern budgets meters these non-boolean queries). The
//! draw order is deterministic: after the flip plan is applied to a
//! window, each active `Argmax` query draws once, in [`QueryId`] order.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use pdp_cep::{PatternId, PatternSet, QueryId};
use pdp_dp::{DpRng, Epsilon, Exponential};
use pdp_stream::{IndicatorVector, TypeMask};

use crate::error::CoreError;
use crate::extensions::{CategoricalQuery, CountQuery, NoisyArgmax};

/// One typed answer, computed on the protected view of one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A binary pattern-detection answer (the paper's base query form).
    Bool(bool),
    /// A trailing-window detection count (§VII numerical answers).
    Count(usize),
    /// A categorical label (§VII categorical answers).
    Categorical(String),
    /// The (noisily, per shard) selected dominant candidate's label.
    Argmax(String),
}

impl Answer {
    /// The boolean coercion used by the legacy positional fields
    /// (`MergedRelease::answers_any`): `Bool` is itself, `Count` is
    /// "detected at least once in the horizon", label answers are
    /// `true` (a label is always produced).
    pub fn truthy(&self) -> bool {
        match self {
            Answer::Bool(b) => *b,
            Answer::Count(n) => *n > 0,
            Answer::Categorical(_) | Answer::Argmax(_) => true,
        }
    }

    /// The `Count` payload, if this is a count answer.
    pub fn as_count(&self) -> Option<usize> {
        match self {
            Answer::Count(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Bool(b) => write!(f, "{b}"),
            Answer::Count(n) => write!(f, "{n}"),
            Answer::Categorical(l) | Answer::Argmax(l) => write!(f, "{l}"),
        }
    }
}

/// The registry form of a consumer query: what a stable [`QueryId`] maps
/// to in the control plane's append-only registry, and what each epoch
/// plan compiles. Pattern references are resolved (and rejected if
/// dangling) at compile time, like every other plan input.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// "Is the target pattern detected in this window?" → [`Answer::Bool`].
    Pattern {
        /// The target pattern asked about.
        pattern: PatternId,
    },
    /// "In how many of the trailing `horizon` windows was the pattern
    /// detected?" → [`Answer::Count`].
    Count {
        /// The pattern being counted.
        pattern: PatternId,
        /// Trailing-window scope (≥ 1).
        horizon: usize,
    },
    /// "Which of these patterns describes the window?" (first detected
    /// option wins) → [`Answer::Categorical`].
    Categorical {
        /// Candidate categories in priority order: `(label, pattern)`.
        options: Vec<(String, PatternId)>,
        /// The label when no option's pattern is detected.
        fallback: String,
    },
    /// "Which candidate dominated the trailing `horizon` windows?",
    /// selected per release by the exponential mechanism with a dedicated
    /// per-release budget → [`Answer::Argmax`].
    Argmax {
        /// Candidate patterns: `(label, id)`.
        candidates: Vec<(String, PatternId)>,
        /// Trailing-window scope (≥ 1).
        horizon: usize,
        /// Per-release budget of the exponential draw.
        eps: Epsilon,
    },
}

impl QuerySpec {
    /// Every pattern id the spec references, in first-reference order
    /// (deduplicated) — the compile-time resolution and quality-model
    /// target set.
    pub fn referenced_patterns(&self) -> Vec<PatternId> {
        let mut out = Vec::new();
        let mut push = |id: PatternId| {
            if !out.contains(&id) {
                out.push(id);
            }
        };
        match self {
            QuerySpec::Pattern { pattern } | QuerySpec::Count { pattern, .. } => push(*pattern),
            QuerySpec::Categorical { options, .. } => {
                options.iter().for_each(|(_, id)| push(*id));
            }
            QuerySpec::Argmax { candidates, .. } => {
                candidates.iter().for_each(|(_, id)| push(*id));
            }
        }
        out
    }
}

/// Anything registrable as a consumer query: compiles itself to the
/// registry's [`QuerySpec`] form. Implemented by the §VII extension query
/// types, so one `register_extension_query` call covers them all —
/// pattern queries keep their dedicated registration path (they also
/// insert the pattern itself).
pub trait Query {
    /// The registry form of this query.
    fn spec(&self) -> QuerySpec;
}

impl Query for CountQuery {
    fn spec(&self) -> QuerySpec {
        QuerySpec::Count {
            pattern: self.pattern,
            horizon: self.horizon,
        }
    }
}

impl Query for CategoricalQuery {
    fn spec(&self) -> QuerySpec {
        QuerySpec::Categorical {
            options: self.options.clone(),
            fallback: self.fallback.clone(),
        }
    }
}

/// A registered form of [`NoisyArgmax`]: the standalone type selects over
/// an explicit window history with an explicit budget per call; the
/// registered form fixes a trailing horizon and a per-release budget so
/// the release path can answer (and charge) it continuously.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgmaxQuery {
    /// The candidate set.
    pub inner: NoisyArgmax,
    /// Trailing-window scope of the utility counts (≥ 1).
    pub horizon: usize,
    /// Budget of each release's exponential draw.
    pub eps: Epsilon,
}

impl ArgmaxQuery {
    /// Build; the horizon must be at least 1 (the candidate set is
    /// validated by [`NoisyArgmax::new`]).
    pub fn new(inner: NoisyArgmax, horizon: usize, eps: Epsilon) -> Result<Self, CoreError> {
        if horizon == 0 {
            return Err(CoreError::InvalidQuery(
                "argmax horizon must be at least 1".into(),
            ));
        }
        Ok(ArgmaxQuery {
            inner,
            horizon,
            eps,
        })
    }
}

impl Query for ArgmaxQuery {
    fn spec(&self) -> QuerySpec {
        QuerySpec::Argmax {
            candidates: self.inner.candidates.clone(),
            horizon: self.horizon,
            eps: self.eps,
        }
    }
}

/// Upper bound on `Categorical` options / `Argmax` candidates per query:
/// trailing hit histories are packed into one `u64` word per window.
const MAX_QUERY_CANDIDATES: usize = 64;

/// One epoch's compiled form of a [`QuerySpec`]: pattern references
/// resolved to word-level [`TypeMask`]s, the exponential mechanism
/// pre-built. Evaluation per window is allocation-free except for label
/// answers.
#[derive(Debug, Clone)]
pub(crate) enum CompiledQuery {
    Bool {
        mask: TypeMask,
    },
    Count {
        mask: TypeMask,
        horizon: usize,
    },
    Categorical {
        options: Vec<(String, TypeMask)>,
        fallback: String,
    },
    Argmax {
        candidates: Vec<(String, TypeMask)>,
        horizon: usize,
        eps: Epsilon,
        mechanism: Exponential,
    },
}

impl CompiledQuery {
    /// Resolve one spec against the epoch's pattern registry.
    pub(crate) fn compile(
        spec: &QuerySpec,
        patterns: &PatternSet,
        n_types: usize,
    ) -> Result<Self, CoreError> {
        let mask_of = |id: PatternId| {
            patterns
                .get(id)
                .map(|p| p.type_mask(n_types))
                .ok_or(CoreError::UnknownPattern(id.0))
        };
        let labelled = |pairs: &[(String, PatternId)]| {
            if pairs.is_empty() {
                return Err(CoreError::InvalidQuery(
                    "label queries need at least one candidate".into(),
                ));
            }
            if pairs.len() > MAX_QUERY_CANDIDATES {
                return Err(CoreError::InvalidQuery(format!(
                    "at most {MAX_QUERY_CANDIDATES} candidates per query, got {}",
                    pairs.len()
                )));
            }
            pairs
                .iter()
                .map(|(label, id)| Ok((label.clone(), mask_of(*id)?)))
                .collect::<Result<Vec<_>, CoreError>>()
        };
        Ok(match spec {
            QuerySpec::Pattern { pattern } => CompiledQuery::Bool {
                mask: mask_of(*pattern)?,
            },
            QuerySpec::Count { pattern, horizon } => {
                if *horizon == 0 {
                    return Err(CoreError::InvalidQuery(
                        "count horizon must be at least 1".into(),
                    ));
                }
                CompiledQuery::Count {
                    mask: mask_of(*pattern)?,
                    horizon: *horizon,
                }
            }
            QuerySpec::Categorical { options, fallback } => CompiledQuery::Categorical {
                options: labelled(options)?,
                fallback: fallback.clone(),
            },
            QuerySpec::Argmax {
                candidates,
                horizon,
                eps,
            } => {
                if *horizon == 0 {
                    return Err(CoreError::InvalidQuery(
                        "argmax horizon must be at least 1".into(),
                    ));
                }
                CompiledQuery::Argmax {
                    candidates: labelled(candidates)?,
                    horizon: *horizon,
                    eps: *eps,
                    // utility = trailing detection count; one event changes
                    // any candidate's count by at most 1
                    mechanism: Exponential::new(*eps, 1.0).map_err(CoreError::Dp)?,
                }
            }
        })
    }

    /// The per-release budget this query charges (argmax only).
    pub(crate) fn charge(&self) -> Option<Epsilon> {
        match self {
            CompiledQuery::Argmax { eps, .. } => Some(*eps),
            _ => None,
        }
    }

    /// Answer one protected window. Only the stateful kinds (count,
    /// argmax) touch `states` — boolean and categorical queries stay off
    /// the ring map entirely, keeping the pure-boolean hot path free of
    /// hash lookups. `rng` drives the argmax draw; when absent
    /// (population-level merged evaluation) the plain argmax is taken
    /// instead — the input is already protected, so the noiseless
    /// selection is post-processing (ties break toward the earlier
    /// candidate).
    pub(crate) fn answer(
        &self,
        protected: &IndicatorVector,
        id: QueryId,
        states: &mut QueryStateSet,
        rng: Option<&mut DpRng>,
    ) -> Answer {
        match self {
            CompiledQuery::Bool { mask } => Answer::Bool(mask.matches(protected)),
            CompiledQuery::Count { mask, horizon } => {
                let state = states.ring(id);
                push_hits(state, *horizon, u64::from(mask.matches(protected)));
                Answer::Count(state.iter().map(|w| w.count_ones() as usize).sum())
            }
            CompiledQuery::Categorical { options, fallback } => Answer::Categorical(
                options
                    .iter()
                    .find(|(_, mask)| mask.matches(protected))
                    .map(|(label, _)| label.clone())
                    .unwrap_or_else(|| fallback.clone()),
            ),
            CompiledQuery::Argmax {
                candidates,
                horizon,
                mechanism,
                ..
            } => {
                let state = states.ring(id);
                let mut hits = 0u64;
                for (i, (_, mask)) in candidates.iter().enumerate() {
                    hits |= u64::from(mask.matches(protected)) << i;
                }
                push_hits(state, *horizon, hits);
                let utilities: Vec<f64> = (0..candidates.len())
                    .map(|i| state.iter().filter(|&&w| w & (1u64 << i) != 0).count() as f64)
                    .collect();
                let idx = match rng {
                    Some(rng) => mechanism
                        .select(&utilities, rng)
                        .expect("candidates verified non-empty"),
                    // deterministic population-level fold: plain argmax,
                    // first candidate wins ties
                    None => utilities
                        .iter()
                        .enumerate()
                        .rev()
                        .max_by(|(_, a), (_, b)| a.total_cmp(b))
                        .map(|(i, _)| i)
                        .expect("candidates verified non-empty"),
                };
                Answer::Argmax(candidates[idx].0.clone())
            }
        }
    }
}

/// Push one window's candidate-hit word into a trailing ring of capacity
/// `horizon`.
fn push_hits(state: &mut VecDeque<u64>, horizon: usize, hits: u64) {
    if state.len() == horizon {
        state.pop_front();
    }
    state.push_back(hits);
}

/// The rolling trailing-window state of one serving front's stateful
/// queries, keyed by stable [`QueryId`] so a query's trailing window
/// survives epoch transitions. Holds only protected detections.
#[derive(Debug, Clone, Default)]
pub struct QueryStateSet {
    rings: HashMap<QueryId, VecDeque<u64>>,
}

impl QueryStateSet {
    /// An empty state set (fresh front, no windows answered yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The ring of `query`, created on first use.
    pub(crate) fn ring(&mut self, query: QueryId) -> &mut VecDeque<u64> {
        self.rings.entry(query).or_default()
    }

    /// Plain-data snapshot: each query's trailing hit-word ring (front to
    /// back), sorted by query id so equal states snapshot identically.
    pub fn snapshot(&self) -> Vec<(QueryId, Vec<u64>)> {
        let mut rings: Vec<(QueryId, Vec<u64>)> = self
            .rings
            .iter()
            .map(|(&id, ring)| (id, ring.iter().copied().collect()))
            .collect();
        rings.sort_by_key(|(id, _)| *id);
        rings
    }

    /// Rebuild a state set from a [`QueryStateSet::snapshot`].
    pub fn restore(rings: Vec<(QueryId, Vec<u64>)>) -> Self {
        QueryStateSet {
            rings: rings
                .into_iter()
                .map(|(id, ring)| (id, ring.into()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_cep::Pattern;
    use pdp_stream::EventType;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn set() -> (PatternSet, PatternId, PatternId) {
        let mut s = PatternSet::new();
        let a = s.insert(Pattern::single("a", t(0)));
        let b = s.insert(Pattern::single("b", t(1)));
        (s, a, b)
    }

    fn w(present: &[u32]) -> IndicatorVector {
        IndicatorVector::from_present(present.iter().map(|&i| t(i)), 3)
    }

    #[test]
    fn answer_coercions_and_display() {
        assert!(Answer::Bool(true).truthy());
        assert!(!Answer::Bool(false).truthy());
        assert!(!Answer::Count(0).truthy());
        assert!(Answer::Count(2).truthy());
        assert!(Answer::Categorical("x".into()).truthy());
        assert_eq!(Answer::Count(3).as_count(), Some(3));
        assert_eq!(Answer::Bool(true).as_count(), None);
        assert_eq!(Answer::Categorical("busy".into()).to_string(), "busy");
        assert_eq!(Answer::Count(7).to_string(), "7");
    }

    #[test]
    fn specs_report_referenced_patterns_deduped() {
        let (_, a, b) = set();
        let spec = QuerySpec::Categorical {
            options: vec![("x".into(), a), ("y".into(), b), ("z".into(), a)],
            fallback: "f".into(),
        };
        assert_eq!(spec.referenced_patterns(), vec![a, b]);
        assert_eq!(
            QuerySpec::Pattern { pattern: b }.referenced_patterns(),
            vec![b]
        );
    }

    #[test]
    fn extension_types_compile_to_their_specs() {
        let (_, a, b) = set();
        let count = CountQuery::new(a, 4).unwrap();
        assert_eq!(
            count.spec(),
            QuerySpec::Count {
                pattern: a,
                horizon: 4
            }
        );
        let cat = CategoricalQuery::new(vec![("x".into(), a)], "f").unwrap();
        assert!(matches!(cat.spec(), QuerySpec::Categorical { .. }));
        let eps = Epsilon::new(1.0).unwrap();
        let argmax = ArgmaxQuery::new(
            NoisyArgmax::new(vec![("x".into(), a), ("y".into(), b)]).unwrap(),
            3,
            eps,
        )
        .unwrap();
        assert!(matches!(
            argmax.spec(),
            QuerySpec::Argmax { horizon: 3, .. }
        ));
        assert!(matches!(
            ArgmaxQuery::new(NoisyArgmax::new(vec![("x".into(), a)]).unwrap(), 0, eps),
            Err(CoreError::InvalidQuery(_))
        ));
    }

    #[test]
    fn compiled_count_rolls_a_trailing_window() {
        let (patterns, a, _) = set();
        let q = CompiledQuery::compile(
            &QuerySpec::Count {
                pattern: a,
                horizon: 2,
            },
            &patterns,
            3,
        )
        .unwrap();
        let mut state = QueryStateSet::new();
        let hits = [&[0u32][..], &[], &[0], &[0]];
        let counts: Vec<usize> = hits
            .iter()
            .map(|present| {
                q.answer(&w(present), QueryId(0), &mut state, None)
                    .as_count()
                    .unwrap()
            })
            .collect();
        assert_eq!(counts, vec![1, 1, 1, 2]);
    }

    #[test]
    fn compiled_categorical_prefers_first_match() {
        let (patterns, a, b) = set();
        let q = CompiledQuery::compile(
            &QuerySpec::Categorical {
                options: vec![("a!".into(), a), ("b!".into(), b)],
                fallback: "none".into(),
            },
            &patterns,
            3,
        )
        .unwrap();
        let mut state = QueryStateSet::new();
        assert_eq!(
            q.answer(&w(&[0, 1]), QueryId(0), &mut state, None),
            Answer::Categorical("a!".into())
        );
        assert_eq!(
            q.answer(&w(&[1]), QueryId(0), &mut state, None),
            Answer::Categorical("b!".into())
        );
        assert_eq!(
            q.answer(&w(&[2]), QueryId(0), &mut state, None),
            Answer::Categorical("none".into())
        );
    }

    #[test]
    fn compiled_argmax_noiseless_fold_takes_plain_argmax() {
        let (patterns, a, b) = set();
        let q = CompiledQuery::compile(
            &QuerySpec::Argmax {
                candidates: vec![("a!".into(), a), ("b!".into(), b)],
                horizon: 4,
                eps: Epsilon::new(2.0).unwrap(),
            },
            &patterns,
            3,
        )
        .unwrap();
        assert_eq!(q.charge(), Some(Epsilon::new(2.0).unwrap()));
        let mut state = QueryStateSet::new();
        // b hits twice, a once → plain argmax picks b
        q.answer(&w(&[1]), QueryId(0), &mut state, None);
        q.answer(&w(&[0, 1]), QueryId(0), &mut state, None);
        let last = q.answer(&w(&[]), QueryId(0), &mut state, None);
        assert_eq!(last, Answer::Argmax("b!".into()));
        // ties break toward the earlier candidate (fresh ring, new id)
        let t0 = q.answer(&w(&[0, 1]), QueryId(1), &mut state, None);
        assert_eq!(t0, Answer::Argmax("a!".into()));
    }

    #[test]
    fn query_state_snapshot_round_trips() {
        let mut state = QueryStateSet::new();
        state.ring(QueryId(3)).extend([1u64, 2, 3]);
        state.ring(QueryId(1)).push_back(9);
        let snap = state.snapshot();
        assert_eq!(
            snap,
            vec![(QueryId(1), vec![9]), (QueryId(3), vec![1, 2, 3])]
        );
        let mut restored = QueryStateSet::restore(snap.clone());
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(
            restored
                .ring(QueryId(3))
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn compile_validates_inputs() {
        let (patterns, a, _) = set();
        assert!(matches!(
            CompiledQuery::compile(
                &QuerySpec::Pattern {
                    pattern: PatternId(9)
                },
                &patterns,
                3
            ),
            Err(CoreError::UnknownPattern(9))
        ));
        assert!(matches!(
            CompiledQuery::compile(
                &QuerySpec::Count {
                    pattern: a,
                    horizon: 0
                },
                &patterns,
                3
            ),
            Err(CoreError::InvalidQuery(_))
        ));
        assert!(matches!(
            CompiledQuery::compile(
                &QuerySpec::Categorical {
                    options: vec![],
                    fallback: "f".into()
                },
                &patterns,
                3
            ),
            Err(CoreError::InvalidQuery(_))
        ));
        let too_many: Vec<(String, PatternId)> = (0..65).map(|i| (format!("c{i}"), a)).collect();
        assert!(matches!(
            CompiledQuery::compile(
                &QuerySpec::Argmax {
                    candidates: too_many,
                    horizon: 1,
                    eps: Epsilon::ZERO
                },
                &patterns,
                3
            ),
            Err(CoreError::InvalidQuery(_))
        ));
    }
}
