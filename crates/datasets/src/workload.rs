//! The workload bundle every experiment consumes.
//!
//! A [`Workload`] is the paper's evaluation unit: a windowed indicator
//! history (the ground-truth stream view), a pattern registry, and the ids
//! of the private and target patterns. Both datasets produce this shape and
//! every mechanism runs against it.

use pdp_cep::{Pattern, PatternId, PatternSet};
use pdp_stream::{EventType, WindowedIndicators};

/// A complete evaluation workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name ("synthetic", "taxi", …).
    pub name: String,
    /// Number of event types in the universe.
    pub n_types: usize,
    /// Ground-truth windowed indicators.
    pub windows: WindowedIndicators,
    /// All registered patterns (private and target).
    pub patterns: PatternSet,
    /// Ids of the private patterns (data subjects' declarations).
    pub private: Vec<PatternId>,
    /// Ids of the target patterns (data consumers' interests).
    pub target: Vec<PatternId>,
}

impl Workload {
    /// Basic structural validation: ids resolve, widths agree.
    pub fn validate(&self) -> Result<(), String> {
        for &id in self.private.iter().chain(&self.target) {
            let p = self
                .patterns
                .get(id)
                .ok_or_else(|| format!("workload references unknown pattern {id}"))?;
            for ty in p.distinct_types() {
                if ty.index() >= self.n_types {
                    return Err(format!(
                        "pattern {id} references type {ty} outside universe of {}",
                        self.n_types
                    ));
                }
            }
        }
        if !self.windows.is_empty() && self.windows.n_types() != self.n_types {
            return Err(format!(
                "windows track {} types, workload declares {}",
                self.windows.n_types(),
                self.n_types
            ));
        }
        Ok(())
    }

    /// The target patterns that overlap at least one private pattern —
    /// the interesting ones for the evaluation ("the evaluation is
    /// meaningful only if they are dependent and relevant to each other").
    pub fn overlapping_targets(&self) -> Vec<PatternId> {
        let private: Vec<&Pattern> = self
            .private
            .iter()
            .filter_map(|&id| self.patterns.get(id))
            .collect();
        self.target
            .iter()
            .copied()
            .filter(|&tid| {
                self.patterns
                    .get(tid)
                    .map(|t| private.iter().any(|p| p.overlaps(t)))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Event types that belong to at least one private pattern (the only
    /// types a pattern-level PPM may perturb).
    pub fn private_types(&self) -> Vec<EventType> {
        let mut set = std::collections::BTreeSet::new();
        for &id in &self.private {
            if let Some(p) = self.patterns.get(id) {
                set.extend(p.distinct_types());
            }
        }
        set.into_iter().collect()
    }

    /// Fraction of windows in which at least one private pattern occurs.
    pub fn private_occurrence_rate(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let privates: Vec<Vec<EventType>> = self
            .private
            .iter()
            .filter_map(|&id| self.patterns.get(id))
            .map(|p| p.distinct_types().into_iter().collect())
            .collect();
        let hits = self
            .windows
            .iter()
            .filter(|w| privates.iter().any(|tys| tys.iter().all(|&ty| w.get(ty))))
            .count();
        hits as f64 / self.windows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_stream::IndicatorVector;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn tiny() -> Workload {
        let mut patterns = PatternSet::new();
        let private = patterns.insert(Pattern::seq("priv", vec![t(0), t(1)]).unwrap());
        let overlap = patterns.insert(Pattern::seq("t-overlap", vec![t(1), t(2)]).unwrap());
        let disjoint = patterns.insert(Pattern::single("t-free", t(3)));
        Workload {
            name: "tiny".into(),
            n_types: 4,
            windows: WindowedIndicators::new(vec![
                IndicatorVector::from_present([t(0), t(1)], 4),
                IndicatorVector::from_present([t(3)], 4),
            ]),
            patterns,
            private: vec![private],
            target: vec![overlap, disjoint],
        }
    }

    #[test]
    fn validates_structurally() {
        assert!(tiny().validate().is_ok());
        let mut bad = tiny();
        bad.private.push(PatternId(99));
        assert!(bad.validate().is_err());
        let mut narrow = tiny();
        narrow.n_types = 2;
        assert!(narrow.validate().is_err());
    }

    #[test]
    fn overlapping_targets_found() {
        let w = tiny();
        assert_eq!(w.overlapping_targets(), vec![w.target[0]]);
    }

    #[test]
    fn private_types_union() {
        assert_eq!(tiny().private_types(), vec![t(0), t(1)]);
    }

    #[test]
    fn private_occurrence_rate_counts_windows() {
        let w = tiny();
        assert!((w.private_occurrence_rate() - 0.5).abs() < 1e-12);
    }
}
