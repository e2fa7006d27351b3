//! # pattern-dp-repro — umbrella crate
//!
//! Re-exports the whole workspace of the ICDE 2023 reproduction
//! *"Differential Privacy for Protecting Private Patterns in Data
//! Streams"* under one roof, for the examples and cross-crate integration
//! tests. Library users should usually depend on the individual `pdp-*`
//! crates; this crate adds nothing beyond the re-exports and a
//! [`prelude`].
//!
//! Crate map:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`stream`] | `pdp-stream` | events, streams, windows, indicators |
//! | [`cep`] | `pdp-cep` | patterns, semantics, NFA matching, batch + incremental detection |
//! | [`dp`] | `pdp-dp` | randomized response, Laplace, budgets |
//! | [`core`] | `pdp-core` | pattern-level DP, uniform/adaptive PPMs, trusted engine |
//! | [`baselines`] | `pdp-baselines` | BD, BA, landmark, event-level, full-stream RR |
//! | [`datasets`] | `pdp-datasets` | Algorithm 2 generator, taxi simulator |
//! | [`metrics`] | `pdp-metrics` | precision/recall/Q/MRE, statistics |
//! | [`experiments`] | `pdp-experiments` | Fig. 4 sweeps, ablations |
//! | [`server`] | `pdp-server` | framed TCP service edge, client, load generator |

pub use pdp_baselines as baselines;
pub use pdp_cep as cep;
pub use pdp_core as core;
pub use pdp_datasets as datasets;
pub use pdp_dp as dp;
pub use pdp_experiments as experiments;
pub use pdp_metrics as metrics;
pub use pdp_server as server;
pub use pdp_stream as stream;

/// The names most programs start from.
pub mod prelude {
    pub use pdp_cep::{Pattern, PatternId, PatternSet, Semantics};
    pub use pdp_core::{
        KeyedEvent, Mechanism, PpmKind, ProtectionPipeline, ServiceBuilder, ServiceConfig,
        ShardedService, StreamingConfig, StreamingEngine, SubjectId, TrustedEngine,
        TrustedEngineConfig, WindowRelease,
    };
    pub use pdp_dp::{DpRng, Epsilon, FlipProb};
    pub use pdp_metrics::{mre, Alpha, QualityReport};
    pub use pdp_stream::{
        Event, EventStream, EventType, IndicatorVector, TimeDelta, Timestamp, WindowAssigner,
        WindowedIndicators,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let e = Epsilon::new(1.0).unwrap();
        let p = FlipProb::from_epsilon(e);
        assert!(p.value() > 0.0 && p.value() < 0.5);
        let pat = Pattern::single("x", EventType(0));
        assert_eq!(pat.len(), 1);
    }
}
