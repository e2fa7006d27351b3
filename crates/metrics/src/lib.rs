//! # `pdp-metrics` — data-quality metrics (§III-B of the paper)
//!
//! * Eq. 1 — recall `Rec = TP / (TP + FN)`
//! * Eq. 2 — precision `Prec = TP / (TP + FP)`
//! * Eq. 3 — quality `Q = α·Prec + (1 − α)·Rec`
//! * Eq. 4 — `MRE_Q = (Q_ord − Q_PPM) / Q_ord`
//!
//! plus confusion-matrix accumulation, expected-count (fractional) confusion
//! for closed-form quality estimation, the sealed [`TrustedAudit`]
//! view that quality metering opens (with an explicit [`AuditKey`]) to
//! read a release's raw pre-protection detections, and the HDR-style
//! log-bucketed [`LatencyHistogram`] the service edge and the repo
//! benchmark record tail percentiles with.

mod audit;
mod confusion;
mod histogram;
mod quality;
mod report;

pub use audit::{AuditKey, TrustedAudit};
pub use confusion::{ConfusionMatrix, FractionalConfusion};
pub use histogram::LatencyHistogram;
pub use quality::{f1, mre, quality, Alpha, QualityReport};
pub use report::{markdown_table, text_table, Table};
