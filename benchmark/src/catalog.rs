//! The metric names the benchmark reports, with unit and direction —
//! the one list `BENCHMARK.json`, the runs and the README agree on.

/// An end-to-end metric: what a user of the system would see. Reported
/// by every workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (calibrated from A/A sets).
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "ack_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "release_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "epoch_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: a count, a busy time or a ratio of one layer,
/// taken by the traced run. No bound; `moves` names the end-to-end
/// metric an optimisation of the layer should move, `on` the workloads
/// where it should show most.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const DENSE: &str = "dense-4shard (most), sparse pair (little)";
const SPARSE: &str = "sparse pair, durable-churn";
const ALL: &str = "all";
const CHURN: &str = "durable-churn";
const EDGE: &str = "edge";

#[rustfmt::skip] // one metric per line: a table, not code
pub const PER_LAYER: &[PerLayer] = &[
    layer("stream.reorder.ns_per_event", "ns", "lower", "events_per_s", DENSE),
    layer("stream.reorder.late_dropped", "count", "lower", "events_per_s", DENSE),
    layer("stream.reorder.pending_peak", "count", "lower", "events_per_s, rss_mb", DENSE),
    layer("cep.incremental.ns_per_event", "ns", "lower", "events_per_s", "dense-4shard, sparse-1shard"),
    layer("cep.incremental.windows_closed", "count", "lower", "events_per_s", "sparse pair"),
    layer("core.protect.ns_per_window", "ns", "lower", "events_per_s, release_p50_us", "sparse pair, edge"),
    layer("core.protect.flipped_bits_per_window", "count", "lower", "events_per_s", "sparse pair"),
    layer("core.streaming.ns_per_event", "ns", "lower", "events_per_s", "sparse-1shard"),
    layer("core.streaming.ns_per_release", "ns", "lower", "events_per_s, release_p50_us", "sparse pair"),
    layer("dp.budget.ns_per_release", "ns", "lower", "events_per_s", SPARSE),
    layer("dp.budget.charges_per_release", "count", "lower", "events_per_s", SPARSE),
    layer("core.service.route_ns_per_event", "ns", "lower", "events_per_s", "dense-4shard"),
    layer("core.service.shard_skew", "ratio", "lower", "events_per_s", "dense-4shard"),
    layer("core.service.push_p50_us", "us", "lower", "events_per_s, ack_p50_us", ALL),
    layer("core.service.push_p99_us", "us", "lower", "ack_p50_us (its tail)", ALL),
    layer("core.service.release_p99_us", "us", "lower", "release_p50_us (its tail)", ALL),
    layer("core.service.watermark_p50_us", "us", "lower", "release_p50_us", "sparse pair, edge"),
    layer("core.service.finish_ms", "ms", "lower", "events_per_s", ALL),
    layer("core.service.inline_ns_per_event", "ns", "lower", "events_per_s", "sparse-4shard, dense-4shard"),
    layer("core.service.parallel_ns_per_event", "ns", "lower", "events_per_s", "sparse-4shard, dense-4shard"),
    layer("core.service.releases_per_kev", "count", "lower", "events_per_s", "sparse pair"),
    layer("core.service.merged_per_kev", "count", "lower", "events_per_s, release_p50_us", "sparse pair, edge"),
    layer("core.sink.deliveries", "count", "higher", "events_per_s", "sparse pair"),
    layer("core.sink.ns_per_delivery", "ns", "lower", "events_per_s, release_p50_us", "sparse pair, edge"),
    layer("core.service.stage_sum_share", "ratio", "higher", "attribution only", ALL),
    layer("core.service.unattributed_share", "ratio", "lower", "attribution only", ALL),
    layer("core.control.compile_p50_ms", "ms", "lower", "epoch_p50_ms, setup_s", CHURN),
    layer("core.control.activate_p50_ms", "ms", "lower", "epoch_p50_ms", CHURN),
    layer("core.control.epochs", "count", "higher", "events_per_s", CHURN),
    layer("core.adaptive.ms_per_pattern", "ms", "lower", "epoch_p50_ms, setup_s", CHURN),
    layer("core.durability.wal_append_ns_per_event", "ns", "lower", "events_per_s", CHURN),
    layer("core.durability.wal_bytes_per_event", "bytes", "lower", "events_per_s, recover_p50_ms", CHURN),
    layer("core.durability.wal_sync_p50_ms", "ms", "lower", "events_per_s", CHURN),
    layer("core.durability.checkpoint_p50_ms", "ms", "lower", "events_per_s (durable-churn's checkpoint stalls)", "dense-4shard, durable-churn"),
    layer("core.durability.checkpoint_encode_ms", "ms", "lower", "core.durability.checkpoint_p50_ms", "dense-4shard, durable-churn"),
    layer("core.durability.checkpoint_write_ms", "ms", "lower", "core.durability.checkpoint_p50_ms", "dense-4shard, durable-churn"),
    layer("core.durability.checkpoint_bytes", "bytes", "lower", "recover_p50_ms", "dense-4shard, durable-churn"),
    layer("core.durability.wal_read_ms", "ms", "lower", "recover_p50_ms", ALL),
    layer("core.durability.restore_ms", "ms", "lower", "recover_p50_ms", "dense-4shard, durable-churn"),
    layer("core.durability.replay_ns_per_event", "ns", "lower", "recover_p50_ms", ALL),
    layer("server.frame.encode_ns_per_event", "ns", "lower", "events_per_s", EDGE),
    layer("server.frame.decode_ns_per_event", "ns", "lower", "events_per_s", EDGE),
    layer("server.frame.bytes_per_event", "bytes", "lower", "events_per_s", EDGE),
    layer("server.frame.deliver_encode_ns", "ns", "lower", "release_p50_us", EDGE),
    layer("server.server.rtt_floor_us", "us", "lower", "ack_p50_us", EDGE),
    layer("server.server.ack_p50_us.low", "us", "lower", "ack_p50_us", EDGE),
    layer("server.server.ack_p50_us.high", "us", "lower", "ack_p50_us", EDGE),
    layer("server.server.ack_p99_us.low", "us", "lower", "ack_p50_us (its tail)", EDGE),
    layer("server.server.ack_p99_us.high", "us", "lower", "ack_p50_us (its tail)", EDGE),
    layer("server.server.max_ok_rate_rps", "1/s", "higher", "events_per_s", EDGE),
    layer("server.server.backlog_slope", "us/s", "lower", "ack_p50_us", EDGE),
    layer("server.server.deliveries_per_s", "1/s", "higher", "release_p50_us", EDGE),
    layer("server.client.late_p99_us", "us", "lower", "validity only", EDGE),
    layer("metrics.histogram.record_ns", "ns", "lower", "events_per_s (once instruments are on the hot path)", ALL),
    layer("bench.gen_share", "ratio", "lower", "validity only", ALL),
    layer("bench.trace_overhead_share", "ratio", "lower", "validity only", ALL),
    layer("bench.segment_spread", "ratio", "lower", "validity only", ALL),
];

/// Validity guards: a run breaching one is flagged invalid.
pub const GEN_SHARE_LIMIT: f64 = 0.08;
pub const LATE_P99_LIMIT_US: f64 = 1000.0;
pub const SEGMENT_SPREAD_LIMIT: f64 = 0.25;
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.05;
