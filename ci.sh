#!/usr/bin/env bash
# CI gate: formatting, lints, build, tests. Run from the repo root.
#
#   ./ci.sh          # everything (fmt + clippy + build + test)
#   ./ci.sh --fast   # skip the release build
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The redesigned consumer surface (typed answers, sinks, sealed audit)
# must stay fully documented: broken links or missing docs fail CI.
echo "==> cargo doc (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [[ "$fast" == 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test"
cargo test -q

# The durability anchor must hold in every tier, including --fast: a
# service killed mid-pipeline and recovered from checkpoint + WAL tail
# replays bit-for-bit. Named explicitly so a test-filter refactor can
# never silently drop it from the gate.
echo "==> crash-recovery anchor"
cargo test -q --test crash_recovery

# The supervision anchor, same rationale: under a seeded FaultPlan (a
# worker kill mid-pipeline, a shard poison after an epoch transition,
# transient WAL append failures) the healed service's output must match
# the fault-free run bit-for-bit, and exhausted heal budgets must
# degrade to inline execution instead of erroring terminally.
echo "==> seeded chaos anchor"
cargo test -q --test chaos --test fault_injection --test durability_corruption

if [[ "$fast" == 0 ]]; then
  # release-mode tests catch overflow panics debug builds mask (and the
  # debug_assert-gated paths the dev profile hides)
  echo "==> cargo test --release"
  cargo test --release -q
fi

echo "==> cargo bench --no-run"
cargo bench --no-run

# The JSON throughput runner in smoke mode: exercises the full sharded
# hot path end to end — including the --churn scenario's periodic epoch
# transitions, the --sink scenario's zero-copy consumer delivery, the
# --scaling summary (which FAILS the run if a multi-shard service
# silently fell back to inline execution on a multi-core host), the
# --durability scenario's WAL-attached ingest, the --recovery
# scenario's time-to-heal and WAL-retry cells, and the --alloc
# scenario's counting-allocator gate (the runner itself FAILS if warmed
# steady-state ingest takes a single heap allocation with the WAL off,
# or more than a small per-batch constant with it on), and the
# --latency scenario's TCP-edge tail-latency cells (the runner FAILS if
# a cell's histograms are empty or its quantiles are not monotone) —
# and fails if the artifact it writes does not parse back (the runner
# validates its own output, all scenario cells included).
echo "==> bench-json smoke (with churn + sink + scaling + durability + recovery + alloc + latency scenarios)"
smoke_out="$(mktemp -t bench_smoke.XXXXXX.json)"
cargo run --release -q -p pdp-experiments -- bench-json --smoke --churn --sink --scaling --durability --recovery --alloc --latency --out "$smoke_out"
rm -f "$smoke_out"

# The repo benchmark's own checks (its package is a separate workspace,
# so the steps above never see it): fmt, clippy -D warnings, its tests,
# then every workload in smoke mode, untraced and traced — each run
# gated on the reference oracle's output digest, the exact late-drop
# count and recovered == uninterrupted. A data-path change that alters
# one release fails here, before anyone reads a throughput number.
if [[ "$fast" == 0 ]]; then
  echo "==> benchmark/check.sh (fmt + clippy + tests + oracle-gated smoke of all five workloads)"
  benchmark/check.sh
fi

# The service-edge anchor, same rationale as the durability/chaos ones:
# the same seeded schedule pushed through a real TCP server over
# loopback must leave the service bit-for-bit identical to the
# in-process run — deliveries, budget spends, watermark and epoch
# included — and the adversarial suite must keep every malformed,
# misordered or mis-directed frame a *typed* rejection rather than a
# hang or a partial ingest.
echo "==> TCP loopback equivalence + adversarial protocol anchors"
cargo test -q -p pdp-server --test server_loopback --test adversarial_protocol

# The deployable binaries themselves: a real pdp-server process on an
# ephemeral port, a seeded pdp-load churn run against it (subscriptions,
# watermarks, epoch transitions), then a graceful remote shutdown —
# the gate fails on a non-zero exit, zero acked batches, or a server
# that never comes down.
echo "==> pdp-server / pdp-load loopback smoke"
server_log="$(mktemp -t pdp_server.XXXXXX.log)"
cargo run --release -q -p pdp-server --bin pdp-server -- --addr 127.0.0.1:0 --shards 4 >"$server_log" &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^pdp-server listening on //p' "$server_log")"
  [[ -n "$addr" ]] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "pdp-server died before binding"; cat "$server_log"; exit 1; }
  sleep 0.1
done
[[ -n "$addr" ]] || { echo "pdp-server never announced its address"; cat "$server_log"; exit 1; }
cargo run --release -q -p pdp-server --bin pdp-load -- --addr "$addr" \
  --connections 3 --batches 12 --batch-size 64 --churn-every 5 --watermark-every 4 --shutdown
wait "$server_pid"
rm -f "$server_log"

echo "CI green."
