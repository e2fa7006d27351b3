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

# JSON only at the edge: the one crate that writes JSON (Fig. 4 results)
# and the facade that re-exports it are all serde may reach; every byte
# the service stores or sends goes through pdp_core::codec.
echo "==> serde reaches only pdp-experiments"
serde_users="$(cargo tree --offline -e normal -i serde --prefix none | cut -d' ' -f1 |
  sort -u | grep -vx 'serde\|serde_json' | tr '\n' ' ')"
[[ "$serde_users" == "pattern-dp-repro pdp-experiments " ]] ||
  { echo "serde is reached by: $serde_users"; exit 1; }

if [[ "$fast" == 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

# Runs, among the rest, the anchors it must keep covering in every tier:
# crash_recovery, chaos, fault_injection, durability_corruption,
# server_loopback, adversarial_protocol.
echo "==> cargo test"
cargo test -q

if [[ "$fast" == 0 ]]; then
  # release-mode tests catch overflow panics debug builds mask (and the
  # debug_assert-gated paths the dev profile hides)
  echo "==> cargo test --release"
  cargo test --release -q

  # every example asserts its own invariants; clippy only compiles them
  echo "==> examples"
  for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
  done
fi

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

# The deployable binaries themselves: a real pdp-server process on an
# ephemeral port, a seeded pdp-load churn run against it (subscriptions,
# watermarks, epoch transitions), then a graceful remote shutdown —
# the gate fails on a non-zero exit, zero acked batches, zero
# deliveries to the subscribed connection although the run advanced the
# watermark, or a server that never comes down.
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
