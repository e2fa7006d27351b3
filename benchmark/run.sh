#!/usr/bin/env bash
# The repo benchmark's one command: build the benchmark package from
# source (offline; every dependency is a path inside the checkout), then
# run it from the checkout root.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one process; the last stdout line is one JSON object
#       {"correct", "attempted", "failed", "metrics"} (the driver's protocol)
#   benchmark/run.sh [all] [--seed n] [--seconds s] [--smoke] [--no-trace|--trace]
#       every workload in a fresh process, untraced (end-to-end metrics) and
#       traced (per-layer metrics); prints every metric by name with its unit
#   benchmark/run.sh --aa [--seed n]        two sets of the same build, compared
#   benchmark/run.sh spread [--runs n]      quartile spread of each metric over n seeds
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh budget <results.json>  the per-stage budget table
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# cargo's progress goes to stderr; stdout stays the benchmark's own
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

if [[ "${1:-}" == "--aa" ]]; then
    shift
    set -- aa "$@"
fi

# Confine the run to one CPU: the last one this shell may use (the first
# also serves the VM's network interrupts). On the 2-vCPU reference VM the
# kernel's placement of the service's threads is bimodal from one process
# to the next (loopback acks 85 vs 165 us, parallel recovery 9 vs 15 ms,
# always together), which no amount of measuring averages out; on one CPU
# every workload repeats within a few percent. `ServiceBuilder::build()`
# then picks inline execution, and the result file records that it did
# (README: "One CPU").
pin=()
if command -v taskset >/dev/null 2>&1; then
    pin=(taskset -c "$(taskset -cp $$ | sed -e 's/.*[:,-] *//')")
fi
exec "${pin[@]}" "$CARGO_TARGET_DIR/release/pdp-benchmark" "$@"
