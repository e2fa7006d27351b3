#!/usr/bin/env bash
# Lint, unit-test and smoke the benchmark package: fmt --check, clippy
# -D warnings, the package's tests (including the corrupted-digest gate
# test), then every workload for ~1 s untraced and traced.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --quiet --manifest-path "$manifest"
benchmark/run.sh all --smoke >/dev/null
echo "benchmark check OK"
