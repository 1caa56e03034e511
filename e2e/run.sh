#!/usr/bin/env bash
# Builds the segscope CLI and the benchmark from source, then runs it.
# Run from the repository root:
#
#   bash e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Both builds share CARGO_TARGET_DIR (default .bench_build). Build
# output goes to standard error, so the result line stays the last line
# of standard output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin segscope >&2
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/segscope-e2e" run "$@"
