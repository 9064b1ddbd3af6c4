#!/usr/bin/env bash
# Builds the release `actuary` binary and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload explore_reuse --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --manifest-path Cargo.toml -p actuary-cli >&2
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --actuary "$CARGO_TARGET_DIR/release/actuary" \
    --out "$CARGO_TARGET_DIR/perfbench" \
    "$@"
