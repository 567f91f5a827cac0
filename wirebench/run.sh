#!/usr/bin/env bash
# Builds coqld, coqld-router and the benchmark from source, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash wirebench/run.sh --workload dup_hits --seed 1 --seconds 12 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# progress goes to stderr, so the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --bin coqld --bin coqld-router
cargo build --release --offline -q --manifest-path wirebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/coql-wirebench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
