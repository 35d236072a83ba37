#!/usr/bin/env bash
# Builds the shipped `varbench` binary and the benchmark driver from
# source, then runs the driver. Run from the repository root:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the driver's last stdout line is the
# JSON result. Build artifacts land in $CARGO_TARGET_DIR (default
# .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin varbench >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
