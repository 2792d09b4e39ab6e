#!/usr/bin/env bash
# Builds the campaign benchmark from source, then runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite_x1 --seed 7453 --seconds 10 --trace 0
#
# Build output lands in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/idld-perfbench" "$@"
