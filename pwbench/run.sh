#!/usr/bin/env bash
# Build pw-serve and the benchmark from source, then run one benchmark pass.
#
#   bash pwbench/run.sh --workload stream-sparse --seed 1 --seconds 12 --trace 0
#
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR (default
# .bench_build); cargo's progress goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet -p pw-serve --bin pw-serve >&2
cargo build --release --offline --locked --quiet --manifest-path pwbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pwbench" --server "$CARGO_TARGET_DIR/release/pw-serve" "$@"
