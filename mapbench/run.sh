#!/usr/bin/env bash
# Build the production binaries and the benchmark program from source, then
# run one workload. Usage (from the repository root):
#
#   bash mapbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Build logs
# go to stderr; the result is the last line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p manymap --bin manymap --bin mmm-serve >&2
cargo build --release --offline --quiet --manifest-path mapbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mapbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
