#!/usr/bin/env bash
# Build the shipped `park` binary and this benchmark from source, then run it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default:
# target/); outputs and span files go to perfbench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p park-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --park "$CARGO_TARGET_DIR/release/park" --out perfbench/out "$@"
