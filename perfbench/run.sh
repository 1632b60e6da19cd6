#!/usr/bin/env bash
# Builds the benchmark and the engine server it spawns (both binaries of
# this package, optimized), then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload inproc --seed 1 --seconds 12 --trace 0
#
# `cargo run` would build only the benchmark binary, not the server.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
