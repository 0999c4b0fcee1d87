#!/usr/bin/env bash
# The benchmark's one command: builds the release `dgr` binary and the
# benchmark (both offline, into $CARGO_TARGET_DIR, default .bench_build at
# the repo root), then runs the benchmark with the arguments given, e.g.
#
#   bash benchmark/run.sh --seed 1                      # every workload
#   bash benchmark/run.sh --workload large_quick_route --seed 2 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
  echo "benchmark/run.sh: no dgr workspace at $(pwd): nothing to build or measure" >&2
  exit 3
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin dgr >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dgr-benchmark" --dgr "$CARGO_TARGET_DIR/release/dgr" "$@"
