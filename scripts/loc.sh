#!/usr/bin/env bash
# Non-test, non-comment, non-blank Rust lines of the product code — the
# count every "smaller" claim in CHANGELOG.md is measured with, on both
# commits, so a before/after pair never depends on who re-types the awk.
#
#   scripts/loc.sh [ROOT]        per-file counts, then the total
#
# Over ROOT/src and ROOT/crates/*/src (default ROOT: the repository).
# Each file is cut at its first column-0 `#[cfg(test)]`, files under a
# `tests/` directory are skipped, blank lines and lines that start with
# `//` (so `///` and `//!` too) are dropped.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"
find src crates/*/src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort | while read -r f; do
  awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ } END { printf "%6d %s\n", n, FILENAME }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
