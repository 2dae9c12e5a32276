#!/usr/bin/env bash
# Builds omnibench from source and runs it. Run from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S]       every workload, untraced then traced
#   benchmark/run.sh --selfcheck [--seed N]         the set twice; fails if they disagree
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                   one workload, one JSON result line last
#
# Needs no environment variable. CARGO_TARGET_DIR is honoured when set;
# otherwise the build goes to benchmark/target. Reports go to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's own output goes to stderr: stdout carries only the report.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/omnibench" --out "$here/out" "$@"
