#!/usr/bin/env bash
# Runs the suite twice on the same commit and seed and fails if the two
# results disagree: any vt_* or per-layer count at all, or setup_s or
# rss_peak_mib by more than its bound in BENCHMARK.json. wall_txn_per_s is
# printed side by side and held to nothing (README, "Why the wall clock is
# not gated").
#
#   benchmark/selfcheck.sh [seed]      (default 42; try 7 as well)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
seed="${1:-42}"
cargo build --release --offline --quiet --workspace --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/treaty-benchmark"
out="$target/bench-results"
mkdir -p "$out"
"$bin" suite --seed "$seed" --out "$out/selfcheck-a.json"
"$bin" suite --seed "$seed" --out "$out/selfcheck-b.json"
"$bin" compare "$here/../BENCHMARK.json" "$out/selfcheck-a.json" "$out/selfcheck-b.json"
