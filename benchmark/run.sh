#!/usr/bin/env bash
# Builds the benchmark offline, then runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, the way BENCHMARK.json's command is called; the last
#       line of stdout is the JSON result
#   benchmark/run.sh [--seed <n>]
#       the whole suite: four workloads (3 untraced runs + 1 traced each) and
#       the probes; prints every metric by name and writes suite.json
#
# Build output and run data go under $CARGO_TARGET_DIR (default
# benchmark/target). Nothing is fetched: the external crates resolve to
# benchmark/shims/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --workspace --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/treaty-benchmark"
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
mkdir -p "$target/bench-results"
exec "$bin" suite --out "$target/bench-results/suite.json" "$@"
