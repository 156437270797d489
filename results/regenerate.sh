#!/usr/bin/env bash
# Regenerates every results/*.txt snapshot into <dir> (default: results/).
#
#   results/regenerate.sh [dir]
#
# Every number is virtual time and every run is deterministic, so on an
# unchanged tree the files come out byte for byte as committed; CI runs
# this into a temporary directory and diffs it against results/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$root/results}"
mkdir -p "$out"
cd "$root"
cargo build -q --release -p treaty-bench
B="cargo run -q --release -p treaty-bench --"
$B fig3                      > "$out/fig3_tpcc_10w.txt"
$B fig3 --warehouses 100     > "$out/fig3_tpcc_100w.txt"
$B fig4                      > "$out/fig4_2pc.txt"
$B fig5                      > "$out/fig5_ycsb_dist.txt"
$B fig6                      > "$out/fig6_single_pessimistic.txt"
$B fig7                      > "$out/fig7_single_optimistic.txt"
$B fig8                      > "$out/fig8_network.txt"
$B table1                    > "$out/table1_recovery.txt"
$B counters                  > "$out/ablation_counters.txt"
$B snapshot                  > "$out/snapshot_reads.txt"
$B scale --smoke             > "$out/scale_smoke.txt"
$B scale                     > "$out/scale.txt"
