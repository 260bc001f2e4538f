#!/usr/bin/env bash
# One-shot reproduction of the LibShalom paper's evaluation.
#
# Usage:
#   scripts/reproduce.sh            # container-scaled sizes (~15 min)
#   FULL=1 scripts/reproduce.sh     # paper-scale sizes (hours, >=16 GB RAM)
#   REPS=10 scripts/reproduce.sh    # timing repetitions (paper uses 10)
#
# Outputs: console tables + results/*.csv, results/final_figs.log (the
# console tables), test_output.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${REPS:-5}"
EXTRA=()
[ "${FULL:-0}" = "1" ] && EXTRA+=(--full)
if [ "$#" -gt 0 ]; then
  echo "unknown argument: $1 (this script takes none; see its header)" >&2
  exit 2
fi

echo "== build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace 2>&1 | tee test_output.txt | grep -E "^test result" | tail -20

echo "== tables and figures =="
BINS=(
  tab1_platforms
  tab_tile_solver
  tab_partition_ablation
  tab_fp64_ratio
  tab_ablations
  fig2_motivation
  fig7_small_warm
  fig8_small_cold
  fig9_irregular_parallel
  fig10_irregular_platforms
  fig11_scalability
  fig12_cache_misses
  fig13_breakdown
  fig14_cp2k
  fig15_vgg
)
mkdir -p results
for b in "${BINS[@]}"; do
  echo "=== RUNNING $b ==="
  cargo run --release -q -p shalom-bench --bin "$b" -- --reps "$REPS" "${EXTRA[@]}"
done 2>&1 | tee results/final_figs.log

echo "done; see results/ and EXPERIMENTS.md"
