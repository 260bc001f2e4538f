#!/usr/bin/env bash
# One-shot reproduction of the LibShalom paper's evaluation.
#
# Usage:
#   scripts/reproduce.sh            # container-scaled sizes (~15 min)
#   scripts/reproduce.sh --json     # also emit BENCH_report.json (traced perf report)
#   FULL=1 scripts/reproduce.sh     # paper-scale sizes (hours, >=16 GB RAM)
#   REPS=10 scripts/reproduce.sh    # timing repetitions (paper uses 10)
#
# Outputs: console tables + results/*.csv, test_output.txt, bench_output.txt;
# with --json additionally BENCH_report.json and results/pooled_trace.json.
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${REPS:-5}"
EXTRA=()
[ "${FULL:-0}" = "1" ] && EXTRA+=(--full)
JSON=0
for arg in "$@"; do
  case "$arg" in
    --json) JSON=1 ;;
    *) echo "unknown argument: $arg (supported: --json)" >&2; exit 2 ;;
  esac
done

echo "== build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace 2>&1 | tee test_output.txt | grep -E "^test result" | tail -20

echo "== tables and figures =="
BINS=(
  tab1_platforms
  tab_tile_solver
  tab_partition_ablation
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
for b in "${BINS[@]}"; do
  echo "---- $b ----"
  cargo run --release -q -p shalom-bench --bin "$b" -- --reps "$REPS" "${EXTRA[@]}"
done

if [ "$JSON" = "1" ]; then
  echo "== machine-readable perf report =="
  cargo run --release -q -p shalom-bench --features capture --bin shalom-report -- --reps "$REPS" "${EXTRA[@]}"
fi

echo "== criterion ablations =="
cargo bench --workspace 2>&1 | tee bench_output.txt | grep -E "time:|thrpt:" | tail -40

echo "done; see results/ and EXPERIMENTS.md"
