#!/bin/sh
# One command for both result files: builds the benchmark into the repo's
# own target directory (the tier-1 artifacts are reused), then runs every
# workload untraced (end-to-end metrics) and traced (per-layer metrics and
# out/trace-<workload>.json). Extra arguments go to both runs, e.g.
#   benchmark/run.sh --workload conv_vgg --seed 7
set -eu
cd "$(dirname "$0")"
cargo build --release --offline --target-dir ../target
bin=../target/release/shalom-benchmark
"$bin" run --out out/run-untraced.json "$@"
"$bin" run --trace --out out/run-traced.json "$@"
