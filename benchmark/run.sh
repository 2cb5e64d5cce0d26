#!/usr/bin/env bash
# The repo benchmark's one entry point.
#
#   benchmark/run.sh
#       wipes benchmark/out/, builds, runs all six workloads (each in a
#       fresh process: tracing off for the end-to-end metrics, then once
#       traced for the per-layer ledger) and leaves
#       benchmark/out/results.json and benchmark/out/trace.<workload>.json
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result as one JSON object
#
#   benchmark/run.sh compare A.json B.json
#       applies every metric's bound to two results files
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Both programs go to one target directory: the harness finds `repro`
# beside itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p hpm-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bench="$CARGO_TARGET_DIR/release/bench"

case "${1:-}" in
"")
    echo "Starting the full benchmark (6 workloads, end to end + traced)"
    rm -rf benchmark/out/
    mkdir benchmark/out/
    "$bench" all --out benchmark/out
    ;;
compare | spec | all)
    "$bench" "$@"
    ;;
*)
    # Not `exec`: the harness reads its children's peak memory, and a
    # process that replaced this shell would inherit cargo's.
    "$bench" run "$@"
    ;;
esac
