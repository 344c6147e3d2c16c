#!/usr/bin/env bash
# The benchmark's one command: build nups-ledger, run it, print every metric.
#
#   bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|both] [--out-dir DIR]
#
# Without --workload all four workloads run, one OS process each. Without
# --trace a run takes the end-to-end and the per-layer metrics in one go.
# Results land in bench/out/<workload>.json and <workload>.trace.json; the
# exit code is non-zero if any output check failed.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for the path to the binary alike: do not cd.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/bench/target}"
cargo build --release --offline --quiet --manifest-path "$ROOT/bench/Cargo.toml"
BIN="$CARGO_TARGET_DIR/release/nups-ledger"

workload=""
out_dir="$ROOT/bench/out"
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --out-dir) out_dir="$2"; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

if [ -n "$workload" ]; then
    exec "$BIN" --workload "$workload" --out-dir "$out_dir" ${args[@]+"${args[@]}"}
fi

status=0
for w in uniform_remote_tcp skew_replicated_wall drift_adaptive_tcp kge_sampling_wall; do
    "$BIN" --workload "$w" --out-dir "$out_dir" ${args[@]+"${args[@]}"} || status=1
done
exit $status
