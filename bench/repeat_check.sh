#!/usr/bin/env bash
# Run the full benchmark twice on the same commit and seed, and fail unless
# the two sets agree: every end-to-end metric of every workload within its
# bound from BENCHMARK.json. Prints the per-metric spread table that goes
# into a PR description. The counters of the virtual-time pass
# (modelled_keys_per_s, wire_bytes_per_key, msgs_per_kkey, adaptive.*,
# ml.sim_final_loss) are reported as "identical" where they are.
#
#   bench/repeat_check.sh [--seed N] [--seconds S]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
A="$ROOT/bench/out/repeat-a"
B="$ROOT/bench/out/repeat-b"
rm -rf "$A" "$B"
"$ROOT/bench/run.sh" --out-dir "$A" "$@" >/dev/null
"$ROOT/bench/run.sh" --out-dir "$B" "$@" >/dev/null

python3 - "$ROOT/BENCHMARK.json" "$A" "$B" <<'PY'
import json, sys

decl = json.load(open(sys.argv[1]))
a_dir, b_dir = sys.argv[2], sys.argv[3]
bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
# Counters of the virtual-time pass: exact where the program is.
sim_counters = [
    "adaptive.rounds", "adaptive.promotions", "adaptive.demotions",
    "adaptive.migration_bytes_per_kkey", "ml.sim_final_loss",
]
exact = {"modelled_keys_per_s", "wire_bytes_per_key", "msgs_per_kkey", *sim_counters}
ok = True
print(f"{'workload':<22} {'metric':<34} {'first':>16} {'second':>16} {'differ':>9} {'bound':>7}")
for w in (w["name"] for w in decl["workloads"]):
    a = json.load(open(f"{a_dir}/{w}.json"))
    b = json.load(open(f"{b_dir}/{w}.json"))
    if not (a["correct"] and b["correct"]):
        print(f"{w}: an output check failed: {a['problems'] + b['problems']}")
        ok = False
    names = list(bounds) + sim_counters
    for name in names:
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        mid = (abs(x) + abs(y)) / 2
        differ = abs(x - y) / mid if mid else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and differ > bound:
            verdict = "  <-- beyond its bound"
            ok = False
        shown = "identical" if x == y else f"{differ:9.4%}"
        if name in exact and x != y:
            verdict += "  (virtual-time counter, not identical)"
        bound_s = f"{bound:7.0%}" if bound is not None else "      -"
        print(f"{w:<22} {name:<34} {x:16.6g} {y:16.6g} {shown:>9} {bound_s}{verdict}")
sys.exit(0 if ok else 1)
PY
