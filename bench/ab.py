#!/usr/bin/env python3
"""Interleaved A/B comparison of two commits with the current benchmark.

    bench/ab.py <shaA> <shaB> --workload W [--pairs 10] [--seconds S] [--seed N]

Both commits are exported (git archive) into a temporary directory, the
*current* bench/ is copied over each, and each is built once. Then `pairs`
pairs of runs alternate which side goes first; pair i uses seed N + i on
both sides. For every end-to-end metric the script prints each side's
median and quartiles, B's wins and ties, and a verdict by the nine-tenths
rule: a gain (or loss) is claimed only when one side wins at least nine
tenths of all pairs, ties counting for neither, and the medians differ by
more than the distance between A's own quartiles. Independently of that, B
regresses when its median is worse than A's by more than the metric's
bound from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(sha, dest):
    """A checkout of `sha` with the current bench/ in place of its own."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {sha} failed")
    shutil.rmtree(os.path.join(dest, "bench"), ignore_errors=True)
    shutil.copytree(
        os.path.join(ROOT, "bench"),
        os.path.join(dest, "bench"),
        ignore=shutil.ignore_patterns("target", "out"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def build(tree):
    target = os.path.join(tree, ".bench_build")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, "bench", "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        check=True,
    )
    return os.path.join(target, "release", "nups-ledger")


def run(binary, tree, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--out-dir", os.path.join(tree, "bench", "out")],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{binary}: run failed ({result['failed']} of {result['attempted']} operations)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sha_a")
    ap.add_argument("sha_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    decl = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or decl["run_seconds"]
    tmp = tempfile.mkdtemp(prefix="nups-ab-")
    try:
        trees = {side: os.path.join(tmp, side) for side in "AB"}
        export(args.sha_a, trees["A"])
        export(args.sha_b, trees["B"])
        bins = {side: build(tree) for side, tree in trees.items()}
        runs = {"A": [], "B": []}
        for i in range(args.pairs):
            order = "AB" if i % 2 == 0 else "BA"
            for side in order:
                runs[side].append(run(bins[side], trees[side], args.workload, args.seed + i, seconds))
            print(f"pair {i + 1}/{args.pairs} done (order {order})", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"A = {args.sha_a}  B = {args.sha_b}  workload = {args.workload}  "
          f"pairs = {args.pairs}  seconds = {seconds}")
    print(f"{'metric':<22} {'A q1/median/q3':>38} {'B q1/median/q3':>38} "
          f"{'B wins':>6} {'ties':>4}  verdict")
    for m in decl["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
        b_wins = sum(better(y, x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        a_wins = args.pairs - b_wins - ties
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        resolved = abs(b2 - a2) > (a3 - a1)
        worse_by = ((a2 - b2) if higher else (b2 - a2)) / abs(a2) if a2 else 0.0
        if worse_by > m["bound"]:
            verdict = f"REGRESSION: B worse by {worse_by:.1%} (bound {m['bound']:.0%})"
        elif b_wins >= 0.9 * args.pairs and resolved:
            verdict = f"gain: B better by {-worse_by:.1%}"
        elif a_wins >= 0.9 * args.pairs and resolved:
            verdict = f"loss within the bound: B worse by {worse_by:.1%}"
        elif (a3 - a1) > m["bound"] * abs(a2):
            verdict = "unresolved: A's own spread exceeds the bound"
        else:
            verdict = "no change shown"
        fmt = lambda q: "/".join(f"{v:.6g}" for v in q)
        print(f"{name:<22} {fmt((a1, a2, a3)):>38} {fmt((b1, b2, b3)):>38} "
              f"{b_wins:>6} {ties:>4}  {verdict}")


if __name__ == "__main__":
    main()
