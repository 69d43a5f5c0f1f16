#!/usr/bin/env python3
"""Interleaved A/B of two bpar_bench binaries under the benchmark's protocol.

    python3 tools/bench_ab.py PARENT_BENCH CHANGE_BENCH \
        [--workload infer-b1 ...] [--pairs 10] [--seconds 20] [--seed 1]

Pair i runs both binaries with seed SEED+i, each in a fresh process; the
side that runs first alternates between pairs, so drift in host speed
falls on both sides alike. For every workload and end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles over the pairs,
how many pairs the change won, and the protocol's reading:

  gain        at least 10 pairs ran, the change won at least 9 in 10 of
              them, its median beats the parent's by more than the
              parent's IQR, and it failed no more operations than the
              parent
  WORSE       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's IQR exceeds the bound and not every change run
              beats every parent run
  -           none of the above

plus the `correct`, `attempted` and `failed` totals of each side; the
change's line reads WORSE when its failed share exceeds the parent's.
Exit status: 0 when every run was correct, 1 otherwise, 2 on a usage
error.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(exe, workload, seed, seconds, out_dir):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--benchmark-json", str(SPEC), "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.exit(f"bench_ab: no result line from {' '.join(cmd)} "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def reading(metric, parent, change, failed_more):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    rel = (cm - pm) / abs(pm) if pm else 0.0
    worse_by = rel if lower else -rel
    need = math.ceil(0.9 * len(parent))
    if worse_by > metric["bound"]:
        verdict = "WORSE"
    elif (len(parent) >= 10 and wins >= need and better(cm, pm) and
          abs(cm - pm) > iqr and not failed_more):
        verdict = "gain"
    elif (pm and iqr / abs(pm) > metric["bound"] and
          not all(better(c, p) for c in change for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "-"
    return wins, verdict


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="bpar_bench binary of the parent")
    ap.add_argument("change", help="bpar_bench binary of the change")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads(SPEC.read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as out_dir:
        for w in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                                 "parent"]
                for side in order:
                    r = run_once(sides[side], w, args.seed + i, seconds,
                                 out_dir)
                    runs[side].append(r)
                    print(f"{w} pair {i} seed {args.seed + i} {side}: " +
                          ", ".join(f"{k} {fmt(v['value'])}"
                                    for k, v in r["metrics"].items()),
                          flush=True)
            totals = {}
            for side in ("parent", "change"):
                attempted = sum(int(r["attempted"]) for r in runs[side])
                failed = sum(int(r["failed"]) for r in runs[side])
                totals[side] = (attempted, failed,
                                failed / attempted if attempted else 0.0)
            failed_more = totals["change"][1] > totals["parent"][1]
            share_worse = totals["change"][2] > totals["parent"][2]
            print(f"\n== {w}  ({args.pairs} pair(s) x {seconds:g} s) ==")
            print(f"  {'metric':<18} {'parent median [q1, q3]':<30} "
                  f"{'change median [q1, q3]':<30} {'wins':>6}  reading")
            for m in spec["end_to_end"]:
                name = m["name"]
                p = [r["metrics"][name]["value"] for r in runs["parent"]]
                c = [r["metrics"][name]["value"] for r in runs["change"]]
                wins, verdict = reading(m, p, c, failed_more)
                cells = []
                for v in (p, c):
                    q1, med, q3 = quartiles(v)
                    cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
                print(f"  {name:<18} {cells[0]:<30} {cells[1]:<30} "
                      f"{wins:>3}/{args.pairs}  {verdict}")
            for side in ("parent", "change"):
                correct = sum(bool(r["correct"]) for r in runs[side])
                attempted, failed, share = totals[side]
                all_correct = all_correct and correct == args.pairs
                flag = "  WORSE" if side == "change" and share_worse else ""
                print(f"  {side}: correct {correct}/{args.pairs} runs, "
                      f"failed {failed} of {attempted} operation(s) "
                      f"({share:.3g}){flag}")
            print(flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
