"""Run one workload N times on consecutive seeds and print the spread.

    python3 perfbench/repeat.py --workload small-ladder --runs 10 [--first-seed 0] [--sets 2] [--trace 0]
    python3 perfbench/repeat.py --workload small-ladder --runs 10 --against ../parent

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json, and flags every spread above the bound.
With ``--sets 2`` it runs a second set on the next N seeds and flags every
metric whose median in the later set is worse than in the first by more than
its bound.  It also checks that each run's failed share of attempted results
is the same in every run.  The exit code is 1 if any flag is raised.

``--against DIR`` makes paired runs instead: DIR is another checkout of the
repository (say the parent commit, exported with ``git archive``), and for
each seed the two checkouts run back to back, alternating which goes first,
so that the machine's drift over minutes falls on both sides alike.  It
prints both medians, the change, how many pairs this checkout won, and the
other side's own spread; a change is flagged when this checkout's median is
worse by more than the bound.

The runs are made one after another, never in parallel, so they do not
disturb each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=root,
    )
    if proc.returncode != 0:
        sys.exit(f"{root} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
    print(f"{'' if root == ROOT else root + ' '}seed {seed}: attempted {result['attempted']}"
          f" failed {result['failed']} correct {str(result['correct']).lower()} {values}", flush=True)
    return result


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative if better)."""
    change = (new - old) / old if old else 0.0
    return -change if better == "higher" else change


def run_flags(results: list[dict]) -> list[str]:
    """Flags for runs whose failed share differs, or that are not correct."""
    flags = []
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        flags.append(f"failed share differs between runs: {sorted(shares)}")
    if not all(r["correct"] for r in results):
        flags.append("a run reported correct = false")
    return flags


def summary(results: list[dict], bounds: dict) -> tuple[dict, list[str]]:
    """Print one set's table; return its medians and the flags it raised."""
    flags = run_flags(results)
    print(f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "over bound" if spread > bound else "over bound/3" if spread > bound / 3 else ""
            if spread > bound:
                flags.append(f"{name} spread {spread:.3f} over bound {bound}")
        print(f"{name:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}"
              f" {'' if bound is None else bound:>7} {flag}")
    return medians, flags


def paired(args, bounds: dict, better: dict) -> list[str]:
    here, there = [], []
    for i, seed in enumerate(range(args.first_seed, args.first_seed + args.runs)):
        order = [ROOT, args.against] if i % 2 == 0 else [args.against, ROOT]
        got = {root: run_once(root, args.workload, seed, args.seconds, args.trace) for root in order}
        here.append(got[ROOT])
        there.append(got[args.against])
    flags = run_flags(here + there)
    print(f"\n{args.workload}: {args.runs} pairs, this checkout against {args.against}")
    print(f"{'metric':<26} {'here':>12} {'there':>12} {'worse by':>9} {'wins':>6} {'spread there':>13} {'bound':>7}")
    for name in here[0]["metrics"]:
        mine = [r["metrics"][name]["value"] for r in here]
        theirs = [r["metrics"][name]["value"] for r in there]
        q1, med_there, q3 = statistics.quantiles(theirs, n=4)
        med_here = statistics.median(mine)
        change = worse_by(med_here, med_there, better[name])
        wins = sum(worse_by(a, b, better[name]) < 0 for a, b in zip(mine, theirs))
        bound = bounds.get(name)
        flag = ""
        if bound is not None and change > bound:
            flag = "worse than bound"
            flags.append(f"{name} worse by {change:.3f}, bound {bound}")
        print(f"{name:<26} {med_here:>12.6g} {med_there:>12.6g} {change:>+9.3f} {wins:>3}/{len(mine):<2}"
              f" {(q3 - q1) / med_there if med_there else float('inf'):>13.3f} {'' if bound is None else bound:>7} {flag}")
    return flags


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--against", help="another checkout to pair every run with")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    if args.against:
        args.against = os.path.abspath(args.against)

    metrics = bench["end_to_end"] + bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    if args.against:
        flags = paired(args, bounds, better)
    else:
        flags, first = [], None
        for k in range(args.sets):
            seed0 = args.first_seed + k * args.runs
            results = [run_once(ROOT, args.workload, seed, args.seconds, args.trace)
                       for seed in range(seed0, seed0 + args.runs)]
            print(f"\n{args.workload}: set {k + 1}, seeds {seed0}-{seed0 + args.runs - 1}")
            medians, set_flags = summary(results, bounds)
            flags += set_flags
            if first is None:
                first = medians
                continue
            for name, med in medians.items():
                change = worse_by(med, first[name], better[name])
                bound = bounds.get(name)
                print(f"  {name}: median {med:.6g} against {first[name]:.6g} in set 1, worse by {change:+.3f}")
                if bound is not None and change > bound:
                    flags.append(f"set {k + 1} {name} median worse by {change:.3f}, bound {bound}")
    for flag in flags:
        print("FLAG:", flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
