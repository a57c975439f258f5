"""Tuning benchmark for prectune: runs `prectune tune` in-process.

    python3 perfbench/run.py --workload small-ladder --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all [--seed 0] [--seconds 40]
    python3 perfbench/run.py --self-test

A run makes as many whole rounds of its workload (workloads.py) as fit in
--seconds, at least one, checks every result (checks.py) and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones, taken from spans recorded around the
program's module boundaries (spans.py).  Run it from the repository root;
it imports prectune from ./src and refuses to run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# numpy's BLAS on one thread, in this process and in the set-up probes: the
# program's matrices are small, and with a second BLAS thread on the shared
# second core the processor time of identical tunes spread almost four times
# as wide (README.md, "Timing").  Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 11
# the tuners `prectune tune` calls once per target
TUNERS = ("smart_tune", "smart_tune_plus", "fptuning_baseline")


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric names and units from BENCHMARK.json."""
    bench = benchmark()
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


def import_program():
    """Put ./src first on the path and import prectune from there only."""
    if not os.path.isfile(os.path.join(SRC, "prectune", "cli.py")):
        sys.exit(f"error: {SRC}/prectune not found; run from a prectune checkout")
    sys.path.insert(0, SRC)
    from prectune import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: prectune was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median processor time of fresh interpreters, each from its start to
    the point where a run would make its first tune call."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            sys.exit("error: setup probe failed")
        times.append(float(words[1]))
    return statistics.median(times)


@contextlib.contextmanager
def tuner_cpu(cli):
    """Collect the processor time of each tuner call the tune command makes
    (one per target) while the block runs."""
    times = []

    def timed(fn):
        def call(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.process_time() - t0)

        return call

    saved = {name: getattr(cli, name) for name in TUNERS}
    try:
        for name, fn in saved.items():
            setattr(cli, name, timed(fn))
        yield times
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def invoke(cli, inv, seed: int, tracer=None) -> tuple[float, list, list]:
    """Run one `prectune tune` invocation: its processor time, the record of
    each of its targets (None where the program wrote none), and the
    processor time of each target's tuner call."""
    out = tempfile.mkdtemp(prefix="out-", dir=WORK)
    try:
        with contextlib.redirect_stdout(io.StringIO()), tuner_cpu(cli) as per_target:
            t0 = time.process_time()
            if tracer is None:
                cli.main(inv.argv(seed, out))
            else:
                with tracer.installed(), tracer.span("cli.tune"):
                    cli.main(inv.argv(seed, out))
            took = time.process_time() - t0
        records = {}
        for path in glob.glob(os.path.join(out, "*.json")):
            with open(path) as fh:
                rec = json.load(fh)
            records[rec["target"]] = rec
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return took, [records.get(t) for t in inv.targets], per_target


class Round:
    """One pass over a workload's invocations, with what each returned.

    With a tracer, each invocation runs a second time, traced, right after
    its plain run, so that the two are timed under the same conditions of
    the machine; ``traced_job_s - job_s`` is then the tracing overhead."""

    def __init__(self, cli, invocations, seed: int, tracer=None):
        self.results = []  # (invocation, target, record or None) of the plain runs
        self.traced_results = []
        self.job_s = 0.0
        self.traced_job_s = 0.0
        self.per_invocation_s: list[list[float]] = []  # result times, one list per invocation
        self.kernel_runs = 0
        os.makedirs(WORK, exist_ok=True)
        for inv in invocations:
            took, found, tuned = invoke(cli, inv, seed)
            self.job_s += took
            # the invocation's dataset build and bookkeeping, shared by its targets
            shared = (took - sum(tuned)) / len(inv.targets)
            self.per_invocation_s.append([t + shared for t in tuned])
            for target, rec in zip(inv.targets, found):
                self.results.append((inv, target, rec))
                if rec is not None:
                    self.kernel_runs += rec["kernel_runs"]
            if found and found[0] is not None:
                self.kernel_runs += found[0]["dataset_runs"]
            if tracer is not None:
                took, found, _ = invoke(cli, inv, seed, tracer)
                self.traced_job_s += took
                self.traced_results += [(inv, t, rec) for t, rec in zip(inv.targets, found)]

    def result_s(self) -> float:
        """Typical wait for one result: the median over each invocation's
        targets (robust to the few targets that need many verify rounds),
        averaged over the invocations so their mix does not shift with it."""
        return statistics.fmean(statistics.median(ts) for ts in self.per_invocation_s if ts)

    def total_bits(self) -> int:
        return sum(rec["total_bits"] or 0 for _, _, rec in self.results if rec is not None)

    def solve_metrics(self) -> dict[str, float]:
        smart = [rec for inv, _, rec in self.results if rec is not None and inv.mode != "baseline"]
        saved = 0
        for inv, _, rec in self.results:
            if rec is None or rec["total_bits"] is None:
                continue
            # baseline descends from the all-max config
            start = rec["pre_refine_total_bits"] or rec["nbit_max"] * len(rec["config"])
            saved += start - rec["total_bits"]
        first = sum(1 for rec in smart if rec["iterations"] == 1)
        return {
            "solve.rounds": sum(rec["iterations"] for rec in smart),
            "solve.first_try_results": first,
            "solve.first_try_share": first / len(smart) if smart else 0.0,
            "solve.refine_bits_saved": saved,
        }


def check(rounds, invocations, seed: int) -> tuple[bool, int, list[str]]:
    """(kernel checks passed, failed results, messages)."""
    import checks

    checker = checks.Checker()
    notes = []
    for inv in invocations:
        notes += checker.kernel_problems(inv.kernel, inv.shape, inv.input_seed(seed))
    correct = not notes
    failed = 0
    for rnd in rounds:
        for inv, target, rec in rnd.results + rnd.traced_results:
            problems = ["no result record"] if rec is None else checker.record(
                rec, inv.kernel, inv.mode, target, inv.shape, inv.input_seed(seed)
            )
            if problems:
                failed += 1
                notes.append(f"{inv.kernel} {inv.mode} {target!r}: " + "; ".join(problems))
    return correct, failed, sorted(set(notes))


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    from workloads import WORKLOADS

    invocations = WORKLOADS[name]
    end_to_end, per_layer = metric_units()
    setup_s = None if trace else measure_setup()
    rounds, tracers = [], []
    t0 = time.perf_counter()
    longest = 0.0
    # as many whole rounds as fit in --seconds, judged by the longest so far
    while not rounds or time.perf_counter() - t0 + longest <= seconds:
        start = time.perf_counter()
        tracer = spans.Tracer() if trace else None
        rounds.append(Round(cli, invocations, seed, tracer))
        if trace:
            tracers.append(tracer)
        longest = max(longest, time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, failed, notes = check(rounds, invocations, seed)
    for note in notes:
        print("check:", note)

    med = statistics.median
    if trace:
        layers = [spans.layer_metrics(t.spans) for t in tracers]
        values = {key: med(m[key] for m in layers) for key in layers[0]}
        values.update(rounds[0].solve_metrics())
        smart = sum(1 for inv, _, _ in rounds[0].results if inv.mode != "baseline")
        print(f"solve.first_try_share base: {values['solve.first_try_results']} of {smart} smart-mode results")
        values["trace.overhead_s"] = med(r.traced_job_s - r.job_s for r in rounds)
        os.makedirs(WORK, exist_ok=True)
        span_path = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
        spans.write(span_path, tracers)
        print(f"spans: {span_path}")
        units = per_layer
    else:
        values = {
            "setup_s": setup_s,
            "job_s": med(r.job_s for r in rounds),
            "result_s": med(r.result_s() for r in rounds),
            "total_bits": med(r.total_bits() for r in rounds),
            "kernel_runs": med(r.kernel_runs for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = end_to_end
    attempted = sum(len(r.results) + len(r.traced_results) for r in rounds)
    print(f"{name}: seed {seed}, {len(rounds)} rounds" + (", each invocation plain and traced" if trace else ""))
    for key, unit in units.items():
        print(f"  {key} = {values[key]:.6g} {unit}")
    print(f"  attempted = {attempted}, failed = {failed}, correct = {str(correct).lower()}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, one summary line per metric."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']},"
              f" correct {str(result['correct']).lower()}")
        for key, metric in result["metrics"].items():
            print(f"  {key:<12} {metric['value']:>12.6g} {metric['unit']}")
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def tune_one(cli, kernel, target, shape, seed, workdir):
    """A small real tune for the self-test; returns its result record."""
    from workloads import Invocation

    argv = Invocation(kernel, "smart_plus", (target,), shape).argv(seed, workdir, dataset_size=200)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    (path,) = glob.glob(os.path.join(workdir, "*.json"))
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--self-test", action="store_true", help="check that corrupted results are rejected")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    import spans  # noqa: F401  the same imports a run makes before its first tune
    from workloads import WORKLOADS

    if args.setup_probe:
        print("ready", repr(time.process_time()), flush=True)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.self_test:
        import checks

        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
        try:
            failures = checks.self_test(lambda *a: tune_one(cli, *a), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for failure in failures:
            print("FAIL:", failure)
        return 1 if failures else 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
