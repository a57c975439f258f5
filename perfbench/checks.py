"""Correctness checks on the program's outputs, made with reference.py.

``Checker.kernel_problems`` compares the program's kernel at the all-52 and
all-23 configs with the binary64 and float32 renditions.  ``Checker.record``
lists every reason to reject one per-target result record of `prectune
tune`: an infeasible result, a config that breaks the slot rules or the
width box, a wrong total, a refinement that added bits, and an error above
the target when the config is re-run in the reference emulation.
``self_test`` feeds corrupted copies of a real record and expects each to
be rejected.
"""

from __future__ import annotations

import copy
import math

import numpy as np

import reference as ref
from prectune.kernels import gen_input_set, run_kernel

# the reported error and the one recomputed here come from bit-identical
# outputs, so only the last digits of the ratio may differ
ERROR_RTOL = 1e-9


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class Checker:
    """Caches the inputs and binary64 outputs of each (kernel, shape, seed)."""

    def __init__(self):
        self._inputs: dict = {}
        self._seen: dict = {}

    def inputs(self, kernel: str, shape: dict, seed: int):
        key = (kernel, tuple(sorted(shape.items())), seed)
        if key not in self._inputs:
            inp = gen_input_set(kernel, dict(shape) or None, seed)
            exact = ref.run(kernel, inp.arrays, inp.shape)
            self._inputs[key] = (inp, exact)
        return self._inputs[key]

    def kernel_problems(self, kernel: str, shape: dict, seed: int) -> list[str]:
        inp, exact = self.inputs(kernel, shape, seed)
        n = ref.SLOTS[kernel]
        problems = []
        if not _same_bits(run_kernel(kernel, inp, [52] * n), exact):
            problems.append(f"{kernel}: all-52 output differs from the binary64 rendition")
        f32 = ref.Float32()
        single = ref.run(kernel, inp.arrays, inp.shape, f32)
        if not f32.in_range:
            print(f"check: {kernel}: values leave binary32's normal range, all-23 comparison skipped")
        elif not _same_bits(run_kernel(kernel, inp, [23] * n), single):
            problems.append(f"{kernel}: all-23 output differs from the float32 rendition")
        return problems

    def record(self, rec: dict, kernel: str, mode: str, target: float, shape: dict, seed: int) -> list[str]:
        """Reasons to reject rec as the result for (kernel, mode, target)."""
        fields = ("feasible", "status", "config", "total_bits", "pre_refine_total_bits", "actual_error")
        key = repr([rec.get(f) for f in fields] + [kernel, mode, target, sorted(shape.items()), seed])
        if key not in self._seen:
            self._seen[key] = self._record(rec, kernel, mode, target, shape, seed)
        return self._seen[key]

    def _record(self, rec, kernel, mode, target, shape, seed) -> list[str]:
        if (rec.get("benchmark"), rec.get("mode"), rec.get("target")) != (kernel, mode, target):
            return [f"record is for {rec.get('benchmark')} {rec.get('mode')} {rec.get('target')}"]
        if rec.get("feasible") is not True:
            return [f"infeasible ({rec.get('status')})"]
        config = rec.get("config")
        if not isinstance(config, list):
            return ["no config"]
        problems = ref.rule_violations(kernel, config)
        if problems:
            return problems
        if rec.get("total_bits") != sum(config):
            problems.append(f"total_bits {rec.get('total_bits')} != sum of widths {sum(config)}")
        if mode == "smart_plus":
            pre = rec.get("pre_refine_total_bits")
            if not isinstance(pre, int) or rec.get("total_bits", math.inf) > pre:
                problems.append(f"total_bits {rec.get('total_bits')} above pre-refine {pre}")
        claimed = rec.get("actual_error")
        if not isinstance(claimed, (int, float)) or not claimed <= target:
            problems.append(f"reported error {claimed} above target {target}")
        inp, exact = self.inputs(kernel, shape, seed)
        err = ref.error(ref.run(kernel, inp.arrays, inp.shape, ref.reduced(config)), exact)
        if not err <= target:
            problems.append(f"re-run error {err:.6g} above target {target}")
        elif isinstance(claimed, (int, float)) and not math.isclose(err, claimed, rel_tol=ERROR_RTOL, abs_tol=0.0):
            problems.append(f"reported error {claimed!r} but re-run gives {err!r}")
        return problems


def _corruptions(rec: dict, kernel: str, target: float, checker: Checker, shape: dict, seed: int):
    """(label, corrupted record) pairs, each of which must be rejected."""

    def edit(**changes):
        bad = copy.deepcopy(rec)
        bad.update(changes)
        return bad

    cfg = list(rec["config"])
    yield "infeasible", edit(feasible=False, status="budget_exhausted")
    yield "total off by one", edit(total_bits=rec["total_bits"] + 1)
    yield "missing slot", edit(config=cfg[:-1], total_bits=sum(cfg[:-1]))
    yield "width above the box", edit(config=cfg[:-1] + [53], total_bits=sum(cfg[:-1]) + 53)
    yield "refinement added bits", edit(pre_refine_total_bits=rec["total_bits"] - 1)
    yield "reported error misstated", edit(actual_error=rec["actual_error"] * 0.5 + target * 1e-3)
    if ref.CAST[kernel]:
        sources, dst = ref.CAST[kernel][0]
        broken = list(cfg)
        broken[dst] = min(cfg[s] for s in sources) + (1 if cfg[dst] < 52 else -1)
        yield f"cast slot {dst} off its operands", edit(config=broken, total_bits=sum(broken))
    # lower the widest slot, keeping the rules, until the target breaks
    inp, exact = checker.inputs(kernel, shape, seed)
    low = list(cfg)
    while True:
        slot = max(range(len(low)), key=lambda i: (low[i], -i))
        if low[slot] == 1:
            return
        low[slot] -= 1
        for src, dst in ref.ASSIGN[kernel]:
            low[src] = min(low[src], low[dst])
        for sources, dst in ref.CAST[kernel]:
            low[dst] = min(low[s] for s in sources)
        if ref.rule_violations(kernel, low):
            return
        err = ref.error(ref.run(kernel, inp.arrays, inp.shape, ref.reduced(low)), exact)
        if err > target:
            yield "width lowered past the target", edit(config=list(low), total_bits=sum(low))
            return


def self_test(tune, workdir: str) -> list[str]:
    """Run one small real tune, check its record passes, then check that
    every corruption of it is rejected.  Returns the failures."""
    kernel, target, shape, seed = "saxpy", 1e-5, {"n": 256}, 0
    rec = tune(kernel, target, shape, seed, workdir)
    checker = Checker()
    failures = [f"untouched record rejected: {p}" for p in checker.record(rec, kernel, "smart_plus", target, shape, seed)]
    failures += checker.kernel_problems(kernel, shape, seed)
    labels = []
    for label, bad in _corruptions(rec, kernel, target, checker, shape, seed):
        labels.append(label)
        if not Checker().record(bad, kernel, "smart_plus", target, shape, seed):
            failures.append(f"corruption not rejected: {label}")
    if "width lowered past the target" not in labels:
        failures.append("could not build a config that breaks the target")
    # a flipped low bit in the program's output must fail the bit-identity test
    inp, exact = checker.inputs(kernel, shape, seed)
    flipped = exact.copy()
    flipped.view(np.uint64)[0] ^= np.uint64(1)
    if _same_bits(flipped, exact):
        failures.append("bit-identity comparison missed a flipped bit")
    print(f"self-test: {len(labels)} corrupted records, {len(failures)} failures")
    for label in labels:
        print(f"  rejected as expected unless listed below: {label}")
    return failures
