"""Spans and counts at prectune's module boundaries, recorded from outside.

The tracer replaces, for the duration of a ``with tracer.installed():``
block, the functions each module imports from the next one (cli -> dataset /
learn / solve -> kernels -> flexnum) with wrappers that record a span: name,
start, end and the index of the enclosing span.  The program is not edited.

``round_to_format`` runs hundreds of times per kernel run, so its calls are
not kept one by one: each is added to the enclosing span's ``rounds``,
``round_s`` and ``elements`` counts.  Everything stays in memory until
``write`` dumps it at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

from prectune import cli, dataset, kernels, solve

# (module, attribute, span name); every attribute is looked up by its
# caller at call time, so replacing it in that module's namespace is enough
WRAPPED = (
    (cli, "build_dataset", "dataset.build"),
    (cli, "smart_tune", "solve.tune"),
    (cli, "smart_tune_plus", "solve.tune"),
    (cli, "fptuning_baseline", "solve.tune"),
    (solve, "smart_tune", "solve.tune"),
    (solve, "build_dataset", "dataset.build"),
    (solve, "train_regressor", "learn.regressor_fit"),
    (solve, "train_classifier", "learn.classifier_fit"),
    (solve, "solve_mp", "solve.search"),
    (solve, "plus_refine", "solve.refine"),
    (solve, "run_kernel", "kernels.run"),
    (dataset, "run_kernel", "kernels.run"),
)

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if name == "dataset.build":
                self.spans[index][EXTRA]["samples"] = len(result.samples)
            return result

        return traced

    def _wrap_round(self, fn):
        spans, open_ = self.spans, self._open

        def traced(x, fmt):
            t0 = time.perf_counter()
            out = fn(x, fmt)
            took = time.perf_counter() - t0
            extra = spans[open_[-1]][EXTRA] if open_ else {}
            extra["rounds"] = extra.get("rounds", 0) + 1
            extra["round_s"] = extra.get("round_s", 0.0) + took
            extra["elements"] = extra.get("elements", 0) + np.size(x)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        saved.append((kernels, "round_to_format", kernels.round_to_format))
        try:
            for mod, attr, name in WRAPPED:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            kernels.round_to_format = self._wrap_round(kernels.round_to_format)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

def write(path: str, tracers: list[Tracer]) -> None:
    """One JSON object per span: the round it belongs to, its id within the
    round, name, start and end in seconds from the round's first span, the
    parent id (-1 at the top) and any counts."""
    with open(path, "w") as fh:
        for round_no, tracer in enumerate(tracers):
            t0 = tracer.spans[0][START] if tracer.spans else 0.0
            for i, (name, start, end, parent, extra) in enumerate(tracer.spans):
                row = {"round": round_no, "id": i, "name": name, "start": start - t0,
                       "end": end - t0, "parent": parent}
                fh.write(json.dumps({**row, **extra}) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from the spans of one tracer."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    def dur(s):
        return s[END] - s[START]

    def self_s(name):
        return sum(dur(s) - child_s[i] for i, s in enumerate(spans) if s[NAME] == name)

    def pick(name):
        return [s for s in spans if s[NAME] == name]

    def under(i, name):
        # nearest enclosing span of the given name, -1 if none
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        return p

    runs = pick("kernels.run")
    run_ms = [dur(s) * 1e3 for s in runs]
    round_s = sum(s[EXTRA].get("round_s", 0.0) for s in spans)
    elements = sum(s[EXTRA].get("elements", 0) for s in spans)
    builds = pick("dataset.build")
    build_s = sum(dur(s) for s in builds)
    searches = [dur(s) for s in pick("solve.search")]
    refine_runs = sum(
        1 for i, s in enumerate(spans) if s[NAME] == "kernels.run" and under(i, "solve.refine") >= 0
    )
    return {
        "cli.self_s": self_s("cli.tune"),
        "dataset.builds": len(builds),
        "dataset.build_s": build_s,
        "dataset.samples_per_s": (
            sum(s[EXTRA]["samples"] for s in builds) / build_s if build_s > 0 else 0.0
        ),
        "learn.regressor_fits": len(pick("learn.regressor_fit")),
        "learn.regressor_s": sum(dur(s) for s in pick("learn.regressor_fit")),
        "learn.classifier_fits": len(pick("learn.classifier_fit")),
        "learn.classifier_s": sum(dur(s) for s in pick("learn.classifier_fit")),
        "solve.searches": len(searches),
        "solve.search_s": sum(searches),
        "solve.search_s_max": max(searches, default=0.0),
        "solve.refines": len(pick("solve.refine")),
        "solve.refine_s": sum(dur(s) for s in pick("solve.refine")),
        "solve.refine_runs": refine_runs,
        "solve.self_s": self_s("solve.tune"),
        "kernels.runs": len(runs),
        "kernels.run_s": sum(run_ms) / 1e3,
        "kernels.run_ms_p50": statistics.median(run_ms) if run_ms else 0.0,
        "kernels.self_s": sum(run_ms) / 1e3 - round_s,
        "flexnum.rounds": sum(s[EXTRA].get("rounds", 0) for s in spans),
        "flexnum.round_s": round_s,
        "flexnum.elements": elements,
        "flexnum.melem_per_s": elements / round_s / 1e6 if round_s > 0 else 0.0,
    }
