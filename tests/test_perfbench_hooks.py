"""The benchmark's tracer hooks into the program by name.

perfbench/spans.py wraps, for the length of a traced run, functions it looks
up by attribute in prectune's modules (solve.solve_mp, solve.run_kernel and
so on).  Moving one of them out of the namespace it is looked up in breaks
traced benchmark runs, so this checks the hooks against the program as it
stands, loading spans.py unchanged.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from prectune import cli, kernels, solve
from prectune.dataset import build_dataset
from prectune.kernels import gen_input_set
from prectune.learn import TrainConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_exist_and_are_restored():
    spans = load_spans()
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in spans.WRAPPED]
    saved.append((kernels, "round_to_format", kernels.round_to_format))
    assert all(callable(fn) for _, _, fn in saved)
    with spans.Tracer().installed():
        for mod, attr, fn in saved:
            assert getattr(mod, attr) is not fn, f"{mod.__name__}.{attr} not wrapped"
    for mod, attr, fn in saved:
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"


def test_traced_tune_records_every_solve_layer():
    spans = load_spans()
    inp = gen_input_set("saxpy", {"n": 64}, seed=0)
    ds = build_dataset(solve.RunLedger(inp), n_samples=60, seed_sample=0)
    tracer = spans.Tracer()
    with tracer.installed():
        result = solve.smart_tune(solve.RunLedger(inp), 1e-3, budget=3, dataset=ds, train_cfg=TrainConfig(epochs=5))
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"solve.tune", "solve.search", "learn.regressor_fit", "learn.classifier_fit", "kernels.run"} <= names
    # every verify run, plus the reference run kernel_runs leaves out
    assert result.kernel_runs + 1 == sum(1 for s in tracer.spans if s[spans.NAME] == "kernels.run")


def test_traced_retrains_record_one_fit_span_each():
    # a retrain after a miss starts from the previous regressor, but still
    # goes through solve.train_regressor, so each fit is one span
    spans = load_spans()
    inp = gen_input_set("saxpy", {"n": 64}, seed=0)
    ds = build_dataset(solve.RunLedger(inp), n_samples=60, seed_sample=0)
    tracer = spans.Tracer()
    with tracer.installed():
        result = solve.smart_tune(solve.RunLedger(inp), 1e-3, budget=3, dataset=ds, train_cfg=TrainConfig(epochs=5))
    assert result.samples_added >= 1
    fits = sum(1 for s in tracer.spans if s[spans.NAME] == "learn.regressor_fit")
    # the initial fit, then one per miss, except a miss that used up the
    # budget: no search is left to use its retrain
    retrains = result.samples_added - (result.status == "budget_exhausted")
    assert fits == 1 + retrains
    assert result.adam_steps > 0


RUN_PATH = SPANS_PATH.with_name("run.py")


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode,tuner", [
    ("smart", "smart_tune"), ("smart_plus", "smart_tune_plus"), ("baseline", "fptuning_baseline"),
])
def test_tune_calls_one_timed_tuner_per_target(monkeypatch, tmp_path, mode, tuner):
    # perfbench's result_s times each target through the cli attributes
    # named in run.TUNERS, so tune must call exactly one of them per target
    tuners = load_run().TUNERS
    assert tuner in tuners
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    for name in tuners:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    rc = cli.main(["tune", "--benchmark", "saxpy", "--mode", mode, "--target", "1e-1,1e-3,1e-5",
                   "--shape", "n=64", "--dataset-size", "60", "--epochs", "5", "--budget", "3",
                   "--out", str(tmp_path)])
    assert rc in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
    assert calls == [tuner] * 3


def test_traced_baseline_tune_counts_its_runs_under_refine(tmp_path):
    # every baseline run after the reference is a descent run through
    # solve.plus_refine, so the kernels.run spans under solve.refine add up
    # to the records' kernel_runs; a run moved off solve.run_kernel would
    # leave its span uncounted
    spans = load_spans()
    targets = ("1e-1", "1e-3", "1e-5")
    tracer = spans.Tracer()
    with tracer.installed():
        rc = cli.main(["tune", "--benchmark", "saxpy", "--mode", "baseline", "--target", ",".join(targets),
                       "--shape", "n=64", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    kernel_runs = 0
    for target in targets:
        name = f"saxpy_baseline_{cli.target_slug(float(target))}.json"
        kernel_runs += json.loads((tmp_path / name).read_text())["kernel_runs"]
    layers = spans.layer_metrics(tracer.spans)
    assert layers["solve.refines"] == len(targets)
    assert layers["solve.refine_runs"] == kernel_runs > 0
    # and the one reference run is the only run outside them
    assert layers["kernels.runs"] == kernel_runs + 1
