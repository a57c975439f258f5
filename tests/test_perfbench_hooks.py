"""The benchmark's tracer hooks into the program by name.

perfbench/spans.py wraps, for the length of a traced run, functions it looks
up by attribute in prectune's modules (solve.solve_mp, solve.run_kernel and
so on).  Moving one of them out of the namespace it is looked up in breaks
traced benchmark runs, so this checks the hooks against the program as it
stands, loading spans.py unchanged.
"""

import importlib.util
from pathlib import Path

from prectune import kernels, solve
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
    ds = build_dataset("saxpy", n_samples=60, input_set=inp, seed_sample=0)
    tracer = spans.Tracer()
    with tracer.installed():
        result = solve.smart_tune("saxpy", inp, 1e-3, budget=3, dataset=ds, train_cfg=TrainConfig(epochs=5))
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"solve.tune", "solve.search", "learn.regressor_fit", "learn.classifier_fit", "kernels.run"} <= names
    # every verify run, plus the reference run kernel_runs leaves out
    assert result.kernel_runs + 1 == sum(1 for s in tracer.spans if s[spans.NAME] == "kernels.run")


def test_traced_retrains_record_one_fit_span_each():
    # a retrain after a miss starts from the previous regressor, but still
    # goes through solve.train_regressor, so each fit is one span
    spans = load_spans()
    inp = gen_input_set("saxpy", {"n": 64}, seed=0)
    ds = build_dataset("saxpy", n_samples=60, input_set=inp, seed_sample=0)
    tracer = spans.Tracer()
    with tracer.installed():
        result = solve.smart_tune("saxpy", inp, 1e-3, budget=3, dataset=ds, train_cfg=TrainConfig(epochs=5))
    assert result.samples_added >= 1
    fits = sum(1 for s in tracer.spans if s[spans.NAME] == "learn.regressor_fit")
    # the initial fit, then one per miss, except a miss that used up the
    # budget: no search is left to use its retrain
    retrains = result.samples_added - (result.status == "budget_exhausted")
    assert fits == 1 + retrains
    assert result.adam_steps > 0
