"""Release gate: one test per acceptance criterion, numbered c01..c12.

Each test states its own pass condition and is runnable standalone;
session fixtures cache the expensive shared artifacts (1k datasets,
trained models, the end-to-end tuning runs) so the gate stays in the
minutes range.  Everything asserted here is checked against independent
oracles or the kernels themselves, never against the code under test.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from builds import fresh_dataset
from oracles import flex_op, grid_positive
from prectune.cli import main as cli_main, target_slug
from prectune.dataset import compute_error, reference_output
from prectune.embed import DomainBox, dt_label_boxes, nn_bound_info
from prectune.flexnum import FlexFormat, round_to_format
from prectune.kernels import dependency_graph, gen_input_set, run_kernel
from prectune.learn import (
    TrainConfig,
    classify,
    predict_logerr,
    train_classifier,
    train_regressor,
)
from prectune.solve import (
    RunLedger,
    brute_force_optimum,
    build_problem,
    dependency_consistent,
    fptuning_baseline,
    smart_tune_plus,
    solve_mp,
)

TUNE_BENCHES = ("fwt", "saxpy", "convolution", "dwt", "correlation")
TUNE_TARGETS = ("1e-1", "1e-5", "1e-10")


# --- shared artifacts -------------------------------------------------------------


@pytest.fixture(scope="session")
def dataset_1k():
    cache = {}

    def get(bench: str, n_samples: int = 1000, seed_sample: int = 0):
        key = (bench, n_samples, seed_sample)
        if key not in cache:
            cache[key] = fresh_dataset(bench, n_samples=n_samples, seed_sample=seed_sample)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def models_1k(dataset_1k):
    cache = {}

    def get(bench: str):
        if bench not in cache:
            ds = dataset_1k(bench)
            cfg = TrainConfig()
            cache[bench] = (train_regressor(ds, cfg), train_classifier(ds, cfg))
        return cache[bench]

    return get


def run_tune_pass(outdir) -> float:
    """One full end-to-end tuning pass over the five small kernels at the
    three targets; returns the wall time."""
    t0 = time.perf_counter()
    for bench in TUNE_BENCHES:
        argv = ["tune", "--benchmark", bench, "--mode", "smart_plus", "--budget", "100",
                "--out", str(outdir)]
        for t in TUNE_TARGETS:
            argv += ["--target", t]
        rc = cli_main(argv)
        assert rc == 0, f"{bench}: tune exited {rc}"
    return time.perf_counter() - t0


@pytest.fixture(scope="session")
def tune_pass_one(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("tune_pass1")
    elapsed = run_tune_pass(outdir)
    return outdir, elapsed


def tune_records(outdir):
    for bench in TUNE_BENCHES:
        for t in TUNE_TARGETS:
            name = f"{bench}_smart_plus_{target_slug(float(t))}.json"
            with open(os.path.join(outdir, name)) as fh:
                yield bench, float(t), json.load(fh)


# --- soft-float fidelity ----------------------------------------------------------


class TestC01FlexOpMatchesNative:
    def test_c01_52bit_ops_bit_identical_to_binary64(self):
        fmt = FlexFormat(52, 11)
        rng = np.random.default_rng(11)
        n = 100_000
        t0 = time.perf_counter()
        for kind, op in (("add", np.add), ("sub", np.subtract),
                         ("mul", np.multiply), ("div", np.true_divide)):
            a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
            b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
            got = np.asarray(flex_op(kind, a, b, fmt))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                want = op(a, b)
            mismatches = np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))
            assert mismatches == 0, f"{kind}: {mismatches} of {n} differ from native"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


# --- rounding oracle --------------------------------------------------------------


def nearest_even_by_enumeration(x: float, grid: np.ndarray, overflow: Fraction) -> float:
    """Nearest-even over the fully enumerated grid, exact arithmetic.

    grid holds every non-negative finite value ascending; its index parity
    equals the significand parity, and the overflow surrogate one step past
    the top is even.  Comparisons use Fractions so no double rounding can
    sneak in."""
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    sign = math.copysign(1.0, x)
    ax = Fraction(abs(x))
    idx = int(np.searchsorted(grid, abs(x), side="right"))
    lo_i = idx - 1
    lo = Fraction(float(grid[lo_i]))
    hi = Fraction(float(grid[idx])) if idx < len(grid) else overflow
    d_lo = ax - lo
    d_hi = hi - ax
    if d_lo < d_hi:
        chosen = lo
    elif d_hi < d_lo:
        chosen = hi
    elif lo_i % 2 == 0:
        chosen = lo
    else:
        chosen = hi
    if chosen == overflow:
        return sign * math.inf
    return sign * float(chosen)


class TestC02RoundingOracle:
    @pytest.mark.parametrize("mbits", [1, 2, 3, 4, 5, 6])
    def test_c02_round_matches_grid_enumeration(self, mbits):
        fmt = FlexFormat(mbits, 11)
        grid = grid_positive(mbits, 11)
        overflow = Fraction(2) ** 1024
        rng = np.random.default_rng(200 + mbits)
        xs = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-320.0, 308.0, 10_000)
        got = round_to_format(xs, fmt)
        mismatches = 0
        for x, g in zip(xs, got):
            want = nearest_even_by_enumeration(float(x), grid, overflow)
            if not (g == want or (math.isnan(g) and math.isnan(want))):
                mismatches += 1
        assert mismatches == 0


# --- dataset and model quality ----------------------------------------------------


class TestC03ErrorDistribution:
    def test_c03_class_fractions(self, dataset_1k):
        fracs = {}
        for bench in ("saxpy", "convolution", "bscholes"):
            ds = dataset_1k(bench)
            fracs[bench] = sum(s.class_label for s in ds.samples) / len(ds.samples)
        assert fracs["saxpy"] == 0.0, fracs
        assert fracs["convolution"] == 0.0, fracs
        assert fracs["bscholes"] > 0.0, fracs


class TestC04ClassifierQuality:
    @pytest.mark.parametrize("bench,floor", [
        ("saxpy", 0.99), ("convolution", 0.99), ("correlation", 0.90), ("dwt", 0.90),
    ])
    def test_c04_held_out_accuracy(self, bench, floor, dataset_1k, models_1k):
        _, clf = models_1k(bench)
        held = dataset_1k(bench, n_samples=300, seed_sample=1)
        hits = sum(classify(clf, s.config) == s.class_label for s in held.samples)
        acc = hits / len(held.samples)
        assert acc >= floor, f"{bench}: held-out accuracy {acc:.4f} < {floor}"


class TestC05RegressorTrend:
    @pytest.mark.parametrize("bench", ["saxpy", "convolution", "fwt"])
    def test_c05_rmse_decreases_with_training_size(self, bench):
        # one master draw; sizes are nested prefixes, the held-out set is
        # the fixed tail, so only the training size varies
        master = fresh_dataset(bench, n_samples=4500, seed_sample=0)
        held = master.samples[4000:]
        x = np.array([s.config for s in held], dtype=np.float64)
        y = np.array([s.log_err for s in held])
        rmse = {}
        for size in (100, 4000):
            sub = replace(master, samples=list(master.samples[:size]))
            reg = train_regressor(sub, TrainConfig())
            pred = predict_logerr(reg, x)
            rmse[size] = float(np.sqrt(np.mean((pred - y) ** 2)))
        assert rmse[4000] < rmse[100], f"{bench}: {rmse}"


# --- solver and embedding ---------------------------------------------------------


class TestC06SolverExactness:
    def test_c06_objective_equals_enumeration(self, models_1k):
        reg, clf = models_1k("saxpy")
        edges = dependency_graph("saxpy")
        for target in (1e-3, 1e-5, 1e-10):
            problem = build_problem("saxpy", reg, clf, target, 4, 12)
            sol = solve_mp(problem)
            best = None
            for cfg in itertools.product(range(4, 13), repeat=3):
                if not dependency_consistent(cfg, edges):
                    continue
                if classify(clf, cfg) != 0:
                    continue
                if predict_logerr(reg, np.array(cfg, dtype=np.float64)) < problem.log_target:
                    continue
                if best is None or sum(cfg) < best:
                    best = sum(cfg)
            got = sum(sol) if sol is not None else None
            assert got == best, f"target {target}: solver {got} vs enumeration {best}"


class TestC07EmbeddingSoundness:
    def test_c07_nn_bounds_contain_samples(self, models_1k):
        reg, _ = models_1k("saxpy")
        rng = np.random.default_rng(77)
        violations = 0
        for _ in range(500):
            lo = rng.integers(1, 53, 3)
            hi = np.array([rng.integers(l, 53) for l in lo])
            box = DomainBox(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
            (upper,), _ = nn_bound_info(reg, [box.lo], [box.hi])
            pts = np.column_stack(
                [rng.integers(l, h + 1, 20) for l, h in zip(lo, hi)]
            ).astype(np.float64)
            preds = predict_logerr(reg, pts)
            # tiny slack only for summation-order noise at the bound
            violations += int(np.count_nonzero(preds > upper + 1e-9))
        assert violations == 0

    def test_c07_dt_status_agrees_at_singletons(self, models_1k):
        _, clf = models_1k("saxpy")
        rng = np.random.default_rng(78)
        mismatches = 0
        for _ in range(10_000):
            cfg = tuple(int(v) for v in rng.integers(1, 53, 3))
            box = DomainBox(cfg, cfg)
            label = classify(clf, cfg)
            # a single point is one box of its own label and none of the other
            mismatches += dt_label_boxes(clf, box, label) != [box]
            mismatches += dt_label_boxes(clf, box, 1 - label) != []
        assert mismatches == 0


# --- end-to-end loop --------------------------------------------------------------


class TestC08EndToEndFeasibility:
    def test_c08_all_benchmarks_feasible(self, tune_pass_one):
        outdir, elapsed = tune_pass_one
        for bench, target, rec in tune_records(outdir):
            assert rec["feasible"] is True, (bench, target, rec["status"])
            assert rec["status"] == "feasible", (bench, target)
            assert rec["iterations"] <= 100
            assert rec["actual_error"] <= target
        assert elapsed < 3600.0, f"pass took {elapsed:.0f} s"


class TestC09NearOptimality:
    @pytest.mark.parametrize("target", [1e-3, 1e-5])
    def test_c09_within_ten_percent_of_brute_force(self, target):
        inp = gen_input_set("saxpy", None, 0)
        brute = brute_force_optimum(RunLedger(inp), target, 4, 20)
        assert brute is not None
        smart = smart_tune_plus(RunLedger(inp), target, budget=100, nbit_min=4, nbit_max=20)
        assert smart.feasible, smart.status
        base = fptuning_baseline(RunLedger(inp), target, 4, 20)
        assert base.feasible, base.status
        limit = 1.10 * sum(brute)
        assert sum(smart.config) <= limit, (smart.config, brute)
        assert sum(base.config) <= limit, (base.config, brute)


class TestC10RefinementMonotonicity:
    def test_c10_refine_never_hurts(self, tune_pass_one):
        outdir, _ = tune_pass_one
        for bench, target, rec in tune_records(outdir):
            assert rec["pre_refine_total_bits"] is not None, (bench, target)
            assert rec["total_bits"] <= rec["pre_refine_total_bits"], (bench, target)
            # re-verify feasibility against the kernel, not the run's own claim
            inp = gen_input_set(bench, rec["shape"], rec["seed_input"])
            ref = reference_output(bench, inp)
            err = compute_error(run_kernel(bench, inp, tuple(rec["config"])), ref)
            assert err <= target, (bench, target, err)


class TestC11TransferHarness:
    def test_c11_thirty_input_sets(self, tmp_path):
        rc = cli_main([
            "transfer", "--benchmark", "saxpy,fwt", "--target", "1e-3,1e-5",
            "--n-inputs", "30", "--out", str(tmp_path),
        ])
        assert rc == 0
        path = tmp_path / "transfer_violations.csv"
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        cells = {(r[0], r[1]) for r in rows}
        assert cells == {(b, t) for b in ("saxpy", "fwt") for t in ("0.001", "1e-5")}
        for r in rows:
            for pct in (float(r[2]), float(r[3])):
                assert 0.0 <= pct <= 100.0, r


class TestC12Determinism:
    def test_c12_repeat_run_byte_identical(self, tune_pass_one, tmp_path_factory):
        outdir1, _ = tune_pass_one
        outdir2 = tmp_path_factory.mktemp("tune_pass2")
        run_tune_pass(outdir2)
        for bench in TUNE_BENCHES:
            name = f"{bench}_smart_plus_summary.csv"
            a = (outdir1 / name).read_bytes()
            b = (outdir2 / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
