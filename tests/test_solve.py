"""Search layer: constraint handling, bound soundness, optimality, loops.

The ground truth for solve_mp is a test-local exhaustive filter over every
config in the domain box, run through the same model acceptance test.  The
ground truth for the kernel-level searches is brute force over small boxes.
"""

import itertools

import numpy as np
import pytest

from oracles import consistent_walk, interval_ranges, propagate_box_fixpoint, settle_casts_fixpoint
from prectune import solve
from prectune.dataset import Dataset, Sample, build_dataset, compute_error, log_error, reference_output
from prectune.embed import DomainBox, dt_label_boxes, nn_bound_info
from prectune.kernels import gen_input_set, get_benchmark, run_kernel
from prectune.learn import (
    DTModel,
    MLPModel,
    TrainConfig,
    classify,
    init_mlp,
    predict_logerr,
    train_classifier,
    train_regressor,
)
from prectune.solve import (
    BRUTE_FORCE_CAP,
    RunLedger,
    brute_force_optimum,
    build_problem,
    dependency_consistent,
    fptuning_baseline,
    plus_refine,
    propagate_box,
    settle_casts,
    smart_tune,
    smart_tune_plus,
    solve_mp,
)

SAXPY_SHAPE = {"n": 128}


@pytest.fixture(scope="module")
def saxpy_input():
    return gen_input_set("saxpy", SAXPY_SHAPE, seed=0)


@pytest.fixture(scope="module")
def saxpy_dataset(saxpy_input):
    return build_dataset(RunLedger(saxpy_input), n_samples=250, seed_sample=0)


@pytest.fixture(scope="module")
def saxpy_models(saxpy_dataset):
    cfg = TrainConfig(seed=0)
    return train_regressor(saxpy_dataset, cfg), train_classifier(saxpy_dataset, cfg)


@pytest.fixture(scope="module")
def saxpy_dataset_4_20(saxpy_input):
    return build_dataset(RunLedger(saxpy_input), n_samples=250, nbit_lo=4, nbit_hi=20, seed_sample=0)


def fitted(dataset, train_cfg=TrainConfig()):
    """dataset and the pair fit_models fits on it: a smart tuner's dataset
    and models arguments."""
    return dataset, solve.fit_models(dataset, train_cfg)


def flat_dataset(log_err: float, lo: int = 4, hi: int = 6) -> Dataset:
    """Synthetic saxpy-shaped dataset claiming the same log error everywhere."""
    err = 10.0 ** (-log_err)
    samples = [
        Sample((a, b, c), err, log_err, 0)
        for a in range(lo, hi + 1)
        for b in range(lo, hi + 1)
        for c in range(lo, hi + 1)
    ]
    return Dataset("saxpy", lo, hi, 0, 0, dict(SAXPY_SHAPE), samples)


def enumerate_accepted(problem):
    """Every config the models accept, by full enumeration of the box."""
    lo, hi = problem.domain.lo, problem.domain.hi
    reg, clf = problem.regressor, problem.classifier
    cfgs = [
        cfg
        for cfg in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if cfg not in problem.cuts and dependency_consistent(cfg, problem.kernel)
    ]
    preds = predict_logerr(reg, np.array(cfgs, dtype=float))
    return [
        cfg
        for cfg, p in zip(cfgs, preds)
        if p >= problem.log_target and classify(clf, cfg) == 0
    ]


def enumeration_optimum(problem):
    accepted = enumerate_accepted(problem)
    if not accepted:
        return None
    return min(accepted, key=lambda c: (sum(c), c))


class TestDependencyHelpers:
    def test_consistency_saxpy(self):
        kernel = get_benchmark("saxpy")
        assert dependency_consistent((5, 5, 5), kernel)
        assert dependency_consistent((3, 8, 3), kernel)
        assert not dependency_consistent((5, 5, 4), kernel)
        assert not dependency_consistent((3, 8, 8), kernel)

    def test_consistency_assignment(self):
        kernel = get_benchmark("dwt")
        assert dependency_consistent((5,) * 7, kernel)
        assert dependency_consistent((5, 6, 7, 8, 9, 10, 11), kernel)
        # slot 1 copies slot 0, so it may not be narrower
        assert not dependency_consistent((5, 4, 5, 5, 5, 5, 5), kernel)

    def test_free_dims(self):
        assert get_benchmark("saxpy").free == (0, 1)
        assert get_benchmark("fwt").free == (0,)
        assert get_benchmark("dwt").free == tuple(range(7))
        assert get_benchmark("correlation").free == (0, 1, 3, 4, 5)
        assert get_benchmark("bscholes").free == (0, 1, 2, 3, 4, 6, 11, 12)

    def test_propagate_noop_on_full_box(self):
        kernel = get_benchmark("saxpy")
        box = DomainBox((1, 1, 1), (52, 52, 52))
        assert propagate_box(box, kernel) == box

    def test_propagate_raises_sources(self):
        kernel = get_benchmark("saxpy")
        box = DomainBox((1, 1, 5), (52, 52, 52))
        assert propagate_box(box, kernel) == DomainBox((5, 5, 5), (52, 52, 52))

    def test_propagate_empty(self):
        kernel = get_benchmark("saxpy")
        # cast result is forced to at most 5 but its floor is 9
        assert propagate_box(DomainBox((1, 1, 9), (52, 5, 52)), kernel) is None
        assert propagate_box(DomainBox((1, 1, 7), (6, 52, 52)), kernel) is None

    def test_propagate_keeps_every_consistent_config(self):
        rng = np.random.default_rng(3)
        kernel = get_benchmark("correlation")
        for _ in range(50):
            a = rng.integers(1, 13, 7)
            b = rng.integers(1, 13, 7)
            box = DomainBox(tuple(np.minimum(a, b).tolist()), tuple(np.maximum(a, b).tolist()))
            tight = propagate_box(box, kernel)
            for cfg in itertools.product(*(range(l, h + 1) for l, h in zip(box.lo, box.hi))):
                if dependency_consistent(cfg, kernel):
                    assert tight is not None and tight.contains(cfg)

    @pytest.mark.parametrize("bench", ["saxpy", "fwt", "dwt", "correlation", "convolution", "bscholes", "jacobi"])
    def test_propagated_lo_is_consistent(self, bench):
        # the search takes a propagated box's lo corner as its cheapest
        # config, which needs the corner itself to satisfy every rule
        rng = np.random.default_rng(4)
        kernel = get_benchmark(bench)
        n = kernel.n_var
        checked = 0
        for i in range(300):
            a = rng.integers(1, 53, n)
            # every other box open to the top: wide cast chains empty
            # almost every fully random box
            b = rng.integers(1, 53, n) if i % 2 else np.full(n, 52)
            tight = propagate_box(DomainBox(tuple(np.minimum(a, b).tolist()), tuple(np.maximum(a, b).tolist())), kernel)
            if tight is None:
                continue
            assert dependency_consistent(tight.lo, kernel)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("bench", ["saxpy", "fwt", "dwt", "correlation", "convolution", "bscholes", "jacobi"])
    def test_settle_casts_matches_fixpoint_reference(self, bench):
        # one pass in declaration order against passes until stable, on
        # random configs and on their settled forms, which are consistent
        rng = np.random.default_rng(5)
        kernel = get_benchmark(bench)
        n = kernel.n_var
        configs = []
        for _ in range(400):
            lo, hi = sorted(rng.integers(1, 53, 2).tolist())
            configs.append(tuple(rng.integers(lo, hi + 1, n).tolist()))
        rules = (kernel.casts, kernel.assignments)
        settled = [c for c in (settle_casts_fixpoint(c, *rules) for c in configs) if c is not None]
        assert settled
        for cfg in configs + settled:
            probe = list(cfg)
            assert settle_casts(probe, kernel) == settle_casts_fixpoint(cfg, *rules)
            assert probe == list(cfg)
            assert dependency_consistent(cfg, kernel) == consistent_walk(cfg, *rules)
        assert all(dependency_consistent(c, kernel) for c in settled)

    @pytest.mark.parametrize("bench", ["saxpy", "fwt", "dwt", "correlation", "convolution", "bscholes", "jacobi"])
    def test_propagate_box_matches_fixpoint_reference(self, bench):
        # casts then assignments against the reference's other sweep order,
        # on random wide boxes and on narrow boxes around settled configs
        rng = np.random.default_rng(6)
        kernel = get_benchmark(bench)
        rules = (kernel.casts, kernel.assignments)
        n = kernel.n_var
        nonempty = 0
        for i in range(400):
            if i % 2:
                a, b = rng.integers(1, 53, n), rng.integers(1, 53, n)
                lo, hi = np.minimum(a, b), np.maximum(a, b)
            else:
                center = None
                while center is None:
                    center = settle_casts(rng.integers(1, 53, n).tolist(), kernel)
                lo = np.clip(np.array(center) - rng.integers(0, 4, n), 1, 52)
                hi = np.clip(np.array(center) + rng.integers(0, 4, n), 1, 52)
            lo, hi = tuple(lo.tolist()), tuple(hi.tolist())
            tight = propagate_box(DomainBox(lo, hi), kernel)
            want = propagate_box_fixpoint(lo, hi, *rules)
            if want is None:
                assert tight is None
            else:
                assert (tight.lo, tight.hi) == want
                nonempty += 1
        assert nonempty >= 200


class TestNNUpperBound:
    def test_hand_network_abs(self):
        # relu(x) + relu(-x) = |x|; chord relaxation is exact at the corner
        w0 = np.array([[1.0, -1.0]])
        w1 = np.array([[1.0], [1.0]])
        model = MLPModel([w0, w1], [np.zeros(2), np.zeros(1)], 0.0, 1.0)
        (ub,), _ = nn_bound_info(model, [(-1,)], [(3,)])
        assert ub == pytest.approx(3.0, abs=1e-12)
        assert interval_ranges(model, (-1,), (3,))[-1][1][0] == pytest.approx(4.0)

    def test_sound_and_no_looser_than_interval(self, saxpy_models):
        reg, _ = saxpy_models
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.integers(1, 53, 3)
            b = rng.integers(1, 53, 3)
            box = DomainBox(tuple(np.minimum(a, b).tolist()), tuple(np.maximum(a, b).tolist()))
            (ub,), _ = nn_bound_info(reg, [box.lo], [box.hi])
            pts = np.column_stack(
                [rng.integers(l, h + 1, 128) for l, h in zip(box.lo, box.hi)]
            ).astype(float)
            assert ub >= float(np.max(predict_logerr(reg, pts))) - 1e-9
            assert ub <= interval_ranges(reg, box.lo, box.hi)[-1][1][0] + 1e-9

    def test_singleton_matches_forward(self, saxpy_models):
        reg, _ = saxpy_models
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = tuple(int(v) for v in rng.integers(1, 53, 3))
            (ub,), _ = nn_bound_info(reg, [p], [p])
            exact = predict_logerr(reg, np.array(p, dtype=float))
            assert ub == pytest.approx(exact, rel=1e-9, abs=1e-9)


class TestLeafBoxes:
    def test_hand_tree(self):
        root = {
            "feature": 0,
            "threshold": 3,
            "left": {"leaf": 1},
            "right": {"feature": 1, "threshold": 5, "left": {"leaf": 0}, "right": {"leaf": 1}},
        }
        clf = DTModel(root=root, n_inputs=2, max_depth=5)
        dom = DomainBox((1, 1), (10, 10))
        assert dt_label_boxes(clf, dom, 0) == [DomainBox((4, 1), (10, 5))]
        assert dt_label_boxes(clf, dom, 1) == [
            DomainBox((1, 1), (3, 10)),
            DomainBox((4, 6), (10, 10)),
        ]
        # a clipped domain drops unreachable subtrees
        assert dt_label_boxes(clf, DomainBox((5, 1), (10, 10)), 1) == [
            DomainBox((5, 6), (10, 10))
        ]

    def test_partitions_domain_exactly(self, saxpy_models):
        _, clf = saxpy_models
        dom = DomainBox((1, 1, 1), (12, 12, 12))
        boxes0 = dt_label_boxes(clf, dom, 0)
        boxes1 = dt_label_boxes(clf, dom, 1)
        for cfg in itertools.product(range(1, 13), repeat=3):
            hits0 = sum(b.contains(cfg) for b in boxes0)
            hits1 = sum(b.contains(cfg) for b in boxes1)
            assert hits0 + hits1 == 1
            assert (hits0 == 1) == (classify(clf, cfg) == 0)


class TestBuildProblem:
    def test_validation(self, saxpy_models):
        reg, clf = saxpy_models
        with pytest.raises(ValueError):
            build_problem("saxpy", reg, clf, 1e-3, nbit_min=0)
        with pytest.raises(ValueError):
            build_problem("saxpy", reg, clf, 1e-3, nbit_max=53)
        with pytest.raises(ValueError):
            build_problem("saxpy", reg, clf, 1e-3, nbit_min=9, nbit_max=8)
        with pytest.raises(ValueError):
            build_problem("saxpy", reg, clf, 0.0)
        with pytest.raises(ValueError):
            build_problem("saxpy", reg, clf, -1e-3)

    def test_fields(self, saxpy_models):
        reg, clf = saxpy_models
        prob = build_problem("saxpy", reg, clf, 1e-5, nbit_min=4, nbit_max=12, cuts=[(4, 4, 4)])
        assert prob.domain == DomainBox((4, 4, 4), (12, 12, 12))
        assert prob.log_target == pytest.approx(5.0)
        assert prob.cuts == frozenset({(4, 4, 4)})


class TestSolveMP:
    @pytest.mark.parametrize("target", [1e-3, 1e-5, 1e-10])
    def test_matches_enumeration(self, saxpy_models, target):
        reg, clf = saxpy_models
        prob = build_problem("saxpy", reg, clf, target, nbit_min=4, nbit_max=12)
        sol = solve_mp(prob)
        want = enumeration_optimum(prob)
        if want is None:
            assert sol is None
        else:
            assert sol == want

    def test_matches_enumeration_with_cuts(self, saxpy_models):
        reg, clf = saxpy_models
        prob = build_problem("saxpy", reg, clf, 1e-5, nbit_min=4, nbit_max=20)
        first = solve_mp(prob)
        assert first is not None
        cut_prob = build_problem(
            "saxpy", reg, clf, 1e-5, nbit_min=4, nbit_max=20, cuts=[first]
        )
        second = solve_mp(cut_prob)
        assert second == enumeration_optimum(cut_prob)
        if second is not None:
            assert second != first
            assert sum(second) >= sum(first)

    def test_solution_invariants(self, saxpy_models):
        reg, clf = saxpy_models
        prob = build_problem("saxpy", reg, clf, 1e-5, nbit_min=2, nbit_max=20)
        sol = solve_mp(prob)
        assert sol is not None
        assert dependency_consistent(sol, prob.kernel)
        assert prob.domain.contains(sol)
        assert predict_logerr(reg, np.array(sol, dtype=np.float64)) >= prob.log_target
        assert classify(clf, sol) == 0

    def test_deterministic(self, saxpy_models):
        reg, clf = saxpy_models
        prob = build_problem("saxpy", reg, clf, 1e-4, nbit_min=1, nbit_max=52)
        assert solve_mp(prob) == solve_mp(prob)

    def test_rejecting_classifier_gives_none(self):
        reg = init_mlp(3, 1.0, 52.0, seed=0)
        clf = DTModel(root={"leaf": 1}, n_inputs=3, max_depth=1)
        prob = build_problem("saxpy", reg, clf, 1e-3)
        assert solve_mp(prob) is None

    def test_flat_optimist_picks_domain_floor(self):
        # models that accept everything: cheapest consistent config wins,
        # and for saxpy that is the lex-smallest corner
        ds = flat_dataset(35.0)
        reg = train_regressor(ds)
        clf = train_classifier(ds)
        prob = build_problem("saxpy", reg, clf, 1e-30, nbit_min=4, nbit_max=6)
        sol = solve_mp(prob)
        assert sol == (4, 4, 4)


@pytest.fixture(scope="module")
def dwt_models():
    inp = gen_input_set("dwt", {"n": 64}, seed=0)
    ds = build_dataset(RunLedger(inp), n_samples=250, seed_sample=0)
    cfg = TrainConfig(seed=0)
    return train_regressor(ds, cfg), train_classifier(ds, cfg)


class TestBestFirstSearch:
    @pytest.mark.parametrize("target", [1e-2, 5e-3, 3e-3])
    def test_dwt_matches_enumeration(self, dwt_models, target):
        # seven slots in a narrow box: the frontier holds many boxes at once
        reg, clf = dwt_models
        prob = build_problem("dwt", reg, clf, target, nbit_min=8, nbit_max=12)
        sol = solve_mp(prob)
        want = enumeration_optimum(prob)
        assert want is not None and sol == want
        cut_prob = build_problem("dwt", reg, clf, target, nbit_min=8, nbit_max=12, cuts=[want])
        assert solve_mp(cut_prob) == enumeration_optimum(cut_prob)

    @pytest.mark.parametrize("bench,target", [("dwt", 1e-3), ("dwt", 1e-6), ("saxpy", 1e-5)])
    def test_frontier_size_keeps_the_answer(self, monkeypatch, dwt_models, saxpy_models, bench, target):
        reg, clf = dwt_models if bench == "dwt" else saxpy_models
        prob = build_problem(bench, reg, clf, target)
        want = solve_mp(prob)
        assert want is not None
        for size in (1, 64):
            monkeypatch.setattr(solve, "FRONTIER", size)
            assert solve_mp(prob) == want

    def test_stats_count_bounded_boxes(self, monkeypatch, dwt_models):
        reg, clf = dwt_models
        rows = []

        def counted(model, lo, hi, *args):
            rows.append(len(lo))
            return nn_bound_info(model, lo, hi, *args)

        monkeypatch.setattr(solve, "nn_bound_info", counted)
        stats = solve.SearchStats()
        solve_mp(build_problem("dwt", reg, clf, 1e-3), stats)
        solve_mp(build_problem("dwt", reg, clf, 1e-5), stats)
        assert stats.boxes == sum(rows) > 0
        # boxes go to the bound in batches, at most FRONTIER at a time
        assert max(rows) <= solve.FRONTIER and len(rows) < sum(rows)


class TestSmartTune:
    def test_feasible_on_saxpy(self, saxpy_input, saxpy_dataset):
        ledger = RunLedger(saxpy_input)
        res = smart_tune(ledger, 1e-3, *fitted(saxpy_dataset), budget=15)
        assert res.status == "feasible"
        assert res.feasible
        assert res.config is not None
        assert res.actual_error <= 1e-3
        assert dependency_consistent(res.config, get_benchmark("saxpy"))
        assert res.refinement_iterations >= 1
        assert ledger.runs >= res.refinement_iterations
        # verification against the real kernel, not the model's guess
        out = run_kernel("saxpy", saxpy_input, res.config)
        ref = reference_output("saxpy", saxpy_input)
        assert compute_error(out, ref) == res.actual_error

    def test_does_not_mutate_dataset(self, saxpy_input):
        ds = flat_dataset(35.0)
        n_before = len(ds.samples)
        smart_tune(RunLedger(saxpy_input), 1e-30, *fitted(ds), budget=2)
        assert len(ds.samples) == n_before

    def test_budget_zero(self, saxpy_input, saxpy_dataset):
        ledger = RunLedger(saxpy_input)
        res = smart_tune(ledger, 1e-3, *fitted(saxpy_dataset), budget=0)
        assert res.status == "budget_exhausted"
        assert not res.feasible
        assert res.config is None
        assert res.refinement_iterations == 0
        assert res.samples_added == 0
        assert ledger.runs == 0
        assert res.adam_steps == 0

    def test_model_infeasible(self, saxpy_input):
        # the models see only mediocre errors, the target demands far more;
        # the all-max config is verified before giving up, and misses too
        ds = flat_dataset(2.0)
        ledger = RunLedger(saxpy_input)
        res = smart_tune(ledger, 1e-10, *fitted(ds), budget=5)
        assert res.status == "model_infeasible"
        assert not res.feasible
        assert res.config is None
        assert res.actual_error > 1e-10
        assert res.refinement_iterations == 1
        assert ledger.runs == 1
        assert res.pre_refine is None

    def test_model_infeasible_but_max_passes(self, saxpy_input):
        # the models promise nothing at round 1, yet the all-max config meets
        # the target: the result is the baseline's descent from it
        ds = flat_dataset(2.0)
        ledger, base_ledger = RunLedger(saxpy_input), RunLedger(saxpy_input)
        res = smart_tune(ledger, 1e-3, *fitted(ds), budget=5)
        base = fptuning_baseline(base_ledger, 1e-3, nbit_min=4, nbit_max=6)
        assert res.status == "max_descent"
        assert res.feasible and res.actual_error <= 1e-3
        assert res.config == base.config
        assert ledger.runs == base_ledger.runs
        assert res.refinement_iterations == 1
        assert res.samples_added == 0
        # the descent started from the all-max run
        max_err = compute_error(run_kernel("saxpy", saxpy_input, (6, 6, 6)),
                                reference_output("saxpy", saxpy_input))
        assert res.pre_refine == (6, 6, 6)
        assert ledger.errors[res.pre_refine] == max_err
        assert base.pre_refine is None
        # smart_tune_plus does not walk the same descent a second time
        plus_ledger = RunLedger(saxpy_input)
        plus = smart_tune_plus(plus_ledger, 1e-3, *fitted(ds), budget=5)
        assert plus.config == res.config and plus_ledger.runs == ledger.runs
        assert plus.status == "max_descent"
        assert plus.pre_refine == (6, 6, 6) and plus_ledger.errors[plus.pre_refine] == max_err

    def test_budget_exhausted_records_miss(self, saxpy_input):
        # the models promise 1e-35 everywhere; reality disagrees
        ds = flat_dataset(35.0)
        ledger = RunLedger(saxpy_input)
        res = smart_tune(ledger, 1e-30, *fitted(ds), budget=1)
        assert res.status == "budget_exhausted"
        assert not res.feasible
        assert res.config == (4, 4, 4)
        assert res.actual_error > 1e-30
        assert res.samples_added == 1
        assert ledger.runs == 1
        # the miss used up the budget, so no search would use a retrain
        assert res.adam_steps == 0

    @pytest.mark.parametrize("budget", [1, 3])
    def test_last_miss_makes_no_retrain(self, monkeypatch, saxpy_input, budget):
        # B misses that use up a budget of B make B - 1 retrains
        ds = flat_dataset(35.0)
        starts = []

        def counted(dataset, cfg, start=None):
            starts.append(start)
            return train_regressor(dataset, cfg, start)

        monkeypatch.setattr(solve, "train_regressor", counted)
        res = smart_tune(RunLedger(saxpy_input), 1e-30, *fitted(ds), budget=budget)
        assert res.status == "budget_exhausted"
        assert res.samples_added == budget
        # the initial fit, then one warm retrain per miss but the last
        assert starts[0] is None
        assert sum(start is not None for start in starts) == budget - 1 == len(starts) - 1

    def test_search_boxes_counts_every_search(self, monkeypatch, saxpy_input, saxpy_dataset):
        rows = []

        def counted(model, lo, hi, *args):
            rows.append(len(lo))
            return nn_bound_info(model, lo, hi, *args)

        monkeypatch.setattr(solve, "nn_bound_info", counted)
        res = smart_tune(RunLedger(saxpy_input), 1e-4, *fitted(saxpy_dataset), budget=10)
        assert res.search_boxes == sum(rows) > 0

    def test_deterministic(self, saxpy_input, saxpy_dataset):
        ledger_a, ledger_b = RunLedger(saxpy_input), RunLedger(saxpy_input)
        a = smart_tune(ledger_a, 1e-4, *fitted(saxpy_dataset), budget=10)
        b = smart_tune(ledger_b, 1e-4, *fitted(saxpy_dataset), budget=10)
        assert a.config == b.config
        assert a.actual_error == b.actual_error
        assert a.refinement_iterations == b.refinement_iterations
        assert a.samples_added == b.samples_added
        assert ledger_a.runs == ledger_b.runs

    def test_search_box_is_the_datasets(self, monkeypatch, saxpy_input, saxpy_dataset_4_20):
        # the models know nothing outside the box their data was drawn over:
        # every search, and the descent after them, stays inside it
        domains = []

        def search(problem, stats=None):
            domains.append(problem.domain)
            return solve_mp(problem, stats)

        monkeypatch.setattr(solve, "solve_mp", search)
        res = smart_tune_plus(RunLedger(saxpy_input), 1e-4, *fitted(saxpy_dataset_4_20), budget=15)
        assert domains and set(domains) == {DomainBox((4,) * 3, (20,) * 3)}
        assert res.feasible and res.pre_refine is not None
        assert 4 <= min(res.config) and max(res.config) <= 20


class TestModelInfeasibleAtRoundOne:
    """fwt at 1e-12 on input seed 22: the models promise no config at round
    1, although the all-52 config meets the target.  smart_tune verifies
    the all-52 config and descends from it."""

    TARGET = 1e-12

    @pytest.fixture(scope="class")
    def fwt_input(self):
        return gen_input_set("fwt", None, 22)

    def test_all_max_meets_target(self, fwt_input):
        out = run_kernel("fwt", fwt_input, (52, 52))
        assert compute_error(out, reference_output("fwt", fwt_input)) <= self.TARGET

    def test_smart_tune_finds_a_config(self, fwt_input):
        ds = build_dataset(RunLedger(fwt_input), n_samples=1000, seed_sample=0)
        ledger, train_cfg = RunLedger(fwt_input), TrainConfig(seed=0)
        res = smart_tune(ledger, self.TARGET, *fitted(ds, train_cfg), train_cfg, budget=100)
        assert ledger.runs > 0
        assert res.feasible and res.actual_error <= self.TARGET
        assert res.status == "max_descent"
        assert res.pre_refine == (52, 52)
        assert sum(res.config) <= sum(res.pre_refine)


class TestPlusRefine:
    @pytest.mark.parametrize("target", [1e-2, 1e-6])
    def test_never_worse_and_stays_feasible(self, saxpy_input, target):
        start = (52, 52, 52)
        ref = reference_output("saxpy", saxpy_input)
        ledger = RunLedger(saxpy_input)
        cfg, passes = plus_refine(ledger, start, target)
        assert sum(cfg) <= sum(start)
        assert ledger.runs > 0 and passes >= 1
        assert dependency_consistent(cfg, get_benchmark("saxpy"))
        assert compute_error(run_kernel("saxpy", saxpy_input, cfg), ref) == ledger.errors[cfg] <= target

    def test_actually_improves_from_max(self, saxpy_input):
        cfg, _ = plus_refine(RunLedger(saxpy_input), (52, 52, 52), 1e-2)
        assert sum(cfg) < 156

    def test_respects_floor(self, saxpy_input):
        cfg, _ = plus_refine(RunLedger(saxpy_input), (52, 52, 52), 1e-2, nbit_min=9)
        assert min(cfg) >= 9

    def test_infeasible_start_unchanged(self, saxpy_input):
        ledger = RunLedger(saxpy_input)
        cfg, _ = plus_refine(ledger, (10, 10, 10), 1e-30)
        assert cfg == (10, 10, 10)
        assert ledger.runs > 0

    def test_deterministic(self, saxpy_input):
        a = plus_refine(RunLedger(saxpy_input), (52, 52, 52), 1e-6)
        b = plus_refine(RunLedger(saxpy_input), (52, 52, 52), 1e-6)
        assert a == b


class TestBaseline:
    def test_feasible_descent(self, saxpy_input):
        ledger = RunLedger(saxpy_input)
        res = fptuning_baseline(ledger, 1e-4)
        assert res.status == "feasible"
        assert res.feasible
        assert res.config is not None
        assert res.actual_error <= 1e-4
        assert sum(res.config) < 156
        assert ledger.runs >= 3
        assert res.samples_added == 0

    def test_infeasible_at_max(self, saxpy_input):
        ledger = RunLedger(saxpy_input)
        res = fptuning_baseline(ledger, 1e-20, nbit_max=8)
        assert res.status == "infeasible_at_max"
        assert not res.feasible
        assert res.config is None
        assert ledger.runs == 1


class TestSmartTunePlus:
    def test_refines_smart_tune(self, saxpy_input, saxpy_dataset):
        base_ledger, plus_ledger = RunLedger(saxpy_input), RunLedger(saxpy_input)
        base = smart_tune(base_ledger, 1e-4, *fitted(saxpy_dataset), budget=15)
        plus = smart_tune_plus(plus_ledger, 1e-4, *fitted(saxpy_dataset), budget=15)
        assert plus.feasible
        assert sum(plus.config) <= sum(base.config)
        assert plus.actual_error <= 1e-4
        assert plus_ledger.runs >= base_ledger.runs

    def test_passes_through_failure(self, saxpy_input):
        ds = flat_dataset(2.0)
        res = smart_tune_plus(RunLedger(saxpy_input), 1e-10, *fitted(ds), budget=3)
        assert res.status == "model_infeasible"
        assert res.config is None


class TestRunLedger:
    @pytest.fixture
    def made(self, monkeypatch):
        made = []

        def counted(benchmark, input_set, config, **kwargs):
            made.extend(tuple(row) for row in np.atleast_2d(config).tolist())
            return run_kernel(benchmark, input_set, config, **kwargs)

        monkeypatch.setattr(solve, "run_kernel", counted)
        return made

    def test_reference_config_reads_zero_without_a_run(self, made, saxpy_input):
        ledger = RunLedger(saxpy_input)
        assert ledger.error((52, 52, 52)) == 0.0
        assert made == [] and ledger.runs == 0
        assert ledger.ref.tobytes() == reference_output("saxpy", saxpy_input).tobytes()

    def test_a_config_runs_once(self, made, saxpy_input):
        ledger = RunLedger(saxpy_input)
        first = ledger.error((10, 10, 10))
        assert ledger.error((10, 10, 10)) == first
        assert made == [(10, 10, 10)]
        assert first == compute_error(run_kernel("saxpy", saxpy_input, (10, 10, 10)), ledger.ref)

    def test_runs_counts_only_real_runs(self, made, saxpy_input):
        ledger = RunLedger(saxpy_input)
        for cfg in [(10, 10, 10), (52, 52, 52), (8, 9, 10), (10, 10, 10), (8, 9, 10)]:
            ledger.error(cfg)
        assert ledger.runs == len(made) == 2

    def test_errors_hold_every_config_asked_for(self, made, saxpy_input):
        ledger = RunLedger(saxpy_input)
        asked = [(10, 10, 10), (4, 5, 6), (52, 52, 52)]
        got = [ledger.error(cfg) for cfg in asked]
        assert ledger.errors == dict(zip(asked, got))

    def test_measure_runs_each_new_config_once(self, made, saxpy_input):
        ledger = RunLedger(saxpy_input)
        ledger.error((10, 10, 10))
        made.clear()
        asked = [(8, 9, 10), (10, 10, 10), np.array([8, 9, 10]), (52, 52, 52), [4, 5, 6], (8, 9, 10)]
        got = ledger.measure(asked)
        # the configs the ledger lacked, in first-seen order, each once
        assert made == [(8, 9, 10), (4, 5, 6)] and ledger.runs == 3
        assert got == [ledger.errors[tuple(int(w) for w in cfg)] for cfg in asked]
        assert all(type(w) is int for cfg in ledger.errors for w in cfg)
        for cfg in [(8, 9, 10), (4, 5, 6)]:
            assert ledger.errors[cfg] == compute_error(run_kernel("saxpy", saxpy_input, cfg), ledger.ref)


class TestHonestRunCounts:
    """A call runs no config twice, and the growth of its ledger's runs is
    the number of runs it made.  The reference runs go through the dataset module, so wrapping
    solve.run_kernel sees every other run."""

    DWT_SHAPE = {"n": 64}

    @pytest.fixture
    def made(self, monkeypatch):
        made = []

        def counted(benchmark, input_set, config, **kwargs):
            made.extend(tuple(row) for row in np.atleast_2d(config).tolist())
            return run_kernel(benchmark, input_set, config, **kwargs)

        monkeypatch.setattr(solve, "run_kernel", counted)
        return made

    @pytest.fixture(scope="class")
    def dwt_input(self):
        return gen_input_set("dwt", self.DWT_SHAPE, seed=0)

    @pytest.fixture(scope="class")
    def dwt_dataset(self, dwt_input):
        return build_dataset(RunLedger(dwt_input), n_samples=250, seed_sample=0)

    @staticmethod
    def assert_honest(made, runs):
        assert made and len(set(made)) == len(made)
        assert runs == len(made)

    @pytest.mark.parametrize("name,target", [("saxpy", 1e-4), ("dwt", 1e-5)])
    def test_baseline(self, made, saxpy_input, dwt_input, name, target):
        inp = saxpy_input if name == "saxpy" else dwt_input
        ledger = RunLedger(inp)
        res = fptuning_baseline(ledger, target)
        assert res.feasible
        self.assert_honest(made, ledger.runs)
        # the all-52 start is the reference run the ledger was seeded with
        all_max = (52,) * get_benchmark(name).n_var
        assert all_max not in made
        assert ledger.errors.keys() == set(made) | {all_max}
        assert res.actual_error == ledger.errors[res.config]

    @pytest.mark.parametrize("name", ["saxpy", "dwt"])
    def test_plus_refine(self, made, saxpy_input, dwt_input, name):
        inp = saxpy_input if name == "saxpy" else dwt_input
        n = get_benchmark(name).n_var
        ref = reference_output(name, inp)
        # the all-52 start is in a fresh ledger already: it is never run
        ledger = RunLedger(inp)
        cfg, _ = plus_refine(ledger, (52,) * n, 1e-5)
        self.assert_honest(made, ledger.runs)
        assert (52,) * n not in made
        assert ledger.errors[cfg] == compute_error(run_kernel(name, inp, cfg), ref)
        # the call entered each of its runs in the ledger
        assert ledger.errors.keys() == set(made) | {(52,) * n}
        # configs in the ledger are not run again
        made.clear()
        runs = ledger.runs
        again, _ = plus_refine(ledger, (52,) * n, 1e-5)
        assert made == [] and ledger.runs == runs
        assert again == cfg

    def test_plus_refine_runs_an_unknown_start_once(self, made, saxpy_input):
        ledger = RunLedger(saxpy_input)
        cfg, _ = plus_refine(ledger, (10, 10, 10), 1e-30)
        assert cfg == (10, 10, 10) and made.count(cfg) == 1
        self.assert_honest(made, ledger.runs)
        assert ledger.errors[cfg] == compute_error(run_kernel("saxpy", saxpy_input, cfg),
                                                   reference_output("saxpy", saxpy_input))

    def test_smart_tune_plus_feasible(self, made, saxpy_input, saxpy_dataset, dwt_input, dwt_dataset):
        for name, inp, ds, target in (("saxpy", saxpy_input, saxpy_dataset, 1e-4),
                                      ("dwt", dwt_input, dwt_dataset, 1e-5)):
            made.clear()
            ledger = RunLedger(inp)
            res = smart_tune_plus(ledger, target, *fitted(ds), budget=15)
            assert res.status == "feasible"
            self.assert_honest(made, ledger.runs)
            assert res.actual_error == ledger.errors[res.config] <= target

    def test_smart_tune_plus_max_descent(self, made, saxpy_input, dwt_input, dwt_dataset):
        # the models promise nothing: flat mediocre errors on saxpy, a
        # target no dataset config comes near on dwt
        for name, inp, ds, target in (
            ("saxpy", saxpy_input, flat_dataset(2.0), 1e-3),
            ("dwt", dwt_input, dwt_dataset, 1e-300),
        ):
            made.clear()
            ledger = RunLedger(inp)
            res = smart_tune_plus(ledger, target, *fitted(ds), budget=5)
            assert res.status == "max_descent"
            self.assert_honest(made, ledger.runs)
            assert res.actual_error == ledger.errors[res.config] <= target


    # (status, tuner, target, keyword arguments, misses when the case fixes
    # them); a smart tuner's dataset is drawn over the box it searches and
    # comes with the models fitted on it
    @pytest.mark.parametrize("status,tune,target,kwargs,fixed_misses", [
        pytest.param("feasible", smart_tune, 1e-4, {"budget": 15, "dataset": "saxpy_dataset"}, None,
                     id="feasible"),
        pytest.param("feasible", smart_tune_plus, 1e-4, {"budget": 15, "dataset": "saxpy_dataset"}, None,
                     id="plus-feasible"),
        pytest.param("feasible", fptuning_baseline, 1e-4, {}, 0, id="baseline-feasible"),
        pytest.param("max_descent", smart_tune, 1e-3, {"budget": 5, "dataset": flat_dataset(2.0)}, 0,
                     id="max_descent"),
        pytest.param("budget_exhausted", smart_tune, 1e-30, {"budget": 1, "dataset": flat_dataset(35.0)}, 1,
                     id="budget_exhausted"),
        pytest.param("infeasible_at_max", fptuning_baseline, 1e-20, {"nbit_max": 8}, 0, id="infeasible_at_max"),
        pytest.param("model_infeasible", smart_tune, 1e-10, {"budget": 5, "dataset": flat_dataset(2.0)}, 0,
                     id="model_infeasible-round1"),
        # the one config of the box misses, and round 2 has nothing left
        pytest.param("model_infeasible", smart_tune, 1e-30,
                     {"budget": 5, "dataset": flat_dataset(35.0, 4, 4)}, 1,
                     id="model_infeasible-after-miss"),
    ])
    def test_result_invariants(self, request, monkeypatch, made, saxpy_input, status, tune, target, kwargs,
                               fixed_misses):
        proposed = []

        def search(problem, stats=None):
            proposed.append(solve_mp(problem, stats))
            return proposed[-1]

        monkeypatch.setattr(solve, "solve_mp", search)
        kwargs = dict(kwargs)
        ds = kwargs.pop("dataset", None)
        if isinstance(ds, str):
            ds = request.getfixturevalue(ds)
        ledger = RunLedger(saxpy_input)
        res = tune(ledger, target, *(fitted(ds) if ds is not None else ()), **kwargs)
        assert res.status == status
        assert res.feasible == (res.actual_error <= target)
        self.assert_honest(made, ledger.runs)
        ref = reference_output("saxpy", saxpy_input)

        def error(cfg):
            return compute_error(run_kernel("saxpy", saxpy_input, cfg), ref)

        # a miss is a model proposal that the kernel run refutes
        misses = sum(error(sol) > target for sol in proposed if sol is not None)
        assert res.samples_added == misses
        assert fixed_misses is None or misses == fixed_misses
        if res.config is not None:
            assert res.actual_error == ledger.errors[res.config] == error(res.config)


class TestBruteForce:
    def test_matches_independent_enumeration(self, saxpy_input):
        target = 1e-3
        lo, hi = 4, 9
        ref = reference_output("saxpy", saxpy_input)
        kernel = get_benchmark("saxpy")
        feasible = []
        for cfg in itertools.product(range(lo, hi + 1), repeat=3):
            if not dependency_consistent(cfg, kernel):
                continue
            err = compute_error(run_kernel("saxpy", saxpy_input, cfg), ref)
            if err <= target:
                feasible.append(cfg)
        want = min(feasible, key=lambda c: (sum(c), c)) if feasible else None
        sol = brute_force_optimum(RunLedger(saxpy_input), target, nbit_min=lo, nbit_max=hi)
        assert sol == want

    def test_none_when_unreachable(self, saxpy_input):
        sol = brute_force_optimum(RunLedger(saxpy_input), 1e-25, nbit_min=2, nbit_max=6)
        assert sol is None

    def test_cap(self, saxpy_input):
        with pytest.raises(ValueError, match="exceed"):
            brute_force_optimum(RunLedger(gen_input_set("dwt", {"n": 64})), 1e-3)
        assert 52 ** 2 < BRUTE_FORCE_CAP

    def test_not_beaten_by_searches(self, saxpy_input, saxpy_dataset_4_20):
        opt = brute_force_optimum(RunLedger(saxpy_input), 1e-3, nbit_min=4, nbit_max=20)
        assert opt is not None
        tuned = smart_tune_plus(RunLedger(saxpy_input), 1e-3, *fitted(saxpy_dataset_4_20), budget=20)
        base = fptuning_baseline(RunLedger(saxpy_input), 1e-3, nbit_min=4, nbit_max=20)
        assert tuned.feasible
        assert sum(tuned.config) >= sum(opt)
        assert sum(base.config) >= sum(opt)
