"""Width assignment search.

solve_mp finds the cheapest per-slot width config that the learned models
predict to satisfy the error target, by depth-first branch and bound over
integer boxes.  The classifier's acceptable region is decomposed into its
decision-tree leaf boxes up front, so class-1 space is never entered; a
box is then discarded when dependency propagation empties it, when its
cheapest corner cannot beat the incumbent, or when the regressor's upper
bound over the box stays below the required log error.  Acceptance at a
point is exact model inference, so the search returns exactly what brute
enumeration of consistent configs against the models would.

smart_tune wraps the solver in a verify-retrain loop: each proposed config
is actually run; a miss becomes a new training sample and an excluded
config, and both models are refit before the next round.  plus_refine then
walks the verified config downward slot by slot with binary search,
re-running the kernel to keep only improvements that hold up.
fptuning_baseline applies the same descent from the all-max config without
any models, which is the reference point for run-count comparisons.

A descent runs each config at most once: it keeps the error of every config
run so far, seeded with the start's verified error and, after smart_tune,
with its verify runs (TunedResult.measured), and its result carries the
error measured when its config was accepted, with no closing re-run.
Every kernel_runs therefore counts distinct runs actually made.

Sum-of-widths ties everywhere resolve to the lexicographically smallest
config, making every search path deterministic.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset, build_dataset, compute_error, error_sample, log_error, reference_output
from .embed import DomainBox
from .flexnum import MANTISSA_MAX, MANTISSA_MIN
from .kernels import CAST, InputSet, dependency_graph, get_benchmark, run_kernel
from .learn import DTModel, MLPModel, TrainConfig, classify, predict_logerr, train_classifier, train_regressor

EPS_BOUND = 1e-6
BRUTE_FORCE_CAP = 100_000


@dataclass(frozen=True)
class TuningProblem:
    benchmark: str
    regressor: MLPModel
    classifier: DTModel
    target_error: float
    log_target: float
    domain: DomainBox
    edges: tuple
    cuts: frozenset = frozenset()


@dataclass(frozen=True)
class Solution:
    config: tuple[int, ...]
    total_bits: int
    predicted_logerr: float
    classifier_class: int


@dataclass
class TunedResult:
    solution: Solution | None
    actual_error: float
    feasible: bool
    refinement_iterations: int
    samples_added: int
    kernel_runs: int
    wall_time: float
    status: str
    # filled by smart_tune_plus and by a max_descent result: the config the
    # descent started from
    pre_refine_total_bits: int | None = None
    pre_refine_error: float | None = None
    # config -> error of every verify and descent run this call made, so
    # that a later descent never runs one of them again
    measured: dict = field(default_factory=dict, repr=False)


def build_problem(
    benchmark: str,
    regressor: MLPModel,
    classifier: DTModel,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
    cuts=(),
) -> TuningProblem:
    if not MANTISSA_MIN <= nbit_min <= nbit_max <= MANTISSA_MAX:
        raise ValueError(f"width bounds [{nbit_min}, {nbit_max}] invalid")
    if not target_error > 0.0:
        raise ValueError(f"target error must be positive, got {target_error}")
    n = get_benchmark(benchmark).n_var
    return TuningProblem(
        benchmark=benchmark,
        regressor=regressor,
        classifier=classifier,
        target_error=target_error,
        log_target=log_error(target_error),
        domain=DomainBox((nbit_min,) * n, (nbit_max,) * n),
        edges=dependency_graph(benchmark),
        cuts=frozenset(tuple(int(v) for v in c) for c in cuts),
    )


# --- dependency handling ------------------------------------------------------


def dependency_consistent(config, edges) -> bool:
    for e in edges:
        if e.kind == CAST:
            if config[e.destination] != min(config[s] for s in e.sources):
                return False
        elif config[e.sources[0]] > config[e.destination]:
            return False
    return True


def free_dims(edges, n_dims: int) -> list[int]:
    """Dims whose width is chosen directly; cast results just follow."""
    pinned = {e.destination for e in edges if e.kind == CAST}
    return [d for d in range(n_dims) if d not in pinned]


def propagate_box(box: DomainBox, edges) -> DomainBox | None:
    """Tighten box bounds under the edge constraints to a fixpoint.
    Returns None when no consistent config remains."""
    lo = list(box.lo)
    hi = list(box.hi)
    changed = True
    while changed:
        changed = False
        for e in edges:
            d = e.destination
            if e.kind == CAST:
                src_lo = min(lo[s] for s in e.sources)
                src_hi = min(hi[s] for s in e.sources)
                if src_hi < hi[d]:
                    hi[d] = src_hi
                    changed = True
                if src_lo > lo[d]:
                    lo[d] = src_lo
                    changed = True
                for s in e.sources:
                    # the min of the sources must reach at least lo[d]
                    if lo[d] > lo[s]:
                        lo[s] = lo[d]
                        changed = True
            else:
                s = e.sources[0]
                if hi[d] < hi[s]:
                    hi[s] = hi[d]
                    changed = True
                if lo[s] > lo[d]:
                    lo[d] = lo[s]
                    changed = True
        for a, b in zip(lo, hi):
            if a > b:
                return None
    return DomainBox(tuple(lo), tuple(hi))


def complete_config(seed_values, box: DomainBox, edges) -> tuple[int, ...] | None:
    """Cheapest dependency-consistent config at least seed_values, inside
    the box, or None.  Assignment targets are raised and cast results
    recomputed until stable; values only move up, so this terminates."""
    cfg = [int(v) for v in seed_values]
    for _ in range(len(cfg) * len(edges) + 1):
        changed = False
        for e in edges:
            d = e.destination
            if e.kind == CAST:
                m = min(cfg[s] for s in e.sources)
                if cfg[d] != m:
                    cfg[d] = m
                    changed = True
            else:
                s = e.sources[0]
                if cfg[s] > cfg[d]:
                    cfg[d] = cfg[s]
                    changed = True
        if not changed:
            break
    out = tuple(cfg)
    if not dependency_consistent(out, edges) or not box.contains(out):
        return None
    return out


def cheapest_completion(box: DomainBox, edges) -> tuple[int, ...] | None:
    return complete_config(box.lo, box, edges)


def _repair_down(config: list[int], edges) -> tuple[int, ...] | None:
    """Recompute cast results after a slot was lowered; reject the repair
    if any assignment or cast constraint cannot be restored this way."""
    cfg = list(config)
    for _ in range(len(cfg) + 1):
        changed = False
        for e in edges:
            if e.kind == CAST:
                m = min(cfg[s] for s in e.sources)
                if cfg[e.destination] != m:
                    cfg[e.destination] = m
                    changed = True
        if not changed:
            break
    out = tuple(cfg)
    return out if dependency_consistent(out, edges) else None


def _assignment_floor(cfg, slot: int, edges, nbit_min: int) -> int:
    """Lowest width worth probing for slot.  An assignment source pins the
    slot from below, except when that source is itself a cast result: the
    repair recomputes those, so lowering the slot can pull the source down
    with it and the consistency check after repair has the final word."""
    cast_dests = {e.destination for e in edges if e.kind == CAST}
    floor = nbit_min
    for e in edges:
        if e.kind != CAST and e.destination == slot and e.sources[0] not in cast_dests:
            floor = max(floor, cfg[e.sources[0]])
    return floor


def _descend(start, edges, nbit_min: int, is_feasible) -> tuple[tuple[int, ...], int]:
    """Slot-wise binary-search descent from a feasible config.

    Lowers one directly chosen slot at a time (cast results just follow),
    keeping only repairs that is_feasible approves.  Repeats passes until
    a whole pass changes nothing.  Returns (config, passes).  The total
    width never increases."""
    cur = tuple(int(v) for v in start)
    free = free_dims(edges, len(cur))
    passes = 0
    while True:
        passes += 1
        start_total = sum(cur)
        order = sorted(free, key=lambda s: (-cur[s], s))
        for slot in order:
            floor = _assignment_floor(cur, slot, edges, nbit_min)
            if floor >= cur[slot]:
                continue
            lo, hi = floor, cur[slot]
            best: tuple[int, ...] | None = None
            while lo < hi:
                mid = (lo + hi) // 2
                probe = list(cur)
                probe[slot] = mid
                repaired = _repair_down(probe, edges)
                if repaired is not None and min(repaired) >= nbit_min and is_feasible(repaired):
                    best = repaired
                    hi = mid
                else:
                    lo = mid + 1
            if best is not None:
                cur = best
        if sum(cur) == start_total:
            break
    return cur, passes


# --- exact search over the models ----------------------------------------------


def _split_weights(model: MLPModel) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(np.maximum(w, 0.0), np.minimum(w, 0.0)) for w in model.weights]


def _relu_relaxation(z_lo: np.ndarray, z_hi: np.ndarray):
    """Per-unit pieces of the linear ReLU relaxation over [z_lo, z_hi]:
    live mask, upper chord slope and its constant, and the {0,1} lower
    slope.  Stable units get slope 1 and no constant."""
    dead = z_hi <= 0.0
    crossing = ~dead & (z_lo < 0.0)
    span = np.where(z_hi - z_lo > 0.0, z_hi - z_lo, 1.0)
    chord = np.where(crossing, z_hi / span, 1.0)
    chord_c = np.where(crossing, chord * (-z_lo), 0.0)
    alpha = np.where(crossing, (z_hi >= -z_lo).astype(np.float64), 1.0)
    return ~dead, chord, chord_c, alpha


def _tighten_pre(pre, weights, biases, lo, hi, last: int) -> None:
    """Replace the interval pre-activation ranges of hidden layers 1..last-1
    with the intersection of the interval range and a backward rewrite to
    the input, layer by layer so later rewrites reuse earlier tightenings.
    Layer 0 is affine in the box, so its interval range is already exact."""
    for l in range(1, last):
        cu = weights[l].copy()
        du = biases[l].copy()
        cl = weights[l].copy()
        dl = biases[l].copy()
        for k in range(l - 1, -1, -1):
            live, chord, chord_c, alpha = _relu_relaxation(*pre[k])
            du = du + np.maximum(cu, 0.0).T @ chord_c
            cu = cu * np.where(cu > 0.0, chord[:, None], alpha[:, None]) * live[:, None]
            dl = dl + np.minimum(cl, 0.0).T @ chord_c
            cl = cl * np.where(cl < 0.0, chord[:, None], alpha[:, None]) * live[:, None]
            du = du + biases[k] @ cu
            cu = weights[k] @ cu
            dl = dl + biases[k] @ cl
            cl = weights[k] @ cl
        z_hi_t = np.maximum(cu, 0.0).T @ hi + np.minimum(cu, 0.0).T @ lo + du
        z_lo_t = np.maximum(cl, 0.0).T @ lo + np.minimum(cl, 0.0).T @ hi + dl
        z_lo, z_hi = pre[l]
        pre[l] = (np.maximum(z_lo, z_lo_t), np.minimum(z_hi, z_hi_t))


def _nn_bound_info(
    model: MLPModel,
    box: DomainBox,
    splits: list[tuple[np.ndarray, np.ndarray]] | None = None,
    good_enough: float | None = None,
) -> tuple[float, np.ndarray | None]:
    """(upper bound, per-dim slack) for the regressor over the box.

    A forward interval pass collects pre-activation ranges; when that alone
    cannot settle the box, the hidden ranges are tightened by per-layer
    backward rewrites and the output is rewritten backward as one linear
    function of the input.  Each ReLU that can go either way is replaced by
    its chord from above (for positive coefficients) or by zero/identity
    from below (for negative ones), whichever keeps the bound valid.
    Neither relaxation dominates plain interval propagation on every box,
    so the smaller of the two is returned.  At a single point everything
    collapses to the forward pass.

    The slack vector |c| * width measures how much each input dimension
    contributes to the backward bound, which makes a good branching guide.
    It is None when the forward interval already lands below good_enough
    and the backward work is skipped.

    splits may carry the precomputed sign-split weights of the same model."""
    lo = model.normalize(np.array(box.lo, dtype=np.float64))
    hi = model.normalize(np.array(box.hi, dtype=np.float64))
    weights, biases = model.weights, model.biases
    if splits is None:
        splits = _split_weights(model)
    last = len(weights) - 1

    pre: list[tuple[np.ndarray, np.ndarray]] = []
    a_lo, a_hi = lo, hi
    for l in range(last):
        w_pos, w_neg = splits[l]
        b = biases[l]
        z_lo = a_lo @ w_pos + a_hi @ w_neg + b
        z_hi = a_hi @ w_pos + a_lo @ w_neg + b
        pre.append((z_lo, z_hi))
        a_lo = np.maximum(z_lo, 0.0)
        a_hi = np.maximum(z_hi, 0.0)

    w_pos, w_neg = splits[last]
    interval_hi = float((a_hi @ w_pos + a_lo @ w_neg + biases[last])[0])
    if good_enough is not None and interval_hi < good_enough:
        return interval_hi, None

    if last >= 2 and not box.is_singleton():
        _tighten_pre(pre, weights, biases, lo, hi, last)
        t_lo, t_hi = pre[last - 1]
        tightened_hi = float(
            (np.maximum(t_hi, 0.0) @ w_pos + np.maximum(t_lo, 0.0) @ w_neg + biases[last])[0]
        )
        interval_hi = min(interval_hi, tightened_hi)
        if good_enough is not None and interval_hi < good_enough:
            return interval_hi, None

    c = weights[last][:, 0].copy()
    d = float(biases[last][0])
    for l in range(last - 1, -1, -1):
        z_lo, z_hi = pre[l]
        scale = np.ones_like(c)
        dead = z_hi <= 0.0
        crossing = ~dead & (z_lo < 0.0)
        scale[dead] = 0.0
        if np.any(crossing):
            span = np.where(z_hi - z_lo > 0.0, z_hi - z_lo, 1.0)
            chord = z_hi / span
            pos = crossing & (c > 0.0)
            neg = crossing & (c < 0.0)
            # from above relu(z) <= chord*(z - z_lo); from below
            # relu(z) >= alpha*z with alpha in {0, 1}
            scale[pos] = chord[pos]
            d += float(np.sum(c[pos] * chord[pos] * (-z_lo[pos])))
            alpha = (z_hi >= -z_lo).astype(np.float64)
            scale[neg] = alpha[neg]
        c = c * scale
        d += float(c @ biases[l])
        c = weights[l] @ c
    backward = float(np.sum(np.maximum(c, 0.0) * hi + np.minimum(c, 0.0) * lo) + d)
    return min(backward, interval_hi), np.abs(c) * (hi - lo)


def _nn_upper_bound(
    model: MLPModel,
    box: DomainBox,
    splits: list[tuple[np.ndarray, np.ndarray]] | None = None,
    good_enough: float | None = None,
) -> float:
    return _nn_bound_info(model, box, splits, good_enough)[0]


def _dt_label_boxes(model: DTModel, domain: DomainBox, label: int) -> list[DomainBox]:
    """Disjoint boxes covering exactly the domain points the tree maps to
    the given label, in deterministic tree order."""
    out: list[DomainBox] = []
    lo = list(domain.lo)
    hi = list(domain.hi)

    def walk(node: dict) -> None:
        if "leaf" in node:
            if node["leaf"] == label:
                out.append(DomainBox(tuple(lo), tuple(hi)))
            return
        f, t = node["feature"], node["threshold"]
        if lo[f] <= t:
            keep = hi[f]
            hi[f] = min(keep, t)
            walk(node["left"])
            hi[f] = keep
        if hi[f] > t:
            keep = lo[f]
            lo[f] = max(keep, t + 1)
            walk(node["right"])
            lo[f] = keep

    walk(model.root)
    return out


def solve_mp(problem: TuningProblem) -> Solution | None:
    """Minimum-total-width config accepted by both models, or None."""
    edges = problem.edges
    reg = problem.regressor
    clf = problem.classifier
    log_target = problem.log_target
    domain = problem.domain
    free = free_dims(edges, domain.n_dims)
    floor_width = min(domain.lo)

    best_cfg: tuple[int, ...] | None = None
    best_sum = 0

    def model_accepts(cfg) -> bool:
        if cfg in problem.cuts or not dependency_consistent(cfg, edges):
            return False
        if predict_logerr(reg, np.array(cfg, dtype=np.float64)) < log_target:
            return False
        return classify(clf, cfg) == 0

    def consider(cfg) -> None:
        nonlocal best_cfg, best_sum
        total = sum(cfg)
        if best_cfg is not None and (total > best_sum or (total == best_sum and cfg >= best_cfg)):
            return
        if model_accepts(cfg):
            best_cfg, best_sum = cfg, total

    # a cheap, usually near-optimal incumbent makes the cost prune bite
    # from the start
    start = complete_config(domain.hi, domain, edges)
    if start is not None and model_accepts(start):
        greedy, _ = _descend(
            start, edges, floor_width,
            lambda cfg: domain.contains(cfg) and model_accepts(cfg),
        )
        best_cfg, best_sum = greedy, sum(greedy)

    splits = _split_weights(reg)
    prune_at = log_target - EPS_BOUND

    def visit(box: DomainBox) -> None:
        box = propagate_box(box, edges)
        if box is None:
            return
        if best_cfg is not None:
            s_lo = sum(box.lo)
            # box.lo is both the cheapest and the lexicographically first
            # point of the box
            if s_lo > best_sum or (s_lo == best_sum and box.lo >= best_cfg):
                return
        bound, slack = _nn_bound_info(reg, box, splits, prune_at)
        if bound < prune_at:
            return
        cand = cheapest_completion(box, edges)
        if cand is not None and model_accepts(cand):
            # every consistent config in the box is pointwise >= cand, so
            # none can be cheaper or lexicographically earlier: take it
            # and close the box
            consider(cand)
            return
        if box.is_singleton():
            return
        open_dims = [dim for dim in free if box.lo[dim] < box.hi[dim]]
        if slack is not None and any(slack[dim] > 0.0 for dim in open_dims):
            # split where the regressor bound is loosest, so both halves
            # tighten the most
            d = max(open_dims, key=lambda dim: (slack[dim], -dim))
        else:
            d = max(open_dims, key=lambda dim: box.hi[dim] - box.lo[dim])
        mid = (box.lo[d] + box.hi[d]) // 2
        visit(box.with_dim(d, box.lo[d], mid))
        visit(box.with_dim(d, mid + 1, box.hi[d]))

    # the classifier's acceptable region is exactly a union of leaf boxes;
    # searching them cheapest-first removes class-1 space wholesale and
    # lets the cost prune bite early
    leaf_boxes = _dt_label_boxes(clf, domain, 0)
    leaf_boxes.sort(key=lambda b: (sum(b.lo), b.lo))
    for leaf_box in leaf_boxes:
        visit(leaf_box)
    if best_cfg is None:
        return None
    assert dependency_consistent(best_cfg, edges)
    assert problem.domain.contains(best_cfg)
    pred = predict_logerr(reg, np.array(best_cfg, dtype=np.float64))
    cls = classify(clf, best_cfg)
    assert pred >= log_target and cls == 0 and best_cfg not in problem.cuts
    return Solution(
        config=best_cfg,
        total_bits=int(best_sum),
        predicted_logerr=float(pred),
        classifier_class=int(cls),
    )


# --- verify-retrain loop --------------------------------------------------------


def fit_models(dataset: Dataset, train_cfg: TrainConfig) -> tuple[MLPModel, DTModel]:
    """The regressor and classifier fitted on the whole dataset."""
    return train_regressor(dataset, train_cfg), train_classifier(dataset, train_cfg)


def smart_tune(
    benchmark: str,
    input_set: InputSet,
    target_error: float,
    budget: int = 30,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
    dataset: Dataset | None = None,
    dataset_size: int = 1000,
    seed_sample: int = 0,
    train_cfg: TrainConfig = TrainConfig(),
    models: tuple[MLPModel, DTModel] | None = None,
    ref: np.ndarray | None = None,
) -> TunedResult:
    """Propose-verify-retrain until a config really meets the target.

    When the first models promise no config at all, the all-nbit_max config
    is verified instead.  If it passes, it is walked down with the
    baseline's descent (status "max_descent"); if it misses, the status is
    "model_infeasible" with that one run's error.

    kernel_runs counts executions made by this call, including dataset
    construction when no dataset is passed in.  A passed-in dataset is
    left untouched; misses extend a private copy.  models, when given, is
    the pair fit_models(dataset, train_cfg) returns, so that several
    targets on one dataset share one initial fit; ref is the kernel's
    reference output on input_set, computed here when not given."""
    t0 = time.perf_counter()
    kernel_runs = 0
    if models is not None and dataset is None:
        raise ValueError("initial models need the dataset they were fitted on")
    if ref is None:
        ref = reference_output(benchmark, input_set)
    if dataset is None:
        dataset = build_dataset(
            benchmark,
            n_samples=dataset_size,
            nbit_lo=nbit_min,
            nbit_hi=nbit_max,
            seed_sample=seed_sample,
            input_set=input_set,
        )
        kernel_runs += dataset_size
    else:
        dataset = replace(dataset, samples=list(dataset.samples))
    regressor, classifier = models if models is not None else fit_models(dataset, train_cfg)

    cuts: set[tuple[int, ...]] = set()
    measured: dict[tuple[int, ...], float] = {}
    samples_added = 0
    last_sol: Solution | None = None
    last_err = float("inf")

    for iteration in range(1, budget + 1):
        problem = build_problem(
            benchmark, regressor, classifier, target_error, nbit_min, nbit_max, cuts
        )
        sol = solve_mp(problem)
        if sol is None and iteration == 1:
            # no verify run yet to learn from: ask the kernel, not the models
            base = _descent_from_max(benchmark, input_set, target_error, nbit_min, nbit_max, ref)
            return replace(
                base,
                refinement_iterations=iteration,
                kernel_runs=kernel_runs + base.kernel_runs,
                wall_time=time.perf_counter() - t0,
                status="max_descent" if base.feasible else "model_infeasible",
            )
        if sol is None:
            return TunedResult(
                solution=last_sol,
                actual_error=last_err,
                feasible=False,
                refinement_iterations=iteration,
                samples_added=samples_added,
                kernel_runs=kernel_runs,
                wall_time=time.perf_counter() - t0,
                status="model_infeasible",
                measured=measured,
            )
        out = run_kernel(benchmark, input_set, sol.config)
        kernel_runs += 1
        err = measured[sol.config] = compute_error(out, ref)
        last_sol, last_err = sol, err
        if err <= target_error:
            return TunedResult(
                solution=sol,
                actual_error=err,
                feasible=True,
                refinement_iterations=iteration,
                samples_added=samples_added,
                kernel_runs=kernel_runs,
                wall_time=time.perf_counter() - t0,
                status="feasible",
                measured=measured,
            )
        # miss: learn from it and never propose it again
        dataset.samples.append(error_sample(sol.config, err))
        samples_added += 1
        cuts.add(sol.config)
        regressor, classifier = fit_models(dataset, train_cfg)

    return TunedResult(
        solution=last_sol,
        actual_error=last_err,
        feasible=False,
        refinement_iterations=budget,
        samples_added=samples_added,
        kernel_runs=kernel_runs,
        wall_time=time.perf_counter() - t0,
        status="budget_exhausted",
        measured=measured,
    )


# --- verified local descent -----------------------------------------------------


def plus_refine(
    benchmark: str,
    input_set: InputSet,
    config,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    ref: np.ndarray | None = None,
    errors: dict | None = None,
) -> tuple[tuple[int, ...], float, int, int]:
    """Binary-search each slot of a feasible config downward, keeping only
    kernel-verified improvements.  Returns (config, error, kernel_runs,
    passes).  The total width never increases and feasibility is preserved.

    errors maps configs already run, the start's among them when known, to
    their measured errors; the call adds each run it makes to it.  No
    config is run twice, and the returned error is the one measured when
    the returned config was accepted (the start's is run at the end if it
    was unknown and nothing was accepted), so kernel_runs counts the
    distinct runs this call made."""
    edges = dependency_graph(benchmark)
    if ref is None:
        ref = reference_output(benchmark, input_set)
    if errors is None:
        errors = {}
    known = len(errors)

    def measured(cfg) -> float:
        if cfg not in errors:
            errors[cfg] = compute_error(run_kernel(benchmark, input_set, cfg), ref)
        return errors[cfg]

    cfg, passes = _descend(config, edges, nbit_min, lambda c: measured(c) <= target_error)
    return cfg, measured(cfg), len(errors) - known, passes


def _measured_solution(config, error: float) -> Solution:
    """A verified config, with its measured log error and class."""
    sample = error_sample(config, error)
    return Solution(
        config=sample.config,
        total_bits=sum(sample.config),
        predicted_logerr=sample.log_err,
        classifier_class=sample.class_label,
    )


def _descent_from_max(
    benchmark: str,
    input_set: InputSet,
    target_error: float,
    nbit_min: int,
    nbit_max: int,
    ref: np.ndarray,
) -> TunedResult:
    """Verify the all-nbit_max config and, if it meets the target, descend
    from it; a descended result's pre_refine_* fields hold the all-max run."""
    t0 = time.perf_counter()
    n = get_benchmark(benchmark).n_var
    start = (nbit_max,) * n  # uniform widths always satisfy the edges
    out = run_kernel(benchmark, input_set, start)
    err = compute_error(out, ref)
    measured = {start: err}
    if err > target_error:
        return TunedResult(
            solution=None,
            actual_error=err,
            feasible=False,
            refinement_iterations=0,
            samples_added=0,
            kernel_runs=1,
            wall_time=time.perf_counter() - t0,
            status="infeasible_at_max",
            measured=measured,
        )
    cfg, final_err, runs, passes = plus_refine(
        benchmark, input_set, start, target_error, nbit_min, ref, measured
    )
    return TunedResult(
        solution=_measured_solution(cfg, final_err),
        actual_error=final_err,
        feasible=final_err <= target_error,
        refinement_iterations=passes,
        samples_added=0,
        kernel_runs=runs + 1,
        wall_time=time.perf_counter() - t0,
        status="feasible",
        pre_refine_total_bits=sum(start),
        pre_refine_error=err,
        measured=measured,
    )


def fptuning_baseline(
    benchmark: str,
    input_set: InputSet,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
) -> TunedResult:
    """Model-free descent from the all-max config."""
    t0 = time.perf_counter()
    ref = reference_output(benchmark, input_set)
    result = _descent_from_max(benchmark, input_set, target_error, nbit_min, nbit_max, ref)
    # the baseline has no proposal of its own to refine
    return replace(
        result,
        wall_time=time.perf_counter() - t0,
        pre_refine_total_bits=None,
        pre_refine_error=None,
    )


def smart_tune_plus(
    benchmark: str,
    input_set: InputSet,
    target_error: float,
    **kwargs,
) -> TunedResult:
    """smart_tune followed by the verified descent on its result."""
    t0 = time.perf_counter()
    ref = reference_output(benchmark, input_set)
    result = smart_tune(benchmark, input_set, target_error, ref=ref, **kwargs)
    # a max_descent result has been through the same descent already
    if not result.feasible or result.solution is None or result.status == "max_descent":
        return result
    nbit_min = kwargs.get("nbit_min", MANTISSA_MIN)
    cfg, final_err, runs, _ = plus_refine(
        benchmark, input_set, result.solution.config, target_error, nbit_min, ref,
        result.measured,
    )
    assert final_err <= target_error
    assert sum(cfg) <= result.solution.total_bits
    return replace(
        result,
        solution=_measured_solution(cfg, final_err),
        actual_error=final_err,
        kernel_runs=result.kernel_runs + runs,
        wall_time=time.perf_counter() - t0,
        pre_refine_total_bits=result.solution.total_bits,
        pre_refine_error=result.actual_error,
    )


# --- ground truth for small problems ----------------------------------------------


def brute_force_optimum(
    benchmark: str,
    input_set: InputSet,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
) -> Solution | None:
    """Exhaustive search over consistent configs; min total width, ties to
    the lexicographically smallest config."""
    desc = get_benchmark(benchmark)
    edges = dependency_graph(benchmark)
    n = desc.n_var
    free = free_dims(edges, n)
    width = nbit_max - nbit_min + 1
    count = width ** len(free)
    if count > BRUTE_FORCE_CAP:
        raise ValueError(
            f"{benchmark}: {count} free-width combinations exceed the cap of {BRUTE_FORCE_CAP}"
        )
    box = DomainBox((nbit_min,) * n, (nbit_max,) * n)
    ref = reference_output(benchmark, input_set)

    best: tuple[int, ...] | None = None
    best_sum = 0
    best_err = float("inf")

    def fill(values):
        cfg = [nbit_min] * n
        for d, v in zip(free, values):
            cfg[d] = v
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            assert guard <= n + 1
            for e in edges:
                if e.kind == CAST:
                    m = min(cfg[s] for s in e.sources)
                    if cfg[e.destination] != m:
                        cfg[e.destination] = m
                        changed = True
        return tuple(cfg)

    for values in itertools.product(range(nbit_min, nbit_max + 1), repeat=len(free)):
        cfg = fill(values)
        if not dependency_consistent(cfg, edges) or not box.contains(cfg):
            continue
        total = sum(cfg)
        if best is not None and (total > best_sum or (total == best_sum and cfg >= best)):
            continue
        out = run_kernel(benchmark, input_set, cfg)
        err = compute_error(out, ref)
        if err <= target_error:
            best, best_sum, best_err = cfg, total, err

    if best is None:
        return None
    return _measured_solution(best, best_err)
