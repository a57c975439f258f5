"""Width assignment search.

solve_mp finds the cheapest per-slot width config that the learned models
predict to satisfy the error target, by best-first branch and bound over
integer boxes.  It searches the classifier's class-0 leaf boxes only
(embed.dt_label_boxes), from a greedy incumbent, and keeps its open boxes
on a heap keyed by their cheapest corner (total width, then the corner
itself).  Each step pops up to FRONTIER boxes and discards a box when
dependency propagation empties it, when its cheapest corner cannot beat
the incumbent, or when the regressor's upper bound over it stays below the
required log error; the surviving boxes are bounded in one
embed.nn_bound_info call, and their lo corners (after propagation, each
its box's cheapest consistent config) predicted in one regressor call.  Each box is then closed or split in key order, with the
cost prune checked again against the incumbent the boxes before it left.
The search stops once the cheapest open box cannot beat the incumbent.
Every prune is sound and an accepted corner closes its box, so the visit
order cannot change the answer: acceptance at a point is exact model
inference, and the search returns exactly what brute enumeration of
consistent configs against the models would.  Cast results are recomputed
in one place, settle_casts.

smart_tune wraps the solver in a verify-retrain loop: each proposed config
is actually run; a miss becomes a new training sample and an excluded
config before the next round.  Then the classifier is refit from scratch,
and the regressor retrained from its previous weights for a tenth of the
epochs (learn.train_regressor's start model).  plus_refine then
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

import heapq
import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset, build_dataset, compute_error, error_sample, log_error, reference_output
from .embed import DomainBox, dt_label_boxes, nn_bound_info, split_weights
from .flexnum import MANTISSA_MAX, MANTISSA_MIN
from .kernels import CAST, InputSet, dependency_graph, get_benchmark, run_kernel
from .learn import DTModel, MLPModel, TrainConfig, classify, predict_logerr, train_classifier, train_regressor

EPS_BOUND = 1e-6
BRUTE_FORCE_CAP = 100_000
# boxes solve_mp pops and bounds per step: on a 7-slot model a box costs
# about 30 us to bound in a batch of 32, against 540 us in a batch of one
FRONTIER = 32


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
    # Adam updates made by the regressor retrains after misses
    adam_steps: int = 0
    # boxes bounded by all of this call's searches (SearchStats.boxes)
    search_boxes: int = 0


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


def cast_destinations(edges) -> set[int]:
    """Dims whose width is a cast result."""
    return {e.destination for e in edges if e.kind == CAST}


def free_dims(edges, n_dims: int) -> list[int]:
    """Dims whose width is chosen directly; cast results just follow."""
    pinned = cast_destinations(edges)
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


def settle_casts(cfg: list[int], edges) -> bool:
    """Recompute cast results in place until stable; True if any changed.
    Cast chains are at most len(cfg) long, so len(cfg) + 1 passes settle
    them; a caller's consistency check catches anything left unsettled."""
    moved = False
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
        moved = True
    return moved


def complete_config(seed_values, box: DomainBox, edges) -> tuple[int, ...] | None:
    """Cheapest dependency-consistent config at least seed_values, inside
    the box, or None.  Assignment targets are raised and cast results
    recomputed in turn until stable."""
    cfg = [int(v) for v in seed_values]
    for _ in range(len(cfg) * len(edges) + 1):
        changed = settle_casts(cfg, edges)
        for e in edges:
            if e.kind != CAST and cfg[e.sources[0]] > cfg[e.destination]:
                cfg[e.destination] = cfg[e.sources[0]]
                changed = True
        if not changed:
            break
    out = tuple(cfg)
    if not dependency_consistent(out, edges) or not box.contains(out):
        return None
    return out


def _repair_down(config: list[int], edges) -> tuple[int, ...] | None:
    """Recompute cast results after a slot was lowered; reject the repair
    if any assignment or cast constraint cannot be restored this way."""
    cfg = list(config)
    settle_casts(cfg, edges)
    out = tuple(cfg)
    return out if dependency_consistent(out, edges) else None


def _assignment_floor(cfg, slot: int, edges, cast_dests: set[int], nbit_min: int) -> int:
    """Lowest width worth probing for slot.  An assignment source pins the
    slot from below, except when that source is itself a cast result (one
    of cast_dests): the repair recomputes those, so lowering the slot can
    pull the source down with it and the consistency check after repair
    has the final word."""
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
    cast_dests = cast_destinations(edges)
    passes = 0
    while True:
        passes += 1
        start_total = sum(cur)
        order = sorted(free, key=lambda s: (-cur[s], s))
        for slot in order:
            floor = _assignment_floor(cur, slot, edges, cast_dests, nbit_min)
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


@dataclass
class SearchStats:
    """Work done by the solve_mp calls it is passed to."""

    boxes: int = 0  # boxes bounded by the regressor


def solve_mp(problem: TuningProblem, stats: SearchStats | None = None) -> Solution | None:
    """Minimum-total-width config accepted by both models, or None."""
    edges = problem.edges
    reg = problem.regressor
    clf = problem.classifier
    log_target = problem.log_target
    domain = problem.domain
    free = free_dims(edges, domain.n_dims)
    if stats is None:
        stats = SearchStats()

    def accepted(cfgs) -> list[bool]:
        """Model acceptance of each dependency-consistent config, with one
        regressor call."""
        asked = [cfg for cfg in cfgs if cfg not in problem.cuts]
        preds = iter(predict_logerr(reg, np.array(asked, dtype=np.float64)) if asked else ())
        return [
            cfg not in problem.cuts and next(preds) >= log_target and classify(clf, cfg) == 0
            for cfg in cfgs
        ]

    # (total, config) of the incumbent
    best: tuple[int, tuple[int, ...]] | None = None

    def beaten(lo) -> bool:
        # lo is both the cheapest and the lexicographically first point of
        # its box, so no point of the box can beat the incumbent
        return best is not None and (sum(lo), lo) >= best

    # a cheap, usually near-optimal incumbent makes the cost prune bite
    # from the start
    start = complete_config(domain.hi, domain, edges)
    if start is not None and accepted([start])[0]:
        greedy, _ = _descend(
            start, edges, min(domain.lo),
            lambda cfg: domain.contains(cfg) and accepted([cfg])[0],
        )
        best = (sum(greedy), greedy)

    splits = split_weights(reg)
    prune_at = log_target - EPS_BOUND
    # the classifier's acceptable region is exactly a union of leaf boxes;
    # searching them removes class-1 space wholesale.  Boxes are kept
    # unpropagated on a heap keyed by their cheapest corner.
    heap = [(sum(b.lo), b.lo, b.hi) for b in dt_label_boxes(clf, domain, 0)]
    heapq.heapify(heap)
    while heap and not beaten(heap[0][1]):
        boxes = []
        while heap and len(boxes) < FRONTIER and not beaten(heap[0][1]):
            _, lo, hi = heapq.heappop(heap)
            box = propagate_box(DomainBox(lo, hi), edges)
            if box is not None and not beaten(box.lo):
                boxes.append(box)
        if not boxes:
            continue
        bounds, slacks = nn_bound_info(reg, [b.lo for b in boxes], [b.hi for b in boxes], splits, prune_at)
        stats.boxes += len(boxes)
        live = [(box, slack) for box, bound, slack in zip(boxes, bounds, slacks) if bound >= prune_at]
        # propagation leaves a box's lo corner consistent, so it is the
        # box's cheapest config
        oks = accepted([box.lo for box, _ in live])
        # in key order, each against the incumbent the boxes before it left
        for (box, slack), ok in zip(live, oks):
            if beaten(box.lo):
                continue
            if ok:
                # no config of the box is cheaper or lexicographically
                # earlier: take it and close the box
                best = (sum(box.lo), box.lo)
                continue
            if box.is_singleton():
                continue
            open_dims = [dim for dim in free if box.lo[dim] < box.hi[dim]]
            if any(slack[dim] > 0.0 for dim in open_dims):
                # split where the regressor bound is loosest, so both halves
                # tighten the most
                d = max(open_dims, key=lambda dim: (slack[dim], -dim))
            else:
                d = max(open_dims, key=lambda dim: box.hi[dim] - box.lo[dim])
            mid = (box.lo[d] + box.hi[d]) // 2
            for half in (box.with_dim(d, box.lo[d], mid), box.with_dim(d, mid + 1, box.hi[d])):
                heapq.heappush(heap, (sum(half.lo), half.lo, half.hi))
    if best is None:
        return None
    best_sum, best_cfg = best
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


def fit_models(
    dataset: Dataset, train_cfg: TrainConfig, start: MLPModel | None = None
) -> tuple[MLPModel, DTModel]:
    """The regressor and classifier fitted on the whole dataset; the
    regressor's training resumes from start when one is given."""
    return train_regressor(dataset, train_cfg, start), train_classifier(dataset, train_cfg)


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
    construction when no dataset is passed in, adam_steps the Adam updates
    of its retrains after misses (not of the initial fit; a miss in the
    last budget round makes no retrain), and search_boxes the boxes its
    searches bounded.  A passed-in dataset is left untouched; misses
    extend a private copy.  models, when given, is
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
    stats = SearchStats()
    measured: dict[tuple[int, ...], float] = {}
    samples_added = 0
    adam_steps = 0
    last_sol: Solution | None = None
    last_err = float("inf")

    for iteration in range(1, budget + 1):
        problem = build_problem(
            benchmark, regressor, classifier, target_error, nbit_min, nbit_max, cuts
        )
        sol = solve_mp(problem, stats)
        if sol is None and iteration == 1:
            # no verify run yet to learn from: ask the kernel, not the models
            base = _descent_from_max(benchmark, input_set, target_error, nbit_min, nbit_max, ref)
            return replace(
                base,
                refinement_iterations=iteration,
                kernel_runs=kernel_runs + base.kernel_runs,
                wall_time=time.perf_counter() - t0,
                status="max_descent" if base.feasible else "model_infeasible",
                search_boxes=stats.boxes,
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
                adam_steps=adam_steps,
                search_boxes=stats.boxes,
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
                adam_steps=adam_steps,
                search_boxes=stats.boxes,
            )
        # miss: learn from it and never propose it again; the regressor
        # carries on from its last weights, the classifier is refit, unless
        # no search is left to use them
        dataset.samples.append(error_sample(sol.config, err))
        samples_added += 1
        cuts.add(sol.config)
        if iteration < budget:
            regressor, classifier = fit_models(dataset, train_cfg, regressor)
            adam_steps += regressor.adam_steps

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
        adam_steps=adam_steps,
        search_boxes=stats.boxes,
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
        settle_casts(cfg, edges)
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
