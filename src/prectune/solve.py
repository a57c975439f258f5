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
its box's cheapest consistent config) predicted in one regressor call.
Each box is then closed or split in key order, with the cost prune checked
again against the incumbent the boxes before it left.
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
epochs (learn.train_regressor's start model).  One local function builds
each of its records from the run ledger and the misses: samples_added
counts the misses, kernel_runs the dataset runs plus the verify runs.

A run ledger (RunLedger) holds one input set, its reference output and
the error of every config run on it.  Every kernel run of a tuner, a
descent or the brute-force enumeration goes through RunLedger.error: a
config already in it is read, not run again, and a new run is entered and
counted in its runs.  A ledger is seeded with the reference run itself (the
all-MANTISSA_MAX config).  The tune, transfer and oracle commands give one
ledger to all their calls on an input set, so that no config runs twice on
it in a whole command; each record's kernel_runs counts the runs its own
call added.

One verified descent, _descended, lowers a feasible result: plus_refine
walks its config downward slot by slot with binary search, re-running the
kernel to keep only improvements that hold up.  It reads and extends the
result's ledger; the result carries the error measured when its config
was accepted, and pre_refine_* the config it started from.
smart_tune_plus descends a feasible smart_tune result.  fptuning_baseline
descends from the verified all-max config without any models, the
reference point for run-count comparisons, and so does smart_tune when its
first models promise nothing.

Sum-of-widths ties everywhere resolve to the lexicographically smallest
config, making every search path deterministic.
"""

from __future__ import annotations

import heapq
import itertools
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
    refinement_iterations: int
    samples_added: int
    kernel_runs: int
    status: str
    # the run ledger the call read and extended: the error of every config
    # run on its input set, by this call or by any other call given the same
    # ledger, so that no config is run twice
    ledger: RunLedger = field(repr=False)
    # filled by smart_tune_plus and by a max_descent result: the config the
    # descent started from
    pre_refine_total_bits: int | None = None
    pre_refine_error: float | None = None
    # Adam updates made by the regressor retrains after misses
    adam_steps: int = 0
    # boxes bounded by all of this call's searches (SearchStats.boxes)
    search_boxes: int = 0

    @property
    def feasible(self) -> bool:
        """solution meets the target: a verified proposal or descent."""
        return self.status in ("feasible", "max_descent")


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


class RunLedger:
    """The runs made on one input set: its reference output ref, the run of
    the all-MANTISSA_MAX config, and errors, config -> error of every config
    run on it, seeded with that run.  runs counts the kernel runs made
    through error, the reference run not among them."""

    def __init__(self, input_set: InputSet):
        self.input_set = input_set
        self.benchmark = input_set.benchmark
        self.ref = reference_output(self.benchmark, input_set)
        n = get_benchmark(self.benchmark).n_var
        self.errors = {(MANTISSA_MAX,) * n: compute_error(self.ref, self.ref)}
        self.runs = 0

    def error(self, config: tuple[int, ...]) -> float:
        """config's error, run and entered the first time it is asked for."""
        if config not in self.errors:
            self.errors[config] = compute_error(run_kernel(self.benchmark, self.input_set, config), self.ref)
            self.runs += 1
        return self.errors[config]


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
    # from the start; the domain's uniform hi corner satisfies every edge
    if accepted([domain.hi])[0]:
        greedy, _ = _descend(
            domain.hi, edges, min(domain.lo),
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
    ledger: RunLedger,
    target_error: float,
    budget: int = 30,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
    dataset: Dataset | None = None,
    dataset_size: int = 1000,
    seed_sample: int = 0,
    train_cfg: TrainConfig = TrainConfig(),
    models: tuple[MLPModel, DTModel] | None = None,
) -> TunedResult:
    """Propose-verify-retrain on ledger's input set until a config really
    meets the target.

    When the first models promise no config at all, the all-nbit_max config
    is verified instead.  If it passes, it is walked down with the
    baseline's descent (status "max_descent"); if it misses, the status is
    "model_infeasible" with that one run's error.

    kernel_runs counts the runs this call adds to the ledger, plus the
    dataset construction when no dataset is passed in, adam_steps the Adam
    updates of its retrains after misses (not of the initial fit; a miss in
    the last budget round makes no retrain), and search_boxes the boxes its
    searches bounded.  A passed-in dataset is left untouched; misses
    extend a private copy.  models, when given, is
    the pair fit_models(dataset, train_cfg) returns, so that several
    targets on one dataset share one initial fit."""
    if models is not None and dataset is None:
        raise ValueError("initial models need the dataset they were fitted on")
    benchmark = ledger.benchmark
    dataset_runs = 0
    if dataset is None:
        dataset = build_dataset(
            benchmark,
            n_samples=dataset_size,
            nbit_lo=nbit_min,
            nbit_hi=nbit_max,
            seed_sample=seed_sample,
            input_set=ledger.input_set,
            ref=ledger.ref,
        )
        dataset_runs = dataset_size
    else:
        dataset = replace(dataset, samples=list(dataset.samples))
    regressor, classifier = models if models is not None else fit_models(dataset, train_cfg)

    cuts: set[tuple[int, ...]] = set()
    known = ledger.runs
    stats = SearchStats()
    adam_steps = 0
    last: Solution | None = None

    def result(status: str, rounds: int) -> TunedResult:
        return TunedResult(
            solution=last,
            actual_error=ledger.errors[last.config] if last is not None else float("inf"),
            refinement_iterations=rounds,
            samples_added=len(cuts),
            kernel_runs=dataset_runs + ledger.runs - known,
            status=status,
            ledger=ledger,
            adam_steps=adam_steps,
            search_boxes=stats.boxes,
        )

    for iteration in range(1, budget + 1):
        problem = build_problem(
            benchmark, regressor, classifier, target_error, nbit_min, nbit_max, cuts
        )
        sol = solve_mp(problem, stats)
        if sol is None and iteration == 1:
            # no verify run yet to learn from: ask the kernel, not the models
            base = _descent_from_max(ledger, target_error, nbit_min, nbit_max)
            return replace(
                base,
                refinement_iterations=iteration,
                kernel_runs=dataset_runs + base.kernel_runs,
                status="max_descent" if base.feasible else "model_infeasible",
                search_boxes=stats.boxes,
            )
        if sol is None:
            return result("model_infeasible", iteration)
        last = sol
        err = ledger.error(sol.config)
        if err <= target_error:
            return result("feasible", iteration)
        # miss: learn from it and never propose it again; the regressor
        # carries on from its last weights, the classifier is refit, unless
        # no search is left to use them
        dataset.samples.append(error_sample(sol.config, err))
        cuts.add(sol.config)
        if iteration < budget:
            regressor, classifier = fit_models(dataset, train_cfg, regressor)
            adam_steps += regressor.adam_steps
    return result("budget_exhausted", budget)


# --- verified local descent -----------------------------------------------------


def plus_refine(
    ledger: RunLedger,
    config,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
) -> tuple[tuple[int, ...], float, int, int]:
    """Binary-search each slot of a feasible config downward, keeping only
    kernel-verified improvements.  Returns (config, error, kernel_runs,
    passes).  The total width never increases and feasibility is preserved.

    Every run goes through ledger, so no config is run twice, and the
    returned error is the one measured when the returned config was
    accepted (the start's is run at the end if the ledger did not hold it
    and nothing was accepted); kernel_runs counts the runs this call added
    to the ledger."""
    known = ledger.runs
    cfg, passes = _descend(
        config, dependency_graph(ledger.benchmark), nbit_min, lambda c: ledger.error(c) <= target_error
    )
    return cfg, ledger.error(cfg), ledger.runs - known, passes


def _measured_solution(config, error: float) -> Solution:
    """A verified config, with its measured log error and class."""
    sample = error_sample(config, error)
    return Solution(
        config=sample.config,
        total_bits=sum(sample.config),
        predicted_logerr=sample.log_err,
        classifier_class=sample.class_label,
    )


def _descended(result: TunedResult, target_error: float, nbit_min: int) -> tuple[TunedResult, int]:
    """A feasible result walked down by plus_refine, and the descent's
    passes.  The descent reads and extends result.ledger, so it runs no
    config twice; kernel_runs grows by its runs, and pre_refine_* hold the
    config it started from."""
    start = result.solution
    cfg, err, runs, passes = plus_refine(result.ledger, start.config, target_error, nbit_min)
    assert err <= target_error and sum(cfg) <= start.total_bits
    return replace(
        result,
        solution=_measured_solution(cfg, err),
        actual_error=err,
        kernel_runs=result.kernel_runs + runs,
        pre_refine_total_bits=start.total_bits,
        pre_refine_error=result.actual_error,
    ), passes


def _descent_from_max(ledger: RunLedger, target_error: float, nbit_min: int, nbit_max: int) -> TunedResult:
    """Verify the all-nbit_max config through ledger and, if it meets the
    target, descend from it, the descent's passes counted as iterations."""
    start = (nbit_max,) * get_benchmark(ledger.benchmark).n_var  # uniform widths always satisfy the edges
    known = ledger.runs
    err = ledger.error(start)
    result = TunedResult(
        solution=None,
        actual_error=err,
        refinement_iterations=0,
        samples_added=0,
        kernel_runs=ledger.runs - known,
        status="infeasible_at_max",
        ledger=ledger,
    )
    if err > target_error:
        return result
    result, passes = _descended(
        replace(result, solution=_measured_solution(start, err), status="feasible"), target_error, nbit_min
    )
    return replace(result, refinement_iterations=passes)


def fptuning_baseline(
    ledger: RunLedger,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
) -> TunedResult:
    """Model-free descent from the all-max config on ledger's input set."""
    result = _descent_from_max(ledger, target_error, nbit_min, nbit_max)
    # the baseline has no proposal of its own to refine
    return replace(result, pre_refine_total_bits=None, pre_refine_error=None)


def smart_tune_plus(ledger: RunLedger, target_error: float, **kwargs) -> TunedResult:
    """smart_tune followed by the verified descent on its result; the
    keyword arguments are smart_tune's."""
    result = smart_tune(ledger, target_error, **kwargs)
    # a max_descent result has been through the same descent already
    if result.status != "feasible":
        return result
    result, _ = _descended(result, target_error, kwargs.get("nbit_min", MANTISSA_MIN))
    return result


# --- ground truth for small problems ----------------------------------------------


def brute_force_optimum(
    ledger: RunLedger,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
) -> Solution | None:
    """Exhaustive search over consistent configs on ledger's input set; min
    total width, ties to the lexicographically smallest config."""
    benchmark = ledger.benchmark
    edges = dependency_graph(benchmark)
    n = get_benchmark(benchmark).n_var
    free = free_dims(edges, n)
    width = nbit_max - nbit_min + 1
    count = width ** len(free)
    if count > BRUTE_FORCE_CAP:
        raise ValueError(
            f"{benchmark}: {count} free-width combinations exceed the cap of {BRUTE_FORCE_CAP}"
        )
    box = DomainBox((nbit_min,) * n, (nbit_max,) * n)

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
        err = ledger.error(cfg)
        if err <= target_error:
            best, best_sum, best_err = cfg, total, err

    if best is None:
        return None
    return _measured_solution(best, best_err)
