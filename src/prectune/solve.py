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
consistent configs against the models would.

The slot rules are the kernel's descriptor (kernels.BenchmarkDescriptor):
its casts, its assignments and its free slots, those no cast writes.  A
config's cast slots are settled in one place, settle_casts: one pass over
the casts in the order the kernel declares them, which the descriptor
guarantees is dependency order, then a check of the assignments.  The
descents settle every probe with it, brute_force_optimum every placement
of the free slots, and dependency_consistent asks whether settling leaves
a config unchanged.  propagate_box is the one fixpoint over the rules:
over a box, an assignment into a cast chain (jacobi's, fwt's) feeds back
into it.  It sweeps the casts and then the assignments until a sweep
moves no bound; each rule only narrows the box, so neither the fixpoint
nor whether the box comes out empty depends on that order.

smart_tune wraps the solver in a verify-retrain loop over a dataset and
the models fitted on it, both the caller's, and searches the dataset's
width box: each proposed config is actually run; a miss becomes a new
training sample and an excluded config before the next round.  Then the
classifier is refit from scratch, and the regressor retrained from its
previous weights for a tenth of the epochs (learn.train_regressor's start
model).  One local function builds each of its records from the run ledger
and the misses: samples_added counts the misses.

A run ledger (RunLedger) holds one input set, its reference output and
the error of every config run on it.  Every kernel run the program makes
on an input set but the reference run goes through its ledger's measure:
the dataset builds, and through error the verify runs, the descents and
the brute-force enumeration.  A config already in the ledger is read, not
run again; the new ones are run once each, in batches, entered and counted
in its runs.  A ledger is seeded with the reference run itself (the
all-MANTISSA_MAX config).  The tune, transfer and oracle commands give one
ledger to all their calls on an input set, so that no config runs twice on
it in a whole command, not even one the dataset drew.  The ledger is the
one counter of runs: a call's kernel runs are the growth of its runs over
the call.  Searches and tuners answer with plain width tuples; the error
of each is read off the ledger.
A ledger also holds the kernel stage results of its last runs
(kernels.run_kernel's memo): a new config that agrees with the run that
computed a stage on the widths the stage reads reuses it; a batch's stage
is keyed by the widths of all its rows.  Its output is still the config's
whole output, and it is still a run, entered in errors and counted in
runs like any other.

plus_refine is the one verified descent: it walks a feasible config
downward slot by slot with binary search, re-running the kernel through
the ledger to keep only improvements that hold up.  smart_tune_plus
descends a feasible smart_tune result, and a result's pre_refine names the
config its descent started from.  fptuning_baseline descends from the
verified all-max config without any models, the reference point for
run-count comparisons, and so does smart_tune when its first models
promise nothing.

Sum-of-widths ties everywhere resolve to the lexicographically smallest
config, making every search path deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace

import numpy as np

# build_dataset has no caller here; perfbench/spans.py wraps solve.build_dataset by name
from .dataset import Dataset, build_dataset, compute_error, compute_errors, error_sample, log_error, reference_output
from .embed import DomainBox, dt_label_boxes, nn_bound_info, split_weights
from .flexnum import MANTISSA_MAX, MANTISSA_MIN
from .kernels import BenchmarkDescriptor, InputSet, get_benchmark, run_kernel
from .learn import DTModel, MLPModel, TrainConfig, classify, predict_logerr, train_classifier, train_regressor

EPS_BOUND = 1e-6
BRUTE_FORCE_CAP = 100_000
# boxes solve_mp pops and bounds per step: on a 7-slot model a box costs
# about 30 us to bound in a batch of 32, against 540 us in a batch of one
FRONTIER = 32


@dataclass(frozen=True)
class TuningProblem:
    regressor: MLPModel
    classifier: DTModel
    log_target: float
    domain: DomainBox
    kernel: BenchmarkDescriptor
    cuts: frozenset = frozenset()


@dataclass
class TunedResult:
    # the answer when feasible, else the last proposal verified or None
    config: tuple[int, ...] | None
    # ledger.errors[config]; without one, the all-max run's error or inf
    actual_error: float
    refinement_iterations: int
    samples_added: int
    status: str
    # set by smart_tune_plus and by a max_descent result: the config the
    # descent started from, its error ledger.errors[pre_refine]
    pre_refine: tuple[int, ...] | None = None
    # Adam updates made by the regressor retrains after misses
    adam_steps: int = 0
    # boxes bounded by all of this call's searches (SearchStats.boxes)
    search_boxes: int = 0

    @property
    def feasible(self) -> bool:
        """config meets the target: a verified proposal or descent."""
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
    kernel = get_benchmark(benchmark)
    n = kernel.n_var
    return TuningProblem(
        regressor=regressor,
        classifier=classifier,
        log_target=log_error(target_error),
        domain=DomainBox((nbit_min,) * n, (nbit_max,) * n),
        kernel=kernel,
        cuts=frozenset(tuple(int(v) for v in c) for c in cuts),
    )


# 32 configs of a 1024-value input per kernel run: the per-call cost of the
# emulation is spread thin for about 2 MB more peak memory, most of it the
# rounding constants the batch writes out per value shape (1.1-2.0 MB
# traced for one batch of fwt, saxpy, convolution 32x32 or correlation
# 16x64); at 2x and 4x the size, builds of those two were no faster and
# their traced peak grew by 2-6 MB
BATCH_ELEMENTS = 1 << 15


class RunLedger:
    """The runs made on one input set: its reference output ref, the run of
    the all-MANTISSA_MAX config, and errors, config -> error of every config
    run on it, seeded with that run.  runs counts the kernel runs made
    through measure, the reference run not among them.  memo holds the last
    result of each kernel stage (kernels.run_kernel), which a run that
    agrees on the widths of the slots the stage reads reuses."""

    def __init__(self, input_set: InputSet):
        self.input_set = input_set
        self.benchmark = input_set.benchmark
        self.ref = reference_output(self.benchmark, input_set)
        n = get_benchmark(self.benchmark).n_var
        self.errors = {(MANTISSA_MAX,) * n: compute_error(self.ref, self.ref)}
        self.runs = 0
        self.memo = {}

    def measure(self, configs) -> list[float]:
        """The error of each config.  The distinct configs the ledger lacks
        are run once each, in first-seen order, in batches of as many
        configs as keep the batch's copies of the input set within
        BATCH_ELEMENTS values; a batched run gives each config the bits it
        gets alone."""
        keys = [tuple(map(int, config)) for config in configs]
        new = list(dict.fromkeys(key for key in keys if key not in self.errors))
        if new:
            values = sum(np.size(a) for a in self.input_set.arrays.values())
            step = max(1, BATCH_ELEMENTS // values)
            for i in range(0, len(new), step):
                batch = new[i : i + step]
                outs = run_kernel(self.benchmark, self.input_set, batch, memo=self.memo)
                self.errors.update(zip(batch, compute_errors(outs, self.ref).tolist()))
                self.runs += len(batch)
        return [self.errors[key] for key in keys]

    def error(self, config: tuple[int, ...]) -> float:
        """config's error, run and entered the first time it is asked for."""
        return self.measure([config])[0]


# --- dependency handling ------------------------------------------------------


def propagate_box(box: DomainBox, kernel: BenchmarkDescriptor) -> DomainBox | None:
    """Tighten box bounds under the kernel's rules to a fixpoint.
    Returns None when no consistent config remains."""
    lo = list(box.lo)
    hi = list(box.hi)
    changed = True
    while changed:
        changed = False
        for sources, d in kernel.casts:
            src_lo = min(lo[s] for s in sources)
            src_hi = min(hi[s] for s in sources)
            if src_hi < hi[d]:
                hi[d] = src_hi
                changed = True
            if src_lo > lo[d]:
                lo[d] = src_lo
                changed = True
            for s in sources:
                # the min of the sources must reach at least lo[d]
                if lo[d] > lo[s]:
                    lo[s] = lo[d]
                    changed = True
        for s, d in kernel.assignments:
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


def settle_casts(config, kernel: BenchmarkDescriptor) -> tuple[int, ...] | None:
    """config with each cast result set to the min of its sources, or None
    when an assignment x_src <= x_dst then fails.  Kernels declare their
    casts in dependency order (kernels.BenchmarkDescriptor), so one pass in
    declaration order settles every cast."""
    cfg = list(config)
    for sources, d in kernel.casts:
        cfg[d] = min(cfg[s] for s in sources)
    if any(cfg[s] > cfg[d] for s, d in kernel.assignments):
        return None
    return tuple(cfg)


def dependency_consistent(config, kernel: BenchmarkDescriptor) -> bool:
    """config satisfies every rule: settling its casts changes nothing."""
    return settle_casts(config, kernel) == tuple(config)


def _assignment_floor(cfg, slot: int, kernel: BenchmarkDescriptor, nbit_min: int) -> int:
    """Lowest width worth probing for slot.  An assignment source pins the
    slot from below when the source is free.  A source that is a cast
    result does not: settle_casts recomputes it, so lowering the slot can
    pull it down too, and settle_casts's assignment check has the final
    word."""
    floor = nbit_min
    for s, d in kernel.assignments:
        if d == slot and s in kernel.free:
            floor = max(floor, cfg[s])
    return floor


def _descend(start, kernel: BenchmarkDescriptor, nbit_min: int, is_feasible) -> tuple[tuple[int, ...], int]:
    """Slot-wise binary-search descent from a feasible config.

    Lowers one free slot at a time (settle_casts recomputes the cast
    results), keeping only settled configs that is_feasible approves.
    Repeats passes until a whole pass changes nothing.  Returns (config,
    passes).  The total width never increases."""
    cur = tuple(int(v) for v in start)
    passes = 0
    while True:
        passes += 1
        start_total = sum(cur)
        order = sorted(kernel.free, key=lambda s: (-cur[s], s))
        for slot in order:
            floor = _assignment_floor(cur, slot, kernel, nbit_min)
            if floor >= cur[slot]:
                continue
            lo, hi = floor, cur[slot]
            best: tuple[int, ...] | None = None
            while lo < hi:
                mid = (lo + hi) // 2
                probe = list(cur)
                probe[slot] = mid
                settled = settle_casts(probe, kernel)
                if settled is not None and min(settled) >= nbit_min and is_feasible(settled):
                    best = settled
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


def solve_mp(problem: TuningProblem, stats: SearchStats | None = None) -> tuple[int, ...] | None:
    """Minimum-total-width config accepted by both models, or None."""
    kernel = problem.kernel
    reg = problem.regressor
    clf = problem.classifier
    log_target = problem.log_target
    domain = problem.domain
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
    # from the start; the domain's uniform hi corner satisfies every rule
    if accepted([domain.hi])[0]:
        greedy, _ = _descend(
            domain.hi, kernel, min(domain.lo),
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
            box = propagate_box(DomainBox(lo, hi), kernel)
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
            open_dims = [dim for dim in kernel.free if box.lo[dim] < box.hi[dim]]
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
    best_cfg = best[1]
    assert dependency_consistent(best_cfg, kernel)
    assert problem.domain.contains(best_cfg)
    pred = predict_logerr(reg, np.array(best_cfg, dtype=np.float64))
    assert pred >= log_target and classify(clf, best_cfg) == 0 and best_cfg not in problem.cuts
    return best_cfg


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
    dataset: Dataset,
    models: tuple[MLPModel, DTModel],
    train_cfg: TrainConfig = TrainConfig(),
    budget: int = 30,
) -> TunedResult:
    """Propose-verify-retrain on ledger's input set until a config really
    meets the target.

    models is the pair fit_models(dataset, train_cfg) returns, so that
    several targets on one dataset share one initial fit, and the search
    box is the dataset's, [dataset.nbit_lo, dataset.nbit_hi].  dataset is
    left untouched; misses extend a private copy.

    When the first models promise no config at all, the result is
    fptuning_baseline's, relabelled: a descent from the all-dataset.nbit_hi
    config (status "max_descent", pre_refine that config) when it passes,
    and "model_infeasible" with that one run's error when it misses.

    adam_steps counts the Adam updates of the retrains after misses (not of
    the initial fit; a miss in the last budget round makes no retrain), and
    search_boxes the boxes the searches bounded.  The call's kernel runs
    are the growth of ledger.runs."""
    benchmark = ledger.benchmark
    nbit_min, nbit_max = dataset.nbit_lo, dataset.nbit_hi
    dataset = replace(dataset, samples=list(dataset.samples))
    regressor, classifier = models

    cuts: set[tuple[int, ...]] = set()
    stats = SearchStats()
    adam_steps = 0
    last: tuple[int, ...] | None = None

    def result(status: str, rounds: int) -> TunedResult:
        return TunedResult(
            config=last,
            actual_error=ledger.errors[last] if last is not None else float("inf"),
            refinement_iterations=rounds,
            samples_added=len(cuts),
            status=status,
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
            base = fptuning_baseline(ledger, target_error, nbit_min, nbit_max)
            return replace(
                base,
                refinement_iterations=iteration,
                status="max_descent" if base.feasible else "model_infeasible",
                pre_refine=problem.domain.hi if base.feasible else None,
                search_boxes=stats.boxes,
            )
        if sol is None:
            return result("model_infeasible", iteration)
        last = sol
        err = ledger.error(last)
        if err <= target_error:
            return result("feasible", iteration)
        # miss: learn from it and never propose it again; the regressor
        # carries on from its last weights, the classifier is refit, unless
        # no search is left to use them
        dataset.samples.append(error_sample(last, err))
        cuts.add(last)
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
) -> tuple[tuple[int, ...], int]:
    """Binary-search each slot of a feasible config downward, keeping only
    kernel-verified improvements.  Returns (config, passes); the total
    width never increases and feasibility is preserved.

    Every run goes through ledger, so no config is run twice and the
    returned config's error is ledger.errors[config]: a start the ledger did
    not hold is run once even when nothing was accepted.  The call's runs
    are the growth of ledger.runs."""
    cfg, passes = _descend(
        config, get_benchmark(ledger.benchmark), nbit_min, lambda c: ledger.error(c) <= target_error
    )
    ledger.error(cfg)
    return cfg, passes


def fptuning_baseline(
    ledger: RunLedger,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
) -> TunedResult:
    """Model-free descent on ledger's input set: the all-nbit_max config is
    verified and, if it meets the target, walked down by plus_refine, the
    descent's passes counted as iterations."""
    start = (nbit_max,) * get_benchmark(ledger.benchmark).n_var  # uniform widths always satisfy the rules
    config, passes, status = None, 0, "infeasible_at_max"
    error = ledger.error(start)
    if error <= target_error:
        config, passes = plus_refine(ledger, start, target_error, nbit_min)
        error, status = ledger.errors[config], "feasible"
    return TunedResult(
        config=config,
        actual_error=error,
        refinement_iterations=passes,
        samples_added=0,
        status=status,
    )


def smart_tune_plus(
    ledger: RunLedger,
    target_error: float,
    dataset: Dataset,
    models: tuple[MLPModel, DTModel],
    train_cfg: TrainConfig = TrainConfig(),
    budget: int = 30,
) -> TunedResult:
    """smart_tune followed by plus_refine on its result, down to
    dataset.nbit_lo."""
    result = smart_tune(ledger, target_error, dataset, models, train_cfg, budget)
    # a max_descent result has been through the same descent already
    if result.status != "feasible":
        return result
    config, _ = plus_refine(ledger, result.config, target_error, dataset.nbit_lo)
    return replace(result, config=config, actual_error=ledger.errors[config], pre_refine=result.config)


# --- ground truth for small problems ----------------------------------------------


def brute_force_optimum(
    ledger: RunLedger,
    target_error: float,
    nbit_min: int = MANTISSA_MIN,
    nbit_max: int = MANTISSA_MAX,
) -> tuple[int, ...] | None:
    """Exhaustive search over consistent configs on ledger's input set: the
    feasible one of min total width, ties to the lexicographically smallest
    config, or None."""
    benchmark = ledger.benchmark
    kernel = get_benchmark(benchmark)
    free = kernel.free
    width = nbit_max - nbit_min + 1
    count = width ** len(free)
    if count > BRUTE_FORCE_CAP:
        raise ValueError(
            f"{benchmark}: {count} free-width combinations exceed the cap of {BRUTE_FORCE_CAP}"
        )
    best: tuple[int, ...] | None = None
    # every slot is free or a cast result, and a cast result is the min of
    # in-range widths, so every settled config lies in the width box
    for values in itertools.product(range(nbit_min, nbit_max + 1), repeat=len(free)):
        placed = [nbit_min] * kernel.n_var
        for d, v in zip(free, values):
            placed[d] = v
        cfg = settle_casts(placed, kernel)
        if cfg is None:
            continue
        if best is not None and (sum(cfg), cfg) >= (sum(best), best):
            continue
        if ledger.error(cfg) <= target_error:
            best = cfg
    return best
