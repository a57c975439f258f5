"""Benchmark kernels executed under per-slot reduced precision.

Each kernel declares a fixed set of precision slots.  A slot is either a
program variable (an input array, a coefficient, an output array) or a
temporary that stages the result of an expression.  Running a kernel under
a config rounds every arithmetic result and every stored value to the
format of the slot it lands in; inputs are rounded into their slots on
load.  All slots use 11 exponent bits, only the mantissa width is tuned.

Two kinds of dependency edges relate slots:

  * assignment src -> dst: the value produced at src is stored into dst
    (rounded again at dst).  Widening dst below src is pointless, so the
    induced constraint is  x_src <= x_dst.
  * cast (s1, s2, ...) -> dst: dst stages an expression over operands
    living in the source slots.  Bits beyond the narrowest operand carry
    no information, so the induced constraint is  x_dst = min(x_si).

A kernel declares its casts in dependency order: no slot is the result of
two casts, and no cast reads a slot that a later cast writes.
BenchmarkDescriptor refuses any other order.  So one pass over the casts,
in declaration order, gives every cast result its final width
(solve.settle_casts).  Assignments may point back into a cast chain, as
jacobi's and fwt's do; they constrain a config but never move a width.

Slot maps (slot count is fixed per kernel):

fwt (2): 0 data, 1 butterfly stage.  Both butterfly outputs (sum and
  difference) share the staging slot, then are stored back into data.
saxpy (3): 0 x, 1 y, 2 multiply-accumulate stage.  The scalar coefficient
  is folded into the staged expression and carried at slot 2.
convolution (4): 0 image, 1 stencil weights, 2 product stage,
  3 accumulator (the output).
dwt (7): 0 input, then per level the smooth and detail arrays
  (1 a1, 2 d1, 3 a2, 4 d2, 5 a3, 6 d3); each output array doubles as the
  slot of the expression chain that fills it.
correlation (7): 0 series data, 1 per-series mean, 2 centered values
  (a named temporary), 3 covariance accumulator, 4 variance accumulator,
  5 standard deviation, 6 correlation matrix (final expression slot).
bscholes (15): 0 spot, 1 strike, 2 rate, 3 volatility, 4 maturity,
  5 spot/strike ratio, 6 log of the ratio, 7 drift term, 8 vol*sqrt(t),
  9 d1, 10 d2, 11 cdf(d1), 12 cdf(d2), 13 discounted strike, 14 price.
jacobi (25): 0 grid A, 1 grid B, 2 diffusion coefficient, 3 source term,
  4 output copy, 5-14 the ten staged expressions of the A->B half step
  (four neighbor differences, two pair sums, their sum, the scaled
  laplacian, the updated cell, the cell plus source), 15-24 the same for
  the B->A half step.

Transcendentals (log, sqrt, exp, the normal cdf) are evaluated in binary64
and their result is rounded once at the consuming slot, like any other op.

Runs are batched.  run_kernel takes a (B, n_var) array of configs and runs
all B of them in one pass: every value a runner handles carries a leading
config axis, inputs are broadcast along it when loaded into their slots,
and runners index with "..." so that one body serves any batch size.  Each
slot's rounding is one round_to_format call over the whole batch, with a
FormatBatch when the configs disagree on that slot's width.  Every
operation is elementwise along the config axis, so row i of a batch is
bit for bit the run of config i alone.

A batch rounds each value at about the cost of one plain format: a
slot's FormatBatch writes its constants out to the shape of the values it
rounds, once per row size, and keeps them while run_kernel runs, three
uint64 values per value of each shape (about 1.4 MB for a 28-config
convolution batch at 32x32).

A sequential run rounds a few hundred values per call, so the number of
calls sets its cost, and the runners make fewer of them in two ways.

  * Stacked slots.  rnd(slots, value) with a tuple of k slots rounds a
    value whose axis 1 stacks those slots, entry i at slots[i], in one
    call.  jacobi stacks its four neighbor differences and its two pair
    sums; correlation keeps cov and var side by side in one accumulator,
    a slot per value.  The group rounds with one plain format when every
    config gives every slot of it the same width, as a dependency-
    consistent config does for jacobi's groups, which are casts of one
    grid slot, and otherwise with a FormatBatch of the (B, k) widths.
    Either is resolved once per run_kernel call.
  * Product blocks.  correlation's dev_j dev_j outer products and squares
    do not depend on the sums they feed, so those of a block of points,
    about _PRODUCT_BLOCK values, are rounded in one call each; only the
    accumulation runs point by point.

Each value is still rounded once, at its own slot's width, after the same
binary64 operation, so the bits are those of one call per slot and point.
A slot or group that every config gives one width rounds with that
width's format from a table built at import, not a new FlexFormat.

A runner is called as runner(input_set, rnd, load, stage).  Sequential
runs, as a descent or a refinement makes them, change one slot at a time,
and most of a kernel's work may come before the changed slot is first
read.  stage(key, slots, compute) names such a part of a runner: compute()
makes its result from the slots listed and nothing else.  Given a memo
(run_kernel's memo, a dict the caller keeps for one input set), stage
returns the result stored under key when the run gives those slots the
widths it was stored under, and otherwise computes it, makes the returned
arrays read-only and stores it in place of the last one.  Without a memo
stage is compute().  The result is the same bits either way, so a run that
reuses a stage still gives its config's whole output.

  * correlation: means over slots 0-1 (the loaded data and its mean), and
    totals over slots 0-4 (the divided cov and var sums), which reads
    means.  std and corr are computed after both.
  * jacobi: diffusion over every slot but 4, the whole iteration; only
    the output copy at slot 4 is made after it.

The other kernels have none.  Each bscholes run costs under a millisecond.
A convolution products stage over slots 0-2 would be reused by about a
third of a descent's runs, but it would hold all 121 product arrays, about
2.8 MB at the default shape, for about 2% of the descent's time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flexnum import MANTISSA_MAX, MANTISSA_MIN, FlexFormat, FormatBatch, round_to_format

EXPONENT_BITS = 11
# the plain format of each width, by width: building one per slot and run,
# validation included, took a bscholes run from 406 to 525 us
_PLAIN = (None,) * MANTISSA_MIN + tuple(
    FlexFormat(m, EXPONENT_BITS) for m in range(MANTISSA_MIN, MANTISSA_MAX + 1)
)

ASSIGNMENT = "assignment"
CAST = "cast"


class UnknownBenchmarkError(ValueError):
    pass


class InvalidShapeError(ValueError):
    pass


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DependencyEdge:
    kind: str
    sources: tuple[int, ...]
    destination: int

    def __post_init__(self) -> None:
        if self.kind not in (ASSIGNMENT, CAST):
            raise ValueError(f"bad edge kind {self.kind!r}")
        if self.kind == ASSIGNMENT and len(self.sources) != 1:
            raise ValueError("assignment edges take exactly one source")
        if self.kind == CAST and len(self.sources) < 2:
            raise ValueError("cast edges take at least two sources")


def _assign(src: int, dst: int) -> DependencyEdge:
    return DependencyEdge(ASSIGNMENT, (src,), dst)


def _cast(sources: tuple[int, ...], dst: int) -> DependencyEdge:
    return DependencyEdge(CAST, sources, dst)


@dataclass(frozen=True)
class BenchmarkDescriptor:
    name: str
    slot_names: tuple[str, ...]
    # casts in dependency order (module docstring)
    edges: tuple[DependencyEdge, ...]
    default_shape: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for e in self.edges:
            for s in (*e.sources, e.destination):
                assert 0 <= s < self.n_var, f"{self.name}: slot {s} out of range"
        casts = [e for e in self.edges if e.kind == CAST]
        dests = [e.destination for e in casts]
        if len(set(dests)) < len(dests):
            raise ValueError(f"{self.name}: a slot is the result of two casts")
        for i, e in enumerate(casts):
            later = set(e.sources) & set(dests[i + 1:])
            if later:
                raise ValueError(
                    f"{self.name}: the cast into slot {e.destination} reads slot "
                    f"{min(later)}, which a later cast writes"
                )

    @property
    def n_var(self) -> int:
        return len(self.slot_names)


@dataclass(frozen=True)
class InputSet:
    benchmark: str
    arrays: dict[str, np.ndarray]
    seed: int
    shape: dict[str, int]


_DESCRIPTORS: dict[str, BenchmarkDescriptor] = {}
_GENERATORS = {}
_RUNNERS = {}


def _register(desc: BenchmarkDescriptor, gen, run) -> None:
    _DESCRIPTORS[desc.name] = desc
    _GENERATORS[desc.name] = gen
    _RUNNERS[desc.name] = run


def list_benchmarks() -> list[str]:
    return sorted(_DESCRIPTORS)


def get_benchmark(name: str) -> BenchmarkDescriptor:
    try:
        return _DESCRIPTORS[name]
    except KeyError:
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}, available: {list_benchmarks()}"
        ) from None


def dependency_graph(name: str) -> tuple[DependencyEdge, ...]:
    return get_benchmark(name).edges


def gen_input_set(name: str, shape: dict[str, int] | None = None, seed: int = 0) -> InputSet:
    desc = get_benchmark(name)
    merged = dict(desc.default_shape)
    for k, v in (shape or {}).items():
        if k not in merged:
            raise InvalidShapeError(f"{name}: unknown shape key {k!r}")
        merged[k] = int(v)
    rng = np.random.default_rng(seed)
    arrays = _GENERATORS[name](merged, rng)
    return InputSet(benchmark=name, arrays=arrays, seed=seed, shape=merged)


def run_kernel(name: str, input_set: InputSet, config, memo: dict | None = None) -> np.ndarray:
    """Run a kernel under the given per-slot mantissa widths.

    With one integer width per slot, returns the flattened output vector.
    A (B, n_var) array of configs runs as one batch and returns a
    (B, n_out) array whose row i is the output of config i.  Widths are
    integers (integral floats such as 52.0 included) in the global
    mantissa range.

    memo, a dict given to every run on one input set, keeps the last
    result of each of the kernel's stages, and a run on that input set
    that agrees with it on the widths of the slots a stage reads reuses
    that result (module docstring).
    """
    desc = get_benchmark(name)
    if input_set.benchmark != name:
        raise ConfigError(
            f"input set was generated for {input_set.benchmark!r}, not {name!r}"
        )
    cfg = np.asarray(config)
    kind = cfg.dtype.kind
    if kind not in "iuf" or (kind == "f" and not (np.isfinite(cfg) & (cfg == np.round(cfg))).all()):
        raise ConfigError(f"{name}: mantissa widths must be integers, got {config!r}")
    cfg = cfg.astype(np.int64)
    widths = np.atleast_2d(cfg)
    if cfg.ndim > 2 or widths.shape[1] != desc.n_var or not widths.size:
        raise ConfigError(
            f"{name}: config has shape {cfg.shape}, expected ({desc.n_var},) or (B, {desc.n_var})"
        )
    bad = widths[(widths < MANTISSA_MIN) | (widths > MANTISSA_MAX)]
    if bad.size:
        raise ConfigError(f"{name}: mantissa width {bad[0]} outside [{MANTISSA_MIN}, {MANTISSA_MAX}]")
    batch = widths.shape[0]

    # each slot's format, resolved once per call: the plain format of its
    # width where every config agrees on it
    first = widths[0].tolist()
    uniform = (widths == widths[0]).all(axis=0).tolist()
    fmts = {
        slot: _PLAIN[w] if same else FormatBatch(widths[:, slot])
        for slot, (w, same) in enumerate(zip(first, uniform))
    }

    def rnd(slots, value):
        fmt = fmts.get(slots)
        if fmt is None:
            # a group of slots, resolved on first use like a slot
            w = widths[:, list(slots)]
            fmt = fmts[slots] = _PLAIN[int(w.flat[0])] if (w == w.flat[0]).all() else FormatBatch(w)
        return round_to_format(value, fmt)

    def load(slot, value):
        return rnd(slot, np.broadcast_to(value, (batch, *np.shape(value))))

    def stage(key, slots, compute):
        if memo is None:
            return compute()
        read = widths[:, list(slots)]
        kept = memo.get(key)
        if kept is not None and kept[0] is input_set and np.array_equal(kept[1], read):
            return kept[2]
        result = compute()
        for arr in result if isinstance(result, tuple) else (result,):
            arr.flags.writeable = False
        memo[key] = (input_set, read, result)
        return result

    out = _RUNNERS[name](input_set, rnd, load, stage).reshape(batch, -1)
    return out if cfg.ndim == 2 else out[0]


# --- fwt: in-place fast Walsh-Hadamard transform ----------------------------


def _gen_fwt(shape, rng):
    n = shape["n"]
    if n < 2 or n & (n - 1):
        raise InvalidShapeError(f"fwt length must be a power of two >= 2, got {n}")
    return {"x": rng.uniform(0.1, 10.0, n)}


def _run_fwt(inp, rnd, load, stage):
    data = load(0, inp.arrays["x"])
    batch, n = data.shape
    h = 1
    while h < n:
        view = data.reshape(batch, -1, 2 * h)  # a view: the writes land in data
        u = view[..., :h]
        v = view[..., h:]
        s = rnd(1, u + v)
        d = rnd(1, u - v)
        view[..., :h] = rnd(0, s)
        view[..., h:] = rnd(0, d)
        h *= 2
    return data


_register(
    BenchmarkDescriptor(
        name="fwt",
        slot_names=("data", "stage"),
        edges=(_cast((0, 0), 1), _assign(1, 0)),
        default_shape={"n": 1024},
    ),
    _gen_fwt,
    _run_fwt,
)


# --- saxpy: y = a*x + y ------------------------------------------------------


def _gen_saxpy(shape, rng):
    n = shape["n"]
    if n < 1:
        raise InvalidShapeError(f"saxpy length must be >= 1, got {n}")
    return {
        "x": rng.uniform(0.1, 10.0, n),
        "y": rng.uniform(0.1, 10.0, n),
        "a": np.float64(rng.uniform(0.1, 10.0)),
    }


def _run_saxpy(inp, rnd, load, stage):
    x = load(0, inp.arrays["x"])
    y = load(1, inp.arrays["y"])
    a = load(2, float(inp.arrays["a"]))[:, None]  # coefficient rides at the stage slot
    t = rnd(2, a * x)
    t = rnd(2, t + y)
    return rnd(1, t)


_register(
    BenchmarkDescriptor(
        name="saxpy",
        slot_names=("x", "y", "stage"),
        edges=(_cast((0, 1), 2), _assign(2, 1)),
        default_shape={"n": 1024},
    ),
    _gen_saxpy,
    _run_saxpy,
)


# --- convolution: valid 2-d convolution with an 11x11 stencil ---------------

_CONV_K = 11


def _gen_convolution(shape, rng):
    rows, cols = shape["rows"], shape["cols"]
    if rows < _CONV_K or cols < _CONV_K:
        raise InvalidShapeError(
            f"convolution image must be at least {_CONV_K}x{_CONV_K}, got {rows}x{cols}"
        )
    return {
        "image": rng.uniform(0.1, 10.0, (rows, cols)),
        "weights": rng.uniform(0.1, 10.0, (_CONV_K, _CONV_K)),
    }


def _run_convolution(inp, rnd, load, stage):
    img = load(0, inp.arrays["image"])
    ker = load(1, inp.arrays["weights"])
    batch, kh, kw = ker.shape
    oh = img.shape[1] - kh + 1
    ow = img.shape[2] - kw + 1
    acc = np.zeros((batch, oh, ow))
    for u in range(kh):
        for v in range(kw):
            t = rnd(2, img[..., u : u + oh, v : v + ow] * ker[..., u, v, None, None])
            acc = rnd(3, acc + t)
    return acc


_register(
    BenchmarkDescriptor(
        name="convolution",
        slot_names=("image", "weights", "product", "acc"),
        edges=(_cast((0, 1), 2), _assign(2, 3)),
        default_shape={"rows": 64, "cols": 64},
    ),
    _gen_convolution,
    _run_convolution,
)


# --- dwt: three-level Haar wavelet decomposition ----------------------------

_DWT_LEVELS = 3
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _gen_dwt(shape, rng):
    n = shape["n"]
    if n < 2**_DWT_LEVELS or n % (2**_DWT_LEVELS):
        raise InvalidShapeError(
            f"dwt length must be a positive multiple of {2 ** _DWT_LEVELS}, got {n}"
        )
    return {"x": rng.uniform(0.1, 10.0, n)}


def _run_dwt(inp, rnd, load, stage):
    x = load(0, inp.arrays["x"])

    def level(prev, slot_a, slot_d):
        even = prev[..., 0::2]
        odd = prev[..., 1::2]
        a = rnd(slot_a, rnd(slot_a, even + odd) * _INV_SQRT2)
        d = rnd(slot_d, rnd(slot_d, even - odd) * _INV_SQRT2)
        return a, d

    a1, d1 = level(x, 1, 2)
    a2, d2 = level(a1, 3, 4)
    a3, d3 = level(a2, 5, 6)
    return np.concatenate([a3, d3, d2, d1], axis=-1)


_register(
    BenchmarkDescriptor(
        name="dwt",
        slot_names=("x", "a1", "d1", "a2", "d2", "a3", "d3"),
        edges=(
            _assign(0, 1),
            _assign(0, 2),
            _assign(1, 3),
            _assign(1, 4),
            _assign(3, 5),
            _assign(3, 6),
        ),
        default_shape={"n": 1024},
    ),
    _gen_dwt,
    _run_dwt,
)


# --- correlation: pairwise correlation matrix of independent series ---------


def _gen_correlation(shape, rng):
    s, t = shape["series"], shape["points"]
    if s < 2 or t < 2:
        raise InvalidShapeError(f"correlation needs >=2 series of >=2 points, got {s}x{t}")
    return {"series": rng.uniform(0.1, 10.0, (s, t))}


# values per block of hoisted correlation products: a 32-config batch of
# 16 series keeps one point per block, a single run about 15
_PRODUCT_BLOCK = 4096


def _outer(a, b):
    """Outer product of the last axes, batched over the leading ones."""
    return a[..., :, None] * b[..., None, :]


def _run_correlation(inp, rnd, load, stage):
    s, t = inp.arrays["series"].shape

    def means():
        data = load(0, inp.arrays["series"])
        acc = np.zeros(data.shape[:2])
        for j in range(t):
            acc = rnd(1, acc + data[..., j])
        return data, rnd(1, acc / t)

    def totals():
        data, mean = stage("means", (0, 1), means)
        batch = len(data)
        dev = rnd(2, data - mean[..., None])
        del data  # a batch's copy of the inputs, not needed past here
        # cov (s*s values, slot 3) and var (s values, slot 4) accumulate
        # side by side in one array, rounded as one group of per-value slots
        sums = (3,) * (s * s) + (4,) * s
        tot = np.zeros((batch, s * s + s))
        block = max(1, _PRODUCT_BLOCK // (batch * len(sums)))
        for j0 in range(0, t, block):
            d = dev[..., j0 : j0 + block].swapaxes(1, 2)  # (batch, points, s)
            terms = np.concatenate([rnd(3, _outer(d, d).reshape(batch, -1, s * s)), rnd(4, d * d)], axis=2)
            for k in range(terms.shape[1]):
                tot = rnd(sums, tot + terms[:, k])
        return rnd(sums, tot / t)

    tot = stage("totals", (0, 1, 2, 3, 4), totals)
    cov = tot[:, : s * s].reshape(-1, s, s)
    var = tot[:, s * s :]
    std = rnd(5, np.sqrt(var))
    denom = rnd(6, _outer(std, std))
    return rnd(6, cov / denom)


_register(
    BenchmarkDescriptor(
        name="correlation",
        slot_names=("data", "mean", "dev", "cov", "var", "std", "corr"),
        edges=(
            _assign(0, 1),
            _cast((0, 1), 2),
            _assign(2, 3),
            _assign(2, 4),
            _assign(4, 5),
            _cast((3, 5), 6),
        ),
        default_shape={"series": 16, "points": 256},
    ),
    _gen_correlation,
    _run_correlation,
)


# --- bscholes: European call option pricing ---------------------------------

_SQRT2 = math.sqrt(2.0)
# math.erf on each value, without np.vectorize's per-call set-up
_erf = np.frompyfunc(math.erf, 1, 1)


def _norm_cdf(x):
    return 0.5 * (1.0 + _erf(x / _SQRT2).astype(np.float64))


def _gen_bscholes(shape, rng):
    n = shape["n"]
    if n < 1:
        raise InvalidShapeError(f"bscholes needs at least one option, got {n}")
    return {
        "spot": rng.uniform(10.0, 100.0, n),
        "strike": rng.uniform(10.0, 100.0, n),
        "rate": rng.uniform(0.01, 0.05, n),
        "volatility": rng.uniform(0.1, 0.5, n),
        "maturity": rng.uniform(0.25, 2.0, n),
    }


def _run_bscholes(inp, rnd, load, stage):
    s = load(0, inp.arrays["spot"])
    k = load(1, inp.arrays["strike"])
    r = load(2, inp.arrays["rate"])
    sig = load(3, inp.arrays["volatility"])
    t = load(4, inp.arrays["maturity"])

    ratio = rnd(5, s / k)
    lnr = rnd(6, np.log(ratio))
    sig2 = rnd(7, sig * sig)
    half = rnd(7, sig2 * 0.5)
    rp = rnd(7, r + half)
    drift = rnd(7, rp * t)
    st = rnd(8, np.sqrt(t))
    vst = rnd(8, sig * st)
    num = rnd(9, lnr + drift)
    d1 = rnd(9, num / vst)
    d2 = rnd(10, d1 - vst)
    nd1 = rnd(11, _norm_cdf(d1))
    nd2 = rnd(12, _norm_cdf(d2))
    rt = rnd(13, r * t)
    ert = rnd(13, np.exp(-rt))
    disc = rnd(13, k * ert)
    term1 = rnd(14, s * nd1)
    term2 = rnd(14, disc * nd2)
    return rnd(14, term1 - term2)


_register(
    BenchmarkDescriptor(
        name="bscholes",
        slot_names=(
            "spot",
            "strike",
            "rate",
            "volatility",
            "maturity",
            "ratio",
            "ln_ratio",
            "drift",
            "vol_sqrt_t",
            "d1",
            "d2",
            "cdf_d1",
            "cdf_d2",
            "discounted_strike",
            "price",
        ),
        edges=(
            _cast((0, 1), 5),
            _assign(5, 6),
            _cast((2, 3, 4), 7),
            _cast((3, 4), 8),
            _cast((6, 7, 8), 9),
            _cast((8, 9), 10),
            _assign(9, 11),
            _assign(10, 12),
            _cast((1, 2, 4), 13),
            _cast((0, 11, 12, 13), 14),
        ),
        default_shape={"n": 256},
    ),
    _gen_bscholes,
    _run_bscholes,
)


# --- jacobi: explicit heat diffusion on a square grid ------------------------

_JACOBI_ALPHA = 0.1


def _gen_jacobi(shape, rng):
    side, iters = shape["side"], shape["iters"]
    if side < 2:
        raise InvalidShapeError(f"jacobi grid side must be >= 2, got {side}")
    if iters < 1:
        raise InvalidShapeError(f"jacobi needs >= 1 iteration, got {iters}")
    return {
        "grid": rng.uniform(0.1, 10.0, (side, side)),
        "source": rng.uniform(0.1, 10.0, (side, side)),
    }


def _jacobi_half_step(u, dst, dst_slot, base, alpha, src, rnd):
    c = u[..., 1:-1, 1:-1]
    # the four neighbor differences (dn, ds, dw, de) stacked along axis 1,
    # then the two pair sums (sv = dn + ds, sh = dw + de)
    d = np.stack([u[..., :-2, 1:-1], u[..., 2:, 1:-1], u[..., 1:-1, :-2], u[..., 1:-1, 2:]], axis=1)
    d -= c[:, None]
    d = rnd((base, base + 1, base + 2, base + 3), d)
    pair = rnd((base + 4, base + 5), d[:, 0::2] + d[:, 1::2])
    lap = rnd(base + 6, pair[:, 0] + pair[:, 1])
    diff = rnd(base + 7, alpha * lap)
    new = rnd(base + 8, c + diff)
    tot = rnd(base + 9, new + src[..., 1:-1, 1:-1])
    dst[..., 1:-1, 1:-1] = rnd(dst_slot, tot)


def _run_jacobi(inp, rnd, load, stage):
    def diffusion():
        a = load(0, inp.arrays["grid"])
        src = load(3, inp.arrays["source"])
        alpha = load(2, _JACOBI_ALPHA)[:, None, None]
        b = rnd(1, a)
        for _ in range(inp.shape["iters"]):
            _jacobi_half_step(a, b, 1, 5, alpha, src, rnd)
            _jacobi_half_step(b, a, 0, 15, alpha, src, rnd)
        return a

    # every slot but the output copy's
    return rnd(4, stage("diffusion", (0, 1, 2, 3, *range(5, 25)), diffusion))


_register(
    BenchmarkDescriptor(
        name="jacobi",
        slot_names=(
            "grid_a",
            "grid_b",
            "alpha",
            "source",
            "out",
            *(f"ab_{t}" for t in ("dn", "ds", "dw", "de", "sv", "sh", "lap", "diff", "new", "tot")),
            *(f"ba_{t}" for t in ("dn", "ds", "dw", "de", "sv", "sh", "lap", "diff", "new", "tot")),
        ),
        edges=(
            _assign(0, 1),
            _cast((0, 0), 5),
            _cast((0, 0), 6),
            _cast((0, 0), 7),
            _cast((0, 0), 8),
            _cast((5, 6), 9),
            _cast((7, 8), 10),
            _cast((9, 10), 11),
            _cast((2, 11), 12),
            _cast((0, 12), 13),
            _cast((13, 3), 14),
            _assign(14, 1),
            _cast((1, 1), 15),
            _cast((1, 1), 16),
            _cast((1, 1), 17),
            _cast((1, 1), 18),
            _cast((15, 16), 19),
            _cast((17, 18), 20),
            _cast((19, 20), 21),
            _cast((2, 21), 22),
            _cast((1, 22), 23),
            _cast((23, 3), 24),
            _assign(24, 0),
            _assign(0, 4),
        ),
        default_shape={"side": 32, "iters": 50},
    ),
    _gen_jacobi,
    _run_jacobi,
)
