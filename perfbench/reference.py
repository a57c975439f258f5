"""Reference renditions of the seven prectune kernels, written apart from it.

Each kernel is written against a rounding hook ``rnd(slot, value)`` and
follows the operation order documented for the program, so that three hooks
give three independent renditions:

* ``exact``: no rounding at all, which is plain binary64;
* ``reduced(config)``: every value stored in a slot is rounded to that slot's
  mantissa width by integer arithmetic on the binary64 bit pattern (round to
  nearest, ties to even, gradual underflow on the binary64 exponent range,
  overflow to infinity);
* ``Float32``: every value is cast to ``np.float32`` and back, which is what
  a 23-bit mantissa means on hardware, as long as values stay inside the
  binary32 normal range.

The slot tables (slot count, assignment and cast rules) are transcribed from
the documented slot maps; nothing here calls into prectune.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH_MIN = 1
WIDTH_MAX = 52

F32_TINY = float(np.finfo(np.float32).tiny)
F32_MAX = float(np.finfo(np.float32).max)


# --- slot tables -------------------------------------------------------------
# ASSIGN: (src, dst) means width[src] <= width[dst].
# CAST: (sources, dst) means width[dst] == min(width[s] for s in sources).

SLOTS = {
    "fwt": 2,
    "saxpy": 3,
    "convolution": 4,
    "dwt": 7,
    "correlation": 7,
    "bscholes": 15,
    "jacobi": 25,
}

ASSIGN = {
    "fwt": [(1, 0)],
    "saxpy": [(2, 1)],
    "convolution": [(2, 3)],
    "dwt": [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (3, 6)],
    "correlation": [(0, 1), (2, 3), (2, 4), (4, 5)],
    "bscholes": [(5, 6), (9, 11), (10, 12)],
    "jacobi": [(0, 1), (14, 1), (24, 0), (0, 4)],
}


def _jacobi_casts(grid: int, first: int) -> list:
    dn, ds, dw, de, sv, sh, lap, diff, new, tot = range(first, first + 10)
    return [
        ((grid, grid), dn),
        ((grid, grid), ds),
        ((grid, grid), dw),
        ((grid, grid), de),
        ((dn, ds), sv),
        ((dw, de), sh),
        ((sv, sh), lap),
        ((2, lap), diff),
        ((grid, diff), new),
        ((new, 3), tot),
    ]


CAST = {
    "fwt": [((0, 0), 1)],
    "saxpy": [((0, 1), 2)],
    "convolution": [((0, 1), 2)],
    "dwt": [],
    "correlation": [((0, 1), 2), ((3, 5), 6)],
    "bscholes": [
        ((0, 1), 5),
        ((2, 3, 4), 7),
        ((3, 4), 8),
        ((6, 7, 8), 9),
        ((8, 9), 10),
        ((1, 2, 4), 13),
        ((0, 11, 12, 13), 14),
    ],
    "jacobi": _jacobi_casts(0, 5) + _jacobi_casts(1, 15),
}


def rule_violations(kernel: str, config) -> list[str]:
    """Every way config breaks the slot count, the width box or a rule."""
    n = SLOTS[kernel]
    if len(config) != n:
        return [f"{len(config)} widths for {n} slots"]
    bad = [
        f"slot {i} width {w} outside [{WIDTH_MIN}, {WIDTH_MAX}]"
        for i, w in enumerate(config)
        if not (isinstance(w, int) and WIDTH_MIN <= w <= WIDTH_MAX)
    ]
    for src, dst in ASSIGN[kernel]:
        if config[src] > config[dst]:
            bad.append(f"assignment {src}->{dst}: {config[src]} > {config[dst]}")
    for sources, dst in CAST[kernel]:
        want = min(config[s] for s in sources)
        if config[dst] != want:
            bad.append(f"cast {sources}->{dst}: width {config[dst]}, operands give {want}")
    return bad


# --- rounding hooks ------------------------------------------------------------


def exact(slot, value):
    # a copy, as the other hooks make one: jacobi writes its grids in place
    return float(value) if np.ndim(value) == 0 else np.array(value, dtype=np.float64)


def round_width(value, width: int):
    """Round binary64 value(s) to width explicit mantissa bits, ties to even."""
    arr = np.array(value, dtype=np.float64, ndmin=1)
    if width < WIDTH_MAX:
        drop = np.uint64(WIDTH_MAX - width)
        bits = arr.view(np.uint64)
        keep_lsb = (bits >> drop) & np.uint64(1)
        half_minus_one = np.uint64((1 << (WIDTH_MAX - width - 1)) - 1)
        rounded = ((bits + half_minus_one + keep_lsb) >> drop) << drop
        arr = np.where(np.isfinite(arr), rounded.view(np.float64), arr)
    if np.ndim(value) == 0:
        return float(arr[0])
    return arr.reshape(np.shape(value))


def reduced(config):
    widths = [int(w) for w in config]

    def rnd(slot, value):
        return round_width(value, widths[slot])

    return rnd


class Float32:
    """Cast hook that also notes whether any value left binary32's normal
    range, where float32 and a 23-bit slot with 11 exponent bits differ."""

    def __init__(self):
        self.in_range = True

    def __call__(self, slot, value):
        arr = np.asarray(value, dtype=np.float64)
        mag = np.abs(arr[np.isfinite(arr) & (arr != 0.0)])
        if mag.size and (mag.min() < F32_TINY or mag.max() > F32_MAX):
            self.in_range = False
        with np.errstate(over="ignore"):
            cast = arr.astype(np.float32).astype(np.float64)
        return float(cast) if np.ndim(value) == 0 else cast


# --- kernels -------------------------------------------------------------------


def _fwt(a, shape, rnd):
    x = rnd(0, a["x"])
    n = x.shape[0]
    h = 1
    while h < n:
        pairs = x.reshape(n // (2 * h), 2, h)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        total = rnd(0, rnd(1, lo + hi))
        delta = rnd(0, rnd(1, lo - hi))
        x = np.stack([total, delta], axis=1).reshape(n)
        h *= 2
    return x


def _saxpy(a, shape, rnd):
    x = rnd(0, a["x"])
    y = rnd(1, a["y"])
    coef = rnd(2, float(a["a"]))
    staged = rnd(2, rnd(2, coef * x) + y)
    return rnd(1, staged)


def _convolution(a, shape, rnd):
    img = rnd(0, a["image"])
    w = rnd(1, a["weights"])
    kh, kw = w.shape
    win = np.lib.stride_tricks.sliding_window_view(img, (kh, kw))
    acc = np.zeros(win.shape[:2])
    for u in range(kh):
        for v in range(kw):
            acc = rnd(3, acc + rnd(2, win[:, :, u, v] * w[u, v]))
    return acc.reshape(-1)


_HAAR = 1.0 / math.sqrt(2.0)


def _dwt(a, shape, rnd):
    x = rnd(0, a["x"])
    parts = []
    for slot_a, slot_d in ((1, 2), (3, 4), (5, 6)):
        even, odd = x[::2], x[1::2]
        detail = rnd(slot_d, rnd(slot_d, even - odd) * _HAAR)
        x = rnd(slot_a, rnd(slot_a, even + odd) * _HAAR)
        parts.append(detail)
    return np.concatenate([x] + parts[::-1])


def _correlation(a, shape, rnd):
    d = rnd(0, a["series"])
    s, t = d.shape
    total = np.zeros(s)
    for j in range(t):
        total = rnd(1, total + d[:, j])
    mean = rnd(1, total / t)
    dev = rnd(2, d - mean[:, None])
    cov = np.zeros((s, s))
    var = np.zeros(s)
    for j in range(t):
        cov = rnd(3, cov + rnd(3, dev[:, j][:, None] * dev[:, j][None, :]))
    for j in range(t):
        var = rnd(4, var + rnd(4, dev[:, j] * dev[:, j]))
    cov = rnd(3, cov / t)
    var = rnd(4, var / t)
    sd = rnd(5, np.sqrt(var))
    denom = rnd(6, sd[:, None] * sd[None, :])
    return rnd(6, cov / denom).reshape(-1)


def _phi(x):
    scaled = x / math.sqrt(2.0)
    return 0.5 * (1.0 + np.array([math.erf(v) for v in scaled.reshape(-1)]).reshape(x.shape))


def _bscholes(a, shape, rnd):
    spot = rnd(0, a["spot"])
    strike = rnd(1, a["strike"])
    rate = rnd(2, a["rate"])
    vol = rnd(3, a["volatility"])
    mat = rnd(4, a["maturity"])
    log_ratio = rnd(6, np.log(rnd(5, spot / strike)))
    half_var = rnd(7, rnd(7, vol * vol) * 0.5)
    drift = rnd(7, rnd(7, rate + half_var) * mat)
    vol_t = rnd(8, vol * rnd(8, np.sqrt(mat)))
    d1 = rnd(9, rnd(9, log_ratio + drift) / vol_t)
    d2 = rnd(10, d1 - vol_t)
    n1 = rnd(11, _phi(d1))
    n2 = rnd(12, _phi(d2))
    disc = rnd(13, strike * rnd(13, np.exp(-rnd(13, rate * mat))))
    return rnd(14, rnd(14, spot * n1) - rnd(14, disc * n2))


def _jacobi(a, shape, rnd):
    ga = rnd(0, a["grid"])
    src = rnd(3, a["source"])
    alpha = rnd(2, 0.1)
    gb = rnd(1, ga)
    inner = (slice(1, -1), slice(1, -1))
    for _ in range(shape["iters"]):
        for u, dst, dst_slot, b in ((ga, gb, 1, 5), (gb, ga, 0, 15)):
            c = u[inner]
            n_ = rnd(b, u[:-2, 1:-1] - c)
            s_ = rnd(b + 1, u[2:, 1:-1] - c)
            w_ = rnd(b + 2, u[1:-1, :-2] - c)
            e_ = rnd(b + 3, u[1:-1, 2:] - c)
            lap = rnd(b + 6, rnd(b + 4, n_ + s_) + rnd(b + 5, w_ + e_))
            upd = rnd(b + 8, c + rnd(b + 7, alpha * lap))
            dst[inner] = rnd(dst_slot, rnd(b + 9, upd + src[inner]))
    return rnd(4, ga).reshape(-1)


KERNELS = {
    "fwt": _fwt,
    "saxpy": _saxpy,
    "convolution": _convolution,
    "dwt": _dwt,
    "correlation": _correlation,
    "bscholes": _bscholes,
    "jacobi": _jacobi,
}


def run(kernel: str, arrays: dict, shape: dict, rnd=exact) -> np.ndarray:
    """Flattened output of kernel on the given input arrays under rnd."""
    with np.errstate(all="ignore"):
        return np.asarray(KERNELS[kernel](arrays, shape, rnd), dtype=np.float64)


def error(out: np.ndarray, ref: np.ndarray) -> float:
    """Worst squared relative deviation of out from ref; a non-finite output
    element, or any deviation where ref is exactly zero, is infinite."""
    if not np.all(np.isfinite(out)):
        return math.inf
    with np.errstate(all="ignore"):
        dev = out - ref
        rel = np.where(ref != 0.0, (dev * dev) / (ref * ref), np.where(dev == 0.0, 0.0, np.inf))
    worst = float(np.max(rel)) if rel.size else 0.0
    return worst if worst == worst else math.inf
