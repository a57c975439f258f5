"""Independent reference implementations used as test oracles.

Everything here is written against the plain mathematical definitions
(exact rational arithmetic, exhaustive grids, unrounded numpy reference
kernels) and deliberately shares no logic with the package code.  The one
exception is flex_op, a single binary64 op rounded by
flexnum.round_to_format, in which the rounding tests state their cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from prectune.flexnum import round_to_format


def format_params(mantissa_bits: int, exponent_bits: int):
    emax = 2 ** (exponent_bits - 1) - 1
    emin = 1 - emax
    return emax, emin


def grid_positive(mantissa_bits: int, exponent_bits: int) -> np.ndarray:
    """All non-negative finite values of the format, ascending."""
    emax, emin = format_params(mantissa_bits, exponent_bits)
    m = mantissa_bits
    subs = np.ldexp(np.arange(0, 2**m, dtype=np.float64), emin - m)
    sig = np.arange(2**m, 2 ** (m + 1), dtype=np.float64)
    es = np.arange(emin, emax + 1)
    normals = np.ldexp(sig[None, :], (es - m)[:, None]).ravel()
    return np.concatenate([subs, normals])


def _binade_exponent(v: Fraction) -> int:
    # e such that 2^(e-1) <= v < 2^e, for v > 0
    d = v.numerator.bit_length() - v.denominator.bit_length()
    return d + 1 if v >= Fraction(2) ** d else d


def _even_grid_index(v: Fraction, mantissa_bits: int, emin: int) -> bool:
    if v == 0:
        return True
    e = _binade_exponent(v)
    k = max(e - 1, emin) - mantissa_bits
    i = v / Fraction(2) ** k
    assert i.denominator == 1, "candidate is not on the grid"
    return i.numerator % 2 == 0


def round_nearest_even(x: float, mantissa_bits: int, exponent_bits: int) -> float:
    """Exact-rational round-to-nearest-even onto the format grid.

    Grid neighbors of |x| are found in exact arithmetic; ties are broken
    by the parity of the candidate's position on the grid.  Magnitudes
    beyond the largest finite value overflow to infinity (the point one
    step above the top of the grid counts as even).
    """
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    emax, emin = format_params(mantissa_bits, exponent_bits)
    m = mantissa_bits
    sign = math.copysign(1.0, x)
    ax = Fraction(abs(x))

    e = math.frexp(abs(x))[1]
    step = Fraction(2) ** (max(e - 1, emin) - m)
    q = ax / step
    fl = q.numerator // q.denominator
    lo = fl * step
    hi = (fl + 1) * step

    d_lo = ax - lo
    d_hi = hi - ax
    if d_lo < d_hi:
        chosen = lo
    elif d_hi < d_lo:
        chosen = hi
    else:
        chosen = lo if _even_grid_index(lo, m, emin) else hi

    max_finite = (Fraction(2) - Fraction(2) ** -m) * Fraction(2) ** emax
    if chosen > max_finite:
        return sign * math.inf
    return sign * float(chosen)


def round_by_grid_search(x: float, mantissa_bits: int, exponent_bits: int) -> float:
    """Brute-force nearest-even over the full enumerated grid (small formats)."""
    if math.isnan(x) or math.isinf(x) or x == 0.0:
        return x
    emax, emin = format_params(mantissa_bits, exponent_bits)
    sign = math.copysign(1.0, x)
    ax = Fraction(abs(x))
    grid = grid_positive(mantissa_bits, exponent_bits)
    # append the overflow surrogate one step above the top
    surrogate = Fraction(2) ** (emax + 1)
    best = None
    best_d = None
    for v in grid:
        d = abs(ax - Fraction(v))
        if best_d is None or d < best_d:
            best, best_d = Fraction(v), d
        elif d == best_d and _even_grid_index(Fraction(v), mantissa_bits, emin):
            best = Fraction(v)
    d_sur = abs(ax - surrogate)
    if d_sur < best_d or (d_sur == best_d):
        # surrogate index is a power of two, always even: wins ties
        return sign * math.inf
    return sign * float(best)


# --- unrounded kernel references --------------------------------------------
# Same operation order as the tuned kernels, plain binary64 throughout.

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SQRT2 = math.sqrt(2.0)


def ref_saxpy(inp):
    x = inp.arrays["x"]
    y = inp.arrays["y"]
    a = float(inp.arrays["a"])
    t = a * x
    return t + y


def ref_fwt(inp):
    data = np.array(inp.arrays["x"], dtype=np.float64)
    n = data.shape[0]
    h = 1
    while h < n:
        view = data.reshape(-1, 2 * h)
        u = view[:, :h]
        v = view[:, h:]
        s = u + v
        d = u - v
        view[:, :h] = s
        view[:, h:] = d
        h *= 2
    return data.ravel()


def ref_convolution(inp):
    img = inp.arrays["image"]
    ker = inp.arrays["weights"]
    kh, kw = ker.shape
    oh = img.shape[0] - kh + 1
    ow = img.shape[1] - kw + 1
    acc = np.zeros((oh, ow))
    for u in range(kh):
        for v in range(kw):
            acc = acc + img[u : u + oh, v : v + ow] * ker[u, v]
    return acc.ravel()


def ref_dwt(inp):
    x = inp.arrays["x"]

    def level(prev):
        even = prev[0::2]
        odd = prev[1::2]
        return (even + odd) * _INV_SQRT2, (even - odd) * _INV_SQRT2

    a1, d1 = level(x)
    a2, d2 = level(a1)
    a3, d3 = level(a2)
    return np.concatenate([a3, d3, d2, d1])


def ref_correlation(inp):
    data = inp.arrays["series"]
    s, t = data.shape
    acc = np.zeros(s)
    for j in range(t):
        acc = acc + data[:, j]
    mean = acc / t
    dev = data - mean[:, None]
    cov = np.zeros((s, s))
    for j in range(t):
        cov = cov + np.outer(dev[:, j], dev[:, j])
    cov = cov / t
    var = np.zeros(s)
    for j in range(t):
        var = var + dev[:, j] * dev[:, j]
    var = var / t
    std = np.sqrt(var)
    denom = np.outer(std, std)
    return (cov / denom).ravel()


def ref_bscholes(inp):
    s = inp.arrays["spot"]
    k = inp.arrays["strike"]
    r = inp.arrays["rate"]
    sig = inp.arrays["volatility"]
    t = inp.arrays["maturity"]

    def cdf(x):
        return 0.5 * (1.0 + np.array([math.erf(v) for v in x / _SQRT2]))

    ratio = s / k
    lnr = np.log(ratio)
    sig2 = sig * sig
    half = sig2 * 0.5
    rp = r + half
    drift = rp * t
    st = np.sqrt(t)
    vst = sig * st
    num = lnr + drift
    d1 = num / vst
    d2 = d1 - vst
    nd1 = cdf(d1)
    nd2 = cdf(d2)
    rt = r * t
    ert = np.exp(-rt)
    disc = k * ert
    term1 = s * nd1
    term2 = disc * nd2
    return term1 - term2


def ref_jacobi(inp, alpha=0.1):
    a = np.array(inp.arrays["grid"], dtype=np.float64)
    src = inp.arrays["source"]
    b = np.array(a)

    def half(u, dst):
        c = u[1:-1, 1:-1]
        dn = u[:-2, 1:-1] - c
        ds = u[2:, 1:-1] - c
        dw = u[1:-1, :-2] - c
        de = u[1:-1, 2:] - c
        sv = dn + ds
        sh = dw + de
        lap = sv + sh
        diff = alpha * lap
        new = c + diff
        tot = new + src[1:-1, 1:-1]
        dst[1:-1, 1:-1] = tot

    for _ in range(inp.shape["iters"]):
        half(a, b)
        half(b, a)
    return a.ravel()


KERNEL_REFS = {
    "saxpy": ref_saxpy,
    "fwt": ref_fwt,
    "convolution": ref_convolution,
    "dwt": ref_dwt,
    "correlation": ref_correlation,
    "bscholes": ref_bscholes,
    "jacobi": ref_jacobi,
}


# --- reduced-precision kernel renditions ------------------------------------------
# The correlation and jacobi bodies as first written: one rounding call per
# slot and staged value, the products and squares of correlation one point
# at a time.  rnd(slot, value) rounds a value whose leading axis is the batch
# of configs to that slot's width in each config; load(slot, array)
# broadcasts an input along that axis first and rounds it.  The package
# stacks and hoists these roundings; every value must keep its bits.


def rounded_correlation(inp, rnd, load):
    data = load(0, inp.arrays["series"])
    batch, s, t = data.shape
    acc = np.zeros((batch, s))
    for j in range(t):
        acc = rnd(1, acc + data[..., j])
    mean = rnd(1, acc / t)
    dev = rnd(2, data - mean[..., None])
    cov = np.zeros((batch, s, s))
    for j in range(t):
        cov = rnd(3, cov + rnd(3, dev[..., j][..., :, None] * dev[..., j][..., None, :]))
    cov = rnd(3, cov / t)
    var = np.zeros((batch, s))
    for j in range(t):
        var = rnd(4, var + rnd(4, dev[..., j] * dev[..., j]))
    var = rnd(4, var / t)
    std = rnd(5, np.sqrt(var))
    denom = rnd(6, std[..., :, None] * std[..., None, :])
    return rnd(6, cov / denom).reshape(batch, -1)


def rounded_jacobi(inp, rnd, load, alpha=0.1):
    a = load(0, inp.arrays["grid"])
    src = load(3, inp.arrays["source"])
    alpha = load(2, alpha)[:, None, None]
    b = rnd(1, a)

    def half(u, dst, dst_slot, base):
        c = u[..., 1:-1, 1:-1]
        dn = rnd(base + 0, u[..., :-2, 1:-1] - c)
        ds = rnd(base + 1, u[..., 2:, 1:-1] - c)
        dw = rnd(base + 2, u[..., 1:-1, :-2] - c)
        de = rnd(base + 3, u[..., 1:-1, 2:] - c)
        sv = rnd(base + 4, dn + ds)
        sh = rnd(base + 5, dw + de)
        lap = rnd(base + 6, sv + sh)
        diff = rnd(base + 7, alpha * lap)
        new = rnd(base + 8, c + diff)
        tot = rnd(base + 9, new + src[..., 1:-1, 1:-1])
        dst[..., 1:-1, 1:-1] = rnd(dst_slot, tot)

    for _ in range(inp.shape["iters"]):
        half(a, b, 1, 5)
        half(b, a, 0, 15)
    return rnd(4, a).reshape(a.shape[0], -1)


ROUNDED_KERNELS = {"correlation": rounded_correlation, "jacobi": rounded_jacobi}


# --- per-array Adam training -----------------------------------------------------
# The regressor's training loop as first written: one Adam update per weight
# and bias array.  The package trains over one flat buffer instead; the
# arithmetic per element is the same, so the weights must agree bit for bit.


def train_mlp_per_array(configs, log_errs, lo, hi, *, learning_rate=0.001, beta1=0.9,
                        beta2=0.999, adam_eps=1e-8, epochs=100, batch_size=32, seed=0):
    """Fit layers [n, 2n, 2n, n, 1] with ReLU between to log errors by
    minibatch Adam on mean squared error; returns (weights, biases) with the
    target standardization folded into the output layer."""
    configs = np.asarray(configs, dtype=np.float64)
    n_in = configs.shape[1]
    sizes = [n_in, 2 * n_in, 2 * n_in, n_in, 1]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    last = len(weights) - 1

    x = (configs - float(lo)) / max(float(hi) - float(lo), 1.0)
    y_raw = np.asarray(log_errs, dtype=np.float64)
    mu = float(np.mean(y_raw))
    sigma = max(float(np.std(y_raw)), 1e-12)
    y = (y_raw - mu) / sigma

    params = weights + biases
    m = [np.zeros(p.shape) for p in params]
    v = [np.zeros(p.shape) for p in params]
    t = 0
    order_rng = np.random.default_rng(seed + 1)
    n = x.shape[0]
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x[idx], y[idx]
            acts, pre = [xb], []
            a = xb
            for l, (w, b) in enumerate(zip(weights, biases)):
                z = a @ w + b
                pre.append(z)
                a = z if l == last else np.maximum(z, 0.0)
                acts.append(a)
            diff = acts[-1][:, 0] - yb
            delta = (2.0 * diff / xb.shape[0])[:, None]
            g_w = [None] * len(weights)
            g_b = [None] * len(weights)
            for l in reversed(range(len(weights))):
                g_w[l] = acts[l].T @ delta
                g_b[l] = delta.sum(axis=0)
                if l > 0:
                    delta = (delta @ weights[l].T) * (pre[l - 1] > 0.0)
            t += 1
            for p, g, mp, vp in zip(params, g_w + g_b, m, v):
                mp *= beta1
                mp += (1.0 - beta1) * g
                vp *= beta2
                vp += (1.0 - beta2) * g * g
                m_hat = mp / (1.0 - beta1**t)
                v_hat = vp / (1.0 - beta2**t)
                p -= learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)

    weights[-1] *= sigma
    biases[-1] = biases[-1] * sigma + mu
    return weights, biases


# --- per-config dataset build ----------------------------------------------------
# The dataset build as first written: one kernel run per sampled config.  The
# package runs the configs in batches; each config's output must not change.


def samples_per_config(run, configs, ref):
    """(config, error, log_err, class) per config, with run(config) giving
    the kernel's output for one config: error is the worst relative squared
    deviation from ref (inf for any non-finite output), log_err its clamped
    negated decimal log, and class 1 for an error above 0.9."""
    ref = np.asarray(ref, dtype=np.float64)
    rows = []
    for cfg in configs:
        out = np.asarray(run(cfg), dtype=np.float64)
        error = math.inf
        if np.all(np.isfinite(out)):
            worst = float(np.max((out - ref) ** 2 / np.maximum(ref**2, 1e-60)))
            if not math.isnan(worst):
                error = worst
        log_err = float(np.clip(-np.log10(max(error, 1e-40)), -40.0, 40.0))
        rows.append((tuple(int(b) for b in cfg), error, log_err, int(error > 0.9)))
    return rows


def _normalized(model, widths):
    return (np.asarray(widths, dtype=np.float64) - model.input_lo) / max(model.input_hi - model.input_lo, 1.0)


def interval_ranges(model, lo, hi):
    """Plain interval bound propagation of the box [lo, hi] (raw widths)
    through the regressor: the (lo, hi) pre-activation range of every
    layer, the output's last."""
    a_lo, a_hi = _normalized(model, lo), _normalized(model, hi)
    ranges = []
    for w, b in zip(model.weights, model.biases):
        w_pos, w_neg = np.maximum(w, 0.0), np.minimum(w, 0.0)
        z_lo = a_lo @ w_pos + a_hi @ w_neg + b
        z_hi = a_hi @ w_pos + a_lo @ w_neg + b
        ranges.append((z_lo, z_hi))
        a_lo, a_hi = np.maximum(z_lo, 0.0), np.maximum(z_hi, 0.0)
    return ranges


def pre_activations(model, points):
    """The pre-activations of every layer at each row of points (raw
    widths), one (n_points, units) array per layer."""
    a = _normalized(model, points)
    out = []
    for w, b in zip(model.weights, model.biases):
        z = a @ w + b
        out.append(z)
        a = np.maximum(z, 0.0)
    return out


# --- slot rules ---------------------------------------------------------------------
# The rule handling as first written, over a kernel's casts, (sources,
# destination) pairs, and its assignments, (source, destination) pairs.  The
# package settles casts in one pass, which kernels' declaration order makes
# enough, and sweeps the casts before the assignments when it propagates a
# box; on every config and box both must agree.


def consistent_walk(config, casts, assignments) -> bool:
    """Every cast result equals the min of its sources, and no assignment
    source is wider than its destination."""
    for sources, dst in casts:
        if config[dst] != min(config[s] for s in sources):
            return False
    for src, dst in assignments:
        if config[src] > config[dst]:
            return False
    return True


def settle_casts_fixpoint(config, casts, assignments):
    """config with its cast results recomputed until stable (at most
    len(config) + 1 passes), or None when the result breaks a rule."""
    cfg = list(config)
    for _ in range(len(cfg) + 1):
        changed = False
        for sources, dst in casts:
            m = min(cfg[s] for s in sources)
            if cfg[dst] != m:
                cfg[dst] = m
                changed = True
        if not changed:
            break
    out = tuple(cfg)
    return out if consistent_walk(out, casts, assignments) else None


def propagate_box_fixpoint(lo, hi, casts, assignments):
    """The (lo, hi) bounds of the box tightened under the rules, a rule at a
    time, the assignments swept before the casts, until a sweep moves none;
    None when no consistent config remains."""
    lo = list(lo)
    hi = list(hi)
    changed = True
    while changed:
        changed = False
        for src, dst in assignments:
            if hi[dst] < hi[src]:
                hi[src] = hi[dst]
                changed = True
            if lo[src] > lo[dst]:
                lo[dst] = lo[src]
                changed = True
        for sources, dst in casts:
            src_lo = min(lo[s] for s in sources)
            src_hi = min(hi[s] for s in sources)
            if src_hi < hi[dst]:
                hi[dst] = src_hi
                changed = True
            if src_lo > lo[dst]:
                lo[dst] = src_lo
                changed = True
            for s in sources:
                # the min of the sources must reach at least lo[dst]
                if lo[dst] > lo[s]:
                    lo[s] = lo[dst]
                    changed = True
        for a, b in zip(lo, hi):
            if a > b:
                return None
    return tuple(lo), tuple(hi)


# --- one rounded binary op -------------------------------------------------------
# The kernels round each binary64 result inline; this is the single-op form
# the rounding tests state their cases in.

_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
}


def flex_op(kind: str, a, b, result_fmt):
    """Apply a binary op in binary64 and round the result to result_fmt
    (a flexnum.FlexFormat) with flexnum.round_to_format.

    kind is one of "add", "sub", "mul", "div".  Division by zero and
    invalid operations follow IEEE semantics (inf / nan results), no
    exceptions are raised.
    """
    try:
        op = _OPS[kind]
    except KeyError:
        raise ValueError(f"unknown op kind {kind!r}, expected one of {sorted(_OPS)}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = op(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return round_to_format(raw, result_fmt)
