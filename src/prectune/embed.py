"""Bounding the learned models over boxes of width configs.

The search works on axis-aligned integer boxes, and this module holds all
of its reasoning about what the models can do inside one.

For the regressor, nn_bound_info gives a sound upper bound on the output
over each of K boxes at once.  Every range, relaxation and coefficient
carries a leading box axis through np.matmul broadcasting, so the search
bounds a whole frontier of boxes in one call, and a single box is a batch
of one.  A forward interval pass (each weight matrix split into its
positive and negative parts) collects every layer's pre-activation range.
When that cannot settle the box, tighten_pre narrows the hidden ranges
layer by layer, and the output is rewritten backward to one linear
function of the input.  Both use one backward rewrite, backward_upper, in
the style of CROWN (Zhang et al., NeurIPS 2018): each ReLU that can go
either way is replaced by its chord from above or by zero or the identity
from below, whichever keeps an upper bound valid, and a lower bound is the
upper bound of the negated rows.  At a single point everything collapses
to the forward pass.

For the classifier, dt_label_boxes walks the box down the tree, clipping
coordinates at each split; the leaf boxes it returns partition the box
exactly by label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learn import DTModel, MLPModel


@dataclass(frozen=True)
class DomainBox:
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("box bound lengths differ")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"empty box: lo {self.lo} hi {self.hi}")

    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, config) -> bool:
        return all(a <= int(v) <= b for a, v, b in zip(self.lo, config, self.hi))

    def with_dim(self, d: int, lo: int, hi: int) -> "DomainBox":
        new_lo = list(self.lo)
        new_hi = list(self.hi)
        new_lo[d] = lo
        new_hi[d] = hi
        return DomainBox(tuple(new_lo), tuple(new_hi))


# --- regressor ------------------------------------------------------------------


def split_weights(model: MLPModel) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(np.maximum(w, 0.0), np.minimum(w, 0.0)) for w in model.weights]


def relu_relaxation(z_lo: np.ndarray, z_hi: np.ndarray):
    """Per-unit pieces of the linear ReLU relaxation over [z_lo, z_hi]:
    live mask, upper chord slope and its constant, and the {0,1} lower
    slope.  Stable units get slope 1 and no constant.  Elementwise, so any
    leading box axis carries through."""
    dead = z_hi <= 0.0
    crossing = ~dead & (z_lo < 0.0)
    span = np.where(z_hi - z_lo > 0.0, z_hi - z_lo, 1.0)
    chord = np.where(crossing, z_hi / span, 1.0)
    chord_c = np.where(crossing, chord * (-z_lo), 0.0)
    alpha = np.where(crossing, (z_hi >= -z_lo).astype(np.float64), 1.0)
    return ~dead, chord, chord_c, alpha


def backward_upper(c, d, relax, weights, biases, lo, hi):
    """Upper bounds over each input box [lo[k], hi[k]] of the columns of
    c.T @ relu(z) + d, where z is the pre-activation of hidden layer
    len(relax) - 1 and relax holds the relaxations of hidden layers
    0..len(relax) - 1, each with a leading box axis.  lo and hi are
    (K, n); c starts as one (units, m) matrix for every box.  Returns
    ((K, m) bounds, (K, n, m) input coefficients).

    Walking down one layer, from above relu(z) <= chord*(z - z_lo) and
    from below relu(z) >= alpha*z with alpha in {0, 1}: a positive
    coefficient takes the chord, a negative one the lower line."""
    for k in range(len(relax) - 1, -1, -1):
        live, chord, chord_c, alpha = relax[k]
        d = d + (chord_c[:, None, :] @ np.maximum(c, 0.0))[:, 0]
        c = c * np.where(c > 0.0, chord[..., None], alpha[..., None]) * live[..., None]
        d = d + biases[k] @ c
        c = weights[k] @ c
    up = hi[:, None, :] @ np.maximum(c, 0.0) + lo[:, None, :] @ np.minimum(c, 0.0)
    return up[:, 0] + d, c


def tighten_pre(pre, weights, biases, lo, hi) -> None:
    """Replace the interval pre-activation ranges of hidden layers
    1..len(pre)-1 with the intersection of the interval range and a
    backward rewrite to the input, layer by layer so later rewrites reuse
    earlier tightenings.  Layer 0 is affine in the box, so its interval
    range is already exact.  Every range is (K, units), one row per box
    [lo[k], hi[k]]."""
    relax = [relu_relaxation(*pre[0])]
    for l in range(1, len(pre)):
        w, b = weights[l], biases[l]
        # rows [w, -w]: the upper bounds of the negated rows are the
        # negated lower bounds
        up, _ = backward_upper(np.hstack([w, -w]), np.concatenate([b, -b]), relax, weights, biases, lo, hi)
        z_lo, z_hi = pre[l]
        n = w.shape[1]
        pre[l] = (np.maximum(z_lo, -up[:, n:]), np.minimum(z_hi, up[:, :n]))
        relax.append(relu_relaxation(*pre[l]))


def nn_bound_info(
    model: MLPModel,
    lo,
    hi,
    splits: list[tuple[np.ndarray, np.ndarray]] | None = None,
    good_enough: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(K upper bounds, (K, n) per-dim slacks) for the regressor over the
    K boxes [lo[k], hi[k]], given as (K, n) arrays of widths.

    Neither the interval pass nor the backward rewrite dominates the other
    on every box, so each bound is the smaller of the two.  A slack row
    |c| * width measures how much each input dimension contributes to its
    box's backward bound, which makes a good branching guide.  A box whose
    interval bound already lands below good_enough skips the backward
    work, and its slack row is left at zero.

    splits may carry the precomputed split_weights of the same model."""
    lo = model.normalize(np.asarray(lo, dtype=np.float64))
    hi = model.normalize(np.asarray(hi, dtype=np.float64))
    weights, biases = model.weights, model.biases
    if splits is None:
        splits = split_weights(model)
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
    bound = (a_hi @ w_pos + a_lo @ w_neg + biases[last])[:, 0]
    slack = np.zeros(lo.shape)

    def unsettled(rows: np.ndarray) -> np.ndarray:
        return rows if good_enough is None else rows[bound[rows] >= good_enough]

    rows = unsettled(np.arange(len(bound)))
    if last >= 2:
        # a single point's interval ranges are already exact
        wide = rows[np.any(lo[rows] < hi[rows], axis=1)]
        if wide.size:
            sub = [(z_lo[wide], z_hi[wide]) for z_lo, z_hi in pre]
            tighten_pre(sub, weights, biases, lo[wide], hi[wide])
            for (z_lo, z_hi), (t_lo, t_hi) in zip(pre, sub):
                z_lo[wide], z_hi[wide] = t_lo, t_hi
            t_lo, t_hi = sub[last - 1]
            tightened = (np.maximum(t_hi, 0.0) @ w_pos + np.maximum(t_lo, 0.0) @ w_neg + biases[last])[:, 0]
            bound[wide] = np.minimum(bound[wide], tightened)
            rows = unsettled(rows)
    if rows.size:
        relax = [relu_relaxation(z_lo[rows], z_hi[rows]) for z_lo, z_hi in pre]
        up, c = backward_upper(weights[last], biases[last], relax, weights, biases, lo[rows], hi[rows])
        bound[rows] = np.minimum(up[:, 0], bound[rows])
        slack[rows] = np.abs(c[:, :, 0]) * (hi[rows] - lo[rows])
    return bound, slack


# --- classifier -----------------------------------------------------------------


def dt_label_boxes(model: DTModel, domain: DomainBox, label: int) -> list[DomainBox]:
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
