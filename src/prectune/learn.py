"""Learned error models: a small MLP regressing the log error of usable
configs, and a decision tree flagging configs with no usable digits.

Both models are written out longhand on purpose.  The solver needs exact
knowledge of the inference path (layer shapes, activation choice, split
predicate, tie-breaking) to bound model output over boxes of configs, and
byte-identical training given identical data, seeds and start model.

Regressor: layers [n, 2n, 2n, n, 1], ReLU between, linear output, trained
with Adam on mean squared error over the class-0 subset only.  Inputs are
scaled to [0, 1] from the dataset width box.  Targets are standardized for
training and the affine correction is folded back into the output layer,
so the stored model predicts log error directly.  A retrain after the
dataset grew may start from the previous model: its output layer is
re-expressed under the new target mean and deviation, and a tenth of the
epochs follow.

Classifier: CART over integer widths, Gini impurity, splits of the form
x[f] <= t with t an attained value below the feature max.  Ties prefer the
lowest feature then the lowest threshold; zero-gain splits are taken when
nothing better exists (both sides stay nonempty, so growth terminates).
Leaves predict the majority label, ties resolving to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset


class InsufficientDataError(ValueError):
    pass


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# a retrain from the previous model takes this fraction of the epochs
WARM_EPOCH_DIVISOR = 10


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 32
    max_depth: int = 20
    seed: int = 0


# --- regressor ---------------------------------------------------------------


@dataclass
class MLPModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_lo: float
    input_hi: float
    # Adam updates made by the fit that returned this model (0 if loaded)
    adam_steps: int = field(default=0, compare=False)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    def normalize(self, x: np.ndarray) -> np.ndarray:
        width = max(self.input_hi - self.input_lo, 1.0)
        return (np.asarray(x, dtype=np.float64) - self.input_lo) / width

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = self.normalize(np.atleast_2d(x))
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if l == last else np.maximum(z, 0.0)
        return a[:, 0]


def layer_sizes(n_inputs: int) -> list[int]:
    return [n_inputs, 2 * n_inputs, 2 * n_inputs, n_inputs, 1]


def init_mlp(n_inputs: int, lo: float, hi: float, seed: int) -> MLPModel:
    rng = np.random.default_rng(seed)
    sizes = layer_sizes(n_inputs)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(weights, biases, float(lo), float(hi))


def _forward_cache(weights, biases, x):
    acts = [x]
    pre = []
    last = len(weights) - 1
    a = x
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        pre.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        acts.append(a)
    return acts, pre


def _grads(weights, biases, x, y, g_w=None, g_b=None):
    """Residuals and mean-squared-error gradients for one batch.

    x: (B, n) normalized inputs, y: (B,) targets.  g_w and g_b, when given,
    are arrays shaped like the weights and biases that receive the
    gradients in place; otherwise new ones are returned.
    """
    acts, pre = _forward_cache(weights, biases, x)
    diff = acts[-1][:, 0] - y
    delta = (2.0 * diff / x.shape[0])[:, None]
    if g_w is None:
        g_w = [np.empty(w.shape) for w in weights]
        g_b = [np.empty(b.shape) for b in biases]
    for l in reversed(range(len(weights))):
        np.matmul(acts[l].T, delta, out=g_w[l])
        np.add.reduce(delta, axis=0, out=g_b[l])
        if l > 0:
            delta = (delta @ weights[l].T) * (pre[l - 1] > 0.0)
    return diff, g_w, g_b


class _Adam:
    """Adam, updating each parameter array in place.  The temporaries are
    preallocated, and the order of operations is that of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr m_hat / (sqrt(v_hat) + eps)."""

    def __init__(self, shapes, cfg: TrainConfig):
        self.cfg = cfg
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self._tmp = [(np.empty(s), np.empty(s)) for s in shapes]
        self.t = 0

    def step(self, params, grads):
        lr = self.cfg.learning_rate
        self.t += 1
        m_scale = 1.0 - BETA1**self.t
        v_scale = 1.0 - BETA2**self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._tmp):
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=a)
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, m_scale, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, v_scale, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            p -= np.divide(a, b, out=a)


def warm_epochs(cfg: TrainConfig) -> int:
    """Epochs of a retrain that starts from the previous model."""
    return max(1, cfg.epochs // WARM_EPOCH_DIVISOR)


def standardize_output(model: MLPModel, mu: float, sigma: float) -> MLPModel:
    """A copy of model whose output is (model(x) - mu) / sigma: the stored
    model with train_regressor's final fold undone for the given target
    mean and deviation."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    weights[-1] /= sigma
    biases[-1] = (biases[-1] - mu) / sigma
    return MLPModel(weights, biases, model.input_lo, model.input_hi)


def train_regressor(
    ds: Dataset, cfg: TrainConfig = TrainConfig(), start: MLPModel | None = None
) -> MLPModel:
    """Fit the log-error regressor on the usable (class-0) samples.

    From scratch, the weights are initialized from cfg.seed and trained
    for cfg.epochs.  With a start model (the previous fit, on a dataset
    that has since grown), training resumes from its weights, re-expressed
    under the dataset's new target mean and deviation so that it starts
    from the same function, for warm_epochs(cfg) epochs with a fresh Adam
    state and the same shuffle seed."""
    keep = [s for s in ds.samples if s.class_label == 0]
    if not keep:
        raise InsufficientDataError(f"{ds.benchmark}: no class-0 samples to regress on")
    y_raw = np.array([s.log_err for s in keep])
    mu = float(np.mean(y_raw))
    sigma = max(float(np.std(y_raw)), 1e-12)
    y = (y_raw - mu) / sigma
    if start is None:
        model = init_mlp(ds.n_var, ds.nbit_lo, ds.nbit_hi, cfg.seed)
        epochs = cfg.epochs
    else:
        if start.n_inputs != ds.n_var:
            raise ValueError(
                f"start model takes {start.n_inputs} inputs, {ds.benchmark} has {ds.n_var} slots"
            )
        model = standardize_output(start, mu, sigma)
        epochs = warm_epochs(cfg)
    x = model.normalize(np.array([s.config for s in keep], dtype=np.float64))

    # Every weight and bias is a view into one flat buffer, and every
    # gradient a view into another, so a single elementwise Adam update
    # moves them all; elementwise, that is the same arithmetic as one
    # update per array.
    params = model.weights + model.biases
    ends = np.cumsum([p.size for p in params])[:-1]

    def views(buf):
        parts = [v.reshape(p.shape) for v, p in zip(np.split(buf, ends), params)]
        return parts[: len(model.weights)], parts[len(model.weights) :]

    flat = np.concatenate([p.ravel() for p in params])
    grad = np.empty_like(flat)
    weights, biases = views(flat)
    g_w, g_b = views(grad)

    rng = np.random.default_rng(cfg.seed + 1)
    opt = _Adam([flat.shape], cfg)
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        xs, ys = x[order], y[order]
        for start_row in range(0, n, cfg.batch_size):
            rows = slice(start_row, start_row + cfg.batch_size)
            _grads(weights, biases, xs[rows], ys[rows], g_w, g_b)
            opt.step([flat], [grad])

    # the returned model owns its arrays rather than views of the buffer
    model.weights = [w.copy() for w in weights]
    model.biases = [b.copy() for b in biases]
    # fold the target standardization into the linear output layer
    model.weights[-1] *= sigma
    model.biases[-1] = model.biases[-1] * sigma + mu
    model.adam_steps = opt.t
    return model


def predict_logerr(model: MLPModel, config) -> float:
    cfg = np.asarray(config, dtype=np.float64)
    if cfg.ndim == 1:
        return float(model.forward(cfg)[0])
    return model.forward(cfg)


# --- classifier ---------------------------------------------------------------


@dataclass
class DTModel:
    root: dict
    n_inputs: int
    max_depth: int


def _gini(labels: np.ndarray) -> float:
    if labels.size == 0:
        return 0.0
    p = float(np.mean(labels))
    return 2.0 * p * (1.0 - p)


def _majority(labels: np.ndarray) -> int:
    ones = int(labels.sum())
    zeros = labels.size - ones
    return 1 if ones >= zeros else 0


def _grow(x: np.ndarray, labels: np.ndarray, depth: int, max_depth: int) -> dict:
    if depth >= max_depth or labels.size < 2 or np.all(labels == labels[0]):
        return {"leaf": _majority(labels)}
    parent = _gini(labels)
    n = labels.size
    best = None  # (gain, feature, threshold) under strict-improvement order
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for t in values[:-1]:
            mask = x[:, f] <= t
            nl = int(mask.sum())
            gain = parent - (nl * _gini(labels[mask]) + (n - nl) * _gini(labels[~mask])) / n
            if best is None or gain > best[0]:
                best = (gain, f, int(t))
    if best is None:
        return {"leaf": _majority(labels)}
    _, f, t = best
    mask = x[:, f] <= t
    return {
        "feature": f,
        "threshold": t,
        "left": _grow(x[mask], labels[mask], depth + 1, max_depth),
        "right": _grow(x[~mask], labels[~mask], depth + 1, max_depth),
    }


def train_classifier(ds: Dataset, cfg: TrainConfig = TrainConfig()) -> DTModel:
    if not ds.samples:
        raise InsufficientDataError(f"{ds.benchmark}: empty dataset")
    x = ds.configs()
    labels = ds.class_labels()
    root = _grow(x, labels, 0, cfg.max_depth)
    return DTModel(root=root, n_inputs=ds.n_var, max_depth=cfg.max_depth)


def classify(model: DTModel, config) -> int:
    cfg = np.asarray(config)
    node = model.root
    while "leaf" not in node:
        node = node["left"] if cfg[node["feature"]] <= node["threshold"] else node["right"]
    return int(node["leaf"])


# --- evaluation ---------------------------------------------------------------


def split_dataset(ds: Dataset, holdout_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout fraction {holdout_fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds.samples))
    n_hold = max(1, int(round(holdout_fraction * len(ds.samples))))
    hold_idx = set(order[:n_hold].tolist())
    train = [s for i, s in enumerate(ds.samples) if i not in hold_idx]
    hold = [s for i, s in enumerate(ds.samples) if i in hold_idx]
    return replace(ds, samples=train), replace(ds, samples=hold)


def eval_models(reg: MLPModel | None, clf: DTModel, ds: Dataset) -> dict:
    """Holdout metrics: regression error on the class-0 subset, label
    accuracy and confusion counts on everything."""
    labels = ds.class_labels()
    preds = np.array([classify(clf, s.config) for s in ds.samples], dtype=np.int64)
    confusion = {
        "tn": int(np.sum((labels == 0) & (preds == 0))),
        "fp": int(np.sum((labels == 0) & (preds == 1))),
        "fn": int(np.sum((labels == 1) & (preds == 0))),
        "tp": int(np.sum((labels == 1) & (preds == 1))),
    }
    accuracy = float(np.mean(preds == labels)) if labels.size else 0.0

    rmse = None
    nrmse = None
    if reg is not None:
        keep = [s for s in ds.samples if s.class_label == 0]
        if keep:
            x = np.array([s.config for s in keep], dtype=np.float64)
            y = np.array([s.log_err for s in keep])
            yhat = reg.forward(x)
            rmse = float(np.sqrt(np.mean((yhat - y) ** 2)))
            spread = float(y.max() - y.min())
            nrmse = rmse / spread if spread > 0 else (0.0 if rmse == 0.0 else float("inf"))
    return {"rmse": rmse, "nrmse": nrmse, "accuracy": accuracy, "confusion": confusion}


# --- serialization -------------------------------------------------------------


def save_regressor(model: MLPModel, path) -> None:
    doc = {
        "kind": "mlp_logerr_regressor",
        "input_lo": model.input_lo,
        "input_hi": model.input_hi,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_regressor(path) -> MLPModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "mlp_logerr_regressor":
        raise ValueError(f"{path}: not a regressor file")
    return MLPModel(
        weights=[np.array(w) for w in doc["weights"]],
        biases=[np.array(b) for b in doc["biases"]],
        input_lo=doc["input_lo"],
        input_hi=doc["input_hi"],
    )


def save_classifier(model: DTModel, path) -> None:
    doc = {
        "kind": "dt_blowup_classifier",
        "n_inputs": model.n_inputs,
        "max_depth": model.max_depth,
        "root": model.root,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_classifier(path) -> DTModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "dt_blowup_classifier":
        raise ValueError(f"{path}: not a classifier file")
    return DTModel(root=doc["root"], n_inputs=doc["n_inputs"], max_depth=doc["max_depth"])
