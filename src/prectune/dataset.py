"""Training data for the error models.

A sample pairs a per-slot width config with the output error it produces
on one fixed input set.  The error metric is the worst-case relative
squared deviation from the binary64 run of the same kernel on the same
inputs:

    error = max_i (out_i - ref_i)^2 / max(ref_i^2, 1e-60)

Any non-finite entry in the tuned output makes the error infinite.  The
regression target is the negated decimal log of the error, clamped to
[-40, 40]; the classification label marks configs whose error exceeds 0.9
(outputs with no usable digits, including overflow to inf or nan).

Configs are drawn by integer Latin hypercube sampling over the full width
box.  The kernels' slot rules are deliberately not enforced here:
the models see the whole box and the solver applies the constraints.
build_dataset measures the configs through a solve.RunLedger of the input
set, the one place the program runs configs: it runs each distinct config
the ledger lacks once, in batches, and reads the rest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .flexnum import MANTISSA_MAX, MANTISSA_MIN
from .kernels import InputSet, get_benchmark, run_kernel

ERROR_FLOOR = 1e-40
LOG_ERR_CAP = 40.0
CLASS_THRESHOLD = 0.9
_REF_EPS = 1e-60


class DatasetFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Sample:
    config: tuple[int, ...]
    error: float
    log_err: float
    class_label: int


@dataclass
class Dataset:
    benchmark: str
    nbit_lo: int
    nbit_hi: int
    seed_input: int
    seed_sample: int
    shape: dict[str, int]
    samples: list[Sample]

    @property
    def n_var(self) -> int:
        if self.samples:
            return len(self.samples[0].config)
        return get_benchmark(self.benchmark).n_var

    def configs(self) -> np.ndarray:
        return np.array([s.config for s in self.samples], dtype=np.int64)

    def class_labels(self) -> np.ndarray:
        return np.array([s.class_label for s in self.samples], dtype=np.int64)


def lhs_configs(n_samples: int, n_dims: int, lo: int, hi: int, seed: int) -> np.ndarray:
    """Integer Latin hypercube: per dimension, one draw from each of
    n_samples equal strata of [lo, hi], in shuffled stratum order."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if not (MANTISSA_MIN <= lo <= hi <= MANTISSA_MAX):
        raise ValueError(f"width bounds [{lo}, {hi}] invalid")
    rng = np.random.default_rng(seed)
    width = hi - lo + 1
    out = np.empty((n_samples, n_dims), dtype=np.int64)
    for d in range(n_dims):
        strata = rng.permutation(n_samples)
        u = rng.random(n_samples)
        out[:, d] = lo + np.floor((strata + u) * width / n_samples).astype(np.int64)
    return out


def compute_errors(outs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The error of each output stacked along outs' first axis against
    ref, in one pass of float64 operations that are elementwise but for
    the per-row max, so a row's error is that of its output alone."""
    outs = np.asarray(outs, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if outs.shape[1:] != ref.shape:
        raise ValueError(f"output shape {outs.shape[1:]} != reference shape {ref.shape}")
    axes = tuple(range(1, outs.ndim))
    # a row with a non-finite output or a NaN worst is inf, whatever the
    # arithmetic of its other values gave
    with np.errstate(over="ignore", invalid="ignore"):
        rel = (outs - ref) ** 2 / np.maximum(ref**2, _REF_EPS)
    worst = np.max(rel, axis=axes)
    worst[~(np.isfinite(outs).all(axis=axes) & (worst == worst))] = np.inf
    return worst


def compute_error(out: np.ndarray, ref: np.ndarray) -> float:
    return float(compute_errors(np.asarray(out)[None], ref)[0])


def log_error(error: float) -> float:
    return float(np.clip(-np.log10(max(error, ERROR_FLOOR)), -LOG_ERR_CAP, LOG_ERR_CAP))


def reference_output(benchmark: str, input_set: InputSet) -> np.ndarray:
    """Binary64 run used as the error baseline, whatever the width box."""
    n = get_benchmark(benchmark).n_var
    return run_kernel(benchmark, input_set, [MANTISSA_MAX] * n)


def error_sample(config, error: float) -> Sample:
    """The sample of a config whose run had the given error: the error's
    log and its class (1 above CLASS_THRESHOLD)."""
    return Sample(
        config=tuple(int(b) for b in config),
        error=error,
        log_err=log_error(error),
        class_label=int(error > CLASS_THRESHOLD),
    )


def build_dataset(
    ledger,
    n_samples: int = 1000,
    nbit_lo: int = MANTISSA_MIN,
    nbit_hi: int = MANTISSA_MAX,
    seed_sample: int = 0,
) -> Dataset:
    """n_samples configs drawn over [nbit_lo, nbit_hi] and their errors on
    the input set of ledger, a solve.RunLedger, read off it: a config the
    ledger holds is not run again."""
    input_set = ledger.input_set
    configs = lhs_configs(n_samples, get_benchmark(ledger.benchmark).n_var, nbit_lo, nbit_hi, seed_sample)
    errors = ledger.measure(configs)
    return Dataset(
        benchmark=ledger.benchmark,
        nbit_lo=nbit_lo,
        nbit_hi=nbit_hi,
        seed_input=input_set.seed,
        seed_sample=seed_sample,
        shape=dict(input_set.shape),
        samples=[error_sample(cfg, err) for cfg, err in zip(configs, errors)],
    )


# --- serialization -----------------------------------------------------------
# samples.csv holds one row per sample; a .meta.json sidecar carries the
# benchmark identity, width box, seeds and input shape.


def _is_int(value) -> bool:
    # bools are ints to Python; JSON's true is no count
    return type(value) is int


# each sidecar key and the check its value must pass
_META_TYPES = {
    "benchmark": ("a string", lambda v: type(v) is str),
    "nbit_lo": ("an integer", _is_int),
    "nbit_hi": ("an integer", _is_int),
    "seed_input": ("an integer", _is_int),
    "seed_sample": ("an integer", _is_int),
    "shape": (
        "an object of integers",
        lambda v: type(v) is dict and all(_is_int(x) for x in v.values()),
    ),
    "n_samples": ("an integer", _is_int),
}


def _sidecar(path) -> str:
    return str(path) + ".meta.json"


def save_dataset(ds: Dataset, path) -> None:
    n = ds.n_var
    header = ",".join([f"w{i}" for i in range(n)] + ["error", "log_err", "class"])
    lines = [header]
    for s in ds.samples:
        cfg = ",".join(str(b) for b in s.config)
        lines.append(f"{cfg},{repr(s.error)},{repr(s.log_err)},{s.class_label}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = {
        "benchmark": ds.benchmark,
        "nbit_lo": ds.nbit_lo,
        "nbit_hi": ds.nbit_hi,
        "seed_input": ds.seed_input,
        "seed_sample": ds.seed_sample,
        "shape": ds.shape,
        "n_samples": len(ds.samples),
    }
    with open(_sidecar(path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    if not os.path.exists(_sidecar(path)):
        raise DatasetFormatError(f"{path}: missing sidecar {_sidecar(path)}")
    with open(_sidecar(path)) as fh:
        meta = json.load(fh)
    if type(meta) is not dict:
        raise DatasetFormatError(f"{path}: sidecar is not a JSON object")
    for key, (kind, valid) in _META_TYPES.items():
        if key not in meta:
            raise DatasetFormatError(f"{path}: sidecar has no {key!r}")
        if not valid(meta[key]):
            raise DatasetFormatError(f"{path}: sidecar {key!r} must be {kind}, got {meta[key]!r}")
    lo, hi = meta["nbit_lo"], meta["nbit_hi"]
    for key in ("nbit_lo", "nbit_hi"):
        if not MANTISSA_MIN <= meta[key] <= MANTISSA_MAX:
            raise DatasetFormatError(
                f"{path}: sidecar {key!r} {meta[key]} outside [{MANTISSA_MIN}, {MANTISSA_MAX}]"
            )
    if lo > hi:
        raise DatasetFormatError(f"{path}: sidecar 'nbit_lo' {lo} above 'nbit_hi' {hi}")
    benchmark = meta["benchmark"]
    n = get_benchmark(benchmark).n_var
    samples: list[Sample] = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}:1: empty dataset file")
    expected_cols = n + 3
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != expected_cols:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {expected_cols} columns, got {len(parts)}"
            )
        try:
            cfg = tuple(int(p) for p in parts[:n])
            error = float(parts[n])
            log_err = float(parts[n + 1])
            label = int(parts[n + 2])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(lo <= w <= hi for w in cfg):
            raise DatasetFormatError(f"{path}:{lineno}: widths {cfg} outside the sidecar's [{lo}, {hi}]")
        if label not in (0, 1):
            raise DatasetFormatError(f"{path}:{lineno}: class {label} is not 0 or 1")
        if not error >= 0.0:
            raise DatasetFormatError(f"{path}:{lineno}: error {error!r} is not a number >= 0")
        # a saved error reads back exactly, and so must what it implies
        sample = error_sample(cfg, error)
        if (log_err, label) != (sample.log_err, sample.class_label):
            raise DatasetFormatError(
                f"{path}:{lineno}: log_err {log_err!r} and class {label} disagree with error {error!r}"
            )
        samples.append(sample)
    if len(samples) != meta["n_samples"]:
        raise DatasetFormatError(
            f"{path}: sidecar promises {meta['n_samples']} samples, file has {len(samples)}"
        )
    return Dataset(
        benchmark=benchmark,
        nbit_lo=lo,
        nbit_hi=hi,
        seed_input=meta["seed_input"],
        seed_sample=meta["seed_sample"],
        shape=dict(meta["shape"]),
        samples=samples,
    )
