"""Command line front end.

Wires datasets, model training, tuning runs and the experiment protocols
(dataset-size sweep, input-set transfer, hardware snapping, brute-force
oracle) into reproducible jobs with persisted artifacts.

Every run setting is declared once, as a RunConfig field; the config-file
keys, the --flags and their parse types are derived from the fields.
Settings come from an optional flat key=value file plus flag overrides;
flags win.  All randomness flows from three named seeds (input, sample,
train) and every output file records them.  Each run's input sets and
datasets are built by run_input_set and run_dataset, and every kernel run
on an input set goes through its solve.RunLedger.  Output files are
written atomically, and repeated runs with identical configuration
produce byte-identical CSVs.

Exit codes: 0 success, 1 at least one target infeasible, 2 usage,
configuration or IO error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

from .dataset import Dataset, build_dataset, load_dataset, save_dataset
from .flexnum import MANTISSA_MAX, MANTISSA_MIN
from .kernels import InputSet, gen_input_set, list_benchmarks
from .learn import TrainConfig, eval_models, save_classifier, save_regressor, split_dataset
from .solve import RunLedger, brute_force_optimum, fit_models, fptuning_baseline, smart_tune, smart_tune_plus

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2

# targets used when none are given
DEFAULT_TARGETS = (1e-30, 1e-25, 1e-20, 1e-15, 1e-10, 1e-7, 1e-5, 1e-3, 1e-1)
# mantissa widths of the common hardware formats, smallest to largest
DEFAULT_HW_FORMATS = (3, 7, 10, 23, 52)
MODES = ("smart", "smart_plus", "baseline")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """One run's settings.  Each field is a config-file key and a --flag
    (underscores become dashes), listed in field order by --help.  A scalar
    field is parsed as the type of its default; its metadata holds its help
    text, its choices and its least allowed value.  The list settings are
    spelled as their metadata "key" and have parsers of their own."""

    benchmark: str = field(
        default="saxpy", metadata={"help": "benchmark name (comma list where supported)"}
    )
    targets: tuple = field(
        default=DEFAULT_TARGETS,
        metadata={"key": "target", "help": "error target, repeatable or comma list"},
    )
    nbit_min: int = MANTISSA_MIN
    nbit_max: int = MANTISSA_MAX
    dataset_size: int = field(default=1000, metadata={"min": 1})
    budget: int = field(default=100, metadata={"min": 0})
    mode: str = field(default="smart_plus", metadata={"choices": MODES})
    seed_input: int = 0
    seed_sample: int = 0
    seed_train: int = 0
    epochs: int = field(default=TrainConfig.epochs, metadata={"min": 1})
    batch_size: int = field(default=TrainConfig.batch_size, metadata={"min": 1})
    learning_rate: float = TrainConfig.learning_rate
    max_depth: int = field(default=TrainConfig.max_depth, metadata={"min": 0})
    shape: dict = field(
        default_factory=dict,
        metadata={"key": "shape", "help": "input shape override, name=value"},
    )
    out: str = field(default="runs", metadata={"help": "output directory"})

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            seed=self.seed_train,
            **{f.name: getattr(self, f.name) for f in fields(TrainConfig) if f.name != "seed"},
        )

    def seed_line(self) -> str:
        return "# " + " ".join(f"{k}={v}" for k, v in self.seed_fields().items())

    def seed_fields(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name.startswith("seed_")}


# parse type of each scalar setting, in field order
SCALAR_SETTINGS = {
    f.name: type(f.default) for f in fields(RunConfig) if type(f.default) in (int, float, str)
}
_TYPE_WORDS = {int: "an integer", float: "a number"}


# --- configuration loading ------------------------------------------------------


def parse_shape_items(items) -> dict:
    shape = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise UsageError(f"shape entry {item!r} is not name=value")
        try:
            shape[key] = int(value)
        except ValueError:
            raise UsageError(f"shape entry {item!r}: value must be an integer") from None
    return shape


def parse_targets(text: str) -> tuple:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = float(piece)
        except ValueError:
            raise UsageError(f"target {piece!r} is not a number") from None
        if not value > 0.0:
            raise UsageError(f"target {piece!r} must be positive")
        out.append(value)
    if not out:
        raise UsageError("target list is empty")
    return tuple(out)


def parse_int_list(text: str, what: str) -> tuple:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"{what} {text!r} is not a comma-separated integer list") from None
    if not values:
        raise UsageError(f"{what} list is empty")
    return values


def load_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    if not os.path.exists(path):
        raise UsageError(f"config file {path} does not exist")
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip()
            value = value.strip()
            if key in SCALAR_SETTINGS:
                kind = SCALAR_SETTINGS[key]
                try:
                    values[key] = kind(value)
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: {key} must be {_TYPE_WORDS[kind]}") from None
            elif key == "target":
                values["targets"] = parse_targets(value)
            elif key == "shape":
                values["shape"] = parse_shape_items(
                    [p for p in value.split(",") if p.strip()]
                )
            else:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
    return values


def make_run_config(args) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in SCALAR_SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "target", None):
        values["targets"] = tuple(
            t for chunk in args.target for t in parse_targets(chunk)
        )
    if getattr(args, "shape", None):
        values["shape"] = {**values.get("shape", {}), **parse_shape_items(args.shape)}

    cfg = RunConfig(**values)
    seen = set()
    for target in cfg.targets:
        if target in seen:
            raise UsageError(f"target {target_slug(target)} is given more than once")
        seen.add(target)
    if not MANTISSA_MIN <= cfg.nbit_min <= cfg.nbit_max <= MANTISSA_MAX:
        raise UsageError(
            f"nbit_min/nbit_max [{cfg.nbit_min}, {cfg.nbit_max}] outside"
            f" [{MANTISSA_MIN}, {MANTISSA_MAX}] or reversed"
        )
    for f in fields(cfg):
        value, meta = getattr(cfg, f.name), f.metadata
        if "choices" in meta and value not in meta["choices"]:
            raise UsageError(f"{f.name} {value!r} not one of {', '.join(meta['choices'])}")
        if "min" in meta and value < meta["min"]:
            raise UsageError(f"{f.name} {value} must be >= {meta['min']}")
    if not (math.isfinite(cfg.learning_rate) and cfg.learning_rate > 0.0):
        raise UsageError(f"learning_rate {cfg.learning_rate!r} must be finite and positive")
    return cfg


def benchmarks_of(cfg: RunConfig) -> list[str]:
    names = [b.strip() for b in cfg.benchmark.split(",") if b.strip()]
    if not names:
        raise UsageError("no benchmark given")
    known = set(list_benchmarks())
    for name in names:
        if name not in known:
            raise UsageError(
                f"unknown benchmark {name!r}; available: {', '.join(sorted(known))}"
            )
    return names


def single_benchmark(cfg: RunConfig) -> str:
    names = benchmarks_of(cfg)
    if len(names) != 1:
        raise UsageError("this command takes exactly one benchmark")
    return names[0]


def run_input_set(cfg: RunConfig, bench: str, offset: int = 0) -> InputSet:
    """The run's input set, or with an offset one of its siblings."""
    return gen_input_set(bench, cfg.shape or None, cfg.seed_input + offset)


def run_dataset(cfg: RunConfig, ledger: RunLedger) -> Dataset:
    """A fresh dataset of cfg.dataset_size samples over the run's width box,
    drawn with its sample seed and measured through ledger."""
    return build_dataset(
        ledger,
        n_samples=cfg.dataset_size,
        nbit_lo=cfg.nbit_min,
        nbit_hi=cfg.nbit_max,
        seed_sample=cfg.seed_sample,
    )


def load_run_dataset(path: str, bench: str, run: dict | None = None) -> Dataset:
    """The dataset saved at path, refused unless it is for bench and agrees
    with run, when given, on each Dataset field it names."""
    ds = load_dataset(path)
    if ds.benchmark != bench:
        raise UsageError(f"dataset {path} is for {ds.benchmark!r}, not {bench!r}")
    for key, want in (run or {}).items():
        got = getattr(ds, key)
        if got != want:
            raise UsageError(f"dataset {path} has {key} {got}, the run has {want}")
    return ds


def with_dataset_seeds(cfg: RunConfig, ds: Dataset) -> RunConfig:
    """cfg with the input and sample seeds a loaded dataset was drawn with,
    so that a run on it records the seeds of its data."""
    return replace(cfg, seed_input=ds.seed_input, seed_sample=ds.seed_sample)


# --- output helpers -------------------------------------------------------------


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path: str, doc: dict) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def csv_text(cfg: RunConfig, header, rows) -> str:
    buf = io.StringIO()
    buf.write(cfg.seed_line() + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def target_slug(target: float) -> str:
    """The target as file names and CSV rows spell it: the short %g form
    where that reads back as the same number, repr otherwise, so that
    distinct targets never share a name."""
    short = f"{target:g}"
    text = short if float(short) == target else repr(target)
    return text.replace("e-0", "e-").replace("e+0", "e+")


def ensure_outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


# --- subcommands ----------------------------------------------------------------


def cmd_dataset(args) -> int:
    cfg = make_run_config(args)
    bench = single_benchmark(cfg)
    outdir = ensure_outdir(cfg)
    ds = run_dataset(cfg, RunLedger(run_input_set(cfg, bench)))
    path = os.path.join(outdir, f"{bench}_dataset.csv")
    save_dataset(ds, path)
    class1 = sum(s.class_label for s in ds.samples)
    print(f"{path}: {len(ds.samples)} samples, {class1} class-1")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = make_run_config(args)
    bench = single_benchmark(cfg)
    outdir = ensure_outdir(cfg)
    if args.dataset:
        ds = load_run_dataset(args.dataset, bench)
        cfg = with_dataset_seeds(cfg, ds)
    else:
        ds = run_dataset(cfg, RunLedger(run_input_set(cfg, bench)))
    tc = cfg.train_config()

    # quality is measured on a held-out split, the saved models use all data
    train_part, hold_part = split_dataset(ds, 0.2, seed=cfg.seed_train)
    metrics = eval_models(*fit_models(train_part, tc), hold_part)

    regressor, classifier = fit_models(ds, tc)
    reg_path = os.path.join(outdir, f"{bench}_regressor.json")
    clf_path = os.path.join(outdir, f"{bench}_classifier.json")
    save_regressor(regressor, reg_path)
    save_classifier(classifier, clf_path)
    write_json(
        os.path.join(outdir, f"{bench}_metrics.json"),
        {
            "benchmark": bench,
            "n_samples": len(ds.samples),
            "holdout_fraction": 0.2,
            **metrics,
            **cfg.seed_fields(),
        },
    )
    print(
        f"{bench}: rmse={metrics['rmse']} accuracy={metrics['accuracy']:.4f}"
        f" -> {reg_path}, {clf_path}"
    )
    return EXIT_OK


def _run_method(cfg: RunConfig, ledger: RunLedger, target, dataset, models):
    """One tuner call on ledger's input set, and its wall time in seconds."""
    t0 = time.perf_counter()
    if cfg.mode == "baseline":
        result = fptuning_baseline(ledger, target, cfg.nbit_min, cfg.nbit_max)
    else:
        runner = smart_tune if cfg.mode == "smart" else smart_tune_plus
        result = runner(
            ledger,
            target,
            budget=cfg.budget,
            nbit_min=cfg.nbit_min,
            nbit_max=cfg.nbit_max,
            dataset=dataset,
            dataset_size=cfg.dataset_size,
            seed_sample=cfg.seed_sample,
            train_cfg=cfg.train_config(),
            models=models,
        )
    return result, time.perf_counter() - t0


def cmd_tune(args) -> int:
    cfg = make_run_config(args)
    bench = single_benchmark(cfg)
    outdir = ensure_outdir(cfg)
    input_set = run_input_set(cfg, bench)
    # one reference run and one run ledger for the dataset and all the targets
    ledger = RunLedger(input_set)

    dataset = None
    models = None
    dataset_runs = 0
    if cfg.mode != "baseline":
        if args.dataset:
            # its errors were measured on this input set over this width box,
            # but not by this process: none is entered in the ledger
            run = {"shape": input_set.shape, "seed_input": input_set.seed,
                   "nbit_lo": cfg.nbit_min, "nbit_hi": cfg.nbit_max}
            dataset = load_run_dataset(args.dataset, bench, run)
            cfg = with_dataset_seeds(cfg, dataset)
        else:
            dataset = run_dataset(cfg, ledger)
            dataset_runs = ledger.runs
        # every target starts from the same fit on the same dataset
        models = fit_models(dataset, cfg.train_config())

    rows = []
    all_feasible = True
    for target in cfg.targets:
        result, wall_time = _run_method(cfg, ledger, target, dataset, models)
        config, pre = result.config, result.pre_refine
        bits = sum(config) if config is not None else None
        feasible = result.feasible
        all_feasible = all_feasible and feasible
        rows.append(
            [
                target_slug(target),
                cfg.mode,
                "" if bits is None else bits,
                repr(result.actual_error),
                "true" if feasible else "false",
                result.refinement_iterations,
                result.kernel_runs,
            ]
        )
        write_json(
            os.path.join(outdir, f"{bench}_{cfg.mode}_{target_slug(target)}.json"),
            {
                "benchmark": bench,
                "mode": cfg.mode,
                "target": target,
                "config": list(config) if config is not None else None,
                "total_bits": bits,
                "actual_error": result.actual_error,
                "feasible": feasible,
                "status": result.status,
                "iterations": result.refinement_iterations,
                "samples_added": result.samples_added,
                "adam_steps": result.adam_steps,
                "search_boxes": result.search_boxes,
                "kernel_runs": result.kernel_runs,
                "pre_refine_total_bits": sum(pre) if pre is not None else None,
                "pre_refine_error": ledger.errors[pre] if pre is not None else None,
                "dataset_runs": dataset_runs,
                "wall_time_s": wall_time,
                "nbit_min": cfg.nbit_min,
                "nbit_max": cfg.nbit_max,
                "shape": dict(sorted(input_set.shape.items())),
                **cfg.seed_fields(),
            },
        )
        state = "ok" if feasible else f"FAILED ({result.status})"
        print(f"{bench} {cfg.mode} target={target_slug(target)}: {state} bits={bits or '-'}")

    summary_path = os.path.join(outdir, f"{bench}_{cfg.mode}_summary.csv")
    header = ["target", "method", "total_bits", "actual_error", "feasible", "iterations", "kernel_runs"]
    write_atomic(summary_path, csv_text(cfg, header, rows))
    print(summary_path)
    return EXIT_OK if all_feasible else EXIT_INFEASIBLE


def cmd_sweep(args) -> int:
    cfg = make_run_config(args)
    benches = benchmarks_of(cfg)
    outdir = ensure_outdir(cfg)
    sizes = parse_int_list(args.sizes, "sizes") if args.sizes else (100, 500, 1000, 2000)
    if list(sizes) != sorted(sizes):
        raise UsageError(f"sizes {sizes} must be ascending")
    if sizes[0] < 1:
        raise UsageError("sizes must be positive")
    hold_n = args.holdout
    if hold_n < 1:
        raise UsageError(f"holdout {hold_n} must be >= 1")

    tc = cfg.train_config()
    rows = []
    for bench in benches:
        # one master draw; prefixes are nested, the tail is the fixed
        # held-out set shared by every size
        master = run_dataset(replace(cfg, dataset_size=sizes[-1] + hold_n), RunLedger(run_input_set(cfg, bench)))
        holdout = replace(master, samples=master.samples[sizes[-1]:])
        for size in sizes:
            sub = replace(master, samples=master.samples[:size])
            metrics = eval_models(*fit_models(sub, tc), holdout)
            rows.append(
                [size, bench, repr(metrics["rmse"]), repr(metrics["accuracy"])]
            )
            print(f"{bench} size={size}: rmse={metrics['rmse']} accuracy={metrics['accuracy']:.4f}")

    path = os.path.join(outdir, "sweep_rmse.csv")
    write_atomic(path, csv_text(cfg, ["size", "benchmark", "rmse", "accuracy"], rows))
    print(path)
    return EXIT_OK


def cmd_transfer(args) -> int:
    cfg = make_run_config(args)
    benches = benchmarks_of(cfg)
    outdir = ensure_outdir(cfg)
    n_inputs = args.n_inputs
    if n_inputs < 2:
        raise UsageError(f"n_inputs {n_inputs} must be >= 2")

    smart_cfg = replace(cfg, mode="smart")
    base_cfg = replace(cfg, mode="baseline")
    rows = []
    for bench in benches:
        # one run ledger per input set: both methods tune on the first, and
        # a config is checked on each other one once, whichever found it
        first, *others = [RunLedger(run_input_set(cfg, bench, i)) for i in range(n_inputs)]
        dataset = run_dataset(cfg, first)
        models = fit_models(dataset, cfg.train_config())

        def violation_pct(result, target) -> float:
            # no config found means the target is violated everywhere
            if not result.feasible:
                return 100.0
            misses = sum(other.error(result.config) > target for other in others)
            return 100.0 * misses / len(others)

        for target in cfg.targets:
            smart, _ = _run_method(smart_cfg, first, target, dataset, models)
            base, _ = _run_method(base_cfg, first, target, None, None)
            pct_smart = violation_pct(smart, target)
            pct_base = violation_pct(base, target)
            rows.append(
                [bench, target_slug(target), repr(pct_smart), repr(pct_base)]
            )
            print(
                f"{bench} target={target_slug(target)}:"
                f" smart={pct_smart:.1f}% baseline={pct_base:.1f}%"
            )

    path = os.path.join(outdir, "transfer_violations.csv")
    header = ["benchmark", "target", "smart_violation_pct", "baseline_violation_pct"]
    write_atomic(path, csv_text(cfg, header, rows))
    print(path)
    return EXIT_OK


def cmd_snap_hw(args) -> int:
    cfg = make_run_config(args)
    formats = (
        parse_int_list(args.formats, "formats") if args.formats else DEFAULT_HW_FORMATS
    )
    formats = tuple(sorted(set(formats)))
    for f in formats:
        if not MANTISSA_MIN <= f <= MANTISSA_MAX:
            raise UsageError(f"format width {f} outside [{MANTISSA_MIN}, {MANTISSA_MAX}]")
    if not os.path.exists(args.result):
        raise UsageError(f"result file {args.result} does not exist")
    with open(args.result) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{args.result}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{args.result}: not a JSON object")
    for key in ("benchmark", "config", "target", "shape", "seed_input"):
        if key not in doc:
            raise UsageError(f"{args.result}: missing field {key!r}")
    target, shape = doc["target"], doc["shape"]
    # bools are ints to Python; JSON's true is no number
    for key, ok, kind in (
        ("benchmark", isinstance(doc["benchmark"], str), "a string"),
        ("target", type(target) in (int, float) and math.isfinite(target) and target > 0,
         "a finite positive number"),
        ("shape", isinstance(shape, dict) and all(type(n) is int for n in shape.values()),
         "an object of integers"),
        ("seed_input", type(doc["seed_input"]) is int, "an integer"),
    ):
        if not ok:
            raise UsageError(f"{args.result}: {key} {doc[key]!r} is not {kind}")
    config = doc["config"]
    if config is None:
        raise UsageError(f"{args.result}: result has no config to snap")
    if not isinstance(config, list) or not all(
        type(v) is int and MANTISSA_MIN <= v <= MANTISSA_MAX for v in config
    ):
        raise UsageError(
            f"{args.result}: config {config!r} is not a list of integer widths"
            f" in [{MANTISSA_MIN}, {MANTISSA_MAX}]"
        )

    def snap_up(width: int) -> int:
        for f in formats:
            if f >= width:
                return f
        return formats[-1]

    bench = doc["benchmark"]
    snapped = [snap_up(v) for v in config]
    input_set = gen_input_set(bench, shape, doc["seed_input"])
    err = RunLedger(input_set).error(tuple(snapped))
    target = float(target)
    feasible = err <= target

    outdir = ensure_outdir(cfg)
    stem = os.path.splitext(os.path.basename(args.result))[0]
    out_path = os.path.join(outdir, f"{stem}_snapped.json")
    write_json(
        out_path,
        {
            "benchmark": bench,
            "source_result": os.path.basename(args.result),
            "formats": list(formats),
            "config": config,
            "snapped_config": snapped,
            "total_bits": sum(config),
            "snapped_total_bits": sum(snapped),
            "target": target,
            "actual_error": err,
            "feasible": feasible,
            "shape": dict(sorted(input_set.shape.items())),
            "seed_input": doc["seed_input"],
        },
    )
    state = "ok" if feasible else "INFEASIBLE after snapping"
    print(f"{out_path}: {state}, bits {sum(config)} -> {sum(snapped)}")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_oracle(args) -> int:
    cfg = make_run_config(args)
    bench = single_benchmark(cfg)
    outdir = ensure_outdir(cfg)
    # every target's enumeration reads the configs the others ran
    ledger = RunLedger(run_input_set(cfg, bench))

    rows = []
    all_feasible = True
    for target in cfg.targets:
        try:
            config = brute_force_optimum(ledger, target, cfg.nbit_min, cfg.nbit_max)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if config is None:
            all_feasible = False
            rows.append([target_slug(target), "", "", "false"])
            print(f"{bench} target={target_slug(target)}: no feasible config")
            continue
        rows.append(
            [
                target_slug(target),
                sum(config),
                " ".join(str(v) for v in config),
                repr(ledger.errors[config]),
            ]
        )
        print(f"{bench} target={target_slug(target)}: bits={sum(config)} config={config}")

    path = os.path.join(outdir, f"{bench}_oracle.csv")
    write_atomic(
        path, csv_text(cfg, ["target", "total_bits", "config", "actual_error"], rows)
    )
    print(path)
    return EXIT_OK if all_feasible else EXIT_INFEASIBLE


# --- parser ---------------------------------------------------------------------


def add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        if f.name in SCALAR_SETTINGS:
            sub.add_argument(
                "--" + f.name.replace("_", "-"),
                type=SCALAR_SETTINGS[f.name],
                help=f.metadata.get("help"),
                choices=f.metadata.get("choices"),
            )
        else:
            sub.add_argument("--" + f.metadata["key"], action="append", help=f.metadata["help"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prectune",
        description="per-variable floating-point precision tuning toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dataset", help="sample a width/error dataset and save it")
    add_common_flags(p)
    p.set_defaults(func=cmd_dataset)

    p = subs.add_parser("train", help="train and save the error models")
    add_common_flags(p)
    p.add_argument("--dataset", help="load this dataset instead of building one")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("tune", help="find minimal widths for each error target")
    add_common_flags(p)
    p.add_argument("--dataset", help="load this dataset instead of building one")
    p.set_defaults(func=cmd_tune)

    p = subs.add_parser("sweep", help="dataset-size sweep with a fixed held-out set")
    add_common_flags(p)
    p.add_argument("--sizes", help="comma list of training sizes, ascending")
    p.add_argument("--holdout", type=int, default=500, help="held-out sample count")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("transfer", help="tune on one input set, validate on others")
    add_common_flags(p)
    p.add_argument("--n-inputs", dest="n_inputs", type=int, default=30)
    p.set_defaults(func=cmd_transfer)

    p = subs.add_parser("snap-hw", help="snap a tuned config up to hardware widths")
    add_common_flags(p)
    p.add_argument("--result", required=True, help="per-target result JSON from tune")
    p.add_argument("--formats", help="comma list of hardware mantissa widths")
    p.set_defaults(func=cmd_snap_hw)

    p = subs.add_parser("oracle", help="brute-force optimum over a small width box")
    add_common_flags(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
