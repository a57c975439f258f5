"""The benchmark's workloads: which `prectune tune` invocations make a round.

Every invocation uses the default width box [1, 52], a 1000-sample dataset
and a verify budget of 100.  One operation is one (kernel, mode, target)
result.  Why each workload exists, and what was left out and why, is in
README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DATASET_SIZE = 1000
BUDGET = 100
NBIT_MIN = 1
NBIT_MAX = 52
# The workload seed draws the kernel inputs only.  The sampling and training
# seeds are the tuner's own randomness, held at the program's default: varying
# them swings the number of verify-retrain rounds, and with it the run time,
# by up to 25x between seeds (README.md, "Seeds").
TUNER_SEED = 0
# an invocation's inputs come from seed_input = seed + input * INPUT_STRIDE,
# so input 0 is drawn from the workload seed itself
INPUT_STRIDE = 1_000_000


@dataclass(frozen=True)
class Invocation:
    kernel: str
    mode: str
    targets: tuple[float, ...]
    shape: dict = field(default_factory=dict)
    input: int = 0

    def input_seed(self, seed: int) -> int:
        return seed + self.input * INPUT_STRIDE

    def argv(self, seed: int, out: str, dataset_size: int = DATASET_SIZE) -> list[str]:
        args = [
            "tune",
            "--benchmark", self.kernel,
            "--mode", self.mode,
            "--target", ",".join(repr(t) for t in self.targets),
            "--nbit-min", str(NBIT_MIN),
            "--nbit-max", str(NBIT_MAX),
            "--dataset-size", str(dataset_size),
            "--budget", str(BUDGET),
            "--seed-input", str(self.input_seed(seed)),
            "--seed-sample", str(TUNER_SEED),
            "--seed-train", str(TUNER_SEED),
            "--out", out,
        ]
        for key, value in sorted(self.shape.items()):
            args += ["--shape", f"{key}={value}"]
        return args


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # fwt at 1e-12 is left out: on some inputs (input seed 22) the models
    # promise no config and the result is infeasible (README.md, "Kept out").
    # Three input sets per round: the verify-retrain rounds, and with them
    # the regressor fits that make most of the time, vary from input to input
    "small-ladder": tuple(
        inv
        for k in range(3)
        for inv in (
            Invocation("fwt", "smart_plus", (1e-1, 1e-3, 1e-5, 1e-7, 1e-10), input=k),
            Invocation("saxpy", "smart_plus", (1e-1, 1e-3, 1e-5, 1e-7, 1e-10, 1e-12), input=k),
        )
    ),
    # default shapes cost 15-30 ms a run, which would make a round of this
    # workload take over a minute; these cost about 10 ms and keep its character
    "dataset-heavy": (
        Invocation("convolution", "smart_plus", (1e-5, 1e-10), {"rows": 32, "cols": 32}),
        Invocation("correlation", "smart_plus", (1e-5, 1e-10), {"points": 64}),
    ),
    "baseline-descent": tuple(
        Invocation(kernel, "baseline", (1e-1, 1e-3, 1e-5, 1e-7, 1e-10, 1e-15))
        for kernel in ("convolution", "correlation", "jacobi", "bscholes")
    ),
}
