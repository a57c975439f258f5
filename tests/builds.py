"""Datasets for the tests, measured the way the program measures them."""

from prectune.dataset import build_dataset
from prectune.kernels import gen_input_set
from prectune.solve import RunLedger


def fresh_dataset(benchmark, n_samples=1000, shape=None, seed_input=0, **kwargs):
    """build_dataset on a new ledger of the input set shape and seed_input
    make; kwargs are build_dataset's."""
    return build_dataset(RunLedger(gen_input_set(benchmark, shape, seed_input)), n_samples, **kwargs)
