"""Seed derivation: one rule for Python and numpy integer seeds."""

import warnings

import numpy as np
import pytest

from v2vaoi.seeds import derive_seed


@pytest.mark.parametrize(
    "kind, value",
    [(np.int64, 0), (np.int64, 5), (np.int64, 2**63 - 1),
     (np.uint64, 0), (np.uint64, 5), (np.uint64, 2**64 - 1)],
)
def test_numpy_integer_seeds_match_plain_ints(kind, value):
    # ScenarioSpec and GeneticConfig accept numpy integers, so their seeds
    # must derive exactly as the Python value does, without numpy's
    # fixed-width overflow
    want = derive_seed(value, 0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        master = derive_seed(kind(value), 0, 3)
        index = derive_seed(7, kind(value))
    assert type(master) is int and master == want
    assert type(index) is int and index == derive_seed(7, value)


def test_non_integer_seeds_rejected():
    for bad in (1.0, np.float64(2.0), "3"):
        with pytest.raises(TypeError):
            derive_seed(bad)
        with pytest.raises(TypeError):
            derive_seed(1, bad)
