"""Deterministic seed derivation for reproducible (and parallel) experiments."""

import operator

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round over a 64-bit state."""
    x = (x + _GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Fold trial/stream indices into a master seed.

    Splitting rule: the master seed is scrambled once, then each index is
    xor-folded and scrambled again.  Distinct index tuples give independent
    streams, so trials can run in parallel and still reproduce exactly.
    Numpy integers count as their Python value; the result is a Python int.
    """
    s = splitmix64(operator.index(master) & _MASK)
    for idx in indices:
        s = splitmix64(s ^ (operator.index(idx) & _MASK))
    return s
