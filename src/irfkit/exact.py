"""The float rules that keep outputs byte-identical across Python versions
and CPUs: a sum adds left to right from 0.0 (``sum()`` compensates rounding
from Python 3.12 on, and ``np.sum`` adds pairwise), and a log is ``math.log``
(``np.log``'s SIMD kernels round some inputs differently, by CPU)."""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np


def ordered_sum(values: Iterable[float] | np.ndarray) -> float:
    """Float sum in iteration order from 0.0.  A float64 array is summed by
    ``np.add.accumulate``, left to right, to the same bits: the two can differ
    only in the sign of a zero partial sum, which adding the total to 0.0
    removes.  Unlike the loop, that path reports overflow and inf - inf to numpy."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return 0.0 + np.add.accumulate(values)[-1].item() if values.size else 0.0
    total = 0.0
    for value in values:
        total += value
    return total


def log_each(values: np.ndarray) -> np.ndarray:
    """``math.log`` of every element of a 1-d array, as float64."""
    return np.fromiter(map(math.log, values.tolist()), np.float64, values.size)


def each(keys: np.ndarray, function: Callable[[int], float]) -> np.ndarray:
    """function(k) of every key, one call per distinct key.  The keys are
    non-negative integers: small ones index a table, and a sort finds the
    distinct ones when a table would be large."""
    keys = keys.astype(np.int64, copy=False)
    if keys.size and keys.max() > 2 * keys.size + 1024:
        distinct, where = np.unique(keys, return_inverse=True)
        return np.array([function(k) for k in distinct.tolist()])[where]
    present = np.bincount(keys)
    table = np.zeros(present.size)
    distinct = np.flatnonzero(present)
    table[distinct] = [function(k) for k in distinct.tolist()]
    return table[keys]
