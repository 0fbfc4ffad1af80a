"""``irfkit.exact`` against the loops it stands for, compared by ``float.hex``:
its three functions are the one place the exact float rules are written."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irfkit.exact import each, log_each, ordered_sum

# every float64: -0.0, subnormals, +-inf and nan among them
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def loop_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


@given(st.lists(FLOATS, max_size=40))
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([-0.0, 5e-324, -5e-324])
@example([math.inf, -math.inf])
@example([1.7e308, 1.7e308, -1.7e308])
@example([1e16, 1.0, -1e16, 0.1, 0.2])  # a compensated sum, sum() from Python 3.12, gives 1.3
@settings(max_examples=500, deadline=None)
def test_ordered_sum_is_the_loop_from_zero(values):
    want = loop_sum(values).hex()
    assert ordered_sum(values).hex() == want
    assert ordered_sum(value for value in values).hex() == want
    with np.errstate(all="ignore"):  # the accumulate path reports overflow and inf - inf to numpy
        got = ordered_sum(np.array(values, dtype=np.float64))
    assert type(got) is float
    assert got.hex() == want


@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_subnormal=True) | st.just(math.nan), max_size=40))
@example([5e-324, 1.0, math.inf, math.nan])
@settings(max_examples=300, deadline=None)
def test_log_each_is_math_log_of_each_value(values):
    got = log_each(np.array(values, dtype=np.float64))
    assert got.dtype == np.float64
    assert [log.hex() for log in got.tolist()] == [math.log(value).hex() for value in values]


# a table when the largest key is at most 2 * size + 1024, else a sort
KEYS = st.lists(st.integers(0, 300), max_size=60) | st.lists(st.integers(0, 2**40), min_size=1, max_size=60)


@given(KEYS)
@example([])
@example([0, 0, 3, 3, 1, 0])
@example([5000, 2, 5000, 7])
@settings(max_examples=300, deadline=None)
def test_each_is_the_function_of_each_key_once_per_distinct_key(keys):
    def weight(key):
        return math.log(key + 2.5) / 3.0

    calls = []
    got = each(np.array(keys, dtype=np.int64), lambda key: calls.append(key) or weight(key))
    assert [value.hex() for value in got.tolist()] == [weight(key).hex() for key in keys]
    assert calls == sorted(set(keys))
