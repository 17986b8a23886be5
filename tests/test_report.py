"""Residual aggregation: worst point and mean, as the Python reference finds them."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from newcart.report import make_entry

NAN, INF = float("nan"), float("inf")


def _reference(residuals):
    """The first NaN, or else the first maximum under Python's max, and the
    in-order sum over the count."""
    nans = [k for k, r in enumerate(residuals) if math.isnan(r)]
    worst = nans[0] if nans else max(range(len(residuals)), key=lambda k: residuals[k])
    total = 0.0
    for r in residuals:
        total += r
    return worst, residuals[worst], total / len(residuals)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _points(count):
    return [(float(k), -float(k)) for k in range(count)]


def test_ties_give_the_first_maximum():
    entry = make_entry("e", 1.0, [0.5, 2.0, 1.0, 2.0], _points(4))
    assert entry.worst_point == (1.0, -1.0) and entry.max_residual == 2.0
    assert not entry.passed


def test_nan_first_wins_and_fails():
    entry = make_entry("e", 1.0, [NAN, 3.0, 0.5], _points(3))
    assert math.isnan(entry.max_residual) and math.isnan(entry.mean_residual)
    assert entry.worst_point == (0.0, -0.0) and not entry.passed


def test_later_nan_is_the_worst_and_fails():
    entry = make_entry("e", 5.0, [0.5, NAN, 3.0, NAN], _points(4))
    assert math.isnan(entry.max_residual) and entry.worst_point == (1.0, -1.0)
    assert math.isnan(entry.mean_residual) and not entry.passed


def test_inf_is_the_maximum():
    entry = make_entry("e", 1.0, [0.5, INF, 3.0, INF], _points(4))
    assert entry.max_residual == INF and entry.mean_residual == INF
    assert entry.worst_point == (1.0, -1.0) and not entry.passed


def test_mean_sums_in_order():
    # in order, each 1e-16 is lost against 1.0; a pairwise or blocked sum keeps them
    residuals = [1.0] + [1e-16] * 40
    assert make_entry("e", 1.0, residuals, _points(41)).mean_residual == 1.0 / 41


def test_empty_residuals_pass():
    entry = make_entry("e", 1.0, [], [])
    assert (entry.max_residual, entry.mean_residual, entry.worst_point) == (0.0, 0.0, None)
    assert entry.passed


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, allow_infinity=True), st.just(NAN),
                          st.sampled_from([0.0, 1e-16, 1.0])), min_size=1, max_size=60))
def test_matches_python_reference_bitwise(residuals):
    worst, max_res, mean = _reference(residuals)
    for given_as in (residuals, np.array(residuals)):
        entry = make_entry("e", 1e-9, given_as, _points(len(residuals)))
        assert entry.worst_point == _points(len(residuals))[worst]
        assert _same(entry.max_residual, max_res) and _same(entry.mean_residual, mean)
        assert entry.passed == (max_res <= 1e-9)
