"""Residual aggregation: worst point and mean, as the Python reference
finds them; the JSON writer against json.dumps; the table's columns."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundled
from newcart.cli import main
from newcart.connection import connection_from_exprs
from newcart.report import CheckEntry, CheckReport, make_entry
from newcart.scenario import bundled_scenario_path
from newcart.verify import run_all

BUNDLED = ("flat", "grav", "rot", "twist", "curvedh", "bad_observer", "bad_frame",
           "zero_connection_curvedh")

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


def test_residuals_pair_with_points_by_broadcasting():
    stack = np.array(_points(3))
    residuals = np.zeros((2, 3))  # [field, point]
    residuals[1, 2] = 5.0
    flat = make_entry("e", 1.0, residuals.ravel(), np.tile(stack, (2, 1)))
    for given_as, points in ((residuals, stack), (residuals.T, stack[:, None])):
        entry = make_entry("e", 1.0, given_as, points)
        assert entry == flat and entry.worst_point == (2.0, -2.0)


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


def _oracle(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _bundled_report(name, expect_torsion_free):
    scn = bundled(name)
    conn = (connection_from_exprs(scn.structure, scn.observer, scn.christoffel)
            if scn.has_user_connection else None)
    return run_all(scn.structure, scn.observer, data=scn.data, connection=conn,
                   scenario_name=scn.name, expect_torsion_free=expect_torsion_free)


@pytest.mark.parametrize("torsion_free", [False, True], ids=["plain", "torsion-free"])
@pytest.mark.parametrize("name", BUNDLED)
def test_json_of_bundled_reports_equals_json_dumps(name, torsion_free):
    report = _bundled_report(name, torsion_free)
    assert report.to_json() == _oracle(report)


ODD_NAMES = ('say "max"', "two\nlines", "\u2207\u03c9 \u00e9t\u00e9", "\U0001d714 \\ \t end", "")


@pytest.mark.parametrize("report", [
    CheckReport("empty", 0),
    CheckReport("no fields", 3, [make_entry("e", 1e-9, [0.5, 2.0], [(0.0, 1.0), (2.0, 3.0)])]),
    CheckReport("no entries", 3, [], (("1.0 + 2.0*x", "y"), ("0.5",))),
    CheckReport("empty field", 3, [], ((), ("x",))),
    CheckReport("none", 7, [CheckEntry("e", 0.0, 0.0, 1e-9, True, None)]),
    CheckReport("non-finite", -2, [
        CheckEntry("nan", NAN, NAN, 1e-9, False, (NAN, 0.0)),
        CheckEntry("inf", INF, -INF, 1e-9, False, (INF, -INF, -0.0)),
        CheckEntry("tiny", 5e-324, 1.7976931348623157e308, 1e-300, True, (1e-17, -2.5e21))]),
    CheckReport("ints", 2 ** 70, [CheckEntry("e", 1, 0, 2, True, (1, -3))], (("1",),)),
    *(CheckReport(name, 1, [CheckEntry(name, 0.25, 0.125, 1e-6, True, (0.5,))],
                  ((name, "x"),)) for name in ODD_NAMES),
], ids=lambda report: repr(report.scenario))
def test_json_of_constructed_reports_equals_json_dumps(report):
    assert report.to_json() == _oracle(report)


_number = st.one_of(st.floats(), st.integers(-10 ** 20, 10 ** 20))


@settings(max_examples=200, deadline=None)
@given(st.builds(CheckReport, st.text(), st.integers(), st.lists(st.builds(
    CheckEntry, st.text(), _number, _number, _number, st.booleans(),
    st.one_of(st.none(), st.lists(_number, max_size=4).map(tuple)))),
    st.lists(st.lists(st.text(), max_size=3).map(tuple), max_size=3).map(tuple)))
def test_json_of_random_reports_equals_json_dumps(report):
    assert report.to_json() == _oracle(report)


def _assert_columns_align(table, names):
    header, rows = table.splitlines()[1], table.splitlines()[2:-1]
    start = header.index("max") + len("max") - 12  # the right-aligned max field
    assert header[:start].rstrip() == "check"
    assert len(rows) == len(names)
    for row, name in zip(rows, names):
        assert row[:start].rstrip() == name and row[start - 2:start] == "  "
        float(row[start:start + 12])  # the max column fills the header's field
        assert row[start + 12:start + 14] == "  "


def test_table_columns_align_with_the_longest_name(capsys):
    assert main(["check", str(bundled_scenario_path("flat")), "--expect-torsion-free"]) == 0
    table = capsys.readouterr().out
    names = [e.name for e in _bundled_report("flat", True).entries]
    assert max(map(len, names)) > 44
    _assert_columns_align(table, names)


def test_table_of_short_names_pads_to_44():
    report = _bundled_report("flat", False)
    table = report.render_table()
    _assert_columns_align(table, [e.name for e in report.entries])
    assert table.splitlines()[1].index("max") == 44 + 2 + 9
