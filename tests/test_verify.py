"""Check harness: residual entries, negative fixtures, determinism."""

import dataclasses

import pytest

from conftest import (NAMES2, NAMES3, exprs, flat_observer, flat_structure,
                      curvedh_structure, gravity_data, m4_data, m4_observer,
                      m4_structure, mixed_data, mixed_observer,
                      mixed_structure, rot_observer, rot_structure,
                      twist_structure)
import newcart.expr as expr_mod
from newcart.connection import (ConnectionData, build_connection,
                                connection_from_exprs)
from newcart.expr import Const, ZERO, mul, apply, parse_expr
from newcart.geometry import ObserverField
from newcart.verify import (check_compatibility_metric,
                            check_compatibility_omega, check_roundtrip,
                            check_torsion_clock, fd_validate, run_all,
                            torsion_free_feasibility)


def twist_observer():
    return ObserverField(exprs(NAMES3, "1", "0", "0"))


def _zero_table(m):
    return tuple(tuple(tuple(ZERO for _ in range(m)) for _ in range(m))
                 for _ in range(m))


def _table_with(m, entries):
    table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for (k, i, j), e in entries.items():
        table[k][i][j] = e
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def test_omega_check_passes_on_built_connections():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    entry = check_compatibility_omega(C, S, z)
    assert entry.passed and entry.max_residual <= 1e-12

    S, z = rot_structure(), rot_observer()
    C = build_connection(S, z, ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {}))
    assert check_compatibility_omega(C, S, z).passed


def test_omega_check_fails_on_bad_user_connection():
    S, z = flat_structure(), flat_observer()
    C = connection_from_exprs(S, z, _table_with(2, {(0, 0, 0): Const(1.0)}))
    entry = check_compatibility_omega(C, S, z)
    assert not entry.passed
    # the coordinate pair (d_t, d_t) contributes residual exactly 1; the
    # random polynomial fields can only push the maximum higher
    assert entry.max_residual >= 1.0 - 1e-12
    assert entry.worst_point is not None


def test_metric_check_passes_on_built_connections():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    entry = check_compatibility_metric(C, S, z)
    assert entry.passed and entry.max_residual <= 1e-12
    C = build_connection(S, z, gravity_data(-9.8))
    assert check_compatibility_metric(C, S, z).passed


def test_metric_check_fails_for_zero_connection_on_varying_metric():
    S, z = curvedh_structure(), flat_observer()
    C = connection_from_exprs(S, z, _zero_table(2))
    entry = check_compatibility_metric(C, S, z)
    assert not entry.passed
    # lhs is d(h11)/dx = x/5 while both covariant terms vanish
    worst_x = entry.worst_point[1]
    assert entry.max_residual == pytest.approx(abs(worst_x) / 5.0, rel=1e-9)


def test_theorem1_check():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    assert check_torsion_clock(C, S).passed

    S, z = twist_structure(), twist_observer()
    for data in (ConnectionData.zero(2),
                 ConnectionData((Const(0.3), ZERO), {(0, 1): Const(0.4)},
                                {(0, 1, 2): Const(0.2)})):
        C = build_connection(S, z, data)
        assert check_torsion_clock(C, S).passed

    # a symmetric (zero) coefficient table cannot reproduce dO = dx^dy
    C = connection_from_exprs(S, z, _zero_table(3))
    entry = check_torsion_clock(C, S)
    assert not entry.passed
    assert entry.max_residual == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_check():
    S, z = flat_structure(), flat_observer()
    entry = check_roundtrip(S, z, ConnectionData.zero(1))
    assert entry.passed and entry.max_residual == 0.0

    entry = check_roundtrip(S, z, gravity_data(-9.8))
    assert entry.passed

    S, z = rot_structure(), rot_observer()
    D = ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {(0, 1, 2): Const(0.3)})
    assert check_roundtrip(S, z, D).passed


def test_fd_validate_polynomial_scenarios_are_tight():
    S, z = curvedh_structure(), flat_observer()
    entry = fd_validate(S, z, ConnectionData.zero(1))
    assert entry.passed
    assert entry.max_residual <= 1e-8


def test_fd_validate_transcendental_scenario():
    S = flat_structure()
    z = ObserverField(exprs(NAMES2, "1", "0.2*sin(x) + 0.1*exp(x/2)"))
    D = ConnectionData((parse_expr("cos(x)/4", NAMES2),), {}, {})
    entry = fd_validate(S, z, D)
    assert entry.passed


def test_fd_validate_catches_corrupted_rule(monkeypatch):
    S = flat_structure()
    z = ObserverField(exprs(NAMES2, "1", "0.2*sin(x)"))
    monkeypatch.setitem(expr_mod.FUNCTION_DERIVATIVES, "sin",
                        lambda u, du: mul(apply("sin", u), du))
    entry = fd_validate(S, z, ConnectionData.zero(1))
    assert not entry.passed


@pytest.mark.parametrize("S,z,D", [
    (curvedh_structure(), flat_observer(), ConnectionData.zero(1)),
    (m4_structure(), m4_observer(), m4_data()),
])
def test_fd_validate_catches_corrupted_spatial_tensor_derivative(monkeypatch, S, z, D):
    # with an empty catalog only the numeric g against d_k g is checked
    kit = build_connection(S, z, D)._kit
    assert fd_validate(S, z, D, kit=kit, catalog=[]).passed
    n = S.n
    monkeypatch.setattr(kit, "dh", [[[ZERO] * n for _ in range(n)] for _ in range(S.dim)])
    assert not fd_validate(S, z, D, kit=kit, catalog=[]).passed


def test_run_all_passes_on_healthy_scenarios():
    cases = [
        (flat_structure(), flat_observer(), ConnectionData.zero(1)),
        (curvedh_structure(), flat_observer(), ConnectionData.zero(1)),
        (mixed_structure(), mixed_observer(), mixed_data()),
        (m4_structure(), m4_observer(), m4_data()),
    ]
    for S, z, D in cases:
        report = run_all(S, z, data=D, scenario_name="case")
        assert report.passed, [e.name for e in report.entries if not e.passed]


def test_run_all_structure_failure_short_circuits():
    S = flat_structure()
    bad = ObserverField(exprs(NAMES2, "2", "0"))
    report = run_all(S, bad, data=ConnectionData.zero(1))
    assert not report.passed
    assert report.first_failure().name == "observer normalization"
    names = [e.name for e in report.entries]
    assert "clock compatibility" not in names  # connection checks skipped


def test_run_all_user_connection_mode():
    S, z = curvedh_structure(), flat_observer()
    C = connection_from_exprs(S, z, _zero_table(2))
    report = run_all(S, z, connection=C)
    failed = [e.name for e in report.entries if not e.passed]
    assert failed == ["metric compatibility"]
    assert not any(e.name == "observable round trip" for e in report.entries)


def test_torsion_free_feasibility_entry():
    S, z = twist_structure(), twist_observer()
    report = run_all(S, z, data=ConnectionData.zero(2), expect_torsion_free=True)
    entry = report.entries[-1]
    assert entry.name.startswith("torsion-free feasibility")
    assert not entry.passed
    assert entry.max_residual == pytest.approx(1.0, abs=1e-12)

    assert torsion_free_feasibility(flat_structure()).passed


def test_reports_are_deterministic():
    S, z, D = mixed_structure(), mixed_observer(), mixed_data()
    a = run_all(S, z, data=D, scenario_name="mixed").to_json()
    b = run_all(S, z, data=D, scenario_name="mixed").to_json()
    assert a == b


def test_report_records_check_fields():
    S, z = flat_structure(), flat_observer()
    report = run_all(S, z, data=ConnectionData.zero(1))
    assert len(report.check_fields) == 5
    assert all(len(f) == 2 for f in report.check_fields)
    payload = report.to_dict()
    assert payload["check_fields"]


def test_failing_entries_stay_failing_with_more_samples():
    S = dataclasses.replace(twist_structure(), sample_count=20, rng_seed=17)
    bad_frame = dataclasses.replace(
        S, frame=(exprs(NAMES3, "0", "1", "0"), exprs(NAMES3, "0", "0", "1")))
    z = twist_observer()
    small = run_all(bad_frame, z, data=ConnectionData.zero(2))
    grown = run_all(dataclasses.replace(bad_frame, sample_count=40), z,
                    data=ConnectionData.zero(2))
    name = "frame annihilated by clock form"
    small_entry = {e.name: e for e in small.entries}[name]
    grown_entry = {e.name: e for e in grown.entries}[name]
    assert not small_entry.passed
    assert not grown_entry.passed
    assert grown_entry.max_residual >= small_entry.max_residual


def test_entry_invariants():
    S, z = mixed_structure(), mixed_observer()
    report = run_all(S, z, data=mixed_data())
    for e in report.entries:
        assert e.max_residual >= e.mean_residual >= 0.0
        assert e.passed == (e.max_residual <= e.tolerance)
