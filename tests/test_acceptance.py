"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json

import numpy as np

from conftest import NAMES2, bundled as _load, exprs, flat_structure
import newcart.expr as expr_mod
from newcart.cli import main
from newcart.connection import ConnectionData, build_connection
from newcart.dynamics import integrate_geodesic
from newcart.expr import Const, apply, mul
from newcart.geometry import ObserverField
from newcart.scenario import bundled_scenario_path
from newcart.verify import (check_compatibility_metric,
                            check_compatibility_omega, check_field_coeffs,
                            check_torsion_clock, check_roundtrip, fd_validate, run_all)
from reference import omega_apply, torsion_at

SCENARIOS = ("flat", "grav", "rot", "twist", "curvedh")


def _report(num, label, ok):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_flat_space_nullity():
    scn = _load("flat")
    S, z = scn.structure, scn.observer
    C = build_connection(S, z, scn.data)
    points = S.sample_points()
    assert len(points) == 100
    worst = max(float(np.max(np.abs(C.christoffel(p)))) for p in points)
    report = run_all(S, z, data=scn.data, scenario_name="flat")
    ok = worst <= 1e-12 and report.passed
    assert _report(1, "flat-space nullity", ok), (worst, report.passed)


def test_criterion_2_axiom_suite():
    failures = []
    for name in SCENARIOS:
        scn = _load(name)
        S, z = scn.structure, scn.observer
        state = build_connection(S, z, scn.data).state()
        for entry in (check_compatibility_omega(state, check_field_coeffs(S)),
                      check_compatibility_metric(state), check_torsion_clock(state)):
            if not entry.passed:
                failures.append((name, entry.name, entry.max_residual))
    assert _report(2, "axiom suite on bundled scenarios", not failures), failures


def test_criterion_3_roundtrip_and_injectivity():
    failures = []
    saw_nonzero_theta = False
    for name in SCENARIOS:
        scn = _load(name)
        if scn.data.theta:
            saw_nonzero_theta = True
        entry = check_roundtrip(
            build_connection(scn.structure, scn.observer, scn.data).state())
        if not entry.passed:
            failures.append((name, entry.max_residual))
    ok = not failures and saw_nonzero_theta

    # injectivity witness: shifting one gravity slot by 1 shifts exactly the
    # matching coefficient by 1 at every sample point
    scn = _load("rot")
    S, z = scn.structure, scn.observer
    base = scn.data
    shifted = ConnectionData(
        gravity=(base.gravity[0], base.gravity[1] + Const(1.0)),
        coriolis=dict(base.coriolis), theta=dict(base.theta))
    C1 = build_connection(S, z, base)
    C2 = build_connection(S, z, shifted)
    for p in S.sample_points():
        delta = C2.christoffel(p) - C1.christoffel(p)
        if abs(delta[2, 0, 0] - 1.0) > 1e-9:
            ok = False
        rest = delta.copy()
        rest[2, 0, 0] = 0.0
        if np.max(np.abs(rest)) > 1e-9:
            ok = False
    assert _report(3, "observable round trip + injectivity witness", ok), failures


def test_criterion_4_no_torsion_free_connection_on_twist():
    scn = _load("twist")
    S, z = scn.structure, scn.observer
    dx = tuple(Const(1.0 if k == 1 else 0.0) for k in range(3))
    dy = tuple(Const(1.0 if k == 2 else 0.0) for k in range(3))
    rng = np.random.Generator(np.random.PCG64(20250811))
    points = S.sample_points()[:10]
    ok = True
    for _ in range(10):
        data = ConnectionData(
            gravity=(Const(float(rng.uniform(-1, 1))), Const(float(rng.uniform(-1, 1)))),
            coriolis={(0, 1): Const(float(rng.uniform(-1, 1)))},
            theta={(a, i, j): Const(float(rng.uniform(-1, 1)))
                   for a in range(2) for (i, j) in ((0, 1), (0, 2), (1, 2))})
        C = build_connection(S, z, data)
        for p in points:
            tor = torsion_at(C, dx, dy, p)
            if abs(abs(omega_apply(S, tor, p)) - 1.0) > 1e-9:
                ok = False
    assert _report(4, "clock torsion forced on non-closed clock form", ok)


def test_criterion_5_free_fall_oracle():
    scn = _load("grav")
    C = build_connection(scn.structure, scn.observer, scn.data)
    traj = integrate_geodesic(C, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                              0.0, 1.0, 1e-3)
    err = abs(traj.final.position[1] - (-4.9))
    ok = traj.termination == "completed" and err <= 1e-6
    assert _report(5, "free-fall endpoint matches the closed form", ok), err


def test_criterion_5_rk4_halving_ratio():
    # Stated as: halving the step reduces the endpoint error by >= 12x on
    # the uniform-gravity scenario.  The coefficients there are constant,
    # the exact solution is quadratic in the parameter, and a fourth-order
    # scheme reproduces it exactly, so both endpoint errors are pure
    # rounding noise and their ratio carries no convergence information.
    # Kept as stated; see the meaningful order checks in test_dynamics.
    scn = _load("grav")
    C = build_connection(scn.structure, scn.observer, scn.data)

    def endpoint_error(dt):
        traj = integrate_geodesic(C, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                  0.0, 1.0, dt)
        return abs(traj.final.position[1] - (-4.9))

    coarse = endpoint_error(1e-3)
    fine = endpoint_error(5e-4)
    ratio = coarse / fine if fine else float("inf")
    ok = ratio >= 12.0
    _report(5, f"RK4 halving ratio (criterion clause; measured {ratio:.2f}x "
               f"on errors {coarse:.2e} / {fine:.2e})", ok)
    assert ok, (
        "halving the step cannot reduce the endpoint error 12x here: the "
        "uniform-gravity geodesic has a quadratic closed form which RK4 "
        f"integrates exactly, leaving rounding noise ({coarse:.2e} vs "
        f"{fine:.2e}, ratio {ratio:.2f}); see notes in the repository "
        "decision log")


def test_criterion_6_derivative_validation():
    ok = True
    for name in SCENARIOS:
        scn = _load(name)
        C = build_connection(scn.structure, scn.observer, scn.data)
        if not fd_validate(C, C.state()).passed:
            ok = False

    # mutated-rule fixture: a corrupted sine rule must be caught
    S = flat_structure(30, 23, box=((0.0, 1.0), (-1.0, 1.0)))
    z = ObserverField(exprs(NAMES2, "1", "0.2*sin(x)"))
    good_rule = expr_mod.FUNCTION_DERIVATIVES["sin"]
    try:
        expr_mod.FUNCTION_DERIVATIVES["sin"] = lambda u, du: mul(apply("sin", u), du)
        C = build_connection(S, z, ConnectionData.zero(1))
        mutated = fd_validate(C, C.state())
    finally:
        expr_mod.FUNCTION_DERIVATIVES["sin"] = good_rule
    ok = ok and not mutated.passed
    assert _report(6, "finite-difference derivative validation", ok)


def test_criterion_7_deterministic_reports(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["check", str(bundled_scenario_path("twist")), "--json", str(first)]) == 0
    assert main(["check", str(bundled_scenario_path("twist")), "--json", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    assert _report(7, "byte-identical reports", ok)


def test_criterion_8_negative_fixtures(tmp_path):
    expected = {
        "bad_observer": "observer normalization",
        "bad_frame": "frame annihilated by clock form",
        "zero_connection_curvedh": "metric compatibility",
    }
    ok = True
    for name, designated in expected.items():
        out = tmp_path / f"{name}.json"
        code = main(["check", str(bundled_scenario_path(name)), "--json", str(out)])
        payload = json.loads(out.read_text())
        failed = [e["name"] for e in payload["entries"] if not e["pass"]]
        if code != 1 or failed != [designated]:
            ok = False
    assert _report(8, "corrupted fixtures fail at the designated entry", ok)
