"""Integrators: free-fall oracles, flows, order behavior, terminations."""

import dataclasses
import io

import numpy as np
import pytest

from conftest import (NAMES2, exprs, flat_observer, flat_structure, curvedh_structure,
                      gravity_data, mixed_observer, rot_observer, rot_structure,
                      synthetic_case, twist_observer, twist_structure)
import newcart.connection as connection_mod
from newcart import dynamics
from newcart.connection import (ConnectionData, build_connection,
                                connection_from_exprs)
from newcart.dynamics import (COMPLETED, EVALUATION_FAILURE, LEFT_DOMAIN,
                              NUMERIC_FAILURE, integrate_geodesic,
                              integrate_observer_flow, trajectory_csv)
from newcart.errors import DomainError, NewcartError
from newcart.expr import Const, Program, ZERO, parse_expr
from newcart.expr import compile as compile_exprs
from newcart.geometry import ObserverField
from reference import (christoffel_accel, frame_decompose, metric_matrix, omega_apply,
                       pairwise_rk4, project_spatial)


def test_flat_geodesic_is_straight():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    traj = integrate_geodesic(C, np.array([0.0, 0.0]), np.array([1.0, 0.5]),
                              0.0, 1.0, 1e-3)
    assert traj.termination == COMPLETED
    assert np.max(np.abs(traj.final.position - [1.0, 0.5])) <= 1e-12
    assert np.max(np.abs(traj.final.velocity - [1.0, 0.5])) <= 1e-12


def test_gravity_parabola_both_sign_conventions():
    S, z = flat_structure(box=((-0.5, 1.5), (-6.0, 6.0))), flat_observer()
    # observer acceleration +9.8 -> free fall drifts to -4.9
    C = build_connection(S, z, gravity_data(9.8))
    traj = integrate_geodesic(C, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                              0.0, 1.0, 1e-3)
    assert abs(traj.final.position[1] - (-4.9)) <= 1e-6
    # observer acceleration -9.8 -> free fall drifts to +4.9
    C2 = build_connection(S, z, gravity_data(-9.8))
    traj2 = integrate_geodesic(C2, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                               0.0, 1.0, 1e-3)
    assert abs(traj2.final.position[1] - 4.9) <= 1e-6


def test_gravity_reversibility():
    S, z = flat_structure(box=((-0.5, 1.5), (-6.0, 1.0))), flat_observer()
    C = build_connection(S, z, gravity_data(9.8))
    fwd = integrate_geodesic(C, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                             0.0, 1.0, 1e-3)
    assert fwd.termination == COMPLETED
    back = integrate_geodesic(C, fwd.final.position, -fwd.final.velocity,
                              0.0, 1.0, 1e-3)
    assert np.max(np.abs(back.final.position - [0.0, 0.0])) <= 1e-8


def test_flat_observer_flow():
    S, z = flat_structure(), flat_observer()
    traj = integrate_observer_flow(S, z, np.array([0.0, 0.3]), 0.0, 1.0, 1e-2)
    assert traj.termination == COMPLETED
    for st in traj.states:
        assert st.position[1] == 0.3
        assert abs(st.position[0] - st.tau) <= 1e-12


def test_flow_clock_pairing_is_one():
    S = dataclasses.replace(twist_structure(5, 1),
                            domain_box=((0.0, 1.2), (-1.0, 1.0), (-1.0, 1.0)))
    z = mixed_observer()
    traj = integrate_observer_flow(S, z, np.array([0.0, 0.2, 0.1]), 0.0, 1.0, 1e-2)
    pairings = [omega_apply(S, st.velocity, st.position) for st in traj.states]
    assert max(abs(v - 1.0) for v in pairings) <= 1e-9
    drift = max(abs(a - b) for a, b in zip(pairings, pairings[1:]))
    assert drift <= 1e-9


def test_exponential_flow_oracle():
    S = flat_structure(box=((-0.1, 1.2), (0.0, 3.0)))
    z = ObserverField(exprs(NAMES2, "1", "x"))
    traj = integrate_observer_flow(S, z, np.array([0.0, 1.0]), 0.0, 1.0, 1e-3)
    assert abs(traj.final.position[1] - np.e) <= 1e-7


def test_rk4_order_on_exponential_flow():
    S = flat_structure(box=((-0.1, 1.2), (0.0, 3.0)))
    z = ObserverField(exprs(NAMES2, "1", "x"))

    def err(dt):
        traj = integrate_observer_flow(S, z, np.array([0.0, 1.0]), 0.0, 1.0, dt)
        return abs(traj.final.position[1] - np.e)

    assert err(0.05) / err(0.025) >= 12.0


def test_rk4_order_on_curved_geodesic():
    S, z = curvedh_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    x0 = np.array([0.0, -0.5])
    v0 = np.array([1.0, 0.9])

    def endpoint(dt):
        traj = integrate_geodesic(C, x0, v0, 0.0, 0.8, dt)
        assert traj.termination == COMPLETED
        return traj.final.position

    truth = endpoint(0.0025)
    e1 = np.max(np.abs(endpoint(0.04) - truth))
    e2 = np.max(np.abs(endpoint(0.02) - truth))
    assert e1 / e2 >= 12.0


def test_geodesic_clock_pairing_constant():
    S, z = curvedh_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    traj = integrate_geodesic(C, np.array([0.0, -0.5]), np.array([1.0, 0.7]),
                              0.0, 1.0, 1e-2)
    vals = [omega_apply(S, st.velocity, st.position) for st in traj.states]
    assert max(abs(v - vals[0]) for v in vals) <= 1e-7


def test_geodesic_clock_pairing_constant_nonconstant_clock_form():
    # clock form with a position-dependent component: conservation couples
    # the velocity components through the coefficients
    S, z = twist_structure(), twist_observer()
    C = build_connection(S, z, ConnectionData.zero(2))
    traj = integrate_geodesic(C, np.array([0.1, 0.0, 0.0]),
                              np.array([1.0, 0.3, 0.2]), 0.0, 0.5, 1e-2)
    assert traj.termination == COMPLETED
    vals = [omega_apply(S, st.velocity, st.position) for st in traj.states]
    assert max(abs(v - vals[0]) for v in vals) <= 1e-7


def test_spatial_speed_constant_under_pure_rotation():
    S, z = rot_structure(), rot_observer()
    D = ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {})
    C = build_connection(S, z, D)
    x0 = np.array([0.0, 0.3, 0.2])
    v0 = np.array([1.0, 0.4, -0.2])

    def speeds(dt):
        traj = integrate_geodesic(C, x0, v0, 0.0, 0.9, dt)
        out = []
        for st in traj.states:
            sp = project_spatial(S, z, st.velocity, st.position)
            coeffs = frame_decompose(S, sp, st.position)
            h = metric_matrix(S, st.position)
            out.append(float(coeffs @ h @ coeffs))
        return np.array(out), traj

    vals, traj = speeds(1e-2)
    assert traj.termination == COMPLETED
    assert np.max(np.abs(vals - vals[0])) <= 1e-6
    dense, _ = speeds(2.5e-3)
    assert abs(vals[-1] - dense[-1]) <= 1e-6


def _blow_up():
    """vdot^x = (v^x)^2 from a table; the box is large enough that overflow
    happens before the domain exit."""
    S, m = flat_structure(box=((-0.5, 3.0), (-1e300, 1e300))), 2
    table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    table[1][1][1] = Const(-1.0)
    table = tuple(tuple(tuple(r) for r in pl) for pl in table)
    return connection_from_exprs(S, flat_observer(), table), [0.0, 0.0], [0.0, 1.0], 2.0


def _sqrt_metric():
    """The metric leaves its domain at x < 0; the curve heads there at unit speed."""
    S = dataclasses.replace(curvedh_structure(), metric=((parse_expr("1 + sqrt(x)", NAMES2),),))
    C = build_connection(S, flat_observer(), ConnectionData.zero(1))
    return C, [0.0, 0.05], [0.0, -1.0], 1.0


# termination: (connection, x0, v0, tau1) of a free fall from 0 in steps of 1e-2
GEODESICS = {
    COMPLETED: lambda: (build_connection(flat_structure(), flat_observer(), gravity_data(9.8)),
                        [0.0, 0.0], [1.0, 0.5], 0.2),
    LEFT_DOMAIN: lambda: (build_connection(flat_structure(box=((0.0, 1.5), (-0.2, 0.2))),
                                           flat_observer(), ConnectionData.zero(1)),
                          [0.0, 0.0], [1.0, 1.0], 1.0),
    NUMERIC_FAILURE: _blow_up,
    EVALUATION_FAILURE: _sqrt_metric,
}


def _geodesic(termination, states=None):
    C, x0, v0, tau1 = GEODESICS[termination]()
    return integrate_geodesic(C, np.array(x0), np.array(v0), 0.0, tau1, 1e-2, states)


def test_left_domain_termination():
    traj = _geodesic(LEFT_DOMAIN)
    assert traj.termination == LEFT_DOMAIN
    inside = traj.states[:-1]
    for st in inside:
        assert -0.2 <= st.position[1] <= 0.2
    assert traj.final.position[1] > 0.2


def test_numeric_failure_keeps_states_finite():
    traj = _geodesic(NUMERIC_FAILURE)
    assert traj.termination == NUMERIC_FAILURE
    for st in traj.states:
        assert np.all(np.isfinite(st.position)) and np.all(np.isfinite(st.velocity))


def test_evaluation_failure_keeps_earlier_states():
    C, x0, v0, _ = GEODESICS[EVALUATION_FAILURE]()
    traj = _geodesic(EVALUATION_FAILURE)
    assert traj.termination == EVALUATION_FAILURE
    assert isinstance(traj.error, DomainError)
    assert len(traj.states) == 5
    assert [st.tau for st in traj.states] == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])
    assert all(st.position[1] > 0.0 for st in traj.states)
    # the same states and the same error as free fall on the full Gamma table
    want = dynamics._integrate(christoffel_accel(C), C.structure.domain_box,
                               np.concatenate([x0, v0]), 0.0, 1.0, 1e-2)
    assert want.termination == traj.termination
    assert type(traj.error) is type(want.error) and str(traj.error) == str(want.error)
    assert [(st.tau, st.position.tolist(), st.velocity.tolist()) for st in traj.states] == [
        (st.tau, st.position.tolist(), st.velocity.tolist()) for st in want.states]


def _assert_same_bits(traj, states, termination, error):
    assert (traj.termination, type(traj.error), str(traj.error)) == (
        termination, type(error), str(error))
    assert [(st.tau, st.position.tolist(), st.velocity.tolist()) for st in traj.states] == [
        (tau, x.tolist(), v.tolist()) for tau, x, v in states]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_free_fall_steps_as_the_pairwise_reference(m):
    S, z, D = synthetic_case(m, 1)
    C = build_connection(S, z, D)
    x0 = np.array([0.1] + [0.2 * (-1) ** i for i in range(1, m)])
    v0 = np.array([1.0] + [0.5 - 0.3 * i for i in range(1, m)])
    # m = 2, 3 complete, m = 4, 5 leave the box at t = 1
    traj = integrate_geodesic(C, x0, v0, 0.0, 0.3 * m, 0.05)
    _assert_same_bits(traj, *pairwise_rk4(lambda x, v: (v, -C.spray(x, v)), S.domain_box,
                                          x0, v0, 0.0, 0.3 * m, 0.05))


# the bundled observers are constant; the last two are not, and sqrt fails at t > 1
FLOWS = {"flat": lambda: (flat_structure(), flat_observer()),
         "rot": lambda: (rot_structure(), rot_observer()),
         "twist": lambda: (twist_structure(), twist_observer()),
         "exponential": lambda: (flat_structure(box=((-0.1, 1.3), (-1.0, 1.0))),
                                 ObserverField(exprs(NAMES2, "1", "x"))),
         "sqrt": lambda: (flat_structure(), ObserverField(exprs(NAMES2, "1", "sqrt(1 - t) + x")))}


@pytest.mark.parametrize("name", FLOWS)
def test_observer_flow_steps_as_the_pairwise_reference(name):
    S, observer = FLOWS[name]()
    x0 = np.array([0.05] + [0.3 - 0.5 * i for i in range(1, S.dim)])
    z = compile_exprs(observer.components)
    states, termination, error = pairwise_rk4(lambda x, v: (z(x), np.zeros_like(v)),
                                              S.domain_box, x0, np.zeros(S.dim),
                                              0.0, 1.2, 0.03)
    states = [(tau, x, z(x)) for tau, x, _ in states]
    _assert_same_bits(integrate_observer_flow(S, observer, x0, 0.0, 1.2, 0.03),
                      states, termination, error)


def _first_faulting_stage(C, y, dtau):
    """(stage, position) of the first RK4 stage of free fall from y at which
    the full-table right-hand side raises, or None."""
    f, m = christoffel_accel(C), C.structure.dim
    k = f(y)
    for stage, c in ((2, 0.5), (3, 0.5), (4, 1.0)):
        y_stage = y + c * dtau * k
        try:
            k = f(y_stage)
        except NewcartError:
            return stage, y_stage[:m]
    return None


@pytest.mark.parametrize("start,stage", [(0.033, 2), (0.038, 4)])
def test_a_faulted_stage_pair_keeps_the_one_point_error(start, stage):
    # h11 = 1 + sqrt(x) fails at x < 0: first at the second position of the
    # step's first stage pair, or of its second, where a run over the pair
    # would name point 1
    C, _, v0, _ = _sqrt_metric()
    x0 = np.array([0.0, start])
    traj = integrate_geodesic(C, x0, np.array(v0), 0.0, 1.0, 1e-2)
    last = traj.final
    faulted, position = _first_faulting_stage(
        C, np.concatenate([last.position, last.velocity]), 1e-2)
    assert faulted == stage
    with pytest.raises(DomainError) as one_point:
        C.spray(position, np.ones(2))
    assert one_point.value.point == 0
    assert (type(traj.error), str(traj.error), traj.error.point, traj.error.subexpression) == (
        DomainError, str(one_point.value), 0, one_point.value.subexpression)
    want = dynamics._integrate(christoffel_accel(C), C.structure.domain_box,
                               np.concatenate([x0, v0]), 0.0, 1.0, 1e-2)
    _assert_same_bits(traj, [(st.tau, st.position, st.velocity) for st in want.states],
                      want.termination, want.error)


def test_free_fall_runs_the_program_twice_per_step_at_two_points(monkeypatch):
    S, z, D = synthetic_case(4, 1)
    C, runs = build_connection(S, z, D), []
    run = Program.run

    def counted(self, points):
        runs.append(np.shape(points))
        return run(self, points)
    monkeypatch.setattr(Program, "run", counted)
    x0, steps = np.array([0.3, 0.1, -0.1, 0.2]), 5
    traj = integrate_geodesic(C, x0, np.array([1.0, 0.2, -0.3, 0.1]), 0.0, 0.1, 0.1 / steps)
    assert traj.termination == COMPLETED and len(traj.states) == steps + 1
    assert runs == [(2, 4)] * (2 * steps)
    # a flow steps plain RK4: four one-point runs of z per step, and one at its last state
    runs.clear()
    traj = integrate_observer_flow(S, z, x0, 0.0, 0.1, 0.1 / steps)
    assert traj.termination == COMPLETED and runs == [(4,)] * (4 * steps + 1)


def test_free_fall_on_a_built_connection_forms_no_gamma_table(monkeypatch):
    S, z, D = synthetic_case(4, 1)
    C = build_connection(S, z, D)

    def no_table(state):
        raise AssertionError("free fall formed a Gamma table")
    monkeypatch.setattr(connection_mod, "gamma_of", no_table)
    traj = integrate_geodesic(C, np.array([0.3, 0.1, -0.1, 0.2]),
                              np.array([1.0, 0.2, -0.3, 0.1]), 0.0, 0.1, 0.02)
    assert traj.termination == COMPLETED and len(traj.states) == 6


def test_invalid_integration_arguments():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    with pytest.raises(ValueError):
        integrate_geodesic(C, np.zeros(2), np.ones(2), 0.0, 1.0, -1e-3)
    with pytest.raises(ValueError):
        integrate_geodesic(C, np.zeros(2), np.ones(2), 1.0, 0.5, 1e-3)
    # (tau1 - tau0) / dtau overflows: no finite number of steps
    with pytest.raises(ValueError, match="not a finite step count"):
        integrate_geodesic(C, np.zeros(2), np.ones(2), 0.0, 1e308, 1e-300)


def test_trajectory_csv_format():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, gravity_data(9.8))
    traj = integrate_geodesic(C, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                              0.0, 0.01, 1e-3)
    text = trajectory_csv(traj, 2)
    lines = text.strip().split("\n")
    assert lines[0] == "tau, x0, x1, v0, v1"
    assert len(lines) == len(traj.states) + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == traj.final.tau
    assert last[1] == traj.final.position[0]
    assert last[2] == traj.final.position[1]   # %.17g round-trips doubles
    assert last[4] == traj.final.velocity[1]


@pytest.mark.parametrize("termination", GEODESICS)
def test_a_geodesic_into_csv_rows_has_the_list_runs_states(termination):
    want, fh = _geodesic(termination), io.StringIO()
    rows = dynamics.CsvRows(fh, 2)
    traj = _geodesic(termination, rows)
    assert want.termination == termination and traj.states is rows
    assert (traj.termination, type(traj.error), str(traj.error)) == (
        want.termination, type(want.error), str(want.error))
    # %.17g round-trips each double, so equal text is equal bits
    assert fh.getvalue() == trajectory_csv(want, 2)
    assert rows.count == len(want.states)
    _assert_same_final(traj, want)


def _assert_same_final(traj, want):
    got, final = traj.final, want.final
    assert (got.tau, got.position.tobytes(), got.velocity.tobytes()) == (
        final.tau, final.position.tobytes(), final.velocity.tobytes())


@pytest.mark.parametrize("name", FLOWS)
def test_a_flow_into_csv_rows_has_the_list_runs_final(name):
    S, observer = FLOWS[name]()
    x0 = np.array([0.05] + [0.3 - 0.5 * i for i in range(1, S.dim)])
    want = integrate_observer_flow(S, observer, x0, 0.0, 1.2, 0.03)
    fh = io.StringIO()
    traj = integrate_observer_flow(S, observer, x0, 0.0, 1.2, 0.03, dynamics.CsvRows(fh, S.dim))
    assert fh.getvalue() == trajectory_csv(want, S.dim)
    _assert_same_final(traj, want)
