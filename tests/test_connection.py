"""Connection builder: hand oracles, brute-force oracle, observables."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (NAMES2, NAMES3, brute_force_gamma, coord_field, exprs,
                      flat_observer, flat_structure, curvedh_structure,
                      gravity_data, m4_data, m4_observer, m4_structure,
                      mixed_data, mixed_observer, mixed_structure,
                      rot_observer, rot_structure, synthetic_case,
                      twist_structure)
import newcart.expr as expr_mod
from newcart.connection import (Connection, ConnectionData, build_connection,
                                connection_from_exprs, gamma_of, observable_map, nabla,
                                spatial_state)
from newcart.errors import DimensionMismatch, DomainError, FrameDegenerate, MetricSingular
from newcart.expr import Const, ZERO, differentiate, evaluate, parse_expr
from newcart.expr import compile as compile_exprs
from newcart.geometry import ObserverField, SpacetimeStructure, validate_structure
from newcart.scenario import bundled_scenario_path, load_scenario
from newcart.verify import check_roundtrip, run_all
from reference import (covariant_derivative, eval_fields, frame_decompose,
                       metric_matrix, omega_apply, project_spatial, torsion_at)


def twist_observer():
    return ObserverField(exprs(NAMES3, "1", "0", "0"))


def alternation_at(S, z, D, x_field, y_field, p):
    """A(X, Y) = nabla_X Y - nabla_Y X of the connection built from D, which
    the data fix as Theta(X, Y) + dw(X, Y) z + [X, Y]."""
    C = build_connection(S, z, D)
    return (covariant_derivative(C, x_field, y_field, p)
            - covariant_derivative(C, y_field, x_field, p))


def gravity_at(C, p):
    """nabla_z z at p, from the connection's state."""
    st = C.state(p)
    return nabla(st["gamma"], st["d_rows"][0], st["rows"][0], st["rows"][0])


def koszul_rhs(st):
    """[i, j, b] = 2<P(nabla_i d_j), E_b> at one point, from the reduced
    relation of the connection module's docstring, term by term."""
    frame, q, h, dg, w = st["rows"][1:], st["coframe"], st["h"], st["dg"], st["omega"]
    theta = st["theta"] - st["theta"].swapaxes(-1, -2)  # [a, i, j] = Theta^a_ij
    cor, hq = q.T @ st["coriolis"], h @ q  # [j, b] = (Q^T om)_jb, [a, i] = (h Q)_ai
    return (np.einsum("bl,ijl->ijb", frame,
                      dg.transpose(1, 0, 2) + dg - dg.transpose(1, 2, 0))
            + 2.0 * np.einsum("i,j,b->ijb", w, w, h @ st["gravity"])
            + 2.0 * (w[:, None, None] * cor + w[None, :, None] * cor[:, None, :])
            + np.einsum("aij,ab->ijb", theta, h)
            - np.einsum("ai,ajl,bl->ijb", hq, theta, frame)
            - np.einsum("aj,ail,bl->ijb", hq, theta, frame))


# --- flat space ------------------------------------------------------------

def test_flat_connection_vanishes():
    S = flat_structure(samples=100, seed=11)
    C = build_connection(S, flat_observer(), ConnectionData.zero(1))
    for p in S.sample_points():
        assert np.max(np.abs(C.christoffel(p))) <= 1e-12


def test_alternation_flat_zero():
    S, z = flat_structure(), flat_observer()
    D = ConnectionData.zero(1)
    p = np.array([0.2, 0.1])
    out = alternation_at(S, z, D, coord_field(2, 0), coord_field(2, 1), p)
    assert np.max(np.abs(out)) == 0.0


def test_alternation_antisymmetric_on_self():
    S, z = mixed_structure(), mixed_observer()
    D = mixed_data()
    X = exprs(NAMES3, "t", "x*y", "1 - x")
    for p in S.sample_points()[:5]:
        assert np.max(np.abs(alternation_at(S, z, D, X, X, p))) == 0.0


# --- uniform gravity (component -9.8, as in the module-level examples) -----

def test_koszul_rhs_uniform_gravity():
    S, z = flat_structure(), flat_observer()
    D = gravity_data(-9.8)
    p = np.array([0.4, -0.2])
    rhs = koszul_rhs(build_connection(S, z, D).state(p))
    assert rhs[0, 0, 0] == pytest.approx(-19.6, abs=1e-12)
    assert rhs[1, 1, 0] == pytest.approx(0.0, abs=1e-12)


def test_uniform_gravity_connection():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, gravity_data(-9.8))
    for p in S.sample_points()[:10]:
        gamma = C.christoffel(p)
        assert gamma[1, 0, 0] == pytest.approx(-9.8, abs=1e-12)
        rest = gamma.copy()
        rest[1, 0, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-12


def test_gravity_of_matches_data_and_is_spatial():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, gravity_data(-9.8))
    for p in S.sample_points()[:10]:
        g = gravity_at(C, p)
        assert np.allclose(g, [0.0, -9.8], atol=1e-12)
        assert abs(omega_apply(S, g, p)) <= 1e-9


# --- twisted clock form -----------------------------------------------------

def test_alternation_twist_returns_observer():
    S, z = twist_structure(), twist_observer()
    D = ConnectionData.zero(2)
    dx = coord_field(3, 1)
    dy = coord_field(3, 2)
    for p in S.sample_points()[:5]:
        out = alternation_at(S, z, D, dx, dy, p)
        assert np.allclose(out, eval_fields(z.components, p), atol=1e-12)


def test_twist_zero_data_connection_hand_oracle():
    # with trivial data the only nonzero coefficient is the clock trace slot
    S, z = twist_structure(), twist_observer()
    C = build_connection(S, z, ConnectionData.zero(2))
    for p in S.sample_points()[:8]:
        gamma = C.christoffel(p)
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 2] = 1.0
        assert np.max(np.abs(gamma - expected)) <= 1e-12


def test_twist_torsion_clock_component():
    S, z = twist_structure(), twist_observer()
    C = build_connection(S, z, ConnectionData.zero(2))
    dx = coord_field(3, 1)
    dy = coord_field(3, 2)
    for p in S.sample_points()[:5]:
        tor = torsion_at(C, dx, dy, p)
        assert abs(omega_apply(S, tor, p) - 1.0) <= 1e-12


# --- position-dependent metric ----------------------------------------------

def test_curvedh_hand_formula():
    S, z = curvedh_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    for p in S.sample_points()[:10]:
        x = p[1]
        want = (x / 5.0) / (2.0 * (1.0 + x * x / 10.0))
        gamma = C.christoffel(p)
        assert gamma[1, 1, 1] == pytest.approx(want, abs=1e-12)
        assert abs(gamma[1, 0, 0]) <= 1e-12


# --- rotation ---------------------------------------------------------------

def test_rot_roundtrip_and_coriolis():
    S, z = rot_structure(), rot_observer()
    D = ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {})
    C = build_connection(S, z, D)
    image = observable_map(C.state())
    assert check_roundtrip(C.state()).max_residual <= 1e-9
    # the frame is E_1 = d_x, E_2 = d_y; the first row is the first sample point
    coriolis = image["coriolis"][0]
    assert coriolis[0, 1] == pytest.approx(0.5, abs=1e-9)
    assert coriolis[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_rot_with_theta_roundtrip():
    S, z = rot_structure(), rot_observer()
    D = ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {(0, 1, 2): Const(0.3)})
    C = build_connection(S, z, D)
    assert check_roundtrip(C.state()).max_residual <= 1e-9


# --- covariant derivative ---------------------------------------------------

def test_covariant_derivative_flat():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    out = covariant_derivative(C, coord_field(2, 0), coord_field(2, 1),
                               np.array([0.3, 0.3]))
    assert np.max(np.abs(out)) == 0.0


def test_covariant_derivative_gravity():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, gravity_data(-9.8))
    zc = z.components
    for p in S.sample_points()[:5]:
        out = covariant_derivative(C, zc, zc, p)
        assert np.allclose(out, [0.0, -9.8], atol=1e-12)


def test_covariant_derivative_leibniz():
    S, z = mixed_structure(), mixed_observer()
    C = build_connection(S, z, mixed_data())
    rng = np.random.Generator(np.random.PCG64(21))
    f = parse_expr("t", NAMES3)
    X = exprs(NAMES3, "1", "x", "y - t")
    Y = exprs(NAMES3, "y", "1 - x", "t*x")
    fY = tuple(f * c for c in Y)
    for p in S.sample_points()[:20]:
        lhs = covariant_derivative(C, X, fY, p)
        xf = sum(evaluate(X[i], p) * evaluate(differentiate(f, i), p) for i in range(3))
        rhs = xf * eval_fields(Y, p) + evaluate(f, p) * covariant_derivative(C, X, Y, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
    del rng


# --- torsion ----------------------------------------------------------------

def test_torsion_flat_zero_and_self():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    p = np.array([0.5, 0.5])
    assert np.max(np.abs(torsion_at(C, coord_field(2, 0), coord_field(2, 1), p))) == 0.0
    X = exprs(NAMES2, "t*x", "x - t")
    assert np.max(np.abs(torsion_at(C, X, X, p))) == 0.0


def test_spatial_torsion_recovery_is_tensorial():
    S, z = mixed_structure(), mixed_observer()
    C = build_connection(S, z, mixed_data())
    f = parse_expr("1 + t*x", NAMES3)
    X = exprs(NAMES3, "1", "y", "x")
    Y = exprs(NAMES3, "x", "1", "t")
    fX = tuple(f * c for c in X)
    for p in S.sample_points()[:8]:
        lhs = project_spatial(S, z, torsion_at(C, fX, Y, p), p)
        rhs = evaluate(f, p) * project_spatial(S, z, torsion_at(C, X, Y, p), p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


# --- structural invariants ----------------------------------------------------

def test_clock_trace_forced():
    S, z = mixed_structure(), mixed_observer()
    C = build_connection(S, z, mixed_data())
    for p in S.sample_points()[:10]:
        gamma = C.christoffel(p)
        om = eval_fields(S.omega, p)
        for i in range(3):
            for j in range(3):
                want = evaluate(differentiate(S.omega[j], i), p)
                assert abs(float(om @ gamma[:, i, j]) - want) <= 1e-9


def test_injectivity_witness():
    S, z = rot_structure(), rot_observer()
    D1 = ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {})
    D2 = ConnectionData((ZERO, Const(1.0)), {(0, 1): Const(0.5)}, {})
    C1 = build_connection(S, z, D1)
    C2 = build_connection(S, z, D2)
    for p in S.sample_points():
        delta = C2.christoffel(p) - C1.christoffel(p)
        assert delta[2, 0, 0] == pytest.approx(1.0, abs=1e-12)
        rest = delta.copy()
        rest[2, 0, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-12


def _assert_matches_brute_force(S, z, D, count):
    C = build_connection(S, z, D)
    for p in S.sample_points()[:count]:
        bf, rank, resid = brute_force_gamma(S, z, D, p)
        assert rank == S.dim ** 3 and resid <= 1e-12
        assert np.max(np.abs(C.christoffel(p) - bf)) <= 1e-12


def test_against_brute_force_oracle():
    _assert_matches_brute_force(mixed_structure(), mixed_observer(), mixed_data(), 4)
    _assert_matches_brute_force(m4_structure(), m4_observer(), m4_data(), 4)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_against_brute_force_oracle_synthetic(m):
    _assert_matches_brute_force(*synthetic_case(m, seed=m), 3)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(m=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_random_polynomial_structures_pass_and_match_koszul_rhs(m, seed, data):
    S, z, D = synthetic_case(m, seed)
    entries = run_all(S, z, data=D).entries
    assert [e.name for e in entries if not e.passed] == []
    assert {"clock compatibility", "metric compatibility", "torsion clock identity",
            "derivative finite-difference check",
            "observable round trip"} <= {e.name for e in entries}
    p = np.array(S.sample_points()[0])
    i, j, a = (data.draw(st.integers(0, k - 1)) for k in (m, m, S.n))
    C = build_connection(S, z, D)
    v = spatial_state(C.program(p), p)
    c = v["coframe"] @ C.christoffel(p)[:, i, j]  # frame coefficients c^b_ij
    assert koszul_rhs(C.state(p))[i, j, a] == pytest.approx(2.0 * v["h"][a] @ c, abs=1e-12)


@pytest.mark.parametrize("case", ["mixed", 2, 3, 4, 5, "user"])
def test_state_gamma_is_christoffel_bitwise(case):
    if case in ("mixed", "user"):
        C = _connection(case)
    else:
        C = build_connection(*synthetic_case(case, seed=case))
    points = C.structure.sample_points()
    for p in (points, points[0]):
        want = C.christoffel(p)
        got = C.state(p)["gamma"]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _case(case):
    if case == "mixed":
        return mixed_structure(), mixed_observer(), mixed_data()
    return synthetic_case(case, 7)


def _connection(case):
    """The connection of a bundled scenario by name, of a position-dependent
    user table on curvedh ("user"), or of `_case(case)`."""
    if case == "user":
        table = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
        table[1][1][1] = parse_expr("x/5 + t", NAMES2)
        table[0][1][0] = parse_expr("sin(x)", NAMES2)
        return connection_from_exprs(curvedh_structure(), flat_observer(), table)
    if case == "mixed" or not isinstance(case, str):
        return build_connection(*_case(case))
    scn = load_scenario(bundled_scenario_path(case))
    if scn.has_user_connection:
        return connection_from_exprs(scn.structure, scn.observer, scn.christoffel)
    return build_connection(scn.structure, scn.observer, scn.data)


@pytest.mark.parametrize("case", ["mixed", 2, 3, 4, 5])
def test_program_emits_each_input_entry_once(case):
    S, z, D = _case(case)
    m, n, points = S.dim, S.n, S.sample_points()
    program = build_connection(S, z, D).program
    values = program(points)
    sizes = {"omega": m, "rows": m * m, "h": n * n, "d_rows": m ** 3, "dh": m * n * n,
             "tau": m * m, "gravity": n, "coriolis": n * n, "theta": n * m * m}
    assert {name: v[0].size for name, v in values.items()} == sizes
    # no alias outputs: 27 at m = 2 and 205 at m = 4
    assert program._outputs.size == sum(sizes.values())
    # the rows are z then the frame, [c][k] = B_kc, and d_rows [c][k][i] = d_i B_kc
    rows = (z.components, *S.frame)
    want = compile_exprs({"rows": rows, "d_rows": [
        [[differentiate(e, i) for i in range(m)] for e in row] for row in rows]})(points)
    for name in ("rows", "d_rows"):
        assert values[name].tobytes() == want[name].tobytes()


@pytest.mark.parametrize("case", ["mixed", 2, 3, 4, 5, "flat", "grav", "rot", "user"])
def test_gamma_at_many_points_is_gamma_at_each_point_bitwise(case):
    C = _connection(case)
    points = C.structure.sample_points()
    many = C.christoffel(points)
    assert many.tobytes() == C.state(points)["gamma"].tobytes()
    for p, gamma in zip(points, many):
        assert C.christoffel(p).tobytes() == gamma.tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gamma_is_a_function_of_point_values(m, monkeypatch):
    # the reverse trip: Gamma assembled from the observable image of a
    # state is the state's own Gamma, and assembling it compiles nothing
    S, z, D = synthetic_case(m, 7)
    st = build_connection(S, z, D).state()
    compiled = []
    init = expr_mod.Program.__init__
    monkeypatch.setattr(expr_mod.Program, "__init__",
                        lambda self, exprs: (compiled.append(1), init(self, exprs))[1])
    rebuilt = gamma_of({**st, **observable_map(st)})["gamma"]
    assert np.max(np.abs(rebuilt - st["gamma"])) <= 1e-12
    assert compiled == []


def test_kit_compiles_only_first_derivatives():
    # the program holds the input and its first derivatives only (112 steps
    # here; the symbolic alternation tables once took 774)
    S, z, D = synthetic_case(4, seed=3)
    groups = build_connection(S, z, D).program._groups
    assert sum(block.stop - block.start for _, block, _, _ in groups) <= 150


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kit_program_groups_do_not_grow_with_m(m):
    # steps that share a level and an operation run as one numpy operation:
    # the group count stays flat while the step count grows with m
    S, z, D = synthetic_case(m, seed=7)
    assert len(build_connection(S, z, D).program._groups) <= 7


def test_mixed_roundtrip():
    S, z, D = mixed_structure(), mixed_observer(), mixed_data()
    C = build_connection(S, z, D)
    assert check_roundtrip(C.state()).max_residual <= 1e-9


@pytest.mark.parametrize("gravity,coriolis,theta", [
    ((ZERO,), {}, {}),
    ((ZERO, ZERO, ZERO), {}, {}),
    ((ZERO, ZERO), {(0, 7): Const(3.0)}, {}),
    ((ZERO, ZERO), {(-1, 0): Const(3.0)}, {}),
    ((ZERO, ZERO), {}, {(5, 0, 1): Const(3.0)}),
    ((ZERO, ZERO), {}, {(0, 1, 3): Const(3.0)}),
    ((ZERO, ZERO), {(1, 0): Const(3.0)}, {}),
    ((ZERO, ZERO), {}, {(0, 2, 1): Const(3.0)}),
], ids=["gravity_short", "gravity_long", "coriolis_b", "coriolis_negative", "theta_a",
        "theta_j", "coriolis_lower", "theta_lower"])
def test_data_outside_the_chart_is_rejected(gravity, coriolis, theta):
    S, z = rot_structure(), rot_observer()
    with pytest.raises(DimensionMismatch):
        build_connection(S, z, ConnectionData(gravity, coriolis, theta))
    with pytest.raises(DimensionMismatch):
        run_all(S, z, data=ConnectionData(gravity, coriolis, theta))


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 2), (3, 2, 3), (4, 3, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_christoffel_table_of_the_wrong_shape_is_rejected(shape):
    S, z = rot_structure(), rot_observer()
    table = np.full(shape, ZERO, dtype=object).tolist()
    with pytest.raises(DimensionMismatch):
        connection_from_exprs(S, z, table)
    with pytest.raises(DimensionMismatch):
        run_all(S, z, connection=connection_from_exprs(S, z, table))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_observables_match_the_reference(m):
    # both sides read one Gamma and solve well-conditioned O(1) systems, so
    # they agree to rounding; the bound leaves three orders of margin
    tol = 1e-12
    S, z, D = synthetic_case(m, seed=m)
    C = build_connection(S, z, D)
    points = S.sample_points()
    state = C.state(np.array(points))
    image = observable_map(state)
    fields = [coord_field(m, i) for i in range(m)]
    for q, p in enumerate(points):
        # least-squares frame coefficients of P(d_i) against the coframe's columns
        lstsq = np.array([frame_decompose(S, project_spatial(S, z, np.eye(m)[i], p), p)
                          for i in range(m)]).T
        assert np.max(np.abs(lstsq - state["coframe"][q])) <= tol
        gravity = frame_decompose(S, covariant_derivative(C, z.components, z.components, p), p)
        assert np.max(np.abs(gravity - image["gravity"][q])) <= tol
        for i in range(m):
            for j in range(i + 1, m):
                tor = frame_decompose(S, project_spatial(
                    S, z, torsion_at(C, fields[i], fields[j], p), p), p)
                assert np.max(np.abs(tor - image["theta"][q][:, i, j])) <= tol


def _one_field_structure(frame, metric):
    """A 2-dimensional structure with clock form dt, frame field E1 = (0,
    frame) and Gram matrix ((metric,),)."""
    return SpacetimeStructure(
        coord_names=NAMES2,
        omega=exprs(NAMES2, "1", "0"),
        frame=(exprs(NAMES2, "0", frame),),
        metric=((parse_expr(metric, NAMES2),),),
        domain_box=((0, 1), (-1, 1)), sample_count=5, rng_seed=1)


def test_metric_singular_raises():
    C = build_connection(_one_field_structure("1", "x"), flat_observer(), ConnectionData.zero(1))
    with pytest.raises(MetricSingular):
        C.christoffel(np.array([0.5, 0.0]))


def _bundled(name):
    scn = load_scenario(bundled_scenario_path(name))
    return scn.structure, scn.observer, scn.data


SPRAY_CASES = {
    **{f"synthetic_m{m}_s{seed}": (lambda m=m, seed=seed: synthetic_case(m, seed))
       for m in range(2, 6) for seed in (1, 2, 3, 7)},
    "mixed": lambda: (mixed_structure(), mixed_observer(), mixed_data()),
    "m4": lambda: (m4_structure(samples=6), m4_observer(), m4_data()),
    "twist": lambda: _bundled("twist"),
    "curvedh": lambda: _bundled("curvedh"),
}


def _assert_spray_agrees(C, x, v):
    """spray(x, v) against the contraction of christoffel(x), per point, to
    4e-15 relative to max(1, |Gamma(v, v)|)."""
    want = np.einsum("...kij,...i,...j->...k", C.christoffel(x), v, v)
    got = C.spray(x, v)
    assert got.shape == want.shape == x.shape
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1, keepdims=True))
    assert np.all(np.abs(got - want) <= 4e-15 * scale)


@pytest.mark.parametrize("case", SPRAY_CASES)
def test_spray_is_the_contracted_christoffel_table(case):
    S, z, D = SPRAY_CASES[case]()
    C = build_connection(S, z, D)
    points = S.sample_points()
    rng = np.random.default_rng(23)
    velocities = rng.uniform(-1.0, 1.0, points.shape)
    _assert_spray_agrees(C, points[0], velocities[0])  # one point
    _assert_spray_agrees(C, points, velocities)  # the sample points
    k = len(points) // 2
    _assert_spray_agrees(C, points[:2 * k].reshape(2, k, -1),
                         velocities[:2 * k].reshape(2, k, -1))


@pytest.mark.parametrize("name", ["zero_connection_curvedh", "grav"])  # a user table, constant
def test_spray_of_a_table_or_a_constant_connection_is_its_contraction(name):
    C = _connection(name)
    points = C.structure.sample_points()
    velocities = np.random.default_rng(5).uniform(-1.0, 1.0, points.shape)
    stack = C.spray(points, velocities)
    for x, v, row in zip(points, velocities, stack):
        want = np.einsum("kij,i,j->k", C.christoffel(x), v, v)
        assert np.array_equal(C.spray(x, v), want) and np.array_equal(row, want)


@pytest.mark.parametrize("frame,metric,error,bad", [
    ("1", "1 + sqrt(x)", DomainError, [0.5, -0.1]),
    ("1", "x", MetricSingular, [0.5, 0.0]),
    ("x", "1", FrameDegenerate, [0.5, 0.0]),
])
def test_spray_raises_what_christoffel_raises(frame, metric, error, bad):
    C = build_connection(_one_field_structure(frame, metric), flat_observer(),
                         ConnectionData.zero(1))
    good = [0.5, 0.5]
    for x in (np.array(bad), np.array([good, good, bad, good])):
        v = np.ones_like(x)
        with pytest.raises(error) as want:
            C.christoffel(x)
        with pytest.raises(error) as got:
            C.spray(x, v)
        assert type(got.value) is type(want.value)
        assert (str(got.value), got.value.point) == (str(want.value), want.value.point)


def test_z_and_a_frame_entry_faulting_at_one_point_name_zs_node_in_every_walk():
    # the rows walk z before the frame, in the structure check and in the
    # connection's program alike
    S = replace(_one_field_structure("sqrt(x)", "1"), domain_box=((0, 1), (-1, -0.5)))
    z = ObserverField(exprs(NAMES2, "1", "log(x)"))
    C, points = build_connection(S, z), S.sample_points()
    faults = []
    for call in (lambda: validate_structure(S, z), lambda: C.state(points),
                 lambda: C.spray(points, np.ones_like(points))):
        with pytest.raises(DomainError) as err:
            call()
        faults.append((str(err.value), err.value.point, err.value.subexpression))
    assert faults == [("log of non-positive argument in 'log(x1)'", 0, z.components[1])] * 3


@pytest.mark.parametrize("case", ["zero_connection_curvedh", "user"])
def test_a_user_tables_gamma_and_spray_are_read_from_its_state(case):
    # a user table is the gamma group of the connection's one program
    C = _connection(case)
    points = C.structure.sample_points()[:12].reshape(4, 3, -1)
    velocities = np.random.default_rng(9).uniform(-1.0, 1.0, points.shape)
    for x, v in ((points[0, 0], velocities[0, 0]), (points, velocities)):
        gamma = C.state(x)["gamma"]
        got = C.christoffel(x)
        assert got.shape == gamma.shape and got.tobytes() == gamma.tobytes()
        want = np.einsum("...kij,...i,...j->...k", gamma, v, v)
        got = C.spray(x, v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _table_faults(entry, points):
    """(message, point, subexpression) of what state, christoffel and spray
    raise at `points` for a user table whose one entry is `entry`, on a
    structure whose dh is undefined at x = 0 (h11 = 1 + x*sqrt(x))."""
    S = replace(_one_field_structure("1", "1 + x*sqrt(x)"), domain_box=((0, 1), (0, 1)))
    table = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    table[1][1][1] = parse_expr(entry, NAMES2)
    C, points = connection_from_exprs(S, flat_observer(), table), np.array(points)
    faults = []
    for call in (C.state, C.christoffel, lambda x: C.spray(x, np.ones_like(x))):
        with pytest.raises(DomainError) as err:
            call(points)
        faults.append((str(err.value), err.value.point, err.value.subexpression))
    return faults


def test_a_derivative_fault_at_a_lower_point_comes_before_a_user_tables():
    # the lowest failing point first, whichever group faults there
    points = [[0.5, 0.0], [0.7, 0.5]]
    h11 = parse_expr("1 + x*sqrt(x)", NAMES2)
    with pytest.raises(DomainError) as want:  # what dh alone raises
        compile_exprs([differentiate(h11, i) for i in range(2)])(points)
    assert want.value.point == 0
    assert _table_faults("sqrt(0.65 - t)", points) == [
        (str(want.value), 0, want.value.subexpression)] * 3


def test_a_derivative_fault_names_a_node_of_a_derivative_that_is_not_zero():
    # d_t h11 is ZERO, so the first fault at x = 0 is in d_x h11's quotient
    S = _one_field_structure("1", "1 + x*sqrt(x)")
    with pytest.raises(DomainError) as err:
        build_connection(S, flat_observer()).state(np.array([[0.5, 0.0]]))
    assert str(err.value) == "division by zero in '1.0/(2.0*sqrt(x1))'"
    assert err.value.subexpression == differentiate(parse_expr("sqrt(x)", NAMES2), 1)


def test_a_user_table_and_a_derivative_faulting_at_one_point_name_the_tables_node():
    # there, walk order: the inputs, the table, then the derivatives
    entry = parse_expr("sqrt(0.4 - t)", NAMES2)
    faults = _table_faults("sqrt(0.4 - t)", [[0.5, 0.0], [0.7, 0.5]])
    assert faults == [("sqrt of negative argument in 'sqrt(0.4 - x0)'", 0, entry)] * 3


def test_a_user_tables_gamma_is_undefined_where_its_frame_is_degenerate():
    S, z = _one_field_structure("x", "1"), flat_observer()
    table = tuple(tuple((ZERO, ZERO) for _ in range(2)) for _ in range(2))
    built, user = build_connection(S, z), connection_from_exprs(S, z, table)
    for x in (np.array([0.5, 0.0]), np.array([[0.5, 0.5], [0.5, 0.0]])):
        faults = []
        for call in (built.christoffel, user.christoffel,
                     lambda p: user.spray(p, np.ones_like(p))):
            with pytest.raises(FrameDegenerate) as err:
                call(x)
            faults.append((str(err.value), err.value.point))
        assert faults == [("adapted basis singular at (0.5, 0.0)", x.ndim - 1)] * 3


def test_user_supplied_connection_observables():
    S, z = flat_structure(), flat_observer()
    m = 2
    table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    table[1][0][0] = Const(-9.8)
    C = connection_from_exprs(S, z, tuple(tuple(tuple(r) for r in pl) for pl in table))
    assert not C.is_built
    assert np.allclose(gravity_at(C, np.array([0.2, 0.2])), [0.0, -9.8], atol=1e-12)


def test_a_connection_given_no_data_is_built_from_zero_data():
    # curvedh's h is not constant, so the report holds the round trip and
    # the d_k g half of the FD check only for a built connection
    S, z = curvedh_structure(), flat_observer()
    C = Connection(S, z)
    assert C.is_built
    assert run_all(S, z, connection=C).to_json() == run_all(S, z).to_json()


def test_a_connection_given_data_and_a_table_is_refused():
    table = tuple(tuple((ZERO, ZERO) for _ in range(2)) for _ in range(2))
    with pytest.raises(ValueError, match="not both"):
        Connection(flat_structure(), flat_observer(), data=ConnectionData.zero(1),
                   gamma_exprs=table)


def test_christoffel_repeats_are_equal():
    S, z = mixed_structure(), mixed_observer()
    C = build_connection(S, z, mixed_data())
    p = np.array([0.3, 0.1, -0.4])
    assert np.array_equal(C.christoffel(p), C.christoffel(p))


@pytest.mark.parametrize("case", ["flat", "grav", "rot", "zero_connection_curvedh", "mixed", 4])
def test_a_connection_keeps_nothing_but_its_program(case):
    # constant inputs included: every call reads a fresh state at its own points
    C = _connection(case)
    C.program
    before = dict(vars(C))
    points = C.structure.sample_points()[:12].reshape(4, 3, -1)
    velocities = np.random.default_rng(8).uniform(-1.0, 1.0, points.shape)
    C.christoffel(points[0, 0])
    C.christoffel(points)
    C.spray(points[0, 0], velocities[0, 0])
    C.spray(points, velocities)
    C.state()
    after = vars(C)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


def test_connection_keeps_no_per_point_state():
    S, z = mixed_structure(), mixed_observer()
    C = build_connection(S, z, mixed_data())

    def sizes():
        return {name: len(value) for name, value in vars(C).items()
                if isinstance(value, (dict, list))}

    before = sizes()
    lo, hi = np.array(S.domain_box).T
    rng = np.random.default_rng(12)
    for p in lo + (hi - lo) * rng.random((200, S.dim)):
        C.christoffel(p)
        C.spray(p, p)
    assert sizes() == before


def _nabla_reference(gamma, dmat, x, y):
    return dmat @ x + np.einsum("kij,i,j->k", gamma, x, y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nabla_matches_per_point_formula(data):
    m = data.draw(st.integers(2, 5), label="m")
    count = data.draw(st.integers(1, 20), label="N")
    unit = st.floats(-1.0, 1.0)
    gamma = data.draw(arrays(float, (count, m, m, m), elements=unit))
    dy = data.draw(arrays(float, (count, m, m), elements=unit))
    x = data.draw(arrays(float, (count, m), elements=unit))
    y = data.draw(arrays(float, (count, m), elements=unit))
    # rounding of sums of <= m + m^2 products of unit-bounded float64 values
    tol = {"rtol": 1e-12, "atol": 1e-14}

    want = [_nabla_reference(gamma[q], dy[q], x[q], y[q]) for q in range(count)]
    np.testing.assert_allclose(nabla(gamma, dy, x, y), want, **tol)
    # observable_map's shape: many directions x at one point, one field y
    want = [_nabla_reference(gamma[0], dy[0], xq, y[0]) for xq in x]
    np.testing.assert_allclose(nabla(gamma[0], dy[0], x, y[0]), want, **tol)


@pytest.mark.parametrize("S,z,D", [
    (twist_structure(), twist_observer(), ConnectionData.zero(2)),
    (m4_structure(samples=5), m4_observer(), m4_data()),
])
def test_numeric_g_is_inner_product_of_projected_coordinate_fields(S, z, D):
    C = build_connection(S, z, D)
    m = S.dim
    for p in S.sample_points():
        coeffs = [frame_decompose(S, project_spatial(S, z, np.eye(m)[i], p), p)
                  for i in range(m)]
        h = metric_matrix(S, p)
        want = np.array([[ci @ h @ cj for cj in coeffs] for ci in coeffs])
        assert np.max(np.abs(spatial_state(C.program(p), p)["g"] - want)) <= 1e-12
