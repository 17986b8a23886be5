"""Kinematic layer: pairing, projection, brackets, decomposition, validation.

Point values of the kinematic quantities come from one place, a
connection's state: the clock pairing from its omega, dw from its tau,
frame coefficients and the spatial projection from its coframe, and the
spatial inner product from g = Q^T h Q.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (NAMES2, NAMES3, exprs, flat_observer, flat_structure,
                      mixed_observer, mixed_structure, rot_observer, rot_structure,
                      synthetic_case, twist_observer, twist_structure)
from newcart.errors import DimensionMismatch, FrameDegenerate
from newcart.expr import Const, parse_expr, evaluate
from newcart.connection import build_connection
from newcart.geometry import (CLOCK_NONZERO_MARGIN, ObserverField, basis_inverse,
                              fail_at_first, upper_pairs, validate_structure)
from reference import eval_fields, lie_bracket


def state_at(S, z, p):
    return build_connection(S, z).state(np.asarray(p, dtype=float))


def project(st, v):
    """P(v) = v - w(v) z, as E_a Q^a(v) from the state's frame and coframe."""
    return st["rows"][1:].T @ (st["coframe"] @ np.asarray(v, dtype=float))


def d_omega(st, x, y):
    """dw(X, Y) = X^i Y^j (d_i w_j - d_j w_i) from the state's tau."""
    return float(x @ (st["tau"] - st["tau"].T) @ y)


def inner(st, v, w):
    """<P v, P w> = v^T g w with the state's g = Q^T h Q."""
    return float(np.asarray(v) @ st["g"] @ np.asarray(w))


ONE3, ZERO3 = exprs(NAMES3, "1", "0")


@pytest.mark.parametrize("change,message", [
    ({"coord_names": ("t",)}, "chart dimension must be at least 2"),
    ({"omega": (ONE3, ZERO3)}, "clock form needs 3 components"),
    ({"frame": ((ZERO3, ONE3, ZERO3),)}, "frame needs 2 fields on a 3-dimensional chart"),
    ({"frame": ((ZERO3, ONE3, ZERO3), (ZERO3, ONE3))}, "each frame field needs 3 components"),
    ({"metric": ((ONE3, ZERO3), (ZERO3,))}, "metric must be 2x2"),
    ({"metric": ((ONE3, ZERO3), (ONE3, ONE3))}, "metric storage must be symmetric"),
    ({"domain_box": ((0.0, 1.0), (0.0, 1.0))}, "domain box needs 3 intervals"),
    ({"domain_box": ((0.0, 1.0), (1.0, 0.0), (0.0, 1.0))},
     "domain intervals must satisfy lo <= hi"),
], ids=["dimension", "omega", "frame_count", "frame_arity", "metric_shape",
        "metric_symmetry", "box_arity", "box_order"])
def test_structure_rejects_inconsistent_input(change, message):
    with pytest.raises(DimensionMismatch) as err:
        replace(rot_structure(), **change)
    assert str(err.value) == message


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sample_points_are_the_per_point_draws(m):
    # one (count, m) draw takes the same values from the stream as count draws of m
    S = synthetic_case(m, seed=7, samples=37)[0]
    rng = np.random.Generator(np.random.PCG64(S.rng_seed))
    lo, hi = np.array(S.domain_box).T
    want = [lo + (hi - lo) * rng.random(m) for _ in range(S.sample_count)]
    got = S.sample_points()
    assert isinstance(got, np.ndarray) and got.shape == (S.sample_count, m)
    assert all(p.tobytes() == q.tobytes() for p, q in zip(got, want))


def test_omega_apply_flat():
    omega = state_at(flat_structure(), flat_observer(), [0.3, 0.2])["omega"]
    assert omega @ (1.0, 0.0) == 1.0
    assert omega @ (0.0, 1.0) == 0.0


def test_omega_apply_twist_hand_value():
    p = np.array([0.0, 2.0, 0.0])
    assert state_at(twist_structure(), twist_observer(), p)["omega"] @ (0.0, 0.0, 1.0) == 2.0


def test_project_spatial_kills_observer():
    st = state_at(flat_structure(), flat_observer(), [0.1, 0.4])
    assert np.max(np.abs(project(st, st["rows"][0]))) <= 1e-12


def test_project_spatial_fixes_spatial_vectors():
    st = state_at(flat_structure(), flat_observer(), [0.1, 0.4])
    v = np.array([0.0, 2.5])
    assert np.allclose(project(st, v), v, atol=0)


def test_project_spatial_twist_hand_value():
    st = state_at(twist_structure(), twist_observer(), [0.0, 2.0, 0.0])
    out = project(st, (0.0, 0.0, 1.0))
    assert np.allclose(out, [-2.0, 0.0, 1.0], atol=1e-15)


def test_projector_idempotent_and_annihilated():
    S, z = mixed_structure(), mixed_observer()
    C = build_connection(S, z)
    rng = np.random.Generator(np.random.PCG64(2))
    for p in S.sample_points():
        st = C.state(p)
        v = rng.uniform(-1, 1, size=3)
        once = project(st, v)
        twice = project(st, once)
        assert np.max(np.abs(once - twice)) <= 1e-12
        assert abs(st["omega"] @ once) <= 1e-9


def test_lie_bracket_coordinates_commute():
    dt = exprs(NAMES2, "1", "0")
    dx = exprs(NAMES2, "0", "1")
    br = lie_bracket(dt, dx)
    assert all(e == Const(0.0) for e in br)


def test_lie_bracket_hand_value():
    X = exprs(NAMES2, "x", "0")   # x d_t
    Y = exprs(NAMES2, "0", "1")   # d_x
    br = lie_bracket(X, Y)
    p = np.array([0.3, 0.7])
    assert np.allclose(eval_fields(br, p), [-1.0, 0.0], atol=0)


def test_lie_bracket_antisymmetric_on_self():
    X = exprs(NAMES2, "t*x", "x^2 - t")
    br = lie_bracket(X, X)
    for p in flat_structure().sample_points():
        assert np.max(np.abs(eval_fields(br, p))) == 0.0


def test_d_omega_flat_zero():
    S = flat_structure()
    C = build_connection(S, flat_observer())
    X = exprs(NAMES2, "t", "x^2")
    Y = exprs(NAMES2, "1", "t*x")
    for p in S.sample_points()[:5]:
        x, y = eval_fields(X, p), eval_fields(Y, p)
        assert abs(d_omega(C.state(p), x, y)) <= 1e-12


def test_d_omega_twist_hand_value():
    S = twist_structure()
    C = build_connection(S, twist_observer())
    dx, dy = np.eye(3)[1], np.eye(3)[2]
    for p in S.sample_points()[:5]:
        st = C.state(p)
        assert abs(d_omega(st, dx, dy) - 1.0) <= 1e-12
        assert d_omega(st, dx, dx) == 0.0


def test_d_omega_matches_finite_differences():
    S = mixed_structure()
    C = build_connection(S, mixed_observer())
    m = S.dim
    h = 1e-5
    fields = np.eye(m)
    for p in S.sample_points():
        if any(p[i] - h < S.domain_box[i][0] or p[i] + h > S.domain_box[i][1]
               for i in range(m)):
            continue
        st = C.state(p)
        for i in range(m):
            for j in range(m):
                hi = p.copy(); hi[i] += h
                lo = p.copy(); lo[i] -= h
                fd = (evaluate(S.omega[j], hi) - evaluate(S.omega[j], lo)) / (2 * h)
                hj = p.copy(); hj[j] += h
                lj = p.copy(); lj[j] -= h
                fd -= (evaluate(S.omega[i], hj) - evaluate(S.omega[i], lj)) / (2 * h)
                assert abs(d_omega(st, fields[i], fields[j]) - fd) <= 1e-6


def test_frame_decompose_frame_member_and_zero():
    S = twist_structure()
    p = np.array([0.2, 0.5, -0.3])
    coframe = state_at(S, twist_observer(), p)["coframe"]
    e1 = eval_fields(S.frame[0], p)
    assert np.allclose(coframe @ e1, [1.0, 0.0], atol=1e-12)
    assert np.allclose(coframe @ np.zeros(3), [0.0, 0.0], atol=0)


def test_frame_decompose_twist_hand_value():
    p = np.array([0.0, 2.0, 0.0])
    # the structure's box does not contain x = 2, but the state is pointwise
    coeffs = state_at(twist_structure(), twist_observer(), p)["coframe"] @ (-2.0, 0.0, 1.0)
    assert np.allclose(coeffs, [0.0, 1.0], atol=1e-12)


def test_frame_decompose_degenerate_frame():
    S = replace(rot_structure(5, 1), frame=(exprs(NAMES3, "0", "1", "0"),
                                            exprs(NAMES3, "0", "2", "0")))
    with pytest.raises(FrameDegenerate):
        state_at(S, rot_observer(), np.array([0.0, 0.0, 0.0]))


def test_adapted_basis_guard_rejects_tiny_determinant():
    # B = (z, E_1) = diag(1, 1e-15) is invertible, but |det B| < 1e-14
    S = replace(flat_structure(5, 1, box=((0, 1), (-1, 1))), frame=(exprs(NAMES2, "0", "1e-15"),))
    z, p = flat_observer(), np.array([0.5, 0.0])
    with pytest.raises(FrameDegenerate):
        basis_inverse(np.array([[1.0, 0.0], [0.0, 1e-15]]), p)
    with pytest.raises(FrameDegenerate):
        build_connection(S, z).christoffel(p)


def test_decompose_recompose_identity():
    S = mixed_structure()
    C = build_connection(S, mixed_observer())
    rng = np.random.Generator(np.random.PCG64(4))
    for p in S.sample_points()[:10]:
        coeffs = rng.uniform(-1, 1, size=S.n)
        fm = np.column_stack([eval_fields(f, p) for f in S.frame])
        v = fm @ coeffs
        back = C.state(p)["coframe"] @ v
        assert np.max(np.abs(back - coeffs)) <= 1e-9


def test_inner_euclidean_and_symmetry():
    st = state_at(flat_structure(), flat_observer(), [0.3, 0.1])
    e1 = np.array([0.0, 1.0])
    assert inner(st, e1, e1) == 1.0
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(5):
        v = np.array([0.0, rng.uniform(-1, 1)])
        w = np.array([0.0, rng.uniform(-1, 1)])
        assert inner(st, v, w) == inner(st, w, v)


def test_inner_indefinite_metric():
    S = replace(rot_structure(5, 1), metric=((ONE3, ZERO3), (ZERO3, parse_expr("-1", NAMES3))))
    z = rot_observer()
    assert validate_structure(S, z).passed
    e2 = np.array([0.0, 0.0, 1.0])
    assert inner(state_at(S, z, [0.5, 0.0, 0.0]), e2, e2) == -1.0


def test_validate_structure_flat_passes():
    report = validate_structure(flat_structure(), flat_observer())
    assert report.passed


def test_validate_structure_bad_observer():
    bad = ObserverField(exprs(NAMES2, "2", "0"))
    report = validate_structure(flat_structure(), bad)
    assert not report.passed
    entry = {e.name: e for e in report.entries}["observer normalization"]
    assert not entry.passed
    assert abs(entry.max_residual - 1.0) < 1e-12
    others = [e for e in report.entries if e.name != "observer normalization"]
    assert all(e.passed for e in others)


def test_validate_structure_frame_not_annihilated():
    S = replace(twist_structure(30, 17), frame=rot_structure().frame)
    report = validate_structure(S, twist_observer())
    entry = {e.name: e for e in report.entries}["frame annihilated by clock form"]
    assert not entry.passed
    assert entry.worst_point is not None


def test_validate_structure_non_finite_frame_fails():
    # x^64 is inf for x above about 6.4e4, so E_1 is nan at most sample points
    S = replace(flat_structure(20, 0, box=((0, 1), (0, 1e5))),
                frame=(exprs(NAMES2, "0", "1 + x^64 - x^64"),))
    entries = {e.name: e for e in validate_structure(S, flat_observer()).entries}
    for name in ("frame annihilated by clock form", "frame rank"):
        assert np.isnan(entries[name].max_residual) and not entries[name].passed


def test_a_zero_clock_form_fails_clock_form_nonzero():
    S = replace(flat_structure(), omega=exprs(NAMES2, "0", "0"))
    entries = {e.name: e for e in validate_structure(S, flat_observer()).entries}
    # w(z) = 1 implies w != 0, so the normalization fails too; this entry
    # must fail by its own residual
    assert not entries["observer normalization"].passed
    entry = entries["clock form nonzero"]
    assert not entry.passed and entry.max_residual == CLOCK_NONZERO_MARGIN


def test_fail_at_first_names_the_lowest_of_two_bad_points():
    points = np.array([[[0.0, 1.0], [0.5, 2.0]], [[0.25, 3.0], [0.75, 4.0]]])
    with pytest.raises(FrameDegenerate) as err:
        fail_at_first(np.array([[False, True], [False, True]]), points, FrameDegenerate,
                      "adapted basis singular")
    assert err.value.point == 1
    assert str(err.value) == "adapted basis singular at (0.5, 2.0)"


def test_validate_structure_mixed_passes():
    assert validate_structure(mixed_structure(), mixed_observer()).passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("diagonal", [False, True])
def test_upper_pairs_are_triu_indices(n, diagonal):
    got, want = upper_pairs(n, diagonal), np.triu_indices(n, 0 if diagonal else 1)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if n == 1 and not diagonal:
        assert got[0].size == got[1].size == 0
