"""Kinematic layer: chart structure, observers, projection, brackets.

A structure fixes one global chart with coordinates x^0..x^{m-1}, a
clock 1-form with components omega_i, a spanning frame E_1..E_n of the
clock form's kernel, and the Gram matrix h_ab of the spatial inner
product on that frame.  All coefficients are symbolic expressions, so
every directional derivative used downstream is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import (DimensionMismatch, FrameDegenerate, NotSpatial,
                     ObserverInvalid)
from .expr import Expr, differentiate, mul, sub, sum_exprs
from .expr import compile as compile_exprs
from .report import CheckReport, make_entry

SPATIAL_INPUT_TOL = 1e-6    # inputs may carry integration drift
SPATIAL_RESULT_TOL = 1e-9   # values produced by exact algebra
CLOCK_NONZERO_MARGIN = 1e-12
METRIC_DET_MARGIN = 1e-10
FRAME_RANK_MARGIN = 1e-10
BASIS_DET_TOL = 1e-14       # below it, the adapted basis (z, E) counts as singular


@dataclass(frozen=True)
class SpacetimeStructure:
    """Chart, clock form, spatial frame and Gram matrix, sampling box."""

    coord_names: tuple[str, ...]
    omega: tuple[Expr, ...]
    frame: tuple[tuple[Expr, ...], ...]
    metric: tuple[tuple[Expr, ...], ...]
    domain_box: tuple[tuple[float, float], ...]
    sample_count: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        m = len(self.coord_names)
        if m < 2:
            raise DimensionMismatch("chart dimension must be at least 2")
        n = m - 1
        if len(self.omega) != m:
            raise DimensionMismatch(f"clock form needs {m} components")
        if len(self.frame) != n:
            raise DimensionMismatch(f"frame needs {n} fields on a {m}-dimensional chart")
        for comps in self.frame:
            if len(comps) != m:
                raise DimensionMismatch(f"each frame field needs {m} components")
        if len(self.metric) != n or any(len(row) != n for row in self.metric):
            raise DimensionMismatch(f"metric must be {n}x{n}")
        for a in range(n):
            for b in range(a):
                if self.metric[a][b] != self.metric[b][a]:
                    raise DimensionMismatch("metric storage must be symmetric")
        if len(self.domain_box) != m:
            raise DimensionMismatch(f"domain box needs {m} intervals")
        for lo, hi in self.domain_box:
            if not lo <= hi:
                raise DimensionMismatch("domain intervals must satisfy lo <= hi")

    @property
    def dim(self):
        return len(self.coord_names)

    @property
    def n(self):
        return self.dim - 1

    def sample_points(self):
        """Uniform points in the domain box, reproducible from the seed."""
        rng = np.random.Generator(np.random.PCG64(self.rng_seed))
        lo = np.array([b[0] for b in self.domain_box])
        hi = np.array([b[1] for b in self.domain_box])
        return list(lo + (hi - lo) * rng.random((self.sample_count, self.dim)))


@dataclass(frozen=True)
class ObserverField:
    """Vector field normalized to 1 against the clock form."""

    components: tuple[Expr, ...]


def eval_fields(fields, p):
    """Evaluate a tuple of expressions at a point p, shape (m,), or at a
    stack of points (..., m), into shape (..., len(fields))."""
    return compile_exprs(fields)(p)


def upper_pairs(n, diagonal=False):
    """Index arrays (i, j) of the pairs i < j of range(n), or i <= j with
    `diagonal`, in the order of np.triu_indices at a fifth of its cost."""
    pairs = (combinations_with_replacement if diagonal else combinations)(range(n), 2)
    return tuple(np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T)


def field_jacobian(field):
    """Symbolic derivative table [k][i] = d_i field_k."""
    m = len(field)
    return [[differentiate(field[k], i) for i in range(m)] for k in range(m)]


def omega_values(structure, p):
    return eval_fields(structure.omega, p)


def frame_matrix(structure, p):
    """m x n matrix whose column a holds the components of E_a at p."""
    return np.swapaxes(compile_exprs(structure.frame)(p), -1, -2)


def metric_matrix(structure, p):
    return compile_exprs(structure.metric)(p)


def omega_apply(structure, v, p):
    """Pairing of the clock form with a tangent vector at p."""
    return float(omega_values(structure, p) @ np.asarray(v, dtype=float))


def observer_values(observer, p):
    return eval_fields(observer.components, p)


def project_spatial(structure, observer, v, p):
    """Remove the observer component: v - omega(v) z(p).

    The result is annihilated by the clock form (up to roundoff).
    """
    zv = observer_values(observer, p)
    oz = float(omega_values(structure, p) @ zv)
    if abs(oz - 1.0) > SPATIAL_INPUT_TOL:
        raise ObserverInvalid(f"observer has clock pairing {oz!r} at {tuple(p)}")
    v = np.asarray(v, dtype=float)
    return v - omega_apply(structure, v, p) * zv


def lie_bracket(x_field, y_field):
    """Commutator of two vector fields, built symbolically."""
    m = len(x_field)
    comps = []
    for k in range(m):
        acc = sum_exprs(
            sub(mul(x_field[i], differentiate(y_field[k], i)),
                mul(y_field[i], differentiate(x_field[k], i)))
            for i in range(m)
        )
        comps.append(acc)
    return tuple(comps)


def omega_of_field(structure, field):
    """Clock pairing with a field, as a scalar expression."""
    return sum_exprs(mul(structure.omega[i], field[i]) for i in range(structure.dim))


def directional_derivative(field, scalar):
    """X(f) as a scalar expression."""
    return sum_exprs(mul(field[i], differentiate(scalar, i)) for i in range(len(field)))


def d_omega(structure, x_field, y_field, p):
    """Exterior derivative of the clock form on two fields at p.

    Computed as X(omega(Y)) - Y(omega(X)) - omega([X, Y]) with exact
    symbolic derivatives.
    """
    ox = omega_of_field(structure, x_field)
    oy = omega_of_field(structure, y_field)
    bracket = lie_bracket(x_field, y_field)
    ob = omega_of_field(structure, bracket)
    terms = compile_exprs([directional_derivative(x_field, oy),
                           directional_derivative(y_field, ox), ob])(p)
    return terms[..., 0] - terms[..., 1] - terms[..., 2]


def frame_decompose(structure, v, p):
    """Coefficients of a spatial vector in the frame (least squares)."""
    v = np.asarray(v, dtype=float)
    pairing = omega_apply(structure, v, p)
    if abs(pairing) > SPATIAL_INPUT_TOL:
        raise NotSpatial(f"clock pairing {pairing!r} exceeds {SPATIAL_INPUT_TOL} at {tuple(p)}")
    fm = frame_matrix(structure, p)
    coeffs, _, rank, _ = np.linalg.lstsq(fm, v, rcond=None)
    if rank < structure.n:
        raise FrameDegenerate(f"frame rank {rank} < {structure.n} at {tuple(p)}")
    return coeffs


def inner(structure, v, w, p):
    """Spatial inner product of two spatial vectors at p."""
    cv = frame_decompose(structure, v, p)
    cw = frame_decompose(structure, w, p)
    return float(cv @ metric_matrix(structure, p) @ cw)


def fail_at_first(bad, points, error, what):
    """Raise `error` for the first point of a stack (..., m) at which `bad`
    (shape (...)) holds, naming it as the error's `point`."""
    bad = np.ravel(bad)
    if bad.any():
        k = int(np.argmax(bad))
        err = error(f"{what} at {tuple(np.reshape(points, (bad.size, -1))[k])}")
        err.point = k
        raise err


def basis_inverse(z_values, frame_values, points):
    """Inverse of the m x m matrix with columns (z, E_1..E_n) at each point.

    z_values (..., m) and frame_values (..., n, m) are the field values at
    points (..., m).  Rows 1..n give the spatial coefficients of any
    tangent vector; row 0 reproduces the clock form whenever the structure
    is valid.  A basis with |det| < BASIS_DET_TOL raises FrameDegenerate.
    """
    rows = np.concatenate([z_values[..., None, :], frame_values], axis=-2)
    basis = rows.swapaxes(-1, -2)
    fail_at_first(np.abs(np.linalg.det(basis)) < BASIS_DET_TOL, points,
                  FrameDegenerate, "adapted basis singular")
    return np.linalg.inv(basis)


def adapted_frame_inverse(structure, observer, p):
    """basis_inverse of the observer and the frame at p, shape (m,) or (..., m)."""
    v = compile_exprs({"z": observer.components, "frame": structure.frame})(p)
    return basis_inverse(v["z"], v["frame"], p)


def structure_entries(structure, observer, points=None):
    """Residual entries for every structure and observer invariant at
    `points`, by default the structure's sample points."""
    if points is None:
        points = structure.sample_points()
    stack = np.reshape(points, (-1, structure.dim))
    v = compile_exprs({"omega": structure.omega, "frame": structure.frame,
                       "z": observer.components, "h": structure.metric})(stack)
    ov, h = v["omega"][:, None, :], v["h"]  # ov: (N, 1, m), a row vector per point
    fm = np.swapaxes(v["frame"], -1, -2)
    # fmax, like max(0.0, x), ignores a NaN margin
    nonzero = np.fmax(0.0, CLOCK_NONZERO_MARGIN - np.max(np.abs(ov), axis=(1, 2)))
    annihilated = np.max(np.abs(ov @ fm), axis=(1, 2))
    normalized = np.abs((ov @ v["z"][:, :, None])[:, 0, 0] - 1.0)
    symmetry = np.max(np.abs(h - np.swapaxes(h, -1, -2)), axis=(1, 2))
    nondegenerate = np.fmax(0.0, METRIC_DET_MARGIN - np.abs(np.linalg.det(h)))
    smallest = np.linalg.svd(fm, compute_uv=False)[:, -1]
    rank_margin = np.fmax(0.0, FRAME_RANK_MARGIN - smallest)

    def entry(name, tolerance, residuals):
        return make_entry(name, tolerance, residuals, points)

    return [
        entry("clock form nonzero", 0.0, nonzero),
        entry("frame annihilated by clock form", SPATIAL_RESULT_TOL, annihilated),
        entry("observer normalization", SPATIAL_RESULT_TOL, normalized),
        entry("metric symmetry", 0.0, symmetry),
        entry("metric nondegenerate", 0.0, nondegenerate),
        entry("frame rank", 0.0, rank_margin),
    ]


def validate_structure(structure, observer, scenario_name=""):
    """Evaluate every structure invariant at the sampled points.

    Never raises; violations become failing report entries.
    """
    return CheckReport(scenario=scenario_name, seed=structure.rng_seed,
                       entries=structure_entries(structure, observer))
