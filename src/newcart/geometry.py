"""Kinematic layer: chart structure, observers, the adapted basis, validation.

A structure fixes one global chart with coordinates x^0..x^{m-1}, a
clock 1-form with components omega_i, a spanning frame E_1..E_n of the
clock form's kernel, and the Gram matrix h_ab of the spatial inner
product on that frame.  All coefficients are symbolic expressions, so
every first derivative used downstream is exact.  The observer z and
the frame are one table: `structure_inputs` gives the rows [c][k] = B_kc
of the adapted basis B = (z, E_1..E_n), z first, between omega and h,
and both `validate_structure` and the connection's program compile that
dict, so they walk the inputs in one order.  `structure_entries` is a
function of the values of omega, the rows and h at points, so it reads
any run that evaluates them; frame coefficients, projections and inner
products are read from `Connection.state`, which inverts B, the
transpose of the rows, with `basis_inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import DimensionMismatch, FrameDegenerate
from .expr import Expr
from .expr import compile as compile_exprs
from .report import CheckReport, make_entry

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
        """Uniform points in the domain box, reproducible from the seed, as
        one (sample_count, dim) array."""
        rng = np.random.Generator(np.random.PCG64(self.rng_seed))
        lo = np.array([b[0] for b in self.domain_box])
        hi = np.array([b[1] for b in self.domain_box])
        return lo + (hi - lo) * rng.random((self.sample_count, self.dim))


@dataclass(frozen=True)
class ObserverField:
    """Vector field normalized to 1 against the clock form."""

    components: tuple[Expr, ...]


def upper_pairs(n, diagonal=False):
    """Index arrays (i, j) of the pairs i < j of range(n), or i <= j with
    `diagonal`, in the order of np.triu_indices at a fifth of its cost."""
    pairs = (combinations_with_replacement if diagonal else combinations)(range(n), 2)
    return tuple(np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T)


def structure_inputs(structure, observer):
    """The input groups in walk order: omega, the rows [c][k] = B_kc of
    the adapted basis, c = (z, E_1..E_n), and h."""
    return {"omega": structure.omega, "rows": (observer.components, *structure.frame),
            "h": structure.metric}


def fail_at_first(bad, points, error, what):
    """Raise `error` for the first point of a stack (..., m) at which `bad`
    (shape (...)) holds, naming it as the error's `point`."""
    if np.count_nonzero(bad):  # cheaper than any() on a scalar or a short mask
        k = int(np.argmax(bad))
        err = error(f"{what} at {tuple(np.reshape(points, (bad.size, -1))[k].tolist())}")
        err.point = k
        raise err


def basis_singular(basis):
    """Where adapted bases (..., m, m), columns (z, E_1..E_n), are singular:
    |det| < BASIS_DET_TOL."""
    with np.errstate(invalid="ignore"):  # a NaN basis is not singular, and warns nothing
        return np.abs(np.linalg.det(basis)) < BASIS_DET_TOL


def basis_inverse(basis, points):
    """Inverse of the adapted bases at points (..., m), or FrameDegenerate.
    Rows 1..n give the spatial coefficients of any tangent vector; row 0
    reproduces the clock form whenever the structure is valid."""
    fail_at_first(basis_singular(basis), points, FrameDegenerate, "adapted basis singular")
    return np.linalg.inv(basis)


def structure_entries(values, points):
    """Residual entries for every structure and observer invariant at
    points (N, m), from the values there of omega (N, m), the rows
    (N, m, m) of the adapted basis, z then the frame, and h (N, n, n)."""
    ov, h = values["omega"][:, None, :], values["h"]  # ov: (N, 1, m), a row vector per point
    fm = np.swapaxes(values["rows"][:, 1:], -1, -2)
    # a NaN margin stays NaN, so the entry fails
    nonzero = np.maximum(0.0, CLOCK_NONZERO_MARGIN - np.max(np.abs(ov), axis=(1, 2)))
    annihilated = np.max(np.abs(ov @ fm), axis=(1, 2))
    normalized = np.abs((ov @ values["rows"][:, 0, :, None])[:, 0, 0] - 1.0)
    symmetry = np.max(np.abs(h - np.swapaxes(h, -1, -2)), axis=(1, 2))
    with np.errstate(invalid="ignore"):
        nondegenerate = np.maximum(0.0, METRIC_DET_MARGIN - np.abs(np.linalg.det(h)))
    smallest = np.full(len(fm), np.nan)  # svd does not converge on a non-finite frame
    finite = np.isfinite(fm).all(axis=(1, 2))
    smallest[finite] = np.linalg.svd(fm[finite], compute_uv=False)[:, -1]
    rank_margin = np.maximum(0.0, FRAME_RANK_MARGIN - smallest)
    return [make_entry(name, tolerance, residuals, points) for name, tolerance, residuals in (
        ("clock form nonzero", 0.0, nonzero),
        ("frame annihilated by clock form", SPATIAL_RESULT_TOL, annihilated),
        ("observer normalization", SPATIAL_RESULT_TOL, normalized),
        ("metric symmetry", 0.0, symmetry),
        ("metric nondegenerate", 0.0, nondegenerate),
        ("frame rank", 0.0, rank_margin))]


def validate_structure(structure, observer):
    """Evaluate every structure invariant at the sampled points.

    A violated invariant becomes a failing report entry.  An input that
    cannot be evaluated at a sample point is not a violation: the
    `DomainError` of the evaluation propagates, naming the point (for
    example h11 = 1 + sqrt(x) with x in [-1, 1]).
    """
    points = structure.sample_points()
    values = compile_exprs(structure_inputs(structure, observer))(points)
    return CheckReport(scenario="", seed=structure.rng_seed,
                       entries=structure_entries(values, points))
