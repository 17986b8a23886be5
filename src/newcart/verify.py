"""Named-residual checks: compatibility axioms, torsion-clock identity,
observable round trip, and finite-difference validation of symbolic
derivatives and of the builder's numeric spatial tensor derivatives, all
evaluated over the structure's sample points.  Each check compiles its
expressions into one program and evaluates it, and the connection, over
all its points at once.

Tolerances: 1e-9 for algebraic identities, 1e-8 for metric
compatibility, and a normalized 1e-6 for finite differences.  They are
sized for double precision with exact symbolic derivatives and the
small per-point solves used by the builder.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import geometry
from .connection import ConnectionData, build_connection, nabla, observable_map
from .errors import NewcartError
from .expr import (Coord, Const, differentiate, is_constant, mul, sum_exprs,
                   to_string)
from .expr import compile as compile_exprs
from .geometry import field_jacobian, omega_of_field, structure_entries
from .report import CheckReport, make_entry

CLOCK_TOL = 1e-9
METRIC_TOL = 1e-8
TORSION_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9
FD_TOL = 1e-6
FD_STEP = 1e-5
RANDOM_FIELD_COUNT = 5


def _coord_fields(m):
    return [tuple(Const(1.0 if k == i else 0.0) for k in range(m)) for i in range(m)]


def random_poly_fields(m, seed, count=RANDOM_FIELD_COUNT):
    """Seeded random vector fields with polynomial components of degree <= 2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fields = []
    for _ in range(count):
        comps = []
        for _k in range(m):
            e = Const(float(rng.uniform(-1.0, 1.0)))
            for i in range(m):
                e = e + mul(Const(float(rng.uniform(-1.0, 1.0))), Coord(i))
            for i in range(m):
                for j in range(i, m):
                    c = Const(float(rng.uniform(-1.0, 1.0)))
                    e = e + mul(c, mul(Coord(i), Coord(j)))
            comps.append(e)
        fields.append(tuple(comps))
    return fields


def _check_field_seed(structure):
    # separate stream from the sample-point generator, still scenario-pinned
    return structure.rng_seed + 1


def _stack(structure, points):
    """The sample points (or `points`) as one (N, m) array."""
    if points is None:
        points = structure.sample_points()
    return np.reshape(points, (-1, structure.dim))


def _residuals(values):
    """Flat residual list, last axis varying fastest."""
    return np.ravel(values).tolist()


def check_compatibility_omega(connection, structure, observer, points=None):
    """|X(w(Y)) - w(nabla_X Y)| over coordinate and seeded random fields."""
    stack = _stack(structure, points)
    m = structure.dim
    fields = _coord_fields(m) + random_poly_fields(m, _check_field_seed(structure))
    # X(w(Y)) as geometry.directional_derivative builds it, with the
    # derivatives of each w(Y) built once for every X
    d_clock = [[differentiate(omega_of_field(structure, y), i) for i in range(m)]
               for y in fields]
    v = compile_exprs({
        "omega": structure.omega, "values": fields,
        "jacobians": [field_jacobian(f) for f in fields],
        "lhs": [[sum_exprs(mul(x[i], dy[i]) for i in range(m)) for dy in d_clock]
                for x in fields],
    })(stack)
    values = v["values"]  # [point, field, k]
    gamma = connection.christoffel(stack)[:, None, None]
    # [point, X, Y] = nabla_X Y
    nab = nabla(gamma, v["jacobians"][:, None], values[:, :, None], values[:, None, :])
    clock = np.einsum("pk,pxyk->pxy", v["omega"], nab)
    residuals = np.abs(v["lhs"] - clock)  # [point, X, Y]
    return make_entry("clock compatibility", CLOCK_TOL,
                      _residuals(np.moveaxis(residuals, 0, -1)),
                      np.tile(stack, (len(fields) ** 2, 1)))


def check_compatibility_metric(connection, structure, observer, points=None):
    """|X<V,W> - <nabla_X V, W> - <V, nabla_X W>| on frame pairs.

    Covariant derivatives are projected onto the spatial frame before
    pairing, which is the identity precisely when clock compatibility
    holds and keeps the residual defined for arbitrary user-supplied
    coefficients.
    """
    stack = _stack(structure, points)
    m, n = structure.dim, structure.n
    v = compile_exprs({
        "z": observer.components, "frame": structure.frame, "h": structure.metric,
        "d_frame": [field_jacobian(f) for f in structure.frame],
        "dh": [[[differentiate(structure.metric[a][b], i) for b in range(n)]
                for a in range(n)] for i in range(m)],
    })(stack)
    cof = geometry.basis_inverse(v["z"], v["frame"], stack)[:, 1:, :]
    coord = np.eye(m)[:, None, :]  # X = d_i, broadcast over the frame fields
    gamma = connection.christoffel(stack)[:, None, None]
    # [point, i, a] = nabla_i E_a
    nab = nabla(gamma, v["d_frame"][:, None], coord, v["frame"][:, None])
    # [point, i, a, b] = <nabla_i E_a, E_b>
    paired = nab @ np.swapaxes(cof, -1, -2)[:, None] @ v["h"][:, None]
    a, b = np.triu_indices(n)
    residuals = np.abs(v["dh"][:, :, a, b] - paired[:, :, a, b] - paired[:, :, b, a])
    return make_entry("metric compatibility", METRIC_TOL,
                      _residuals(np.moveaxis(residuals, 0, -1)),
                      np.tile(stack, (m * len(a), 1)))


def check_torsion_clock(connection, structure, points=None):
    """Clock component of the torsion against the clock form's differential."""
    stack = _stack(structure, points)
    m = structure.dim
    v = compile_exprs({"omega": structure.omega, "dw": _clock_differential(structure)})(stack)
    gamma = connection.christoffel(stack)
    i, j = np.triu_indices(m, 1)
    tor = np.moveaxis(gamma[:, :, i, j] - gamma[:, :, j, i], -1, 1)  # [point, pair, k]
    clock = (tor @ v["omega"][:, :, None])[..., 0]
    want = v["dw"][:, i, j] - v["dw"][:, j, i]
    residuals = np.abs(clock - want)  # [point, pair]
    return make_entry("torsion clock identity", TORSION_TOL, _residuals(residuals),
                      np.repeat(stack, len(i), axis=0))


def _clock_differential(structure):
    """Symbolic table [i][j] = d_i w_j."""
    m = structure.dim
    return [[differentiate(structure.omega[j], i) for j in range(m)] for i in range(m)]


def check_roundtrip(structure, observer, data, connection=None, points=None):
    """Rebuild the data triple from the built connection and compare."""
    if connection is None:
        connection = build_connection(structure, observer, data)
    image = observable_map(connection, observer, points=points)
    deviations = image.deviations(data, structure)
    return make_entry("observable round trip", ROUNDTRIP_TOL,
                      list(deviations), image.points)


def derivative_catalog(structure, observer=None, data=None):
    """Every named coefficient whose symbolic derivatives the pipeline uses."""
    names = structure.coord_names
    catalog = []
    for i, e in enumerate(structure.omega):
        catalog.append((f"omega[{names[i]}]", e))
    if observer is not None:
        for k, e in enumerate(observer.components):
            catalog.append((f"z[{names[k]}]", e))
    for a, f in enumerate(structure.frame):
        for k, e in enumerate(f):
            catalog.append((f"frame{a + 1}[{names[k]}]", e))
    n = structure.n
    for a in range(n):
        for b in range(a, n):
            catalog.append((f"h{a + 1}{b + 1}", structure.metric[a][b]))
    if data is not None:
        for a, e in enumerate(data.gravity):
            catalog.append((f"gravity{a + 1}", e))
        for (a, b), e in sorted(data.coriolis.items()):
            catalog.append((f"coriolis{a + 1}{b + 1}", e))
        for (a, i, j), e in sorted(data.theta.items()):
            catalog.append((f"torsion{a + 1}[{i}{j}]", e))
    return catalog


def _where_defined(run, count):
    """Indices 0..count-1 at which `run` raises no NewcartError, and its result there.

    `run` evaluates at an index array; an error names its failing point by
    position in that array, which is then left out and the rest run again.
    """
    kept = np.arange(count)
    while True:
        try:
            return kept, run(kept)
        except NewcartError as err:
            if err.point is None:
                raise
            kept = np.delete(kept, err.point)


def _normalized(sym, fd):
    return np.abs(sym - fd) / np.maximum(1.0, np.abs(fd))


def fd_validate(structure, observer=None, data=None, kit=None, points=None,
                catalog=None):
    """Central-difference check of every symbolic derivative in the catalog.

    With a connection kit, its numeric spatial tensor g is differenced too
    and compared with the kit's d_k g.  Residuals are normalized,
    |sym - fd| / max(1, |fd|), which matches the tolerance
    max(1e-6, 1e-6 |value|).  Points whose stencil leaves the domain box
    are skipped for that direction, and so are stencils at which any of
    the values needed cannot be evaluated.
    """
    stack = _stack(structure, points)
    if catalog is None:
        catalog = derivative_catalog(structure, observer, data)
    m = structure.dim
    lo, hi = np.array(structure.domain_box, dtype=float).reshape(m, 2).T
    inside = (stack - FD_STEP >= lo) & (stack + FD_STEP <= hi)  # [point, direction]

    def shifted(centres, directions, sign):
        out = centres.copy()
        out[np.arange(len(out)), directions] += sign * FD_STEP
        return out

    residuals, where = [], []
    for _label, base in catalog:
        if is_constant(base):
            continue
        value = compile_exprs(base)
        for i in range(m):
            deriv = compile_exprs(differentiate(base, i))
            centres = stack[inside[:, i]]
            up, down = shifted(centres, i, 1.0), shifted(centres, i, -1.0)
            kept, (vu, vd, sym) = _where_defined(
                lambda s: (value(up[s]), value(down[s]), deriv(centres[s])), len(centres))
            residuals += _normalized(sym, (vu - vd) / (2.0 * FD_STEP)).tolist()
            where += list(centres[kept])

    if kit is not None and not all(is_constant(e) for e in chain(
            kit.observer.components, *structure.frame, *structure.metric)):
        kept, dg = _where_defined(lambda s: kit.spatial_state(stack[s])["dg"], len(stack))
        q, i = np.nonzero(inside[kept])  # stencils, point by point, then direction
        centres = stack[kept][q]
        up, down = shifted(centres, i, 1.0), shifted(centres, i, -1.0)
        ok, (gu, gd) = _where_defined(
            lambda s: (kit.coframe_state(up[s])["g"], kit.coframe_state(down[s])["g"]), len(q))
        upper = (slice(None),) + np.triu_indices(m)
        fd = ((gu - gd) / (2.0 * FD_STEP))[upper]
        sym = dg[q[ok], i[ok]][upper]
        residuals += _residuals(_normalized(sym, fd))
        where += list(np.repeat(centres[ok], fd.shape[1], axis=0))
    return make_entry("derivative finite-difference check", FD_TOL, residuals, where)


def torsion_free_feasibility(structure, points=None):
    """Whether a symmetric compatible connection can exist at all.

    The clock component of any compatible torsion equals the clock
    form's differential, so the request is feasible only where that
    differential vanishes.
    """
    stack = _stack(structure, points)
    dw = compile_exprs(_clock_differential(structure))(stack)
    i, j = np.triu_indices(structure.dim, 1)
    # fmax, like max(worst, x), passes over a NaN difference
    worst = np.fmax.reduce(np.abs(dw[:, i, j] - dw[:, j, i]), axis=1, initial=0.0)
    return make_entry("torsion-free feasibility (clock form must be closed)",
                      TORSION_TOL, worst.tolist(), stack)


def run_all(structure, observer, data=None, connection=None, scenario_name="",
            expect_torsion_free=False):
    """Structure validation plus every connection check, one report.

    With `data`, the connection is built and the round trip included;
    with `connection`, the supplied coefficients are verified instead.
    Connection checks are skipped when the structure itself fails, so a
    corrupted scenario fails exactly at its defective entry.
    """
    entries = structure_entries(structure, observer)
    fields = random_poly_fields(structure.dim, _check_field_seed(structure))
    report = CheckReport(
        scenario=scenario_name,
        seed=structure.rng_seed,
        entries=entries,
        check_fields=tuple(tuple(to_string(c, structure.coord_names) for c in f)
                           for f in fields),
    )
    if not report.passed:
        return report

    points = structure.sample_points()
    if connection is None:
        if data is None:
            data = ConnectionData.zero(structure.n)
        connection = build_connection(structure, observer, data)
        entries.append(fd_validate(structure, observer, data,
                                   kit=connection._kit, points=points))
    else:
        entries.append(fd_validate(structure, observer, data, points=points))
    entries.append(check_compatibility_omega(connection, structure, observer, points))
    entries.append(check_compatibility_metric(connection, structure, observer, points))
    entries.append(check_torsion_clock(connection, structure, points))
    if connection.is_built and connection.data is not None:
        entries.append(check_roundtrip(structure, observer, connection.data,
                                       connection=connection, points=points))
    if expect_torsion_free:
        entries.append(torsion_free_feasibility(structure, points))
    return report
