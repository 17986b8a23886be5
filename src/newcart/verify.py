"""Named-residual checks: compatibility axioms, torsion-clock identity,
observable round trip, and finite-difference validation of symbolic
derivatives and of the builder's numeric spatial tensor derivatives, all
evaluated over the structure's sample points.

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
from .expr import (Coord, Const, differentiate, evaluate, is_constant, mul,
                   to_string)
from .geometry import (adapted_frame_inverse, eval_fields, eval_jacobian,
                       field_jacobian, metric_matrix, omega_of_field,
                       structure_entries)
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


def check_compatibility_omega(connection, structure, observer, points=None):
    """|X(w(Y)) - w(nabla_X Y)| over coordinate and seeded random fields."""
    if points is None:
        points = structure.sample_points()
    m = structure.dim
    fields = _coord_fields(m) + random_poly_fields(m, _check_field_seed(structure))
    tables = [field_jacobian(f) for f in fields]
    gammas, omegas, values, jacobians = [], [], [], []
    for p in points:
        memo = {}
        gammas.append(connection.christoffel(p))
        omegas.append(eval_fields(structure.omega, p, memo))
        values.append([eval_fields(f, p, memo) for f in fields])
        jacobians.append([eval_jacobian(t, p, memo) for t in tables])
    gammas, omegas = np.array(gammas), np.array(omegas)
    values, jacobians = np.array(values), np.array(jacobians)  # [point, field, ...]
    residuals, where = [], []
    for fx, x_field in enumerate(fields):
        for fy, y_field in enumerate(fields):
            lhs = geometry.directional_derivative(x_field, omega_of_field(structure, y_field))
            nab = nabla(gammas, jacobians[:, fy], values[:, fx], values[:, fy])
            clock = np.einsum("pk,pk->p", omegas, nab)
            for p, rhs in zip(points, clock):
                residuals.append(abs(evaluate(lhs, p) - float(rhs)))
                where.append(p)
    return make_entry("clock compatibility", CLOCK_TOL, residuals, where)


def check_compatibility_metric(connection, structure, observer, points=None):
    """|X<V,W> - <nabla_X V, W> - <V, nabla_X W>| on frame pairs.

    Covariant derivatives are projected onto the spatial frame before
    pairing, which is the identity precisely when clock compatibility
    holds and keeps the residual defined for arbitrary user-supplied
    coefficients.
    """
    if points is None:
        points = structure.sample_points()
    m, n = structure.dim, structure.n
    tables = [field_jacobian(f) for f in structure.frame]
    coord = np.eye(m)[:, None, :]  # X = d_i, broadcast over the frame fields
    states = []
    for p in points:
        memo = {}
        cof = adapted_frame_inverse(structure, observer, p, memo)[1:, :]
        frame_v = np.array([eval_fields(f, p, memo) for f in structure.frame])
        d_frame = np.array([eval_jacobian(t, p, memo) for t in tables])
        nab = nabla(connection.christoffel(p), d_frame, coord, frame_v)  # [i, a] = nabla_i E_a
        states.append((nab @ cof.T, metric_matrix(structure, p, memo)))
    residuals, where = [], []
    for i in range(m):
        for a in range(n):
            for b in range(a, n):
                lhs = differentiate(structure.metric[a][b], i)
                for p, (nc, h) in zip(points, states):
                    resid = abs(evaluate(lhs, p) - float(nc[i, a] @ h[:, b])
                                - float(h[a, :] @ nc[i, b]))
                    residuals.append(resid)
                    where.append(p)
    return make_entry("metric compatibility", METRIC_TOL, residuals, where)


def check_torsion_clock(connection, structure, points=None):
    """Clock component of the torsion against the clock form's differential."""
    if points is None:
        points = structure.sample_points()
    m = structure.dim
    dw = [[differentiate(structure.omega[j], i) for j in range(m)] for i in range(m)]
    residuals, where = [], []
    for p in points:
        memo = {}
        om = eval_fields(structure.omega, p, memo)
        gamma = connection.christoffel(p)
        for i in range(m):
            for j in range(i + 1, m):
                tor = gamma[:, i, j] - gamma[:, j, i]
                want = evaluate(dw[i][j], p, memo) - evaluate(dw[j][i], p, memo)
                residuals.append(abs(float(om @ tor) - want))
                where.append(p)
    return make_entry("torsion clock identity", TORSION_TOL, residuals, where)


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


def _stencils(points, box, i):
    """(p, p + h e_i, p - h e_i) for every point whose stencil stays in the box."""
    for p in points:
        if p[i] - FD_STEP < box[i][0] or p[i] + FD_STEP > box[i][1]:
            continue
        hi = np.array(p, dtype=float)
        lo = np.array(p, dtype=float)
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        yield p, hi, lo


def fd_validate(structure, observer=None, data=None, kit=None, points=None,
                catalog=None):
    """Central-difference check of every symbolic derivative in the catalog.

    With a connection kit, its numeric spatial tensor g is differenced too
    and compared with the kit's d_k g.  Residuals are normalized,
    |sym - fd| / max(1, |fd|), which matches the tolerance
    max(1e-6, 1e-6 |value|).  Points whose stencil leaves the domain box
    are skipped for that direction.
    """
    if points is None:
        points = structure.sample_points()
    if catalog is None:
        catalog = derivative_catalog(structure, observer, data)
    m = structure.dim
    box = structure.domain_box
    residuals, where = [], []
    for _label, base in catalog:
        if is_constant(base):
            continue
        for i in range(m):
            deriv = differentiate(base, i)
            for p, hi, lo in _stencils(points, box, i):
                try:
                    fd = (evaluate(base, hi) - evaluate(base, lo)) / (2.0 * FD_STEP)
                    sym = evaluate(deriv, p)
                except NewcartError:
                    continue
                residuals.append(abs(sym - fd) / max(1.0, abs(fd)))
                where.append(p)

    if kit is not None and not all(is_constant(e) for e in chain(
            kit.observer.components, *structure.frame, *structure.metric)):
        upper = np.triu_indices(m)
        for p in points:
            try:
                dg = kit.spatial_state(np.asarray(p, dtype=float))["dg"]
            except NewcartError:
                continue
            for i in range(m):
                for _, hi, lo in _stencils([p], box, i):
                    try:
                        fd = (kit.coframe_state(hi)["g"]
                              - kit.coframe_state(lo)["g"]) / (2.0 * FD_STEP)
                    except NewcartError:
                        continue
                    fd, sym = fd[upper], dg[i][upper]
                    residuals.extend((np.abs(sym - fd) / np.maximum(1.0, np.abs(fd))).tolist())
                    where.extend([p] * len(fd))
    return make_entry("derivative finite-difference check", FD_TOL, residuals, where)


def torsion_free_feasibility(structure, points=None):
    """Whether a symmetric compatible connection can exist at all.

    The clock component of any compatible torsion equals the clock
    form's differential, so the request is feasible only where that
    differential vanishes.
    """
    if points is None:
        points = structure.sample_points()
    m = structure.dim
    dw = [[differentiate(structure.omega[j], i) for j in range(m)] for i in range(m)]
    residuals, where = [], []
    for p in points:
        memo = {}
        worst = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                worst = max(worst, abs(evaluate(dw[i][j], p, memo)
                                       - evaluate(dw[j][i], p, memo)))
        residuals.append(worst)
        where.append(p)
    return make_entry("torsion-free feasibility (clock form must be closed)",
                      TORSION_TOL, residuals, where)


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
