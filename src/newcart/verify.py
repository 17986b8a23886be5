"""Named-residual checks: compatibility axioms, torsion-clock identity,
observable round trip, and finite-difference validation of the symbolic
derivative tables and of the builder's numeric spatial tensor
derivatives, all evaluated over the structure's sample points.  No
connection check compiles anything: each is a function of one
`Connection.state` at a stack of points, shape (N, m), which holds every
value they read.  The clock check's fields are coefficient arrays with
closed-form values, drawn once per report (`check_field_coeffs`) and
passed in, the same arrays the report prints; they are paired with one
m x m defect nabla w per point.  The round trip compares the observable
image with the data values the state holds.  The finite-difference check reads the derivative tables of
that state, the ones the connection's program compiles, so a wrong table
cannot pass by being differentiated afresh; it runs the program once
more, at the stencils only.  `run_all`'s structure stage runs the
connection's program once: the structure entries read its input values,
and the one state of all the checks is formed from the same run.  A clean
run has no masks; the FD check reads them only after a fault, and the
structure stage none: it names a faulted input through
`validate_structure`.

Tolerances: 1e-9 for algebraic identities, 1e-8 for metric
compatibility, and a normalized 1e-6 for finite differences.  They are
sized for double precision with exact symbolic derivatives and the
small per-point solves used by the builder.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .connection import build_connection, nabla, observable_map
from .expr import Const
from .geometry import basis_singular, structure_entries, upper_pairs, validate_structure
from .report import CheckReport, make_entry

CLOCK_TOL = 1e-9
METRIC_TOL = 1e-8
TORSION_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9
FD_TOL = 1e-6
FD_STEP = 1e-5
RANDOM_FIELD_COUNT = 5


def random_poly_coeffs(m, seed):
    """Seeded random vector fields with polynomial components of degree <= 2,
    as arrays (c, a, b): component k of field f is
    c[f, k] + a[f, k] @ x + x @ b[f, k] @ x, with b[f, k] upper triangular."""
    rng = np.random.Generator(np.random.PCG64(seed))
    i, j = upper_pairs(m, diagonal=True)
    # one draw per term, in the order of the terms of each component
    draws = rng.uniform(-1.0, 1.0, (RANDOM_FIELD_COUNT, m, 1 + m + len(i)))
    b = np.zeros((RANDOM_FIELD_COUNT, m, m, m))
    b[..., i, j] = draws[..., 1 + m:]
    return draws[..., 0], draws[..., 1:1 + m], b


def check_field_coeffs(structure):
    """The report's seeded check fields as random_poly_coeffs arrays
    (c, a, b), drawn once per report: a stream separate from the
    sample-point generator, still scenario-pinned."""
    return random_poly_coeffs(structure.dim, structure.rng_seed + 1)


def _check_field_strings(coeffs, names):
    """Fields (c, a, b) as to_string prints their sums of terms."""
    c, a, b = coeffs
    i, j = upper_pairs(len(names), diagonal=True)
    monomials = ["", *(f"*{x}" for x in names), *(f"*({names[p]}*{names[q]})"
                                                   for p, q in zip(i, j))]
    # tolist() gives Python floats: %r prints each term's shortest repr
    template = " + ".join("%r" + x for x in monomials)
    terms = np.concatenate([c[..., None], a, b[..., i, j]], axis=-1)  # [field, k, term]
    return tuple(tuple(template % tuple(component) for component in field)
                 for field in terms.tolist())


def _poly_values(coeffs, stack):
    """Values [point, field, k] of the polynomial fields (c, a, b) at a
    stack of points: x x^T is formed once per point, and each degree is
    one matmul against the coefficients."""
    c, a, b = coeffs
    n, m = stack.shape
    outer = (stack[:, :, None] * stack[:, None, :]).reshape(n, m * m)
    return (c + (stack @ a.reshape(-1, m).T).reshape(n, *c.shape)
            + (outer @ b.reshape(-1, m * m).T).reshape(n, *c.shape))


def check_compatibility_omega(state, coeffs):
    """|X(w(Y)) - w(nabla_X Y)| over the coordinate fields and the seeded
    random ones whose coefficients (c, a, b) the report drew once
    (`check_field_coeffs`), read as
    |(nabla_X w)(Y)| = |X^i (tau_ij - w_k Gamma^k_ij) Y^j|.

    With tau_ij = d_i w_j, the product rule gives X(w(Y)) =
    X^i tau_ij Y^j + X^i w_j d_i Y^j, and w(nabla_X Y) holds the same
    X^i w_j d_i Y^j, so the derivatives of the fields cancel exactly and
    only their values are read.
    """
    stack = state["p"]
    m = stack.shape[-1]
    # the coordinate fields d_i, then the random ones
    fields = [np.concatenate([coord, rand]) for coord, rand in zip(
        (np.eye(m), np.zeros((m, m, m)), np.zeros((m, m, m, m))), coeffs)]
    values = _poly_values(fields, stack)  # [point, field, k]
    # [point, i, j] = (nabla_i w)_j
    defect = state["tau"] - np.einsum("pk,pkij->pij", state["omega"], state["gamma"])
    residuals = np.abs(values @ defect @ np.swapaxes(values, -1, -2))  # [point, X, Y]
    return make_entry("clock compatibility", CLOCK_TOL, np.moveaxis(residuals, 0, -1), stack)


def check_compatibility_metric(state):
    """|X<V,W> - <nabla_X V, W> - <V, nabla_X W>| on frame pairs.

    Covariant derivatives are projected onto the spatial frame before
    pairing, which is the identity precisely when clock compatibility
    holds and keeps the residual defined for arbitrary user-supplied
    coefficients.
    """
    n, m = state["coframe"].shape[-2:]
    coord = np.eye(m)[:, None, :]  # X = d_i, broadcast over the frame fields
    # [point, i, a] = nabla_i E_a
    nab = nabla(state["gamma"][:, None, None], state["d_rows"][:, None, 1:], coord,
                state["rows"][:, None, 1:])
    # [point, i, a, b] = <nabla_i E_a, E_b>
    paired = nab @ np.swapaxes(state["coframe"], -1, -2)[:, None] @ state["h"][:, None]
    a, b = upper_pairs(n, diagonal=True)
    residuals = np.abs(state["dh"][:, :, a, b] - paired[:, :, a, b] - paired[:, :, b, a])
    return make_entry("metric compatibility", METRIC_TOL, np.moveaxis(residuals, 0, -1),
                      state["p"])


def check_torsion_clock(state):
    """Clock component of the torsion against the clock form's differential."""
    stack, gamma, tau = state["p"], state["gamma"], state["tau"]
    i, j = upper_pairs(stack.shape[-1])
    tor = np.moveaxis(gamma[:, :, i, j] - gamma[:, :, j, i], -1, 1)  # [point, pair, k]
    clock = (tor @ state["omega"][:, :, None])[..., 0]
    want = tau[:, i, j] - tau[:, j, i]
    residuals = np.abs(clock - want)  # [point, pair]
    return make_entry("torsion clock identity", TORSION_TOL, residuals, stack[:, None])


def check_roundtrip(state):
    """Per point, the largest |image - data| between the observable image
    of a built connection's state and the data in that state: over all of
    gravity, over coriolis at a < b and over theta at i < j."""
    image = observable_map(state)
    n, m = state["coframe"].shape[-2:]
    a, b = upper_pairs(n)
    i, j = upper_pairs(m)
    diffs = [image["gravity"] - state["gravity"],
             (image["coriolis"] - state["coriolis"])[:, a, b],
             (image["theta"] - state["theta"])[:, :, i, j].reshape(len(state["p"]), -1)]
    # a NaN deviation stays NaN, so the round trip fails there
    return make_entry("observable round trip", ROUNDTRIP_TOL,
                      np.max(np.abs(np.concatenate(diffs, axis=1)), axis=1, initial=0.0),
                      state["p"])


def _normalized(sym, up, down):
    """|sym - fd| / max(1, |fd|) for the central difference fd of the values
    up and down one step.  Masked stencils hold any value, so the
    arithmetic stays silent: only the kept residuals are read."""
    with np.errstate(all="ignore"):
        fd = (up - down) / (2.0 * FD_STEP)
        return np.abs(sym - fd) / np.maximum(1.0, np.abs(fd))


def fd_validate(connection, state):
    """Central-difference check of the derivative tables in a connection's
    state at a stack of points, shape (N, m), against the values at the
    2m stencils of each point, for every non-constant entry of four
    pairs: omega and tau, the rows of the adapted basis (z's entries,
    then the frame's) and d_rows, h and dh at a <= b, and, for a built
    connection whose z, frame or h is not constant, the numeric d_k g
    against the differenced spatial tensor g at i <= j.  The tables are
    the state's own, the ones the connection's program compiles.
    Residuals come pair by pair, each in (entry, direction, point) order.

    Residuals are normalized, |sym - fd| / max(1, |fd|), which matches
    the tolerance max(1e-6, 1e-6 |value|).  Points whose stencil leaves
    the domain box are skipped for that direction, and so are stencils at
    which any of the values needed is undefined; for g that is wherever
    any input of the connection's program is undefined or the adapted
    basis is singular.  The connection's program runs once, over the 2m
    stencils of every point, and there only the coframe and g = Q^T h Q
    are formed, at the stencils where g is defined.
    """
    structure, stack = connection.structure, state["p"]
    (n_points, m), n = stack.shape, structure.n
    lo, hi = np.array(structure.domain_box, dtype=float).reshape(m, 2).T
    inside = ((stack - FD_STEP >= lo) & (stack + FD_STEP <= hi)).T  # [direction, point]
    h = structure.metric
    # (group, its derivative table as [point, direction, flat entry], the flat
    # indices of its non-constant entries); the data are read as values only
    pairs = [(group, table, np.flatnonzero(varies)) for group, table, varies in (
        ("omega", state["tau"], [type(e) is not Const for e in structure.omega]),
        ("rows", state["d_rows"].reshape(n_points, m * m, m).swapaxes(1, 2),
         [type(e) is not Const for e in chain(connection.observer.components,
                                              *structure.frame)]),
        ("h", state["dh"].reshape(n_points, m, n * n),
         [a <= b and type(h[a][b]) is not Const for a in range(n) for b in range(n)]))]
    pairs = [pair for pair in pairs if pair[2].size]
    if not pairs:
        return make_entry("derivative finite-difference check", FD_TOL, [], stack)
    # stencil [i] and [m + i]: the points one step up and down direction i
    step = FD_STEP * np.eye(m)[:, None, :]
    # [stencil, point, ...]; a clean run has no masks
    value, undefined, _ = connection.program.run(np.concatenate([stack + step, stack - step]))
    masks = {} if undefined is None else dict(undefined)
    # the fourth pair, for a built connection whose z, frame or h is not constant
    if connection.is_built and any(group != "omega" for group, _, _ in pairs):
        basis = value["rows"].swapaxes(-1, -2)
        usable = ~basis_singular(basis)  # [stencil, point]
        for bad in masks.values():
            usable &= ~bad.reshape(bad.shape[:2] + (-1,)).any(axis=-1)
        coframe = np.linalg.inv(basis[usable])[:, 1:]
        g = np.empty(usable.shape + (m, m))
        g[usable] = coframe.swapaxes(-1, -2) @ value["h"][usable] @ coframe
        value = {**value, "g": g}
        masks["g"] = np.broadcast_to(~usable[..., None], usable.shape + (m * m,))
        pairs.append(("g", state["dg"].reshape(n_points, m, m * m),
                      np.flatnonzero([i <= j for i in range(m) for j in range(m)])))
    # per pair, values and undefined marks [entry, stencil, point], table [entry, direction, point]
    checked = []
    for group, table, entries in pairs:
        marks = masks.get(group, np.zeros(value[group].shape, dtype=bool))
        at, bad = (v.reshape(2 * m, n_points, -1).take(entries, -1).transpose(2, 0, 1)
                   for v in (value[group], marks))
        checked.append((at, bad, table.take(entries, -1).transpose(2, 1, 0)))
    at, bad, table = (np.concatenate(part) for part in zip(*checked))
    keep = inside & ~bad[:, :m] & ~bad[:, m:]
    return make_entry("derivative finite-difference check", FD_TOL,
                      _normalized(table, at[:, :m], at[:, m:])[keep],
                      np.broadcast_to(stack, keep.shape + (m,))[keep])


def torsion_free_feasibility(state):
    """Whether a symmetric compatible connection can exist at all, from a
    connection's state at a stack of points (N, m).

    The clock component of any compatible torsion equals the clock
    form's differential, so the request is feasible only where that
    differential vanishes.
    """
    tau = state["tau"]  # [point, i, j] = d_i w_j
    i, j = upper_pairs(tau.shape[-1])
    # |a - b| is symmetric; a NaN difference stays NaN, so the entry fails
    worst = np.max(np.abs(tau[:, i, j] - tau[:, j, i]), axis=1, initial=0.0)
    return make_entry("torsion-free feasibility (clock form must be closed)",
                      TORSION_TOL, worst, state["p"])


def structure_stage(connection):
    """(structure entries, state or None if an entry fails) from one run of
    the connection's program at its structure's sample points.  A faulted
    run raises what `validate_structure` raises, the error an undefined
    input alone raises; then a failing entry comes before the run's own
    error."""
    points = connection.structure.sample_points()
    values, _, error = connection.program.run(points)
    if error is not None:  # raises only for an input; other faults wait for state_of
        validate_structure(connection.structure, connection.observer)
    entries = structure_entries(values, points)
    if not all(entry.passed for entry in entries):
        return entries, None
    return entries, connection.state_of(values, points, error)


def run_all(structure, observer, data=None, connection=None, scenario_name="",
            expect_torsion_free=False):
    """Structure validation plus every connection check, one report.

    With `data`, the connection is built and the round trip included;
    with `connection`, its coefficients are verified instead, and the
    sample points, the seed, the check fields and the coordinate names
    all come from `connection.structure`.  Connection checks are skipped
    when the structure itself fails, so a corrupted scenario fails
    exactly at its defective entry.
    """
    if connection is None:
        connection = build_connection(structure, observer, data)
    structure = connection.structure
    # the structure entries and every connection check read one program run
    entries, state = structure_stage(connection)
    coeffs = check_field_coeffs(structure)
    report = CheckReport(scenario_name, structure.rng_seed, entries,
                         _check_field_strings(coeffs, structure.coord_names))
    if state is None:
        return report
    entries.append(fd_validate(connection, state))
    entries.append(check_compatibility_omega(state, coeffs))
    entries.append(check_compatibility_metric(state))
    entries.append(check_torsion_clock(state))
    if connection.is_built:
        entries.append(check_roundtrip(state))
    if expect_torsion_free:
        entries.append(torsion_free_feasibility(state))
    return report
