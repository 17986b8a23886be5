"""Compatible connections built from (gravity, Coriolis, spatial torsion) data.

The construction fixes an observer z and solves, at each point, the
Koszul-type relation that expresses twice the spatial inner product of
the covariant derivative against a spatial vector V.  Writing
X' = P(X), Y' = P(Y) for the spatial projections and A for the
alternation A(X,Y) = nabla_X Y - nabla_Y X, the relation is

    2<P(nabla_X Y), V> =
        X<Y', V> + Y<X', V> - V<X', Y'>
      + 2 w(X) w(Y) <G, V> + 2 w(X) om(Y', V) + 2 w(Y) om(X', V)
      + w(X) (<A(z, Y'), V> - <Y', A(z, V)>)
      - w(Y) (<A(z, X'), V> + <X', A(z, V)>)
      + <A(X', Y'), V> - <A(Y', V), X'> - <A(X', V), Y'>

with w the clock form, G the gravity data, om the Coriolis data, and
A assembled from the data as A(X,Y) = Theta(X,Y) + dw(X,Y) z + [X,Y].

Gamma is computed from this relation at X = d_i, Y = d_j and V = P d_l,
contracted with E_b^l.  There the A(z, .) terms cancel the bracket and
dz parts of A(P d_i, P d_j), the dw z parts pair to zero because the
spatial inner product annihilates z, and every w_l term vanishes against
the spatial E_b.  What is left needs only g_ij = <P d_i, P d_j>, its
first derivatives and the data:

    2<P(nabla_i d_j), E_b> =
        E_b^l (d_i g_jl + d_j g_il - d_l g_ij)
      + 2 w_i w_j (h G)_b + 2 w_i (Q^T om)_jb + 2 w_j (Q^T om)_ib
      + Theta^a_ij h_ab - (h Q)_ai Theta^a_jl E_b^l - (h Q)_aj Theta^a_il E_b^l

with Q the coframe.  The temporal part of the coefficients is forced by
clock compatibility: w_k Gamma^k_ij = d_i w_j.  The correctness contract
is not the printed formula but the verification suite: clock and metric
compatibility, the torsion-clock identity, and the data round trip must
all hold on every scenario.

Free fall reads only the spray Gamma^k_ij v^i v^j, so `spray_of`
contracts the reduced relation with X = Y = v before the solve, on a
state without Gamma that depends on the point alone
(`Connection.spray_state`, read by `Connection.spray_at`).  The
Theta^a_ij h_ab term is antisymmetric in (i, j) and drops out; with
w(v) = w_i v^i and tau(v, v) = v^i v^j d_i w_j what is left of
v^i v^j 2<P(nabla_i d_j), E_b> is

    r_b = E_b^l (2 v^i v^j d_i g_jl - v^i v^j d_l g_ij)
      + 2 w(v)^2 (h G)_b + 4 w(v) (Q v)^a om_ab - 2 (h Q v)_a Theta^a(v, E_b)

and Gamma^k_ij v^i v^j = z^k tau(v, v) + E_a^k c^a with 2 h c = r: one
n-vector per point is solved for instead of m^2 columns.

Only the user input and its first derivatives are symbolic.  Everything
downstream is numeric at each point: the coframe Q (rows 1..n of the
inverse of the adapted basis B = (z, E_1..E_n), which the program emits
once, as its rows [c][k] = B_kc and their derivatives [c][k][i] = d_i B_kc;
z and the frame are views of them), the spatial
tensor g = Q^T h Q, its derivatives from d_k(B^-1) = -B^-1 (d_k B) B^-1,
and small dense solves.  `Connection.state` evaluates all of it once over a
stack of points, and every check and observable reads that one state:
frame coefficients come from its coframe, the observable triple from
`observable_map`, and covariant derivatives from `nabla`.  Gamma itself,
`gamma_of`, is a function of the state's point values, so any data values
go in, the observable image of a state included; so is the spray,
`spray_of`.  Both solve through `solve_metric`, which holds the one guard
on a singular spatial metric.  A connection is one program and keeps no
values: a user table is that program's gamma group, so Gamma of either
kind is read from a fresh state at its own points, and a faulted run
names its lowest failing point, there the first fault in walk order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import geometry
from .errors import DimensionMismatch, MetricSingular
from .expr import ZERO, differentiate, neg
from .expr import compile as compile_exprs
from .geometry import structure_inputs, upper_pairs


def nabla(gamma, dy, x, y):
    """(nabla_X Y)^k = dY^k_i X^i + Gamma^k_ij X^i Y^j from point values.

    dy is the Jacobian [k, i] = d_i Y^k.  Leading axes broadcast, so one
    call covers one point, many points, or many directions at a point.
    """
    return (np.einsum("...ki,...i->...k", dy, x)
            + np.einsum("...kij,...i,...j->...k", gamma, x, y))


def spatial_state(values, points):
    """The values of one run of a connection's program at points (..., m),
    with p, the coframe Q (..., n, m), g = Q^T h Q and
    dg[..., k, i, j] = d_k g_ij added in place, from the program's rows of
    the adapted basis B and their derivatives, and d_k g = (d_k Q)^T h Q +
    Q^T (d_k h) Q + Q^T h (d_k Q)."""
    inverse = geometry.basis_inverse(values["rows"].swapaxes(-1, -2), points)
    coframe, h = inverse[..., 1:, :], values["h"]  # column j of Q decomposes P d_j
    values["p"], values["coframe"] = points, coframe
    values["g"] = coframe.swapaxes(-1, -2) @ h @ coframe
    inv_i = inverse[..., None, :, :]  # broadcast over the derivative index
    d_basis = np.ascontiguousarray(values["d_rows"].swapaxes(-1, -3))  # [..., i, k, c]
    d_coframe = -(inv_i @ d_basis @ inv_i)[..., 1:, :]  # (..., m, n, m)
    coframe_i = coframe[..., None, :, :]
    half = d_coframe.swapaxes(-1, -2) @ h[..., None, :, :] @ coframe_i
    values["dg"] = (half + half.swapaxes(-1, -2)
                    + coframe_i.swapaxes(-1, -2) @ values["dh"] @ coframe_i)
    return values


def gamma_of(state):
    """Adds gamma (..., m, m, m) in place to a state, from its omega, tau,
    rows, coframe, h, dg and any data values gravity, coriolis and theta
    (p names where h is singular), through rhs [..., i, j, b] =
    2<P(nabla_i d_j), E_b>."""
    omega, h, dg, rows = state["omega"], state["h"], state["dg"], state["rows"]
    frame_t = rows[..., 1:, :].swapaxes(-1, -2)
    q_t = state["coframe"].swapaxes(-1, -2)
    # [..., i, j, b] = E_b^l (d_i g_jl + d_j g_il - d_l g_ij)
    half = dg @ frame_t[..., None, :, :]
    dg_flat = dg.reshape(dg.shape[:-2] + (-1,)).swapaxes(-1, -2)  # [..., ij, l]
    rhs = half + half.swapaxes(-3, -2) - (dg_flat @ frame_t).reshape(half.shape)

    om_i, om_j = omega[..., :, None, None], omega[..., None, :, None]
    rhs += 2.0 * (om_i * om_j * (h @ state["gravity"][..., None])[..., None, None, :, 0])
    cor = q_t @ state["coriolis"]  # [..., j, b] = om(P d_j, E_b)
    rhs += 2.0 * (om_i * cor[..., None, :, :] + om_j * cor[..., :, None, :])

    m, n, lead = omega.shape[-1], h.shape[-1], omega.shape[:-1]
    theta = state["theta"] - state["theta"].swapaxes(-1, -2)  # [..., a, i, j] = Theta^a_ij
    rhs += (theta.reshape(lead + (n, m * m)).swapaxes(-1, -2) @ h).reshape(half.shape)
    # [..., i, j, b] = <P d_i, E_a> Theta^a(d_j, E_b)
    q_t_h = q_t @ h  # [..., j, b] = <P d_j, E_b>
    pairs = (q_t_h @ (theta @ frame_t[..., None, :, :]).reshape(lead + (n, m * n))
             ).reshape(half.shape)
    rhs = rhs - pairs - pairs.swapaxes(-3, -2)

    # [..., a, ij]: the frame coefficients of Gamma_ij
    c = solve_metric(state, rhs.reshape(lead + (m * m, n)).swapaxes(-1, -2))
    state["gamma"] = (rows[..., 0, :, None, None] * state["tau"][..., None, :, :]
                      + (frame_t @ c).reshape(lead + (m, m, m)))
    return state


def spray_of(state, v):
    """Gamma^k_ij v^i v^j (..., m) at a state's points for velocities v
    (..., m), from the contracted relation: the values gamma_of reads, and
    one solve per point for the frame coefficients of P(Gamma(v, v))."""
    h, rows, theta = state["h"], state["rows"], state["theta"]
    frame_t = rows[..., 1:, :].swapaxes(-1, -2)
    row, col = v[..., None, :], v[..., :, None]
    dgv = (state["dg"] @ col[..., None, :, :])[..., 0]  # [..., k, i] = d_k g_ij v^j
    w = row @ state["omega"][..., :, None]  # w(v)
    qv = row @ state["coframe"].swapaxes(-1, -2)  # [..., 0, a] = (Q v)^a
    # [..., a, j] = Theta^a(v, d_j)
    theta_v = (row[..., None, :, :] @ (theta - theta.swapaxes(-1, -2)))[..., 0, :]
    # [..., 0, b] = E_b^l (2 v^i v^j d_i g_jl - v^i v^j d_l g_ij - 2 (h Q v)_a Theta^a(v, d_l))
    r = (2.0 * (row @ dgv - qv @ h @ theta_v) - (dgv @ col).swapaxes(-1, -2)) @ frame_t
    r += 2.0 * w * (2.0 * (qv @ state["coriolis"]) + w * (state["gravity"][..., None, :] @ h))
    c = solve_metric(state, r.swapaxes(-1, -2))  # [..., a, 0]
    return rows[..., 0, :] * (row @ state["tau"] @ col)[..., 0] + (frame_t @ c)[..., 0]


def solve_metric(state, rhs):
    """c with 2 h c = rhs (..., n, k) at every point of a state, or
    MetricSingular at the first of its points p where |det h| <=
    geometry.METRIC_DET_MARGIN, the margin of the structure's
    nondegeneracy entry."""
    h = state["h"]
    with np.errstate(invalid="ignore"):  # a NaN h gives a NaN Gamma, not a warning
        det = np.linalg.det(h)
    geometry.fail_at_first(np.abs(det) <= geometry.METRIC_DET_MARGIN, state["p"],
                           MetricSingular, "spatial metric singular")
    return np.linalg.solve(2.0 * h, rhs)


@dataclass(frozen=True, eq=False)
class ConnectionData:
    """Coordinates of a connection under the observable map.

    gravity: n frame components.  coriolis: strict upper triangle
    {(a, b): expr} with a < b, extended antisymmetrically.  theta:
    {(a, i, j): expr} with coordinate indices i < j, extended
    antisymmetrically in (i, j).  All indices are 0-based; a connection
    raises DimensionMismatch for data that do not fit its chart.
    """

    gravity: tuple
    coriolis: object
    theta: object

    def __post_init__(self):
        for (a, b) in self.coriolis:
            if not a < b:
                raise DimensionMismatch("coriolis keys must have a < b")
        for (_, i, j) in self.theta:
            if not i < j:
                raise DimensionMismatch("theta keys must have i < j")
        object.__setattr__(self, "coriolis", MappingProxyType(dict(self.coriolis)))
        object.__setattr__(self, "theta", MappingProxyType(dict(self.theta)))

    @classmethod
    def zero(cls, n):
        return cls(tuple(ZERO for _ in range(n)), {}, {})

    def coriolis_entry(self, a, b):
        if a == b:
            return ZERO
        if a < b:
            return self.coriolis.get((a, b), ZERO)
        return neg(self.coriolis.get((b, a), ZERO))


class Connection:
    """The geometric state of a connection, and its coefficients Gamma^k_ij.

    Convention: nabla_{d_i} d_j = Gamma^k_ij d_k; the lower index pair
    need not be symmetric.  A connection is of one of two kinds: built
    from `data`, zero data when none are given (`is_built`), or a user
    table `gamma_exprs`, which has no data; giving both raises ValueError.
    Either kind is one program, walked in this order: the input groups
    omega, rows and h, as `structure_inputs` gives them (rows [c][k] =
    B_kc is the adapted basis, c = (z, E_1..E_n)); a user table's gamma;
    the symbolic first derivatives d_rows [c][k][i] = d_i B_kc, dh and
    tau = d omega, the tables the finite-difference check validates; and
    a built connection's data.  Each entry is one output; z is
    rows[..., 0, :] and the frame rows[..., 1:, :].  `state` runs it once
    over points of shape (..., m), and `state_of` that run raises the
    run's error, the lowest failing point's first fault in walk order, or
    returns every value the checks and the observables read,
    `spatial_state`'s and Gamma's, with the same leading axes; so a state
    fails wherever any input, the table included, is undefined.  The data
    enter the state as point values only: gravity (..., n), coriolis
    (..., n, n) and theta (..., n, m, m), the layout `observable_map`
    returns.  A built connection's Gamma comes from the reduced relation
    of the module docstring: with coordinate fields and a spatial test
    vector its A terms reduce to the Theta data, so no alternation term
    is formed.

    `christoffel` takes one point (m,) and returns (m, m, m), or a stack
    of points (..., m) and returns (..., m, m, m) in one batched
    evaluation: `state(p)["gamma"]` for either kind.  Each call computes a
    fresh array at its own points, constant inputs included: nothing is
    cached beyond the compiled program, so memory does not grow with the
    number of points asked for.

    `spray(x, v)` takes points x and velocities v (..., m) and returns
    Gamma^k_ij v^i v^j (..., m), all free fall reads, as
    `spray_at(spray_state(x), v)`: `spray_state` is the program run and
    `spatial_state`, as in `state`, and `spray_at` is `spray_of`, so no
    Gamma table is formed, or a user table's contraction.  It raises what
    `christoffel` raises at the same points.
    """

    def __init__(self, structure, observer, data=None, gamma_exprs=None):
        self.structure = structure
        self.observer = observer
        m, n = structure.dim, structure.n
        if gamma_exprs is None:  # built, from zero data when none are given
            data = ConnectionData.zero(n) if data is None else data
            if len(data.gravity) != n:
                raise DimensionMismatch(f"gravity needs {n} components")
            if any(not 0 <= a < b < n for a, b in data.coriolis):
                raise DimensionMismatch(f"coriolis indices must lie in 0..{n - 1}")
            if any(not (0 <= a < n and 0 <= i < j < m) for a, i, j in data.theta):
                raise DimensionMismatch(f"theta indices must lie in 0..{n - 1} and 0..{m - 1}")
        elif data is not None:
            raise ValueError("a connection takes data or a Christoffel table, not both")
        elif not (len(gamma_exprs) == m and all(
                len(plane) == m and all(len(row) == m for row in plane) for plane in gamma_exprs)):
            raise DimensionMismatch(f"Christoffel table must be {m}x{m}x{m}")
        self.data, self.gamma_exprs = data, gamma_exprs
        self.d_rows = [[[differentiate(e, i) for i in range(m)] for e in row]
                       for row in structure_inputs(structure, observer)["rows"]]
        self.dh = [[[differentiate(structure.metric[a][b], i) for b in range(n)]
                    for a in range(n)] for i in range(m)]
        self.tau = [[differentiate(structure.omega[j], i) for j in range(m)] for i in range(m)]

    @property
    def is_built(self):
        return self.gamma_exprs is None

    @cached_property
    def program(self):
        m, n, data = self.structure.dim, self.structure.n, self.data
        # the input first, in validate_structure's order: a fault names the same
        # node; then a user table, so its fault comes before a derivative's
        inputs = structure_inputs(self.structure, self.observer)
        derivatives = {"d_rows": self.d_rows, "dh": self.dh, "tau": self.tau}
        if not self.is_built:
            return compile_exprs({**inputs, "gamma": self.gamma_exprs, **derivatives})
        return compile_exprs({
            **inputs, **derivatives, "gravity": data.gravity,
            "coriolis": [[data.coriolis_entry(a, b) for b in range(n)] for a in range(n)],
            # theta[a][i][j] for i < j only: Theta^a_ij = theta[a][i][j] - theta[a][j][i]
            "theta": [[[data.theta.get((a, i, j), ZERO) for j in range(m)]
                       for i in range(m)] for a in range(n)]})

    def state(self, points=None):
        """`state_of` one program run at `points`, by default the structure's
        sample points."""
        points = np.asarray(self.structure.sample_points() if points is None else points,
                            dtype=float)
        values, _, error = self.program.run(points)
        return self.state_of(values, points, error)

    def state_of(self, values, points, error):
        """spatial_state of `values`, from a program run at points (..., m)
        that raised `error` (None for a clean run), with gamma_of's Gamma
        for a built connection; a user table's is its run's gamma group."""
        if error is not None:
            raise error
        state = spatial_state(values, points)
        return gamma_of(state) if self.is_built else state

    def christoffel(self, p):
        return self.state(p)["gamma"]

    def spray_state(self, x):
        """One program run at points x (..., m), raising its error, and
        `spatial_state`: what `spray_at` reads, a user table's gamma included."""
        x = np.asarray(x, dtype=float)
        values, _, error = self.program.run(x)
        if error is not None:
            raise error
        return spatial_state(values, x)

    def spray_at(self, state, v):
        """Gamma^k_ij v^i v^j at the points of a `spray_state`, for v (..., m)."""
        v = np.asarray(v, dtype=float)
        if self.is_built:
            return spray_of(state, v)
        return np.einsum("...kij,...i,...j->...k", state["gamma"], v, v)

    def spray(self, x, v):
        return self.spray_at(self.spray_state(x), v)


def build_connection(structure, observer, data=None):
    """Construct the compatible connection determined by the data triple,
    zero data when none are given."""
    return Connection(structure, observer, data=data)


def connection_from_exprs(structure, observer, gamma_exprs):
    """Wrap user-supplied Christoffel expressions for verification workflows."""
    return Connection(structure, observer, gamma_exprs=gamma_exprs)


def observable_map(state):
    """The observable triple of a connection from its state at a stack of
    points, shape (N, m), in the layout of the state's own data: gravity
    (N, n) holds the frame coefficients of nabla_z z, coriolis (N, n, n)
    the antisymmetric <nabla_{E_a} z, E_b>, and theta (N, n, m, m) the frame
    coefficients of P(Tor(d_i, d_j)) at i < j and 0 elsewhere.  So
    `{**state, **observable_map(state)}` is a state whose data are the image."""
    coframe, gamma, rows = state["coframe"], state["gamma"], state["rows"]
    n, m = coframe.shape[-2:]

    # nabla_z z, then nabla_{E_a} z for every frame direction: the rows are the directions
    nz = nabla(gamma[:, None], state["d_rows"][:, :1], rows, rows[:, :1])  # (N, 1 + n, m)
    coeff_nz = coframe @ np.swapaxes(nz[:, 1:], -1, -2)  # column a decomposes nabla_{E_a} z
    pairing = np.swapaxes(coeff_nz, -1, -2) @ state["h"]  # [a, b] = <nabla_{E_a} z, E_b>

    i, j = upper_pairs(m)
    theta = np.zeros((len(gamma), n, m, m))
    theta[:, :, i, j] = coframe @ (gamma[:, :, i, j] - gamma[:, :, j, i])
    return {"gravity": (coframe @ nz[:, 0, :, None])[..., 0],
            "coriolis": 0.5 * (pairing - np.swapaxes(pairing, -1, -2)),
            "theta": theta}
