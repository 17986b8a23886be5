"""Compatible connections built from (gravity, Coriolis, spatial torsion) data.

The construction fixes an observer z and solves, at each point, the
Koszul-type relation that expresses twice the spatial inner product of
the covariant derivative against a frame field.  Writing X' = P(X),
Y' = P(Y) for the spatial projections and A for the alternation
A(X,Y) = nabla_X Y - nabla_Y X, the relation used here is

    2<P(nabla_X Y), V> =
        X<Y', V> + Y<X', V> - V<X', Y'>
      + 2 w(X) w(Y) <G, V> + 2 w(X) om(Y', V) + 2 w(Y) om(X', V)
      + w(X) (<A(z, Y'), V> - <Y', A(z, V)>)
      - w(Y) (<A(z, X'), V> + <X', A(z, V)>)
      + <A(X', Y'), V> - <A(Y', V), X'> - <A(X', V), Y'>

with w the clock form, G the gravity data, om the Coriolis data, and
A assembled from the data as A(X,Y) = Theta(X,Y) + dw(X,Y) z + [X,Y].
The temporal part of the coefficients is forced by clock compatibility:
w_k Gamma^k_ij = d_i w_j.  The correctness contract is not the printed
formula but the verification suite: clock and metric compatibility, the
torsion-clock identity, and the data round trip must all hold on every
scenario.

Only the user input and its first derivatives are symbolic.  Everything
downstream is numeric at each point: the coframe Q (rows 1..n of the
inverse of the adapted basis B = (z, E_1..E_n)), the spatial tensor
g = Q^T h Q with g_ij = <P d_i, P d_j>, its derivatives from
d_k(B^-1) = -B^-1 (d_k B) B^-1, the alternation terms from the values
and Jacobians of the fields they act on, and small dense solves.  The
symbolic `alternation_field` stays public as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import geometry
from .errors import DimensionMismatch, MetricSingular, NotSpatial
from .expr import (ZERO, differentiate, is_constant, mul, neg, sub,
                   sum_exprs)
from .expr import compile as compile_exprs
from .geometry import eval_fields, field_jacobian, lie_bracket

METRIC_DET_TOL = 1e-10


def nabla(gamma, dy, x, y):
    """(nabla_X Y)^k = dY^k_i X^i + Gamma^k_ij X^i Y^j from point values.

    dy is the Jacobian [k, i] = d_i Y^k.  Leading axes broadcast, so one
    call covers one point, many points, or many directions at a point.
    """
    return (np.einsum("...ki,...i->...k", dy, x)
            + np.einsum("...kij,...i,...j->...k", gamma, x, y))


@dataclass(frozen=True, eq=False)
class ConnectionData:
    """Coordinates of a connection under the observable map.

    gravity: n frame components.  coriolis: strict upper triangle
    {(a, b): expr} with a < b, extended antisymmetrically.  theta:
    {(a, i, j): expr} with coordinate indices i < j, extended
    antisymmetrically in (i, j).  All indices are 0-based.
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

    def theta_entry(self, a, i, j):
        if i == j:
            return ZERO
        if i < j:
            return self.theta.get((a, i, j), ZERO)
        return neg(self.theta.get((a, j, i), ZERO))


def alternation_field(structure, observer, data, x_field, y_field):
    """Symbolic components of A(X,Y) = Theta(X,Y) + dw(X,Y) z + [X,Y]."""
    m, n = structure.dim, structure.n
    dom = ZERO
    for i in range(m):
        for j in range(m):
            dwij = differentiate(structure.omega[j], i)
            dom = dom + mul(dwij, sub(mul(x_field[i], y_field[j]),
                                      mul(y_field[i], x_field[j])))
    theta_coeffs = [ZERO] * n
    for (a, i, j) in sorted(data.theta):
        ex = data.theta[(a, i, j)]
        theta_coeffs[a] = theta_coeffs[a] + mul(
            ex, sub(mul(x_field[i], y_field[j]), mul(x_field[j], y_field[i])))
    bracket = lie_bracket(x_field, y_field)
    comps = []
    for k in range(m):
        spatial = sum_exprs(mul(theta_coeffs[a], structure.frame[a][k]) for a in range(n))
        comps.append(spatial + mul(dom, observer.components[k]) + bracket[k])
    return tuple(comps)


def alternation_at(structure, observer, data, x_field, y_field, p):
    """Pointwise value of A(X,Y) at p."""
    return eval_fields(alternation_field(structure, observer, data, x_field, y_field), p)


class _ConnectionKit:
    """The geometric state of a connection: the input and its symbolic first
    derivatives, compiled into one program and evaluated numerically over
    stacks of points.  Gamma, the checks and the observables all read it.

    Only z, the frame, h, the clock form, the data and the first
    derivatives dz, d_frame, dh and tau = d omega are compiled.  The
    alternation terms A(X, Y) = Theta(X, Y) + dw(X, Y) z + [X, Y] on the
    fields z, P d_j = d_j - w_j z and E_a are then computed from these
    point values, with the Jacobian of P d_j taken as
    d_i (P d_j)^k = -tau_ij z^k - w_j d_i z^k.

    Every state method takes points of shape (..., m) and returns arrays
    with the same leading axes.
    """

    # symbolic derivative tables compiled into the program after the input
    TABLES = ("dz", "d_frame", "dh", "tau")

    def __init__(self, structure, observer, data):
        self.structure = structure
        self.observer = observer
        self.data = data
        m, n = structure.dim, structure.n
        self.m, self.n = m, n
        omega = structure.omega
        z = observer.components

        self.dz = field_jacobian(z)
        self.d_frame = [field_jacobian(f) for f in structure.frame]
        self.dh = [[[differentiate(structure.metric[a][b], i) for b in range(n)]
                    for a in range(n)] for i in range(m)]
        self.tau = [[differentiate(omega[j], i) for j in range(m)] for i in range(m)]
        # (X, Y) pairs over the stacked fields z, P d_0..P d_{m-1}, E_1..E_n:
        # (z, P d_j), (z, E_a), (P d_i, P d_j), (P d_j, E_a)
        p, e = range(1, m + 1), range(m + 1, m + n + 1)
        self._pairs = np.array([(0, j) for j in p] + [(0, a) for a in e]
                               + [(i, j) for i in p for j in p]
                               + [(j, a) for j in p for a in e]).T
        self.all_constant = all(is_constant(e) for e in chain(
            omega, z, *structure.frame, *structure.metric, data.gravity,
            data.coriolis.values(), data.theta.values()))

    def __setattr__(self, name, value):
        # a replaced table must reach the numbers: compile again on next use
        super().__setattr__(name, value)
        if name in self.TABLES:
            self.__dict__.pop("program", None)

    @cached_property
    def program(self):
        """Groups in the order the states need them: coframe_state runs
        the program up to "h", spatial_state up to "dh"."""
        S, data, m, n = self.structure, self.data, self.m, self.n
        return compile_exprs({
            "z": self.observer.components, "frame": S.frame, "h": S.metric,
            "dz": self.dz, "d_frame": self.d_frame, "dh": self.dh,
            "omega": S.omega, "tau": self.tau, "gravity": data.gravity,
            "coriolis": [[data.coriolis_entry(a, b) for b in range(n)] for a in range(n)],
            # theta[a][i][j] for i < j only: contracted with X^i Y^j - X^j Y^i
            "theta": [[[data.theta.get((a, i, j), ZERO) for j in range(m)]
                       for i in range(m)] for a in range(n)]})

    def coframe_state(self, points, until="h"):
        """z, frame (..., n, m), h, the coframe Q and g = Q^T h Q."""
        points = np.asarray(points, dtype=float)
        st = self.program(points, until=until)
        inverse = geometry.basis_inverse(st["z"], st["frame"], points)
        coframe = inverse[..., 1:, :]  # (..., n, m); column j decomposes P d_j
        st.update(p=points, inverse=inverse, coframe=coframe,
                  g=coframe.swapaxes(-1, -2) @ st["h"] @ coframe)
        return st

    def spatial_state(self, points, until="dh"):
        """coframe_state plus d_frame and dg[..., k, i, j] = d_k g_ij, with
        d_k g = (d_k Q)^T h Q + Q^T (d_k h) Q + Q^T h (d_k Q)."""
        st = self.coframe_state(points, until)
        inverse, coframe, h = st["inverse"], st["coframe"], st["h"]
        # [..., i, k, c] = d_i B_kc
        d_basis = np.concatenate([st["dz"].swapaxes(-1, -2)[..., None],
                                  st["d_frame"].swapaxes(-1, -3)], axis=-1)
        inv_i = inverse[..., None, :, :]  # broadcast over the derivative index
        d_coframe = -(inv_i @ d_basis @ inv_i)[..., 1:, :]  # (..., m, n, m)
        coframe_i = coframe[..., None, :, :]
        half = d_coframe.swapaxes(-1, -2) @ h[..., None, :, :] @ coframe_i
        st["dg"] = (half + half.swapaxes(-1, -2)
                    + coframe_i.swapaxes(-1, -2) @ st["dh"] @ coframe_i)
        return st

    def point_state(self, points):
        """spatial_state, the clock form and its differential, the data,
        every alternation term A(X, Y) ("alt", [..., pair, k]) and its
        frame coefficients."""
        m, n = self.m, self.n
        st = self.spatial_state(points, until=None)
        z, omega, tau, dz = st["z"], st["omega"], st["tau"], st["dz"]
        lead = z.shape[:-1]
        # values [..., field, k] and Jacobians [..., field, k, i] of z, P d_j, E_a
        p_jac = -(tau.swapaxes(-1, -2)[..., :, None, :] * z[..., None, :, None]
                  + omega[..., :, None, None] * dz[..., None, :, :])
        p_values = np.eye(m) - omega[..., :, None] * z[..., None, :]
        values = np.concatenate([z[..., None, :], p_values, st["frame"]], axis=-2)
        jacobians = np.concatenate([dz[..., None, :, :], p_jac, st["d_frame"]], axis=-3)
        x, y = values[..., self._pairs[0], :], values[..., self._pairs[1], :]
        wedge = x[..., :, None] * y[..., None, :]
        wedge = wedge - wedge.swapaxes(-1, -2)  # [..., pair, i, j] = X^i Y^j - X^j Y^i
        bracket = (jacobians[..., self._pairs[1], :, :] @ x[..., None]
                   - jacobians[..., self._pairs[0], :, :] @ y[..., None])[..., 0]
        wedge = wedge.reshape(wedge.shape[:-2] + (m * m,))
        alt = ((wedge @ st["theta"].reshape(lead + (n, m * m)).swapaxes(-1, -2)) @ st["frame"]
               + (wedge @ tau.reshape(lead + (m * m, 1))) * z[..., None, :]
               + bracket)
        # [..., pair, a] = Q_a . A(pair)
        coeffs = alt @ st["coframe"].swapaxes(-1, -2)
        st.update({"alt": alt, "azp": coeffs[..., :m, :].swapaxes(-1, -2),
                   "aze": coeffs[..., m:m + n, :].swapaxes(-1, -2),
                   "app": coeffs[..., m + n:m + n + m * m, :].reshape(lead + (m, m, n)),
                   "ape": coeffs[..., m + n + m * m:, :].reshape(lead + (m, n, n))})
        return st

    def rhs_at(self, points):
        """Right-hand side of the pointwise relation, shape (..., m, m, n)."""
        st = self.point_state(points)
        omega_v, frame_v, h = st["omega"], st["frame"], st["h"]
        g_v, dg_v, d_frame_v = st["g"], st["dg"], st["d_frame"]
        qp = st["coframe"]
        frame_t, qp_t = frame_v.swapaxes(-1, -2), qp.swapaxes(-1, -2)

        # [..., i, j, a] = d_i g_jl E_a^l + g_jl d_i E_a^l
        term1 = (dg_v @ frame_t[..., None, :, :]
                 + g_v[..., None, :, :] @ d_frame_v.swapaxes(-1, -3))
        dg_flat = dg_v.reshape(dg_v.shape[:-2] + (-1,)).swapaxes(-1, -2)  # [..., ij, k]
        deriv = term1 + term1.swapaxes(-3, -2) - (dg_flat @ frame_t).reshape(term1.shape)

        hg = (h @ st["gravity"][..., None])[..., None, None, :, 0]
        om_i = omega_v[..., :, None, None]
        om_j = omega_v[..., None, :, None]
        grav = 2.0 * (om_i * om_j * hg)

        cor_m = qp_t @ st["coriolis"]
        cor = 2.0 * (om_i * cor_m[..., None, :, :] + om_j * cor_m[..., :, None, :])

        h_azp = (h @ st["azp"]).swapaxes(-1, -2)   # (..., m, n)
        q_aze = qp_t @ h @ st["aze"]                # (..., m, n)
        # [..., j, a, i] = <A(P d_j, E_a), P d_i>
        ape_q = st["ape"] @ h[..., None, :, :] @ qp[..., None, :, :]
        aterms = (om_i * (h_azp - q_aze)[..., None, :, :]
                  - om_j * (h_azp + q_aze)[..., :, None, :]
                  + st["app"] @ h[..., None, :, :]
                  - ape_q.swapaxes(-1, -3).swapaxes(-1, -2) - ape_q.swapaxes(-1, -2))
        return deriv + grav + cor + aterms, st

    def christoffel_at(self, points):
        rhs, st = self.rhs_at(points)
        m, n = self.m, self.n
        h = st["h"]
        geometry.fail_at_first(np.abs(np.linalg.det(h)) <= METRIC_DET_TOL, st["p"],
                               MetricSingular, "spatial metric singular")
        lead = rhs.shape[:-3]
        # [..., a, ij]: the frame coefficients of Gamma_ij
        c = np.linalg.solve(2.0 * h, rhs.reshape(lead + (m * m, n)).swapaxes(-1, -2))
        return (st["z"][..., :, None, None] * st["tau"][..., None, :, :]
                + (st["frame"].swapaxes(-1, -2) @ c).reshape(lead + (m, m, m)))


class Connection:
    """Evaluator of coefficients Gamma^k_ij at chart points.

    Convention: nabla_{d_i} d_j = Gamma^k_ij d_k; the lower index pair
    need not be symmetric.  `christoffel` takes one point (m,) and
    returns (m, m, m), or a stack of points (..., m) and returns
    (..., m, m, m) in one batched evaluation.  Coefficients are
    recomputed at every call and nothing is kept per point, so memory
    does not grow with the number of points asked for.  A connection
    whose inputs are all constant computes Gamma once and returns that
    array afterwards.  Returned arrays are read-only.  Every connection
    owns a kit (with zero data when it has none), which the checks read;
    Gamma comes from `gamma_exprs` when given and from the kit otherwise.
    """

    def __init__(self, structure, observer, data=None, gamma_exprs=None):
        self.structure = structure
        self.observer = observer
        self.data = data
        self._kit = _ConnectionKit(structure, observer,
                                   ConnectionData.zero(structure.n) if data is None else data)
        if gamma_exprs is None:
            self._evaluate = self._kit.christoffel_at
            self._constant = self._kit.all_constant
        else:
            self._evaluate = compile_exprs(gamma_exprs)
            self._constant = all(is_constant(e) for plane in gamma_exprs
                                 for row in plane for e in row)
        self._const_gamma = None

    @property
    def is_built(self):
        return self.data is not None

    def christoffel(self, p):
        p = np.asarray(p, dtype=float)
        gamma = self._const_gamma
        if gamma is None:
            gamma = self._evaluate(p)
            gamma.setflags(write=False)
            if not (self._constant and p.ndim == 1):
                return gamma
            self._const_gamma = gamma
        if p.ndim == 1:
            return gamma
        return np.broadcast_to(gamma, p.shape[:-1] + gamma.shape)


def koszul_rhs(structure, observer, data, i, j, a, p):
    """One component of the pointwise right-hand side, 2<P(nabla_i d_j), E_a>."""
    rhs, _ = _ConnectionKit(structure, observer, data).rhs_at(p)
    return float(rhs[i, j, a])


def build_connection(structure, observer, data=None):
    """Construct the compatible connection determined by the data triple."""
    if data is None:
        data = ConnectionData.zero(structure.n)
    return Connection(structure, observer, data=data)


def connection_from_exprs(structure, observer, gamma_exprs):
    """Wrap user-supplied Christoffel expressions for verification workflows."""
    return Connection(structure, observer, gamma_exprs=gamma_exprs)


def covariant_derivative(connection, x_field, y_field, p):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at p (or a stack)."""
    v = compile_exprs({"x": x_field, "y": y_field, "dy": field_jacobian(y_field)})(p)
    return nabla(connection.christoffel(p), v["dy"], v["x"], v["y"])


def torsion_at(connection, x_field, y_field, p):
    """Tor(X,Y) = nabla_X Y - nabla_Y X - [X,Y] at p."""
    forward = covariant_derivative(connection, x_field, y_field, p)
    backward = covariant_derivative(connection, y_field, x_field, p)
    bracket = eval_fields(lie_bracket(x_field, y_field), p)
    return forward - backward - bracket


def gravity_of(connection, observer):
    """Evaluator of nabla_z z at a point or a stack of points, with z the
    connection's observer."""
    def at(p):
        v = connection._kit.program(p, until="dz")
        return nabla(connection.christoffel(p), v["dz"], v["z"], v["z"])

    return at


def coriolis_of(connection, observer, v, w, p):
    """Half the antisymmetrized pairing of nabla z against two spatial vectors."""
    st = connection._kit.coframe_state(p, until="omega")
    vw = np.array([v, w], dtype=float)
    # nabla_v z and nabla_w z; tensorial in the direction
    vectors = np.concatenate([vw, nabla(connection.christoffel(p), st["dz"], vw, st["z"])])
    for pairing in vectors @ st["omega"]:
        if abs(pairing) > geometry.SPATIAL_INPUT_TOL:
            raise NotSpatial(f"clock pairing {float(pairing)!r} at {tuple(p)}")
    cv, cw, cnv, cnw = vectors @ st["coframe"].T  # frame coefficients
    return float(0.5 * (cnv @ st["h"] @ cw - cv @ st["h"] @ cnw))


@dataclass
class ObservableImage:
    """(gravity, Coriolis, spatial torsion) of a connection at sample points."""

    points: list
    gravity: np.ndarray          # (N, n) frame coefficients of nabla_z z
    coriolis: np.ndarray         # (N, n, n), antisymmetric per point
    torsion_spatial: np.ndarray  # (N, n, m, m): coefficients of P(Tor(d_i, d_j))

    def deviations(self, data, structure):
        """Per-point max deviation of the image from a data triple."""
        n, m = structure.n, structure.dim
        pairs = np.triu_indices(n, 1)
        planes = np.array([(a, i, j) for a in range(n) for i in range(m)
                           for j in range(i + 1, m)], dtype=int).reshape(-1, 3).T
        want = compile_exprs({
            "gravity": data.gravity,
            "coriolis": [data.coriolis_entry(a, b) for a, b in zip(*pairs)],
            "theta": [data.theta_entry(a, i, j) for a, i, j in zip(*planes)],
        })(np.reshape(self.points, (-1, m)))
        diffs = np.concatenate([
            self.gravity - want["gravity"],
            self.coriolis[:, pairs[0], pairs[1]] - want["coriolis"],
            self.torsion_spatial[:, planes[0], planes[1], planes[2]] - want["theta"]],
            axis=1)
        # fmax, like max(worst, x), passes over a NaN deviation
        return np.fmax.reduce(np.abs(diffs), axis=1, initial=0.0)


def observable_map(connection, observer, points=None):
    """Evaluate the observable triple of a connection over sample points."""
    S = connection.structure
    m, n = S.dim, S.n
    if points is None:
        points = S.sample_points()
    stack = np.reshape(points, (-1, m))
    v = connection._kit.coframe_state(stack, until="dz")
    coframe = v["coframe"]
    gamma = connection.christoffel(stack)
    zv = v["z"][:, None, :]

    # nabla_z z, then nabla_{E_a} z for every frame direction
    directions = np.concatenate([zv, v["frame"]], axis=1)
    nz = nabla(gamma[:, None], v["dz"][:, None], directions, zv)  # (N, 1 + n, m)
    grav_img = (coframe @ nz[:, 0, :, None])[..., 0]
    coeff_nz = coframe @ np.swapaxes(nz[:, 1:], -1, -2)  # column a decomposes nabla_{E_a} z
    pairing = np.swapaxes(coeff_nz, -1, -2) @ v["h"]  # [a, b] = <nabla_{E_a} z, E_b>
    cor_img = 0.5 * (pairing - np.swapaxes(pairing, -1, -2))

    i, j = np.triu_indices(m, 1)
    coeffs = coframe @ (gamma[:, :, i, j] - gamma[:, :, j, i])  # (N, n, pairs)
    tor_img = np.zeros((len(stack), n, m, m))
    tor_img[:, :, i, j] = coeffs
    tor_img[:, :, j, i] = -coeffs
    return ObservableImage(points=list(points), gravity=grav_img,
                           coriolis=cor_img, torsion_spatial=tor_img)
