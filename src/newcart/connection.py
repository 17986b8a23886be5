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
d_k(B^-1) = -B^-1 (d_k B) B^-1, and small dense solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import geometry
from .errors import DimensionMismatch, MetricSingular, NotSpatial
from .expr import (ZERO, const, differentiate, is_constant, mul, neg, sub,
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
    """Symbolic first derivatives of the input, compiled into one program
    and evaluated numerically over stacks of points.

    Every state method takes points of shape (..., m) and returns arrays
    with the same leading axes.
    """

    # symbolic tables compiled into the program after the input itself
    TABLES = ("dz", "d_frame", "dh", "tau", "a_zp", "a_ze", "a_pp", "a_pe")

    def __init__(self, structure, observer, data):
        self.structure = structure
        self.observer = observer
        self.data = data
        m, n = structure.dim, structure.n
        self.m, self.n = m, n
        omega = structure.omega
        z = observer.components

        self.p_fields = []
        for j in range(m):
            comps = tuple(sub(const(1.0 if k == j else 0.0), mul(omega[j], z[k]))
                          for k in range(m))
            self.p_fields.append(comps)

        self.dz = field_jacobian(z)
        self.d_frame = [field_jacobian(f) for f in structure.frame]
        self.dh = [[[differentiate(structure.metric[a][b], i) for b in range(n)]
                    for a in range(n)] for i in range(m)]
        self.tau = [[differentiate(omega[j], i) for j in range(m)] for i in range(m)]

        def alt(u, v):
            return alternation_field(structure, observer, data, u, v)

        # A(z, P d_j), A(z, E_a), A(P d_i, P d_j) for i < j, A(P d_j, E_a)
        self.a_zp = [alt(z, pj) for pj in self.p_fields]
        self.a_ze = [alt(z, e) for e in structure.frame]
        self.a_pp = [alt(self.p_fields[i], self.p_fields[j])
                     for i in range(m) for j in range(i + 1, m)]
        self.a_pe = [alt(pj, e) for pj in self.p_fields for e in structure.frame]
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
        S, data = self.structure, self.data
        return compile_exprs({
            "z": self.observer.components, "frame": S.frame, "h": S.metric,
            "dz": self.dz, "d_frame": self.d_frame, "dh": self.dh,
            "omega": S.omega, "tau": self.tau, "gravity": data.gravity,
            "coriolis": list(data.coriolis.values()),
            "a_zp": self.a_zp, "a_ze": self.a_ze, "a_pp": self.a_pp, "a_pe": self.a_pe})

    def coframe_state(self, points, until="h"):
        """z, frame (..., n, m), h, the coframe Q and g = Q^T h Q."""
        points = np.asarray(points, dtype=float)
        st = self.program(points, until=until)
        inverse = geometry.basis_inverse(st["z"], st["frame"], points)
        coframe = inverse[..., 1:, :]  # (..., n, m); column j decomposes P d_j
        st.update(p=points, inverse=inverse, coframe=coframe,
                  g=np.swapaxes(coframe, -1, -2) @ st["h"] @ coframe)
        return st

    def spatial_state(self, points, until="dh"):
        """coframe_state plus d_frame and dg[..., k, i, j] = d_k g_ij, with
        d_k g = (d_k Q)^T h Q + Q^T (d_k h) Q + Q^T h (d_k Q)."""
        st = self.coframe_state(points, until)
        inverse, coframe, h = st["inverse"], st["coframe"], st["h"]
        # [..., i, k, c] = d_i B_kc
        d_basis = np.concatenate([np.swapaxes(st["dz"], -1, -2)[..., None],
                                  np.swapaxes(st["d_frame"], -1, -3)], axis=-1)
        inv_i = inverse[..., None, :, :]  # broadcast over the derivative index
        d_coframe = -(inv_i @ d_basis @ inv_i)[..., 1:, :]  # (..., m, n, m)
        coframe_i = coframe[..., None, :, :]
        half = np.swapaxes(d_coframe, -1, -2) @ h[..., None, :, :] @ coframe_i
        st["dg"] = (half + np.swapaxes(half, -1, -2)
                    + np.swapaxes(coframe_i, -1, -2) @ st["dh"] @ coframe_i)
        return st

    def point_state(self, points):
        """spatial_state, the clock form and its differential, the data,
        and the frame coefficients of every alternation term."""
        m, n = self.m, self.n
        st = self.spatial_state(points, until=None)
        coframe = st["coframe"]
        lead = coframe.shape[:-2]

        w_mat = np.zeros(lead + (n, n))
        keys = list(self.data.coriolis)
        if keys:
            a, b = np.array(keys).T
            w_mat[..., a, b] = st["coriolis"]
            w_mat[..., b, a] = -st["coriolis"]

        def coeffs(name):  # [..., a, field] = Q_a . A(field)
            return coframe @ np.swapaxes(st[name], -1, -2)

        upper = np.triu_indices(m, 1)
        app = np.zeros(lead + (m, m, n))
        app[..., upper[0], upper[1], :] = np.swapaxes(coeffs("a_pp"), -1, -2)
        app[..., upper[1], upper[0], :] = -app[..., upper[0], upper[1], :]
        st.update({
            "w": w_mat, "azp": coeffs("a_zp"), "aze": coeffs("a_ze"), "app": app,
            "ape": np.swapaxes(coeffs("a_pe"), -1, -2).reshape(lead + (m, n, n)),
        })
        return st

    def rhs_at(self, points):
        """Right-hand side of the pointwise relation, shape (..., m, m, n)."""
        st = self.point_state(points)
        omega_v, frame_v, h = st["omega"], st["frame"], st["h"]
        g_v, dg_v, d_frame_v = st["g"], st["dg"], st["d_frame"]
        qp = st["coframe"]

        term1 = (np.einsum("...ijl,...al->...ija", dg_v, frame_v)
                 + np.einsum("...jl,...ali->...ija", g_v, d_frame_v))
        deriv = (term1 + np.swapaxes(term1, -3, -2)
                 - np.einsum("...ak,...kij->...ija", frame_v, dg_v))

        hg = np.einsum("...ab,...b->...a", h, st["gravity"])
        grav = 2.0 * np.einsum("...i,...j,...a->...ija", omega_v, omega_v, hg)

        cor_m = np.einsum("...bj,...ba->...ja", qp, st["w"])
        om_i = omega_v[..., :, None, None]
        om_j = omega_v[..., None, :, None]
        cor = 2.0 * (om_i * cor_m[..., None, :, :] + om_j * cor_m[..., :, None, :])

        qp_t = np.swapaxes(qp, -1, -2)
        h_azp = np.swapaxes(h @ st["azp"], -1, -2)   # (..., m, n)
        q_aze = qp_t @ h @ st["aze"]                  # (..., m, n)
        # [..., j, a, i] = <A(P d_j, E_a), P d_i>
        ape_q = st["ape"] @ h[..., None, :, :] @ qp[..., None, :, :]
        aterms = (om_i * (h_azp - q_aze)[..., None, :, :]
                  - om_j * (h_azp + q_aze)[..., :, None, :]
                  + st["app"] @ h[..., None, :, :]
                  - np.moveaxis(ape_q, -1, -3) - np.swapaxes(ape_q, -1, -2))
        return deriv + grav + cor + aterms, st

    def christoffel_at(self, points):
        rhs, st = self.rhs_at(points)
        m, n = self.m, self.n
        h = st["h"]
        geometry.fail_at_first(np.abs(np.linalg.det(h)) <= METRIC_DET_TOL, st["p"],
                               MetricSingular, "spatial metric singular")
        lead = rhs.shape[:-3]
        flat = np.swapaxes(rhs.reshape(lead + (m * m, n)), -1, -2)
        c = np.swapaxes(np.linalg.solve(2.0 * h, flat), -1, -2).reshape(lead + (m, m, n))
        gamma = (np.einsum("...ij,...k->...kij", st["tau"], st["z"])
                 + np.einsum("...ija,...ak->...kij", c, st["frame"]))
        return gamma


class Connection:
    """Evaluator of coefficients Gamma^k_ij at chart points.

    Convention: nabla_{d_i} d_j = Gamma^k_ij d_k; the lower index pair
    need not be symmetric.  `christoffel` takes one point (m,) and
    returns (m, m, m), or a stack of points (..., m) and returns
    (..., m, m, m) in one batched evaluation.  Coefficients are
    recomputed at every call and nothing is kept per point, so memory
    does not grow with the number of points asked for.  A connection
    whose inputs are all constant computes Gamma once and returns that
    array afterwards.  Returned arrays are read-only.
    """

    def __init__(self, structure, observer, data=None, kit=None, gamma_exprs=None):
        if (kit is None) == (gamma_exprs is None):
            raise ValueError("provide exactly one of kit or gamma_exprs")
        self.structure = structure
        self.observer = observer
        self.data = data
        self._kit = kit
        if kit is not None:
            self._evaluate = kit.christoffel_at
            self._constant = kit.all_constant
        else:
            self._evaluate = compile_exprs(gamma_exprs)
            self._constant = all(is_constant(e) for plane in gamma_exprs
                                 for row in plane for e in row)
        self._const_gamma = None

    @property
    def is_built(self):
        return self._kit is not None

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
    return Connection(structure, observer, data=data,
                      kit=_ConnectionKit(structure, observer, data))


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
    """Evaluator of nabla_z z at a point or a stack of points."""
    z = observer.components
    program = compile_exprs({"z": z, "dz": field_jacobian(z)})

    def at(p):
        v = program(p)
        return nabla(connection.christoffel(p), v["dz"], v["z"], v["z"])

    return at


def coriolis_of(connection, observer, v, w, p):
    """Half the antisymmetrized pairing of nabla z against two spatial vectors."""
    S = connection.structure
    for vec in (v, w):
        pairing = geometry.omega_apply(S, vec, p)
        if abs(pairing) > geometry.SPATIAL_INPUT_TOL:
            raise NotSpatial(f"clock pairing {pairing!r} at {tuple(p)}")
    # nabla_v z and nabla_w z; tensorial in the direction
    z = observer.components
    zs = compile_exprs({"z": z, "dz": field_jacobian(z)})(p)
    nv, nw = nabla(connection.christoffel(p), zs["dz"], np.array([v, w], dtype=float),
                   zs["z"])
    return 0.5 * (geometry.inner(S, nv, w, p) - geometry.inner(S, v, nw, p))


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
    z = observer.components
    v = compile_exprs({"z": z, "frame": S.frame, "h": S.metric,
                       "dz": field_jacobian(z)})(stack)
    coframe = geometry.basis_inverse(v["z"], v["frame"], stack)[:, 1:, :]
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
