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
from itertools import chain
from types import MappingProxyType

import numpy as np

from . import geometry
from .errors import DimensionMismatch, MetricSingular, NotSpatial
from .expr import (ZERO, const, differentiate, evaluate, is_constant, mul,
                   neg, sub, sum_exprs)
from .geometry import eval_fields, eval_jacobian, field_jacobian, lie_bracket

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
    """Symbolic first derivatives of the input, evaluated numerically per point."""

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

    def coframe_state(self, p, memo=None):
        """z, frame, h, the coframe Q and g = Q^T h Q at p."""
        if memo is None:
            memo = {}
        inverse = geometry.adapted_frame_inverse(self.structure, self.observer, p, memo)
        z_v = eval_fields(self.observer.components, p, memo)
        frame_v = np.array([eval_fields(f, p, memo) for f in self.structure.frame])  # (n, m)
        h = geometry.metric_matrix(self.structure, p, memo)
        coframe = inverse[1:, :]  # (n, m); column j decomposes P d_j
        return {"z": z_v, "frame": frame_v, "h": h, "inverse": inverse,
                "coframe": coframe, "g": coframe.T @ h @ coframe}

    def spatial_state(self, p, memo=None):
        """coframe_state plus d_frame and dg[k, i, j] = d_k g_ij at p, with
        d_k g = (d_k Q)^T h Q + Q^T (d_k h) Q + Q^T h (d_k Q)."""
        m, n = self.m, self.n
        st = self.coframe_state(p, memo)
        inverse, coframe, h = st["inverse"], st["coframe"], st["h"]
        d_frame_v = np.array([eval_jacobian(t, p, memo) for t in self.d_frame])
        d_basis = np.empty((m, m, m))  # [i, k, c] = d_i B_kc
        d_basis[:, :, 0] = eval_jacobian(self.dz, p, memo).T
        d_basis[:, :, 1:] = d_frame_v.transpose(2, 1, 0)
        d_coframe = -(inverse @ d_basis @ inverse)[:, 1:, :]  # (m, n, m)
        dh_v = np.array([[[evaluate(self.dh[i][a][b], p, memo) for b in range(n)]
                          for a in range(n)] for i in range(m)])

        half = d_coframe.transpose(0, 2, 1) @ h @ coframe
        st["d_frame"] = d_frame_v
        st["dg"] = half + half.transpose(0, 2, 1) + coframe.T @ dh_v @ coframe
        return st

    def point_state(self, p):
        """Numeric state at p: spatial_state, the clock form and its
        differential, the data, and the frame coefficients of every
        alternation term, evaluated with one shared memo."""
        p = np.asarray(p, dtype=float)
        memo = {}
        m, n = self.m, self.n
        st = self.spatial_state(p, memo)
        coframe = st["coframe"]
        omega_v = eval_fields(self.structure.omega, p, memo)
        tau_v = np.array([[evaluate(self.tau[i][j], p, memo) for j in range(m)]
                          for i in range(m)])

        grav_coeff = eval_fields(self.data.gravity, p, memo)
        w_mat = np.zeros((n, n))
        for (a, b), ex in self.data.coriolis.items():
            w = evaluate(ex, p, memo)
            w_mat[a, b] = w
            w_mat[b, a] = -w

        def coeffs(fields):
            return np.array([coframe @ eval_fields(f, p, memo) for f in fields])

        azp = coeffs(self.a_zp).T  # (n, m)
        aze = coeffs(self.a_ze).T  # (n, n)
        upper = np.triu_indices(m, 1)
        app = np.zeros((m, m, n))
        app[upper] = coeffs(self.a_pp)
        app[upper[::-1]] = -app[upper]
        ape = coeffs(self.a_pe).reshape(m, n, n)

        st.update({
            "p": p, "omega": omega_v, "tau": tau_v, "gravity": grav_coeff, "w": w_mat,
            "azp": azp, "aze": aze, "app": app, "ape": ape,
        })
        return st

    def rhs_at(self, p):
        """Right-hand side of the pointwise relation, shape (m, m, n)."""
        st = self.point_state(p)
        omega_v, frame_v, h = st["omega"], st["frame"], st["h"]
        g_v, dg_v, d_frame_v = st["g"], st["dg"], st["d_frame"]
        qp = st["coframe"]

        term1 = (np.einsum("ijl,al->ija", dg_v, frame_v)
                 + np.einsum("jl,ali->ija", g_v, d_frame_v))
        deriv = term1 + term1.swapaxes(0, 1) - np.einsum("ak,kij->ija", frame_v, dg_v)

        hg = h @ st["gravity"]
        grav = 2.0 * np.einsum("i,j,a->ija", omega_v, omega_v, hg)

        cor_m = np.einsum("bj,ba->ja", qp, st["w"])
        cor = 2.0 * (omega_v[:, None, None] * cor_m[None, :, :]
                     + omega_v[None, :, None] * cor_m[:, None, :])

        h_azp = (h @ st["azp"]).T      # (m, n)
        q_aze = qp.T @ h @ st["aze"]   # (m, n)
        ape_q = st["ape"] @ h @ qp     # [j, a, i] = <A(P d_j, E_a), P d_i>
        aterms = (omega_v[:, None, None] * (h_azp - q_aze)[None, :, :]
                  - omega_v[None, :, None] * (h_azp + q_aze)[:, None, :]
                  + st["app"] @ h
                  - ape_q.transpose(2, 0, 1) - ape_q.transpose(0, 2, 1))
        return deriv + grav + cor + aterms, st

    def christoffel_at(self, p):
        rhs, st = self.rhs_at(p)
        m, n = self.m, self.n
        h = st["h"]
        if abs(np.linalg.det(h)) <= METRIC_DET_TOL:
            raise MetricSingular(f"spatial metric singular at {tuple(st['p'])}")
        c = np.linalg.solve(2.0 * h, rhs.reshape(m * m, n).T).T.reshape(m, m, n)
        gamma = (np.einsum("ij,k->kij", st["tau"], st["z"])
                 + np.einsum("ija,ak->kij", c, st["frame"]))
        return gamma


class Connection:
    """Pointwise evaluator of coefficients Gamma^k_ij at chart points.

    Convention: nabla_{d_i} d_j = Gamma^k_ij d_k; the lower index pair
    need not be symmetric.  Coefficients are recomputed at every call
    and nothing is kept per point, so memory does not grow with the
    number of points asked for.  A connection whose inputs are all
    constant computes Gamma once and returns that array afterwards.
    Returned arrays are read-only.
    """

    def __init__(self, structure, observer, data=None, kit=None, gamma_exprs=None):
        if (kit is None) == (gamma_exprs is None):
            raise ValueError("provide exactly one of kit or gamma_exprs")
        self.structure = structure
        self.observer = observer
        self.data = data
        self._kit = kit
        self._gamma_exprs = gamma_exprs
        if kit is not None:
            self._constant = kit.all_constant
        else:
            self._constant = all(is_constant(e) for plane in gamma_exprs
                                 for row in plane for e in row)
        self._const_gamma = None

    @property
    def is_built(self):
        return self._kit is not None

    def christoffel(self, p):
        if self._const_gamma is not None:
            return self._const_gamma
        p = np.asarray(p, dtype=float)
        if self._kit is not None:
            gamma = self._kit.christoffel_at(p)
        else:
            m = self.structure.dim
            memo = {}
            gamma = np.array([[[evaluate(self._gamma_exprs[k][i][j], p, memo)
                                for j in range(m)] for i in range(m)]
                              for k in range(m)])
        gamma.setflags(write=False)
        if self._constant:
            self._const_gamma = gamma
        return gamma


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
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at p."""
    memo = {}
    dy = eval_jacobian(field_jacobian(y_field), p, memo)
    return nabla(connection.christoffel(p), dy, eval_fields(x_field, p, memo),
                 eval_fields(y_field, p, memo))


def torsion_at(connection, x_field, y_field, p):
    """Tor(X,Y) = nabla_X Y - nabla_Y X - [X,Y] at p."""
    forward = covariant_derivative(connection, x_field, y_field, p)
    backward = covariant_derivative(connection, y_field, x_field, p)
    bracket = eval_fields(lie_bracket(x_field, y_field), p)
    return forward - backward - bracket


def gravity_of(connection, observer):
    """Pointwise evaluator of nabla_z z."""
    z = observer.components
    dz = field_jacobian(z)

    def at(p):
        memo = {}
        zv = eval_fields(z, p, memo)
        return nabla(connection.christoffel(p), eval_jacobian(dz, p, memo), zv, zv)

    return at


def coriolis_of(connection, observer, v, w, p):
    """Half the antisymmetrized pairing of nabla z against two spatial vectors."""
    S = connection.structure
    for vec in (v, w):
        pairing = geometry.omega_apply(S, vec, p)
        if abs(pairing) > geometry.SPATIAL_INPUT_TOL:
            raise NotSpatial(f"clock pairing {pairing!r} at {tuple(p)}")
    # nabla_v z and nabla_w z; tensorial in the direction
    memo = {}
    zv = eval_fields(observer.components, p, memo)
    dz = eval_jacobian(field_jacobian(observer.components), p, memo)
    nv, nw = nabla(connection.christoffel(p), dz, np.array([v, w], dtype=float), zv)
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
        n = structure.n
        m = structure.dim
        out = np.zeros(len(self.points))
        for idx, p in enumerate(self.points):
            memo = {}
            worst = 0.0
            for a in range(n):
                worst = max(worst, abs(self.gravity[idx, a]
                                       - evaluate(data.gravity[a], p, memo)))
            for a in range(n):
                for b in range(a + 1, n):
                    want = evaluate(data.coriolis_entry(a, b), p, memo)
                    worst = max(worst, abs(self.coriolis[idx, a, b] - want))
            for a in range(n):
                for i in range(m):
                    for j in range(i + 1, m):
                        want = evaluate(data.theta_entry(a, i, j), p, memo)
                        worst = max(worst, abs(self.torsion_spatial[idx, a, i, j] - want))
            out[idx] = worst
        return out


def observable_map(connection, observer, points=None):
    """Evaluate the observable triple of a connection over sample points."""
    S = connection.structure
    m, n = S.dim, S.n
    if points is None:
        points = S.sample_points()
    z = observer.components
    dz = field_jacobian(z)

    grav_img = np.zeros((len(points), n))
    cor_img = np.zeros((len(points), n, n))
    tor_img = np.zeros((len(points), n, m, m))
    for idx, p in enumerate(points):
        memo = {}
        inv = geometry.adapted_frame_inverse(S, observer, p, memo)
        coframe = inv[1:, :]
        h = geometry.metric_matrix(S, p, memo)
        frame_v = geometry.frame_matrix(S, p, memo)  # (m, n)
        gamma = connection.christoffel(p)
        zv = eval_fields(z, p, memo)

        # nabla_z z, then nabla_{E_a} z for every frame direction
        nz = nabla(gamma, eval_jacobian(dz, p, memo), np.vstack([zv, frame_v.T]), zv)
        grav_img[idx] = coframe @ nz[0]
        coeff_nz = coframe @ nz[1:].T  # (n, n): column a decomposes nabla_{E_a} z
        pairing = coeff_nz.T @ h  # [a, b] = <nabla_{E_a} z, E_b>
        cor_img[idx] = 0.5 * (pairing - pairing.T)

        for i in range(m):
            for j in range(i + 1, m):
                tor = gamma[:, i, j] - gamma[:, j, i]
                coeffs = coframe @ tor
                tor_img[idx, :, i, j] = coeffs
                tor_img[idx, :, j, i] = -coeffs
    return ObservableImage(points=list(points), gravity=grav_img,
                           coriolis=cor_img, torsion_spatial=tor_img)
