"""Reference values that the tests hold the pipeline against.

Built from `expr.compile`, `expr.differentiate`, expression arithmetic
and numpy only, one point at a time: nothing here reads a connection's
state or calls the package's basis inverse, so an agreement with
`Connection.state` or `observable_map` is an agreement between two
independent computations.  Where a connection's coefficients are needed,
they come from its full table, `Connection.christoffel`.  `pairwise_rk4`
steps position and velocity as two arrays, stage by stage, so a curve's
bits are pinned apart from the package's one-array integrator.
"""

import numpy as np

from newcart.errors import NewcartError
from newcart.expr import ZERO, differentiate
from newcart.expr import compile as compile_exprs


def eval_fields(fields, p):
    """Values of a tuple of expressions at p, shape (len(fields),)."""
    return compile_exprs(fields)(p)


def frame_matrix(structure, p):
    """m x n matrix whose column a holds the components of E_a at p."""
    return compile_exprs(structure.frame)(p).T


def metric_matrix(structure, p):
    return compile_exprs(structure.metric)(p)


def omega_apply(structure, v, p):
    """Pairing of the clock form with a tangent vector at p."""
    return float(eval_fields(structure.omega, p) @ np.asarray(v, dtype=float))


def project_spatial(structure, observer, v, p):
    """v - omega(v) z(p)."""
    v = np.asarray(v, dtype=float)
    return v - omega_apply(structure, v, p) * eval_fields(observer.components, p)


def frame_decompose(structure, v, p):
    """Frame coefficients of a spatial vector at p, by least squares."""
    coeffs, _, rank, _ = np.linalg.lstsq(frame_matrix(structure, p),
                                         np.asarray(v, dtype=float), rcond=None)
    assert rank == structure.n
    return coeffs


def lie_bracket(x_field, y_field):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k, as expressions."""
    m = len(x_field)
    return tuple(sum((x_field[i] * differentiate(y_field[k], i)
                      - y_field[i] * differentiate(x_field[k], i) for i in range(m)), ZERO)
                 for k in range(m))


def covariant_derivative(connection, x_field, y_field, p):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at p, with Gamma
    from `connection.christoffel`."""
    m = len(y_field)
    x, y = eval_fields(x_field, p), eval_fields(y_field, p)
    dy = compile_exprs([[differentiate(y_field[k], i) for i in range(m)] for k in range(m)])(p)
    return dy @ x + np.einsum("kij,i,j->k", connection.christoffel(p), x, y)


def torsion_at(connection, x_field, y_field, p):
    """Tor(X, Y) = nabla_X Y - nabla_Y X - [X, Y] at p."""
    return (covariant_derivative(connection, x_field, y_field, p)
            - covariant_derivative(connection, y_field, x_field, p)
            - eval_fields(lie_bracket(x_field, y_field), p))


def christoffel_accel(connection):
    """Free fall's right-hand side y = (x, v) -> (v, -Gamma^k_ij v^i v^j),
    with the contraction done here on the full table `connection.christoffel(x)`."""
    m = connection.structure.dim

    def accel(y):
        x, v = y[:m], y[m:]
        return np.concatenate([v, -np.einsum("kij,i,j->k", connection.christoffel(x), v, v)])
    return accel


def pairwise_rk4(f, box, x0, v0, tau0, tau1, dtau):
    """Fixed-step RK4 on the pair (x, v) with (x', v') = f(x, v), each stage
    formed half by half: ([(tau, x, v)] of the kept states, termination,
    error).  A step that raises, or ends non-finite, is dropped; a kept
    state outside the box ends the curve."""
    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    states = [(tau0, x, v)]
    for k in range(1, int(np.floor((tau1 - tau0) / dtau * (1.0 + 1e-12))) + 1):
        try:
            k1x, k1v = f(x, v)
            k2x, k2v = f(x + 0.5 * dtau * k1x, v + 0.5 * dtau * k1v)
            k3x, k3v = f(x + 0.5 * dtau * k2x, v + 0.5 * dtau * k2v)
            k4x, k4v = f(x + dtau * k3x, v + dtau * k3v)
        except NewcartError as err:
            return states, "evaluation_failure", err
        x = x + (dtau / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dtau / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            return states, "numeric_failure", None
        states.append((tau0 + k * dtau, x, v))
        if any(c < lo or c > hi for (lo, hi), c in zip(box, x)):
            return states, "left_domain", None
    return states, "completed", None
