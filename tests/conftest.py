"""Shared in-memory structures, data builders, and the brute-force oracle."""

import numpy as np

from newcart.connection import ConnectionData
from newcart.expr import evaluate, differentiate, parse_expr
from newcart.geometry import (ObserverField, SpacetimeStructure,
                              adapted_frame_inverse, eval_fields, frame_matrix,
                              metric_matrix)

NAMES2 = ("t", "x")
NAMES3 = ("t", "x", "y")


def exprs(names, *texts):
    return tuple(parse_expr(text, names) for text in texts)


def flat_structure(samples=30, seed=3, box=((-0.2, 1.5), (-1.0, 1.0))):
    return SpacetimeStructure(
        coord_names=NAMES2,
        omega=exprs(NAMES2, "1", "0"),
        frame=(exprs(NAMES2, "0", "1"),),
        metric=((parse_expr("1", NAMES2),),),
        domain_box=box, sample_count=samples, rng_seed=seed)


def flat_observer():
    return ObserverField(exprs(NAMES2, "1", "0"))


def curvedh_structure(samples=30, seed=6):
    return SpacetimeStructure(
        coord_names=NAMES2,
        omega=exprs(NAMES2, "1", "0"),
        frame=(exprs(NAMES2, "0", "1"),),
        metric=((parse_expr("1 + x^2/10", NAMES2),),),
        domain_box=((0.0, 1.0), (-1.0, 1.0)), sample_count=samples, rng_seed=seed)


def rot_structure(samples=25, seed=5):
    return SpacetimeStructure(
        coord_names=NAMES3,
        omega=exprs(NAMES3, "1", "0", "0"),
        frame=(exprs(NAMES3, "0", "1", "0"), exprs(NAMES3, "0", "0", "1")),
        metric=((parse_expr("1", NAMES3), parse_expr("0", NAMES3)),
                (parse_expr("0", NAMES3), parse_expr("1", NAMES3))),
        domain_box=((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        sample_count=samples, rng_seed=seed)


def rot_observer():
    return ObserverField(exprs(NAMES3, "1", "0", "0"))


def twist_structure(samples=25, seed=7):
    return SpacetimeStructure(
        coord_names=NAMES3,
        omega=exprs(NAMES3, "1", "0", "x"),
        frame=(exprs(NAMES3, "0", "1", "0"), exprs(NAMES3, "-x", "0", "1")),
        metric=((parse_expr("1", NAMES3), parse_expr("0", NAMES3)),
                (parse_expr("0", NAMES3), parse_expr("1", NAMES3))),
        domain_box=((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        sample_count=samples, rng_seed=7)


def mixed_structure(samples=20, seed=9):
    """Tilted observer, skewed varying metric, non-closed clock form."""
    return SpacetimeStructure(
        coord_names=NAMES3,
        omega=exprs(NAMES3, "1", "0", "x"),
        frame=(exprs(NAMES3, "0", "1", "0"), exprs(NAMES3, "-x", "0", "1")),
        metric=((parse_expr("1 + x^2/10", NAMES3), parse_expr("x/4", NAMES3)),
                (parse_expr("x/4", NAMES3), parse_expr("1", NAMES3))),
        domain_box=((0.0, 1.0), (-0.8, 0.8), (-1.0, 1.0)),
        sample_count=samples, rng_seed=seed)


def mixed_observer():
    return ObserverField(exprs(NAMES3, "1 - 0.25*x^2", "0.3*y", "0.25*x"))


def mixed_data():
    return ConnectionData(
        gravity=exprs(NAMES3, "0.1 + t/3", "x/2"),
        coriolis={(0, 1): parse_expr("0.2 + 0.1*t", NAMES3)},
        theta={(0, 1, 2): parse_expr("0.1*x", NAMES3),
               (1, 0, 1): parse_expr("0.05", NAMES3),
               (0, 0, 2): parse_expr("0.07*t", NAMES3)})


NAMES4 = ("t", "x", "y", "w")


def m4_structure(samples=3, seed=31):
    """3+1 chart: non-closed clock form, skewed frame, varying Gram matrix."""
    h = {(0, 0): "1 + 0.05*x*y", (0, 1): "0.02*t", (0, 2): "0.01*w",
         (1, 1): "1 + 0.04*w^2", (1, 2): "0.03*x", (2, 2): "1 - 0.05*t*y"}
    return SpacetimeStructure(
        coord_names=NAMES4,
        omega=exprs(NAMES4, "1 + 0.1*x*y", "0", "0", "0"),
        frame=(exprs(NAMES4, "0", "1 + 0.1*y", "0.1*x", "0"),
               exprs(NAMES4, "0", "0", "1 + 0.1*t*w", "0"),
               exprs(NAMES4, "0", "0.05*y", "0", "1 + 0.1*x^2")),
        metric=tuple(tuple(parse_expr(h[min(a, b), max(a, b)], NAMES4) for b in range(3))
                     for a in range(3)),
        domain_box=((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        sample_count=samples, rng_seed=seed)


def m4_observer():
    return ObserverField(exprs(NAMES4, "1/(1 + 0.1*x*y)", "0.1*t*y", "0.05*w", "-0.1*x"))


def m4_data():
    return ConnectionData(
        gravity=exprs(NAMES4, "0.3 + 0.1*t", "-0.2*y", "0.1*x*w"),
        coriolis={(0, 1): parse_expr("0.2 + 0.1*w", NAMES4),
                  (1, 2): parse_expr("0.1*t*x", NAMES4)},
        theta={(0, 1, 2): parse_expr("0.1*w", NAMES4),
               (2, 0, 3): parse_expr("0.05*x*y", NAMES4),
               (1, 2, 3): parse_expr("0.07", NAMES4)})


def gravity_data(g):
    return ConnectionData((parse_expr(repr(float(g)), NAMES2),), {}, {})


def brute_force_gamma(S, z, D, p):
    """Independent oracle: solve the defining linear system for the
    coefficients at one point (clock trace, metric compatibility,
    gravity, Coriolis, spatial torsion).  Returns (gamma, rank, residual).
    """
    m, n = S.dim, S.n
    om = eval_fields(S.omega, p)
    zv = eval_fields(z.components, p)
    fm = frame_matrix(S, p)
    h = metric_matrix(S, p)
    cof = adapted_frame_inverse(S, z, p)[1:, :]
    dom = np.array([[evaluate(differentiate(S.omega[j], i), p)
                     for j in range(m)] for i in range(m)])
    dfr = np.array([[[evaluate(differentiate(S.frame[a][k], i), p)
                      for i in range(m)] for k in range(m)] for a in range(n)])
    dz = np.array([[evaluate(differentiate(z.components[k], i), p)
                    for i in range(m)] for k in range(m)])
    dh = np.array([[[evaluate(differentiate(S.metric[a][b], i), p)
                     for b in range(n)] for a in range(n)] for i in range(m)])
    grav = eval_fields(D.gravity, p)
    W = np.zeros((n, n))
    for (a, b), ex in D.coriolis.items():
        w = evaluate(ex, p)
        W[a, b] = w
        W[b, a] = -w
    TH = np.zeros((n, m, m))
    for (a, i, j), ex in D.theta.items():
        v = evaluate(ex, p)
        TH[a, i, j] = v
        TH[a, j, i] = -v

    def gidx(k, i, j):
        return (k * m + i) * m + j

    rows, rhs = [], []
    for i in range(m):
        for j in range(m):
            r = np.zeros(m ** 3)
            for k in range(m):
                r[gidx(k, i, j)] = om[k]
            rows.append(r)
            rhs.append(dom[i, j])
    for i in range(m):
        for a in range(n):
            for b in range(a, n):
                r = np.zeros(m ** 3)
                c = float((cof @ dfr[a, :, i]) @ h[:, b])
                c += float((cof @ dfr[b, :, i]) @ h[:, a])
                for k in range(m):
                    for j in range(m):
                        r[gidx(k, i, j)] += fm[j, a] * float(cof[:, k] @ h[:, b])
                        r[gidx(k, i, j)] += fm[j, b] * float(cof[:, k] @ h[:, a])
                rows.append(r)
                rhs.append(dh[i, a, b] - c)
    base = cof @ (dz @ zv)
    for a in range(n):
        r = np.zeros(m ** 3)
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    r[gidx(k, i, j)] += cof[a, k] * zv[i] * zv[j]
        rows.append(r)
        rhs.append(grav[a] - base[a])
    for a in range(n):
        for b in range(a + 1, n):
            r = np.zeros(m ** 3)
            c = 0.5 * float((cof @ (dz @ fm[:, a])) @ h[:, b])
            c -= 0.5 * float((cof @ (dz @ fm[:, b])) @ h[:, a])
            for k in range(m):
                for i in range(m):
                    for j in range(m):
                        r[gidx(k, i, j)] += 0.5 * fm[i, a] * zv[j] * float(cof[:, k] @ h[:, b])
                        r[gidx(k, i, j)] -= 0.5 * fm[i, b] * zv[j] * float(cof[:, k] @ h[:, a])
            rows.append(r)
            rhs.append(W[a, b] - c)
    for i in range(m):
        for j in range(i + 1, m):
            for a in range(n):
                r = np.zeros(m ** 3)
                for k in range(m):
                    r[gidx(k, i, j)] += cof[a, k]
                    r[gidx(k, j, i)] -= cof[a, k]
                rows.append(r)
                rhs.append(TH[a, i, j])

    A = np.array(rows)
    b = np.array(rhs)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    return sol.reshape(m, m, m), rank, float(np.linalg.norm(A @ sol - b))


def coord_field(m, i):
    from newcart.expr import Const
    return tuple(Const(1.0 if k == i else 0.0) for k in range(m))
