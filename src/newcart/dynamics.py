"""Auto-parallel curves and observer flow lines, integrated with fixed-step RK4.

Free fall is the first-order system xdot^k = v^k, vdot^k = -Gamma^k_ij
v^i v^j with the curve parameter as the evolution variable.  Steps are
uniform; leaving the domain box is a normal termination.  A non-finite
state ends the trajectory with reason "numeric_failure"; an error raised
by the right-hand side (say sqrt of a negative value, or a singular
metric) ends it with "evaluation_failure" and is kept on the trajectory.
Either way the failed step is discarded and every earlier state kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewcartError
from .expr import compile as compile_exprs

COMPLETED = "completed"
LEFT_DOMAIN = "left_domain"
NUMERIC_FAILURE = "numeric_failure"
EVALUATION_FAILURE = "evaluation_failure"
FAILURES = (NUMERIC_FAILURE, EVALUATION_FAILURE)


@dataclass
class CurveState:
    tau: float
    position: np.ndarray
    velocity: np.ndarray


@dataclass
class Trajectory:
    states: list[CurveState]
    step: float
    termination: str
    error: NewcartError | None = None

    @property
    def final(self):
        return self.states[-1]


def _inside_box(box, x):
    for (lo, hi), c in zip(box, x):
        if c < lo or c > hi:
            return False
    return True


def _rk4_step(f, x, v, dtau):
    k1x, k1v = f(x, v)
    k2x, k2v = f(x + 0.5 * dtau * k1x, v + 0.5 * dtau * k1v)
    k3x, k3v = f(x + 0.5 * dtau * k2x, v + 0.5 * dtau * k2v)
    k4x, k4v = f(x + dtau * k3x, v + dtau * k3v)
    nx = x + (dtau / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    nv = v + (dtau / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return nx, nv


def _integrate(f, box, x0, v0, tau0, tau1, dtau):
    if dtau <= 0.0:
        raise ValueError("step size must be positive")
    if tau1 <= tau0:
        raise ValueError("final parameter must exceed the initial one")
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    states = [CurveState(tau0, x.copy(), v.copy())]
    steps = int(np.floor((tau1 - tau0) / dtau * (1.0 + 1e-12)))
    termination, error = COMPLETED, None
    for k in range(1, steps + 1):
        try:
            nx, nv = _rk4_step(f, x, v, dtau)
        except NewcartError as err:
            termination, error = EVALUATION_FAILURE, err
            break
        if not (np.all(np.isfinite(nx)) and np.all(np.isfinite(nv))):
            termination = NUMERIC_FAILURE
            break
        x, v = nx, nv
        states.append(CurveState(tau0 + k * dtau, x.copy(), v.copy()))
        if not _inside_box(box, x):
            termination = LEFT_DOMAIN
            break
    return Trajectory(states=states, step=dtau, termination=termination, error=error)


def integrate_geodesic(connection, x0, v0, tau0, tau1, dtau):
    """Integrate the auto-parallel curve of a connection from (x0, v0)."""
    def accel(x, v):
        gamma = connection.christoffel(x)
        return v, -np.einsum("kij,i,j->k", gamma, v, v)

    return _integrate(accel, connection.structure.domain_box, x0, v0, tau0, tau1, dtau)


def integrate_observer_flow(structure, observer, x0, tau0, tau1, dtau):
    """Integrate a flow line of the observer field; stored velocities are z(x)."""
    z = compile_exprs(observer.components)

    def field(x, _v):
        zv = z(x)
        return zv, np.zeros_like(zv)

    v0 = z(np.asarray(x0, dtype=float))
    traj = _integrate(field, structure.domain_box, x0, v0, tau0, tau1, dtau)
    velocities = z(np.array([st.position for st in traj.states]))
    for st, velocity in zip(traj.states, velocities):
        st.velocity = velocity
    return traj


def trajectory_csv(trajectory, m):
    """Serialize per the fixed interface: tau, x0..x{m-1}, v0..v{m-1}."""
    header = ["tau"] + [f"x{i}" for i in range(m)] + [f"v{i}" for i in range(m)]
    lines = [", ".join(header)]
    for st in trajectory.states:
        row = [st.tau] + list(st.position) + list(st.velocity)
        lines.append(", ".join(f"{value:.17g}" for value in row))
    return "\n".join(lines) + "\n"


def write_trajectory(trajectory, m, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trajectory_csv(trajectory, m))
