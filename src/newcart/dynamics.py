"""Auto-parallel curves and observer flow lines, integrated with fixed-step RK4.

Both are one first-order system y' = f(y) whose state's first m entries
are the position and the rest the velocity.  Free fall is y = (x, v) with
f(y) = (v, -Gamma^k_ij v^i v^j) over the curve parameter; each RK4 stage
reads the connection's spray, `Connection.spray(x, v)`, so no stage forms
a Gamma table.  A flow line is y = x with the compiled observer field z as
f, and its velocities are z at the states, nan only at a last state where z
is undefined.  Steps are uniform; leaving the domain box is a normal
termination.  A non-finite state ends the trajectory with reason
"numeric_failure"; an error raised by the right-hand side (say sqrt of a
negative value, or a singular metric) ends it with "evaluation_failure"
and is kept on the trajectory.  Either way the failed step is discarded
and every earlier state kept.  Each state goes to `states.append` once its
velocity is known: a new list by default, or `CsvRows`, which keeps none.
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
    states: list[CurveState] | CsvRows
    termination: str
    error: NewcartError | None = None

    @property
    def final(self):
        return self.states[-1]


def _rk4_step(f, y, dtau, k1):
    k2 = f(y + 0.5 * dtau * k1)
    k3 = f(y + 0.5 * dtau * k2)
    k4 = f(y + dtau * k3)
    return y + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_count(tau0, tau1, dtau):
    """Whole steps of dtau from tau0 to tau1; ValueError when not finite."""
    count = np.floor((tau1 - tau0) / dtau * (1.0 + 1e-12))
    if not np.isfinite(count):
        raise ValueError(f"({tau1!r} - {tau0!r}) / {dtau!r} is not a finite step count")
    return int(count)


def _integrate(f, box, y0, tau0, tau1, dtau, states=None):
    """Trajectory of y' = f(y) into `states`; positions are views of y[:len(box)]."""
    if dtau <= 0.0:
        raise ValueError("step size must be positive")
    if tau1 <= tau0:
        raise ValueError("final parameter must exceed the initial one")
    m, states = len(box), [] if states is None else states
    y, tau, termination, error = np.array(y0, dtype=float), tau0, COMPLETED, None
    for k in range(1, step_count(tau0, tau1, dtau) + 1):
        try:
            k1 = f(y)
        except NewcartError as err:
            termination, error = EVALUATION_FAILURE, err
            break
        states.append(CurveState(tau, y[:m], y[m:] if len(y) > m else k1))
        try:
            y = _rk4_step(f, y, dtau, k1)
        except NewcartError as err:
            return Trajectory(states, EVALUATION_FAILURE, err)
        if not np.isfinite(y).all():
            return Trajectory(states, NUMERIC_FAILURE)
        tau = tau0 + k * dtau
        if any(c < lo or c > hi for (lo, hi), c in zip(box, y)):
            termination = LEFT_DOMAIN
            break
    # a flow's last velocity is one more run of z; a completed curve fails where it does
    velocity = y[m:]
    if len(y) == m:
        try:
            velocity = f(y)
        except NewcartError as err:
            velocity = np.full(m, np.nan)
            if termination == COMPLETED:
                termination, error = EVALUATION_FAILURE, err
    states.append(CurveState(tau, y[:m], velocity))
    return Trajectory(states, termination, error)


def integrate_geodesic(connection, x0, v0, tau0, tau1, dtau, states=None):
    """Integrate the auto-parallel curve of a connection from (x0, v0)."""
    box = connection.structure.domain_box
    m = len(box)

    def accel(y):
        return np.concatenate([y[m:], -connection.spray(y[:m], y[m:])])

    return _integrate(accel, box, np.concatenate([x0, v0]), tau0, tau1, dtau, states)


def integrate_observer_flow(structure, observer, x0, tau0, tau1, dtau, states=None):
    """Integrate a flow line of the observer field; stored velocities are z(x).

    Every state is kept.  Where z cannot be evaluated at the last state,
    its velocity is nan, and a curve that had completed ends with
    "evaluation_failure" and that error instead.
    """
    z = compile_exprs(observer.components)
    return _integrate(z, structure.domain_box, x0, tau0, tau1, dtau, states)


def _header(m):
    return ", ".join(["tau"] + [f"x{i}" for i in range(m)] + [f"v{i}" for i in range(m)]) + "\n"


def _row(state):
    row = [state.tau] + state.position.tolist() + state.velocity.tolist()
    return ", ".join(f"{value:.17g}" for value in row) + "\n"


def trajectory_csv(trajectory, m):
    """Serialize per the fixed interface: tau, x0..x{m-1}, v0..v{m-1}."""
    return _header(m) + "".join(map(_row, trajectory.states))


class CsvRows:
    """Writes a CSV header to `fh`, then a row per appended state; keeps `count`, `last`."""

    def __init__(self, fh, m):
        self.fh, self.count, self.last = fh, 0, None
        fh.write(_header(m))

    def append(self, state):
        self.fh.write(_row(state))
        self.count, self.last = self.count + 1, state
