"""Auto-parallel curves and observer flow lines, integrated with fixed-step RK4.

Both are one first-order system y' = f(y) whose state's first m entries
are the position and the rest the velocity.  Free fall is y = (x, v) with
f(y) = (v, -Gamma^k_ij v^i v^j) over the curve parameter, read from the
connection's spray, so no stage forms a Gamma table.  The positions of a
step's RK4 stages come in pairs, x and x + dtau/2 v, then x + dtau/2 V2
and x + dtau V3 once stage 2 is done, so the connection's position part
(`Connection.spray_state`) runs once per pair, twice per step, with the
bits of plain RK4; where a pair's run raises, its stages run one point at
a time through `Connection.spray`, so the error is a one-point stage's.  A
flow line is y = x with the compiled observer field z as f, stepped by
plain RK4, and its velocities are z at the states, nan only at a last
state where z is undefined.  Steps are uniform; leaving the domain box is
a normal termination.  A non-finite state ends the trajectory with reason
"numeric_failure"; an error raised by the right-hand side (say sqrt of a
negative value, or a singular metric) ends it with "evaluation_failure"
and is kept on the trajectory.  Either way the failed step is discarded
and every earlier state kept.  Each state goes to `states.append` once its
velocity is known: a new list by default, or `CsvRows`, which keeps none;
the trajectory holds the last one as `final`, whatever the sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
    final: CurveState
    termination: str
    error: NewcartError | None = None


def _rk4_step(f, y, dtau):
    """One classical RK4 step of y' = f(y): (f(y), the next y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * dtau * k1)
    k3 = f(y + 0.5 * dtau * k2)
    k4 = f(y + dtau * k3)
    return k1, y + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _free_fall_step(connection, y, dtau):
    """`_rk4_step` of free fall from y = (x, v), its stage positions in pairs."""
    m = len(y) // 2
    k1, k2 = _stage_pair(connection, y, y, y[:m] + 0.5 * dtau * y[m:], 0.5 * dtau)
    y3 = y + 0.5 * dtau * k2
    k3, k4 = _stage_pair(connection, y, y3, y[:m] + dtau * y3[m:], dtau)
    return k1, y + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_pair(connection, y, ya, xb, c):
    """Free fall's k = (V, -spray(X, V)) at two RK4 stages from y: at ya, then
    at y + c k_a, whose position xb is known before either runs."""
    m = len(y) // 2
    try:
        state = connection.spray_state(np.stack([ya[:m], xb]))
        sprays = [partial(connection.spray_at, {key: a[i] for key, a in state.items()})
                  for i in (0, 1)]
    except NewcartError:  # one point at a time, so a fault is named as one point's
        sprays = [partial(connection.spray, ya[:m]), partial(connection.spray, xb)]
    ka = np.concatenate([ya[m:], -sprays[0](ya[m:])])
    yb = y + c * ka
    return ka, np.concatenate([yb[m:], -sprays[1](yb[m:])])


def step_count(tau0, tau1, dtau):
    """Whole steps of dtau from tau0 to tau1; ValueError when not finite."""
    count = np.floor((tau1 - tau0) / dtau * (1.0 + 1e-12))
    if not np.isfinite(count):
        raise ValueError(f"({tau1!r} - {tau0!r}) / {dtau!r} is not a finite step count")
    return int(count)


def _integrate(f, box, y0, tau0, tau1, dtau, states=None, step=_rk4_step):
    """Trajectory of y' = f(y) into `states`, where `step(f, y, dtau)` gives
    f(y) and the next y; positions are views of y[:len(box)]."""
    if dtau <= 0.0:
        raise ValueError("step size must be positive")
    if tau1 <= tau0:
        raise ValueError("final parameter must exceed the initial one")
    m, states = len(box), [] if states is None else states
    y, tau, termination, error = np.array(y0, dtype=float), tau0, COMPLETED, None
    for k in range(1, step_count(tau0, tau1, dtau) + 1):
        try:
            k1, y_next = step(f, y, dtau)
        except NewcartError as err:
            termination, error = EVALUATION_FAILURE, err
            break
        state = CurveState(tau, y[:m], y[m:] if len(y) > m else k1)
        states.append(state)
        if not np.isfinite(y_next).all():
            return Trajectory(states, state, NUMERIC_FAILURE)
        y, tau = y_next, tau0 + k * dtau
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
    state = CurveState(tau, y[:m], velocity)
    states.append(state)
    return Trajectory(states, state, termination, error)


def integrate_geodesic(connection, x0, v0, tau0, tau1, dtau, states=None):
    """Integrate the auto-parallel curve of a connection from (x0, v0)."""
    return _integrate(connection, connection.structure.domain_box, np.concatenate([x0, v0]),
                      tau0, tau1, dtau, states, _free_fall_step)


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
    """Writes a CSV header to `fh`, then a row per appended state; keeps their `count`."""

    def __init__(self, fh, m):
        self.fh, self.count = fh, 0
        fh.write(_header(m))

    def append(self, state):
        self.fh.write(_row(state))
        self.count += 1
