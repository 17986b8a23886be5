"""Output oracles.  Each op's outputs are checked after its timed region;
an op whose outputs fail a check counts as failed.

Clock compatibility (w_k Gamma^k_ij = d_i w_j) makes the clock rate O(v)
an exact invariant of auto-parallel curves, so a free-fall curve must keep
it up to integration and rounding error.  A connection that is not clock
compatible moves it by far more than the bound below wherever the clock
form varies along the curve.
"""

from __future__ import annotations

# bound before any tracer is installed, so oracle work is never counted
from newcart.dynamics import COMPLETED, LEFT_DOMAIN
from newcart.expr import evaluate

CLOCK_RATE_TOL = 1e-9

# corrupted bundled fixtures and the entry each must fail first
EXPECTED_FIRST_FAILURE = {
    "bad_observer": "observer normalization",
    "bad_frame": "frame annihilated by clock form",
    "zero_connection_curvedh": "metric compatibility",
}


class OracleFailure(Exception):
    """An op finished but its outputs are wrong."""


def check_report(name, report, json_text, first_json):
    """Valid scenarios pass, fixtures fail at their entry, JSON repeats exactly.

    `first_json` maps a scenario name to the JSON of its first op in the
    run; it is filled in here.
    """
    want = EXPECTED_FIRST_FAILURE.get(name)
    failure = report.first_failure()
    got = failure.name if failure is not None else None
    if got != want:
        raise OracleFailure(f"{name}: first failing entry {got!r}, expected {want!r}")
    if first_json.setdefault(name, json_text) != json_text:
        raise OracleFailure(f"{name}: JSON report differs from this run's first report")


def clock_rate_drift(structure, trajectory):
    """Largest |O(v) - O(v0)| over the stored states of a curve."""
    def rate(state):
        x = state.position
        return sum(evaluate(o, x) * v for o, v in zip(structure.omega, state.velocity))

    start = rate(trajectory.states[0])
    return max(abs(rate(s) - start) for s in trajectory.states)


def check_curve(structure, trajectory, csv_text):
    """A curve ends normally, keeps its clock rate, and is written in full."""
    if trajectory.termination not in (COMPLETED, LEFT_DOMAIN):
        raise OracleFailure(f"curve ended with {trajectory.termination!r}")
    drift = clock_rate_drift(structure, trajectory)
    if not drift <= CLOCK_RATE_TOL:
        raise OracleFailure(f"clock rate drifted by {drift:.3e} (bound {CLOCK_RATE_TOL:.0e})")
    if csv_text.count("\n") != len(trajectory.states) + 1:
        raise OracleFailure("trajectory CSV does not hold one row per state")
