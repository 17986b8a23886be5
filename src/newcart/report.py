"""Residual report containers shared by structure validation and the checks."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np


@dataclass
class CheckEntry:
    name: str
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    worst_point: tuple | None


def make_entry(name, tolerance, residuals, points):
    """Aggregate per-point residuals into a named entry.

    `residuals` is an array of non-negative values, read in C order;
    `points`, which broadcasts against `residuals.shape + (m,)`, locates
    each residual so the worst one is reproducible as a single-point case:
    a flat list pairs (R,) residuals with (R, m) points, and a stack (N, m)
    pairs with residuals [..., point].  The worst residual is the first
    maximum, where a NaN ranks above every number: the first NaN is the
    worst residual and fails the entry.  The mean sums the residuals in
    order.
    """
    residuals = np.asarray(residuals, dtype=float)
    if not residuals.size:
        return CheckEntry(name, 0.0, 0.0, tolerance, True, None)
    # argmax stops at the first NaN
    worst = np.unravel_index(np.argmax(residuals), residuals.shape)
    max_res = float(residuals[worst])
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in Python
        mean_res = float(np.cumsum(residuals)[-1] / residuals.size)
    # the point broadcasting pairs with the worst residual: the trailing
    # indices, and 0 along an axis of length 1
    points = np.asarray(points, dtype=float)
    lead = points.shape[:-1]
    at = tuple(i if d > 1 else 0 for i, d in zip(worst[len(worst) - len(lead):], lead))
    worst_point = tuple(points[at].tolist())
    return CheckEntry(name, max_res, mean_res, tolerance, max_res <= tolerance, worst_point)


def _scalar(value):
    """One JSON scalar as json.dumps prints it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)  # NaN, +-inf, ints, bools, None


def _array(items, indent):
    """A list of encoded items laid out as json.dumps(indent=2) nests it
    `indent` spaces deep."""
    if not items:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


_ENTRY = ('{\n      "max": %s,\n      "mean": %s,\n      "name": %s,\n      "pass": %s,\n'
          '      "tol": %s,\n      "worst_point": %s\n    }')


@dataclass
class CheckReport:
    scenario: str
    seed: int
    entries: list[CheckEntry] = field(default_factory=list)
    check_fields: tuple[tuple[str, ...], ...] = ()

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def first_failure(self):
        for e in self.entries:
            if not e.passed:
                return e
        return None

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "entries": [
                {
                    "name": e.name,
                    "max": e.max_residual,
                    "mean": e.mean_residual,
                    "tol": e.tolerance,
                    "pass": e.passed,
                    "worst_point": list(e.worst_point) if e.worst_point is not None else None,
                }
                for e in self.entries
            ],
            "pass": self.passed,
            "check_fields": [list(f) for f in self.check_fields],
        }

    def to_json(self):
        """The text of json.dumps(self.to_dict(), indent=2, sort_keys=True)
        plus a newline, written in one pass over the fixed schema, whose
        keys are listed in sorted order."""
        fields = _array([_array([_scalar(c) for c in f], 4) for f in self.check_fields], 2)
        entries = _array([_ENTRY % (
            _scalar(e.max_residual), _scalar(e.mean_residual), _scalar(e.name),
            _scalar(e.passed), _scalar(e.tolerance),
            "null" if e.worst_point is None else _array([_scalar(c) for c in e.worst_point], 6))
            for e in self.entries], 2)
        return ('{\n  "check_fields": %s,\n  "entries": %s,\n  "pass": %s,\n'
                '  "scenario": %s,\n  "seed": %s\n}\n' % (
                    fields, entries, _scalar(self.passed), _scalar(self.scenario),
                    _scalar(self.seed)))

    def render_table(self):
        # names pad to 44 characters, or to the longest so that columns align
        width = max([44, *(len(e.name) for e in self.entries)])
        lines = [f"scenario: {self.scenario}    seed: {self.seed}"]
        lines.append(f"{'check':{width}}  {'max':>12}  {'mean':>12}  {'tol':>8}  status")
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            lines.append(
                f"{e.name:{width}}  {e.max_residual:12.3e}  {e.mean_residual:12.3e}"
                f"  {e.tolerance:8.0e}  {status}"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)
