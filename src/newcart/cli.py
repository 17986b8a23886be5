"""Command-line surface: validate, inspect, round-trip, and integrate.

Exit codes: 0 all requested checks pass, 1 a check failed (or a curve
failed, or a printed coefficient is not finite), 2 usage errors (bad
arguments, an output file that cannot be written), 3 scenario errors
(unreadable, malformed, or numerically unusable files, or too large to
evaluate in memory).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from . import dynamics, verify
from .connection import build_connection, connection_from_exprs, observable_map
from .errors import DomainError, NewcartError, ScenarioError
from .expr import to_string
from .scenario import load_scenario

SCENARIO_ERROR = 3
CHECK_FAILED = 1
# options whose value may start with "-", as a point (-0.1,0.3) or a number (-1e-3) does
VALUE_OPTIONS = frozenset({"--at", "--from", "--vel", "--t0", "--t1", "--dt"})


def _finite(text):
    """A finite float: the type of every numeric option."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"needs finite numbers, got {text!r}")


def _point(text, m, parser, flag):
    parts = text.split(",")
    if len(parts) != m:
        parser.error(f"{flag} needs {m} comma-separated numbers")
    try:
        return np.array([_finite(x) for x in parts])
    except argparse.ArgumentTypeError as err:
        parser.error(f"{flag} {err}")


def _span(args, parser):
    """The curve parameter's (t0, t1, dt): dt > 0, t1 > t0 and finitely many steps."""
    if not args.dt > 0.0:
        parser.error("--dt must be positive")
    if not args.t1 > args.t0:
        parser.error("--t1 must exceed --t0")
    try:
        dynamics.step_count(args.t0, args.t1, args.dt)
    except ValueError:
        parser.error("(--t1 - --t0) / --dt must be a finite step count")
    return args.t0, args.t1, args.dt


def _error_text(err, names):
    """The error's message, with a failing subexpression in the chart's names."""
    if isinstance(err, DomainError) and err.subexpression is not None:
        return f"{err.reason} in '{to_string(err.subexpression, names)}'"
    return str(err)


def _connection_for(scn):
    if scn.has_user_connection:
        return connection_from_exprs(scn.structure, scn.observer, scn.christoffel)
    return build_connection(scn.structure, scn.observer, scn.data)


def cmd_check(scn, args, parser):
    report = verify.run_all(scn.structure, scn.observer, connection=_connection_for(scn),
                            scenario_name=scn.name,
                            expect_torsion_free=args.expect_torsion_free)
    print(report.render_table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return 0 if report.passed else CHECK_FAILED


def _print_values(lines):
    """Print `label = value` lines; exit 1 when a value is not finite."""
    for label, value in lines:
        print(f"{label} = {float(value)!r}")
    return 0 if all(math.isfinite(value) for _, value in lines) else CHECK_FAILED


def cmd_connection(scn, args, parser):
    m, names = scn.structure.dim, scn.structure.coord_names
    p = _point(args.at, m, parser, "--at")
    gamma = _connection_for(scn).christoffel(p)
    print(f"coefficients at ({', '.join(repr(float(c)) for c in p)}):")
    return _print_values([(f"Gamma^{names[k]}_{names[i]}{names[j]}", gamma[k, i, j])
                          for k in range(m) for i in range(m) for j in range(m)])


def cmd_observables(scn, args, parser):
    S = scn.structure
    p = _point(args.at, S.dim, parser, "--at")
    image = observable_map(_connection_for(scn).state([p]))
    names, n = S.coord_names, S.n
    return _print_values(
        [(f"gravity^{a + 1}", image["gravity"][0, a]) for a in range(n)]
        + [(f"coriolis_{a + 1}{b + 1}", image["coriolis"][0, a, b])
           for a in range(n) for b in range(a + 1, n)]
        + [(f"torsion^{a + 1}_{names[i]}{names[j]}", image["theta"][0, a, i, j])
           for a in range(n) for i in range(S.dim) for j in range(i + 1, S.dim)])


def cmd_roundtrip(scn, args, parser):
    if scn.has_user_connection:
        print("scenario error: the scenario supplies raw coefficients, "
              "no data triple to round-trip", file=sys.stderr)
        return SCENARIO_ERROR
    entries, state = verify.structure_stage(_connection_for(scn))
    if state is None:
        failed = next(entry for entry in entries if not entry.passed)
        print(f"structure check failed: {failed.name}", file=sys.stderr)
        return CHECK_FAILED
    entry = verify.check_roundtrip(state)
    print(f"max round-trip deviation = {float(entry.max_residual)!r} "
          f"(tolerance {entry.tolerance!r})")
    return 0 if entry.passed else CHECK_FAILED


def cmd_geodesic(scn, args, parser):
    S = scn.structure
    x0 = _point(args.start, S.dim, parser, "--from")
    v0 = _point(args.vel, S.dim, parser, "--vel")
    return _write_curve(S, args.out, dynamics.integrate_geodesic, _connection_for(scn), x0, v0,
                        *_span(args, parser))


def cmd_flow(scn, args, parser):
    S = scn.structure
    x0 = _point(args.start, S.dim, parser, "--from")
    return _write_curve(S, args.out, dynamics.integrate_observer_flow, S, scn.observer, x0,
                        *_span(args, parser))


def _write_curve(S, path, integrate, *args):
    with open(path, "w", encoding="utf-8") as fh:
        rows = dynamics.CsvRows(fh, S.dim)
        traj = integrate(*args, states=rows)
    print(f"{rows.count} states, termination: {traj.termination}")
    if traj.error is not None:
        print(f"error: {_error_text(traj.error, S.coord_names)}", file=sys.stderr)
    print("final position: " + ", ".join(repr(float(c)) for c in traj.final.position))
    return CHECK_FAILED if traj.termination in dynamics.FAILURES else 0


COMMANDS = {"check": cmd_check, "connection": cmd_connection,
            "observables": cmd_observables, "roundtrip": cmd_roundtrip,
            "geodesic": cmd_geodesic, "flow": cmd_flow}


def _joined(argv):
    """argv with each of VALUE_OPTIONS and the token after it joined as
    `--option=value`: argparse then reads that token as the value, also
    where it starts with "-"."""
    out, rest = [], list(argv)
    while rest:
        token = rest.pop(0)
        out.append(f"{token}={rest.pop(0)}" if token in VALUE_OPTIONS and rest else token)
    return out


def make_parser():
    parser = argparse.ArgumentParser(
        prog="newcart",
        description="Build, verify, and exercise compatible connections on "
                    "clock-form space-time structures.")
    sub = parser.add_subparsers(dest="command", required=True)
    # options are spelled in full: _joined knows them by their whole names
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("check", help="run the full verification report")
    p.add_argument("scenario")
    p.add_argument("--json", help="write the JSON report to this path")
    p.add_argument("--expect-torsion-free", action="store_true",
                   help="additionally require that a symmetric connection is feasible")

    for name, text in (("connection", "print coefficients at a point"),
                       ("observables", "print the observable triple at a point")):
        p = add_parser(name, help=text)
        p.add_argument("scenario")
        p.add_argument("--at", required=True)

    p = add_parser("roundtrip", help="rebuild the data from the connection")
    p.add_argument("scenario")

    for name, text in (("geodesic", "integrate an auto-parallel curve"),
                       ("flow", "integrate an observer flow line")):
        p = add_parser(name, help=text)
        p.add_argument("scenario")
        p.add_argument("--from", dest="start", required=True)
        if name == "geodesic":
            p.add_argument("--vel", required=True)
        p.add_argument("--t0", type=_finite, default=0.0)
        p.add_argument("--t1", type=_finite, required=True)
        p.add_argument("--dt", type=_finite, required=True)
        p.add_argument("--out", required=True)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    scn = None
    try:
        # an overflowing or undefined value ends as a failing entry, a
        # non-finite printed value or a numeric failure, not as a warning
        with np.errstate(all="ignore"):
            scn = load_scenario(args.scenario)
            return COMMANDS[args.command](scn, args, parser)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return SCENARIO_ERROR
    except NewcartError as err:
        names = scn.structure.coord_names if scn is not None else None
        print(f"error: {_error_text(err, names)}", file=sys.stderr)
        return SCENARIO_ERROR
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return SCENARIO_ERROR
    except RecursionError as err:  # parsing, differentiating or compiling recurse over depth
        print(f"error: expression nested too deeply: {err}", file=sys.stderr)
        return SCENARIO_ERROR
    except OSError as err:  # an output file (--json, --out) that cannot be written
        parser.error(str(err))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
