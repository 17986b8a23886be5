"""Compare what two checkouts print and write on one fixed command set.

The scenario files are written once, from the `--change` checkout, and
both sides read the same files: the 8 bundled scenarios and the
synthetic ones of `benchmarks/synth.py` at m = 2..5, seeds 1 and 7.  So
are the commands, per scenario:

- `check`, with and without `--expect-torsion-free`, with `--json`;
- `connection --at` and `observables --at` at the box centre and at 2
  seeded points in the box;
- `geodesic` (a seeded velocity) and `flow` from the same 3 starts, with
  `--t1 0.5 --dt 0.01`.

Those curves end `completed` or `left_domain`.  The fixtures (FIXTURES,
written as text) add one curve each that ends otherwise: flows whose z
fails at the last state, at a state mid-run, inside a step (at a later
RK4 stage) or at the start, one whose z is undefined only outside the
box it leaves, geodesics whose metric fails (`evaluation_failure`), two
of them first at the second stage position of a step's first or second
stage pair, and one whose [christoffel] table blows up
(`numeric_failure`).

Each checkout then runs every command in one fresh process
(`PYTHONPATH=<checkout>/src`) through `newcart.cli.main`, and keeps, per
command, its exit code, stdout and stderr in `<command>.txt` beside the
file it wrote (`.json` or `.csv`).  The two directories are compared
file by file: each output that differs, or that only one side wrote, is
named with a unified diff of its first lines, and the script exits 1;
otherwise it prints how many outputs it compared and exits 0.

    python3 scripts/compare_outputs.py --parent ../parent --change .
    python3 scripts/compare_outputs.py --parent ../parent --change . --scenario flat curvedh
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BUNDLED = ("bad_frame", "bad_observer", "curvedh", "flat", "grav", "rot", "twist",
           "zero_connection_curvedh")
SYNTHETIC = {f"synthetic_m{m}_s{seed}": (m, seed) for m in range(2, 6) for seed in (1, 7)}
# a 2-d chart (t, x) with a unit clock form and frame; z, h11, the box and
# an optional extra section vary
FIXTURE = """[spacetime]
dim = 2
coords = t, x
[omega]
O = 1, 0
[observer]
z = 1, {z}
[frame]
E1 = 0, 1
[metric]
h11 = {h11}
{extra}[domain]
box = {box}
samples = 10
seed = 1
"""
# the flows' z: +-exp(t) plus a zero term that is undefined below LEAVES or above ENTERS
LEAVES, ENTERS = 0.027372805019272528, 3.4726271949807272
DEFINED_ABOVE = f"sqrt(x - {LEAVES}) - sqrt(x - {LEAVES})"
DEFINED_BELOW = f"sqrt({ENTERS} - x) - sqrt({ENTERS} - x)"
# x(t) = exp(t) - 1 from x = 0 passes ENTERS between t = 1.45 and 1.5
RISES = dict(z=f"exp(t) + {DEFINED_BELOW}", h11="1", extra="", box="-5 5, -20 20")
# h11 is undefined at x < 0, where a geodesic falling from x = start heads; from
# 0.033 it fails first at the second position of a step's first pair of RK4
# stages (stage 2), from 0.038 at that of its second pair (stage 4)
SQRT_METRIC = dict(z="0", h11="1 + sqrt(x)", extra="", box="0 1, -1 1")


def _falls_from(start):
    return ("geodesic", f"--from=0,{start}", "--vel=0,-1", "--t1=1", "--dt=0.01")


# name: (the FIXTURE fields, the command and its options)
FIXTURES = {
    "edge_flow_left_domain": (
        dict(z=f"-exp(t) + {DEFINED_ABOVE}", h11="1", extra="", box=f"-5 5, {LEAVES} 20"),
        ("flow", "--from=0,3.5", "--t1=3", "--dt=0.5")),
    "edge_flow_fails_at_a_state": (RISES, ("flow", "--from=0,0", "--t1=3", "--dt=0.5")),
    "edge_flow_fails_inside_a_step": (RISES, ("flow", "--from=0,0", "--t1=3", "--dt=0.05")),
    "edge_flow_fails_at_the_last_state": (RISES, ("flow", "--from=0,0", "--t1=1.5", "--dt=0.5")),
    "edge_flow_undefined_at_the_start": (
        dict(z="0.1*sqrt(x)", h11="1 + x^2/10", extra="", box="0 1, -1 1"),
        ("flow", "--from=0.3,-0.5", "--t1=0.3", "--dt=0.05")),
    "edge_geodesic_sqrt_metric": (SQRT_METRIC, _falls_from(0.05)),
    "edge_geodesic_fails_in_the_first_pair": (SQRT_METRIC, _falls_from(0.033)),
    "edge_geodesic_fails_in_the_second_pair": (SQRT_METRIC, _falls_from(0.038)),
    "edge_geodesic_blow_up": (
        dict(z="0", h11="1", extra="[christoffel]\nC1_11 = -1\n", box="-0.5 3, -1e300 1e300"),
        ("geodesic", "--from=0,0", "--vel=0,1", "--t1=2", "--dt=0.01")),
}
SCENARIOS = BUNDLED + tuple(SYNTHETIC) + tuple(FIXTURES)
CURVE = ["--t1=0.5", "--dt=0.01"]
DIFF_LINES = 20


def _joined(values):
    return ",".join(repr(float(v)) for v in values)


def write_scenarios(directory, names):
    """Writes each named scenario's file into `directory`, and
    commands.json: a list of [name, argv], where a scenario is its path
    and a written file a name relative to the run's directory."""
    import numpy as np

    from newcart.scenario import bundled_scenario_path, load_scenario

    commands, directory = [], Path(directory).resolve()
    for name in names:
        path = directory / f"{name}.scn"
        if name in FIXTURES:
            fields, (command, *options) = FIXTURES[name]
            path.write_text(FIXTURE.format(**fields), encoding="utf-8")
            commands.append([f"{command}-{name}", [command, str(path), *options,
                                                   f"--out={command}-{name}.csv"]])
            continue
        if name in SYNTHETIC:
            from synth import synthetic_text
            path.write_text(synthetic_text(*SYNTHETIC[name]), encoding="utf-8")
        else:
            path.write_bytes(bundled_scenario_path(name).read_bytes())
        scn = str(path)
        commands += [[f"check-{name}", ["check", scn, f"--json=check-{name}.json"]],
                     [f"check-{name}-torsion-free", ["check", scn, "--expect-torsion-free",
                                                     f"--json=check-{name}-torsion-free.json"]]]
        structure = load_scenario(path).structure
        box = np.array(structure.domain_box, dtype=float)
        rng = np.random.default_rng(0)
        starts = [box.mean(axis=1)] + [rng.uniform(box[:, 0], box[:, 1]) for _ in range(2)]
        for k, x in enumerate(starts):
            v = rng.uniform(-1.0, 1.0, structure.dim)
            commands += [
                [f"connection-{name}-{k}", ["connection", scn, f"--at={_joined(x)}"]],
                [f"observables-{name}-{k}", ["observables", scn, f"--at={_joined(x)}"]],
                [f"geodesic-{name}-{k}", ["geodesic", scn, f"--from={_joined(x)}",
                                          f"--vel={_joined(v)}", *CURVE,
                                          f"--out=geodesic-{name}-{k}.csv"]],
                [f"flow-{name}-{k}", ["flow", scn, f"--from={_joined(x)}", *CURVE,
                                      f"--out=flow-{name}-{k}.csv"]]]
    (directory / "commands.json").write_text(json.dumps(commands), encoding="utf-8")


def run_commands(scenarios, out):
    """Runs every command of `scenarios`/commands.json through cli.main in
    `out`, writing its exit code, stdout and stderr to <command>.txt."""
    from newcart.cli import main

    commands = json.loads((Path(scenarios) / "commands.json").read_text(encoding="utf-8"))
    os.chdir(out)
    for name, argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as err:  # a usage error
                code = err.code
        Path(f"{name}.txt").write_text(
            f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}",
            encoding="utf-8")


def _python(paths, *args):
    """Runs this script with `args` in a fresh interpreter whose
    PYTHONPATH is `paths`; raises on a non-zero exit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in paths),
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, __file__, *map(str, args)], env=env, check=True)


def differing(parent, change):
    """The names of the files that differ between two output directories,
    or that only one of them holds, and how many files there are."""
    names = sorted({p.name for p in Path(parent).iterdir()}
                   | {p.name for p in Path(change).iterdir()})
    out = []
    for name in names:
        a, b = Path(parent) / name, Path(change) / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            out.append(name)
    return out, len(names)


def _lines(path):
    return path.read_text(encoding="utf-8", errors="replace").splitlines() if path.is_file() else []


def _diff(parent, change, name):
    """The first lines of a unified diff of one output, parent to change."""
    diff = difflib.unified_diff(_lines(Path(parent) / name), _lines(Path(change) / name),
                                f"parent/{name}", f"change/{name}", lineterm="")
    return list(diff)[:DIFF_LINES]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="the checkout compared against")
    ap.add_argument("--change", type=Path, help="the checkout under test")
    ap.add_argument("--scenario", nargs="+", choices=SCENARIOS, default=list(SCENARIOS),
                    help="these scenarios only (default: all)")
    # the steps that run inside one checkout's interpreter
    ap.add_argument("--write-scenarios", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--run", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write_scenarios is not None:
        write_scenarios(args.write_scenarios, args.scenario)
        return 0
    if args.run is not None:
        run_commands(*args.run)
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        scenarios, sides = Path(tmp) / "scenarios", [Path(tmp) / "parent", Path(tmp) / "change"]
        for directory in (scenarios, *sides):
            directory.mkdir()
        change = args.change.resolve()
        _python([change / "src", change / "benchmarks"], "--write-scenarios", scenarios,
                "--scenario", *args.scenario)
        for checkout, out in zip((args.parent.resolve(), change), sides):
            _python([checkout / "src"], "--run", scenarios, out)
        names, count = differing(*sides)
        for name in names:
            print(f"differs: {name}")
            for line in _diff(*sides, name):
                print(f"    {line}")
    if names:
        print(f"{len(names)} of {count} outputs differ")
        return 1
    print(f"{count} outputs, none differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
