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
SCENARIOS = BUNDLED + tuple(SYNTHETIC)
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
