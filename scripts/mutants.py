"""Mutants of the package, each run against tier-1 on a copy of the tree.

An edit is a (file, old text, new text) triple, where the old text occurs
exactly once in the file.  A mutant is one edit, or a list of edits applied
together, in order (a change made consistently at several sites).  Before
anything runs, every edit's old text is looked up; if one is missing or
occurs more than once, the list has gone stale against the code: the
script names the mutant and exits 1.  Otherwise each
mutant is applied, alone, to a fresh temporary copy of the tree, and
tier-1 runs there with `-x`, the known failure deselected and this
script's own test file ignored (it reads the list against the tree, so
it fails on every mutant).  A mutant is killed when a test fails (the
first failing test is printed) and survives when the suite passes.  The
last line is the kill ratio.

    python3 scripts/mutants.py              # every mutant, about 10-40 s each
    python3 scripts/mutants.py --only 0 14  # mutants by index
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_5_rk4_halving_ratio"
OWN_TEST = "tests/test_mutants.py"
CONNECTION, GEOMETRY = "src/newcart/connection.py", "src/newcart/geometry.py"
VERIFY, EXPR = "src/newcart/verify.py", "src/newcart/expr.py"
SCENARIO, CLI = "src/newcart/scenario.py", "src/newcart/cli.py"

MUTANTS = [
    # the finite-difference check ignores the domain box
    (VERIFY, "keep = inside & ~bad[:, :m] & ~bad[:, m:]", "keep = ~bad[:, :m] & ~bad[:, m:]"),
    # the first failing point: the last one is named instead
    (GEOMETRY, "k = int(np.argmax(bad))",
     "k = bad.size - 1 - int(np.argmax(np.ravel(bad)[::-1]))"),
    (EXPR, "first = min(int(np.argmax(bad.any(axis=0))) for",
     "first = min(bad.shape[1] - 1 - int(np.argmax(bad.any(axis=0)[::-1])) for"),
    # structure margins zeroed
    (GEOMETRY, '("clock form nonzero", 0.0, nonzero)', '("clock form nonzero", 0.0, 0 * nonzero)'),
    (GEOMETRY, '("frame rank", 0.0, rank_margin)', '("frame rank", 0.0, 0 * rank_margin)'),
    # signs of the data in Gamma, the spray and the observable map
    (CONNECTION, "rhs += 2.0 * (om_i * om_j", "rhs -= 2.0 * (om_i * om_j"),
    (CONNECTION, "+ w * (state[\"gravity\"]", "- w * (state[\"gravity\"]"),
    (CONNECTION, '"gravity": (coframe @ nz', '"gravity": -(coframe @ nz'),
    (CONNECTION, "rhs += 2.0 * (om_i * cor", "rhs -= 2.0 * (om_i * cor"),
    (CONNECTION, "2.0 * (qv @ state[\"coriolis\"])", "-2.0 * (qv @ state[\"coriolis\"])"),
    (CONNECTION, "0.5 * (pairing - np.swapaxes(pairing, -1, -2))",
     "0.5 * (np.swapaxes(pairing, -1, -2) - pairing)"),
    (CONNECTION, "rhs - pairs - pairs.swapaxes(-3, -2)", "rhs - pairs + pairs.swapaxes(-3, -2)"),
    # d_k g loses its transposed half; the torsion-clock target loses dw's second term
    (CONNECTION, 'values["dg"] = (half + half.swapaxes(-1, -2)', 'values["dg"] = (half + half'),
    (VERIFY, "want = tau[:, i, j] - tau[:, j, i]", "want = tau[:, i, j]"),
    # the rows table read through a wrong view
    (CONNECTION, 'state["rows"]\n    frame_t = rows[..., 1:, :]',
     'state["rows"]\n    frame_t = rows[..., :-1, :]'),
    (CONNECTION, 'state["theta"]\n    frame_t = rows[..., 1:, :]',
     'state["theta"]\n    frame_t = rows[..., :-1, :]'),
    (CONNECTION, "(rows[..., 0, :, None, None]", "(rows[..., 1, :, None, None]"),
    (CONNECTION, "return rows[..., 0, :] *", "return rows[..., 1, :] *"),
    (CONNECTION, 'basis_inverse(values["rows"].swapaxes(-1, -2), points)',
     'basis_inverse(values["rows"], points)'),
    (CONNECTION, 'values["d_rows"].swapaxes(-1, -3)', 'values["d_rows"].swapaxes(-1, -2)'),
    (CONNECTION, "rows, rows[:, :1])", "rows, rows[:, 1:2])"),
    (GEOMETRY, 'values["rows"][:, 1:], -1, -2)', 'values["rows"][:, :-1], -1, -2)'),
    (GEOMETRY, '(ov @ values["rows"][:, 0, :, None])', '(ov @ values["rows"][:, 1, :, None])'),
    (VERIFY, 'state["d_rows"][:, None, 1:]', 'state["d_rows"][:, None, :-1]'),
    (VERIFY, 'state["rows"][:, None, 1:]', 'state["rows"][:, None, :-1]'),
    (VERIFY, 'basis = value["rows"].swapaxes(-1, -2)', 'basis = value["rows"]'),
    # gravity's sign flipped consistently in Gamma, the spray and the observable map
    [(CONNECTION, "rhs += 2.0 * (om_i * om_j", "rhs -= 2.0 * (om_i * om_j"),
     (CONNECTION, "+ w * (state[\"gravity\"]", "- w * (state[\"gravity\"]"),
     (CONNECTION, '"gravity": (coframe @ nz', '"gravity": -(coframe @ nz')],
    # a user table's Gamma replaced by gamma_of's; its group walked after the derivatives
    (CONNECTION, "return gamma_of(state) if self.is_built else state", "return gamma_of(state)"),
    (CONNECTION, '{**inputs, "gamma": self.gamma_exprs, **derivatives}',
     '{**inputs, **derivatives, "gamma": self.gamma_exprs}'),
    # scenario files: any Unicode digit in an indexed key, an undecodable file
    # as a traceback, a leading byte order mark as content
    (SCENARIO, '"([0-9])", shape[1:]', r'r"(\\d)", shape[1:]'),
    (SCENARIO, "except (OSError, UnicodeDecodeError) as err:", "except OSError as err:"),
    (SCENARIO, 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    # the compiled groups left in walk order, not level order; a runtime
    # power's domain rules checked in reverse
    (EXPR, "schedule = sorted(groups.items(), key=lambda g: g[0][0])",
     "schedule = list(groups.items())"),
    (EXPR, "[(bad, reason) for reason, bad in masks.items()]",
     "[(bad, reason) for reason, bad in reversed(masks.items())]"),
    # a function of a constant-in-x_i argument differentiated by the chain rule
    (EXPR, "return ZERO if _zero(du) else FUNCTION_DERIVATIVES[e.fn](e.arg, du)",
     "return FUNCTION_DERIVATIVES[e.fn](e.arg, du)"),
    # abbreviated options accepted again
    (CLI, "partial(sub.add_parser, allow_abbrev=False)", "sub.add_parser"),
]


def edits(mutant):
    """The (file, old, new) edits of a mutant: a triple is one edit."""
    return mutant if isinstance(mutant, list) else [mutant]


def stale(root, mutants):
    """The (index, file, count) of every edit of a mutant whose old text
    does not occur exactly once in its file under `root`."""
    out = []
    for k, mutant in enumerate(mutants):
        for file, old, _ in edits(mutant):
            path = root / file
            count = path.read_text(encoding="utf-8").count(old) if path.is_file() else 0
            if count != 1:
                out.append((k, file, count))
    return out


def apply(tree, mutant):
    """Writes every edit of `mutant` into the files under `tree`, in order."""
    for file, old, new in edits(mutant):
        path = tree / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def run_mutant(root, mutant):
    """The first failing test id of tier-1 on a copy of `root` with
    `mutant` applied, or None when every test passes."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        apply(copy, mutant)
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--deselect", KNOWN_FAILURE, "--ignore", OWN_TEST],
            cwd=copy, env=env, capture_output=True, text=True, check=False)
    if proc.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return found.group(1) if found else f"exit {proc.returncode}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", type=int, choices=range(len(MUTANTS)),
                    help="run these mutant indices only")
    args = ap.parse_args(argv)
    bad = stale(ROOT, MUTANTS)
    for k, file, count in bad:
        print(f"stale mutant {k}: its old text occurs {count} times in {file}")
    if bad:
        return 1
    chosen = range(len(MUTANTS)) if args.only is None else args.only
    killed = 0
    for k in chosen:
        first = run_mutant(ROOT, MUTANTS[k])
        killed += first is not None
        verdict = "survived" if first is None else f"killed by {first}"
        sites = "; ".join(f"{file}: {old.splitlines()[-1].strip()!r} -> "
                          f"{new.splitlines()[-1].strip()!r}"
                          for file, old, new in edits(MUTANTS[k]))
        print(f"{k:2d} {sites}: {verdict}", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
