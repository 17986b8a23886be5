"""Alternating parent/change pairs of `benchmarks/run.py`, summarised as a BENCH_*.json.

Each pair runs one seed on both checkouts, one after the other; the side
that runs first alternates from pair to pair.  Every run is a fresh
`python3 benchmarks/run.py --workload <w> --seed <seed> --seconds <s>
--trace 0` in its own checkout, and its last output line (the metrics
JSON) is kept.  The JSON names each side's commit and whether its tree
was dirty when the runs began.  Per metric the summary holds both sides'
runs, their quartiles, how many pairs the change wins and the parent's
IQR, and the verdict of two rules:

- `claim_met`: the change wins at least 9 in 10 of the pairs (a tie wins
  for neither side) and its median is better than the parent's by more
  than the parent's IQR;
- `within_bound`: the change's median is worse than the parent's by at
  most the metric's `bound` in BENCHMARK.json (relative to the parent's
  median), or "unresolved" when the parent's own IQR exceeds that bound
  and not every change run beats every parent run.

A run that fails is recorded (side, seed, exit code, the tail of its
stderr) and its pair is left out of the metrics; the other pairs still
go into the JSON, and the script exits 1 at the end.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 30 --out BENCH_21.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("freefall-4d", "check-bundled")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
CLAIM_WINS = (9, 10)  # a claim needs 9 wins in every 10 pairs
STDERR_TAIL = 2000


def load_rules():
    """{metric: (better, bound)} of the end-to-end metrics in BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def checkout_commit(checkout):
    """{"commit", "dirty"} of a checkout: `git rev-parse HEAD` and whether
    `git status --porcelain` lists anything, or "unknown" and None outside
    git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=False)

    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except OSError:  # no git on this machine, or no such directory
        return {"commit": "unknown", "dirty": None}
    if head.returncode or status.returncode:
        return {"commit": "unknown", "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_once(checkout, workload, seed, seconds):
    """(metrics JSON, None) of one benchmark run in `checkout`, or (None,
    failure record) when it exits non-zero or prints no metrics."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode == 0:
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), None
        except (IndexError, json.JSONDecodeError):
            pass
    return None, {"seed": seed, "exit_code": proc.returncode,
                  "stderr_tail": proc.stderr[-STDERR_TAIL:]}


def verdict(parent, change, better, bound, pairs=None):
    """`change_wins`, `claim_met` and `within_bound` of paired runs; `pairs`
    is the number of pairs planned (default: all given), so a failed pair
    wins nothing."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    wins = int(np.count_nonzero(sign * (change - parent) > 0))
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    gain = sign * (np.median(change) - median)
    pairs = len(parent) if pairs is None else pairs
    claim = CLAIM_WINS[1] * wins >= CLAIM_WINS[0] * pairs and gain > q3 - q1
    out = {"change_wins": wins, "claim_met": bool(claim),
           "within_bound": None}
    if bound is not None:
        scale = abs(median)
        within = bool(-gain <= bound * scale)
        all_beat = bool(np.all(sign * (change[:, None] - parent[None, :]) > 0))
        if scale and (q3 - q1) / scale > bound and not all_beat:
            within = "unresolved"
        out["within_bound"] = within
    return out


def summary(runs, unit, better, bound, pairs):
    """Quartiles of each side, the parent's IQR and the verdict."""
    parent, change = np.array(runs["parent"]), np.array(runs["change"])
    q = {side: np.percentile(values, [25, 50, 75]).tolist()
         for side, values in (("parent", parent), ("change", change))}
    return {"unit": unit, "better": better, "bound": bound,
            **{side: dict(zip(("q1", "median", "q3"), q[side])) for side in q},
            "ties": int((change == parent).sum()),
            "median_ratio_change_over_parent": q["change"][1] / q["parent"][1]
            if q["parent"][1] else None,
            "parent_iqr": q["parent"][2] - q["parent"][0],
            **verdict(parent, change, better, bound, pairs),
            "parent_runs": parent.tolist(), "change_runs": change.tolist()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=2101, help="seed of the first pair")
    ap.add_argument("--claim", default="", help="the claimed gain, for the description")
    ap.add_argument("--host", default="", help="the machine the runs were made on")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    rules = load_rules()

    report = {"description": "newcart benchmarks/run.py end-to-end metrics, parent commit "
                             "against this change; alternating pairs (the side run first "
                             "alternates), one seed per pair; claimed gain: " + args.claim,
              "command": "python3 benchmarks/run.py --workload <w> --seed <seed> "
                         f"--seconds {args.seconds:g} --trace 0",
              "host": args.host,
              "checkouts": {side: checkout_commit(getattr(args, side))
                            for side in ("parent", "change")},
              "workloads": {}}
    any_failed = False
    for workload in args.workloads:
        seeds = [args.seed + k for k in range(args.pairs)]
        first = ["parent" if k % 2 == 0 else "change" for k in range(args.pairs)]
        runs, attempted, failed = {}, {"parent": 0, "change": 0}, {"parent": 0, "change": 0}
        failed_runs = []
        for seed, lead in zip(seeds, first):
            results = {}
            for side in (lead, "change" if lead == "parent" else "parent"):
                result, failure = run_once(getattr(args, side), workload, seed, args.seconds)
                if failure is not None:
                    failed_runs.append({"side": side, **failure})
                    print(f"{workload} seed {seed} {side}: exited {failure['exit_code']}",
                          file=sys.stderr, flush=True)
                    continue
                results[side] = result
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
            if len(results) < 2:
                continue  # a pair with a failed run is left out of the metrics
            for side, result in results.items():
                attempted[side] += result["attempted"]
                failed[side] += result["failed"]
                for name, metric in result["metrics"].items():
                    runs.setdefault(name, {"unit": metric["unit"], "parent": [], "change": []})
                    runs[name][side].append(metric["value"])
        any_failed = any_failed or bool(failed_runs)
        report["workloads"][workload] = {
            "pairs": args.pairs, "seeds": seeds, "first": first,
            "failed_ops": failed, "attempted_ops": attempted, "failed_runs": failed_runs,
            "metrics": {name: summary(r, r["unit"], *rules.get(name, ("lower", None)),
                                      args.pairs)
                        for name, r in runs.items()}}
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
