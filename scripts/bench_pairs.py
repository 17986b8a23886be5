"""Alternating parent/change pairs of `benchmarks/run.py`, summarised as a BENCH_*.json.

Each pair runs one seed on both checkouts, one after the other; the side
that runs first alternates from pair to pair.  Every run is a fresh
`python3 benchmarks/run.py --workload <w> --seed <seed> --seconds <s>
--trace 0` in its own checkout, and its last output line (the metrics
JSON) is kept.  Per metric the summary holds both sides' runs, their
quartiles, how many pairs the change wins and the parent's IQR.

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
BETTER = {"steps_per_s": "higher", "ok_frac": "higher"}  # every other metric: lower


def run_once(checkout, workload, seed, seconds):
    """The metrics and op counts of one benchmark run in `checkout`."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs, unit, better):
    """Quartiles of each side, pairwise wins of the change and the parent's IQR."""
    parent, change = np.array(runs["parent"]), np.array(runs["change"])
    q = {side: np.percentile(values, [25, 50, 75]).tolist()
         for side, values in (("parent", parent), ("change", change))}
    wins = change > parent if better == "higher" else change < parent
    return {"unit": unit, "better": better,
            **{side: dict(zip(("q1", "median", "q3"), q[side])) for side in q},
            "change_wins": int(wins.sum()), "ties": int((change == parent).sum()),
            "median_ratio_change_over_parent": q["change"][1] / q["parent"][1]
            if q["parent"][1] else None,
            "parent_iqr": q["parent"][2] - q["parent"][0],
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

    report = {"description": "newcart benchmarks/run.py end-to-end metrics, parent commit "
                             "against this change; alternating pairs (the side run first "
                             "alternates), one seed per pair; claimed gain: " + args.claim,
              "command": "python3 benchmarks/run.py --workload <w> --seed <seed> "
                         f"--seconds {args.seconds:g} --trace 0",
              "host": args.host, "workloads": {}}
    for workload in args.workloads:
        seeds = [args.seed + k for k in range(args.pairs)]
        first = ["parent" if k % 2 == 0 else "change" for k in range(args.pairs)]
        runs, attempted, failed = {}, {"parent": 0, "change": 0}, {"parent": 0, "change": 0}
        for seed, lead in zip(seeds, first):
            for side in (lead, "change" if lead == "parent" else "parent"):
                result = run_once(getattr(args, side), workload, seed, args.seconds)
                attempted[side] += result["attempted"]
                failed[side] += result["failed"]
                for name, metric in result["metrics"].items():
                    runs.setdefault(name, {"unit": metric["unit"], "parent": [], "change": []})
                    runs[name][side].append(metric["value"])
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
        report["workloads"][workload] = {
            "pairs": args.pairs, "seeds": seeds, "first": first,
            "failed_ops": failed, "attempted_ops": attempted,
            "metrics": {name: summary(r, r["unit"], BETTER.get(name, "lower"))
                        for name, r in runs.items()}}
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
