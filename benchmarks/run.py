#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of newcart.

    python3 benchmarks/run.py --workload check-bundled --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 55 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  benchmarks/README.md describes the workloads and
metrics.  The program under test is imported from src/ of the checkout
this file sits in; without it the run fails and prints no result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: the library's matrices are m x m with m <= 4, and an idle
# pool thread would only compete with the measured one on a small machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

from hostref import REF_S, local_medians, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("check-bundled", "freefall-4d")
SETUP_REPEATS = 5
# Rounds begun in the first WARMUP_S seconds after set-up are run and
# checked, but left out of every timing.
WARMUP_S = 2.0
# op_s.tail is the TAIL percentile of single op times on every workload, fixed
# so that a faster commit, which completes more ops, reports the same one.
TAIL = 90.0
TAIL_BEYOND = 10
# An untraced run goes on past --seconds until FIXED_OPS timed ops have run,
# and reads peak_rss_mb at that point: the memory of a fixed amount of work,
# however fast the ops are.  It also leaves TAIL_BEYOND ops beyond TAIL.
# 104 is 13 rounds of check-bundled.
FIXED_OPS = 104

# Op times in the end-to-end metrics are scaled by REF_S over the median
# host reference time of the 2 * HOST_WINDOW + 1 ops around each op
# (hostref.py); a narrower window lets the reference's own jitter into the tail.
HOST_WINDOW = 16

# ref: seconds of the host reference timed just before the op
OpResult = namedtuple("OpResult", "seconds steps step_seconds error ref", defaults=(None,))


def import_library():
    """Import newcart from this checkout's src/, never from anywhere else."""
    if not (SRC / "newcart" / "__init__.py").is_file():
        sys.exit(f"benchmark: no newcart sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import newcart
    if not Path(newcart.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: imported newcart from {newcart.__file__}, not {SRC}")


def seed_for(seed, name):
    """Per-item seed derived from the workload seed, stable across processes."""
    return int(hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()[:8], 16) % 1_000_000


# --- workloads -------------------------------------------------------------

class CheckBundled:
    """One op checks one bundled scenario, as `newcart check` does.

    A round is every scenario once, in a seeded order, so op-time
    percentiles see each scenario equally often.
    """

    name = "check-bundled"
    integrates = False
    SCENARIOS = ("flat", "grav", "rot", "twist", "curvedh",
                 "bad_observer", "bad_frame", "zero_connection_curvedh")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 0])
        self.first_json = {}
        self.meta = {}

    def setup(self):
        from newcart import scenario
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name in self.SCENARIOS:
            text = scenario.bundled_scenario_path(name).read_text(encoding="utf-8")
            domain_seed = seed_for(self.seed, name)
            text, count = re.subn(r"(?m)^(\s*seed\s*=\s*)\d+[ \t]*$", rf"\g<1>{domain_seed}", text)
            if count != 1:
                raise RuntimeError(f"bundled scenario {name} has no single [domain] seed line")
            path = self.workdir / f"{name}.scn"
            path.write_text(text, encoding="utf-8")
            self.paths[name] = path
        self.meta["domain_seeds"] = {n: seed_for(self.seed, n) for n in self.SCENARIOS}

    def round(self):
        order = self.rng.permutation(len(self.SCENARIOS))
        return [lambda name=self.SCENARIOS[i]: self.op(name) for i in order]

    def op(self, name):
        from newcart import connection, scenario, verify
        from oracles import OracleFailure, check_report
        start = time.perf_counter()
        scn = scenario.load_scenario(self.paths[name])
        S, obs = scn.structure, scn.observer
        if scn.has_user_connection:
            conn = connection.connection_from_exprs(S, obs, scn.christoffel)
            report = verify.run_all(S, obs, connection=conn, scenario_name=scn.name)
        else:
            report = verify.run_all(S, obs, data=scn.data, scenario_name=scn.name)
        report.render_table()
        text = report.to_json()
        seconds = time.perf_counter() - start
        error = None
        try:
            check_report(name, report, text, self.first_json)
        except OracleFailure as err:
            error = str(err)
        return OpResult(seconds, len(report.entries), seconds, error)


class FreeFall4D:
    """Seeded synthetic m = 4 structure, one connection shared by every op.

    One op integrates one short geodesic from a seeded (x0, v0), then writes
    its CSV; every Γ point is new.
    """

    name = "freefall-4d"
    integrates = True
    STEPS, DT = 1, 0.02

    def __init__(self, seed, _workdir):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.meta = {"steps_per_op": self.STEPS, "dt": self.DT}

    def setup(self):
        """Generate and check the structure, then build the shared connection
        and finish its lazy set-up at the box centre."""
        from newcart import connection, geometry, scenario
        import synth
        generated = synth.synthetic_scenario(4, self.seed)
        report = geometry.validate_structure(generated.structure, generated.observer)
        if not report.passed:
            raise RuntimeError(f"synthetic structure invalid: {report.first_failure().name}")
        text = scenario.serialize_scenario(generated)
        self.meta["synthetic_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        scn = scenario.load_scenario_text(text, name=generated.name)
        self.structure = scn.structure
        self.conn = connection.build_connection(scn.structure, scn.observer, scn.data)
        self.conn.christoffel(np.array([0.5 * (lo + hi) for lo, hi in scn.structure.domain_box]))

    def round(self):
        x0 = [self.rng.uniform(0.2, 0.4), *self.rng.uniform(-0.3, 0.3, 3)]
        v0 = [1.0, *self.rng.uniform(-0.5, 0.5, 3)]
        return [lambda: self.op(x0, v0)]

    def op(self, x0, v0):
        from newcart import dynamics
        from oracles import OracleFailure, check_curve
        start = time.perf_counter()
        traj = dynamics.integrate_geodesic(self.conn, x0, v0, 0.0, self.STEPS * self.DT, self.DT)
        integrated = time.perf_counter()
        text = dynamics.trajectory_csv(traj, self.structure.dim)
        seconds = time.perf_counter() - start
        error = None
        try:
            check_curve(self.structure, traj, text)
        except OracleFailure as err:
            error = str(err)
        return OpResult(seconds, len(traj.states) - 1, integrated - start, error)


WORKLOAD_CLASSES = {cls.name: cls for cls in (CheckBundled, FreeFall4D)}


# --- metrics ---------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_scaled(rounds):
    """The rounds with every op's times scaled to a host on which the
    reference takes REF_S, and the per-op reference times used."""
    refs = local_medians([r.ref for _, ops in rounds for r in ops], HOST_WINDOW)
    factors = iter([REF_S / ref for ref in refs])
    scaled = []
    for traced, ops in rounds:
        scaled.append((traced, []))
        for r in ops:
            f = next(factors)
            seconds = None if r.seconds is None else r.seconds * f
            scaled[-1][1].append(r._replace(seconds=seconds, step_seconds=r.step_seconds * f))
    return scaled, refs


def timings(rounds):
    """op_s.p50, op_s.tail, steps_per_s and their samples, from passing ops.

    op_s.p50 is the median over rounds of the round's mean op time, so on
    check-bundled each sample has every scenario in it; op_s.tail pools
    single ops; steps_per_s is every step of the run over its step time.
    """
    passed = [[r for r in ops if r.error is None] for _, ops in rounds]
    passed = [ops for ops in passed if ops]
    durations = [r.seconds for ops in passed for r in ops]
    round_s = [statistics.fmean(r.seconds for r in ops) for ops in passed]
    tail = float(np.percentile(durations, TAIL))
    steps = sum(r.steps for ops in passed for r in ops)
    step_seconds = sum(r.step_seconds for ops in passed for r in ops)
    return {"op_s.p50": (statistics.median(round_s), "s", len(round_s)),
            "op_s.tail": (tail, "s", len(durations)),
            "steps_per_s": (steps / step_seconds, "1/s", steps)}, durations, round_s


def end_to_end(setup_s, warmup, rounds, rss_mb, workload):
    """The end-to-end metrics, timings scaled to the reference host speed;
    the wall-clock timings go to the notes.  Warm-up ops count only towards
    ok_frac."""
    results = [r for _, ops in rounds for r in ops]
    attempted = len(warmup) + len(results)
    failed = sum(1 for r in warmup + results if r.error is not None)
    if all(r.error is not None for r in results):
        sys.exit("benchmark: every timed op failed")
    scaled, refs = host_scaled(rounds)
    timed, durations, round_s = timings(scaled)
    beyond = sum(1 for d in durations if d > timed["op_s.tail"][0])
    if beyond < TAIL_BEYOND:
        sys.exit(f"benchmark: {len(durations)} passing ops leave {beyond} beyond "
                 f"p{TAIL:g}, fewer than {TAIL_BEYOND}")
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        **timed,
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ok_frac": (1 - failed / attempted, "ratio", attempted),
    }
    wall, wall_durations, wall_round_s = timings(rounds)
    notes = {"op_s.tail_percentile": TAIL, "op_s.tail_samples_beyond": beyond,
             "peak_rss_mb.at_ops": FIXED_OPS,
             "steps_per_s.counts": "rk4 steps" if workload.integrates else "report entries",
             "host_ref_s.median": statistics.median(refs), "host_ref_s.ref": REF_S,
             **{f"wall.{k}": v[0] for k, v in wall.items()},
             "wall.op_seconds": wall_durations, "wall.round_op_seconds": wall_round_s,
             "host_ref_seconds": [r.ref for r in results]}
    return metrics, notes


# (metric, traced name, field, unit); fields are per op, set-up counted once
PER_LAYER = (
    ("verify.check_compatibility_omega.s", "verify.check_compatibility_omega", "s", "s"),
    ("expr.evaluate.calls", "expr.evaluate", "calls", "count"),
    ("verify.fd_validate.s", "verify.fd_validate", "s", "s"),
    ("verify.check_compatibility_metric.s", "verify.check_compatibility_metric", "s", "s"),
    ("verify.check_torsion_clock.s", "verify.check_torsion_clock", "s", "s"),
    ("verify.check_roundtrip.s", "verify.check_roundtrip", "s", "s"),
    ("verify.run_all.s", "verify.run_all", "s", "s"),
    ("geometry.structure_entries.s", "geometry.structure_entries", "s", "s"),
    ("connection.build_connection.s", "connection.build_connection", "s", "s"),
    ("expr.differentiate.calls", "expr.differentiate", "calls", "count"),
    ("expr.differentiate.s", "expr.differentiate", "s", "s"),
    ("connection.christoffel.calls", "connection.christoffel", "calls", "count"),
    ("connection.christoffel.s", "connection.christoffel", "s", "s"),
    ("dynamics.integrate_geodesic.s", "dynamics.integrate_geodesic", "s", "s"),
    ("dynamics.integrate_geodesic.self_s", "dynamics.integrate_geodesic", "self_s", "s"),
    ("dynamics.trajectory_csv.s", "dynamics.trajectory_csv", "s", "s"),
    ("scenario.load_scenario.s", "scenario.load_scenario", "s", "s"),
    ("report.to_json.s", "report.to_json", "s", "s"),
    ("connection.observable_map.s", "connection.observable_map", "s", "s"),
)


def per_layer(tracer, rounds, workload):
    """Per-layer figures for one set-up plus one op, from the traced rounds."""
    passed = [(traced, r) for traced, ops in rounds for r in ops if r.error is None]
    traced = [r for t, r in passed if t]
    untraced = [r for t, r in passed if not t]
    n = max(len(traced), 1)
    setup = tracer.totals(lambda op: op == "setup")
    ops = tracer.totals(lambda op: isinstance(op, int))
    metrics = {}
    for metric, name, field, unit in PER_LAYER:
        metrics[metric] = (setup[name][field] + ops[name][field] / n, unit, len(traced))
    metrics["connection.christoffel.repeat_ratio"] = (tracer.repeats.ratio, "ratio",
                                                      tracer.repeats.calls)
    steps = sum(r.steps for r in traced) / n if workload.integrates else 0.0
    metrics["dynamics.rk4_steps"] = (steps, "count", len(traced))
    overhead = 0.0
    if traced and untraced:
        overhead = (statistics.median(r.seconds for r in traced)
                    - statistics.median(r.seconds for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s", len(traced) + len(untraced))
    return metrics, {"absent": tracer.absent, "traced_ops": len(traced),
                     "untraced_ops": len(untraced)}


def metadata(seed):
    lines = sum(p.read_text(encoding="utf-8").count("\n")
                for p in sorted((SRC / "newcart").glob("*.py")))
    return {"seed": seed, "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit(), "src_lines": lines}


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    parts = out.stdout.split()
    if out.returncode != 0 or len(parts) != 2 or Path(parts[0]).resolve() != ROOT:
        return "unknown"
    return parts[1]


# --- runner ----------------------------------------------------------------

def measure(workload, seconds, tracer):
    """Set up once, warm up for WARMUP_S, then run whole rounds until
    `seconds` have passed.

    Returns the set-up time, the warm-up ops, the timed rounds as
    (traced, [OpResult]) and the peak RSS once FIXED_OPS timed ops have run;
    an untraced run goes on until they have.  With a tracer, the set-up and
    every other timed round are traced, so that traced and untraced op times
    come from the same run.
    """
    start = time.perf_counter()
    if tracer:
        tracer.op = "setup"
        with tracer:
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - start

    warmup, rounds, timed, rss_mb = [], [], 0, None
    warm_until = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_until:
        warmup += run_round(workload, None, 0)
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        results = run_round(workload, tracer if traced else None, len(warmup) + timed)
        rounds.append((traced, results))
        timed += len(results)
        if rss_mb is None and timed >= FIXED_OPS:
            rss_mb = peak_rss_mb()
        enough = len(rounds) >= 2 if tracer else rss_mb is not None
        if enough and time.perf_counter() >= deadline:
            break
    return setup_s, warmup, rounds, rss_mb


def run_round(workload, tracer, first_op):
    """One round's ops, each after a timed host reference; with a tracer
    each op is traced and labelled by its number."""
    results = []
    for k, op in enumerate(workload.round()):
        ref = reference_seconds()
        if tracer:
            tracer.op = first_op + k
            tracer.install()
        try:
            result = op()
        except Exception as err:  # a library error fails this op, not the run
            result = OpResult(None, 0, 0.0, f"{type(err).__name__}: {err}")
        finally:
            if tracer:
                tracer.uninstall()
        results.append(result._replace(ref=ref))
    return results


def fresh_setup_times(args):
    """Set-up time of SETUP_REPEATS fresh processes, from their first line to a ready op.

    Fresh processes pay the imports every time, and the set-ups they build
    stay out of the heap of the process that times the ops.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", "0", "--setup-only"],
                              capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"benchmark: set-up process exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_workload(args):
    import_library()
    import_s = time.perf_counter() - _T0
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workload = WORKLOAD_CLASSES[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        if args.setup_only:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        setup_times = [] if tracer else fresh_setup_times(args)
        in_process_setup_s, warmup, rounds, rss_mb = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics, notes = per_layer(tracer, rounds, workload)
    else:
        metrics, notes = end_to_end(statistics.median(setup_times), warmup, rounds, rss_mb,
                                    workload)
        notes["setup_s.samples"] = setup_times
    results = warmup + [r for _, ops in rounds for r in ops]
    failures = [r.error for r in results if r.error is not None]
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              **metadata(args.seed), **workload.meta, **notes,
              "import_s": import_s, "in_process_setup_s": in_process_setup_s, "samples": {k: v[2] for k, v in metrics.items()},
              "failures": sorted(set(failures))[:20]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(results)}  failed {len(failures)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:40} {value:14.6g} {unit:6} samples {samples}")
    for key in ("op_s.tail_percentile", "absent", "traced_ops"):
        if key in detail:
            print(f"  {key}: {detail[key]}")
    for message in detail["failures"]:
        print(f"  failure: {message}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures),
                      "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}))
    return 0


def run_all_workloads(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"benchmark: workload {name} exited with {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
