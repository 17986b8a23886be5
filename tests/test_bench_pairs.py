"""The verdict of scripts/bench_pairs.py on synthetic paired runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 103.0, 97.0, 100.0]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_parent_iqr():
    faster = [p + 10.0 for p in PARENT]
    assert bench_pairs.verdict(PARENT, faster, "higher", 0.25)["claim_met"]
    # the same runs read as a time: worse, and no claim
    assert not bench_pairs.verdict(PARENT, faster, "lower", 0.25)["claim_met"]
    # 9 wins and 1 loss of 10 still hold
    nine = faster[:9] + [PARENT[9] - 1.0]
    assert bench_pairs.verdict(PARENT, nine, "higher", 0.25)["change_wins"] == 9
    assert bench_pairs.verdict(PARENT, nine, "higher", 0.25)["claim_met"]
    # a tie wins for neither side: 8 wins and 2 ties fall short
    tied = faster[:8] + PARENT[8:]
    result = bench_pairs.verdict(PARENT, tied, "higher", 0.25)
    assert (result["change_wins"], result["claim_met"]) == (8, False)
    # winning every pair by less than the parent's IQR is no claim
    close = [p + 0.5 for p in PARENT]
    result = bench_pairs.verdict(PARENT, close, "higher", 0.25)
    assert (result["change_wins"], result["claim_met"]) == (10, False)
    # a failed pair counts against the claim: 9 wins of 10 planned, 9 run
    for run, met in ((9, True), (8, False)):
        result = bench_pairs.verdict(PARENT[:run], faster[:run], "higher", 0.25, pairs=10)
        assert result["claim_met"] is met


def test_bound_is_relative_to_the_parent_median_and_unresolved_under_wide_spread():
    slower = [p * 1.3 for p in PARENT]
    assert bench_pairs.verdict(PARENT, slower, "lower", 0.25)["within_bound"] is False
    assert bench_pairs.verdict(PARENT, slower, "higher", 0.25)["within_bound"] is True
    assert bench_pairs.verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)[
        "within_bound"] is True
    assert bench_pairs.verdict(PARENT, PARENT, "lower", None)["within_bound"] is None
    # the parent spreads past the bound: unresolved, unless every change run
    # beats every parent run
    wide = [0.10, 0.20, 0.11, 0.19, 0.12, 0.18, 0.13, 0.17, 0.14, 0.16]
    assert bench_pairs.verdict(wide, wide[::-1], "lower", 0.25)["within_bound"] == "unresolved"
    assert bench_pairs.verdict(wide, [0.05] * 10, "lower", 0.25)["within_bound"] is True


def _fake_run(returncodes, head="0123abc"):
    """A subprocess.run that answers benchmark runs in order: a metrics line,
    or a non-zero exit with a traceback; and git as in a repository at commit
    `head` (None: no repository) whose change side has an edited file."""
    calls = iter(returncodes)

    def run(cmd, cwd, **_):
        if cmd[0] == "git":
            if head is None:
                return subprocess.CompletedProcess(cmd, 128, "", "fatal: not a git repository\n")
            edited = " M src/newcart/connection.py\n" if Path(cwd).name == "change" else ""
            return subprocess.CompletedProcess(
                cmd, 0, head + "\n" if cmd[1] == "rev-parse" else edited, "")
        code = next(calls)
        seed = int(cmd[cmd.index("--seed") + 1])
        value = 100.0 + seed + (10.0 if Path(cwd).name == "change" else 0.0)
        line = json.dumps({"attempted": 5, "failed": 0, "metrics": {
            "steps_per_s": {"value": value, "unit": "1/s"}}})
        return subprocess.CompletedProcess(cmd, code, line if code == 0 else "",
                                           "" if code == 0 else "Traceback: boom\n")
    return run


def test_a_failed_run_is_recorded_and_the_other_pairs_are_kept(tmp_path, monkeypatch):
    out = tmp_path / "bench.json"
    # pair 2's second run fails; every other run succeeds
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run([0, 0, 0, 3, 0, 0]))
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workloads", "freefall-4d", "--pairs", "3",
                             "--seed", "1", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())["workloads"]["freefall-4d"]
    # pair 2 runs the change first, so its second run is the parent's
    assert report["failed_runs"] == [{"side": "parent", "seed": 2, "exit_code": 3,
                                      "stderr_tail": "Traceback: boom\n"}]
    metric = report["metrics"]["steps_per_s"]
    assert metric["parent_runs"] == [101.0, 103.0] and metric["change_runs"] == [111.0, 113.0]
    assert (metric["change_wins"], metric["claim_met"], metric["bound"]) == (2, False, 0.25)


def test_a_clean_series_exits_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run([0] * 4))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workloads", "check-bundled", "--pairs", "2",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["workloads"]["check-bundled"]["failed_runs"] == []
    assert report["checkouts"] == {"parent": {"commit": "0123abc", "dirty": False},
                                   "change": {"commit": "0123abc", "dirty": True}}


def test_a_checkout_outside_git_names_an_unknown_commit(tmp_path, monkeypatch):
    unknown = {"commit": "unknown", "dirty": None}
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run([], head=None))
    assert bench_pairs.checkout_commit(tmp_path) == unknown

    def no_git(cmd, **_):
        raise FileNotFoundError(cmd[0])
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_git)
    assert bench_pairs.checkout_commit(tmp_path) == unknown
