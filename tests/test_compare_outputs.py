"""scripts/compare_outputs.py finds no difference between a tree and itself,
and names each output that one changed line moves."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_the_tree_against_itself_exits_0(capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--scenario", "flat", "synthetic_m2_s1"]
    assert compare_outputs.main(argv) == 0
    assert capsys.readouterr().out == "44 outputs, none differs\n"


def test_a_changed_line_in_the_report_table_exits_1_and_names_what_it_moved(tmp_path, capsys):
    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    report = copy / "src" / "newcart" / "report.py"
    text = report.read_text(encoding="utf-8")
    old = """lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")"""
    assert text.count(old) == 1
    report.write_text(text.replace(old, old.replace("overall: ", "overall:: ")),
                      encoding="utf-8")
    argv = ["--parent", str(ROOT), "--change", str(copy), "--scenario", "flat"]
    assert compare_outputs.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("    ")] == [
        "differs: check-flat-torsion-free.txt", "differs: check-flat.txt",
        "2 of 22 outputs differ"]
    assert "    -overall: pass" in out and "    +overall:: pass" in out


def test_the_command_set_ends_curves_in_every_termination(tmp_path):
    scenarios, out = tmp_path / "scenarios", tmp_path / "out"
    scenarios.mkdir()
    out.mkdir()
    compare_outputs._python([ROOT / "src", ROOT / "benchmarks"], "--write-scenarios", scenarios,
                            "--scenario", "flat", *compare_outputs.FIXTURES)
    compare_outputs._python([ROOT / "src"], "--run", scenarios, out)
    ends = {path.stem: re.search(r"termination: (\w+)", path.read_text(encoding="utf-8"))[1]
            for path in out.glob("*.txt") if path.name.startswith(("geodesic-", "flow-"))}
    assert set(ends.values()) == {"completed", "left_domain", "evaluation_failure",
                                  "numeric_failure"}
    assert {name: end for name, end in ends.items() if "edge_" in name} == {
        "flow-edge_flow_left_domain": "left_domain",
        "flow-edge_flow_fails_at_a_state": "evaluation_failure",
        "flow-edge_flow_fails_inside_a_step": "evaluation_failure",
        "flow-edge_flow_fails_at_the_last_state": "evaluation_failure",
        "flow-edge_flow_undefined_at_the_start": "evaluation_failure",
        "geodesic-edge_geodesic_sqrt_metric": "evaluation_failure",
        "geodesic-edge_geodesic_fails_in_the_first_pair": "evaluation_failure",
        "geodesic-edge_geodesic_fails_in_the_second_pair": "evaluation_failure",
        "geodesic-edge_geodesic_blow_up": "numeric_failure"}
    # z fails at the last state's own point, or only at a later stage of its step
    last = {name: (out / f"flow-edge_flow_fails_{name}.csv").read_text().splitlines()[-1]
            for name in ("at_a_state", "inside_a_step")}
    assert last["at_a_state"].endswith("nan, nan") and "nan" not in last["inside_a_step"]
