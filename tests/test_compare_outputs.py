"""scripts/compare_outputs.py finds no difference between a tree and itself,
and names each output that one changed line moves."""

import importlib.util
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
