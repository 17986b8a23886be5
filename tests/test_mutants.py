"""scripts/mutants.py refuses a stale mutant list before it runs anything, and
applies every edit of a mutant."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_a_missing_or_repeated_old_text_exits_1_before_any_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\ny = 2\n", encoding="utf-8")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS", [("src/a.py", "x = 1", "x = 0"),
                                             ("src/a.py", "z = 3", "z = 0"),
                                             ("src/a.py", "y = 2", "y = 0")])
    monkeypatch.setattr(mutants, "run_mutant", lambda *_: pytest.fail("a mutant ran"))
    assert mutants.main([]) == 1
    assert capsys.readouterr().out == (
        "stale mutant 1: its old text occurs 0 times in src/a.py\n"
        "stale mutant 2: its old text occurs 2 times in src/a.py\n")


def test_every_committed_mutant_matches_the_tree_once():
    assert mutants.stale(mutants.ROOT, mutants.MUTANTS) == []


def test_every_edit_of_a_multi_edit_mutant_is_checked(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "MUTANTS", [[("src/a.py", "x = 1", "x = 0"),
                                              ("src/a.py", "y = 2", "y = 0")],
                                             [("src/a.py", "x = 1", "x = 0"),
                                              ("src/b.py", "z = 3", "z = 0")]])
    monkeypatch.setattr(mutants, "run_mutant", lambda *_: pytest.fail("a mutant ran"))
    assert mutants.main([]) == 1
    assert capsys.readouterr().out == "stale mutant 1: its old text occurs 0 times in src/b.py\n"


def test_a_multi_edit_mutant_applies_every_edit(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "src" / "b.py").write_text("z = 3\n", encoding="utf-8")
    mutants.apply(tmp_path, [("src/a.py", "x = 1", "x = 0"), ("src/a.py", "y = 2", "y = 0"),
                             ("src/b.py", "z = 3", "z = 0")])
    assert (tmp_path / "src" / "a.py").read_text(encoding="utf-8") == "x = 0\ny = 0\n"
    assert (tmp_path / "src" / "b.py").read_text(encoding="utf-8") == "z = 0\n"
    mutants.apply(tmp_path, ("src/b.py", "z = 0", "z = 4"))  # a triple is one edit
    assert (tmp_path / "src" / "b.py").read_text(encoding="utf-8") == "z = 4\n"
