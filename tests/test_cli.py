"""Command-line surface: exit codes, outputs, file artifacts."""

import json
import re

import pytest

from newcart.cli import main
from newcart.scenario import bundled_scenario_path


def scn(name):
    return str(bundled_scenario_path(name))


def test_check_flat_passes(capsys):
    assert main(["check", scn("flat")]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_check_writes_byte_identical_json(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["check", scn("rot"), "--json", str(first)]) == 0
    assert main(["check", scn("rot"), "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["pass"] is True
    assert payload["scenario"] == "rot"
    assert {e["name"] for e in payload["entries"]} >= {
        "clock compatibility", "metric compatibility",
        "torsion clock identity", "observable round trip"}


@pytest.mark.parametrize("fixture,entry", [
    ("bad_observer", "observer normalization"),
    ("bad_frame", "frame annihilated by clock form"),
    ("zero_connection_curvedh", "metric compatibility"),
])
def test_corrupted_fixtures_fail_designated_entry(tmp_path, fixture, entry):
    out = tmp_path / "report.json"
    assert main(["check", scn(fixture), "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    failed = [e["name"] for e in payload["entries"] if not e["pass"]]
    assert failed == [entry]


def test_missing_scenario_is_exit_3(capsys):
    assert main(["check", "/no/such/file.scn"]) == 3
    assert "scenario error" in capsys.readouterr().err


def test_usage_errors_are_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["geodesic", scn("grav")])  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["connection", scn("grav"), "--at", "1,2,3"])  # wrong arity
    assert err.value.code == 2


def test_connection_prints_coefficients(capsys):
    assert main(["connection", scn("grav"), "--at", "0,0"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"Gamma\^x_tt = (\S+)", out)
    assert match and float(match.group(1)) == pytest.approx(9.8, abs=1e-12)
    others = [float(v) for v in re.findall(r"Gamma\^\w+_\w+ = (\S+)", out)]
    assert sum(abs(v) for v in others) == pytest.approx(9.8, abs=1e-9)


def test_connection_flat_all_zero(capsys):
    assert main(["connection", scn("flat"), "--at", "0.3,0.2"]) == 0
    values = [float(v) for v in
              re.findall(r"= (\S+)$", capsys.readouterr().out, re.M)]
    assert max(abs(v) for v in values) <= 1e-12


def test_observables_prints_triple(capsys):
    assert main(["observables", scn("rot"), "--at", "0.2,0.1,-0.3"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"coriolis_12 = (\S+)", out)
    assert match and float(match.group(1)) == pytest.approx(0.5, abs=1e-9)


def test_roundtrip_command(capsys):
    assert main(["roundtrip", scn("twist")]) == 0
    assert "max round-trip deviation" in capsys.readouterr().out
    assert main(["roundtrip", scn("zero_connection_curvedh")]) == 3


def test_geodesic_writes_parabola_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["geodesic", scn("grav"), "--from", "0,0", "--vel", "1,0",
                 "--t1", "1", "--dt", "0.001", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau, x0, x1, v0, v1"
    final = [float(v) for v in lines[-1].split(",")]
    assert abs(final[1] - 1.0) <= 1e-9
    assert abs(final[2] - (-4.9)) <= 1e-6


def _sqrt_metric_scenario(tmp_path):
    text = bundled_scenario_path("curvedh").read_text(encoding="utf-8")
    path = tmp_path / "sqrt.scn"
    path.write_text(text.replace("h11 = 1 + x^2/10", "h11 = 1 + sqrt(x)"), encoding="utf-8")
    return str(path)


def test_geodesic_into_bad_region_keeps_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["geodesic", _sqrt_metric_scenario(tmp_path), "--from", "0,0.05",
                 "--vel", "0,-1", "--t1", "1", "--dt", "0.01", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "termination: evaluation_failure" in captured.out
    assert "sqrt(x)" in captured.err
    assert len(out.read_text().strip().split("\n")) == 1 + 5


def test_domain_error_names_chart_coordinates(tmp_path, capsys):
    assert main(["connection", _sqrt_metric_scenario(tmp_path), "--at", "0,-0.5"]) == 3
    err = capsys.readouterr().err
    assert "sqrt(x)" in err and "x1" not in err


def test_overflow_is_a_clean_exit(tmp_path, capsys):
    text = bundled_scenario_path("curvedh").read_text(encoding="utf-8")
    path = tmp_path / "steep.scn"
    path.write_text(text.replace("h11 = 1 + x^2/10", "h11 = 1 + x^2/10 + x^130.5/1e300"),
                    encoding="utf-8")
    assert main(["connection", str(path), "--at", "0.5,1e10"]) == 3
    assert "error: pow overflow in 'x^130.5'" in capsys.readouterr().err


def test_flow_command(tmp_path):
    out = tmp_path / "flow.csv"
    code = main(["flow", scn("flat"), "--from", "0,0.25",
                 "--t1", "1", "--dt", "0.01", "--out", str(out)])
    assert code == 0
    final = [float(v) for v in out.read_text().strip().split("\n")[-1].split(",")]
    assert abs(final[2] - 0.25) <= 1e-12


def test_expect_torsion_free_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(["check", scn("twist"), "--expect-torsion-free",
                 "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    failing = [e["name"] for e in payload["entries"] if not e["pass"]]
    assert failing == ["torsion-free feasibility (clock form must be closed)"]
    assert main(["check", scn("flat"), "--expect-torsion-free"]) == 0
