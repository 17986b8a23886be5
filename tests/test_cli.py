"""Command-line surface: exit codes, outputs, file artifacts."""

import contextlib
import io
import itertools
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from newcart import verify
from newcart.cli import main
from newcart.connection import build_connection
from newcart.dynamics import integrate_observer_flow, trajectory_csv
from newcart.errors import DomainError
from newcart.geometry import validate_structure
from newcart.scenario import bundled_scenario_path, load_scenario, load_scenario_text


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


REPEATED_FRAME_FIELD = """[spacetime]
dim = 3
coords = t, x, y

[omega]
O = 1, 0, 0

[observer]
z = 1, 0, 0

[frame]
E1 = 0, 1, 0
E2 = 0, 1, 0

[metric]
h11 = 1
h22 = 1

[domain]
box = 0 1, -1 1, -1 1
samples = 10
seed = 1
"""


def test_a_repeated_frame_field_fails_frame_rank_alone(tmp_path):
    # every other structure entry holds, so without the rank entry's own
    # residual the state would raise FrameDegenerate: exit 3, not 1
    path, out = tmp_path / "repeated.scn", tmp_path / "report.json"
    path.write_text(REPEATED_FRAME_FIELD, encoding="utf-8")
    assert main(["check", str(path), "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert [e["name"] for e in payload["entries"] if not e["pass"]] == ["frame rank"]


NAN_GAMMA_SCENARIO = """[spacetime]
dim = 2
coords = t, x

[omega]
O = 1, 0

[observer]
z = 1, 0

[frame]
E1 = 0, 1

[metric]
h11 = 1

[christoffel]
C1_00 = x^64 - x^64

[domain]
box = 0 1, 0 100000
samples = 20
seed = 0
"""


def test_check_fails_on_a_nan_residual_after_the_first_point(tmp_path, capsys):
    # x^64 is inf for x above about 6.4e4, so Gamma is nan at most sample
    # points, though not at the first one
    path = tmp_path / "nan.scn"
    path.write_text(NAN_GAMMA_SCENARIO)
    report = tmp_path / "report.json"
    assert main(["check", str(path), "--json", str(report)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    entries = {e["name"]: e for e in json.loads(report.read_text())["entries"]}
    for name in ("clock compatibility", "metric compatibility"):
        assert np.isnan(entries[name]["max"]) and not entries[name]["pass"]


# x^64 - x^64 is inf - inf = nan for x above about 6.4e4
NAN_INPUT = NAN_GAMMA_SCENARIO.replace("[christoffel]\nC1_00 = x^64 - x^64\n\n", "")


@pytest.mark.parametrize("old,new", [("h11 = 1", "h11 = 1 + x^64 - x^64"),
                                     ("E1 = 0, 1", "E1 = 0, 1 + x^64 - x^64")],
                         ids=["metric", "frame"])
def test_nan_input_fails_without_numpy_warnings(tmp_path, capsys, old, new):
    # a determinant of a nan matrix is nan: the outcome is a failing entry,
    # nan coefficients or a numeric failure, and stderr stays empty
    path, csv = tmp_path / "nan.scn", tmp_path / "curve.csv"
    path.write_text(NAN_INPUT.replace(old, new), encoding="utf-8")
    if old.startswith("h11"):
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr()
        assert re.search(r"metric nondegenerate +nan +nan +0e\+00  FAIL", out.out)
        assert out.out.endswith("overall: FAIL\n") and out.err == ""
    assert main(["connection", str(path), "--at", "0,99999"]) == 1
    out = capsys.readouterr()
    assert out.out.count("= nan\n") == 8 and out.err == ""
    assert main(["observables", str(path), "--at", "0,99999"]) == 1
    out = capsys.readouterr()
    assert out.out == "gravity^1 = nan\ntorsion^1_tx = nan\n" and out.err == ""
    assert main(["geodesic", str(path), "--from", "0,99999", "--vel", "1,0",
                 "--t1", "1", "--dt", "0.1", "--out", str(csv)]) == 1
    out = capsys.readouterr()
    assert out.out == ("1 states, termination: numeric_failure\n"
                       "final position: 0.0, 99999.0\n") and out.err == ""


@pytest.mark.parametrize("name,old,new,argv,code,err", [
    ("twist", "E1 = 0, 1, 0", "E1 = 0, 1e300*x, 0", ["check"], 1, ""),
    ("grav", "G = 9.8", "G = exp(1000*x)", ["check"], 3,
     "error: exp overflow in 'exp(1000.0*x)'\n"),
    ("grav", "O = 1, 0", "O = -1e308, 0", ["connection", "--at", "0.3,0.3"], 1, ""),
    ("curvedh", "z = 1, 0", "z = 1, 1e308",
     ["flow", "--from", "0.3,0.3", "--t1", "0.3", "--dt", "0.05"], 1, ""),
    ("grav", "E1 = 0, 1", "E1 = 1e300*x, 1", ["observables", "--at", "0.3,0.3"], 0, ""),
], ids=["check-fails", "check-error", "connection", "flow", "observables"])
def test_overflowing_input_prints_no_numpy_warnings(tmp_path, capsys, name, old, new, argv,
                                                    code, err):
    # each outcome is a failing entry, a non-finite printed value, a numeric
    # failure or the error line; the overflow on the way warns nothing
    text = bundled_scenario_path(name).read_text(encoding="utf-8")
    assert text.count(f"\n{old}\n") == 1
    path = tmp_path / "overflow.scn"
    path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"), encoding="utf-8")
    command, *options = argv
    if command == "flow":
        options += ["--out", str(tmp_path / "curve.csv")]
    assert main([command, str(path), *options]) == code
    assert capsys.readouterr().err == err


# the adapted basis is singular at x = 2, the Gram matrix at x = 0.5
SINGULAR = """[spacetime]
dim = 2
coords = t, x
[omega]
O = 1, 0
[observer]
z = 1, 0
[frame]
E1 = 0, x - 2
[metric]
h11 = x - 0.5
[domain]
box = -1 1, 0 3
"""


def test_errors_name_the_point_in_plain_floats(tmp_path, capsys):
    path, csv = tmp_path / "singular.scn", tmp_path / "curve.csv"
    path.write_text(SINGULAR, encoding="utf-8")
    assert main(["connection", str(path), "--at", "0,2"]) == 3
    assert capsys.readouterr().err == "error: adapted basis singular at (0.0, 2.0)\n"
    assert main(["observables", str(path), "--at", "0,0.5"]) == 3
    assert capsys.readouterr().err == "error: spatial metric singular at (0.0, 0.5)\n"
    assert main(["geodesic", str(path), "--from", "0,0.5", "--vel", "1,0",
                 "--t1", "1", "--dt", "0.1", "--out", str(csv)]) == 1
    assert capsys.readouterr().err == "error: spatial metric singular at (0.0, 0.5)\n"


def test_missing_scenario_is_exit_3(capsys):
    assert main(["check", "/no/such/file.scn"]) == 3
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,where", [
    ("seed = 14", "seed = x 14", "key 'seed', line 37"),
    ("box = 0 1, -1 1, -1 1", "box = 0 *, -1 1, -1 1", "key 'box', line 35"),
    ("samples = 40", "samples = 100001", "key 'samples', line 36"),
])
def test_bad_numeric_field_is_exit_3(tmp_path, capsys, old, new, where):
    path = tmp_path / "twist.scn"
    text = bundled_scenario_path("twist").read_text(encoding="utf-8")
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert f"scenario error: section [domain], {where}" in capsys.readouterr().err


def test_unknown_key_is_exit_3(tmp_path, capsys):
    path = tmp_path / "grav.scn"
    text = bundled_scenario_path("grav").read_text(encoding="utf-8")
    path.write_text(text.replace("samples = 60", "sample = 60"), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("scenario error: section [domain], key 'sample', line 27: "
                       "unknown key 'sample'\n")


@pytest.mark.parametrize("old,new,message", [
    ("dim = 3\ncoords = t, x, y", "dim = 1\ncoords = t", "dim must be at least 2"),
    ("[coriolis]\nw12 = 0.5", "[christoffel]\nC3_00 = 1",
     "[christoffel] key C3_00 out of range for m = 3"),
    ("w12 = 0.5", "w21 = 0.5", "[coriolis] key w21 needs 1 <= a < b <= 2"),
    ("w12 = 0.5", "w13 = 0.5", "[coriolis] key w13 needs 1 <= a < b <= 2"),
    ("[domain]", "[theta]\nT3_01 = 1\n[domain]",
     "[theta] frame index in T3_01 out of range for n = 2"),
    ("[domain]", "[theta]\nT1_10 = 1\n[domain]",
     "[theta] key T1_10 needs coordinate indices i < j < 3"),
    ("[domain]", "[theta]\nT1_03 = 1\n[domain]",
     "[theta] key T1_03 needs coordinate indices i < j < 3"),
], ids=["dim_1", "C3_00", "w21", "w13", "T3_01", "T1_10", "T1_03"])
def test_out_of_range_indices_are_scenario_errors(tmp_path, capsys, old, new, message):
    path = tmp_path / "rot.scn"
    text = bundled_scenario_path("rot").read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"scenario error: {message}\n"


@pytest.mark.parametrize("clock,message", [
    ("1\u00b2, 0", "unexpected token '\u00b2' at position 1 (expected end of input)"),
    ("\u0661, 0", "unexpected character '\u0661' at position 0"),
], ids=["superscript_two", "arabic_indic_one"])
def test_non_ascii_digits_are_scenario_errors(tmp_path, capsys, clock, message):
    path = tmp_path / "flat.scn"
    text = bundled_scenario_path("flat").read_text(encoding="utf-8")
    path.write_text(text.replace("O = 1, 0", f"O = {clock}"), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"scenario error: section [omega], key 'O': {message}\n"


def test_an_indexed_key_with_a_non_ascii_digit_is_exit_3(tmp_path, capsys):
    path = tmp_path / "flat.scn"
    text = bundled_scenario_path("flat").read_text(encoding="utf-8")
    path.write_text(text.replace("h11 = 1", "h11 = 1\nh\u0661\u0661 = 2"), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("scenario error: section [metric], key 'h\u0661\u0661', line 19: "
                       "metric keys look like 'hab'\n")


def test_a_scenario_file_that_is_not_utf8_is_exit_3(tmp_path, capsys):
    path = tmp_path / "flat.scn"
    text = bundled_scenario_path("flat").read_bytes()
    path.write_bytes(text.replace(b"h11 = 1", b"h11 = 1  # \xff"))
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("scenario error: cannot read scenario file: ")
    assert "0xff" in out.err and out.err.count("\n") == 1


def test_a_leading_byte_order_mark_checks_like_the_plain_file(tmp_path, capsys):
    path, plain, bom = tmp_path / "flat.scn", tmp_path / "plain.json", tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + bundled_scenario_path("flat").read_bytes())
    assert main(["check", scn("flat"), "--json", str(plain)]) == 0
    want = capsys.readouterr()
    assert main(["check", str(path), "--json", str(bom)]) == 0
    got = capsys.readouterr()
    assert (got.out.replace(str(bom), str(plain)), got.err) == (want.out, want.err)
    assert bom.read_bytes() == plain.read_bytes()


def test_out_of_memory_is_exit_3(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(verify, "fd_validate", exhausted)
    assert main(["check", scn("curvedh")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: out of memory: Unable to allocate 1.00 TiB for an array\n"


@pytest.mark.parametrize("old,new", [
    ("h11 = 1", "h11 = 1" + "+x" * 3000),  # differentiated while the connection is built
    ("O = 1, 0", "O = " + "(" * 1000 + "1" + ")" * 1000 + ", 0"),  # parsed
], ids=["long_sum", "nested_parentheses"])
def test_deep_expression_is_exit_3(tmp_path, capsys, old, new):
    path = tmp_path / "deep.scn"
    path.write_text(bundled_scenario_path("flat").read_text().replace(old, new))
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: expression nested too deeply")
    assert len(out.err.splitlines()) == 1


def test_usage_errors_are_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["geodesic", scn("grav")])  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["connection", scn("grav"), "--at", "1,2,3"])  # wrong arity
    assert err.value.code == 2


@pytest.mark.parametrize("argv,message", [
    ("geodesic grav --from 0,0 --vel 1,0 --t1 1 --dt 0 --out {out}", "--dt must be positive"),
    ("geodesic grav --from 0,0 --vel 1,0 --t1 1 --dt -0.01 --out {out}",
     "--dt must be positive"),
    ("geodesic grav --from 0,0 --vel 1,0 --t0 2 --t1 1 --dt 0.01 --out {out}",
     "--t1 must exceed --t0"),
    ("flow flat --from 0,0 --t0 1 --t1 1 --dt 0.01 --out {out}", "--t1 must exceed --t0"),
    ("geodesic grav --from 0,0 --vel 1,0 --t1 1e308 --dt 1e-300 --out {out}",
     "(--t1 - --t0) / --dt must be a finite step count"),
    ("geodesic grav --from 0,0 --vel 1,0 --t1 nan --dt 0.01 --out {out}",
     "argument --t1: needs finite numbers, got 'nan'"),
    ("flow flat --from 0,0 --t1 1 --dt inf --out {out}",
     "argument --dt: needs finite numbers, got 'inf'"),
    ("connection grav --at nan,0", "--at needs finite numbers, got 'nan'"),
    ("observables rot --at 0,x,0", "--at needs finite numbers, got 'x'"),
    ("geodesic grav --from 0,0 --vel 1,0 --t1 1 --dt 0.01 --out {missing}",
     "No such file or directory: '{missing}'"),
    ("flow flat --from 0,0 --t1 1 --dt 0.01 --out {directory}",
     "Is a directory: '{directory}'"),
    ("check flat --json {missing}", "No such file or directory: '{missing}'"),
])
def test_bad_arguments_are_usage_errors(tmp_path, capsys, argv, message):
    paths = {"out": tmp_path / "curve.csv", "directory": tmp_path,
             "missing": tmp_path / "no" / "file"}
    command, name, *rest = argv.format(**paths).split()
    with pytest.raises(SystemExit) as err:
        main([command, scn(name), *rest])
    assert err.value.code == 2
    assert message.format(**paths) in capsys.readouterr().err


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


@pytest.mark.parametrize("name, failing", [
    ("bad_observer", "observer normalization"),
    ("bad_frame", "frame annihilated by clock form")])
def test_roundtrip_fails_on_a_corrupted_structure(capsys, name, failing):
    assert main(["roundtrip", scn(name)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"structure check failed: {failing}\n")


# z is undefined where t < 0.5; the derivative of h11 divides by zero at
# every sample point, so it fails first wherever the first point has t >= 0.5
UNDEFINED_INPUT_AND_DERIVATIVE = """[spacetime]
dim = 2
coords = t, x

[omega]
O = 1, 0

[observer]
z = 1, sqrt(t - 0.5)

[frame]
E1 = 0, 1

[metric]
h11 = 1 + sqrt(x*x)

[domain]
box = 0 1, 0 0
samples = 8
seed = {seed}
"""


@pytest.mark.parametrize("seed", range(6))
def test_an_undefined_input_is_named_before_an_undefined_derivative(tmp_path, capsys, seed):
    path = tmp_path / "input.scn"
    path.write_text(UNDEFINED_INPUT_AND_DERIVATIVE.format(seed=seed), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == "error: sqrt of negative argument in 'sqrt(t - 0.5)'\n"


def _fault(err):
    return str(err), err.point, err.subexpression, err.reason


@pytest.mark.parametrize("seed", range(6))
def test_the_structure_stage_raises_what_validate_structure_raises(seed):
    scenario = load_scenario_text(UNDEFINED_INPUT_AND_DERIVATIVE.format(seed=seed))
    with pytest.raises(DomainError) as want:
        validate_structure(scenario.structure, scenario.observer)
    with pytest.raises(DomainError) as got:
        verify.run_all(scenario.structure, scenario.observer, data=scenario.data)
    assert _fault(got.value) == _fault(want.value)


def test_a_derivative_only_fault_raises_the_runs_own_error():
    # z is defined everywhere; d_x sqrt(x*x) divides by zero at x = 0
    text = UNDEFINED_INPUT_AND_DERIVATIVE.format(seed=0).replace("sqrt(t - 0.5)", "0")
    scenario = load_scenario_text(text)
    assert validate_structure(scenario.structure, scenario.observer).passed
    conn = build_connection(scenario.structure, scenario.observer, scenario.data)
    error = conn.program.run(scenario.structure.sample_points())[2]
    assert error is not None
    with pytest.raises(DomainError) as got:
        verify.run_all(scenario.structure, scenario.observer, connection=conn)
    assert _fault(got.value) == _fault(error)


def test_a_failing_structure_entry_comes_before_an_undefined_datum(tmp_path, capsys):
    text = bundled_scenario_path("bad_frame").read_text(encoding="utf-8")
    path = tmp_path / "bad_frame_gravity.scn"
    path.write_text(text.replace("[domain]", "[gravity]\nG = log(x - 5), 0\n\n[domain]"),
                    encoding="utf-8")
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.search(r"frame annihilated by clock form .* FAIL", captured.out)


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



def test_flow_writes_each_row_as_it_integrates(tmp_path, capsys):
    out = tmp_path / "flow.csv"

    def peak(dt):
        tracemalloc.start()
        try:
            assert main(["flow", scn("flat"), "--from", "0,0.25", "--t1", "0.1", "--dt", dt,
                         "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bound = 64 * 1024  # 10^4 states held in memory peak at about 5 MB
    peak("1e-4")  # warm-up
    small, large = peak("1e-4"), peak("1e-5")
    assert large - small < bound
    assert "10001 states, termination: completed" in capsys.readouterr().out
    flat = load_scenario(bundled_scenario_path("flat"))
    traj = integrate_observer_flow(flat.structure, flat.observer, np.array([0.0, 0.25]),
                                   0.0, 0.1, 1e-5)
    assert out.read_text(encoding="utf-8") == trajectory_csv(traj, 2)


# z is defined at every stored state but the last: the flow goes past c
FLOW_EDGE = """[spacetime]
dim = 2
coords = t, x
[omega]
O = 1, 0
[observer]
z = 1, {z}
[frame]
E1 = 0, 1
[metric]
h11 = 1
[domain]
box = -5 5, {box}
samples = 10
seed = 1
"""
LEAVES, ENTERS = 0.027372805019272528, 3.4726271949807272


@pytest.mark.parametrize("z,box,start,t1,termination,code", [
    (f"-exp(t) + sqrt(x - {LEAVES}) - sqrt(x - {LEAVES})", f"{LEAVES} 20", "0,3.5", "3",
     "left_domain", 0),
    (f"exp(t) + sqrt({ENTERS} - x) - sqrt({ENTERS} - x)", "-20 20", "0,0", "3",
     "evaluation_failure", 1),
    # the last state completes the run: z fails only when the velocities are written
    (f"exp(t) + sqrt({ENTERS} - x) - sqrt({ENTERS} - x)", "-20 20", "0,0", "1.5",
     "evaluation_failure", 1),
], ids=["left_domain", "evaluation_failure", "completed"])
def test_flow_keeps_every_state_when_z_fails_at_the_last(tmp_path, capsys, z, box, start,
                                                         t1, termination, code):
    path, out = tmp_path / "edge.scn", tmp_path / "flow.csv"
    path.write_text(FLOW_EDGE.format(z=z, box=box), encoding="utf-8")
    assert main(["flow", str(path), "--from", start, "--t1", t1, "--dt", "0.5",
                 "--out", str(out)]) == code
    assert f"termination: {termination}" in capsys.readouterr().out
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().split("\n")[1:-1]]
    assert [row[0] for row in rows] == [0.0, 0.5, 1.0, 1.5]
    assert all(np.isfinite(row[3:]).all() for row in rows[:-1])
    assert np.isnan(rows[-1][3:]).all()


def test_flow_from_a_start_where_z_is_undefined_keeps_that_state(tmp_path, capsys):
    text = bundled_scenario_path("curvedh").read_text(encoding="utf-8")
    path, out = tmp_path / "sqrt_z.scn", tmp_path / "flow.csv"
    path.write_text(text.replace("z = 1, 0\n", "z = 1, 0.1*sqrt(x)\n"), encoding="utf-8")
    assert main(["flow", str(path), "--from", "0.3,-0.5", "--t1", "0.3", "--dt", "0.05",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "1 states, termination: evaluation_failure" in captured.out
    assert "sqrt(x)" in captured.err
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().split("\n")[1:-1]]
    assert len(rows) == 1 and rows[0][:3] == [0.0, 0.3, -0.5]
    assert np.isnan(rows[0][3:]).all()


def test_expect_torsion_free_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(["check", scn("twist"), "--expect-torsion-free",
                 "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    failing = [e["name"] for e in payload["entries"] if not e["pass"]]
    assert failing == ["torsion-free feasibility (clock form must be closed)"]
    assert main(["check", scn("flat"), "--expect-torsion-free"]) == 0


_BUNDLED = ["flat", "grav", "rot", "twist", "curvedh", "bad_observer", "bad_frame",
            "zero_connection_curvedh"]
_TOKENS = ["1e308", "nan", "sqrt(x)", "log(x)", "0^0"]


def _mutate(data, text):
    """A bundled scenario text with a few random edits: a character put in
    or cut, a line deleted, or one comma-separated value of a `key = value`
    line replaced by an overflowing, undefined or NaN-making token."""
    for _ in range(data.draw(st.integers(1, 3))):
        lines = text.split("\n")
        kind = data.draw(st.sampled_from(["edit", "delete", "token"]))
        if kind == "edit":
            at = data.draw(st.integers(0, len(text)))
            put = data.draw(st.text(alphabet="0123456789.-+*/^(),= xtye_[]#\n", max_size=1))
            text = text[:at] + put + text[at + data.draw(st.integers(0, 1)):]
        elif kind == "delete":
            del lines[data.draw(st.integers(0, len(lines) - 1))]
            text = "\n".join(lines)
        else:
            at = data.draw(st.sampled_from([k for k, line in enumerate(lines) if " = " in line]))
            key, values = lines[at].split(" = ", 1)
            values = values.split(", ")
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(st.sampled_from(_TOKENS))
            lines[at] = key + " = " + ", ".join(values)
            text = "\n".join(lines)
    return text


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_scenarios_end_in_an_exit_code_on_every_command(tmp_path, data):
    name = data.draw(st.sampled_from(_BUNDLED))
    original = bundled_scenario_path(name).read_text(encoding="utf-8")
    path = tmp_path / "mutated.scn"
    path.write_text(_mutate(data, original), encoding="utf-8")
    at = "0.5,0.25,0.25" if "dim = 3" in original else "0.5,0.25"
    span = ["--t1", "0.5", "--dt", "0.05", "--out", str(tmp_path / "curve.csv")]
    for argv in (["check", "--json", str(tmp_path / "report.json"), "--expect-torsion-free"],
                 ["connection", "--at", at], ["observables", "--at", at], ["roundtrip"],
                 ["geodesic", "--from", at, "--vel", at, *span], ["flow", "--from", at, *span]):
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            try:
                code = main([argv[0], str(path), *argv[1:]])
            except SystemExit as exit_:  # argparse's usage errors
                code = exit_.code
        usage = err.getvalue().startswith("usage: newcart")
        assert code in (0, 1, 3) or (code == 2 and usage), (argv, code, err.getvalue())
        if code == 3:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(("scenario error:", "error:")), (
                argv, err.getvalue())


def _outcome(argv, capsys, out):
    """(exit code, stdout, stderr, the bytes of `out` or None) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    printed = capsys.readouterr()
    return code, printed.out, printed.err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("argv,code", [
    ("connection grav --at -0.1,0.3", 0),
    ("observables rot --at -0.2,0.1,-0.3", 0),
    ("flow flat --from -0.1,0.25 --t1 0.1 --dt 0.01 --out {out}", 0),
    ("geodesic grav --from 0,0 --vel -1,0.5 --t1 0.1 --dt 0.01 --out {out}", 0),
    ("geodesic grav --from 0,0 --vel 1,0 --t0 -1e-3 --t1 0.1 --dt 0.01 --out {out}", 0),
    ("geodesic grav --from 0,0 --vel 1,0 --t0 -0.1 --t1 -1e-3 --dt 0.01 --out {out}", 0),
    ("geodesic grav --from 0,0 --vel 1,0 --t1 0.1 --dt -1e-3 --out {out}", 2),
], ids=["at", "at-3d", "from", "vel", "t0", "t1", "dt"])
def test_a_value_with_a_leading_minus_reads_as_in_the_equals_form(tmp_path, capsys, argv, code):
    out = tmp_path / "curve.csv"
    command, name, *rest = argv.format(out=out).split()
    spaced = _outcome([command, scn(name), *rest], capsys, out)
    out.unlink(missing_ok=True)
    joined = re.sub(r"(--(?:at|from|vel|t0|t1|dt)) ", r"\1=", " ".join(rest)).split()
    assert _outcome([command, scn(name), *joined], capsys, out) == spaced
    assert spaced[0] == code
    if code == 2:
        assert "--dt must be positive" in spaced[2]


@pytest.mark.parametrize("vel", ["--ve -1,0", "--ve=-1,0", "--ve 1,0"])
def test_an_abbreviated_option_is_a_usage_error(tmp_path, capsys, vel):
    out = tmp_path / "curve.csv"
    argv = ["geodesic", scn("grav"), "--from", "0.5,0", *vel.split(),
            "--t1", "0.1", "--dt", "0.01", "--out", str(out)]
    code, stdout, stderr, written = _outcome(argv, capsys, out)
    assert (code, stdout, written) == (2, "", None)
    assert stderr.endswith("error: the following arguments are required: --vel\n")


def _documented_commands():
    """Every line of README's "Command line" block as argv, once for each
    choice of its [...] parts, with each scenario the bundled one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        parts = re.split(r"\[([^]]*)\]", line)  # fixed text and optional parts, alternating
        for keep in itertools.product((False, True), repeat=len(parts) // 2):
            words = "".join(part for k, part in enumerate(parts)
                            if k % 2 == 0 or keep[k // 2]).split()
            assert words[0] == "newcart"
            yield [scn(w[:-4]) if w.endswith(".scn") else w for w in words[1:]]


@pytest.mark.parametrize("argv", list(_documented_commands()),
                         ids=lambda argv: " ".join(Path(w).name for w in argv))
def test_every_documented_command_exits_0(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
