"""Scenario file format: loading, arity rules, serialization round trip."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newcart.connection import connection_from_exprs
from newcart.errors import (DimensionMismatch, MissingSection, NewcartError,
                            ScenarioError, ScenarioParseError)
from newcart.expr import evaluate
from newcart.scenario import (bundled_scenario_path, load_scenario,
                              load_scenario_text, serialize_scenario)
from newcart.verify import run_all
from reference import eval_fields, metric_matrix

MINIMAL = """
[spacetime]
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
[domain]
box = 0 1, -1 1
"""


def test_load_bundled_flat():
    scn = load_scenario(bundled_scenario_path("flat"))
    assert scn.name == "flat"
    assert scn.structure.dim == 2
    assert scn.structure.sample_count == 100
    assert scn.data is not None
    assert all(evaluate(g, (0.0, 0.0)) == 0.0 for g in scn.data.gravity)
    assert not scn.has_user_connection


def test_load_bundled_twist_has_full_data():
    scn = load_scenario(bundled_scenario_path("twist"))
    assert scn.structure.dim == 3
    assert scn.data.coriolis[(0, 1)] is not None
    assert (0, 1, 2) in scn.data.theta
    assert (1, 0, 1) in scn.data.theta


def test_minimal_scenario_defaults():
    scn = load_scenario_text(MINIMAL, name="minimal")
    assert scn.structure.sample_count == 50
    assert scn.structure.rng_seed == 0
    assert scn.data is not None and not scn.data.coriolis and not scn.data.theta


def test_comments_and_blank_lines_ignored():
    scn = load_scenario_text(MINIMAL.replace("[omega]", "# a comment\n\n[omega]"))
    assert scn.structure.dim == 2


def test_dim_coords_mismatch():
    with pytest.raises(DimensionMismatch):
        load_scenario_text(MINIMAL.replace("coords = t, x", "coords = t, x, y"))


def test_omega_arity():
    with pytest.raises(DimensionMismatch):
        load_scenario_text(MINIMAL.replace("O = 1, 0", "O = 1, 0, 0"))


def test_gravity_arity_rule():
    bad = MINIMAL + "\n[gravity]\nG = 0, -9.8\n"
    with pytest.raises(DimensionMismatch):
        load_scenario_text(bad)


def test_metric_shape_rule():
    # two frame fields would be required for a 3x3 metric; on a 2-dim chart
    # the only legal key is h11
    bad = MINIMAL.replace("h11 = 1", "h11 = 1\nh22 = 1\nh33 = 1")
    with pytest.raises(DimensionMismatch):
        load_scenario_text(bad)


def test_metric_diagonal_required():
    bad = MINIMAL.replace("h11 = 1", "")
    with pytest.raises(DimensionMismatch):
        load_scenario_text(bad)


def test_frame_field_count():
    bad = MINIMAL.replace("E1 = 0, 1", "E1 = 0, 1\nE2 = 0, 1")
    with pytest.raises(DimensionMismatch):
        load_scenario_text(bad)


def test_missing_section():
    bad = MINIMAL.replace("[observer]\nz = 1, 0\n", "")
    with pytest.raises(MissingSection) as err:
        load_scenario_text(bad)
    assert "observer" in err.value.names


def test_unknown_section_and_bad_expression():
    with pytest.raises(ScenarioParseError):
        load_scenario_text(MINIMAL + "\n[unknown]\nk = 1\n")
    with pytest.raises(ScenarioParseError) as err:
        load_scenario_text(MINIMAL.replace("O = 1, 0", "O = 1 +, 0"))
    assert err.value.section == "omega"
    assert err.value.key == "O"


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioParseError):
        load_scenario_text(MINIMAL.replace("h11 = 1", "h11 = 1\nh11 = 2"))


@pytest.mark.parametrize("name,section,old,key,shape", [
    ("twist", "metric", "h11 = 1", "h\u0661\u0661", "hab"),
    ("twist", "coriolis", "w12 = 0.25", "w\u0661\u0662", "wab"),
    ("twist", "theta", "T1_12 = 0.3", "T\u0661_\u0661\u0662", "Ta_ij"),
    ("zero_connection_curvedh", "christoffel", "[christoffel]", "C\u0661_\u0660\u0660", "Ck_ij"),
], ids=["hab", "wab", "Ta_ij", "Ck_ij"])
def test_indexed_keys_take_ascii_digits_only(name, section, old, key, shape):
    # an Arabic-Indic key that spells an existing one must not replace it
    text = bundled_scenario_path(name).read_text(encoding="utf-8")
    assert old in text
    with pytest.raises(ScenarioParseError) as err:
        load_scenario_text(text.replace(old, f"{old}\n{key} = 2"))
    assert (err.value.section, err.value.key) == (section, key)
    assert str(err.value).endswith(f": {section} keys look like '{shape}'")


def test_coordinate_name_function_collision():
    bad = MINIMAL.replace("coords = t, x", "coords = t, sin")
    with pytest.raises(ScenarioParseError):
        load_scenario_text(bad)


@pytest.mark.parametrize("key,old,new,line", [
    ("dim", "dim = 2", "dim = two", 3),
    ("box", "box = 0 1, -1 1", "box = 0 *, -1 1", 14),
    ("box", "box = 0 1, -1 1", "box = 0 1, -1 inf", 14),
    ("box", "box = 0 1, -1 1", "box = 0 1, nan 1", 14),
    ("samples", "box = 0 1, -1 1", "box = 0 1, -1 1\nsamples = 4.5", 15),
    ("samples", "box = 0 1, -1 1", "box = 0 1, -1 1\nsamples = 0", 15),
    ("samples", "box = 0 1, -1 1", "box = 0 1, -1 1\nsamples = 100001", 15),
    ("seed", "box = 0 1, -1 1", "box = 0 1, -1 1\nseed = x 14", 15),
    ("seed", "box = 0 1, -1 1", "box = 0 1, -1 1\nseed = -1", 15),
])
def test_numeric_fields_name_section_key_and_line(key, old, new, line):
    with pytest.raises(ScenarioParseError) as err:
        load_scenario_text(MINIMAL.replace(old, new))
    assert (err.value.key, err.value.line) == (key, line)
    assert err.value.section == ("spacetime" if key == "dim" else "domain")


@pytest.mark.parametrize("section,old,new,key,line", [
    ("spacetime", "dim = 2", "dim = 2\ndimm = 3", "dimm", 4),
    ("omega", "O = 1, 0", "O = 1, 0\nO2 = 1, 0", "O2", 7),
    ("observer", "z = 1, 0", "z = 1, 0\nzz = 1, 0", "zz", 9),
    ("gravity", "box = 0 1, -1 1", "box = 0 1, -1 1\n[gravity]\ng = 0", "g", 16),
    ("domain", "box = 0 1, -1 1", "box = 0 1, -1 1\nsample = 60", "sample", 15),
])
def test_unknown_keys_name_section_key_and_line(section, old, new, key, line):
    with pytest.raises(ScenarioParseError) as err:
        load_scenario_text(MINIMAL.replace(old, new))
    assert (err.value.section, err.value.key, err.value.line) == (section, key, line)
    assert str(err.value).endswith(f": unknown key '{key}'")


def test_samples_upper_bound_is_inclusive():
    # loading draws no point, so the bound itself allocates nothing here
    text = MINIMAL.replace("box = 0 1, -1 1", "box = 0 1, -1 1\nsamples = 100000")
    assert load_scenario_text(text).structure.sample_count == 100_000


_BUNDLED = ["flat", "grav", "rot", "twist", "curvedh", "bad_observer", "bad_frame",
            "zero_connection_curvedh"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_bundled_scenarios_load_or_raise_scenario_errors(data):
    text = bundled_scenario_path(data.draw(st.sampled_from(_BUNDLED))).read_text()
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 1))
        put = data.draw(st.text(alphabet="0123456789.-+*/^(),= xtye_[]#\n", max_size=1))
        text = text[:at] + put + text[at + cut:]
    try:
        scn = load_scenario_text(text)
    except ScenarioError:
        return
    # what loads ends in a report or a NewcartError, never a traceback
    try:
        conn = (connection_from_exprs(scn.structure, scn.observer, scn.christoffel)
                if scn.has_user_connection else None)
        report = run_all(scn.structure, scn.observer, data=scn.data, connection=conn,
                         scenario_name=scn.name)
    except NewcartError:
        return
    report.render_table()
    report.to_json()


def test_box_arity():
    with pytest.raises(DimensionMismatch):
        load_scenario_text(MINIMAL.replace("box = 0 1, -1 1", "box = 0 1"))


def test_christoffel_section():
    scn = load_scenario_text(MINIMAL + "\n[christoffel]\nC1_00 = -9.8\n")
    assert scn.has_user_connection
    assert scn.data is None
    assert evaluate(scn.christoffel[1][0][0], (0.0, 0.0)) == -9.8
    assert evaluate(scn.christoffel[0][0][0], (0.0, 0.0)) == 0.0


def test_christoffel_conflicts_with_data():
    bad = MINIMAL + "\n[gravity]\nG = 1\n[christoffel]\nC1_00 = 0\n"
    with pytest.raises(ScenarioParseError):
        load_scenario_text(bad)


def test_empty_christoffel_section_is_zero_table():
    scn = load_scenario_text(MINIMAL + "\n[christoffel]\n")
    assert scn.has_user_connection
    assert all(evaluate(scn.christoffel[k][i][j], (0.3, 0.2)) == 0.0
               for k in range(2) for i in range(2) for j in range(2))


@pytest.mark.parametrize("name", ["flat", "grav", "rot", "twist", "curvedh",
                                  "bad_observer", "bad_frame",
                                  "zero_connection_curvedh"])
def test_serialize_load_roundtrip_evaluates_identically(name):
    scn = load_scenario(bundled_scenario_path(name))
    back = load_scenario_text(serialize_scenario(scn), name=scn.name)
    S, T = scn.structure, back.structure
    assert T.sample_count == S.sample_count and T.rng_seed == S.rng_seed
    for p, q in zip(S.sample_points(), T.sample_points()):
        assert np.array_equal(p, q)
        assert np.array_equal(eval_fields(S.omega, p), eval_fields(T.omega, p))
        assert np.array_equal(eval_fields(scn.observer.components, p),
                              eval_fields(back.observer.components, p))
        for a in range(S.n):
            assert np.array_equal(eval_fields(S.frame[a], p), eval_fields(T.frame[a], p))
        assert np.array_equal(metric_matrix(S, p), metric_matrix(T, p))
        if scn.data is not None:
            assert np.array_equal(eval_fields(scn.data.gravity, p),
                                  eval_fields(back.data.gravity, p))
            for key, e in scn.data.coriolis.items():
                assert evaluate(e, p) == evaluate(back.data.coriolis[key], p)
            for key, e in scn.data.theta.items():
                assert evaluate(e, p) == evaluate(back.data.theta[key], p)
        if scn.christoffel is not None:
            for k in range(S.dim):
                for i in range(S.dim):
                    for j in range(S.dim):
                        assert (evaluate(scn.christoffel[k][i][j], p)
                                == evaluate(back.christoffel[k][i][j], p))


def test_serialize_load_roundtrip_keeps_a_christoffel_table():
    scn = load_scenario_text(MINIMAL + "\n[christoffel]\nC1_00 = -9.8\nC0_01 = t*sin(x)\n")
    text = serialize_scenario(scn)
    assert "C0_01 = t*sin(x)\nC1_00 = -9.8\n" in text
    back = load_scenario_text(text)
    assert back.has_user_connection and back.data is None
    assert back.christoffel == scn.christoffel
    assert serialize_scenario(back) == text


def test_serialize_load_roundtrip_keeps_folded_overflows():
    text = MINIMAL.replace("h11 = 1", "h11 = 1 + x^2*(1e308*10 - 1e308*10)")
    text += "[gravity]\nG = t - 1e308*10\n[coriolis]\n[theta]\nT1_01 = 1e308*10*x\n"
    scn = load_scenario_text(text)
    back = load_scenario_text(serialize_scenario(scn))
    p = (0.5, 0.25)
    pairs = [(scn.structure.metric[0][0], back.structure.metric[0][0]),
             (scn.data.gravity[0], back.data.gravity[0]),
             (scn.data.theta[(0, 0, 1)], back.data.theta[(0, 0, 1)])]
    values = [(evaluate(e, p), evaluate(f, p)) for e, f in pairs]
    assert np.isnan(values[0]).all()
    assert values[1:] == [(-np.inf, -np.inf), (np.inf, np.inf)]


def test_unreadable_file():
    with pytest.raises(ScenarioParseError):
        load_scenario("/nonexistent/path/to/scenario.scn")
