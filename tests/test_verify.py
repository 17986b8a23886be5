"""Check harness: residual entries, negative fixtures, determinism."""

import dataclasses

import numpy as np
import pytest

from conftest import (NAMES2, bundled, coord_field, exprs, flat_observer, flat_structure,
                      curvedh_structure, gravity_data, m4_data, m4_observer, m4_structure,
                      mixed_data, mixed_observer, mixed_structure, rot_observer,
                      rot_structure, synthetic_case, twist_observer, twist_structure)
import newcart.expr as expr_mod
import newcart.verify as verify_mod
from newcart.connection import (Connection, ConnectionData, build_connection,
                                connection_from_exprs, nabla, observable_map,
                                spatial_state)
from newcart.errors import DomainError, NewcartError
from newcart.expr import (Const, Coord, ZERO, apply, differentiate, evaluate, mul,
                          parse_expr, to_string)
from newcart.expr import compile as compile_exprs
from newcart.geometry import ObserverField, SpacetimeStructure
from newcart.report import make_entry
from newcart.scenario import bundled_scenario_path, load_scenario_text
from newcart.verify import (FD_STEP, check_compatibility_metric,
                            check_compatibility_omega, check_field_coeffs, check_roundtrip,
                            check_torsion_clock, fd_validate, random_poly_coeffs,
                            run_all, torsion_free_feasibility)


def _zero_table(m):
    return tuple(tuple(tuple(ZERO for _ in range(m)) for _ in range(m))
                 for _ in range(m))


def _table_with(m, entries):
    table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for (k, i, j), e in entries.items():
        table[k][i][j] = e
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def test_omega_check_passes_on_built_connections():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    entry = check_compatibility_omega(C.state(), check_field_coeffs(S))
    assert entry.passed and entry.max_residual <= 1e-12

    S, z = rot_structure(), rot_observer()
    C = build_connection(S, z, ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {}))
    assert check_compatibility_omega(C.state(), check_field_coeffs(S)).passed


def test_omega_check_fails_on_bad_user_connection():
    S, z = flat_structure(), flat_observer()
    C = connection_from_exprs(S, z, _table_with(2, {(0, 0, 0): Const(1.0)}))
    entry = check_compatibility_omega(C.state(), check_field_coeffs(S))
    assert not entry.passed
    # the coordinate pair (d_t, d_t) contributes residual exactly 1; the
    # random polynomial fields can only push the maximum higher
    assert entry.max_residual >= 1.0 - 1e-12
    assert entry.worst_point is not None


def test_metric_check_passes_on_built_connections():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    entry = check_compatibility_metric(C.state())
    assert entry.passed and entry.max_residual <= 1e-12
    C = build_connection(S, z, gravity_data(-9.8))
    assert check_compatibility_metric(C.state()).passed


def test_metric_check_fails_for_zero_connection_on_varying_metric():
    S, z = curvedh_structure(), flat_observer()
    C = connection_from_exprs(S, z, _zero_table(2))
    entry = check_compatibility_metric(C.state())
    assert not entry.passed
    # lhs is d(h11)/dx = x/5 while both covariant terms vanish
    worst_x = entry.worst_point[1]
    assert entry.max_residual == pytest.approx(abs(worst_x) / 5.0, rel=1e-9)


def test_theorem1_check():
    S, z = flat_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    assert check_torsion_clock(C.state()).passed

    S, z = twist_structure(), twist_observer()
    for data in (ConnectionData.zero(2),
                 ConnectionData((Const(0.3), ZERO), {(0, 1): Const(0.4)},
                                {(0, 1, 2): Const(0.2)})):
        C = build_connection(S, z, data)
        assert check_torsion_clock(C.state()).passed

    # a symmetric (zero) coefficient table cannot reproduce dO = dx^dy
    C = connection_from_exprs(S, z, _zero_table(3))
    entry = check_torsion_clock(C.state())
    assert not entry.passed
    assert entry.max_residual == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_check():
    S, z = flat_structure(), flat_observer()
    entry = check_roundtrip(build_connection(S, z, ConnectionData.zero(1)).state())
    assert entry.passed and entry.max_residual == 0.0

    entry = check_roundtrip(build_connection(S, z, gravity_data(-9.8)).state())
    assert entry.passed

    S, z = rot_structure(), rot_observer()
    D = ConnectionData((ZERO, ZERO), {(0, 1): Const(0.5)}, {(0, 1, 2): Const(0.3)})
    assert check_roundtrip(build_connection(S, z, D).state()).passed


@pytest.mark.parametrize("group,index", [("gravity", (slice(None), 0)),
                                         ("coriolis", (slice(None), 0, 1)),
                                         ("theta", (slice(None), 0, 0, 2))])
def test_roundtrip_fails_when_a_datum_moves_after_gamma(group, index):
    state = build_connection(mixed_structure(), mixed_observer(), mixed_data()).state()
    assert check_roundtrip(state).max_residual <= 1e-15
    shifted = state[group].copy()
    shifted[index] += 1e-6
    entry = check_roundtrip({**state, group: shifted})
    assert not entry.passed
    assert entry.max_residual == pytest.approx(1e-6, abs=1e-12)


def test_fd_validate_polynomial_scenarios_are_tight():
    S, z = curvedh_structure(), flat_observer()
    C = build_connection(S, z, ConnectionData.zero(1))
    entry = fd_validate(C, C.state())
    assert entry.passed
    assert entry.max_residual <= 1e-8


def test_fd_validate_transcendental_scenario():
    S = flat_structure()
    z = ObserverField(exprs(NAMES2, "1", "0.2*sin(x) + 0.1*exp(x/2)"))
    D = ConnectionData((parse_expr("cos(x)/4", NAMES2),), {}, {})
    C = build_connection(S, z, D)
    assert fd_validate(C, C.state()).passed


def test_fd_validate_catches_corrupted_rule(monkeypatch):
    S = flat_structure()
    z = ObserverField(exprs(NAMES2, "1", "0.2*sin(x)"))
    monkeypatch.setitem(expr_mod.FUNCTION_DERIVATIVES, "sin",
                        lambda u, du: mul(apply("sin", u), du))
    C = build_connection(S, z, ConnectionData.zero(1))
    assert not fd_validate(C, C.state()).passed


@pytest.mark.parametrize("S,z,D", [
    (curvedh_structure(), flat_observer(), ConnectionData.zero(1)),
    (m4_structure(), m4_observer(), m4_data()),
])
def test_fd_validate_catches_corrupted_spatial_tensor_derivative(S, z, D):
    C = build_connection(S, z, D)
    state = C.state()
    assert fd_validate(C, state).passed
    # only the numeric d_k g moves, so only its check against g can fail
    assert not fd_validate(C, {**state, "dg": state["dg"] + 1e-4}).passed


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fd_validate_reads_the_states_derivative_tables(m):
    S, z, D = synthetic_case(m, 7)
    C = build_connection(S, z, D)
    state = C.state()
    assert fd_validate(C, state).passed
    # d_rows scaled in z's row alone, then in the frame's rows alone
    z_only, frame_only = np.ones((2, m, 1, 1))
    z_only[0] = frame_only[1:] = 1 + 1e-4
    for table, scale in (("tau", 1 + 1e-4), ("d_rows", z_only), ("d_rows", frame_only),
                         ("dh", 1 + 1e-4), ("dg", 1 + 1e-4)):
        scaled = {**state, table: state[table] * scale}
        assert not fd_validate(C, scaled).passed, table


def test_fd_validate_reads_dh_off_the_diagonal():
    # the synthetic structures' off-diagonal h entries are constants;
    # m4_structure's vary with position
    C = build_connection(m4_structure(), m4_observer(), m4_data())
    state = C.state()
    assert fd_validate(C, state).passed
    off_diagonal = 1 + 1e-4 * (1 - np.eye(C.structure.n))
    assert not fd_validate(C, {**state, "dh": state["dh"] * off_diagonal}).passed


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fd_check_reads_the_connections_tau(m):
    # the clock form is not closed, so a transposed tau is a wrong d omega;
    # the clock and torsion-clock checks read the same tau, so only the FD
    # check can see it
    S, z, D = synthetic_case(m, 7)
    C = build_connection(S, z, D)
    C.tau = [list(row) for row in zip(*C.tau)]  # before first use
    failed = [e.name for e in run_all(S, z, connection=C).entries if not e.passed]
    assert failed == ["derivative finite-difference check"]


def _fd_residuals_point_by_point(S, C, points, where=None):
    """fd_validate's residuals, one stencil at a time, in (entry, direction,
    point) order: the non-constant coefficients of omega, z, the frame and
    h at a <= b, then g at i <= j, skipping every stencil that leaves the
    box or at which a value cannot be evaluated.  The centre of each
    residual is appended to `where` when it is given."""
    m, n, box = S.dim, S.n, S.domain_box
    residuals = []

    def stencil(p, i):
        if p[i] - FD_STEP < box[i][0] or p[i] + FD_STEP > box[i][1]:
            return None
        hi, lo = np.array(p), np.array(p)
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        return hi, lo

    coefficients = [*S.omega, *C.observer.components, *(e for f in S.frame for e in f),
                    *(S.metric[a][b] for a in range(n) for b in range(a, n))]
    for base in coefficients:
        if type(base) is Const:
            continue
        for i in range(m):
            deriv = differentiate(base, i)
            for p in points:
                if (st := stencil(p, i)) is None:
                    continue
                try:
                    fd = (evaluate(base, st[0]) - evaluate(base, st[1])) / (2.0 * FD_STEP)
                    sym = evaluate(deriv, p)
                except NewcartError:
                    continue
                residuals.append(abs(sym - fd) / max(1.0, abs(fd)))
                if where is not None:
                    where.append(p)

    def spatial(p):
        try:
            return spatial_state(C.program(p), p)
        except NewcartError:
            return None

    centres = [spatial(p) for p in points]
    for a, b in zip(*np.triu_indices(m)):
        for i in range(m):
            for p, centre in zip(points, centres):
                if centre is None or (st := stencil(p, i)) is None:
                    continue
                up, down = spatial(st[0]), spatial(st[1])
                if up is None or down is None:
                    continue
                fd = (up["g"][a, b] - down["g"][a, b]) / (2.0 * FD_STEP)
                residuals.append(abs(centre["dg"][i, a, b] - fd) / max(1.0, abs(fd)))
                if where is not None:
                    where.append(p)
    return residuals


def test_fd_validate_skips_exactly_the_undefined_stencils(monkeypatch):
    S = dataclasses.replace(flat_structure(40, box=((0.0, 1.0), (-1.0, 1.0))),
                            metric=((parse_expr("1 + sqrt(x)", NAMES2),),))
    z = flat_observer()
    D = ConnectionData((parse_expr("log(x + 0.5)", NAMES2),), {}, {})
    C = build_connection(S, z, D)
    # the samples at which the state is defined, and a centre whose lower
    # stencil point is negative
    points = [p for p in S.sample_points() if p[1] > 0.0] + [np.array([0.5, 0.5 * FD_STEP])]
    captured = []
    monkeypatch.setattr(verify_mod, "make_entry",
                        lambda name, tol, residuals, where: captured.append(residuals.tolist()))
    fd_validate(C, C.state(points))
    want = _fd_residuals_point_by_point(S, C, points)
    # with nothing skipped: 1 entry of h (h11) and 3 entries of g, 2 directions each
    assert 0 < len(want) < 8 * len(points)
    assert captured == [want]


def test_fd_validate_skips_stencils_where_the_basis_is_singular(monkeypatch):
    S = flat_structure(20, box=((0.0, 1.0), (0.0, 1.0)))
    # E1 vanishes at c, the upper x stencil point of the first sample
    c = float(S.sample_points()[0][1] + FD_STEP)
    assert c == 0.2368205065960997
    S = dataclasses.replace(S, frame=(exprs(NAMES2, "0", f"x - {c!r}"),))
    report = run_all(S, flat_observer())
    assert report.passed
    fd = next(e for e in report.entries if e.name == "derivative finite-difference check")
    assert fd.max_residual == pytest.approx(6.101e-07, rel=1e-3)
    C = build_connection(S, flat_observer())
    captured = []
    monkeypatch.setattr(verify_mod, "make_entry",
                        lambda name, tol, residuals, where: captured.append(residuals.tolist()))
    fd_validate(C, C.state())
    want = _fd_residuals_point_by_point(S, C, S.sample_points())
    assert captured == [want]


def test_fd_validate_counts_only_the_stencils_inside_a_thin_box():
    # the inputs are defined everywhere, and the box is thinner than
    # 2 FD_STEP in t: every t stencil leaves it, so only x's count
    S = dataclasses.replace(flat_structure(10, box=((0.3, 0.3 + FD_STEP), (-1.0, 1.0))),
                            metric=((parse_expr("1 + t*t + x*x/4", NAMES2),),))
    C = build_connection(S, ObserverField(exprs(NAMES2, "1", "t*x/5")))
    points = S.sample_points()
    where = []
    want = _fd_residuals_point_by_point(S, C, points, where)
    # z's x component, h11 and g at i <= j, in the x direction only
    assert len(want) == 5 * len(points)
    got = fd_validate(C, C.state(points))
    assert got == make_entry(got.name, got.tolerance, want, where)
    assert got.max_residual > 0.0


@pytest.mark.parametrize("name", ["twist", "curvedh"])
def test_fd_validate_on_a_clean_run_equals_the_point_by_point_reference(monkeypatch, name):
    scn = bundled(name)
    C = build_connection(scn.structure, scn.observer, scn.data)
    points = scn.structure.sample_points()
    m = scn.structure.dim
    # nothing fails at any stencil, so no mask is read
    step = FD_STEP * np.eye(m)[:, None, :]
    assert C.program.run(np.concatenate([points + step, points - step]))[2] is None
    captured = []
    monkeypatch.setattr(verify_mod, "make_entry",
                        lambda name, tol, residuals, where: captured.append(residuals.tolist()))
    fd_validate(C, C.state(points))
    want = _fd_residuals_point_by_point(scn.structure, C, points)
    assert len(want) > 0
    assert captured == [want]


def _count_compiles_and_runs(monkeypatch):
    # a call is a run followed by a raise: wrapping run counts both
    compiled, runs = [], []
    program = expr_mod.Program
    init, run = program.__init__, program.run
    monkeypatch.setattr(program, "__init__",
                        lambda self, exprs: (compiled.append(1), init(self, exprs))[1])
    monkeypatch.setattr(program, "run", lambda self, points: (runs.append(1), run(self, points))[1])
    return compiled, runs


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fd_validate_compiles_nothing_and_runs_the_program_once(m, monkeypatch):
    S, z, D = synthetic_case(m, 7)
    C = build_connection(S, z, D)
    state = C.state()  # compiles the connection's program
    compiled, runs = _count_compiles_and_runs(monkeypatch)
    assert fd_validate(C, state).passed
    assert (len(compiled), len(runs)) == (0, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, "user"])
def test_built_run_all_compiles_one_program_and_runs_two(m, monkeypatch):
    # the connection's program runs once for the structure entries and the
    # shared state, and once over the FD stencils; a user table is a group
    # of that one program, with no compile or run of its own
    compiled, runs = _count_compiles_and_runs(monkeypatch)
    if m == "user":
        S, z = curvedh_structure(), flat_observer()
        run_all(S, z, connection=connection_from_exprs(S, z, _zero_table(2)))
    else:
        S, z, D = synthetic_case(m, 7)
        assert run_all(S, z, data=D).passed
    assert (len(compiled), len(runs)) == (1, 2)


def test_failing_structure_run_all_compiles_one_program_and_runs_it_once(monkeypatch):
    scn = bundled("bad_frame")
    compiled, runs = _count_compiles_and_runs(monkeypatch)
    report = run_all(scn.structure, scn.observer, data=scn.data)
    assert report.first_failure().name == "frame annihilated by clock form"
    assert (len(compiled), len(runs)) == (1, 1)


def test_run_all_on_overflowing_data_raises_only_its_domain_error():
    # FD differences the masked stencil values without a numpy warning
    text = bundled_scenario_path("grav").read_text(encoding="utf-8")
    scn = load_scenario_text(text.replace("G = 9.8\n", "G = exp(1000*x)\n"))
    with pytest.raises(DomainError, match="exp overflow"):
        run_all(scn.structure, scn.observer, data=scn.data)


def test_run_all_passes_on_healthy_scenarios():
    cases = [
        (flat_structure(), flat_observer(), ConnectionData.zero(1)),
        (curvedh_structure(), flat_observer(), ConnectionData.zero(1)),
        (mixed_structure(), mixed_observer(), mixed_data()),
        (m4_structure(), m4_observer(), m4_data()),
    ]
    for S, z, D in cases:
        report = run_all(S, z, data=D, scenario_name="case")
        assert report.passed, [e.name for e in report.entries if not e.passed]


def test_run_all_structure_failure_short_circuits():
    S = flat_structure()
    bad = ObserverField(exprs(NAMES2, "2", "0"))
    report = run_all(S, bad, data=ConnectionData.zero(1))
    assert not report.passed
    assert report.first_failure().name == "observer normalization"
    names = [e.name for e in report.entries]
    assert "clock compatibility" not in names  # connection checks skipped


def test_run_all_user_connection_mode():
    S, z = curvedh_structure(), flat_observer()
    C = connection_from_exprs(S, z, _zero_table(2))
    report = run_all(S, z, connection=C)
    failed = [e.name for e in report.entries if not e.passed]
    assert failed == ["metric compatibility"]
    assert not any(e.name == "observable round trip" for e in report.entries)


def test_run_all_reads_seed_fields_and_points_from_a_given_connection():
    scn = bundled("twist")
    C = build_connection(scn.structure, scn.observer, scn.data)
    # a structure that differs from the connection's only in its seed
    report = run_all(dataclasses.replace(scn.structure, rng_seed=99), scn.observer,
                     connection=C)
    assert report.seed == C.structure.rng_seed == 14
    assert report.check_fields == run_all(scn.structure, scn.observer,
                                          connection=C).check_fields
    assert report.entries[0].worst_point == tuple(C.structure.sample_points()[0])
    assert report.to_json() == run_all(scn.structure, scn.observer, data=scn.data).to_json()


def test_torsion_free_feasibility_entry():
    S, z = twist_structure(), twist_observer()
    report = run_all(S, z, data=ConnectionData.zero(2), expect_torsion_free=True)
    entry = report.entries[-1]
    assert entry.name.startswith("torsion-free feasibility")
    assert not entry.passed
    assert entry.max_residual == pytest.approx(1.0, abs=1e-12)

    assert torsion_free_feasibility(
        build_connection(flat_structure(), flat_observer()).state()).passed


def test_reports_are_deterministic():
    S, z, D = mixed_structure(), mixed_observer(), mixed_data()
    a = run_all(S, z, data=D, scenario_name="mixed").to_json()
    b = run_all(S, z, data=D, scenario_name="mixed").to_json()
    assert a == b


def test_report_records_check_fields():
    S, z = flat_structure(), flat_observer()
    report = run_all(S, z, data=ConnectionData.zero(1))
    assert len(report.check_fields) == 5
    assert all(len(f) == 2 for f in report.check_fields)
    payload = report.to_dict()
    assert payload["check_fields"]


def test_failing_entries_stay_failing_with_more_samples():
    bad_frame = dataclasses.replace(twist_structure(20, 17), frame=rot_structure().frame)
    z = twist_observer()
    small = run_all(bad_frame, z, data=ConnectionData.zero(2))
    grown = run_all(dataclasses.replace(bad_frame, sample_count=40), z,
                    data=ConnectionData.zero(2))
    name = "frame annihilated by clock form"
    small_entry = {e.name: e for e in small.entries}[name]
    grown_entry = {e.name: e for e in grown.entries}[name]
    assert not small_entry.passed
    assert not grown_entry.passed
    assert grown_entry.max_residual >= small_entry.max_residual


def test_entry_invariants():
    S, z = mixed_structure(), mixed_observer()
    report = run_all(S, z, data=mixed_data())
    for e in report.entries:
        assert e.max_residual >= e.mean_residual >= 0.0
        assert e.passed == (e.max_residual <= e.tolerance)


def _poly_fields_reference(m, seed, count=5):
    """The check fields as they were first built: one scalar draw per term."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fields = []
    for _ in range(count):
        comps = []
        for _k in range(m):
            e = Const(float(rng.uniform(-1.0, 1.0)))
            for i in range(m):
                e = e + mul(Const(float(rng.uniform(-1.0, 1.0))), Coord(i))
            for i in range(m):
                for j in range(i, m):
                    e = e + mul(Const(float(rng.uniform(-1.0, 1.0))), mul(Coord(i), Coord(j)))
            comps.append(e)
        fields.append(tuple(comps))
    return fields


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_check_fields_print_as_the_reference_draws(m):
    names = tuple(f"q{i}" for i in range(m))
    for seed in (0, 1, 8, 15, 12345):
        got = verify_mod._check_field_strings(random_poly_coeffs(m, seed), names)
        want = tuple(tuple(to_string(c, names) for c in f)
                     for f in _poly_fields_reference(m, seed))
        assert got == want


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_check_field_values_match_compiled_trees(m):
    # terms are bounded by 1 for |x| <= 1: at most 21 of them per component
    tol = 1e-12
    stack = np.random.default_rng(m).uniform(-1.0, 1.0, (30, m))
    names = tuple(f"q{i}" for i in range(m))
    for seed in (3, 4):
        coeffs = random_poly_coeffs(m, seed)
        fields = [tuple(parse_expr(c, names) for c in f)
                  for f in verify_mod._check_field_strings(coeffs, names)]
        values = verify_mod._poly_values(coeffs, stack)
        assert np.max(np.abs(values - compile_exprs(fields)(stack))) <= tol


def _clock_residuals(monkeypatch, state, structure):
    """The residuals and points `check_compatibility_omega` passes to make_entry."""
    seen = []
    make_entry = verify_mod.make_entry
    monkeypatch.setattr(verify_mod, "make_entry",
                        lambda *args: seen.append(args[2:]) or make_entry(*args))
    entry = check_compatibility_omega(state, check_field_coeffs(structure))
    residuals, points = seen[0]
    return entry, np.asarray(residuals), points


def _two_sided_clock(state, structure):
    """X(w(Y)) - w(nabla_X Y) per [X, Y, point] from the check fields'
    compiled trees and their symbolic Jacobians: X(w(Y)) by the product
    rule, nabla_X Y by `nabla`."""
    m, names = structure.dim, structure.coord_names
    fields = [coord_field(m, i) for i in range(m)] + [
        tuple(parse_expr(c, names) for c in f) for f in verify_mod._check_field_strings(
            check_field_coeffs(structure), names)]
    jacobians = [[[differentiate(c, i) for i in range(m)] for c in f] for f in fields]
    at = compile_exprs({"values": fields, "jacobians": jacobians})(state["p"])
    values, jacobians = at["values"], at["jacobians"]  # [point, field, k(, i)]
    d_clock = (np.einsum("pij,pyj->pyi", state["tau"], values)
               + np.einsum("pj,pyji->pyi", state["omega"], jacobians))
    lhs = np.einsum("pxi,pyi->pxy", values, d_clock)
    nab = nabla(state["gamma"][:, None, None], jacobians[:, None],
                values[:, :, None], values[:, None, :])  # [point, X, Y, k]
    return np.moveaxis(lhs - np.einsum("pk,pxyk->pxy", state["omega"], nab), 0, -1).ravel()


CLOCK_CASES = {
    **{f"m{m}": lambda m=m: build_connection(*synthetic_case(m, seed=7)) for m in (2, 3, 4, 5)},
    "mixed": lambda: build_connection(mixed_structure(), mixed_observer(), mixed_data()),
    "bad_flat": lambda: connection_from_exprs(flat_structure(), flat_observer(),
                                              _table_with(2, {(0, 0, 0): Const(1.0)})),
    # w(nabla_t d_x) = 1 but w(nabla_x d_t) = 0: a residual order [Y, X] fails here
    "skew_flat": lambda: connection_from_exprs(flat_structure(), flat_observer(),
                                               _table_with(2, {(0, 0, 1): Const(1.0)})),
}


@pytest.mark.parametrize("case", CLOCK_CASES)
def test_clock_defect_form_equals_the_two_sided_formula(monkeypatch, case):
    C = CLOCK_CASES[case]()
    S = C.structure
    state = C.state()
    entry, grid, points = _clock_residuals(monkeypatch, state, S)
    residuals, ref = grid.ravel(), _two_sided_clock(state, S)
    assert residuals.shape == ref.shape
    assert np.all(np.abs(residuals - np.abs(ref)) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    # [X, Y, point] order: residual [x, y, r] sits at sample point r
    layout = grid.shape + state["p"].shape[-1:]
    np.testing.assert_array_equal(np.broadcast_to(points, layout),
                                  np.broadcast_to(state["p"], layout))
    assert entry.passed == (case not in ("bad_flat", "skew_flat"))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_clock_check_fails_on_a_perturbed_gamma(m):
    S, z, D = synthetic_case(m, seed=7)
    state = build_connection(S, z, D).state()
    assert check_compatibility_omega(state, check_field_coeffs(S)).passed
    state["gamma"][:, 0, 0, 0] += 1e-6
    entry = check_compatibility_omega(state, check_field_coeffs(S))
    assert not entry.passed and entry.max_residual >= 0.5e-6


def test_run_all_draws_the_sample_points_once(monkeypatch):
    calls = []
    draw = SpacetimeStructure.sample_points
    monkeypatch.setattr(SpacetimeStructure, "sample_points",
                        lambda self: calls.append(1) or draw(self))
    S, z, D = synthetic_case(3, seed=7)
    assert run_all(S, z, data=D).passed
    assert len(calls) == 1


def test_run_all_draws_the_check_fields_once(monkeypatch):
    draws = []
    draw = verify_mod.random_poly_coeffs
    monkeypatch.setattr(verify_mod, "random_poly_coeffs",
                        lambda m, seed: draws.append(draw(m, seed)) or draws[-1])
    S, z, D = synthetic_case(3, seed=7)
    report = run_all(S, z, data=D)
    assert report.passed
    assert len(draws) == 1
    # the printed fields are the fields the clock check reads
    stack = S.sample_points()
    fields = [tuple(parse_expr(c, S.coord_names) for c in f) for f in report.check_fields]
    values = verify_mod._poly_values(draws[0], stack)
    assert np.max(np.abs(values - compile_exprs(fields)(stack))) <= 1e-12


def test_run_all_evaluates_gamma_once(monkeypatch):
    calls = []
    state_of = Connection.state_of

    def counted(self, values, points, error=None):
        calls.append(np.shape(points))
        return state_of(self, values, points, error)

    monkeypatch.setattr(Connection, "state_of", counted)
    S, z = mixed_structure(), mixed_observer()
    report = run_all(S, z, data=mixed_data())
    assert calls == [(S.sample_count, S.dim)]
    calls.clear()
    run_all(S, z, connection=connection_from_exprs(S, z, _zero_table(3)))
    assert calls == [(S.sample_count, S.dim)]
    # sharing changes no figure of the report
    monkeypatch.setattr(Connection, "state_of", state_of)
    C = build_connection(S, z, mixed_data())
    points = S.sample_points()
    alone = [check_compatibility_omega(C.state(points), check_field_coeffs(S)),
             check_compatibility_metric(C.state(points)), check_torsion_clock(C.state(points)),
             check_roundtrip(C.state(points))]
    assert report.entries[-4:] == alone


@pytest.mark.parametrize("user", [False, True], ids=["built", "user"])
def test_checks_read_the_kit_and_compile_nothing(monkeypatch, user):
    if user:
        S, z = curvedh_structure(), flat_observer()
        C = connection_from_exprs(S, z, _zero_table(2))
    else:
        S, z, D = synthetic_case(4, seed=5)
        C = build_connection(S, z, D)
    points = S.sample_points()
    C.program  # compiles the connection's program
    built = []
    init = expr_mod.Program.__init__
    monkeypatch.setattr(expr_mod.Program, "__init__",
                        lambda self, exprs: (built.append(exprs), init(self, exprs))[1])
    check_compatibility_omega(C.state(points), check_field_coeffs(S))
    check_compatibility_metric(C.state(points))
    check_torsion_clock(C.state(points))
    observable_map(C.state(points))
    torsion_free_feasibility(C.state(points))
    fd_validate(C, C.state(points))
    if not user:
        check_roundtrip(C.state(points))
    assert built == []
