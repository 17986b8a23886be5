"""Tests of the benchmark's own parts: generator, oracles, tracer arithmetic.

    python3 -m pytest benchmarks -q
"""

import numpy as np
import pytest

import oracles
import synth
import tracer
from newcart import (build_connection, connection_from_exprs, integrate_geodesic,
                     load_scenario_text, serialize_scenario, validate_structure)
from newcart.expr import ZERO
from hostref import REF_S, local_medians
from run import HOST_WINDOW, CheckBundled, OpResult, end_to_end, host_scaled
from tracer import RepeatCounter, Span, Tracer, self_times


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_synthetic_structures_validate_and_roundtrip(m):
    scn = synth.synthetic_scenario(m, seed=7)
    assert validate_structure(scn.structure, scn.observer).passed
    text = serialize_scenario(scn)
    again = load_scenario_text(text, name=scn.name)
    assert again.structure == scn.structure
    assert again.observer == scn.observer
    assert serialize_scenario(again) == text


def test_synthetic_text_depends_on_seed_only_through_coefficients():
    a, b = synth.synthetic_text(4, 1), synth.synthetic_text(4, 2)
    assert a != b
    strip = lambda t: "".join(c for c in t if not (c.isdigit() or c in ".-"))  # noqa: E731
    assert strip(a) == strip(b)


def _curve(conn):
    return integrate_geodesic(conn, np.array([0.3, 0.1, -0.2, 0.1]),
                              np.array([1.0, 0.3, -0.2, 0.4]), 0.0, 0.06, 0.02)


def test_clock_rate_oracle_accepts_built_and_rejects_zero_connection():
    scn = synth.synthetic_scenario(4, seed=3)
    S = scn.structure
    built = _curve(build_connection(S, scn.observer, scn.data))
    assert oracles.clock_rate_drift(S, built) <= oracles.CLOCK_RATE_TOL

    zero_table = tuple(tuple(tuple(ZERO for _ in range(4)) for _ in range(4)) for _ in range(4))
    zero = _curve(connection_from_exprs(S, scn.observer, zero_table))
    assert zero.termination == "completed"
    with pytest.raises(oracles.OracleFailure, match="clock rate"):
        oracles.check_curve(S, zero, "\n" * (len(zero.states) + 1))


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 20, 50, 0, 0),       # overlaps a: covered once
        Span("c", 90, 120, 0, 0),      # runs past the parent: clipped to 90..100
        Span("a.child", 12, 18, 1, 0),  # grandchild: counts against a only
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_repeat_ratio_is_per_owner():
    class Owner:
        pass

    first, second = Owner(), Owner()
    counter = RepeatCounter()
    for owner, key in [(first, b"p"), (first, b"q"), (first, b"p"), (first, b"p"),
                       (second, b"p")]:
        counter.observe(owner, key)
    assert (counter.calls, counter.repeats) == (5, 2)
    assert counter.ratio == pytest.approx(0.4)


def test_tracer_restores_targets_and_reports_absent_names(monkeypatch):
    import newcart.connection
    import newcart.verify
    original = newcart.verify.build_connection
    monkeypatch.setattr(tracer, "SPAN_TARGETS",
                        tracer.SPAN_TARGETS + (("newcart.verify", "gone", "verify.gone"),))
    t = Tracer()
    t.op = 0
    with t:
        assert newcart.verify.build_connection is not original
        assert newcart.connection.build_connection is newcart.verify.build_connection
        scn = synth.synthetic_scenario(2, seed=1)
        conn = newcart.verify.build_connection(scn.structure, scn.observer, scn.data)
        for _ in range(3):
            conn.christoffel(np.array([0.5, 0.0]))
    assert newcart.verify.build_connection is original
    assert t.absent == ["verify.gone"]
    totals = t.totals(lambda op: op == 0)
    assert totals["connection.build_connection"]["calls"] == 1
    assert totals["connection.christoffel"]["calls"] == 3
    assert totals["expr.differentiate"]["calls"] > 0
    assert t.repeats.ratio == pytest.approx(2 / 3)


def _rounds(count, ref=REF_S):
    """Rounds of two ops whose times never overlap, like two scenarios."""
    return [(False, [OpResult(1.0 + k / 100, 1, 1.0 + k / 100, None, ref),
                     OpResult(3.0 + k / 100, 6, 3.0 + k / 100, None, ref)])
            for k in range(count)]


def test_end_to_end_takes_p50_over_rounds_and_a_fixed_tail():
    rounds = _rounds(61)
    warmup = [OpResult(9.0, 1, 9.0, None, REF_S), OpResult(None, 0, 0.0, "ValueError: x", REF_S)]
    metrics, notes = end_to_end(0.5, warmup, rounds, 40.0, CheckBundled)
    # a round's mean op time is 2 + k/100; pooled ops would put p50 between the groups
    assert metrics["op_s.p50"][:2] == (pytest.approx(2.3), "s")
    # every timed step over every timed step second; warm-up ops are left out
    assert metrics["steps_per_s"][0] == pytest.approx(61 * 7 / (61 * 4 + 2 * 1830 / 100))
    ops = [r.seconds for _, round_ops in rounds for r in round_ops]
    assert metrics["op_s.tail"][0] == pytest.approx(np.percentile(ops, 90))
    assert 3.0 < metrics["op_s.tail"][0] < 3.6
    assert notes["op_s.tail_samples_beyond"] >= 10
    assert metrics["peak_rss_mb"][0] == 40.0
    assert metrics["ok_frac"][0] == pytest.approx(1 - 1 / 124)
    assert notes["wall.op_s.p50"] == pytest.approx(2.3)


def test_end_to_end_scales_op_times_to_the_reference_host():
    # every reference took twice REF_S: the host ran at half speed
    metrics, notes = end_to_end(0.5, [], _rounds(61, ref=2 * REF_S), 40.0, CheckBundled)
    assert metrics["op_s.p50"][0] == pytest.approx(2.3 / 2)
    assert metrics["steps_per_s"][0] == pytest.approx(2 * 61 * 7 / (61 * 4 + 2 * 1830 / 100))
    assert notes["wall.op_s.p50"] == pytest.approx(2.3)


def test_host_scaling_follows_local_reference_medians():
    assert local_medians([1, 1, 1, 9, 1, 2, 2, 2, 2], 1) == [1, 1, 1, 1, 2, 2, 2, 2, 2]
    refs = [1.0] * 40 + [2.0] * 40
    refs[20] = 9.0
    ops = [OpResult(1.0, 1, 1.0, None, ref) for ref in refs]
    scaled, used = host_scaled([(False, ops[:50]), (True, ops[50:])])
    assert [t for t, _ in scaled] == [False, True]
    seconds = [r.seconds for _, rs in scaled for r in rs]
    # a lone slow reference is outvoted; a lasting change of host speed is followed
    assert seconds[0] == seconds[20] == pytest.approx(REF_S)
    assert seconds[-1] == pytest.approx(REF_S / 2)
    assert used == local_medians(refs, HOST_WINDOW)


def test_end_to_end_fails_with_too_few_ops_beyond_the_tail():
    with pytest.raises(SystemExit):
        end_to_end(0.5, [], _rounds(40), 40.0, CheckBundled)
