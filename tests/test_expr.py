"""Expression language: grammar, derivatives, evaluation, printing."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newcart.errors import DomainError, ExprSyntaxError, NewcartError, UnknownIdentifier
from newcart.expr import (FUNCTIONS, Const, Coord, Pow, Sub, _pow, _pow_by, add, apply,
                          compile, differentiate, div, evaluate, mul, neg, parse_expr, pow_,
                          sub, to_string)

NAMES = ("t", "x")


def ev(text, point, names=NAMES):
    return evaluate(parse_expr(text, names), point)


def test_parse_literal():
    assert parse_expr("1", NAMES) == Const(1.0)
    assert parse_expr("3.5e-2", NAMES) == Const(0.035)


def test_parse_structure():
    e = parse_expr("t^2 - x", NAMES)
    assert e == Sub(Pow(Coord(0), Const(2.0)), Coord(1))


def test_parse_eval_example():
    assert ev("sin(x)*2 + t", (1.0, 0.0)) == 1.0


@pytest.mark.parametrize("text,point,value", [
    ("1+2*3^2", (0, 0), 19.0),
    ("2^3^2", (0, 0), 512.0),          # right associative
    ("(2^3)^2", (0, 0), 64.0),
    ("6/3/2", (0, 0), 1.0),            # left associative
    ("1-2-3", (0, 0), -4.0),
    ("2*-3", (0, 0), -6.0),
    ("-2^2", (0, 0), 4.0),             # leading minus binds to the base
    ("-(2^2)", (0, 0), -4.0),
    ("--x", (0, 5.0), 5.0),
    ("cos(0)", (0, 0), 1.0),
    ("sqrt(x)", (0, 9.0), 3.0),
])
def test_precedence_and_functions(text, point, value):
    assert ev(text, point) == value


def test_coordinate_lookup():
    assert ev("x", (2.0, 7.0)) == 7.0
    assert evaluate(Coord(1), (2.0, 7.0)) == 7.0
    assert evaluate(Const(3.5), (0.0, 0.0)) == 3.5


def test_unknown_identifier_reports_position():
    with pytest.raises(UnknownIdentifier) as err:
        parse_expr("t + foo", NAMES)
    assert err.value.name == "foo"
    assert err.value.position == 4


def test_syntax_error_reports_position_and_expectation():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 + * 2", NAMES)
    assert err.value.position == 4
    assert err.value.expected
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin x", NAMES)
    with pytest.raises(ExprSyntaxError):
        parse_expr("(1 + 2", NAMES)
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 2", NAMES)


@pytest.mark.parametrize("text,point", [
    ("1/x", (0.0, 0.0)),
    ("log(x)", (0.0, -1.0)),
    ("log(x)", (0.0, 0.0)),
    ("sqrt(x)", (0.0, -1.0)),
    ("x^0.5", (0.0, -2.0)),
    ("x^-1", (0.0, 0.0)),
])
def test_domain_errors(text, point):
    with pytest.raises(DomainError):
        ev(text, point)


def test_domain_error_names_subexpression():
    with pytest.raises(DomainError) as err:
        ev("1 + 1/x", (0.0, 0.0))
    assert "1.0/x" in str(err.value)


@pytest.mark.parametrize("text,x,reason", [
    ("x^130.5/1e300", 1e10, "pow overflow"),   # non-integer exponent
    ("x^320", 10.0, "pow overflow"),           # integer exponent beyond 64
    ("x^-2", 1e-200, "pow overflow"),          # 1/0 after the product underflows
    ("exp(x)", 1000.0, "exp overflow"),
    ("sin(x*x*x*x)", 1e100, "sin of non-finite argument"),
    ("cos(x*x*x*x)", 1e100, "cos of non-finite argument"),
    ("tan(x*x*x*x)", -1e100, "tan of non-finite argument"),
])
def test_overflow_and_non_finite_arguments_are_domain_errors(text, x, reason):
    tree = parse_expr(text, ("x",))
    with pytest.raises(DomainError) as one:
        evaluate(tree, [x])
    assert one.value.reason == reason
    with pytest.raises(DomainError) as batch:
        compile(tree)(np.array([[0.5], [x], [2.0]]))
    assert batch.value.point == 1
    assert (batch.value.reason, str(batch.value)) == (reason, str(one.value))


def test_batch_error_is_the_lowest_failing_points_error():
    tree = parse_expr("log(x) + 1/t", NAMES)
    # point 1 fails first in program order (log), point 0 only later (division)
    pts = np.array([[0.0, 2.0], [1.0, -1.0]])
    with pytest.raises(DomainError) as one:
        evaluate(tree, pts[0])
    with pytest.raises(DomainError) as batch:
        compile(tree)(pts)
    assert batch.value.point == 0
    assert batch.value.reason == one.value.reason == "division by zero"
    assert str(batch.value) == str(one.value) == "division by zero in '1.0/x0'"
    assert batch.value.subexpression == one.value.subexpression


def test_batch_error_names_the_lower_of_two_points_failing_in_one_node():
    with pytest.raises(DomainError) as one:
        ev("log(x)", (0.0, -1.0))
    with pytest.raises(DomainError) as batch:
        compile(parse_expr("log(x)", NAMES))(np.array([[0.0, 1.0], [0.0, -1.0], [0.0, -2.0]]))
    assert batch.value.point == 1
    assert str(batch.value) == str(one.value)


def test_fault_order_is_walk_order_not_level_order():
    # sqrt(x - 3) fails at a lower level than log(x*x - 1), but the walk
    # reaches the log first, at every point where both fail
    program = compile(parse_expr("log(x*x - 1) + sqrt(x - 3)", ["x"]))
    for stack, point in (([0.5], 0), ([[4.0], [0.5], [0.2]], 1)):
        with pytest.raises(DomainError) as err:
            program(np.array(stack))
        assert (err.value.reason, err.value.point) == ("log of non-positive argument", point)


def test_denominator_is_checked_before_the_numerator():
    # as in a recursive walk: 1/t fails before log(x) is reached
    with pytest.raises(DomainError) as err:
        ev("log(x)/t", (0.0, -1.0))
    assert err.value.reason == "division by zero"


def test_integer_powers_of_negative_base():
    assert ev("x^3", (0.0, -2.0)) == -8.0
    assert ev("x^2", (0.0, -2.0)) == 4.0
    assert ev("x^0", (0.0, 0.0)) == 1.0
    assert ev("x^-2", (0.0, -2.0)) == 0.25


def test_a_runtime_power_keeps_one_mask_per_domain_rule():
    # a mask per exponent would hold 4000 x 4000 booleans here (16 MB)
    program = compile(parse_expr("x^t", NAMES))
    points = np.column_stack([np.linspace(-3.0, 3.0, 4000), np.full(4000, 1.5)])
    program.run(points)
    tracemalloc.start()
    try:
        program.run(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_runtime_power_is_the_per_point_power_bit_for_bit(seed):
    # exponents grouped by one sort: NaN, signed zeros, integers, repeats and
    # zero bases included; each point must read as _pow_by at its own exponent
    rng = np.random.default_rng(seed)
    expo = rng.choice([np.nan, 0.0, -0.0, 1.0, 2.0, -1.0, -3.0, 0.5, 70.0, np.inf], (3, 40))
    expo[1] = rng.uniform(-4.0, 4.0, 40)
    base = rng.choice([0.0, -0.0, -2.0, 0.5, 3.0, 1e200, np.nan, -np.inf], (3, 40))
    with np.errstate(all="ignore"):
        value, checks = _pow(base, expo)
        for k, (b, e) in enumerate(zip(base.ravel(), expo.ravel())):
            want, part = _pow_by(np.array([b]), float(e))
            assert value.ravel()[k].tobytes() == want.tobytes()
            held = {reason: bool(bad[0]) for bad, reason in part}
            assert [bool(bad.ravel()[k]) for bad, _ in checks] == [
                held.get(reason, False) for _, reason in checks]
    program = compile(parse_expr("x^t", NAMES))
    _, _, err = program.run(np.column_stack([expo.ravel(), base.ravel()]))
    with np.errstate(all="ignore"):
        first = next((k, reason) for k, (b, e) in enumerate(zip(base.ravel(), expo.ravel()))
                     for bad, reason in _pow_by(np.array([b]), float(e))[1] if bad[0])
    assert (err.point, err.reason) == first


def test_a_zero_base_with_a_negative_runtime_exponent_is_named_before_overflow():
    # at x = 0 the product x*x is 0 too, so the overflow rule also holds there
    program = compile(parse_expr("x^t", NAMES))
    for stack, point in (([[-2.0, 0.0]], 0), ([[0.5, 1.0], [-2.0, 0.0], [-0.5, -1.0]], 1)):
        with pytest.raises(DomainError) as err:
            program(np.array(stack))
        assert (err.value.reason, err.value.point) == ("zero base with negative exponent", point)


def test_differentiate_constant_is_zero_node():
    assert differentiate(Const(5.0), 0) == Const(0.0)
    assert differentiate(parse_expr("3*4", NAMES), 1) == Const(0.0)


@pytest.mark.parametrize("text", ["sqrt(x)", "log(x)", "1/x", "x^x", "sin(x)/x", "cos(x)"])
def test_a_derivative_whose_operands_do_not_vary_is_zero(text):
    # not a quotient over a zero numerator, which is undefined where x = 0
    d = differentiate(parse_expr(text, NAMES), 0)
    assert d == Const(0.0) and to_string(d) == "0.0"


def test_differentiate_power_rule():
    d = differentiate(parse_expr("t^2 - x", NAMES), 0)
    for tv in (0.0, 0.5, -1.2):
        assert evaluate(d, (tv, 3.0)) == 2.0 * tv


def test_differentiate_sin_example_against_fd():
    e = parse_expr("sin(x)*2", NAMES)
    d = differentiate(e, 1)
    assert evaluate(d, (0.0, 0.0)) == 2.0
    h = 1e-5
    fd = (evaluate(e, (0.0, h)) - evaluate(e, (0.0, -h))) / (2 * h)
    assert abs(evaluate(d, (0.0, 0.0)) - fd) <= 1e-6 * max(1.0, abs(fd))


def _random_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(float(rng.uniform(-2.0, 2.0)))
        return Coord(int(rng.integers(0, len(names))))
    pick = rng.random()
    if pick < 0.22:
        return _random_tree(rng, names, depth - 1) + _random_tree(rng, names, depth - 1)
    if pick < 0.44:
        return _random_tree(rng, names, depth - 1) - _random_tree(rng, names, depth - 1)
    if pick < 0.66:
        return mul(_random_tree(rng, names, depth - 1), _random_tree(rng, names, depth - 1))
    if pick < 0.76:
        # keep denominators away from zero
        den = apply("exp", mul(Const(0.1), apply("sin", _random_tree(rng, names, depth - 1))))
        return _random_tree(rng, names, depth - 1) / den
    if pick < 0.84:
        return -_random_tree(rng, names, depth - 1)
    if pick < 0.92:
        return apply("sin", _random_tree(rng, names, depth - 1))
    return apply("cos", _random_tree(rng, names, depth - 1))


# constants folded past the float range: inf, -inf and nan
OVERFLOWS = ("1e308*10", "-1e308*10", "x - 1e308*10", "1e308*10 - 1e308*10",
             "t*(1e308*10 - 1e308*10) + sin(x)", "x^2/(-1e308*10)")


def test_print_parse_roundtrip_evaluates_identically():
    rng = np.random.Generator(np.random.PCG64(42))
    trees = [_random_tree(rng, NAMES, 4) for _ in range(60)]
    for tree in trees + [parse_expr(text, NAMES) for text in OVERFLOWS]:
        text = to_string(tree, NAMES)
        back = parse_expr(text, NAMES)
        for _ in range(100 // 60 + 2):
            p = rng.uniform(-2.0, 2.0, size=2)
            assert np.array_equal(evaluate(tree, p), evaluate(back, p), equal_nan=True), text


def test_derivative_linearity():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(25):
        e1 = _random_tree(rng, NAMES, 3)
        e2 = _random_tree(rng, NAMES, 3)
        a = float(rng.uniform(-2.0, 2.0))
        combo = mul(Const(a), e1) + e2
        for i in range(2):
            dc = differentiate(combo, i)
            d1 = differentiate(e1, i)
            d2 = differentiate(e2, i)
            p = rng.uniform(-1.5, 1.5, size=2)
            lhs = evaluate(dc, p)
            rhs = a * evaluate(d1, p) + evaluate(d2, p)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_derivative_matches_fd_on_random_trees():
    rng = np.random.Generator(np.random.PCG64(11))
    h = 1e-5
    for _ in range(30):
        tree = _random_tree(rng, NAMES, 4)
        for i in range(2):
            d = differentiate(tree, i)
            p = rng.uniform(-1.0, 1.0, size=2)
            hi = p.copy(); hi[i] += h
            lo = p.copy(); lo[i] -= h
            fd = (evaluate(tree, hi) - evaluate(tree, lo)) / (2 * h)
            assert abs(evaluate(d, p) - fd) <= max(1e-6, 1e-6 * abs(fd)) * 10


def test_evaluation_is_deterministic():
    rng = np.random.Generator(np.random.PCG64(13))
    tree = _random_tree(rng, NAMES, 5)
    program = compile(tree)
    points = rng.uniform(-1.5, 1.5, size=(20, 2))
    first = program(points)
    assert program(points).tobytes() == first.tobytes()
    assert compile(tree)(points).tobytes() == first.tobytes()
    assert evaluate(tree, points[7]) == first[7]


def test_program_shares_subtrees_safely():
    e1 = parse_expr("sin(x) + t", NAMES)
    e2 = parse_expr("sin(x) * 2", NAMES)
    p = (0.5, 0.25)
    program = compile([e1, e2])
    # x, t, 2, sin(x), the sum and the product: sin(x) is one slot
    assert program.slot_count == 6
    both = program(p)
    assert both[0] == evaluate(e1, p)
    assert both[1] == evaluate(e2, p)


def test_writing_one_output_leaves_the_others_unchanged():
    # "same" lists slots that "table" holds too, and 1/x fails at x = 0
    t, x = (parse_expr(name, NAMES) for name in NAMES)
    groups = {"table": [[t, x], [t * x, parse_expr("1/x", NAMES)]], "same": [x, t],
              "one": t + x}
    program = compile(groups)
    points = np.array([[0.5, 0.25], [1.0, 0.0], [-2.0, 3.0]])
    for written in groups:
        values, undefined, error = program.run(points)
        assert error is not None
        for outputs in (values, undefined):
            kept = {name: out.copy() for name, out in outputs.items()}
            outputs[written][...] = np.ones_like(outputs[written])
            for name, out in outputs.items():
                assert name == written or out.tobytes() == kept[name].tobytes()


def folded(children):
    """Trees as the parser builds them, through the folding constructors."""
    return st.one_of(
        st.builds(neg, children),
        st.builds(add, children, children), st.builds(sub, children, children),
        st.builds(mul, children, children), st.builds(div, children, children),
        st.builds(pow_, children, children),
        st.builds(apply, st.sampled_from(FUNCTIONS), children))


CONSTANTS = st.builds(Const, st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
                                       st.floats()))


@settings(max_examples=500, deadline=None)
@given(st.recursive(CONSTANTS, folded, max_leaves=12))
def test_coordinate_free_trees_fold_or_fail_everywhere(tree):
    if type(tree) is Const:
        return
    points = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 2))
    _, undefined, error = compile(tree).run(points)
    assert error is not None and undefined.all()


@pytest.mark.parametrize("text,error,position", [
    ("\u0661", ExprSyntaxError, 0),      # an Arabic-Indic one is not a number
    ("x + \u0661", ExprSyntaxError, 4),
    ("1\u00b2", ExprSyntaxError, 1),     # 1 followed by a superscript two
    ("\u00b2", UnknownIdentifier, 0),
])
def test_numbers_are_ascii_decimal_literals(text, error, position):
    with pytest.raises(error) as err:
        parse_expr(text, NAMES)
    assert err.value.position == position


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_any_text_parses_or_raises_a_package_error(text):
    try:
        parse_expr(text, NAMES)
    except NewcartError:
        pass


def test_differentiate_general_power():
    e = parse_expr("x^t", NAMES)
    d = differentiate(e, 1)  # t * x^(t-1)
    assert abs(evaluate(d, (3.0, 2.0)) - 3.0 * 4.0) < 1e-12
    dt = differentiate(e, 0)  # x^t log x
    assert abs(evaluate(dt, (3.0, 2.0)) - 8.0 * math.log(2.0)) < 1e-12


def test_a_runtime_power_whose_base_does_not_vary_has_no_quotient_term():
    # d/dt x^t is x^t*log(x): no 0.0/x slot, and log(x) still names the fault
    d = differentiate(parse_expr("x^t", NAMES), 0)
    assert to_string(d, NAMES) == "x^t*log(x)"
    for point in ((2.0, 0.0), (2.0, -1.0)):
        _, _, err = compile(d).run(np.array([point]))
        assert str(err) == "log of non-positive argument in 'log(x1)'"
