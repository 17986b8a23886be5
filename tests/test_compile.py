"""Compiled batched programs against a recursive reference evaluator."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newcart.errors import DomainError
from newcart.expr import (FUNCTIONS, Add, Apply, Const, Coord, Div, Mul, Neg,
                          Pow, Sub, add, apply, compile, div, mul, neg,
                          parse_expr, pow_, sub, to_string)

NAMES = ("t", "x")
MATH = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
        "log": math.log, "sqrt": math.sqrt}
# numpy's exp/log/tan/pow may differ from math's by an ulp; every other
# operation is correctly rounded in both and must agree exactly
ULP_TOL = {"rtol": 1e-12, "atol": 0.0}


class RefDomainError(Exception):
    def __init__(self, reason, node):
        super().__init__(reason)
        self.reason = reason
        self.node = node


def _math_pow(base, expo, node):
    try:
        return math.pow(base, expo)
    except OverflowError:
        raise RefDomainError("pow overflow", node) from None


def reference(e, p):
    """Recursive scalar evaluation with the domain rules, in walk order."""
    t = type(e)
    if t is Const:
        return float(e.value)
    if t is Coord:
        return float(p[e.index])
    if t is Neg:
        return -reference(e.child, p)
    if t is Add:
        return reference(e.left, p) + reference(e.right, p)
    if t is Sub:
        return reference(e.left, p) - reference(e.right, p)
    if t is Mul:
        return reference(e.left, p) * reference(e.right, p)
    if t is Div:
        den = reference(e.right, p)
        if den == 0.0:
            raise RefDomainError("division by zero", e)
        return reference(e.left, p) / den
    if t is Pow:
        base, expo = reference(e.left, p), reference(e.right, p)
        if expo.is_integer():
            k = int(expo)
            if k == 0:
                return 1.0
            if base == 0.0 and k < 0:
                raise RefDomainError("zero base with negative exponent", e)
            if abs(k) > 64:
                return _math_pow(base, k, e)
            acc = 1.0
            for _ in range(abs(k)):
                acc *= base
            if k > 0:
                return acc
            if acc == 0.0:
                raise RefDomainError("pow overflow", e)
            return 1.0 / acc
        if base <= 0.0:
            raise RefDomainError("non-integer power of non-positive base", e)
        return _math_pow(base, expo, e)
    x = reference(e.arg, p)
    if e.fn == "log" and x <= 0.0:
        raise RefDomainError("log of non-positive argument", e)
    if e.fn == "sqrt" and x < 0.0:
        raise RefDomainError("sqrt of negative argument", e)
    try:
        return MATH[e.fn](x)
    except OverflowError:
        raise RefDomainError(f"{e.fn} overflow", e) from None
    except ValueError:
        raise RefDomainError(f"{e.fn} of non-finite argument", e) from None


def outcome(run):
    """('ok', value) or ('error', reason, subexpression text)."""
    try:
        return ("ok", run())
    except (DomainError, RefDomainError) as err:
        node = err.subexpression if isinstance(err, DomainError) else err.node
        return ("error", err.reason, to_string(node, NAMES))


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


coordinates = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -1.0, 1.0, 2.0, -0.5])
points = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.tuples(coordinates, coordinates), min_size=n, max_size=n))
leaves = st.builds(Const, st.floats(-3.0, 3.0)) | st.builds(Coord, st.integers(0, 1))


def exact_tree(children):
    """+ - * /, negation, sqrt and powers by repeated multiplication."""
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children), st.builds(Sub, children, children),
        st.builds(Mul, children, children), st.builds(Div, children, children),
        st.builds(Pow, children, st.builds(Const, st.integers(-64, 64).map(float))),
        st.builds(Apply, st.just("sqrt"), children))


def any_tree(children):
    """Every node type, runtime exponents and every function included."""
    return st.one_of(
        exact_tree(children),
        st.builds(Pow, children, st.builds(Const, st.integers(-80, 80).map(float))),
        st.builds(Pow, children, children),
        st.builds(Apply, st.sampled_from(FUNCTIONS), children))


def check_batch_against_rows(program, pts):
    """A run on every point equals the runs on each point alone, bitwise;
    a failing batch raises the error of its lowest-index failing point."""
    rows = [outcome(lambda q=q: program(q)) for q in pts]
    failing = [k for k, r in enumerate(rows) if r[0] == "error"]
    try:
        batch = program(pts)
    except DomainError as err:
        assert failing and err.point == failing[0]
        assert ("error", err.reason, to_string(err.subexpression, NAMES)) == rows[failing[0]]
        return rows
    assert not failing
    assert all(same_bits(batch[k], row[1]) for k, row in enumerate(rows))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.recursive(leaves, exact_tree, max_leaves=12), points)
def test_exact_program_matches_reference_bitwise(tree, pts):
    rows = check_batch_against_rows(compile(tree), np.array(pts))
    for q, row in zip(pts, rows):
        want = outcome(lambda q=q: reference(tree, q))
        if row[0] == "ok" and want[0] == "ok":
            assert same_bits(row[1], want[1]) or (math.isnan(row[1]) and math.isnan(want[1]))
        else:
            assert row == want


def _subtrees(e):
    yield e
    for child in _children(e):
        yield from _subtrees(child)


def _children(e):
    t = type(e)
    if t in (Const, Coord):
        return ()
    if t is Neg:
        return (e.child,)
    if t is Apply:
        return (e.arg,)
    return (e.left, e.right)


def _with_children(e, values):
    """The node applied to constant children."""
    kids = [Const(v) for v in values]
    t = type(e)
    if t is Neg:
        return Neg(*kids)
    if t is Apply:
        return Apply(e.fn, *kids)
    return t(*kids)


def _ulp_sensitive(e, child_values):
    if type(e) is Apply:
        return e.fn not in ("sqrt",)
    if type(e) is Pow:
        expo = child_values[1]
        return not (expo.is_integer() and abs(expo) <= 64)
    return False


@settings(max_examples=300, deadline=None)
@given(st.recursive(leaves, any_tree, max_leaves=10), points)
def test_every_node_matches_reference_operation(tree, pts):
    pts = np.array(pts)
    check_batch_against_rows(compile(tree), pts)
    for node in _subtrees(tree):
        kids = _children(node)
        if not kids:
            continue
        program = compile([node, *kids])
        for q in pts:
            try:
                value, *child_values = program(q)
            except DomainError:
                continue
            want = outcome(lambda: reference(_with_children(node, child_values), q))
            if want[0] == "error":
                # an overflow boundary an ulp away
                assert _ulp_sensitive(node, child_values)
                continue
            if _ulp_sensitive(node, child_values):
                np.testing.assert_allclose(value, want[1], **ULP_TOL)
            else:
                assert same_bits(value, want[1]) or (math.isnan(value) and math.isnan(want[1]))


def folded_tree(children):
    """Trees as the parser builds them, through the folding constructors."""
    return st.one_of(
        st.builds(neg, children),
        st.builds(add, children, children), st.builds(sub, children, children),
        st.builds(mul, children, children), st.builds(div, children, children),
        st.builds(pow_, children, st.builds(Const, st.sampled_from([2.0, 3.0, -1.0, 0.5]))),
        st.builds(apply, st.sampled_from(FUNCTIONS), children))


@settings(max_examples=300, deadline=None)
@given(st.recursive(leaves, folded_tree, max_leaves=10), points)
def test_print_parse_roundtrip_on_random_trees(tree, pts):
    text = to_string(tree, NAMES)
    assume("inf" not in text and "nan" not in text)
    back = parse_expr(text, NAMES)
    pts = np.array(pts)
    for q in pts:
        first = outcome(lambda q=q: compile(tree)(q))
        second = outcome(lambda q=q: compile(back)(q))
        assert first[0] == second[0]
        if first[0] == "ok":
            assert same_bits(first[1], second[1])
        else:
            assert first[1] == second[1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.recursive(leaves, any_tree, max_leaves=8), min_size=1, max_size=3),
       points)
def test_run_marks_where_each_tree_alone_fails(trees, pts):
    # the first tree's subtrees share its slots: a denominator is an output too
    trees = trees + list(_subtrees(trees[0]))[1:]
    pts = np.array(pts)
    program = compile(trees)
    values, undefined, error = program.run(pts)
    assert values.shape == (len(pts), len(trees))
    # a clean run has no masks; after a fault they have the values' layout
    assert (undefined is None) == (error is None)
    if error is not None:
        assert undefined.shape == values.shape
    for k, tree in enumerate(trees):
        alone = compile(tree)
        for q, p in enumerate(pts):
            try:
                value = alone(p)
            except DomainError:
                assert undefined is not None and undefined[q, k]
                continue
            assert undefined is None or not undefined[q, k]
            assert same_bits(values[q, k], value)
    try:
        program(pts)
    except DomainError as err:
        assert error is not None and undefined.any()
        assert (str(error), error.point, error.subexpression, error.reason) == (
            str(err), err.point, err.subexpression, err.reason)
    else:
        assert error is None


def test_quotients_over_one_denominator_fail_where_the_first_one_is_reached():
    # a zero denominator is reported at the first quotient over it, before
    # that quotient's numerator, and marks every quotient over it
    a, b = parse_expr("1/t", NAMES), parse_expr("log(x)/t", NAMES)
    program = compile({"a": a, "b": b, "c": Coord(1)})
    for stack, point, marked in (([0.0, -1.0], 0, True),
                                 ([[1.0, 2.0], [0.0, -1.0], [0.0, 3.0]], 1, [False, True, True])):
        _, undefined, error = program.run(np.array(stack))
        assert (error.reason, error.point, error.subexpression) == ("division by zero", point, a)
        assert str(error) == "division by zero in '1.0/x0'"
        assert undefined["a"].tobytes() == undefined["b"].tobytes() == np.array(marked).tobytes()
        assert not undefined["c"].any()
    # with the log's quotient first, its denominator still comes before its numerator
    _, _, error = compile({"b": b, "a": a}).run(np.array([0.0, -1.0]))
    assert (error.reason, error.subexpression) == ("division by zero", b)


SIGNED = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.5, -0.7]


def test_negated_products_match_negated_values_bitwise():
    # -(c*x*y) is compiled as (-c)*x*y: the same bits, but for a NaN's sign
    t, x = Coord(0), Coord(1)
    for c in (3.0, -0.3, 0.0, -0.0, 1e-300):
        product = Mul(Mul(Const(c), t), x)
        pts = np.array([(u, v) for u in SIGNED for v in SIGNED])
        with np.errstate(all="ignore"):
            want = np.negative(c * pts[:, 0] * pts[:, 1])
        got = compile(Neg(product))(pts)
        # one group holds both c*x and -(c*x), and c*x*y beside its negation
        table = compile([Mul(Const(c), x), Neg(Mul(Const(c), x)), product, Neg(product)])(pts)
        for values, reference in ((got, want), (table[:, 1], np.negative(table[:, 0])),
                                  (table[:, 3], np.negative(table[:, 2]))):
            nan = np.isnan(reference)
            assert (np.isnan(values) == nan).all()
            assert values[~nan].tobytes() == reference[~nan].tobytes()


def test_many_negated_products_compile_each_to_its_own_slot():
    # every folded product is a new node, found here in the slot of the
    # product listed before it: a recycled id must not reach a wrong slot
    x = Coord(1)
    terms = ([Mul(Const(-(k + 0.1)), x) for k in range(200)]
             + [Neg(Mul(Const(k + 0.1), x)) for k in range(200)])
    pts = np.array([[0.0, 0.3], [1.0, -7.0]])
    values = compile(terms)(pts)
    for k, term in enumerate(terms):
        assert values[:, k].tobytes() == compile(term)(pts).tobytes()


def test_programs_without_outputs_return_empty_values():
    pts = np.zeros((4, 3, 2))
    assert compile([])(pts).shape == (4, 3, 0)
    assert compile({})(pts) == {}
    values = compile({"none": [[], []], "one": Coord(0)})(pts)
    assert values["none"].shape == (4, 3, 2, 0) and values["one"].shape == (4, 3)


def test_runtime_powers_at_one_level_share_a_group():
    # x^t and t^x are both level 1: one _pow call over both rows, which keeps
    # each one's values and masks, and names the lowest point's first fault
    a, b = parse_expr("x^t", NAMES), parse_expr("t^x", NAMES)
    program = compile([a, b])
    assert len(program._groups) == 1
    for stack in ([[0.5, 2.0], [-2.0, 0.0], [0.0, -1.5]], [[0.0, -1.5], [-2.0, 0.0]],
                  [[-2.0, 0.5], [3.0, -2.0]], [[1.0, 1.0], [-0.5, -0.5]], [[1.5, 2.0]]):
        pts = np.array(stack)
        values, undefined, error = program.run(pts)
        faults = []
        for k, tree in enumerate((a, b)):
            want, marks, err = compile(tree).run(pts)
            assert values[:, k].tobytes() == want.tobytes()
            if marks is None:
                assert undefined is None or not undefined[:, k].any()
            else:
                assert undefined[:, k].tobytes() == marks.tobytes()
                faults.append((err.point, k, str(err), err.subexpression))
        assert (error is None) == (faults == [])
        if faults:
            point, _, text, node = min(faults)
            assert (error.point, str(error), error.subexpression) == (point, text, node)
