"""Symbolic scalar expressions over the coordinates of a single chart.

The expression language is deliberately small: constants, coordinates,
arithmetic, and the functions sin, cos, tan, exp, log, sqrt.  Trees are
immutable and differentiation is exact and closed over the node set.  The
only rewriting ever applied to a tree is constant folding plus elimination
of additive and multiplicative neutral elements.  Compiling alone moves the
sign of a negated product onto its constant factor, -(c*a) as (-c)*a, which
is exact under round-to-nearest; the trees, their printing and their
derivatives do not change.

Evaluation goes through `compile`: the trees are hash-consed, so that
structurally equal subtrees share one slot, and the operations that share
a level and a kind run as one numpy call over a (slot, point) array, in
IEEE-754 double arithmetic.  A program evaluates every expression at a
whole stack of points in one pass; repeated runs, and a run on many points
against runs on each point alone, are bit-for-bit identical.

Grammar (whitespace insignificant)::

    expr    := operand { BINOP operand }
    operand := NUMBER | IDENT | FNAME "(" expr ")" | "(" expr ")" | "-" operand

One operator table drives both parsing and printing: "+" and "-" bind
loosest, then "*" and "/", then "^", which alone is right associative; a
leading "-" binds tighter than all of them, so "-x^2" parses as "(-x)^2".
NUMBER is an ASCII decimal literal with optional fraction and exponent;
IDENT must be one of the chart coordinate names handed to the parser.
The builders fold constants as they go, so a coordinate-free expression
is one Const, or one whose evaluation fails at every point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier


@dataclass(frozen=True, slots=True)
class Expr:
    """Base node.  Arithmetic operators build folded trees."""

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return pow_(self, _coerce(other))

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Coord(Expr):
    index: int


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Apply(Expr):
    fn: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def _coerce(v):
    return v if isinstance(v, Expr) else Const(float(v))


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a, b):
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def pow_(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return ONE
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(lambda x: _pow_by(x, float(b.value)), a.value)
        if folded is not None:
            return folded
    return Pow(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def apply(fn, arg):
    if fn not in _FUNCTION_KERNELS:
        raise ValueError(f"unknown function '{fn}'")
    if isinstance(arg, Const):
        folded = _fold(_FUNCTION_KERNELS[fn], arg.value)
        if folded is not None:
            return folded
    return Apply(fn, arg)


# --- evaluation -----------------------------------------------------------
#
# A kernel maps argument arrays to (value, checks); each check is a
# (mask, reason) pair, listed in the order the domain rules apply, and a
# point fails at the first check whose mask holds there.  Failing points
# carry meaningless values onward, never reported.

def _pow_by(base, expo):
    """base ** expo for an array of bases and one float exponent."""
    checks = []
    if expo.is_integer():
        k = int(expo)
        if k == 0:
            return np.ones_like(base), checks
        if k < 0:
            checks.append((base == 0.0, "zero base with negative exponent"))
        if abs(k) <= 64:
            # repeated multiplication keeps negative bases legal for integer powers
            value = base
            for _ in range(abs(k) - 1):
                value = value * base
            if k > 0:
                return value, checks
            checks.append((value == 0.0, "pow overflow"))
            return 1.0 / value, checks
    else:
        checks.append((base <= 0.0, "non-integer power of non-positive base"))
    value = np.power(base, expo)
    if math.isfinite(expo):
        checks.append((np.isinf(value) & np.isfinite(base), "pow overflow"))
    return value, checks


def _pow(base, expo):
    """base ** expo elementwise; the points sharing an exponent, found by one
    stable sort of the exponents, go through _pow_by.  Each domain rule keeps
    one mask, in the order _pow_by checks them: one exponent applies at a
    point, so its own order holds there."""
    bases, flat = base.ravel(), expo.ravel()
    value = np.empty_like(bases)
    masks = {reason: np.zeros(flat.shape, dtype=bool) for reason in (
        "zero base with negative exponent", "non-integer power of non-positive base",
        "pow overflow")}
    order = np.argsort(flat, kind="stable")
    exponents, starts = np.unique(flat[order], return_index=True)
    for e, at in zip(exponents, np.split(order, starts[1:])):
        value[at], part = _pow_by(bases[at], float(e))
        for bad, reason in part:
            masks[reason][at] = bad
    return value.reshape(base.shape), [(bad.reshape(base.shape), reason)
                                       for reason, bad in masks.items()]


def _trig(ufunc):
    reason = f"{ufunc.__name__} of non-finite argument"

    def kernel(x):
        return ufunc(x), [(np.isinf(x), reason)]
    return kernel


def _exp(x):
    value = np.exp(x)
    return value, [(np.isinf(value) & np.isfinite(x), "exp overflow")]


def _log(x):
    return np.log(x), [(x <= 0.0, "log of non-positive argument")]


def _sqrt(x):
    return np.sqrt(x), [(x < 0.0, "sqrt of negative argument")]


_FUNCTION_KERNELS = {"sin": _trig(np.sin), "cos": _trig(np.cos), "tan": _trig(np.tan),
                     "exp": _exp, "log": _log, "sqrt": _sqrt}
FUNCTIONS = tuple(_FUNCTION_KERNELS)


def _fold(kernel, value):
    """Const of a kernel applied to one constant, or None where a domain rule fails."""
    with np.errstate(all="ignore"):
        out, checks = kernel(np.array([float(value)]))
    if any(bad.any() for bad, _ in checks):
        return None
    return Const(float(out[0]))


def _divide(x, y):
    """A quotient and its denominator's zero check."""
    return np.divide(x, y), [(y == 0.0, "division by zero")]


# Neg, Add, Sub and Mul are ufuncs that never fail: their groups write their
# slot block in place
_KERNELS = {Neg: np.negative, Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: _divide,
            Pow: _pow}


def _negated(product):
    """(-c)*a*b for a product c*a*b whose leftmost factor is a constant c,
    else None: equal to -(c*a*b) bit for bit, up to the sign of a NaN."""
    if type(product) is not Mul:
        return None
    if type(product.left) is Const:
        return Mul(Const(-product.left.value), product.right)
    left = _negated(product.left)
    return None if left is None else Mul(left, product.right)


class Program:
    """Expressions compiled into level-grouped numpy operations.

    Built by `compile`.  Structurally equal subtrees share one slot, keyed
    by the operation and its argument slots, or a constant's value or a
    coordinate's index; a negated product c*a*b with a constant leftmost
    factor is compiled as (-c)*a*b.  One recursive walk compiles: it gives
    each new operation its level, 1 + the highest level of its arguments,
    constants and coordinates being level 0, and appends it to the group
    of its level and operation (a ufunc, a function kernel, one constant
    exponent, or `_pow` for a runtime exponent).  `_places` holds the node
    at each place of that walk where a fault may be reported: a quotient
    reports a zero denominator at the place of the first quotient over it,
    before that quotient's numerator.  A fault is reported in walk order.
    `_groups` holds, in level order, each group's (kernel, block, args,
    places), places None for a group that cannot fail; a group runs as
    one kernel call over a (slot, point) array and writes one contiguous
    block of slots: constants come first, then coordinates, then the
    groups' outputs, in level order and each group's in walk order.  A
    run with a fault marks where each slot is undefined in one more pass
    over the groups, each step ORing its arguments' marks into its slot.
    """

    def __init__(self, exprs):
        tables = exprs if isinstance(exprs, dict) else {None: exprs}
        consts, coords, places, level, groups = [], [], [], {}, {}
        keys, seen, checked, made = {}, {}, {}, []

        def visit(e):
            slot = seen.get(id(e))
            if slot is not None:
                return slot
            t, place = type(e), None
            if t is Const:
                key = ("c", float(e.value).hex())
            elif t is Coord:
                key = ("x", e.index)
            elif t is Neg:
                product = _negated(e.child)
                if product is not None:
                    made.append(product)  # alive until compile ends: `seen` is keyed on id
                    slot = seen[id(e)] = visit(product)
                    return slot
                key = (np.negative, visit(e.child))
            elif t is Apply:
                key = (_FUNCTION_KERNELS[e.fn], visit(e.arg))
            elif t is Div:
                den = visit(e.right)
                if den not in checked:
                    checked[den] = len(places)
                    places.append(e)
                place = checked[den]
                key = (_divide, visit(e.left), den)
            elif t is Pow and type(e.right) is Const:  # its kernel: _pow_by at one exponent
                key = (("^", float(e.right.value)), visit(e.left))
            elif t in _KERNELS:
                key = (_KERNELS[t], visit(e.left), visit(e.right))
            else:
                raise TypeError(f"not an expression node: {e!r}")
            slot = keys.get(key)
            if slot is None:
                slot = keys[key] = len(keys)
                if t is Const:
                    consts.append((slot, float(e.value)))
                elif t is Coord:
                    coords.append((slot, e.index))
                else:
                    if place is None:
                        place = len(places)
                        places.append(e)
                    level[slot] = 1 + max(level.get(a, 0) for a in key[1:])
                    groups.setdefault((level[slot], key[0]), []).append((slot, key[1:], place))
            seen[id(e)] = slot
            return slot

        layout, outputs = [], []
        for name, table in tables.items():
            table = np.array(table, dtype=object)
            layout.append((name, slice(len(outputs), len(outputs) + table.size), table.shape))
            outputs += [visit(e) for e in table.flat]
        del visit  # it holds itself through its closure: free the compile state now
        self.slot_count = len(keys)
        self._single = not isinstance(exprs, dict)
        self._places, self._layout = places, layout
        self._const_values = np.array([c[1] for c in consts], dtype=float)[:, None]
        self._coords = np.array([c[1] for c in coords], dtype=np.intp)
        self._coord_block = slice(len(consts), len(consts) + len(coords))
        # renumber the slots so that each group writes one block after the inputs
        schedule = sorted(groups.items(), key=lambda g: g[0][0])
        order = [c[0] for c in consts + coords] + [s[0] for _, steps in schedule for s in steps]
        renumber = np.empty(self.slot_count, dtype=np.intp)
        renumber[order] = np.arange(self.slot_count)
        self._groups, start = [], self._coord_block.stop
        for (_, op), steps in schedule:
            kernel = partial(_pow_by, expo=op[1]) if type(op) is tuple else op
            block = slice(start, start + len(steps))
            args = [renumber[list(a)] for a in zip(*(s[1] for s in steps))]
            places = None if isinstance(kernel, np.ufunc) else np.array([s[2] for s in steps])
            self._groups.append((kernel, block, args, places))
            start = block.stop
        self._outputs = renumber[np.array(outputs, dtype=np.intp)]

    def run(self, points):
        """(values, undefined, error) of one run over points (..., m): the
        values a call returns, and after a fault the error a call raises
        and where, in the values' layout, an operation in an output's cone
        fails at a point.  A clean run is (values, None, None): no mask is
        formed.
        """
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, points.shape[-1])
        vals = np.empty((self.slot_count, len(flat)))
        vals[:self._coord_block.start] = self._const_values
        vals[self._coord_block] = flat.T[self._coords]
        faults = []
        with np.errstate(all="ignore"):
            for kernel, block, args, places in self._groups:
                gathered = [vals.take(a, axis=0) for a in args]
                if places is None:
                    kernel(*gathered, out=vals[block])
                    continue
                vals[block], checks = kernel(*gathered)
                for rank, (bad, reason) in enumerate(checks):
                    if np.count_nonzero(bad):
                        faults.append((bad, block, places, rank, reason))
        values = self._unpack(vals.T.take(self._outputs, axis=-1), points)
        if not faults:
            return values, None, None
        # the lowest failing point, and there the first fault in walk order
        first = min(int(np.argmax(bad.any(axis=0))) for bad, *_ in faults)
        place, _, reason = min((places[bad[:, first]].min(), rank, reason)
                               for bad, _, places, rank, reason in faults
                               if bad[:, first].any())
        node = self._places[place]
        error = DomainError(f"{reason} in '{to_string(node)}'", node, reason)
        error.point = first
        undefined = np.zeros(vals.shape, dtype=bool)
        for bad, block, *_ in faults:
            undefined[block] |= bad
        for _, block, args, _ in self._groups:
            undefined[block] |= np.logical_or.reduce([undefined[a] for a in args])
        return values, self._unpack(undefined.T.take(self._outputs, axis=-1), points), error

    def __call__(self, points):
        """Every expression at every point of `points`, shape (..., m).

        A single tree or nested sequence gives an array (..., *shape); a
        dict gives a dict of such arrays.  Raises the DomainError that the
        lowest-index failing point (over the flattened leading axes)
        raises on its own, with `point` set to that index: `run`, then
        its error.
        """
        values, _, error = self.run(points)
        if error is not None:
            raise error
        return values

    def _unpack(self, table, points):
        """Each output's columns of one gathered table [point, output], as a
        view of shape (..., *shape); no two views overlap."""
        lead = points.shape[:-1]
        out = {name: table[:, columns].reshape(lead + shape)
               for name, columns, shape in self._layout}
        return out[None] if self._single else out


def compile(exprs):
    """Compile expressions into one batched Program.

    `exprs` is an expression, a rectangular nested sequence of them, or a
    dict of such groups; every run of the program evaluates them all at
    once over a stack of points.
    """
    return Program(exprs)


def evaluate(expr, point):
    """Value of `expr` at one point (a sequence of floats), as a float.

    A one-point run of the expression's compiled program.
    """
    return float(compile(expr)(point))


# --- differentiation ------------------------------------------------------

# Chain-rule table: fn -> (argument tree, derivative of argument) -> tree.
# Kept as a module-level dict so tests can exercise rule corruption.
FUNCTION_DERIVATIVES = {
    "sin": lambda u, du: mul(apply("cos", u), du),
    "cos": lambda u, du: neg(mul(apply("sin", u), du)),
    "tan": lambda u, du: div(du, pow_(apply("cos", u), Const(2.0))),
    "exp": lambda u, du: mul(apply("exp", u), du),
    "log": lambda u, du: div(du, u),
    "sqrt": lambda u, du: div(du, mul(Const(2.0), apply("sqrt", u))),
}


def _zero(*derivatives):
    return all(_is_const(d, 0.0) for d in derivatives)


def differentiate(e, i):
    """Exact partial derivative with respect to coordinate `i`.  A quotient,
    a runtime power or a function whose operands' derivatives are all zero
    has the derivative ZERO, not a tree that evaluates to zero."""
    t = type(e)
    if t is Const:
        return ZERO
    if t is Coord:
        return ONE if e.index == i else ZERO
    if t is Neg:
        return neg(differentiate(e.child, i))
    if t is Add:
        return add(differentiate(e.left, i), differentiate(e.right, i))
    if t is Sub:
        return sub(differentiate(e.left, i), differentiate(e.right, i))
    if t is Mul:
        return add(mul(differentiate(e.left, i), e.right),
                   mul(e.left, differentiate(e.right, i)))
    if t is Div:
        du, dv = differentiate(e.left, i), differentiate(e.right, i)
        if _zero(du, dv):
            return ZERO
        return div(sub(mul(du, e.right), mul(e.left, dv)), pow_(e.right, Const(2.0)))
    if t is Pow:
        du = differentiate(e.left, i)
        if isinstance(e.right, Const):
            n = e.right.value
            return mul(mul(Const(n), pow_(e.left, Const(n - 1.0))), du)
        dv = differentiate(e.right, i)
        if _zero(du, dv):
            return ZERO
        inner = mul(dv, apply("log", e.left))
        if not _zero(du):
            inner = add(inner, div(mul(e.right, du), e.left))
        return mul(pow_(e.left, e.right), inner)
    if t is Apply:
        du = differentiate(e.arg, i)
        return ZERO if _zero(du) else FUNCTION_DERIVATIVES[e.fn](e.arg, du)
    raise TypeError(f"not an expression node: {e!r}")


# --- printing and parsing --------------------------------------------------
#
# One table drives both: binary symbol -> (precedence, folding builder, node
# type).  Only "^" is right associative, and a leading "-" binds tighter than
# every binary operator, at precedence _UNARY.

_BINARY = {"+": (1, add, Add), "-": (1, sub, Sub), "*": (2, mul, Mul), "/": (2, div, Div),
           "^": (3, pow_, Pow)}
_SYMBOL = {node: symbol for symbol, (_, _, node) in _BINARY.items()}
_UNARY = 4


def to_string(e, names=None):
    """Render a tree so that parsing the result reproduces its evaluation."""

    def show(node, need):
        t = type(node)
        if t in _SYMBOL:
            symbol = _SYMBOL[t]
            precedence = _BINARY[symbol][0]
            op = f" {symbol} " if precedence == 1 else symbol
            text = (show(node.left, precedence + (symbol == "^")) + op
                    + show(node.right, precedence + (symbol != "^")))
            return text if precedence >= need else f"({text})"
        if t is Const:
            value = node.value
            if math.isfinite(value):
                return repr(value)
            # a folded overflow: 1e999 parses as inf, and inf - inf is nan
            return "(1e999 - 1e999)" if value != value else ("-1e999" if value < 0 else "1e999")
        if t is Coord:
            return names[node.index] if names is not None else f"x{node.index}"
        if t is Neg:
            return "-" + show(node.child, _UNARY)
        return f"{node.fn}({show(node.arg, 1)})"

    return show(e, 1)


# numbers, identifiers, operators, and any other character that is not space
_TOKEN = re.compile(r"(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _unexpected(token, expected):
    _, word, where = token
    return ExprSyntaxError(f"unexpected token {word!r}" if word else "unexpected end of input",
                           where, expected)


def _expect(tokens, symbol):
    if tokens[-1][1] != symbol:
        raise _unexpected(tokens[-1], (f"'{symbol}'",))
    tokens.pop()


def _climb(tokens, names, need):
    """The expression at the head of `tokens` (stored last first) up to the
    first binary operator that binds less tightly than `need`."""
    token = kind, word, where = tokens.pop()
    if kind == "num":
        node = Const(float(word))
    elif word in _FUNCTION_KERNELS:
        _expect(tokens, "(")
        arg = _climb(tokens, names, 1)
        _expect(tokens, ")")
        node = apply(word, arg)
    elif kind == "name":
        if word not in names:
            raise UnknownIdentifier(word, where)
        node = Coord(names.index(word))
    elif word == "(":
        node = _climb(tokens, names, 1)
        _expect(tokens, ")")
    elif word == "-":
        node = neg(_climb(tokens, names, _UNARY))
    else:
        raise _unexpected(token, ("number", "identifier", "'('", "'-'"))
    while (symbol := tokens[-1][1]) in _BINARY and _BINARY[symbol][0] >= need:
        tokens.pop()
        precedence, build, _ = _BINARY[symbol]
        node = build(node, _climb(tokens, names, precedence + (symbol != "^")))
    return node


def parse_expr(text, coord_names):
    """Parse `text` against the chart coordinate names."""
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text)]
    for kind, word, at in tokens:
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {word!r}", at)
    tokens.append(("end", "", len(text)))
    tokens.reverse()
    node = _climb(tokens, list(coord_names), 1)
    if tokens[-1][0] != "end":
        raise _unexpected(tokens[-1], ("end of input",))
    return node
