"""Symbolic scalar expressions over the coordinates of a single chart.

The expression language is deliberately small: constants, coordinates,
arithmetic, and the functions sin, cos, tan, exp, log, sqrt.  Trees are
immutable and differentiation is exact and closed over the node set.  The
only rewriting ever applied is constant folding plus elimination of
additive and multiplicative neutral elements.

Evaluation goes through `compile`: the trees are hash-consed, so that
structurally equal subtrees share one slot, and laid out as one
straight-line list of numpy steps in IEEE-754 double arithmetic.  A
program evaluates every expression at a whole stack of points in one
pass; repeated runs, and a run on many points against runs on each point
alone, are bit-for-bit identical.

Grammar (whitespace insignificant)::

    expr   := term { ("+" | "-") term }
    term   := factor { ("*" | "/") factor }
    factor := base [ "^" factor ]
    base   := NUMBER | IDENT | FNAME "(" expr ")" | "(" expr ")" | "-" base

"^" is right associative, and a leading "-" belongs to the base it
precedes, so "-x^2" parses as "(-x)^2".  NUMBER is a decimal literal
with optional fraction and exponent; IDENT must be one of the chart
coordinate names handed to the parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")


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


def const(v):
    return Const(float(v))


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


def sum_exprs(terms):
    acc = ZERO
    for t in terms:
        acc = add(acc, t)
    return acc


def is_constant(e):
    """True when the tree contains no coordinate node."""
    t = type(e)
    if t is Const:
        return True
    if t is Coord:
        return False
    if t is Neg:
        return is_constant(e.child)
    if t is Apply:
        return is_constant(e.arg)
    return is_constant(e.left) and is_constant(e.right)


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
    """base ** expo elementwise; the points sharing an exponent go through _pow_by."""
    value = np.empty_like(base)
    checks = []
    for e in np.unique(expo):
        at = expo == e if e == e else np.isnan(expo)
        value[at], part = _pow_by(base[at], float(e))
        for bad, reason in part:
            full = np.zeros_like(at)
            full[at] = bad
            checks.append((full, reason))
    return value, checks


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


def _fold(kernel, value):
    """Const of a kernel applied to one constant, or None where a domain rule fails."""
    with np.errstate(all="ignore"):
        out, checks = kernel(np.array([float(value)]))
    if any(bad.any() for bad, _ in checks):
        return None
    return Const(float(out[0]))


def _unary(ufunc, out, a):
    def step(vals, faults):
        vals[out] = ufunc(vals[a])
    return step


def _binary(ufunc, out, a, b):
    def step(vals, faults):
        vals[out] = ufunc(vals[a], vals[b])
    return step


def _nonzero(node, a):
    def step(vals, faults):
        bad = vals[a] == 0.0
        if bad.any():
            faults.append((bad, node, "division by zero"))
    return step


def _checked(kernel, node, out, args):
    def step(vals, faults):
        vals[out], checks = kernel(*[vals[a] for a in args])
        for bad, reason in checks:
            if bad.any():
                faults.append((bad, node, reason))
    return step


_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}


class Program:
    """Expressions compiled into one straight-line list of numpy steps.

    Built by `compile`.  Structurally equal subtrees share one slot, keyed
    by node type and value or child slots; steps run in the order a
    recursive walk would first reach each node (a quotient's denominator,
    and its zero check, before its numerator).
    """

    def __init__(self, exprs):
        groups = exprs if isinstance(exprs, dict) else {None: exprs}
        self._consts, self._coords, self._steps = [], [], []
        keys, seen, checked, nonzero_consts = {}, {}, set(), set()

        def visit(e):
            slot = seen.get(id(e))
            if slot is not None:
                return slot
            t = type(e)
            if t is Const:
                key = ("c", float(e.value).hex())
            elif t is Coord:
                key = ("x", e.index)
            elif t is Neg:
                key = ("neg", visit(e.child))
            elif t is Apply:
                key = (e.fn, visit(e.arg))
            elif t is Div:
                den = visit(e.right)
                if den not in checked and den not in nonzero_consts:
                    checked.add(den)
                    self._steps.append(_nonzero(e, den))
                key = ("/", visit(e.left), den)
            elif t is Pow and type(e.right) is Const:
                key = ("^", float(e.right.value), visit(e.left))
            elif t in _BINARY or t is Pow:
                key = (t, visit(e.left), visit(e.right))
            else:
                raise TypeError(f"not an expression node: {e!r}")
            slot = keys.get(key)
            if slot is None:
                slot = keys[key] = len(keys)
                self._emit(t, e, key, slot)
                if t is Const and e.value != 0.0:
                    nonzero_consts.add(slot)
            seen[id(e)] = slot
            return slot

        self._layout, self._outputs, self._ends = [], [], {}
        for name, group in groups.items():
            table = np.array(group, dtype=object)
            self._layout.append((name, len(self._outputs), table.shape))
            self._outputs += [visit(e) for e in table.flat]
            self._ends[name] = (len(self._steps), len(self._outputs))
        self._ends[None] = (len(self._steps), len(self._outputs))  # everything
        del visit  # it holds itself through its closure: free the compile state now
        self._const_values = np.array([v for _, v in self._consts], dtype=float)
        self.slot_count = len(keys)
        self._single = not isinstance(exprs, dict)

    def _emit(self, t, node, key, out):
        if t is Const:
            self._consts.append((out, float(node.value)))
        elif t is Coord:
            self._coords.append((out, node.index))
        elif t is Neg:
            self._steps.append(_unary(np.negative, out, key[1]))
        elif t is Apply:
            self._steps.append(_checked(_FUNCTION_KERNELS[node.fn], node, out, key[1:]))
        elif t is Pow and key[0] == "^":
            expo = key[1]
            self._steps.append(_checked(lambda x: _pow_by(x, expo), node, out, key[2:]))
        elif t is Pow:
            self._steps.append(_checked(_pow, node, out, key[1:]))
        else:
            self._steps.append(_binary(_BINARY[t], out, *key[1:]))

    def __call__(self, points, until=None):
        """Every expression at every point of `points`, shape (..., m).

        A single tree or nested sequence gives an array (..., *shape); a
        dict gives a dict of such arrays.  With `until`, a group name of
        a dict, only the groups up to and including it are evaluated.
        Raises the DomainError that the lowest-index failing point (over
        the flattened leading axes) raises on its own, with `point` set to
        that index.
        """
        points = np.asarray(points, dtype=float)
        lead = points.shape[:-1]
        flat = points.reshape(-1, points.shape[-1])
        count = len(flat)
        vals = [None] * self.slot_count
        rows = np.repeat(self._const_values[:, None], count, axis=1)
        for (slot, _), row in zip(self._consts, rows):
            vals[slot] = row
        columns = np.ascontiguousarray(flat.T)
        for slot, index in self._coords:
            vals[slot] = columns[index]
        faults = []
        steps_end, outputs_end = self._ends[until]
        with np.errstate(all="ignore"):
            for step in self._steps[:steps_end]:
                step(vals, faults)
        if faults:
            first = min(int(np.argmax(bad)) for bad, _, _ in faults)
            _, node, reason = next(f for f in faults if f[0][first])
            err = DomainError(f"{reason} in '{to_string(node)}'", node, reason)
            err.point = first
            raise err
        table = np.array([vals[s] for s in self._outputs[:outputs_end]]).reshape(
            outputs_end, count)
        out = {}
        for name, start, shape in self._layout:
            out[name] = table[start:start + math.prod(shape)].T.reshape(lead + shape)
            if name == until:
                break
        return out[None] if self._single else out


def compile(exprs):
    """Compile expressions into one batched Program.

    `exprs` is an expression, a rectangular nested sequence of them, or a
    dict of such groups; the program evaluates them all at once over a
    stack of points.
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


def differentiate(e, i):
    """Exact partial derivative with respect to coordinate `i`."""
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
        num = sub(mul(differentiate(e.left, i), e.right),
                  mul(e.left, differentiate(e.right, i)))
        return div(num, pow_(e.right, Const(2.0)))
    if t is Pow:
        du = differentiate(e.left, i)
        if isinstance(e.right, Const):
            n = e.right.value
            return mul(mul(Const(n), pow_(e.left, Const(n - 1.0))), du)
        dv = differentiate(e.right, i)
        inner = add(mul(dv, apply("log", e.left)), div(mul(e.right, du), e.left))
        return mul(pow_(e.left, e.right), inner)
    if t is Apply:
        return FUNCTION_DERIVATIVES[e.fn](e.arg, differentiate(e.arg, i))
    raise TypeError(f"not an expression node: {e!r}")


# --- printing -------------------------------------------------------------

def to_string(e, names=None):
    """Render a tree so that parsing the result reproduces its evaluation."""

    def cname(i):
        return names[i] if names is not None else f"x{i}"

    def s_expr(node):
        t = type(node)
        if t is Add:
            return f"{s_expr(node.left)} + {s_term(node.right)}"
        if t is Sub:
            return f"{s_expr(node.left)} - {s_term(node.right)}"
        return s_term(node)

    def s_term(node):
        t = type(node)
        if t is Mul:
            return f"{s_term(node.left)}*{s_factor(node.right)}"
        if t is Div:
            return f"{s_term(node.left)}/{s_factor(node.right)}"
        return s_factor(node)

    def s_factor(node):
        if type(node) is Pow:
            return f"{s_base(node.left)}^{s_factor(node.right)}"
        return s_base(node)

    def s_base(node):
        t = type(node)
        if t is Const:
            return repr(node.value)
        if t is Coord:
            return cname(node.index)
        if t is Neg:
            return "-" + s_base(node.child)
        if t is Apply:
            return f"{node.fn}({s_expr(node.arg)})"
        return "(" + s_expr(node) + ")"

    return s_expr(e)


# --- parsing --------------------------------------------------------------

_OPERATORS = "+-*/^()"


def _tokenize(text):
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < size and text[i].isdigit():
                i += 1
            if i < size and text[i] == ".":
                i += 1
                while i < size and text[i].isdigit():
                    i += 1
            if i < size and text[i] in "eE":
                j = i + 1
                if j < size and text[j] in "+-":
                    j += 1
                if j < size and text[j].isdigit():
                    i = j
                    while i < size and text[i].isdigit():
                        i += 1
            tokens.append(("num", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    def __init__(self, tokens, coord_names):
        self.tokens = tokens
        self.pos = 0
        self.coord_names = list(coord_names)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, text, pos = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input",
                              pos, expected=(f"'{symbol}'",))

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", pos,
                                  expected=("end of input",))
        return e

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = add(node, rhs) if text == "+" else sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = mul(node, rhs) if text == "*" else div(node, rhs)
            else:
                return node

    def factor(self):
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return pow_(node, self.factor())
        return node

    def base(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCTION_KERNELS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return apply(text, arg)
            if text in self.coord_names:
                return Coord(self.coord_names.index(text))
            raise UnknownIdentifier(text, pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            return neg(self.base())
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input",
                              pos, expected=("number", "identifier", "'('", "'-'"))


def parse_expr(text, coord_names):
    """Parse `text` against the chart coordinate names."""
    return _Parser(_tokenize(text), coord_names).parse()
