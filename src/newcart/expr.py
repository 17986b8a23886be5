"""Symbolic scalar expressions over the coordinates of a single chart.

The expression language is deliberately small: constants, coordinates,
arithmetic, and the functions sin, cos, tan, exp, log, sqrt.  Trees are
immutable, evaluation is plain recursive IEEE-754 double arithmetic, and
differentiation is exact and closed over the node set.  The only
rewriting ever applied is constant folding plus elimination of additive
and multiplicative neutral elements, so evaluation order is stable and
repeated evaluation of one tree at one point is bit-for-bit identical.

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

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

_FUNCTION_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


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
        try:
            return Const(_pow_value(a.value, b.value, None))
        except (DomainError, OverflowError):
            pass
    return Pow(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def apply(fn, arg):
    if fn not in _FUNCTION_IMPL:
        raise ValueError(f"unknown function '{fn}'")
    if isinstance(arg, Const):
        try:
            return Const(_apply_value(fn, arg.value, None))
        except (DomainError, OverflowError):
            pass
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

def _pow_value(base, expo, node):
    if float(expo).is_integer():
        k = int(expo)
        if k == 0:
            return 1.0
        if base == 0.0 and k < 0:
            raise _domain_error("zero base with negative exponent", node)
        # repeated multiplication keeps negative bases legal for integer powers
        if abs(k) <= 64:
            acc = 1.0
            for _ in range(abs(k)):
                acc *= base
            return acc if k > 0 else 1.0 / acc
        return math.pow(base, k)
    if base <= 0.0:
        raise _domain_error("non-integer power of non-positive base", node)
    return math.pow(base, expo)


def _apply_value(fn, x, node):
    if fn == "log" and x <= 0.0:
        raise _domain_error("log of non-positive argument", node)
    if fn == "sqrt" and x < 0.0:
        raise _domain_error("sqrt of negative argument", node)
    try:
        return _FUNCTION_IMPL[fn](x)
    except OverflowError:
        raise _domain_error(f"{fn} overflow", node) from None


def _domain_error(what, node):
    message = what if node is None else f"{what} in '{to_string(node)}'"
    return DomainError(message, node, what)


def evaluate(expr, point, memo=None):
    """Evaluate `expr` at `point` (a sequence of floats).

    A shared `memo` dict may be passed to reuse values of subtrees shared
    by several expressions evaluated at the same point.  Entries keep a
    strong reference to their node, so the id-based keys stay valid for
    the memo's lifetime.
    """
    if memo is None:
        memo = {}
    return _eval(expr, point, memo)


def _eval(e, p, memo):
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit[0]
    t = type(e)
    if t is Const:
        v = e.value
    elif t is Coord:
        v = float(p[e.index])
    elif t is Add:
        v = _eval(e.left, p, memo) + _eval(e.right, p, memo)
    elif t is Sub:
        v = _eval(e.left, p, memo) - _eval(e.right, p, memo)
    elif t is Mul:
        v = _eval(e.left, p, memo) * _eval(e.right, p, memo)
    elif t is Div:
        den = _eval(e.right, p, memo)
        if den == 0.0:
            raise _domain_error("division by zero", e)
        v = _eval(e.left, p, memo) / den
    elif t is Pow:
        v = _pow_value(_eval(e.left, p, memo), _eval(e.right, p, memo), e)
    elif t is Neg:
        v = -_eval(e.child, p, memo)
    elif t is Apply:
        v = _apply_value(e.fn, _eval(e.arg, p, memo), e)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = (v, e)
    return v


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
            if text in _FUNCTION_IMPL:
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
