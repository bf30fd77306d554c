"""Expression language for terminal payoffs.

A payoff is a function of the single variable ``x`` (the terminal state of
the driving process).  The language covers arithmetic (+ - * / ^ with an
integer exponent), unary minus, and the functions exp, log, abs, sqrt, tanh
(unary) plus min, max (binary).  Parsed trees are immutable and hashable, so
they can be shared freely between solver calls.
"""

import math
import numbers
import re
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PayoffParseError",
    "EvalDomainError",
    "ExprDepthError",
    "Expr",
    "Lit",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "pretty_print",
]

# function name -> arity
FUNCTIONS = {"exp": 1, "log": 1, "abs": 1, "sqrt": 1, "tanh": 1, "min": 2, "max": 2}

# deepest nesting accepted: a leaf may sit inside at most MAX_DEPTH - 1
# brackets, calls, unary minus signs or operators.  Building a node checks its
# depth, so evaluate and pretty_print, which recurse once per level, never
# meet a deeper tree; the parser also guards brackets, which nest without
# building nodes.
MAX_DEPTH = 64


class PayoffParseError(ValueError):
    """Malformed payoff text.  `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Evaluation left the real line: log/sqrt of a negative, division by zero."""


class ExprDepthError(PayoffParseError):
    """A tree nested deeper than MAX_DEPTH levels, parsed or built in code (offset 0)."""


class Expr:
    """Base class of expression nodes.  Instances are frozen after creation.

    Building a node checks it: its children are nodes, and it keeps its
    class's rule (`_check`), else PayoffParseError at offset 0.  A number
    field is stored as the Python int or float that was checked, so equal
    nodes hash and evaluate equal.  `depth` counts the levels of the tree
    below and including the node; a node that would exceed MAX_DEPTH raises
    ExprDepthError as it is built.
    """

    __slots__ = ()
    depth: int

    def _children(self) -> tuple:
        return ()

    def _check(self):
        """Store the node's fields as checked, or ValueError saying how they
        break its class's rule."""

    def __post_init__(self):
        children = self._children()
        if not all(isinstance(child, Expr) for child in children):
            raise PayoffParseError(f"{type(self).__name__} takes expression nodes", 0)
        try:
            self._check()
        except ValueError as err:
            raise PayoffParseError(str(err), 0) from None
        below = max((child.depth for child in children), default=0)
        if below >= MAX_DEPTH:
            raise ExprDepthError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
        object.__setattr__(self, "depth", below + 1)


def _shown(value) -> str:
    """`value` as a refusal shows it: its repr, but an integer of more than 24
    digits by its first 24 characters and its count of digits (past str()'s
    limit on digits, by that limit)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return repr(value)
    try:
        digits = str(int(value))
    except ValueError:  # past str()'s limit on digits
        sign = "-" if value < 0 else ""
        return f"{sign}... (more than {sys.get_int_max_str_digits()} digits)"
    count = len(digits.lstrip("-"))
    return digits if count <= 24 else f"{digits[:24]}... ({count} digits)"


def _check_integer(name: str, value, least: float = -math.inf) -> int:
    """`value` as an int, unless it is not an integer (a bool is not one) or is below `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {_shown(value)}")
    return int(value)


def _check_real(name: str, value) -> float:
    """`value` as a float, unless it is not a real number (a bool is not one) or overflows one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} lies past the float range") from None


def _store(frozen, **checked):
    """Write checked values back onto the fields of a frozen dataclass."""
    for name, value in checked.items():
        object.__setattr__(frozen, name, value)


@dataclass(frozen=True)
class Lit(Expr):
    value: float

    def _check(self):
        try:
            value = _check_real("literal", self.value)
        except ValueError:  # not a real number, or past the float range
            value = math.nan
        if not math.isfinite(value):  # it would print as text that does not re-parse
            try:
                shown = repr(self.value)
            except ValueError:  # it holds an int past str()'s limit on digits
                shown = f"of more than {sys.get_int_max_str_digits()} digits"
            raise ValueError(f"literal {shown} is not a finite number")
        _store(self, value=value)


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def _children(self) -> tuple:
        return (self.arg,)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    lhs: Expr
    rhs: Expr

    def _children(self) -> tuple:
        return (self.lhs, self.rhs)

    def _check(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def _children(self) -> tuple:
        return (self.base,)

    def _check(self):
        exponent = _check_integer("exponent", self.exponent)
        try:
            str(exponent)  # pretty_print writes it, and the parser refuses what str() cannot
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"exponent of more than {limit} digits is too long") from None
        _store(self, exponent=exponent)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple

    def _children(self) -> tuple:
        return self.args if isinstance(self.args, tuple) else (self.args,)

    def _check(self):
        arity = FUNCTIONS.get(self.func) if isinstance(self.func, str) else None
        if arity is None:
            raise ValueError(f"unknown function {self.func!r}")
        if not isinstance(self.args, tuple):  # a lone node passes `_children`
            got = type(self.args).__name__
            raise ValueError(f"{self.func} takes a tuple of arguments, got {got}")
        if len(self.args) != arity:
            plural = "s" if arity > 1 else ""
            raise ValueError(f"{self.func} takes {arity} argument{plural}, got {len(self.args)}")


_TOKEN_RE = re.compile(
    r"(?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PayoffParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, expect: str):
        tok = self._peek()
        if tok is None:
            raise PayoffParseError(f"expected {expect} but input ended", len(self.text))
        self.i += 1
        return tok

    def _at_op(self, chars):
        tok = self._peek()
        return tok is not None and tok[0] == "op" and tok[1] in chars

    def parse(self) -> Expr:
        if not self.tokens:
            raise PayoffParseError("empty payoff expression", 0)
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise PayoffParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self._at_op("+-"):
            op = self._next("operator")[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self._at_op("*/"):
            op = self._next("operator")[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        # each nested bracket, call or unary minus recurses through here
        if self.depth == MAX_DEPTH:
            pos = self.tokens[self.i - 1][2]  # the token that opened the extra level
            raise PayoffParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        self.depth += 1
        try:
            return self._factor()
        finally:
            self.depth -= 1

    def _factor(self) -> Expr:
        # '-' here (rather than inside atom) makes ^ bind tighter than unary
        # minus: -x^2 parses as -(x^2).  Negated literals fold to literals so
        # printed trees re-parse to themselves.
        if self._at_op("-"):
            self._next("operator")
            inner = self.factor()
            if isinstance(inner, Lit):
                return Lit(-inner.value)
            return Neg(inner)
        node = self.atom()
        if self._at_op("^"):
            self._next("operator")
            node = Pow(node, self._integer())
        return node

    def _integer(self) -> int:
        sign = 1
        if self._at_op("-"):
            self._next("operator")
            sign = -1
        kind, text, pos = self._next("an integer exponent")
        if kind != "number" or not text.isdigit():
            raise PayoffParseError("exponent must be an integer literal", pos)
        try:
            return sign * int(text)
        except ValueError:  # past int()'s limit on digits
            raise PayoffParseError(f"exponent of {len(text)} digits is too long", pos) from None

    def atom(self) -> Expr:
        kind, text, pos = self._next("a value")
        if kind == "number":
            try:
                return Lit(float(text))
            except PayoffParseError:  # it overflowed to inf, which Lit refuses
                raise PayoffParseError(f"number {text!r} is out of range", pos) from None
        if kind == "name":
            if text == "x":
                return Var()
            if text in FUNCTIONS:
                return self._call(text, pos)
            raise PayoffParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        raise PayoffParseError(f"unexpected token {text!r}", pos)

    def _call(self, func: str, pos: int) -> Expr:
        self._expect_op("(")
        args = [self.expr()]
        while self._at_op(","):
            self._next("operator")
            args.append(self.expr())
        self._expect_op(")")
        try:
            return Call(func, tuple(args))
        except ExprDepthError:
            raise
        except PayoffParseError as err:  # the wrong number of arguments
            raise PayoffParseError(err.message, pos) from None

    def _expect_op(self, op: str):
        tok = self._peek()
        if tok is None:
            raise PayoffParseError(f"expected {op!r} but input ended", len(self.text))
        if tok[0] != "op" or tok[1] != op:
            raise PayoffParseError(f"expected {op!r}, found {tok[1]!r}", tok[2])
        self.i += 1


def parse(text: str) -> Expr:
    """Parse payoff text into an expression tree.

    Raises PayoffParseError (with a byte offset) on syntax errors, unknown
    identifiers, wrong function arity, literals that overflow a float,
    exponents too long for int(), and nesting deeper than MAX_DEPTH.
    """
    return _Parser(text).parse()


# every operator and function as a ufunc, and the arguments that would take
# three of them off the real line, tested on their last argument
_UFUNCS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "exp": np.exp, "log": np.log, "abs": np.abs, "sqrt": np.sqrt, "tanh": np.tanh,
    "min": np.minimum, "max": np.maximum,
}
_DOMAINS = {
    "/": (np.equal, "division by zero"),
    "log": (np.less_equal, "log of a non-positive value"),
    "sqrt": (np.less, "sqrt of a negative value"),
}


def _eval(node: Expr, x: np.ndarray):
    if isinstance(node, Lit):
        # a float64 scalar: a constant power calls libm pow, as Python's does
        return np.float64(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.arg, x)
    if isinstance(node, Pow):
        base = _eval(node.base, x)
        if node.exponent < 0 and np.any(base == 0.0):
            raise EvalDomainError("division by zero (negative exponent at 0)")
        # `**`, not np.power: an array's ** 2 is numpy's square
        return base**node.exponent
    if isinstance(node, BinOp):
        name, args = node.op, (node.lhs, node.rhs)
    elif isinstance(node, Call):
        name, args = node.func, node.args
    else:
        raise TypeError(f"not an expression node: {node!r}")
    values = [_eval(arg, x) for arg in args]
    if name in _DOMAINS:
        outside, message = _DOMAINS[name]
        if np.any(outside(values[-1], 0.0)):
            raise EvalDomainError(message)
    return _UFUNCS[name](*values)


def evaluate(expr: Expr, x):
    """Evaluate `expr` at `x`.

    `x` may be a float or a numpy array; the result has matching shape, a
    float for a float.  A float is evaluated as a one-element array, so a
    point and a grid give the same bits.  Evaluation is pure and
    deterministic.  Raises EvalDomainError when the value would leave the
    reals.
    """
    xs = np.array(x, dtype=float, ndmin=1)
    # np.full broadcasts a constant and copies, so a bare x never hands back
    # the caller's own array; [()] unwraps a 0-d result to a float
    return np.full(xs.shape, _eval(expr, xs)).reshape(np.shape(x))[()]


def pretty_print(expr: Expr) -> str:
    """Canonical fully parenthesized rendering; parses back to an equal tree."""
    if isinstance(expr, Lit):
        return repr(expr.value)
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Neg):
        return f"(-{pretty_print(expr.arg)})"
    if isinstance(expr, BinOp):
        return f"({pretty_print(expr.lhs)} {expr.op} {pretty_print(expr.rhs)})"
    if isinstance(expr, Pow):
        base = pretty_print(expr.base)
        # a bare negative literal base would re-parse as -(base^n)
        if isinstance(expr.base, Lit) and math.copysign(1.0, expr.base.value) < 0:
            base = f"({base})"
        return f"({base}^{expr.exponent})"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(pretty_print(a) for a in expr.args)})"
    raise TypeError(f"not an expression node: {expr!r}")
