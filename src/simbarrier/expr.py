"""Symbolic scalar expressions over a fixed variable list.

Supports parsing from infix text, exact point evaluation, symbolic
differentiation, and compilation, by one code generator, to plain Python
callables: on one point, or column-wise on a batch of points with the same
results and nan where the point code raises, for hot loops (ODE right-hand
sides, objective gradients), and on a batch of boxes, for sound interval
enclosures.  Expression trees are immutable and safe to share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import interval as iv
from .interval import Interval


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ExprError):
    """Evaluation hit a point outside an operation's domain."""


@dataclass(frozen=True)
class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("integer powers must have non-negative exponents")


_FUNCTIONS = {"sin": Sin, "cos": Cos, "ln": Ln, "sqrt": Sqrt, "exp": Exp}

_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<op>[-+*/^()]))"
)


def is_name(text) -> bool:
    """Whether ``text`` is an identifier that names no function."""
    return (isinstance(text, str) and re.fullmatch(_IDENT, text) is not None
            and text not in _FUNCTIONS)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(variables)}

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect_op(self, symbol: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != symbol:
            raise ParseError(f"expected {symbol!r}", tok[2])

    def parse(self) -> Expr:
        e = self._sum()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def _sum(self) -> Expr:
        e = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return e
            self.pos += 1
            rhs = self._term()
            e = Add(e, rhs) if tok[1] == "+" else Sub(e, rhs)

    def _term(self) -> Expr:
        e = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return e
            self.pos += 1
            rhs = self._factor()
            e = Mul(e, rhs) if tok[1] == "*" else Div(e, rhs)

    def _factor(self) -> Expr:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            return Neg(self._factor())
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            etok = self._next()
            if etok[0] != "num" or not etok[1].isdigit():
                raise ParseError("exponent must be a non-negative integer", etok[2])
            return Pow(base, int(etok[1]))
        return base

    def _atom(self) -> Expr:
        tok = self._next()
        kind, value, start = tok
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ParseError(f"number {value!r} is outside the float range",
                                 start)
            return Const(number)
        if kind == "ident":
            if value in _FUNCTIONS:
                self._expect_op("(")
                arg = self._sum()
                self._expect_op(")")
                return _FUNCTIONS[value](arg)
            if value in self.var_index:
                return Var(self.var_index[value])
            raise ParseError(f"unknown identifier {value!r}", start)
        if kind == "op" and value == "(":
            e = self._sum()
            self._expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", start)


def parse(text: str, variables: Sequence[str]) -> Expr:
    """Parse infix text over the named variables.

    Precedence: ^ binds tighter than unary minus, which binds tighter than
    * and /, which bind tighter than + and -.
    """
    return _Parser(text, variables).parse()


def _sum_chain(e: Expr) -> tuple[Expr, list[Expr]]:
    """The leftmost operand of a chain of sums and differences, and the
    ``Add`` and ``Sub`` nodes above it, innermost first, so that their
    ``b`` operands follow it left to right.  A loop down the left operands,
    not recursion: a sum is as deep as it is long."""
    chain = []
    while isinstance(e, (Add, Sub)):
        chain.append(e)
        e = e.a
    return e, chain[::-1]


def evaluate(e: Expr, env: Sequence[float]) -> float:
    """Exact point evaluation; domain violations raise DomainError."""
    match e:
        case Const(v):
            return v
        case Var(i):
            return env[i]
        case Neg(a):
            return -evaluate(a, env)
        case Add() | Sub():
            first, chain = _sum_chain(e)
            out = evaluate(first, env)
            for node in chain:
                term = evaluate(node.b, env)
                out = out + term if isinstance(node, Add) else out - term
            return out
        case Mul(a, b):
            return evaluate(a, env) * evaluate(b, env)
        case Div(a, b):
            d = evaluate(b, env)
            if d == 0.0:
                raise DomainError("division by zero")
            return evaluate(a, env) / d
        case Pow(base, n):
            return evaluate(base, env) ** n
        case Sin(a):
            return math.sin(evaluate(a, env))
        case Cos(a):
            return math.cos(evaluate(a, env))
        case Exp(a):
            return math.exp(evaluate(a, env))
        case Ln(a):
            v = evaluate(a, env)
            if v <= 0.0:
                raise DomainError(f"ln of non-positive value {v}")
            return math.log(v)
        case Sqrt(a):
            v = evaluate(a, env)
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v}")
            return math.sqrt(v)
    raise TypeError(f"not an expression: {e!r}")


def _add(a: Expr, b: Expr) -> Expr:
    if a == Const(0.0):
        return b
    if b == Const(0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if b == Const(0.0):
        return a
    if a == Const(0.0):
        return Neg(b) if not isinstance(b, Const) else Const(-b.value)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a == Const(0.0) or b == Const(0.0):
        return Const(0.0)
    if a == Const(1.0):
        return b
    if b == Const(1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if a == Const(0.0):
        return Const(0.0)
    if b == Const(1.0):
        return a
    return Div(a, b)


def _pow(base: Expr, n: int) -> Expr:
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    return Pow(base, n)


def differentiate(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative with respect to variable index ``var``."""
    match e:
        case Const(_):
            return Const(0.0)
        case Var(i):
            return Const(1.0) if i == var else Const(0.0)
        case Neg(a):
            d = differentiate(a, var)
            return _sub(Const(0.0), d)
        case Add() | Sub():
            first, chain = _sum_chain(e)
            out = differentiate(first, var)
            for node in chain:
                term = differentiate(node.b, var)
                out = _add(out, term) if isinstance(node, Add) else _sub(out, term)
            return out
        case Mul(a, b):
            return _add(
                _mul(differentiate(a, var), b), _mul(a, differentiate(b, var))
            )
        case Div(a, b):
            num = _sub(
                _mul(differentiate(a, var), b), _mul(a, differentiate(b, var))
            )
            return _div(num, _pow(b, 2))
        case Pow(base, n):
            if n == 0:
                return Const(0.0)
            inner = differentiate(base, var)
            return _mul(_mul(Const(float(n)), _pow(base, n - 1)), inner)
        case Sin(a):
            return _mul(Cos(a), differentiate(a, var))
        case Cos(a):
            return _sub(Const(0.0), _mul(Sin(a), differentiate(a, var)))
        case Exp(a):
            return _mul(Exp(a), differentiate(a, var))
        case Ln(a):
            return _div(differentiate(a, var), a)
        case Sqrt(a):
            return _div(differentiate(a, var), _mul(Const(2.0), Sqrt(a)))
    raise TypeError(f"not an expression: {e!r}")


_CHUNK = 500  # terms of a sum per flat expression


def _codegen(e: Expr, flavour: str = "point") -> str:
    """Python source computing ``e`` from the values ``_v``; ``flavour`` is
    "point", "batch" or "box".

    Point code reads floats ``_v[i]``.  Batch code reads columns ``_v[i]``
    (1-D float arrays, one entry per point) and performs, entry by entry,
    the float operations the point code performs: sums, differences,
    products and negation are numpy elementwise operations, which round as
    Python floats do; so are sin, cos and sqrt (``_each_sin``, ...), whose
    numpy versions round as libm does; powers, exp and log run per entry
    on Python floats (``_pow``, ``_each_exp``, ``_each_log``), because
    numpy's vector ``power``, ``exp`` and ``log`` round differently from
    libm; division by anything but a non-zero constant goes through
    ``_div``; and a subtree without variables is its value, folded here
    (``_fold``), or point code where that raises or is not finite.  Where
    the point code raises on an entry, ``_pow``, ``_each_*`` and ``_div``
    give nan there and add its row to the list ``_bad`` of the call, their
    first argument.  Box code reads interval rows ``_v[i]``
    (``interval.Rows``, one interval per box): the same operators,
    constants as point intervals ``_I(c)``, never folded in floats, and
    ``_div``, ``_log`` and ``_sqrt``, which give nan bounds on the rows
    where the box leaves their domain.

    A chain of sums and differences is emitted flat, as Python groups it,
    by a loop down its left operands, and added up left to right in chunks
    of ``_CHUNK`` terms: one parenthesis or one recursive call per term
    would hit the parser's limit of 200 nested parentheses or the
    recursion limit, and the compiler recurses once per operator of a flat
    chain.
    """
    if flavour == "batch" and not variables_of(e):
        value = _fold(e)
        if value is not None and math.isfinite(value):
            return f"({value!r})"
        flavour = "point"
    gen = lambda a: _codegen(a, flavour)
    match e:
        case Const(v):
            if flavour == "box":
                return f"_I({v!r})"
            return f"({v!r})"  # unparenthesized negatives bind wrongly with **
        case Var(i):
            return f"_v[{i}]"
        case Neg(a):
            return f"(-{gen(a)})"
        case Add() | Sub():
            first, chain = _sum_chain(e)
            terms = [gen(first)] + [
                f"{'+' if isinstance(node, Add) else '-'} {gen(node.b)}"
                for node in chain]
            if len(terms) <= _CHUNK:
                return f"({' '.join(terms)})"
            # each chunk reads the partial sum _s before its terms run, so
            # a term's own chunked sum cannot overwrite it
            parts = [" ".join(terms[i:i + _CHUNK])
                     for i in range(0, len(terms), _CHUNK)]
            steps = [f"(_s := ({parts[0]}))"]
            steps += [f"(_s := (_s {part}))" for part in parts[1:]]
            return f"({', '.join(steps)})[-1]"
        case Mul(a, b):
            return f"({gen(a)} * {gen(b)})"
        case Div(a, b):
            if flavour == "box" or (flavour == "batch" and (
                    variables_of(b) or _fold(b) in (None, 0.0))):
                bad = "_bad, " if flavour == "batch" else ""
                return f"_div({bad}{gen(a)}, {gen(b)})"
            return f"({gen(a)} / {gen(b)})"
        case Pow(base, n):
            if flavour == "batch":
                return f"_pow(_bad, {gen(base)}, {n})"
            return f"({gen(base)} ** {n})"
        case Sin(a) | Cos(a) | Exp(a) | Ln(a) | Sqrt(a):
            name = _MATH_NAMES[type(e)]
            if flavour == "batch":
                return f"_each_{name}(_bad, {gen(a)})"
            return f"_{name}({gen(a)})"
    raise TypeError(f"not an expression: {e!r}")


_MATH_NAMES = {Sin: "sin", Cos: "cos", Exp: "exp", Ln: "log", Sqrt: "sqrt"}
_MATH = {f"_{name}": getattr(math, name) for name in _MATH_NAMES.values()}
_MATH.update(inf=math.inf, nan=math.nan)  # the reprs of non-finite constants
# what compiled point code raises where a point is outside a domain
MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _one_by_one(fn, values: list, bad: list) -> np.ndarray:
    """``fn`` on each value; where it raises, the entry is nan and its row
    is added to ``bad``."""
    out = np.empty(len(values))
    for r, v in enumerate(values):
        try:
            out[r] = fn(v)
        except MATH_ERRORS:
            out[r] = math.nan
            bad.append(r)
    return out


def _each(fn):
    def each(bad, col):
        values = col.tolist()
        try:
            return np.array([fn(v) for v in values])
        except MATH_ERRORS:
            return _one_by_one(fn, values, bad)
    return each


def _array_call(fn, raises):
    """``fn`` over the column in one numpy call, for a function whose numpy
    version rounds as libm does; entries where ``raises`` (where the point
    code raises) are nan and their rows are added to ``bad``.  A column
    with no such entry is one plain call, which warns of nothing."""
    def call(bad, col):
        undefined = raises(col)
        if not undefined.any():
            return fn(col)
        with np.errstate(invalid="ignore"):
            out = fn(col)
        out[undefined] = math.nan
        bad += np.flatnonzero(undefined).tolist()
        return out
    return call


def _pow_entries(bad, col, n):
    values = col.tolist()
    try:
        return np.array([v ** n for v in values])
    except OverflowError:
        return _one_by_one(lambda v: v ** n, values, bad)


def _div_entries(bad, a, b):
    if np.all(b):
        return a / b
    zero = b == 0.0  # where a Python float division raises
    out = a / np.where(zero, 1.0, b)
    bad += np.flatnonzero(np.broadcast_to(zero, out.shape)).tolist()
    return out


_BATCHED = dict(_MATH, _pow=_pow_entries, _div=_div_entries,
                _errors=MATH_ERRORS)
_BATCHED.update((f"_each_{name}", _each(getattr(math, name)))
                for name in ("exp", "log"))
# numpy's sin, cos and sqrt round as libm does; math raises on an infinite
# angle and on a negative square root
_BATCHED.update(_each_sin=_array_call(np.sin, np.isinf),
                _each_cos=_array_call(np.cos, np.isinf),
                _each_sqrt=_array_call(np.sqrt, lambda col: col < 0.0))


_BOX = dict(_I=iv.point, _Rows=iv.Rows, _sin=iv.sin, _cos=iv.cos,
            _exp=iv.exp, _log=iv.log, _sqrt=iv.sqrt, _div=iv.div,
            inf=math.inf, nan=math.nan)


def _compile(src: str):
    return eval(src, dict(_MATH))  # noqa: S307 - source is generated locally


def _fold(e: Expr) -> float | None:
    """The value the point code gives for ``e``, an expression without
    variables, or None where it raises."""
    if isinstance(e, Const):
        return e.value
    try:
        return _compile(_codegen(e))
    except MATH_ERRORS:
        return None


def compile_vector(es: Sequence[Expr]):
    """Compile a tuple of expressions to one ``f(values) -> list``.

    Each entry runs the float operations of its expression in Python
    floats; where a point is outside a domain, the call raises the
    underlying math error (one of ``MATH_ERRORS``), not DomainError.
    """
    return _compile(f"lambda _v: [{', '.join(_codegen(e) for e in es)}]")


_FEW_ROWS = 8  # up to here, point code row by row beats the batch code


def compile_batch(es: Sequence[Expr]):
    """Compile a tuple of expressions to one ``f(points) -> array`` over
    the rows of a float array ``points`` of shape (k, number of values).

    Row r of the (k, len(es)) result is all nan where
    ``compile_vector(es)(points[r].tolist())`` raises.  Where it returns,
    each entry it gives as a number is bit for bit that number, and each
    nan it gives is a nan, of either sign: where two nans of opposite sign
    meet, numpy and Python floats keep different operands.  The call
    raises no math error.  A call with at most ``_FEW_ROWS`` points runs
    that point code on each row, which is faster there than numpy's
    per-call overhead; a larger call runs the batch code (``_batch_code``).
    Each is compiled at its first call with points.
    """
    es = tuple(es)
    point = batch = None
    undefined = [math.nan] * len(es)

    def f(z):
        nonlocal point, batch
        if not len(z):
            return np.empty((0, len(es)))
        if len(z) > _FEW_ROWS:
            if batch is None:
                batch = _batch_code(es)
            return batch(z)
        if point is None:
            point = compile_vector(es)
        out = []
        for row in z.tolist():
            try:
                out.append(point(row))
            except MATH_ERRORS:
                out.append(undefined)
        return np.array(out, dtype=float).reshape(len(z), len(es))
    return f


def _batch_code(es: Sequence[Expr]):
    """``compile_batch``'s rule over columns: the batch flavour of
    ``_codegen``.

    An entry of a power, a math function or a division that the point
    code cannot compute adds its row to a list of the call, and those rows
    are set to nan at the end, also where a later operation hides the
    failure (``ln(x) ^ 0`` is 1.0 at nan).  A subtree or an entry without
    variables that raises makes every row nan.  Entries without variables
    are evaluated once, here, into a row that each call repeats, unless
    they raise: a constant entry is its value.
    """
    base, lines = [], []
    for i, e in enumerate(es):
        value = None if variables_of(e) else _fold(e)
        base.append(0.0 if value is None else value)
        if value is None:
            lines.append(f"        _out[:, {i}] = {_codegen(e, 'batch')}\n")
    src = ("def _f(_z):\n    _v = _z.T\n"
           "    _bad = []\n"
           "    _out = _base.repeat(len(_z), 0)\n"
           "    try:\n" + ("".join(lines) or "        pass\n") +
           "    except _errors:\n        _out[:] = nan\n"
           "    if _bad:\n        _out[_bad] = nan\n"
           "    return _out\n")
    namespace = dict(_BATCHED, _base=np.array([base]))
    exec(src, namespace)  # noqa: S102 - source is generated locally
    return namespace["_f"]


def compile_interval(es: Sequence[Expr]):
    """Compile a tuple of expressions to one ``f(lo, hi) -> (lo, hi)``:
    their natural interval extensions over a batch of boxes.

    Row r of the float arrays ``lo`` and ``hi``, of shape (k, number of
    variables), is one box; row r of the two (k, len(es)) results bounds
    each expression over that box.  The enclosure is sound, and bit for
    bit what the interval primitives give on that box alone (see
    ``interval``).  An entry is nan where the box touches a domain
    boundary of some sub-expression; the call raises no math error.
    """
    src = ("def _f(_b):\n"
           "    _v = [_Rows(_b[:, i]) for i in range(_b.shape[1])]\n"
           f"    return [{', '.join(_codegen(e, 'box') for e in es)}]\n")
    namespace = dict(_BOX)
    exec(src, namespace)  # noqa: S102 - source is generated locally
    rows = namespace["_f"]

    def f(lo, hi):
        out_lo = np.empty((len(lo), len(es)))
        out_hi = np.empty((len(lo), len(es)))
        if not len(lo):
            return out_lo, out_hi
        with np.errstate(all="ignore"):
            for i, enc in enumerate(rows(np.array([lo.T, hi.T]))):
                out_lo[:, i], out_hi[:, i] = enc.lo, enc.hi
        return out_lo, out_hi
    return f


def interval_eval(e: Expr, box: Sequence[Interval]) -> Interval | None:
    """Sound enclosure of e over one box of intervals, or None when the
    box touches a domain boundary of some sub-expression; a one-row call
    of ``compile_interval``."""
    lo = np.array([[b.lo for b in box]], dtype=float)
    hi = np.array([[b.hi for b in box]], dtype=float)
    (enc_lo,), (enc_hi,) = compile_interval([e])(lo, hi)
    if math.isnan(enc_lo[0]):
        return None
    return Interval(float(enc_lo[0]), float(enc_hi[0]))


def variables_of(e: Expr) -> set[int]:
    found: set[int] = set()
    todo = [e]
    while todo:  # a loop, not recursion: sums are as deep as they are long
        match todo.pop():
            case Const(_):
                pass
            case Var(i):
                found.add(i)
            case Neg(a) | Sin(a) | Cos(a) | Ln(a) | Sqrt(a) | Exp(a) | Pow(a, _):
                todo.append(a)
            case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b):
                todo += (a, b)
            case other:
                raise TypeError(f"not an expression: {other!r}")
    return found


def negated(e: Expr) -> Expr:
    """Negate, collapsing double negation so reversal is an involution."""
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)
