"""Symbolic scalar expressions over a fixed variable list.

Supports parsing from infix text, exact point evaluation, symbolic
differentiation, and compilation, by one code generator, to plain Python
callables: on one point, or column-wise on a batch of points with the same
results and nan where the point code raises, for hot loops (ODE right-hand
sides, objective gradients), and on a batch of boxes, for sound interval
enclosures.  Expression trees are immutable and safe to share.
"""

from __future__ import annotations

import functools
import math
import operator
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
    r"\s*(?:(?P<num>[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?"
    r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?|[0-9]+(?:[eE][+-]?[0-9]+)?)"
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


def _codegen(e: Expr, flavour: str = "point",
             names: _BoxNames | None = None) -> str:
    """Python source computing ``e`` from the values ``_v``; ``flavour`` is
    "point", "batch" or "box".

    Point code reads floats ``_v[i]``.  Batch code reads columns ``_v[i]``
    (1-D float arrays, one entry per point) and performs, entry by entry,
    the float operations the point code performs: sums, differences,
    products and negation are numpy elementwise operations, which round as
    Python floats do; so are sin, cos and sqrt (``_each_sin``, ...), whose
    numpy versions round as libm does, and division by anything but a
    non-zero constant (``_div``); powers, exp and log (``_pow``,
    ``_each_exp``, ``_each_log``) follow the per-entry rule of
    ``interval.each``, because numpy's vector ``power``, ``exp`` and
    ``log`` round differently from libm; and a subtree without variables
    is its value, folded here (``_fold``), or point code where that raises
    or is not finite.  Where the point code raises on an entry, ``_pow``,
    ``_each_*`` and ``_div`` give nan there and add its row to the list
    ``_bad`` of the call, their first argument.

    Box code reads interval rows ``_v0``, ``_v1``, ... (``interval.Rows``,
    one interval per box), with the rounding of each primitive (see
    ``interval``): the same operators, constants as point intervals,
    never folded in floats, and ``_div``, ``_log`` and ``_sqrt``, which
    give nan bounds on the rows where the box leaves their domain.  A sum
    that starts from ``Const(0.0)`` (as the certificate's trees do) starts
    from its first term instead, which is exact; so ``(0.0 + c) * x``, a
    linear template's gradient entry times a flow entry, is a product with
    ``c``.  A product with a finite non-zero constant ``c``, or with its
    negation ``-c``, is ``_scale(c, ...)`` or ``_scale(-c, ...)``, and a
    quotient by one is ``_quotient(..., c)`` or ``_quotient(..., -c)``.
    Each subtree without variables is a name, bound once before the code
    runs (``_box_source``); ``names`` collects them.

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
    gen = lambda a: _codegen(a, flavour, names)
    match e:
        case Const(v):
            if flavour == "box":
                points = names.points
                return points.setdefault(repr(v), f"_k{len(points)}")
            return f"({v!r})"  # unparenthesized negatives bind wrongly with **
        case Var(i):
            if flavour == "box":
                names.variables = max(names.variables, i + 1)
                return f"_v{i}"
            return f"_v[{i}]"
        case Neg(a):
            code = f"(-{gen(a)})"
        case Add() | Sub():
            first, chain = _sum_chain(e)
            if flavour == "box" and _without_zero_start(chain[0]) is not chain[0]:
                first, chain = chain[0].b, chain[1:]
                if not chain:
                    return gen(first)
            terms = [gen(first)] + [
                f"{'+' if isinstance(node, Add) else '-'} {gen(node.b)}"
                for node in chain]
            if len(terms) <= _CHUNK:
                code = f"({' '.join(terms)})"
            else:
                # each chunk reads the partial sum _s before its terms run,
                # so a term's own chunked sum cannot overwrite it
                parts = [" ".join(terms[i:i + _CHUNK])
                         for i in range(0, len(terms), _CHUNK)]
                steps = [f"(_s := ({parts[0]}))"]
                steps += [f"(_s := (_s {part}))" for part in parts[1:]]
                code = f"({', '.join(steps)})[-1]"
        case Mul(a, b):
            if flavour == "box":
                a, b = _without_zero_start(a), _without_zero_start(b)
            c, x = (a, b) if _scale_factor(a) is not None else (b, a)
            if flavour == "box" and (k := _scale_factor(c)) is not None:
                code = f"_scale({k!r}, {gen(x)})"
            else:
                code = f"({gen(a)} * {gen(b)})"
        case Div(a, b):
            if flavour == "box" and (k := _scale_factor(b)) is not None:
                code = f"_quotient({gen(a)}, {k!r})"
            elif flavour == "box" or (flavour == "batch" and (
                    variables_of(b) or _fold(b) in (None, 0.0))):
                bad = "_bad, " if flavour == "batch" else ""
                code = f"_div({bad}{gen(a)}, {gen(b)})"
            else:
                code = f"({gen(a)} / {gen(b)})"
        case Pow(base, n):
            if flavour == "batch":
                code = f"_pow(_bad, {gen(base)}, {n})"
            else:
                code = f"({gen(base)} ** {n})"
        case Sin(a) | Cos(a) | Exp(a) | Ln(a) | Sqrt(a):
            name = _MATH_NAMES[type(e)]
            if flavour == "batch":
                code = f"_each_{name}(_bad, {gen(a)})"
            else:
                code = f"_{name}({gen(a)})"
        case _:
            raise TypeError(f"not an expression: {e!r}")
    # in box code, only a subtree with variables reads a name _v0, _v1, ...
    if flavour != "box" or "_v" in code:
        return code
    return names.subtrees.setdefault(code, f"_c{len(names.subtrees)}")


def _scale_factor(e: Expr) -> float | None:
    """The value of ``e`` where it is a finite non-zero constant or the
    negation of one (negation is exact), else None: the factor of box
    code's ``_scale`` and the divisor of its ``_quotient``."""
    match e:
        case Const(v):
            pass
        case Neg(Const(v)):
            v = -v
        case _:
            return None
    return v if v != 0.0 and math.isfinite(v) else None


def _without_zero_start(e: Expr) -> Expr:
    """``t`` where ``e`` is ``0.0 + t``, else ``e``: box code's sum, since
    0.0 + t is exactly t."""
    if isinstance(e, Add) and isinstance(e.a, Const) and e.a.value == 0.0:
        return e.b
    return e


class _BoxNames:
    """The names that box code reads: the variables ``_v0``, ``_v1``, ...
    up to ``variables``; the point interval of each constant, by the
    constant's repr; and each other subtree without variables, by its
    code, in the order they are first met."""

    __slots__ = ("variables", "points", "subtrees")

    def __init__(self):
        self.variables = 0
        self.points: dict[str, str] = {}
        self.subtrees: dict[str, str] = {}


_MATH_NAMES = {Sin: "sin", Cos: "cos", Exp: "exp", Ln: "log", Sqrt: "sqrt"}
_MATH = {f"_{name}": getattr(math, name) for name in _MATH_NAMES.values()}
_MATH.update(inf=math.inf, nan=math.nan)  # the reprs of non-finite constants
MATH_ERRORS = iv.MATH_ERRORS  # what compiled point code raises
_nan = lambda _: math.nan


def _per_entry(fn, bad, col):
    """``fn`` on each entry of the column (``interval.each``); entries
    where it raises are nan and their rows are added to ``bad``."""
    out, failed = iv.each(fn, col.tolist(), _nan)
    bad += failed
    return np.array(out, dtype=float)


def _array_call(fn, clear, raises):
    """``fn`` over the columns in one numpy call, for a function whose
    numpy version rounds as the point code's operation does; entries where
    ``raises`` (where the point code raises) are nan and their rows are
    added to ``bad``.  Columns that ``clear``, one reduction over them,
    finds free of such entries are one plain call, as are those where
    ``raises`` finds none; either warns of nothing."""
    def call(bad, *cols):
        if clear(*cols):
            return fn(*cols)
        undefined = raises(*cols)
        if not undefined.any():
            return fn(*cols)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = fn(*cols)
        undefined = np.broadcast_to(undefined, out.shape)
        out[undefined] = math.nan
        bad += np.flatnonzero(undefined).tolist()
        return out
    return call


_BATCHED = dict(_MATH, _errors=MATH_ERRORS,
                _pow=lambda bad, col, n: _per_entry(lambda v: v ** n, bad, col),
                _each_exp=functools.partial(_per_entry, math.exp),
                _each_log=functools.partial(_per_entry, math.log))
# numpy's sin, cos and sqrt round as libm does, and its division as Python
# floats do; math raises on an infinite angle and on a negative square
# root, and Python on a division by zero.  A column whose sum of squares
# is finite has no infinite entry (``np.vdot`` warns of no overflow; a
# sum that overflows only costs the per-entry mask), one whose least entry
# is not negative has no negative entry, and a nan entry fails either
# test; a divisor column that ``np.all`` finds true has no zero entry.
_finite = lambda col: math.isfinite(np.vdot(col, col))
_BATCHED.update(_each_sin=_array_call(np.sin, _finite, np.isinf),
                _each_cos=_array_call(np.cos, _finite, np.isinf),
                _each_sqrt=_array_call(np.sqrt, lambda col: col.min() >= 0.0,
                                       lambda col: col < 0.0),
                _div=_array_call(operator.truediv, lambda a, b: np.all(b),
                                 lambda a, b: np.equal(b, 0.0)))


_BOX = dict(_sin=iv.sin, _cos=iv.cos, _exp=iv.exp, _log=iv.log,
            _sqrt=iv.sqrt, _div=iv.div, _scale=iv.scale,
            _quotient=iv.quotient)


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
    Each is compiled at its first call with points.  A tuple without
    variables compiles nothing: each row is its ``_fold``ed values.
    """
    es = tuple(es)
    point = batch = None
    undefined = [math.nan] * len(es)
    if not any(map(variables_of, es)):
        values = [_fold(e) for e in es]
        row = np.array([undefined if None in values else values])
        return lambda z: row.repeat(len(z), 0)

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
        out, _ = iv.each(point, z.tolist(), lambda _: undefined)
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
           "    try:\n" + "".join(lines) +
           "    except _errors:\n        _out[:] = nan\n"
           "    if _bad:\n        _out[_bad] = nan\n"
           "    return _out\n")
    namespace = dict(_BATCHED, _base=np.array([base]))
    exec(src, namespace)  # noqa: S102 - source is generated locally
    return namespace["_f"]


def _box_source(es: Sequence[Expr]) -> tuple[dict[str, float], str]:
    """The box code of ``es`` (``_codegen``) as the source of a function
    ``_f(_v0, _v1, ..., *_)`` of one interval value per variable, which
    returns the list of their enclosures, after a prelude that sets the
    name of each subtree without variables but a constant; and the names
    of the point constants it reads, with their values.  The caller binds
    those: the compiler takes longer over a call with a literal than numpy
    takes to build the interval."""
    names = _BoxNames()
    codes = [_codegen(e, "box", names) for e in es]
    prelude = [f"{name} = {code}\n" for code, name in names.subtrees.items()]
    params = "".join(f"_v{i}, " for i in range(names.variables))
    return ({name: float(c) for c, name in names.points.items()},
            "".join(prelude)
            + f"def _f({params}*_):\n    return [{', '.join(codes)}]\n")


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
    points, src = _box_source(es)
    namespace = dict(_BOX)
    namespace.update(zip(points, iv.points(list(points.values()))))
    with np.errstate(all="ignore"):
        exec(src, namespace)  # noqa: S102 - source is generated locally
    rows = namespace["_f"]

    def f(lo, hi):
        out_lo = np.empty((len(lo), len(es)))
        out_hi = np.empty((len(lo), len(es)))
        if not len(lo):
            return out_lo, out_hi
        with np.errstate(all="ignore"):
            b = np.array([lo.T, hi.T]).swapaxes(0, 1)
            for i, enc in enumerate(rows(*map(iv.Rows, b))):
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
