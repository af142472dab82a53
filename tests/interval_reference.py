"""Point-wise reference for ``interval``: the scalar interval primitives,
on one ``Interval`` at a time, that the row primitives replaced.

Row r of an ``expr.compile_interval`` enclosure must be bit for bit what
the box code gives here on box r alone (``tests/test_interval.py``).  The
scalar primitives are kept in their own code, so the reference does not
share code with what it checks; only the value class is
``interval.Interval``.  Like the row primitives, they round sums,
differences, products, quotients, squares and square roots outward by one
ulp, and widen the libm calls by four.
"""

from __future__ import annotations

import math
from typing import Sequence

from simbarrier import expr as ex
from simbarrier import interval

# a correctly rounded operation (+ - * / sqrt, a square as one product) is
# off by less than one ulp in any rounding mode
_ROUND_STEPS = 1
# 4 ulps per bound covers the worst-case error of every libm call we use.
_WIDEN_STEPS = 4

_INF = math.inf
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def _down(x: float, steps: int = _WIDEN_STEPS) -> float:
    # +inf (an overflowed bound) steps down to finite floats: the exact
    # value it stands for is a real number above the largest float
    if x == -_INF:
        return x
    for _ in range(steps):
        x = math.nextafter(x, -_INF)
    return x


def _up(x: float, steps: int = _WIDEN_STEPS) -> float:
    if x == _INF:
        return x
    for _ in range(steps):
        x = math.nextafter(x, _INF)
    return x


class Interval(interval.Interval):
    """Closed interval [lo, hi] with lo <= hi, with the total operations
    as operators (below)."""

    __slots__ = ()


def _widened(lo: float, hi: float) -> Interval:
    return Interval(_down(lo), _up(hi))


def _rounded(lo: float, hi: float) -> Interval:
    return Interval(_down(lo, _ROUND_STEPS), _up(hi, _ROUND_STEPS))


def add(x: Interval, y: Interval) -> Interval:
    return _rounded(x.lo + y.lo, x.hi + y.hi)


def sub(x: Interval, y: Interval) -> Interval:
    return _rounded(x.lo - y.hi, x.hi - y.lo)


def neg(x: Interval) -> Interval:
    return Interval(-x.hi, -x.lo)


def mul(x: Interval, y: Interval) -> Interval:
    # nan can only appear from 0 * inf combinations; those candidates carry
    # no information and are dropped.
    cands = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi]
    cands = [c for c in cands if not math.isnan(c)]
    return _rounded(min(cands), max(cands))


def div(x: Interval, y: Interval) -> Interval | None:
    if y.lo <= 0.0 <= y.hi:
        return None
    cands = [x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi]
    cands = [c for c in cands if not math.isnan(c)]
    return _rounded(min(cands), max(cands))


def _pow(v: float, n: int) -> float:
    try:
        return v ** n
    except OverflowError:
        return -_INF if v < 0.0 and n % 2 else _INF


def power(x: Interval, n: int) -> Interval:
    """x**n for integer n >= 0, using the monotone/even-power rule; a
    square is the product x * x."""
    if n < 0:
        raise ValueError("negative integer exponent")
    if n == 0:
        return Interval(1.0, 1.0)
    if n == 1:
        return Interval(x.lo, x.hi)
    if n == 2:
        lo_n, hi_n, outward = x.lo * x.lo, x.hi * x.hi, _rounded
    else:
        lo_n, hi_n, outward = _pow(x.lo, n), _pow(x.hi, n), _widened
    if n % 2 == 1:
        return outward(lo_n, hi_n)
    if x.lo >= 0.0:
        return outward(lo_n, hi_n)
    if x.hi <= 0.0:
        return outward(hi_n, lo_n)
    return outward(0.0, max(lo_n, hi_n))


def exp(x: Interval) -> Interval:
    try:
        lo = math.exp(x.lo)
    except OverflowError:
        lo = _INF
    try:
        hi = math.exp(x.hi)
    except OverflowError:
        hi = _INF
    return Interval(max(0.0, _down(lo)), _up(hi))


def log(x: Interval) -> Interval | None:
    if x.lo <= 0.0:
        return None
    return _widened(math.log(x.lo), math.log(x.hi))


def sqrt(x: Interval) -> Interval | None:
    if x.lo < 0.0:
        return None
    return Interval(max(0.0, _down(math.sqrt(x.lo), _ROUND_STEPS)),
                    _up(math.sqrt(x.hi), _ROUND_STEPS))


def _contains_critical(lo: float, hi: float, offset: float) -> bool:
    # True when some offset + 2*k*pi lies in [lo, hi].  The test runs on a
    # slightly widened interval, so a borderline miss errs toward inclusion
    # (a wider enclosure), which keeps the result sound.
    lo = _down(lo)
    hi = _up(hi)
    k_min = math.ceil((lo - offset) / _TWO_PI)
    return offset + k_min * _TWO_PI <= hi


def sin(x: Interval) -> Interval:
    if x.hi - x.lo >= _TWO_PI:
        return Interval(-1.0, 1.0)
    s_lo = math.sin(x.lo)
    s_hi = math.sin(x.hi)
    lo = min(s_lo, s_hi)
    hi = max(s_lo, s_hi)
    if _contains_critical(x.lo, x.hi, _HALF_PI):
        hi = 1.0
    else:
        hi = min(1.0, _up(hi))
    if _contains_critical(x.lo, x.hi, -_HALF_PI):
        lo = -1.0
    else:
        lo = max(-1.0, _down(lo))
    return Interval(lo, hi)


def cos(x: Interval) -> Interval:
    if x.hi - x.lo >= _TWO_PI:
        return Interval(-1.0, 1.0)
    c_lo = math.cos(x.lo)
    c_hi = math.cos(x.hi)
    lo = min(c_lo, c_hi)
    hi = max(c_lo, c_hi)
    if _contains_critical(x.lo, x.hi, 0.0):
        hi = 1.0
    else:
        hi = min(1.0, _up(hi))
    if _contains_critical(x.lo, x.hi, math.pi):
        lo = -1.0
    else:
        lo = max(-1.0, _down(lo))
    return Interval(lo, hi)


# the total operations as operators, so that interval code reads as float
# code does (see ``box_code``)
Interval.__add__, Interval.__sub__, Interval.__mul__ = add, sub, mul
Interval.__neg__, Interval.__pow__ = neg, power


def _defined(fn):
    """``fn`` of intervals, raising DomainError where it returns None."""
    def checked(*args):
        if (out := fn(*args)) is None:
            raise ex.DomainError(f"{fn.__name__} undefined on this box")
        return out
    return checked


_BOX = dict(_sin=sin, _cos=cos, _exp=exp, _log=_defined(log),
            _sqrt=_defined(sqrt), _div=_defined(div),
            _scale=lambda c, x: mul(Interval(c), x))


def box_code(es: Sequence[ex.Expr]):
    """One ``f(box) -> Interval | None`` per expression: the box code of
    ``expr._codegen``, its prelude included, on a sequence of intervals,
    one per variable, or None where the box touches a domain boundary of
    a sub-expression, or where a subtree without variables is undefined.
    A product with a constant is the product with its point interval."""
    fns = []
    for e in es:
        points, src = ex._box_source([e])
        namespace = dict(_BOX)
        namespace.update((name, Interval(c)) for name, c in points.items())
        try:
            exec(src, namespace)  # noqa: S102 - source is generated locally
        except ex.DomainError:
            fns.append(lambda box: None)
            continue

        def f(box, _f=namespace["_f"]):
            try:
                return _f(*box)[0]
            except ex.DomainError:
                return None
        fns.append(f)
    return fns
