"""Interval arithmetic with outward rounding.

Every primitive widens each result bound by a few ulps, so enclosures stay
sound without depending on the platform's rounding mode.  Partial operations
(division through zero, log at or below zero, square root of a negative)
return ``None`` instead of raising: callers must treat the box as undefined,
never as verified.
"""

from __future__ import annotations

import math

# 4 ulps per bound covers the worst-case error of every libm call we use.
_WIDEN_STEPS = 4

_INF = math.inf
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def _down(x: float) -> float:
    # +inf (an overflowed bound) steps down to finite floats: the exact
    # value it stands for is a real number above the largest float
    if x == -_INF:
        return x
    for _ in range(_WIDEN_STEPS):
        x = math.nextafter(x, -_INF)
    return x


def _up(x: float) -> float:
    if x == _INF:
        return x
    for _ in range(_WIDEN_STEPS):
        x = math.nextafter(x, _INF)
    return x


class Interval:
    """Closed interval [lo, hi] with lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"invalid interval bounds [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _widened(lo: float, hi: float) -> Interval:
    return Interval(_down(lo), _up(hi))


def add(x: Interval, y: Interval) -> Interval:
    return _widened(x.lo + y.lo, x.hi + y.hi)


def sub(x: Interval, y: Interval) -> Interval:
    return _widened(x.lo - y.hi, x.hi - y.lo)


def neg(x: Interval) -> Interval:
    return Interval(-x.hi, -x.lo)


def mul(x: Interval, y: Interval) -> Interval:
    # nan can only appear from 0 * inf combinations; those candidates carry
    # no information and are dropped.
    cands = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi]
    cands = [c for c in cands if not math.isnan(c)]
    return _widened(min(cands), max(cands))


def div(x: Interval, y: Interval) -> Interval | None:
    if y.lo <= 0.0 <= y.hi:
        return None
    cands = [x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi]
    cands = [c for c in cands if not math.isnan(c)]
    return _widened(min(cands), max(cands))


def _pow(v: float, n: int) -> float:
    try:
        return v ** n
    except OverflowError:
        return -_INF if v < 0.0 and n % 2 else _INF


def power(x: Interval, n: int) -> Interval:
    """x**n for integer n >= 0, using the monotone/even-power rule."""
    if n < 0:
        raise ValueError("negative integer exponent")
    if n == 0:
        return Interval(1.0, 1.0)
    if n == 1:
        return Interval(x.lo, x.hi)
    lo_n = _pow(x.lo, n)
    hi_n = _pow(x.hi, n)
    if n % 2 == 1:
        return _widened(lo_n, hi_n)
    if x.lo >= 0.0:
        return _widened(lo_n, hi_n)
    if x.hi <= 0.0:
        return _widened(hi_n, lo_n)
    return _widened(0.0, max(lo_n, hi_n))


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
    return Interval(max(0.0, _down(math.sqrt(x.lo))), _up(math.sqrt(x.hi)))


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
# code does (see expr.compile_interval)
Interval.__add__, Interval.__sub__, Interval.__mul__ = add, sub, mul
Interval.__neg__, Interval.__pow__ = neg, power
