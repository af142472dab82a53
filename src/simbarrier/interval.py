"""Interval arithmetic with outward rounding, on rows of intervals.

A ``Rows`` value holds one interval per row, ``[lo[r], hi[r]]``, in one
float array ``[lo, hi]``; the box code of ``expr.compile_interval`` runs
on them, so one call encloses an expression over a whole batch of boxes.
Every primitive widens each result bound by ``_WIDEN_STEPS`` ulps
(``np.nextafter``), so enclosures stay sound without depending on the
platform's rounding mode.

Each row gets the bits that the same primitive gives on that row's
interval alone, by the rules the batch code of ``expr`` follows:
- sums, differences, products, quotients and negation are elementwise
  numpy operations, which round as Python floats do; ``np.fmin`` and
  ``np.fmax`` pick a product's or quotient's bounds and drop the nan
  candidates of ``0 * inf`` and ``inf / inf``; the sign of a zero they
  pick does not matter, since widening moves it off zero;
- integer powers and ``sin``, ``cos``, ``exp`` and ``log`` run entry by
  entry on Python floats (libm), because numpy's vector ``power``,
  ``exp`` and ``log`` round differently; ``np.sqrt`` is correctly rounded,
  as ``math.sqrt`` is;
- 4 ulps per bound covers the worst-case error of every libm call used.

A row where an operation is undefined (a divisor interval through zero,
``log`` at or below zero, ``sqrt`` of a negative) gets nan bounds, and
every later operation keeps them nan: callers must treat such a row as
undefined, never as proved.  No primitive raises.

``Interval`` is one closed interval, the value type of one-box callers
(``expr.interval_eval``).
"""

from __future__ import annotations

import math

import numpy as np

# 4 ulps per bound covers the worst-case error of every libm call we use.
_WIDEN_STEPS = 4

_INF = math.inf
_NAN = math.nan
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


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


# the direction in which each bound widens, and the least value each bound
# of a non-negative result (exp, sqrt) can take
_OUTWARD = np.array([[-_INF], [_INF]])
_NON_NEGATIVE = np.array([[0.0], [-_INF]])
_UNIT = np.array([[-1.0], [1.0]])


def _widened(b: np.ndarray) -> Rows:
    # -inf stays; +inf (an overflowed bound) steps down to finite floats:
    # the exact value it stands for is a real number above the largest float
    for _ in range(_WIDEN_STEPS):
        b = np.nextafter(b, _OUTWARD)
    return Rows(b)


def _each(fn, b: np.ndarray, fallback) -> np.ndarray:
    """``fn`` on each entry as a Python float; ``fallback`` of the entries
    where it raises."""
    values = b.ravel().tolist()
    try:
        out = [fn(v) for v in values]
    except (ValueError, OverflowError):
        out = [fallback(fn, v) for v in values]
    return np.array(out, dtype=float).reshape(b.shape)


def _nan_if_raises(fn, v: float) -> float:
    try:
        return fn(v)
    except (ValueError, OverflowError):
        return _NAN


def _inf_if_overflows(fn, v: float) -> float:
    try:
        return fn(v)
    except OverflowError:
        return _INF


class Rows:
    """Intervals ``[lo[r], hi[r]]``, one per row: ``b`` is the float array
    ``[lo, hi]`` of shape (2, 1), a constant broadcast over the rows, or
    (2, number of rows)."""

    __slots__ = ("b",)

    def __init__(self, b: np.ndarray):
        self.b = b

    @property
    def lo(self) -> np.ndarray:
        return self.b[0]

    @property
    def hi(self) -> np.ndarray:
        return self.b[1]

    def __add__(x, y: Rows) -> Rows:
        return _widened(x.b + y.b)

    def __sub__(x, y: Rows) -> Rows:
        return _widened(x.b - y.b[::-1])

    def __neg__(x) -> Rows:
        return Rows(-x.b[::-1])

    def __mul__(x, y: Rows) -> Rows:
        return _widened(_hull(x.b[:, None] * y.b[None, :]))

    def __pow__(x, n: int) -> Rows:
        """x**n for integer n >= 0, using the monotone/even-power rule."""
        if n < 0:
            raise ValueError("negative integer exponent")
        if n == 0:
            return Rows(np.where(np.isnan(x.b), _NAN, 1.0))
        if n == 1:
            return x
        p = _power(x.b, n)
        if n % 2 == 1:
            return _widened(p)
        above, below = x.b[0] >= 0.0, x.b[1] <= 0.0
        # a row through zero: [0, max]; an undefined row stays nan
        through = np.array([np.where(np.isnan(x.b[0]), _NAN, 0.0),
                            np.maximum(p[0], p[1])])
        return _widened(np.where(above, p, np.where(below, p[::-1], through)))


def _hull(c: np.ndarray) -> np.ndarray:
    """The least and the greatest of the (2, 2, k) candidates of a product
    or quotient, per row; a nan candidate (from 0 * inf or inf / inf)
    carries no information and is dropped, so only a row of four nans
    stays nan."""
    c = c.reshape(4, -1)
    return np.array([np.fmin.reduce(c, 0), np.fmax.reduce(c, 0)])


def _power(b: np.ndarray, n: int) -> np.ndarray:
    def pow_n(v: float) -> float:
        return v ** n

    def overflowed(_fn, v: float) -> float:
        try:
            return v ** n
        except OverflowError:
            return -_INF if v < 0.0 and n % 2 else _INF

    return _each(pow_n, b, overflowed)


def point(c: float) -> Rows:
    """The point interval [c, c], broadcast over every row."""
    return Rows(np.array([[c], [c]]))


def div(x: Rows, y: Rows) -> Rows:
    """x / y; nan on rows where y contains zero."""
    through_zero = (y.b[0] <= 0.0) & (0.0 <= y.b[1])
    out = _widened(_hull(x.b[:, None] / y.b[None, :]))
    return Rows(np.where(through_zero, _NAN, out.b))


def exp(x: Rows) -> Rows:
    out = _widened(_each(math.exp, x.b, _inf_if_overflows))
    return Rows(np.maximum(_NON_NEGATIVE, out.b))


def log(x: Rows) -> Rows:
    """log x; nan on rows that reach zero or below."""
    undefined = ~(x.b[0] > 0.0)
    out = _widened(_each(math.log, np.where(undefined, 1.0, x.b), _nan_if_raises))
    return Rows(np.where(undefined, _NAN, out.b))


def sqrt(x: Rows) -> Rows:
    """sqrt x; nan on rows that reach below zero."""
    out = _widened(np.sqrt(x.b))
    return Rows(np.where(x.b[0] < 0.0, _NAN, np.maximum(_NON_NEGATIVE, out.b)))


def _contains_critical(b: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    # True where some offset + 2*k*pi lies in [lo, hi], one row of the
    # result per offset.  The test runs on a slightly widened interval, so
    # a borderline miss errs toward inclusion (a wider enclosure), which
    # keeps the result sound.
    lo, hi = _widened(b).b
    k_min = np.ceil((lo - offsets) / _TWO_PI)
    return offsets + k_min * _TWO_PI <= hi


def _trig(fn, x: Rows, trough: float, peak: float) -> Rows:
    """sin or cos: the endpoint values, widened, or -1 and +1 where a
    trough or a peak lies in the interval; [-1, 1] on rows 2*pi wide or
    wider."""
    f = _each(fn, x.b, _nan_if_raises)
    out = _widened(np.array([np.minimum(f[0], f[1]), np.maximum(f[0], f[1])])).b
    out = np.array([np.maximum(-1.0, out[0]), np.minimum(1.0, out[1])])
    out = np.where(_contains_critical(x.b, np.array([[trough], [peak]])),
                   _UNIT, out)
    return Rows(np.where(x.b[1] - x.b[0] >= _TWO_PI, _UNIT, out))


def sin(x: Rows) -> Rows:
    return _trig(math.sin, x, -_HALF_PI, _HALF_PI)


def cos(x: Rows) -> Rows:
    return _trig(math.cos, x, math.pi, 0.0)
