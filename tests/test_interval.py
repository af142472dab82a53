import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbarrier import interval as iv
from simbarrier.interval import Interval


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_add_sub_contain_samples():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a, b = sorted(rng.uniform(-5, 5, 2))
        c, d = sorted(rng.uniform(-5, 5, 2))
        x = Interval(a, b)
        y = Interval(c, d)
        for _ in range(5):
            px = rng.uniform(a, b)
            py = rng.uniform(c, d)
            assert px + py in iv.add(x, y)
            assert px - py in iv.sub(x, y)
            assert px * py in iv.mul(x, y)


def test_div_through_zero_is_undefined():
    assert iv.div(Interval(1, 2), Interval(-1, 1)) is None
    assert iv.div(Interval(1, 2), Interval(0, 1)) is None
    q = iv.div(Interval(1, 2), Interval(2, 4))
    assert 0.25 in q and 1.0 in q


def test_power_even_rule_is_tight():
    sq = iv.power(Interval(-2, 1), 2)
    assert sq.lo <= 0.0 <= sq.hi
    assert 4.0 in sq
    assert sq.hi - sq.lo <= 4.0 + 1e-12  # not the naive [-2,1]*[-2,1]


def test_power_odd_and_zero():
    cube = iv.power(Interval(-2, 1), 3)
    assert -8.0 in cube and 1.0 in cube
    one = iv.power(Interval(-5, 5), 0)
    assert one.lo == one.hi == 1.0


def test_sin_cos_critical_points():
    s = iv.sin(Interval(0.0, math.pi))
    assert s.lo <= 0.0 and s.hi == 1.0
    c = iv.cos(Interval(-0.5, 0.5))
    assert c.hi == 1.0 and c.lo <= math.cos(0.5)
    wide = iv.sin(Interval(0.0, 100.0))
    assert wide == Interval(-1.0, 1.0)


def test_log_sqrt_domains():
    assert iv.log(Interval(-1, 2)) is None
    assert iv.log(Interval(0, 2)) is None
    assert iv.sqrt(Interval(-0.001, 4)) is None
    r = iv.sqrt(Interval(0.0, 4.0))
    assert r.lo == 0.0 and 2.0 in r
    lg = iv.log(Interval(1.0, math.e))
    assert 0.0 in lg and 1.0 in lg


def test_exp_overflow_becomes_inf():
    e = iv.exp(Interval(700.0, 1000.0))
    assert e.hi == math.inf
    assert e.lo > 0.0


@given(st.floats(-10, 10), st.floats(0, 3), st.floats(0, 3),
       st.floats(0, 1), st.floats(0, 1))
def test_inclusion_monotonicity_mul(center, w1, grow_lo, t, u):
    inner = Interval(center - w1, center + w1)
    outer = Interval(inner.lo - grow_lo, inner.hi + grow_lo)
    other_inner = Interval(-1.0 + t, 1.0 - t * 0.5)
    other_outer = Interval(-1.5 - u, 1.5 + u)
    small = iv.mul(inner, other_inner)
    big = iv.mul(outer, other_outer)
    assert big.lo <= small.lo and small.hi <= big.hi


# ---------------------------------------------------------------------------
# oracles: exact rationals for the arithmetic, mpmath for the libm functions

_finite = st.floats(allow_nan=False, allow_infinity=False)


def _interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


def _encloses(result: Interval, lo, hi) -> bool:
    """result contains the exact range [lo, hi] (Fractions or mpf values);
    an infinite bound of result contains everything on its side."""
    return ((result.lo == -math.inf or result.lo <= lo)
            and (result.hi == math.inf or result.hi >= hi))


def _exact_range(op, x: Interval, y: Interval):
    values = [op(Fraction(a), Fraction(b)) for a in (x.lo, x.hi)
              for b in (y.lo, y.hi)]
    return min(values), max(values)


@given(_finite, _finite, _finite, _finite)
@settings(max_examples=500)
def test_arithmetic_encloses_exact_result(a, b, c, d):
    x, y = _interval(a, b), _interval(c, d)
    for op, exact in ((iv.add, lambda p, q: p + q),
                      (iv.sub, lambda p, q: p - q),
                      (iv.mul, lambda p, q: p * q)):
        assert _encloses(op(x, y), *_exact_range(exact, x, y)), op.__name__
    q = iv.div(x, y)
    if y.lo <= 0.0 <= y.hi:
        assert q is None
    else:
        assert _encloses(q, *_exact_range(lambda p, r: p / r, x, y))


@given(_finite, _finite, st.integers(0, 7))
@settings(max_examples=500)
def test_power_encloses_exact_result(a, b, n):
    x = _interval(a, b)
    lo_n, hi_n = Fraction(x.lo) ** n, Fraction(x.hi) ** n
    if n == 0:
        exact = (1, 1)
    elif n % 2 == 1 or x.lo >= 0.0:
        exact = (lo_n, hi_n)
    elif x.hi <= 0.0:
        exact = (hi_n, lo_n)
    else:
        exact = (0, max(lo_n, hi_n))
    assert _encloses(iv.power(x, n), *exact)


def _mp_range(mp, fn, x: Interval, peak: float, trough: float):
    """Exact range of sin or cos over x: the endpoint values, and +1 or -1
    when a peak + 2k*pi or trough + 2k*pi lies in x."""
    a, b = mp.mpf(x.lo), mp.mpf(x.hi)
    values = [fn(a), fn(b)]
    two_pi = 2 * mp.pi
    lo, hi = min(values), max(values)
    if mp.ceil((a - peak) / two_pi) * two_pi + peak <= b:
        hi = mp.mpf(1)
    if mp.ceil((a - trough) / two_pi) * two_pi + trough <= b:
        lo = mp.mpf(-1)
    return lo, hi


def _check_trig(mp, x: Interval):
    assert _encloses(iv.sin(x), *_mp_range(mp, mp.sin, x, mp.pi / 2, -mp.pi / 2)), x
    assert _encloses(iv.cos(x), *_mp_range(mp, mp.cos, x, 0, mp.pi)), x


def test_libm_functions_enclose_mpmath_values():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    with mpmath.workdps(60):
        mp = mpmath.mp
        for _ in range(1000):
            # sin and cos: centres up to 1e15, widths from one ulp up
            centre = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 15))
            width = float(10.0 ** rng.uniform(-16, 1)) * max(1.0, abs(centre))
            _check_trig(mp, Interval(centre - width, centre + width))
            # exp: underflow to 0 and overflow to inf included
            e = _interval(*rng.uniform(-760.0, 720.0, 2))
            assert _encloses(iv.exp(e), mp.exp(e.lo), mp.exp(e.hi)), e
            # log and sqrt on positive intervals of any magnitude
            pos = _interval(*(10.0 ** rng.uniform(-300.0, 300.0, 2)))
            assert _encloses(iv.log(pos), mp.log(pos.lo), mp.log(pos.hi)), pos
            assert _encloses(iv.sqrt(pos), mp.sqrt(pos.lo), mp.sqrt(pos.hi)), pos
            zero = Interval(0.0, pos.hi)
            assert _encloses(iv.sqrt(zero), 0, mp.sqrt(zero.hi)), zero


def test_sin_cos_near_extrema_at_large_arguments():
    # narrow intervals around the float nearest to pi/2 + 2k*pi (and the
    # other three extrema) for |x| up to 1e15: the enclosure must reach the
    # extremum exactly when the interval contains it
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    with mpmath.workdps(60):
        mp = mpmath.mp
        for _ in range(1500):
            k = int(rng.choice([-1, 1]) * 10.0 ** rng.uniform(0, 14.2))
            offset = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            c = float(mp.pi * (2 * k + offset))
            near = [c]
            for _ in range(3):
                near = [math.nextafter(near[0], -math.inf)] + near + \
                       [math.nextafter(near[-1], math.inf)]
            i, j = sorted(rng.integers(0, len(near), 2))
            _check_trig(mp, Interval(near[i], near[j]))
