import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import interval_reference as iv
from interval_reference import Interval


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


# ---------------------------------------------------------------------------
# the row primitives of simbarrier.interval: the same oracles, one row per
# interval, and the scalar reference bit for bit

from hypothesis import example  # noqa: E402

from simbarrier import expr as ex  # noqa: E402
from simbarrier import interval as rows_iv  # noqa: E402

from conftest import rand_expr  # noqa: E402

# bounds of every kind: finite, signed zeros, the smallest subnormals, and
# magnitudes whose sums, products and powers overflow to inf
_bound = st.one_of(_finite, st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, -1.5]))


def _rows(pairs) -> rows_iv.Rows:
    return rows_iv.Rows(np.array([[min(a, b) for a, b in pairs],
                                  [max(a, b) for a, b in pairs]]))


def _row(rows: rows_iv.Rows, r: int) -> Interval:
    return Interval(min(rows.lo[r], rows.hi[r]), max(rows.lo[r], rows.hi[r]))


def _misses(out: rows_iv.Rows, r: int, lo, hi) -> bool:
    """Row r of out does not enclose [lo, hi] (an infinite bound encloses
    everything on its side), or its bounds are out of order."""
    a, b = float(out.lo[r]), float(out.hi[r])
    return (math.isnan(a) or math.isnan(b) or a > b
            or not ((a == -math.inf or a <= lo) and (b == math.inf or b >= hi)))


def _arithmetic_misses(xs, ys, n: int) -> list[str]:
    """The rows where the row primitives' +, -, *, /, ** n and ** 2 miss
    the exact range of the rationals, with a nan quotient required where
    the divisor reaches zero."""
    x, y = _rows(xs), _rows(ys)
    misses = []
    with np.errstate(all="ignore"):
        outs = {"add": (x + y, lambda p, q: p + q), "sub": (x - y, lambda p, q: p - q),
                "mul": (x * y, lambda p, q: p * q)}
        quotient = rows_iv.div(x, y)
        powers = {k: x ** k for k in (n, 2)}
    for r in range(len(xs)):
        xr, yr = _row(x, r), _row(y, r)
        for name, (out, exact) in outs.items():
            if _misses(out, r, *_exact_range(exact, xr, yr)):
                misses.append(f"{name} row {r}")
        if yr.lo <= 0.0 <= yr.hi:
            if not (np.isnan(quotient.lo[r]) and np.isnan(quotient.hi[r])):
                misses.append(f"div row {r} is defined")
        elif _misses(quotient, r, *_exact_range(lambda p, q: p / q, xr, yr)):
            misses.append(f"div row {r}")
        for k, power in powers.items():
            lo_k, hi_k = Fraction(xr.lo) ** k, Fraction(xr.hi) ** k
            if k == 0:
                exact = (1, 1)
            elif k % 2 == 1 or xr.lo >= 0.0:
                exact = (lo_k, hi_k)
            elif xr.hi <= 0.0:
                exact = (hi_k, lo_k)
            else:
                exact = (0, max(lo_k, hi_k))
            if _misses(power, r, *exact):
                misses.append(f"pow {k} row {r}")
    return misses


@given(st.lists(st.tuples(_bound, _bound, _bound, _bound), min_size=1,
                max_size=12), st.integers(0, 7))
@settings(max_examples=300)
@example([(0.1, 0.1, 0.2, 0.2), (-0.0, 0.0, -1.0, 1.0), (1e308, 1e308, 1e308, 1e308),
          (-1e308, 2.0, -0.0, 5e-324)], 3)
def test_row_arithmetic_encloses_exact_result(quads, n):
    xs = [(a, b) for a, b, _, _ in quads]
    ys = [(c, d) for _, _, c, d in quads]
    assert _arithmetic_misses(xs, ys, n) == []


@given(st.lists(st.tuples(_bound, _bound), min_size=1, max_size=12),
       _finite.filter(bool))
def test_scale_is_the_product_with_the_point(pairs, c):
    # two products and one rounding, bit for bit the four-candidate hull
    x = _rows(pairs)
    with np.errstate(all="ignore"):
        want = rows_iv.Rows(np.array([[c], [c]])) * x
        assert rows_iv.scale(c, x).b.tobytes() == want.b.tobytes()


_unbounded = st.one_of(_bound, st.sampled_from([math.inf, -math.inf]))


@given(st.lists(st.tuples(_unbounded, _unbounded), min_size=1, max_size=12),
       _finite.filter(bool))
@example([(-math.inf, math.inf), (math.inf, math.inf), (-0.0, 0.0),
          (-math.inf, -1e308)], -3.0)
@example([(1e308, math.inf), (-5e-324, 5e-324)], 1e-300)
def test_quotient_is_the_division_by_the_point(pairs, c):
    # two quotients and one rounding: bit for bit the four-candidate hull
    # of div by [c, c] on every row whose bounds are numbers, infinite
    # ones included; a last row of nan bounds stays nan
    x = rows_iv.Rows(np.hstack([_rows(pairs).b, [[math.nan], [math.nan]]]))
    with np.errstate(all="ignore"):
        got = rows_iv.quotient(x, c).b
        want = rows_iv.div(x, rows_iv.Rows(np.array([[c], [c]]))).b
    assert got[:, :-1].tobytes() == want[:, :-1].tobytes()
    assert np.isnan(got[:, -1]).all() and np.isnan(want[:, -1]).all()


def _libm_cases(rng, count: int):
    """Rows for sin/cos (centres up to 1e15), exp (underflow to 0 and
    overflow to inf), and log/sqrt (positive rows, rows from +-0, rows
    through zero)."""
    centre = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-8, 15, count)
    width = 10.0 ** rng.uniform(-16, 1, count) * np.maximum(1.0, np.abs(centre))
    trig = list(zip(centre - width, centre + width)) + [(-0.0, 0.0), (0.0, 7.0)]
    exps = [tuple(sorted(rng.uniform(-760.0, 720.0, 2))) for _ in range(count)]
    exps += [(-0.0, 0.0), (700.0, 1000.0)]
    pos = [tuple(sorted(10.0 ** rng.uniform(-300.0, 300.0, 2))) for _ in range(count)]
    pos += [(-0.0, 4.0), (0.0, 2.0), (-1.0, 2.0), (-3.0, -2.0)]
    return trig, exps, pos


def _libm_misses(mp, trig, exps, pos) -> list[str]:
    """The rows where the row primitives' sin, cos, exp, log and sqrt miss
    the mpmath range, with nan required where log or sqrt is undefined."""
    misses = []
    with np.errstate(all="ignore"):
        x = _rows(trig)
        sins, coss = rows_iv.sin(x), rows_iv.cos(x)
        exp_out = rows_iv.exp(_rows(exps))
        p = _rows(pos)
        logs, roots = rows_iv.log(p), rows_iv.sqrt(p)
    for r in range(len(trig)):
        xr = _row(x, r)
        if _misses(sins, r, *_mp_range(mp, mp.sin, xr, mp.pi / 2, -mp.pi / 2)):
            misses.append(f"sin row {r}")
        if _misses(coss, r, *_mp_range(mp, mp.cos, xr, 0, mp.pi)):
            misses.append(f"cos row {r}")
    for r, (a, b) in enumerate(exps):
        if _misses(exp_out, r, mp.exp(a), mp.exp(b)):
            misses.append(f"exp row {r}")
    for r, (a, b) in enumerate(pos):
        if not a > 0.0:
            if not np.isnan(logs.lo[r]):
                misses.append(f"log row {r} is defined")
        elif _misses(logs, r, mp.log(a), mp.log(b)):
            misses.append(f"log row {r}")
        if a < 0.0:
            if not np.isnan(roots.lo[r]):
                misses.append(f"sqrt row {r} is defined")
        elif _misses(roots, r, mp.sqrt(abs(a)), mp.sqrt(b)):
            misses.append(f"sqrt row {r}")
    return misses


def test_row_libm_functions_enclose_mpmath_values():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        cases = _libm_cases(np.random.default_rng(7), 1000)
        assert _libm_misses(mpmath.mp, *cases) == []


def test_unwidened_primitives_fail_the_oracles(monkeypatch):
    """The oracles catch a primitive that rounds to nearest: with the
    outward rounding switched off, the one-ulp step of the correctly
    rounded operations and the widening of the libm calls, both report
    bounds that fail to enclose, the exact-rational one for each of
    +, -, * and / and for the square."""
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(rows_iv, "_ROUND_STEPS", 0)
    monkeypatch.setattr(rows_iv, "_WIDEN_STEPS", 0)
    misses = _arithmetic_misses([(0.1, 0.1), (1.0, 3.0), (1.0, 1.0)],
                                [(0.2, 0.2), (3.0, 7.0), (0.1, 0.1)], 3)
    ops = {miss.split(" row")[0] for miss in misses}
    assert {"add", "sub", "mul", "div", "pow 2", "pow 3"} <= ops, misses
    with mpmath.workdps(50):
        cases = _libm_cases(np.random.default_rng(7), 200)
        assert _libm_misses(mpmath.mp, *cases)


def _partial(rng, e: ex.Expr) -> ex.Expr:
    """e, or e inside an operation that is undefined on some boxes, or
    inside exp, which rand_expr does not draw."""
    v = ex.Var(int(rng.integers(2)))
    match int(rng.integers(7)):
        case 0:
            return ex.Ln(ex.Add(e, v))
        case 1:
            return ex.Sqrt(ex.Sub(v, e))
        case 2:
            return ex.Div(e, v)
        case 3:
            return ex.Pow(ex.Sqrt(ex.Sub(v, e)), 0)
        case 4:
            return ex.Mul(ex.Exp(e), v)
    return e


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_rows_equal_scalar_reference(seed):
    """compile_interval over a batch of boxes gives, row by row, the bits
    of the scalar reference on that box alone, and nan bounds exactly
    where the reference finds the box outside a domain."""
    rng = np.random.default_rng(seed)
    es = [_partial(rng, rand_expr(rng, 2, 4)) for _ in range(int(rng.integers(1, 4)))]
    centre = rng.uniform(-2.0, 2.0, (12, 2))
    half = rng.uniform(0.0, 0.5, (12, 2)) * (rng.random((12, 2)) < 0.8)
    lo, hi = centre - half, centre + half
    lo[0], hi[0] = (-0.0, 0.0), (0.0, 0.0)          # signed zeros
    lo[1], hi[1] = (-1.0, -0.5), (1.0, 0.5)          # through zero
    # magnitudes where powers and exp overflow, in a middle row
    lo[5], hi[5] = (-1e200, 700.0), (1e150, 1e250)
    enc_lo, enc_hi = ex.compile_interval(es)(lo, hi)
    reference = iv.box_code(es)
    for r in range(len(lo)):
        box = [Interval(a, b) for a, b in zip(lo[r], hi[r])]
        for i, f in enumerate(reference):
            with np.errstate(all="ignore"):  # row 5 overflows to inf
                want = f(box)
            if want is None:
                assert np.isnan(enc_lo[r, i]) and np.isnan(enc_hi[r, i])
            else:
                assert (enc_lo[r, i].hex(), enc_hi[r, i].hex()) == \
                    (want.lo.hex(), want.hi.hex())


# ---------------------------------------------------------------------------
# interval.each, the per-entry rule under batch, box and few-row code,
# against a plain per-item loop

def _item_loop(fn, values, fallback):
    out, failed = [], []
    for i, v in enumerate(values):
        try:
            out.append(fn(v))
        except rows_iv.MATH_ERRORS:
            out.append(fallback(v))
            failed.append(i)
    return out, failed


def _raise_or_add_one(v):
    """v + 1 for a float; an item that is one of ``MATH_ERRORS`` raises it."""
    if isinstance(v, type):
        raise v("raised by the item")
    return v + 1.0


def _bits(results) -> list:
    return [struct.pack("<d", r) if isinstance(r, float) else r for r in results]


_items = st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0]),
    st.sampled_from(rows_iv.MATH_ERRORS)), max_size=12)


@given(_items)
@example([ValueError, 1.0, 2.0])                       # raises first
@example([1.0, ZeroDivisionError, math.nan, 2.0])      # raises in the middle
@example([math.inf, -math.inf, 2.0, OverflowError])    # raises last
@example([OverflowError, ValueError, ZeroDivisionError])
@example([])
def test_each_is_the_per_item_loop(values):
    substituted = []

    def fallback(v):
        substituted.append(v)
        return ("substitute", v)
    want, want_failed = _item_loop(_raise_or_add_one, values,
                                   lambda v: ("substitute", v))
    got, failed = rows_iv.each(_raise_or_add_one, values, fallback)
    assert _bits(got) == _bits(want)
    assert failed == want_failed
    assert substituted == [values[i] for i in failed]


def test_each_lets_other_errors_through():
    # only the math errors are an entry's failure; anything else is a bug
    with pytest.raises(TypeError):
        rows_iv.each(lambda v: v + 1.0, [1.0, None], lambda v: 0.0)
