import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simbarrier import expr as ex
from simbarrier.interval import Interval

from conftest import rand_expr


class TestParse:
    def test_grammar_forced_structure(self):
        e = ex.parse("-sin(x) - y", ["x", "y"])
        assert e == ex.Sub(ex.Neg(ex.Sin(ex.Var(0))), ex.Var(1))

    def test_power_plus_constant(self):
        e = ex.parse("x^2 + 1", ["x"])
        assert e == ex.Add(ex.Pow(ex.Var(0), 2), ex.Const(1.0))

    def test_incomplete_expression_reports_position(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("x +", ["x"])
        assert err.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(ex.ParseError, match="unknown identifier"):
            ex.parse("x + q", ["x"])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x^y", ["x", "y"])

    def test_precedence(self):
        vars_ = ["x", "y"]
        assert ex.evaluate(ex.parse("2 + 3*4", vars_), [0, 0]) == 14
        assert ex.evaluate(ex.parse("-x^2", vars_), [3, 0]) == -9
        assert ex.evaluate(ex.parse("2*3 - 4/2", vars_), [0, 0]) == 4
        assert ex.evaluate(ex.parse("1.5e2 + 1", vars_), [0, 0]) == 151.0

    @pytest.mark.parametrize("text", ["y + 0*1e400", "1" + "0" * 400])
    def test_literal_outside_float_range_rejected(self, text):
        with pytest.raises(ex.ParseError, match="outside the float range"):
            ex.parse(text, ["x", "y"])


class TestEvaluate:
    def test_trivial_values(self):
        assert ex.evaluate(ex.parse("sin(x)", ["x"]), [0.0]) == 0.0
        assert ex.evaluate(ex.parse("ln(x^2 + 1)", ["x"]), [0.0]) == 0.0
        pend = ex.parse("-sin(x) - y", ["x", "y"])
        assert ex.evaluate(pend, [0.0, 0.0]) == 0.0

    def test_domain_errors_raise(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse("ln(x)", ["x"]), [-1.0])
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse("1/x", ["x"]), [0.0])
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse("sqrt(x)", ["x"]), [-4.0])

    def test_compiled_matches_tree_walk(self, rng):
        for _ in range(200):
            e = rand_expr(rng, 2, 4)
            fn = ex.compile_vector([e])
            pt = list(rng.uniform(-1.5, 1.5, 2))
            want = ex.evaluate(e, pt)
            assert fn(pt)[0] == pytest.approx(want, rel=1e-12, abs=1e-12)


_MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _partial_expr(rng, nvars: int) -> ex.Expr:
    """A random expression wrapped in one operation that is undefined, or
    overflows, somewhere: ln, sqrt, a division, exp or an integer power;
    or the power 0 of an undefined sqrt, which is 1.0 at nan."""
    e = rand_expr(rng, nvars, 3)
    v = ex.Var(int(rng.integers(nvars)))
    match int(rng.integers(8)):
        case 0:
            return ex.Ln(ex.Add(e, v))
        case 1:
            return ex.Sqrt(ex.Sub(v, e))
        case 2:
            return ex.Div(e, v)
        case 3:
            return ex.Div(ex.Sin(v), ex.Cos(e))
        case 4:
            return ex.Exp(ex.Mul(e, v))
        case 5:
            return ex.Pow(ex.Add(v, e), int(rng.integers(2, 5)))
        case 6:
            return ex.Pow(ex.Sqrt(ex.Sub(v, e)), 0)
    return ex.Mul(ex.Sin(e), ex.Pow(v, 3))


def _per_row(fn, points):
    """fn on each row as Python floats: its values, or the error it raises."""
    out = []
    for row in points:
        try:
            out.append(np.array(fn(row.tolist()), dtype=float))
        except _MATH_ERRORS as err:
            out.append(type(err))
    return out


def _same_bits_or_nan(got: np.ndarray, want: np.ndarray) -> bool:
    """nan where want is nan, of either sign, and want's bits elsewhere."""
    nan = np.isnan(want)
    return bool((np.isnan(got) == nan).all()) and \
        got[~nan].tobytes() == want[~nan].tobytes()


class TestCompileBatch:
    # coordinates that hit every partial operation's edge: zeros of both
    # signs, negatives, and magnitudes where exp and powers overflow
    COORDS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.75, 720.0, -720.0, 1e120, -1e160]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    @example(38501)  # 0 * inf meets a nan of the other sign
    def test_rows_equal_compile_vector(self, seed):
        rng = np.random.default_rng(seed)
        es = [_partial_expr(rng, 2) for _ in range(int(rng.integers(1, 4)))]
        jacobian = [ex.differentiate(e, j) for e in es for j in range(2)]
        points = np.array(rng.choice(self.COORDS, (16, 2)))
        points[:3] = rng.uniform(-3.0, 3.0, (3, 2))
        with np.errstate(all="ignore"):  # numpy warns where floats give inf
            self.check(es, points)
            self.check(jacobian, points)

    @staticmethod
    def check(exprs, points):
        """compile_batch over the points against compile_vector per row:
        the same bits where the point code returns a number, a nan of
        either sign where it returns nan (numpy and Python floats keep
        different operands where nans of opposite sign meet), an all-nan
        row where it raises, and no error from the batch."""
        want = _per_row(ex.compile_vector(exprs), points)
        batch = ex.compile_batch(exprs)
        # the points twice: more rows than compile_batch runs row by row,
        # so the batch code runs; each row alone runs the point code
        twice = np.concatenate([points, points])
        assert len(twice) > ex._FEW_ROWS
        got = batch(twice)
        assert got.shape == (len(twice), len(exprs))
        assert got[len(points):].tobytes() == got[:len(points)].tobytes()
        for r, expected in enumerate(want):
            if isinstance(expected, type):
                assert np.isnan(got[r]).all()
            else:
                assert _same_bits_or_nan(got[r], expected)
            # each row alone gives its row of the whole batch
            assert _same_bits_or_nan(batch(points[r:r + 1])[0], got[r])

    # a few rows run the point code row by row, many the batch code
    COPIES = (1, 2 * ex._FEW_ROWS)

    def test_constant_entries_and_shape(self):
        batch = ex.compile_batch([ex.parse("2/3", ["x"]), ex.parse("x^2", ["x"])])
        for copies in self.COPIES:
            out = batch(np.array([[0.1], [3.0]] * copies))
            assert out.shape == (2 * copies, 2)
            assert out[:, 0].tolist() == [2.0 / 3.0] * 2 * copies
            assert out[:, 1].tolist() == [0.1 ** 2, 9.0] * copies

    def test_zero_divisor_gives_nan_rows(self):
        batch = ex.compile_batch([ex.parse("1/x", ["x"]), ex.parse("x", ["x"])])
        for copies in self.COPIES:
            out = batch(np.array([[2.0], [-0.0]] * copies))
            assert out[0].tolist() == [0.5, 2.0] and np.isnan(out[1]).all()
            # a zero constant divisor, and a subtree or an entry without
            # variables that raises, make every row nan
            for texts in (["x/0"], ["x + 1/(1 - 1)"], ["x", "1/(1 - 1)"]):
                batch_c = ex.compile_batch([ex.parse(t, ["x"]) for t in texts])
                assert np.isnan(batch_c(np.array([[1.0], [2.0]] * copies))).all()

    def test_sin_cos_sqrt_columns_warn_of_nothing(self):
        # outside np.errstate: an infinite angle, a negative square root
        # and a nan give nan rows as the point code does, and no
        # RuntimeWarning gets out
        es = [ex.parse(t, ["x", "y"])
              for t in ("sin(x) * y", "cos(x) + y", "sqrt(x) - y")]
        points = np.array([[0.5, 1.0], [math.inf, 1.0], [-math.inf, 2.0],
                           [-2.0, 1.0], [math.nan, 1.0], [-0.0, 3.0],
                           [1e300, -1.0], [3.0, math.nan], [2.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(es, points)
            got = ex.compile_batch(es)(np.concatenate([points, points]))
        assert np.isnan(got[[1, 2, 3, 4]]).all()

    def test_finite_columns_are_numpy_calls(self, rng):
        x = rng.uniform(-50.0, 50.0, 3 * ex._FEW_ROWS)
        got = ex.compile_batch([ex.parse(t, ["x"]) for t in
                                ("sin(x)", "cos(x)", "sqrt(x^2)")])(x[:, None])
        assert got[:, 0].tobytes() == np.sin(x).tobytes()
        assert got[:, 1].tobytes() == np.cos(x).tobytes()
        assert got[:, 2].tobytes() == np.sqrt(x ** 2).tobytes()

    def test_constant_subtrees_fold_to_the_point_values(self):
        # subtrees without variables are folded once, at compile time, to
        # the float the point code gives; one that raises, overflows to
        # inf or gives nan is left to the point code
        texts = ["x / 8^2", "(0.1 + 0.2) * x - sqrt(2)", "x * ln(3) / exp(2)",
                 "sin(1) * cos(-0.5) + x", "-(0.0 * 1) * x",
                 "x + 1e308 * 10 - 1e308 * 10", "x * 10^400",
                 "(1 - 1) / (2 - 2) + x"]
        es = [ex.parse(t, ["x"]) for t in texts]
        assert ex._codegen(es[0], "batch") == "(_v[0] / (64.0))"
        assert ex._codegen(es[2], "batch") == (
            f"((_v[0] * ({math.log(3)!r})) / ({math.exp(2)!r}))")
        points = np.array([[0.25], [-3.0], [1e10], [-0.0], [7.5]])
        with np.errstate(all="ignore"):
            for e in es:
                self.check([e], points)


class TestDifferentiate:
    @pytest.mark.parametrize("text,var,point,expected", [
        ("sin(x)", 0, [0.7], math.cos(0.7)),
        ("x^2*y", 0, [3.0, 5.0], 30.0),
        ("ln(x^2 + 1)", 0, [2.0], 4.0 / 5.0),
    ])
    def test_calculus_identities(self, text, var, point, expected):
        vars_ = ["x", "y"][: len(point)]
        d = ex.differentiate(ex.parse(text, vars_), var)
        assert ex.evaluate(d, point) == pytest.approx(expected, rel=1e-12)

    def test_sin_derivative_shape(self):
        d = ex.differentiate(ex.parse("sin(x)", ["x"]), 0)
        assert d == ex.Cos(ex.Var(0))

    def test_matches_central_differences(self, rng):
        # 1000 random expressions, the gradient-correctness bound
        h = 1e-5
        checked = 0
        for _ in range(1000):
            e = rand_expr(rng, 2, 3)
            var = int(rng.integers(2))
            d = ex.differentiate(e, var)
            pt = rng.uniform(-1.0, 1.0, 2)
            lo = pt.copy()
            hi = pt.copy()
            lo[var] -= h
            hi[var] += h
            f_hi = ex.evaluate(e, hi)
            f_lo = ex.evaluate(e, lo)
            sym = ex.evaluate(d, pt)
            if max(abs(f_hi), abs(f_lo), abs(sym)) > 1e3:
                continue  # wild third derivatives break the h^2 estimate
            cd = (f_hi - f_lo) / (2 * h)
            assert abs(sym - cd) <= 1e-5 * (1.0 + abs(sym))
            checked += 1
        assert checked >= 900


class TestIntervalEval:
    def test_square_enclosure(self):
        r = ex.interval_eval(ex.parse("x^2", ["x"]), [Interval(-2, 1)])
        assert r.lo <= 0.0 and r.hi >= 4.0
        assert r.hi - r.lo <= 4.0 + 1e-9

    def test_dependency_is_naive(self):
        r = ex.interval_eval(ex.parse("x - x", ["x"]), [Interval(0, 1)])
        assert r.lo <= -1.0 and r.hi >= 1.0
        assert r.hi - r.lo <= 2.0 + 1e-9

    def test_sine_range(self):
        r = ex.interval_eval(ex.parse("sin(x)", ["x"]), [Interval(0, math.pi)])
        assert r.lo <= 0.0 and r.hi >= 1.0

    def test_singularity_returns_undefined(self):
        assert ex.interval_eval(ex.parse("ln(x)", ["x"]), [Interval(-1, 1)]) is None
        assert ex.interval_eval(ex.parse("1/x", ["x"]), [Interval(-1, 1)]) is None

    # enclosures recorded, as float.hex, from the tree-walking evaluator
    # that the compiled box code replaced
    @pytest.mark.parametrize("text,box,lo,hi", [
        ("sin(x) + cos(y)", [(-0.5, 1.25), (2.0, 4.0)],
         "-0x1.7abba1d12c181p+0", "0x1.10d01d2678894p-1"),
        ("exp(x) * y", [(-0.5, 1.25), (2.0, 4.0)],
         "0x1.368b2fc6f9602p+0", "0x1.bec38edb0faf8p+3"),
        ("ln(x) - sqrt(y)", [(0.5, 1.25), (2.0, 4.0)],
         "-0x1.58b90bfbe8e85p+1", "-0x1.30e9f6d8be880p+0"),
        ("(x - y)^3 + x^2", [(-0.5, 1.25), (2.0, 4.0)],
         "-0x1.6c80000000017p+6", "0x1.240000000000cp+0"),
        ("x / y", [(-0.5, 1.25), (2.0, 4.0)],
         "-0x1.0000000000004p-2", "0x1.4000000000004p-1"),
        ("0.1 * 3 + x", [(-0.5, 1.25), (2.0, 4.0)],
         "-0x1.99999999999a4p-3", "0x1.8ccccccccccd2p+0"),
        ("sqrt(x)", [(-0.5, 1.25), (2.0, 4.0)], None, None),
        ("y / (x - 1)", [(-0.5, 1.25), (2.0, 4.0)], None, None),
    ])
    def test_recorded_enclosures(self, text, box, lo, hi):
        e = ex.parse(text, ["x", "y"])
        enc = ex.interval_eval(e, [Interval(a, b) for a, b in box])
        if lo is None:
            assert enc is None
        else:
            assert (enc.lo.hex(), enc.hi.hex()) == (lo, hi)

    @pytest.mark.parametrize("e", [ex.Mul(ex.Const(0.1), ex.Const(3.0)),
                                   ex.Div(ex.Const(1.0), ex.Const(3.0))])
    def test_constants_are_not_folded(self, e):
        # 0.1 * 3.0 and 1.0 / 3.0 round in floats; their enclosures must
        # widen past the rounded value on both sides
        enc = ex.interval_eval(e, [])
        value = ex.evaluate(e, [])
        assert enc.lo < value < enc.hi

    def test_soundness_1000_random_triples(self, rng):
        for _ in range(1000):
            e = rand_expr(rng, 2, 4)
            center = rng.uniform(-2, 2, 2)
            half = rng.uniform(0, 0.5, 2)
            box = [Interval(c - w, c + w) for c, w in zip(center, half)]
            enc = ex.interval_eval(e, box)
            assert enc is not None  # generator keeps expressions total
            pt = [rng.uniform(b.lo, b.hi) for b in box]
            assert ex.evaluate(e, pt) in enc

    def test_inclusion_monotonicity(self, rng):
        for _ in range(300):
            e = rand_expr(rng, 2, 4)
            center = rng.uniform(-2, 2, 2)
            half = rng.uniform(0.01, 0.4, 2)
            grow = rng.uniform(0, 0.5, 2)
            inner = [Interval(c - w, c + w) for c, w in zip(center, half)]
            outer = [Interval(b.lo - g, b.hi + g) for b, g in zip(inner, grow)]
            enc_in = ex.interval_eval(e, inner)
            enc_out = ex.interval_eval(e, outer)
            assert enc_out.lo <= enc_in.lo and enc_in.hi <= enc_out.hi


def test_5000_term_sum_in_every_flavour():
    """A linear value tree of 5000 terms compiles in every flavour: the
    point and batch code equal a left fold bit for bit, and the box code
    encloses it."""
    n = 5000
    coeffs = np.linspace(-1.0, 1.0, n).tolist()
    tree = ex.Const(0.0)
    for i, c in enumerate(coeffs):
        tree = ex.Add(tree, ex.Mul(ex.Const(c), ex.Var(i)))
    rows = np.linspace(0.5, 2.0, 2 * n).reshape(2, n)
    want = []
    for row in rows.tolist():
        total = 0.0
        for c, x in zip(coeffs, row):
            total = total + c * x
        want.append(total)
    point = ex.compile_vector([tree])
    # a chunked sum as a term of another: the inner one must not disturb
    # the outer one's partial sum
    nested = ex.Add(tree, ex.Mul(ex.Const(2.0), tree))
    vector = ex.compile_vector([tree, nested])
    for row, total in zip(rows.tolist(), want):
        assert point(row)[0].hex() == total.hex()
        assert [v.hex() for v in vector(row)] == \
            [total.hex(), (total + 2.0 * total).hex()]
    assert ex.compile_batch([tree])(rows)[:, 0].tolist() == want
    for row, total in zip(rows.tolist(), want):
        assert total in ex.interval_eval(tree, [Interval(x) for x in row])
        wide = ex.interval_eval(tree, [Interval(x - 0.25, x + 0.25) for x in row])
        assert wide.lo < total < wide.hi


def test_1500_term_flow_differentiates_and_evaluates():
    """Differentiation and evaluation walk a sum down its left operands in
    a loop, so a flow as long as it is deep does not hit the recursion
    limit."""
    flow = ex.parse("x" + " + 0*x" * 1499, ["x", "y"])
    assert ex.evaluate(flow, [2.0, 0.0]) == 2.0
    assert ex.differentiate(flow, 0) == ex.Const(1.0)
    assert ex.differentiate(flow, 1) == ex.Const(0.0)
    # a derivative that is itself a 1500-term sum: 1 + y + y + ...
    flow = ex.parse("x" + " + x*y" * 1499, ["x", "y"])
    d = ex.differentiate(flow, 0)
    assert ex.evaluate(d, [3.0, 0.5]) == 1.0 + 1499 * 0.5
    assert ex.compile_vector([d])([3.0, 0.5])[0] == 1.0 + 1499 * 0.5


def test_short_sums_keep_their_trees_and_floats():
    """The derivatives of 300 random expressions (2443 sums and
    differences) and the values of both at a random point, as the
    recursive walks gave them: a SHA-256 of their reprs and float.hex
    values, recorded before the sum walks became loops."""
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    for _ in range(300):
        e = rand_expr(rng, 3, 5)
        env = list(rng.uniform(-2.0, 2.0, 3))
        for tree in [e] + [ex.differentiate(e, j) for j in range(3)]:
            h.update(repr(tree).encode())
            h.update(float(ex.evaluate(tree, env)).hex().encode())
    assert h.hexdigest() == \
        "a21841faed118c531d8c6891f57ee9132e87d7c537c30e8b39c3268839f6f3f1"


def test_negated_is_involution():
    e = ex.parse("sin(x) + 1", ["x"])
    assert ex.negated(ex.negated(e)) == e


def test_variables_of():
    e = ex.parse("x*z + sin(y)", ["x", "y", "z"])
    assert ex.variables_of(e) == {0, 1, 2}
