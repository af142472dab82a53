import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbarrier import benchmarks, cli, expr as ex, model, sim, verify
from simbarrier.interval import Interval
import landing_reference
from rows_reference import coeff_row
from simbarrier.model import (
    Box,
    Certificate,
    ModeDef,
    Problem,
    ProblemFormatError,
    Template,
    bloat,
    load_problem,
    make_template,
    monomial_from_name,
    monomial_name,
    template_grad_x,
    template_hess_x,
    template_value,
    vertices,
)


class TestBox:
    def test_vertices_order_and_dedup(self):
        b = Box((0.0, 2.0), (1.0, 3.0))
        assert vertices(b) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        degenerate = Box((5.0,), (5.0,))
        assert vertices(degenerate) == [(5.0,)]
        one_d = Box((-1.0,), (4.0,))
        assert vertices(one_d) == [(-1.0,), (4.0,)]

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0, 10)),
                    min_size=1, max_size=4))
    def test_vertices_lie_in_box(self, dims):
        b = Box(tuple(lo for lo, w in dims), tuple(lo + w for lo, w in dims))
        vs = vertices(b)
        assert len(vs) == len(set(vs))
        for v in vs:
            assert b.contains(v)


class TestBloat:
    def test_unit_interval(self):
        b = bloat(Box((0.0,), (2.0,)), 1.1)
        assert b.lo[0] == pytest.approx(-0.1)
        assert b.hi[0] == pytest.approx(2.1)

    def test_symmetric_box(self):
        b = bloat(Box((-10.0,), (10.0,)), 1.1)
        assert b.lo[0] == pytest.approx(-11.0)
        assert b.hi[0] == pytest.approx(11.0)

    def test_factor_one_is_identity(self):
        orig = Box((-3.0, 1.0), (4.0, 9.0))
        assert bloat(orig, 1.0) == orig

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            bloat(Box((0.0,), (1.0,)), 0.9)

    @given(st.floats(-20, 20), st.floats(0.01, 10), st.floats(1, 3))
    @settings(max_examples=60)
    def test_contains_original(self, lo, width, factor):
        orig = Box((lo,), (lo + width,))
        big = bloat(orig, factor)
        slack = 1e-12 * (1.0 + abs(lo) + width)  # midpoint rounding
        assert big.lo[0] <= orig.lo[0] + slack
        assert big.hi[0] >= orig.hi[0] - slack


class TestTemplate:
    def test_quadratic_2d_row(self):
        t = make_template("quadratic-2d", 2, 1)
        row = coeff_row(t, 0, (1.0, 2.0))
        assert list(row) == [1.0, 2.0, 4.0, 1.0, 2.0, 1.0]

    def test_constant_only_template(self):
        t = Template((((0, 0),),))
        assert list(coeff_row(t, 0, (3.0, -1.0))) == [1.0]

    def test_two_mode_block_structure(self):
        t = make_template("linear", 2, 2)
        row = coeff_row(t, 1, (5.0, 7.0))
        assert list(row[:3]) == [0.0, 0.0, 0.0]
        assert list(row[3:]) == [1.0, 5.0, 7.0]

    def test_missing_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            Template((((1, 0), (0, 1)),))
        with pytest.raises(ProblemFormatError, match="template: .*constant"):
            make_template([[[1, 0], [0, 1]]], 2, 1)

    @pytest.mark.parametrize("mono", [[1], [1, "a"], 7, [1, -1]])
    def test_bad_exponent_list_rejected(self, mono):
        with pytest.raises(ProblemFormatError, match=r"^template\[0\]\[1\]"):
            make_template([[[0, 0], mono]], 2, 1)

    def test_duplicate_monomials_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Template((((0, 0), (1, 0), (1, 0)),))

    def test_value_scales_linearly_in_p(self, rng):
        t = make_template("quadratic-2d", 2, 1)
        p = rng.uniform(-1, 1, t.size)
        x = rng.uniform(-3, 3, 2)
        v = template_value(t, p, 0, x)
        assert template_value(t, 4.0 * p, 0, x) == pytest.approx(4.0 * v)
        assert template_value(t, np.zeros(t.size), 0, x) == 0.0

    def test_value_equals_row_dot_p(self, rng):
        for _ in range(100):
            t = make_template("quadratic-2d", 2, 1)
            p = rng.uniform(-2, 2, t.size)
            x = rng.uniform(-4, 4, 2)
            assert template_value(t, p, 0, x) == pytest.approx(
                float(coeff_row(t, 0, x) @ p), rel=1e-12, abs=1e-12)

    def test_published_linear_barrier_value_and_grad(self):
        # certificate 0.12774317671 - x1 over a 3-dimensional state
        t = make_template([[[0, 0, 0], [1, 0, 0]]], 3, 1)
        p = np.array([0.12774317671, -1.0])
        assert template_value(t, p, 0, (0.12774317671, 5.0, -5.0)) == \
            pytest.approx(0.0, abs=1e-15)
        g = template_grad_x(t, p, 0, (3.0, 1.0, 2.0))
        assert list(g) == [-1.0, 0.0, 0.0]

    def test_grad_of_square(self):
        t = Template((((0,), (2,)),))
        g = template_grad_x(t, np.array([0.0, 1.0]), 0, (3.0,))
        assert g[0] == pytest.approx(6.0)
        assert list(template_grad_x(t, np.zeros(2), 0, (3.0,))) == [0.0]

    def test_grad_matches_finite_differences(self, rng):
        t = make_template("quadratic-2d", 2, 1)
        h = 1e-6
        for _ in range(50):
            p = rng.uniform(-1, 1, t.size)
            x = rng.uniform(-2, 2, 2)
            g = template_grad_x(t, p, 0, x)
            for j in range(2):
                hi = x.copy()
                lo = x.copy()
                hi[j] += h
                lo[j] -= h
                fd = (template_value(t, p, 0, hi) -
                      template_value(t, p, 0, lo)) / (2 * h)
                assert abs(g[j] - fd) <= 1e-6 * (1.0 + abs(fd))


@st.composite
def certificates(draw, max_points=6):
    """A template of 1-3 modes over 1-4 variables with monomials of total
    degree <= 4, coefficients with random zeros, one of its modes, and 1 to
    ``max_points`` points with coordinates of magnitude 1e-3 to 1e3."""
    n = draw(st.integers(1, 4))
    monos = [m for m in itertools.product(range(5), repeat=n)
             if 0 < sum(m) <= 4]
    blocks = tuple(
        ((0,) * n,) + tuple(draw(st.lists(st.sampled_from(monos),
                                          unique=True, max_size=8)))
        for _ in range(draw(st.integers(1, 3))))
    tmpl = Template(blocks)
    coeff = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-10.0, 10.0, allow_nan=False))
    p = np.array(draw(st.lists(coeff, min_size=tmpl.size,
                               max_size=tmpl.size)))
    coord = st.builds(lambda sign, e: sign * 10.0 ** e,
                      st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))
    k = draw(st.integers(1, max_points))
    x = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                               min_size=k, max_size=k)))
    return tmpl, p, draw(st.integers(0, len(blocks) - 1)), x


def _assert_compiled_equals_loops(tmpl, p, mode, x):
    """The batched functions on the rows of x give, row by row and bit for
    bit, what the monomial loops give at each row."""
    mc = Certificate(tmpl, p)[mode]
    loops = (template_value, template_grad_x, template_hess_x)
    for batched, loop in zip((mc.value, mc.grad, mc.hess), loops):
        got = batched(x)
        want = np.array([loop(tmpl, p, mode, row) for row in x])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit


class TestMonomialRows:
    @given(certificates(max_points=12))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_coeff_row(self, case):
        """A mode's compiled monomials give, row by row and bit for bit,
        that mode's block of ``coeff_row`` at the row's point; with 1-12
        points per call, both the point code (up to ``expr._FEW_ROWS``
        rows) and the batch code run."""
        tmpl, _, mode, x = case
        got = tmpl.monomial_rows[mode](x)
        want = np.array([coeff_row(tmpl, mode, tuple(row))[
            tmpl.block_slice(mode)] for row in x.tolist()])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit


class TestCompiledCertificate:
    @given(certificates())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_loops(self, case):
        _assert_compiled_equals_loops(*case)

    def test_quadratic_2d(self):
        t = make_template("quadratic-2d", 2, 1)
        p = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        mc = Certificate(t, p)[0]
        value, grad, hess = mc.value, mc.grad, mc.hess
        x = np.array([[1.0, -1.0], [0.0, 0.0]])
        assert value(x).tolist() == [1.0 - 2.0 + 3.0 + 4.0 - 5.0 + 6.0, 6.0]
        assert grad(x).tolist() == [[2.0 - 2.0 + 4.0, 2.0 - 6.0 + 5.0],
                                    [4.0, 5.0]]
        assert hess(x).tolist() == [[[2.0, 2.0], [2.0, 6.0]]] * 2

    def test_outside_float_range_gives_non_finite_rows(self):
        """Where the loops are not finite, the batched row has a non-finite
        entry too; the other rows keep the loops' bits."""
        t = make_template("quadratic-2d", 2, 1)
        cases = [
            # a power overflows in one row of the batch
            (np.ones(t.size), np.array([[0.5, 2.0], [1e200, -1e200]])),
            # a coefficient times an exponent is not finite
            (np.array([np.inf, 0.0, 1.0, np.nan, 0.0, 1.0]),
             np.array([[0.5, 2.0], [-3.0, 0.25]])),
        ]
        loops = (template_value, template_grad_x, template_hess_x)
        with np.errstate(over="ignore", invalid="ignore"):
            for p, x in cases:
                mc = Certificate(t, p)[0]
                for batched, loop in zip((mc.value, mc.grad, mc.hess), loops):
                    got = batched(x)
                    for row, got_row in zip(x, got):
                        want = np.asarray(loop(t, p, 0, row))
                        if np.isfinite(want).all():
                            assert got_row.tobytes() == want.tobytes()
                        else:
                            assert not np.isfinite(got_row).all()

    @given(certificates())
    @settings(max_examples=200, deadline=None)
    def test_point_code_bit_identical_to_loops(self, case):
        """The value and gradient trees compiled for one point, as the
        rides and the verifier use them, give the loops' bits."""
        tmpl, p, mode, x = case
        value, grad = model.certificate_exprs(tmpl, p, mode)
        value, grad = ex.compile_vector([value]), ex.compile_vector(grad)
        for row in x:
            for point in (list(row), row.tolist()):
                assert np.float64(value(point)[0]).tobytes() == \
                    np.float64(template_value(tmpl, p, mode, point)).tobytes()
                assert np.array(grad(point)).tobytes() == \
                    template_grad_x(tmpl, p, mode, point).tobytes()

    def test_hessian_built_only_for_the_falsifier(self, monkeypatch):
        """The verifier and the drift rides use the value and the gradient
        trees; a certificate builds its Hessian trees only when its
        ``hess`` is asked for, as the falsifier's drift search does."""
        def no_hessian(*args):
            raise AssertionError("Hessian trees built")

        monkeypatch.setattr(model, "hessian_exprs", no_hessian)
        prob = load_problem(benchmarks.composition())
        tmpl = make_template([[[0, 0, 0], [1, 0, 0]]], 3, 1)
        p = np.array([0.12774317671, -1.0])
        assert verify.verify(prob, tmpl, p).status is \
            verify.VerdictStatus.VERIFIED
        start = prob.initial[0][1].midpoint()
        cert = Certificate(tmpl, p)
        assert sim.omega(prob, cert, [(0, start)]) == [(0, start)]
        with pytest.raises(AssertionError, match="Hessian"):
            cert[0].hess

    def test_long_sum_compiles(self):
        # 301 terms nest deeper than Python's 200 parentheses if each sum
        # is parenthesized again
        t = make_template("linear", 300, 1)
        p = np.linspace(-1.0, 1.0, t.size)
        x = np.linspace(0.5, 2.0, 600).reshape(2, 300)
        _assert_compiled_equals_loops(t, p, 0, x)
        value = ex.compile_vector([model.certificate_exprs(t, p, 0)[0]])
        assert value(x[0].tolist())[0] == template_value(t, p, 0, x[0].tolist())


_FLOWS = ("-x{i} + x{j}^2", "3 * sin(x{j})", "x{i} * x{j} - 0.5", "1.25")


@st.composite
def enclosure_cases(draw):
    """A certificate case, a flow over its variables, boxes of relative
    half-width up to 0.1 around its points, and four fractions per box
    coordinate that place sample points in the boxes."""
    tmpl, p, mode, x = draw(certificates())
    n = x.shape[1]
    names = [f"x{i}" for i in range(n)]
    flow = tuple(ex.parse(draw(st.sampled_from(_FLOWS)).format(i=i, j=(i + 1) % n),
                          names) for i in range(n))
    unit = st.floats(0.0, 1.0)
    rel = np.array(draw(st.lists(unit, min_size=x.size, max_size=x.size)))
    half = 0.1 * np.abs(x) * rel.reshape(x.shape)
    frac = np.array(draw(st.lists(unit, min_size=4 * x.size,
                                  max_size=4 * x.size))).reshape((4,) + x.shape)
    return tmpl, p, mode, flow, x - half, x + half, frac


class TestCertificateEnclosures:
    @given(enclosure_cases())
    @settings(max_examples=200, deadline=None)
    def test_interval_trees_enclose_loops(self, case):
        """The verifier's compiled enclosures of the value and the drift,
        and interval_eval of the gradient trees, over a box enclose what
        the loops give at points of the box."""
        tmpl, p, mode, flow, lo, hi, frac = case
        n = lo.shape[1]
        modes = tuple(ModeDef(f"m{i}", Box((-1e4,) * n, (1e4,) * n), flow)
                      for i in range(len(tmpl.monomials)))
        region = ((0, modes[0].omega),)
        prob = Problem(tuple(f"x{i}" for i in range(n)), (), Box((), ()),
                       modes, (), region, region)
        cert = Certificate(tmpl, p)
        grad = cert[mode].exprs[1]
        # every box at once, as the verifier encloses a level of boxes
        v_rows = cert[mode].value_box(lo, hi)
        d_rows = [b[:, 0] for b in verify._drift_box(prob, cert, mode)(lo, hi)]
        for r, (b_lo, b_hi, b_frac) in enumerate(zip(lo, hi, frac.transpose(1, 0, 2))):
            box = [Interval(a, b) for a, b in zip(b_lo, b_hi)]
            v_enc = Interval(v_rows[0][r], v_rows[1][r])
            g_enc = [ex.interval_eval(g, box) for g in grad]
            d_enc = Interval(d_rows[0][r], d_rows[1][r])
            points = np.clip(b_lo + b_frac * (b_hi - b_lo), b_lo, b_hi)
            for x in [b_lo, b_hi, *points]:
                point = x.tolist()
                assert template_value(tmpl, p, mode, point) in v_enc
                g = template_grad_x(tmpl, p, mode, point)
                assert all(gj in enc for gj, enc in zip(g, g_enc))
                f = [ex.evaluate(fj, point) for fj in flow]
                assert float(np.dot(g, f)) in d_enc


class TestMonomialNames:
    @pytest.mark.parametrize("mono,name", [
        ((0, 0), "1"),
        ((1, 0), "x"),
        ((0, 3), "y^3"),
        ((2, 1), "x^2*y"),
    ])
    def test_round_trip(self, mono, name):
        assert monomial_name(mono, ["x", "y"]) == name
        assert monomial_from_name(name, ["x", "y"]) == mono

    # an exponent is ASCII decimal digits: no fraction, sign, space,
    # underscore or other script's digit
    @pytest.mark.parametrize("name", ["q^2", "x^2.5", "x^1_0", "x^+2",
                                      "x^ 2", "x ^2", "x^\u0662", "x^",
                                      "x^0"])
    def test_bad_name_rejected(self, name):
        with pytest.raises(ValueError, match="bad monomial"):
            monomial_from_name(name, ["x", "y"])


class TestLanding:
    """``land_on_level_set`` towards V = x + y - 1.5 = 0."""

    value_grad = staticmethod(lambda x: [x[0] + x[1] - 1.5, 1.0, 1.0])

    def full_loop(self, x, lo, hi, band, max_steps, patient=False):
        """One row through every step of the loop; unless ``patient``, it
        stops where V is not finite or a step fails to halve |V|."""
        limit = math.inf
        for _ in range(max_steps):
            v, *g = self.value_grad(x.tolist())
            if abs(v) <= band:
                return x, True
            if not patient and not (math.isfinite(v) and abs(v) <= limit):
                return x, False
            g = np.array(g)
            x = np.clip(x - v / g.dot(g) * g, lo, hi)
            limit = 0.5 * abs(v)
        return x, abs(self.value_grad(x.tolist())[0]) <= band

    @staticmethod
    def counted(value_grad):
        """``value_grad`` and the list of the points it is called at."""
        calls = []

        def counting(x):
            calls.append(x)
            return value_grad(x)
        return counting, calls

    def test_a_row_clipped_back_to_itself_stops(self):
        # in [0, 0.5]^2 the first step reaches the corner (0.5, 0.5),
        # where V = -0.5, and the second is clipped back to it
        value_grad, calls = self.counted(self.value_grad)
        x0, lo, hi = np.array([[0.1, 0.1]]), np.zeros(2), np.full(2, 0.5)
        x, landed, _ = model.land_on_level_set(value_grad, x0, lo, hi, 1e-9,
                                               25)
        assert calls == [[0.1, 0.1], [0.5, 0.5]]
        want, want_landed = self.full_loop(x0[0], lo, hi, 1e-9, 25)
        assert x[0].tobytes() == want.tobytes() and landed[0] == want_landed

    def test_rows_end_as_the_full_loop_ends(self):
        # rows that land, reach a clipped corner, start on it, or creep
        # along a face (the fifth halves its gap at each step), each in its
        # own box
        x0 = np.array([[0.2, 0.2], [0.9, 0.9], [0.1, 0.1], [0.5, 0.5],
                       [0.0, 0.5], [0.3, -0.0]])
        lo = np.zeros_like(x0)
        hi = np.array([[1, 1], [1, 1], [0.5, 0.5], [0.5, 0.5], [1, 0.5],
                       [0.5, 0.5]], dtype=float)
        for steps, patient in itertools.product((0, 1, 2, 25), (False, True)):
            x, landed, _ = model.land_on_level_set(
                self.value_grad, x0, lo, hi, 1e-9, steps, patient)
            for r in range(len(x0)):
                want, want_landed = self.full_loop(x0[r], lo[r], hi[r], 1e-9,
                                                   steps, patient)
                assert x[r].tobytes() == want.tobytes(), (steps, patient, r)
                assert landed[r] == want_landed, (steps, patient, r)
            if steps == 25:
                assert landed.tolist() == [True, True] + [False] * 4

    @pytest.mark.parametrize("g", [0.0, math.nan])
    def test_a_row_without_a_gradient_stops_at_its_point(self, g):
        # |grad V|^2 is 0 or nan on the second row: no Newton step is
        # defined there, so it stops where it starts, unlanded, while the
        # first row lands
        def value_grad(x):
            d = g if x[0] > 0.6 else 1.0
            return [x[0] + x[1] - 1.5, d, d]
        x0 = np.array([[0.2, 0.2], [0.7, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, landed, _ = model.land_on_level_set(
                value_grad, x0, np.zeros(2), np.ones(2), 1e-9, 25)
        assert landed.tolist() == [True, False]
        assert x[1].tobytes() == x0[1].tobytes()

    def test_a_row_that_stops_contracting_stops_unless_patient(self):
        # pendulum-final's box [-10, 0] x [0, 10] holds no point of V = 0:
        # from V = -3.91 at its midpoint the first step runs into V's
        # minimum -1.0 at the origin, where grad V vanishes, and the second
        # fails to halve |V|; a patient row creeps on for every step
        mc = _bench_certificate("pendulum-final")[0]
        lo, hi = np.array([[-10.0, 0.0]]), np.array([[0.0, 10.0]])
        for patient, points in ((False, 3), (True, model.LANDING_STEPS + 1)):
            value_grad, calls = self.counted(mc.value_grad)
            _, landed, _ = model.land_on_level_set(
                value_grad, 0.5 * (lo + hi), lo, hi, 1e-9,
                model.LANDING_STEPS, patient)
            assert (len(calls), landed.tolist()) == (points, [False])

    def test_a_row_where_v_is_not_finite_stops_unless_patient(self):
        # V is nan at the start: the row stops there, or, patient, steps
        # to a nan point, whose next step returns it
        def value_grad(x):
            v = math.nan if x[0] > 0.6 else x[0] + x[1] - 1.5
            return [v, 1.0, 1.0]
        x0 = np.array([[0.7, 0.1]])
        for patient, points in ((False, 1), (True, 2)):
            counting, calls = self.counted(value_grad)
            x, landed, _ = model.land_on_level_set(
                counting, x0, np.zeros(2), np.ones(2), 1e-9,
                model.LANDING_STEPS, patient)
            assert (len(calls), landed.tolist()) == (points, [False])
            assert np.isnan(x).all() == patient

    def test_a_row_newton_lands_ends_where_the_patient_row_ends(self):
        # V = x^2 - 1 from x = 10: every step more than halves |V|
        value_grad = lambda x: [x[0] ** 2 - 1.0, 2.0 * x[0]]
        lo, hi, x0 = np.zeros(1), np.full(1, 20.0), np.array([[10.0]])
        want = 10.0
        while not abs(want * want - 1.0) <= 1e-9:
            want = min(max(want - (want * want - 1.0) / (4 * want * want)
                           * (2 * want), 0.0), 20.0)
        for patient in (False, True):
            x, landed, _ = model.land_on_level_set(
                value_grad, x0, lo, hi, 1e-9, model.LANDING_STEPS, patient)
            assert landed.tolist() == [True]
            assert x[0, 0].hex() == want.hex()


def _bench_certificate(case: str) -> Certificate:
    """The committed certificate ``bench/data/certs/<case>.json`` of its
    corpus problem."""
    name = case.rsplit("-", 1)[0]
    prob = load_problem(benchmarks.corpus()[name])
    path = (Path(__file__).parents[1] / "bench" / "data" / "certs"
            / f"{case}.json")
    tmpl, p = cli._barrier_from_doc(json.loads(path.read_text()), prob,
                                    path.name)
    return Certificate(tmpl, p)


class TestLandingReference:
    """``land_on_level_set`` on certificate point code against the lockstep
    loop it replaced (``landing_reference``) on the certificate's batch
    code: each end point bit for bit, and the mask; and the gradients it
    returns against the certificate's ``grad`` at the end points."""

    @staticmethod
    def same_as_reference(mc, x, lo, hi, band, steps, patient):
        """The reference's end points and mask, after checking that
        ``land_on_level_set`` gives them, and that its gradients are bit
        for bit ``grad``'s at its end points (a nan for a nan, of either
        sign)."""
        x_got, got, g_got = model.land_on_level_set(
            mc.value_grad, x, lo, hi, band, steps, patient)
        x_want, want = landing_reference.land_on_level_set(
            mc.value, mc.grad, x, lo, hi, band, steps, patient)
        assert x_got.tobytes() == x_want.tobytes(), (steps, patient)
        assert got.tolist() == want.tolist(), (steps, patient)
        g_want = mc.grad(x_got)
        same = ((g_got.view(np.int64) == g_want.view(np.int64))
                | (np.isnan(g_got) & np.isnan(g_want)))
        assert g_got.shape == g_want.shape and same.all(), (steps, patient)
        return x_want, want

    @pytest.mark.parametrize("patient", [False, True])
    @pytest.mark.parametrize("name", ["pendulum", "log-dynamics", "lorenz",
                                      "scalable-l4"])
    def test_drawn_rows_land_as_the_reference_lands(self, name, patient):
        # 24 drawn points of the mode's box, each in a drawn box of its
        # own around it and all in the mode's box; the witness's and the
        # drift search's bands, and 0, 4 and 25 steps
        prob = load_problem(benchmarks.corpus()[name])
        rng = np.random.default_rng(3100 + len(name))
        if name == "scalable-l4":     # a 9-D linear certificate
            cert = Certificate(model.template_linear(prob.dim),
                               rng.uniform(-1.0, 1.0, prob.dim + 1))
        else:
            cert = _bench_certificate(f"{name}-final")
        mc, omega = cert[0], prob.modes[0].omega
        lo, hi = np.array(omega.lo), np.array(omega.hi)
        x = rng.uniform(lo, hi, (24, prob.dim))
        reach = rng.uniform(0.0, 0.5, x.shape) * (hi - lo)
        lo_rows, hi_rows = np.maximum(x - reach, lo), np.minimum(x + reach, hi)
        p_scale = 1.0 + float(np.linalg.norm(cert.p))
        landed = []
        with np.errstate(all="ignore"):
            for band, steps in itertools.product((1e-9, 1e-6), (0, 4, 25)):
                for box in ((lo_rows, hi_rows), (lo, hi)):
                    landed += self.same_as_reference(
                        mc, x, *box, band * p_scale, steps, patient)[1].tolist()
        assert any(landed) and not all(landed)

    @pytest.mark.parametrize("patient", [False, True])
    def test_edge_rows_end_as_the_reference_ends(self, patient):
        # each certificate's rows in one call, each row in its own box
        quadratic = Certificate(model.template_quadratic_2d(),
                                np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0]))[0]
        linear = Certificate(model.template_linear(2),
                             np.array([-1.5, 1.0, 1.0]))[0]
        above = Certificate(model.template_linear(2),
                            np.array([1.0, 1.0, 1.0]))[0]
        pendulum = _bench_certificate("pendulum-final")[0]
        huge = 1e300
        rows = {
            # V = x^2 + y^2 - 1: x^2 overflows, so V is not finite (nan);
            # grad V is zero at the origin
            quadratic: [((1e200, 0.0), (-huge, -huge), (huge, huge)),
                        ((0.0, -0.0), (-1.0, -1.0), (1.0, 1.0))],
            # V = x + y - 1.5: the step from (3, 1) is clipped onto y's
            # bound -0.0, or 0.0, and the next ones too; the step from
            # (1, -0.5) onto y's upper bound -0.0; from (0.1, 0.1) in
            # [0, 0.5]^2 the second step returns its point
            linear: [((3.0, 1.0), (0.0, -0.0), (3.0, 2.0)),
                     ((3.0, 1.0), (0.0, 0.0), (3.0, 2.0)),
                     ((1.0, -0.5), (0.0, -2.0), (5.0, -0.0)),
                     ((0.1, 0.1), (0.0, 0.0), (0.5, 0.5))],
            # V = x + y + 1 > 0 on [0, 0.5]^2: from (-0.0, 0.0) the first
            # step is clipped to (0.0, -0.0), bits that differ from its
            # start, and the second returns that point
            above: [((-0.0, 0.0), (0.0, -0.0), (0.5, 0.5))],
            # the first step runs into V's minimum, the second fails to
            # halve |V|
            pendulum: [((-5.0, 5.0), (-10.0, 0.0), (0.0, 10.0))],
        }
        ends = {}
        with np.errstate(all="ignore"):
            for mc, edge in rows.items():
                x, lo, hi = map(np.array, zip(*edge))
                ends[mc] = self.same_as_reference(
                    mc, x, lo, hi, 1e-9, model.LANDING_STEPS, patient)
                for r in range(len(x)):  # and each row alone
                    self.same_as_reference(mc, x[r:r + 1], lo[r:r + 1],
                                           hi[r:r + 1], 1e-9,
                                           model.LANDING_STEPS, patient)
        # the rows meet their edges
        x, landed = ends[quadratic]
        assert not landed.any()
        assert np.isnan(x[0]).all() if patient else x[0].tolist() == [1e200, 0.0]
        assert x[1].tobytes() == np.array([0.0, -0.0]).tobytes()
        x, landed = ends[linear]
        assert [math.copysign(1.0, y) for y in x[:3, 1]] == [-1.0, 1.0, -1.0]
        assert landed[2] and x[3].tolist() == [0.5, 0.5] and not landed[3]
        x, landed = ends[above]
        assert x[0].tobytes() == np.array([0.0, -0.0]).tobytes()
        assert not landed.any() and not ends[pendulum][1].any()

    def test_point_code_that_raises_gives_the_batch_rows(self):
        # x^2 overflows at x = 1e200, while grad V = 2x does not
        mc = Certificate(model.template_quadratic_2d(),
                         np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0]))[0]
        point = [1e200, 0.0]
        with pytest.raises(OverflowError):
            ex.compile_vector((mc.exprs[0], *mc.exprs[1]))(point)
        got = mc.value_grad(point)
        assert math.isnan(got[0])
        assert np.array(got[1:]).tobytes() == \
            mc.grad(np.array([point]))[0].tobytes()


class TestJsonNumber:
    @pytest.mark.parametrize("integer", [False, True])
    def test_integers_beyond_the_float_range_rejected(self, integer):
        for value in (10 ** 400, -10 ** 400, 2 ** 1024):
            with pytest.raises(ProblemFormatError,
                               match="^run.starts: .* within the float range"):
                model.json_number(value, "run.starts", integer)

    def test_largest_float_integer_accepted(self):
        big = int(sys.float_info.max)
        assert model.json_number(big, "x", integer=True) == big
        assert model.json_number(big, "x") == sys.float_info.max
        assert model.json_number(1e300, "x", integer=True) == int(1e300)


class TestLoadProblem:
    def test_pendulum_document(self):
        prob = load_problem(benchmarks.pendulum())
        assert prob.dim == 2 and prob.n_dist == 0
        assert len(prob.modes) == 1
        assert prob.modes[0].omega == Box((-10.0, -10.0), (10.0, 10.0))
        assert prob.initial[0][1] == Box((-10.0, 8.0), (10.0, 10.0))
        assert prob.unsafe[0][1] == Box((-10.0, -10.0), (10.0, -5.0))

    def test_no_disturbances_give_the_empty_box(self):
        # without disturbances: the empty box, one empty vertex, and each
        # mode's (state, disturbance) box is its omega
        prob = load_problem(benchmarks.pendulum())
        assert prob.dist_box == Box((), ())
        assert [v.shape for v in prob.dist_vertices] == [(0,)]
        assert prob.flow_boxes == (prob.modes[0].omega,)

    def test_composition_flow(self):
        prob = load_problem(benchmarks.composition())
        assert prob.dim == 3
        from simbarrier import expr as ex
        assert ex.evaluate(prob.modes[0].flow[0], (0, 0, 0)) == 1.0
        assert ex.evaluate(prob.modes[0].flow[1], (0, 0, 7.0)) == 7.0
        assert ex.evaluate(prob.modes[0].flow[2], (0, 0, 2.0)) == \
            pytest.approx(-2.0)

    def test_flow_arity_mismatch(self):
        doc = benchmarks.pendulum()
        doc["modes"][0]["flow"] = ["y"]
        with pytest.raises(ProblemFormatError, match="expected 2 expressions"):
            load_problem(doc)

    def test_missing_unsafe_section(self):
        doc = benchmarks.pendulum()
        del doc["unsafe"]
        with pytest.raises(ProblemFormatError, match="unsafe"):
            load_problem(doc)

    def test_init_outside_omega(self):
        doc = benchmarks.pendulum()
        doc["init"][0]["box"] = [[-11, 10], [8, 10]]
        with pytest.raises(ProblemFormatError, match="inside the mode omega"):
            load_problem(doc)

    def test_unknown_mode_reference(self):
        doc = benchmarks.pendulum()
        doc["init"][0]["mode"] = "nope"
        with pytest.raises(ProblemFormatError, match="unknown mode"):
            load_problem(doc)

    def test_guard_outside_omega(self):
        doc = benchmarks.pendulum()
        doc["resets"] = [{
            "source": "m", "target": "m", "guard": [[9, 11], [0, 0]],
            "map": ["x", "y"],
        }]
        with pytest.raises(ProblemFormatError, match="guard"):
            load_problem(doc)

    def test_inverse_spot_check(self):
        doc = benchmarks.pendulum()
        doc["resets"] = [{
            "source": "m", "target": "m", "guard": [[1, 2], [0, 0]],
            "map": ["x + 1", "y"],
            "inverse": ["x + 1", "y"],  # wrong: inverse should be x - 1
            "image": [[2, 3], [0, 0]],
        }]
        with pytest.raises(ProblemFormatError, match="inverse"):
            load_problem(doc)

    def test_all_bundled_documents_load(self):
        for name, doc in benchmarks.corpus().items():
            prob = load_problem(doc)
            tmpl = make_template(doc["template"], prob.dim, len(prob.modes))
            assert tmpl.size >= 2, name

    def test_thermostat_equals_the_bench_document(self):
        # the benchmark reads the thermostat from corpus(), the committed
        # certificates were checked against the file: the two must agree
        path = Path(__file__).parents[1] / "bench" / "data" / "thermostat.json"
        assert benchmarks.thermostat() == json.loads(path.read_text())
        assert benchmarks.corpus()["thermostat"] == benchmarks.thermostat()

    def test_benchmark_run_defaults(self):
        corpus = benchmarks.corpus()
        assert corpus["pendulum"]["run"]["sigma"] == 0.5
        assert corpus["log-dynamics"]["run"]["sigma"] == 1.0
        assert corpus["lorenz"]["run"]["sigma"] == 0.1
        assert corpus["composition"]["run"]["sigma"] == 0.1
        assert corpus["scalable-l2"]["run"]["sigma"] == 0.1
        assert all(doc["run"]["bloat"] == 1.1 for doc in corpus.values())

    def test_scalable_generator_at_large_size(self):
        # the generator itself must scale far beyond what synthesis runs at
        doc = benchmarks.scalable(100)
        prob = load_problem(doc)
        assert prob.dim == 201
        from simbarrier import expr as ex
        origin = [0.0] * 201
        assert ex.evaluate(prob.modes[0].flow[0], origin) == 1.0
        assert ex.evaluate(prob.modes[0].flow[1], origin) == 0.0
        tmpl = make_template(doc["template"], prob.dim, 1)
        assert tmpl.size == 202
