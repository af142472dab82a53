import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbarrier import benchmarks, expr as ex, model, sim, verify
from simbarrier.interval import Interval
from simbarrier.model import (
    Box,
    ModeDef,
    Problem,
    ProblemFormatError,
    Template,
    bloat,
    coeff_row,
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
        with pytest.raises(ProblemFormatError, match="bad monomial"):
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
def certificates(draw):
    """A template of 1-3 modes over 1-4 variables with monomials of total
    degree <= 4, coefficients with random zeros, one of its modes, and 1-6
    points with coordinates of magnitude 1e-3 to 1e3."""
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
    k = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                               min_size=k, max_size=k)))
    return tmpl, p, draw(st.integers(0, len(blocks) - 1)), x


def _assert_compiled_equals_loops(tmpl, p, mode, x):
    """The batched functions on the rows of x give, row by row and bit for
    bit, what the monomial loops give at each row."""
    compiled = model.compile_certificate(tmpl, p, mode)
    loops = (template_value, template_grad_x, template_hess_x)
    for batched, loop in zip(compiled, loops):
        got = batched(x)
        want = np.array([loop(tmpl, p, mode, row) for row in x])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit


class TestCompiledCertificate:
    @given(certificates())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_loops(self, case):
        _assert_compiled_equals_loops(*case)

    def test_quadratic_2d(self):
        t = make_template("quadratic-2d", 2, 1)
        p = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        value, grad, hess = model.compile_certificate(t, p, 0)
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
                compiled = model.compile_certificate(t, p, 0)
                for batched, loop in zip(compiled, loops):
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
        trees; only the falsifier's compiled certificate builds Hessians."""
        def no_hessian(*args):
            raise AssertionError("Hessian trees built")

        monkeypatch.setattr(model, "hessian_exprs", no_hessian)
        prob = load_problem(benchmarks.composition())
        tmpl = make_template([[[0, 0, 0], [1, 0, 0]]], 3, 1)
        p = np.array([0.12774317671, -1.0])
        assert verify.verify(prob, tmpl, p).status is \
            verify.VerdictStatus.VERIFIED
        start = prob.initial[0][1].midpoint()
        assert sim.omega(prob, tmpl, p, (0, start)) == (0, start)
        with pytest.raises(AssertionError, match="Hessian"):
            model.compile_certificate(tmpl, p, 0)

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
        prob = Problem(tuple(f"x{i}" for i in range(n)), (), None, modes, (),
                       region, region)
        checks = verify._ModeChecks(prob, tmpl, p, mode)
        grad = model.certificate_exprs(tmpl, p, mode)[1]
        # every box at once, as the verifier encloses a level of boxes
        v_rows, d_rows = checks.value_box(lo, hi), checks.drift_box(lo, hi)
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

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            monomial_from_name("q^2", ["x", "y"])


class TestLoadProblem:
    def test_pendulum_document(self):
        prob = load_problem(benchmarks.pendulum())
        assert prob.dim == 2 and prob.n_dist == 0
        assert len(prob.modes) == 1
        assert prob.modes[0].omega == Box((-10.0, -10.0), (10.0, 10.0))
        assert prob.initial[0][1] == Box((-10.0, 8.0), (10.0, 10.0))
        assert prob.unsafe[0][1] == Box((-10.0, -10.0), (10.0, -5.0))

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

    def test_membership_helpers(self):
        prob = load_problem(benchmarks.pendulum())
        assert prob.in_initial(0, (0.0, 9.0))
        assert not prob.in_initial(0, (0.0, 7.9))
        assert prob.in_unsafe(0, (0.0, -5.0))  # closed boundary
        assert not prob.in_unsafe(0, (0.0, -4.99))

    def test_all_bundled_documents_load(self):
        for name, doc in benchmarks.corpus().items():
            prob = load_problem(doc)
            tmpl = make_template(doc["template"], prob.dim, len(prob.modes))
            assert tmpl.size >= 2, name

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
