import math

import numpy as np
import pytest

from simbarrier import benchmarks, chebyshev, engine, expr as ex, falsify, model
from simbarrier.falsify import (
    find_counterexample,
    min_initial,
    min_reset,
    min_transversality,
    min_unsafe,
    minimize_box,
    segment_margin,
)
from simbarrier.model import Box, Certificate, ModeDef, Problem, ResetRule, Template

import rows_reference as rows_ref
from conftest import line_problem, linear_template_1d, sawtooth_problem


def composition_with_linear_barrier():
    prob = model.load_problem(benchmarks.composition())
    tmpl = model.make_template([[[0, 0, 0], [1, 0, 0]]], 3, 1)
    p = np.array([0.12774317671, -1.0])
    return prob, tmpl, p


class TestMinimizeBox:
    def test_quadratic_reaches_interior_minimum(self, rng):
        lo = np.array([-2.0, -2.0])
        hi = np.array([2.0, 2.0])
        target = np.array([0.7, -0.3])
        f = lambda z, rows: np.sum((z - target) ** 2, axis=1)
        g = lambda z, rows: 2.0 * (z - target)
        z, fz = minimize_box(f, g, lo, hi, np.array([[-1.5, 1.5]]))
        assert np.allclose(z[0], target, atol=1e-6)
        assert fz[0] <= 1e-10

    def test_descent_is_monotone(self, rng):
        # every run ends at an objective no worse than its start
        for _ in range(25):
            a = rng.uniform(0.5, 3.0, 3)
            b = rng.uniform(-1, 1, 3)
            f = lambda z, rows: ((z - b) ** 2) @ a + np.sin(z[:, 0])
            g = lambda z, rows: (2 * a * (z - b)
                                 + np.outer(np.cos(z[:, 0]), [1, 0, 0]))
            z0 = rng.uniform(-1, 1, (4, 3))
            lo = np.full(3, -1.5)
            hi = np.full(3, 1.5)
            z, fz = minimize_box(f, g, lo, hi, z0)
            assert np.all(fz <= f(np.clip(z0, lo, hi), None) + 1e-12)

    def test_multistart_coverage(self, rng):
        # a known global minimum inside the box is reached by at least one
        # of 16 seeded starts
        target = np.array([0.9, -0.9])
        f = lambda z, rows: np.sum((z - target) ** 2, axis=1)
        g = lambda z, rows: 2.0 * (z - target)
        lo = np.full(2, -1.0)
        hi = np.full(2, 1.0)
        z, fz = minimize_box(f, g, lo, hi, rng.uniform(-1, 1, (16, 2)))
        hits = np.sum(np.linalg.norm(z - target, axis=1) <= 1e-4)
        assert hits >= 1


def _rugged(z, rows=None):
    """A nonconvex objective on [-2, 2]^2, +inf on the strip z1 > 1.5,
    z0 < 1.9, towards which its linear term pulls; the rows of a
    ``minimize_box`` call are ignored."""
    out = (np.sum((z - [3.0, -3.0]) ** 2, axis=1) + 4.0 * np.sin(5.0 * z[:, 0])
           - 100.0 * z[:, 1])
    out[(z[:, 1] > 1.5) & (z[:, 0] < 1.9)] = math.inf
    return out


def _rugged_grad(z, rows=None):
    """Its gradient, with nan entries left of z0 = -1.5."""
    out = 2.0 * (z - [3.0, -3.0]) - [0.0, 100.0]
    out[:, 0] += 20.0 * np.cos(5.0 * z[:, 0])
    out[z[:, 0] < -1.5] = math.nan
    return out


class TestLockstep:
    LO = np.array([-2.0, -2.0])
    HI = np.array([2.0, 2.0])

    def starts(self, rng):
        # random starts, a start in the +inf region, one where the gradient
        # is nan, one at the corner where the descent direction points out
        # of the box (it never moves), and one on the edge of the +inf
        # strip, where every trial step lands inside it.  With the fixture's
        # seed the 14 rows end by every stopping rule: the iteration cap,
        # the gradient tolerance, a step that does not move, a non-finite
        # gradient and 60 rejected halvings.
        return np.vstack([rng.uniform(-2, 2, (9, 2)),
                          [[0.3, 1.8], [-1.8, 0.0], [2.0, 2.0],
                           [-1.0, 1.5], [1.0, 1.0]]])

    def one_row_runs(self, z0, lo, hi, **kw):
        rounds, ends = [], []
        for r in range(len(z0)):
            calls = []
            f = lambda z, rows: calls.append(len(z)) or _rugged(z, rows)
            bounds = (lo[r:r + 1], hi[r:r + 1]) if lo.ndim == 2 else (lo, hi)
            ends.append(minimize_box(f, _rugged_grad, *bounds, z0[r:r + 1], **kw))
            rounds.append(len(calls))
        z = np.vstack([e[0] for e in ends])
        fz = np.concatenate([e[1] for e in ends])
        return z, fz, rounds

    def test_batch_equals_one_row_runs_bitwise(self, rng):
        z0 = self.starts(rng)
        for kw in ({"max_iters": 0}, {"max_iters": 7}, {}):
            z, fz = minimize_box(_rugged, _rugged_grad, self.LO, self.HI, z0, **kw)
            z1, fz1, rounds = self.one_row_runs(z0, self.LO, self.HI, **kw)
            assert z.tobytes() == z1.tobytes()
            assert fz.tobytes() == fz1.tobytes()
        # with the default budget: rows stop in different rounds, the
        # nan-gradient, corner and strip-edge starts never move, and the
        # start in the +inf region descends out of it
        assert len(set(rounds)) > 3
        for r in (10, 11, 12):
            assert np.array_equal(z[r], z0[r])
        assert _rugged(z0[9:10])[0] == math.inf and fz[9] < math.inf

    def test_batch_equals_one_row_runs_bitwise_with_a_goal(self, rng):
        z0 = self.starts(rng)
        _, _, free = self.one_row_runs(z0, self.LO, self.HI)
        for kw in ({"goal": -150.0, "max_iters": 25}, {"goal": -150.0}):
            z, fz = minimize_box(_rugged, _rugged_grad, self.LO, self.HI, z0, **kw)
            z1, fz1, rounds = self.one_row_runs(z0, self.LO, self.HI, **kw)
            assert z.tobytes() == z1.tobytes()
            assert fz.tobytes() == fz1.tobytes()
        # rows that end above -150 in 100 to 460 rounds stop early
        assert sum(a < b for a, b in zip(rounds, free)) >= 3

    def test_rows_follow_the_point_descent(self, rng):
        # the one-start rules, written point-wise: each row of the batch
        # ends where this descent from its start ends, bit for bit
        def descend(z, lo, hi, max_iters=200, tol=1e-8):
            f = lambda p: float(_rugged(p[None])[0])
            z = np.clip(z, lo, hi)
            fz, step = f(z), 1.0
            for _ in range(max_iters):
                g = _rugged_grad(z[None])[0]
                v = z - (z - g).clip(lo, hi)
                if not np.isfinite(g).all() or math.sqrt(v.dot(v)) <= tol:
                    break
                alpha = step
                for _ in range(60):
                    zn = (z - alpha * g).clip(lo, hi)
                    if not (zn - z).any():
                        return z, fz
                    fn = f(zn)
                    if math.isfinite(fn) and fn <= fz + 1e-4 * float(g @ (zn - z)):
                        break
                    alpha *= 0.5
                else:
                    return z, fz
                z, fz, step = zn, fn, min(2.0 * alpha, 1e3)
            return z, fz

        z0 = self.starts(rng)
        z, fz = minimize_box(_rugged, _rugged_grad, self.LO, self.HI, z0)
        for r in range(len(z0)):
            zr, fr = descend(z0[r], self.LO, self.HI)
            assert z[r].tobytes() == zr.tobytes()
            assert float(fz[r]).hex() == fr.hex()

    def test_per_row_bounds(self, rng):
        z0 = self.starts(rng)
        lo = np.tile(self.LO, (len(z0), 1)) + rng.uniform(0, 0.5, z0.shape)
        hi = np.tile(self.HI, (len(z0), 1)) - rng.uniform(0, 0.5, z0.shape)
        z, fz = minimize_box(_rugged, _rugged_grad, lo, hi, z0)
        z1, fz1, _ = self.one_row_runs(z0, lo, hi)
        assert z.tobytes() == z1.tobytes() and fz.tobytes() == fz1.tobytes()
        assert np.all((lo <= z) & (z <= hi))

    def test_default_projection_is_the_box_clip(self, rng):
        z0 = self.starts(rng)
        clip = lambda z, rows: z.clip(self.LO, self.HI)
        z, fz = minimize_box(_rugged, _rugged_grad, self.LO, self.HI, z0)
        z1, fz1 = minimize_box(_rugged, _rugged_grad, self.LO, self.HI, z0,
                               project=clip)
        assert z.tobytes() == z1.tobytes() and fz.tobytes() == fz1.tobytes()

    def test_only_live_rows_are_evaluated(self, rng):
        sizes = []
        f = lambda z, rows: sizes.append(len(z)) or _rugged(z, rows)
        minimize_box(f, _rugged_grad, self.LO, self.HI, self.starts(rng))
        assert sizes[0] == 14 and min(sizes) >= 1 and sizes[-1] < 14


def _valley(z):
    """Rosenbrock's valley on [-2, 2]^2, along which gradient descent
    creeps: from (-1.5, 2), after its first ten iterations, it gains
    0.033-0.044 per ten, by turns less and more than over the ten
    before."""
    return (1.0 - z[:, 0]) ** 2 + 100.0 * (z[:, 1] - z[:, 0] ** 2) ** 2


def _valley_grad(z, rows=None):
    bend = z[:, 1] - z[:, 0] ** 2
    return np.stack([-2.0 * (1.0 - z[:, 0]) - 400.0 * z[:, 0] * bend,
                     200.0 * bend], 1)


class TestGoal:
    """The pace rule of ``minimize_box(..., goal=...)``."""
    LO, HI = np.full(2, -2.0), np.full(2, 2.0)
    START = np.array([[-1.5, 2.0]])

    def run(self, f, grad, lo, hi, z0, **kw):
        calls = {"f": 0, "grad": 0}

        def counted(name, inner):
            def call(z, rows):
                calls[name] += 1
                return inner(z, rows)
            return call

        z, fz = minimize_box(counted("f", f), counted("grad", grad), lo, hi,
                             z0, **kw)
        return z, fz, calls

    def test_row_that_reaches_the_goal_keeps_its_bits(self):
        # the valley shifted down so that the row ends near -0.3: it is
        # above the goal at its first 12 checks, and at three of them its
        # gain is less than over the window before
        f = lambda z, rows: _valley(z) - 5.35
        z, fz, calls = self.run(f, _valley_grad, self.LO, self.HI, self.START)
        zg, fg, calls_g = self.run(f, _valley_grad, self.LO, self.HI,
                                   self.START, goal=-falsify._EPS_CE)
        assert fz[0] < -0.29
        assert zg.tobytes() == z.tobytes() and fg.tobytes() == fz.tobytes()
        assert calls_g == calls
        assert calls["grad"] == 200      # the iteration cap

    def test_plateau_then_drop_is_not_stopped(self):
        # -tanh(z - 6) from z = 0: with the step size doubling from 1, the
        # first window gains 6.4e-7 and the second 1.3e-5, and the row
        # crosses zero between iterations 30 and 40.  Extrapolating the
        # first window alone would stop it near 1.
        f = lambda z, rows: -np.tanh(z[:, 0] - 6.0)
        grad = lambda z, rows: np.tanh(z - 6.0) ** 2 - 1.0
        lo, hi, z0 = np.zeros(1), np.full(1, 20.0), np.zeros((1, 1))
        at = [float(minimize_box(f, grad, lo, hi, z0, max_iters=k)[1][0])
              for k in (0, falsify._WINDOW, 2 * falsify._WINDOW)]
        first, second = at[0] - at[1], at[1] - at[2]
        assert 0 < first < 1e-6 and second > 10 * first
        assert at[1] - first * (200 // falsify._WINDOW - 1) > 0.99
        z, fz = minimize_box(f, grad, lo, hi, z0)
        zg, fg = minimize_box(f, grad, lo, hi, z0, goal=-falsify._EPS_CE)
        assert fg[0] == -math.tanh(14.0)
        assert zg.tobytes() == z.tobytes() and fg.tobytes() == fz.tobytes()

    def test_creeping_row_above_the_goal_stops(self):
        f = lambda z, rows: 1.0 + _valley(z)   # its minimum is 1
        z, fz, calls = self.run(f, _valley_grad, self.LO, self.HI, self.START)
        zg, fg, calls_g = self.run(f, _valley_grad, self.LO, self.HI,
                                   self.START, goal=-falsify._EPS_CE)
        assert calls["grad"] == 200
        iters = calls_g["grad"]
        assert iters < 200 and iters % falsify._WINDOW == 0
        assert calls_g["f"] < calls["f"] / 4
        # it stops where a run capped at its iterations ends
        zc, fc = minimize_box(f, _valley_grad, self.LO, self.HI, self.START,
                              max_iters=iters)
        assert zg.tobytes() == zc.tobytes() and fg.tobytes() == fc.tobytes()
        assert fz[0] <= fg[0]

    def test_creeping_row_below_the_goal_stops(self):
        # the valley shifted down by 5.35 and capped at 2000 iterations: the
        # row gets below the goal by iteration 200 and creeps on towards
        # -5.35; it stops once its pace projects less than _DEPTH of its
        # depth, which the rest of the run does not gain either
        f = lambda z, rows: _valley(z) - 5.35
        cap = 2000
        z, fz, calls = self.run(f, _valley_grad, self.LO, self.HI, self.START,
                                max_iters=cap)
        zg, fg, calls_g = self.run(f, _valley_grad, self.LO, self.HI,
                                   self.START, max_iters=cap,
                                   goal=-falsify._EPS_CE)
        assert calls["grad"] == cap
        iters = calls_g["grad"]
        assert iters < 0.9 * cap and iters % falsify._WINDOW == 0
        zc, fc = minimize_box(f, _valley_grad, self.LO, self.HI, self.START,
                              max_iters=iters)
        assert zg.tobytes() == zc.tobytes() and fg.tobytes() == fc.tobytes()
        depth = -falsify._EPS_CE - fg[0]
        assert depth > 5.0
        assert 0.0 < fg[0] - fz[0] <= falsify._DEPTH * depth

    def test_row_whose_gains_halve_stops_at_its_tail(self, monkeypatch):
        # 0.01 + z0^2 + 50 z1^2 from (-1.5, 1.9) converges linearly to a
        # floor 0.01 above the goal: after its first window each window
        # gains ~0.41 of the one before (0.68, 0.28, 0.11, ...).  The tail
        # those gains project stops it at the check of iteration 30, two
        # halvings in; their pace projects a crossing of the goal until
        # iteration 100, where the rule without the tail stops it
        f = lambda z, rows: 0.01 + z[:, 0] ** 2 + 50.0 * z[:, 1] ** 2
        grad = lambda z, rows: np.stack([2.0 * z[:, 0], 100.0 * z[:, 1]], 1)
        z0 = np.array([[-1.5, 1.9]])
        goal = -falsify._EPS_CE
        zg, fg, calls = self.run(f, grad, self.LO, self.HI, z0, goal=goal)
        iters = calls["grad"]
        assert iters == 3 * falsify._WINDOW
        zc, fc = minimize_box(f, grad, self.LO, self.HI, z0, max_iters=iters)
        assert zg.tobytes() == zc.tobytes() and fg.tobytes() == fc.tobytes()
        _, fz = minimize_box(f, grad, self.LO, self.HI, z0)
        assert goal < fz[0] <= fg[0]
        monkeypatch.setattr(falsify, "_CONTRACTION", 0.0)  # no tail
        _, _, paced = self.run(f, grad, self.LO, self.HI, z0, goal=goal)
        assert paced["grad"] == 10 * falsify._WINDOW

    def test_row_below_the_goal_that_speeds_up_keeps_its_bits(self):
        # -tanh(z - 6) - 2 from z = 0 starts at depth 1 below the goal, on
        # the plateau of test_plateau_then_drop_is_not_stopped: at the
        # checks of iterations 10 and 20 its pace projects less than _DEPTH
        # of its depth, but it gains more than over the window before
        f = lambda z, rows: -np.tanh(z[:, 0] - 6.0) - 2.0
        grad = lambda z, rows: np.tanh(z - 6.0) ** 2 - 1.0
        lo, hi, z0 = np.zeros(1), np.full(1, 20.0), np.zeros((1, 1))
        at = [float(minimize_box(f, grad, lo, hi, z0, max_iters=k)[1][0])
              for k in range(0, 3 * falsify._WINDOW, falsify._WINDOW)]
        assert at[0] < -1.0
        gains = -np.diff(at)
        assert gains[1] > gains[0] > 0.0
        for k, gain in enumerate(gains, 1):
            left = 200 - k * falsify._WINDOW
            ahead = gain * left / falsify._WINDOW
            assert ahead <= falsify._DEPTH * (-falsify._EPS_CE - at[k])
        z, fz = minimize_box(f, grad, lo, hi, z0)
        zg, fg = minimize_box(f, grad, lo, hi, z0, goal=-falsify._EPS_CE)
        assert fg[0] == -math.tanh(14.0) - 2.0
        assert zg.tobytes() == z.tobytes() and fg.tobytes() == fz.tobytes()


def _point_drift(prob, tmpl, p, z):
    """The drift objective at one point, evaluated point-wise with the
    monomial loops and ``compile_vector`` on the point's Python floats:
    the reference the batched objective must reproduce row by row.  A
    point where the flow raises, or where the norm of grad V or of the
    flow is not finite, is undefined."""
    n = prob.dim
    x = z[:n]
    gv = model.template_grad_x(tmpl, p, 0, x)
    flow = ex.compile_vector(prob.modes[0].flow)
    jac = ex.compile_vector([ex.differentiate(f, j)
                             for f in prob.modes[0].flow for j in range(n)])
    try:
        fv = np.array(flow(z.tolist()))
        ng, nf = math.sqrt(gv.dot(gv)), math.sqrt(fv.dot(fv))
        flat = (not (math.isfinite(ng) and math.isfinite(nf))
                or ng < 1e-12 or nf < 1e-12)
    except (ValueError, ZeroDivisionError, OverflowError):
        flat = True
    if flat:
        value, grad = math.inf, np.zeros(n)
    else:
        value = -float(gv @ fv) / (ng * nf)
        u, w = gv / ng, fv / nf
        pu_w = w - u * float(u @ w)
        pw_u = u - w * float(w @ u)
        grad = -(model.template_hess_x(tmpl, p, 0, x) @ pu_w / ng
                 + np.array(jac(z.tolist())).reshape(n, n).T @ pw_u / nf)
        grad = grad - u * float(grad @ u)  # the tangent step
    return value, grad


def _drift_with_undefined_rows():
    # flows with a division and a logarithm: at x = 0 and at y = 0 the
    # point code raises and the batch gives a row of nan; both rows are
    # undefined, +inf with a zero gradient
    prob = model.load_problem({
        "variables": ["x", "y"],
        "modes": [{"name": "m", "omega": [[-2, 2], [-2, 2]],
                   "flow": ["1/x + y", "ln(y^2) - x"]}],
        "init": [{"mode": "m", "box": [[-2, -1], [-2, -1]]}],
        "unsafe": [{"mode": "m", "box": [[1.5, 2], [1.5, 2]]}]})
    tmpl = model.make_template("quadratic-2d", 2, 1)
    p = np.array([1.0, 0.0, 1.0, -2.0, -2.0, 2.0])  # (x - 1)^2 + (y - 1)^2
    rng = np.random.default_rng(5)
    z = np.vstack([rng.uniform(-2, 2, (5, 2)),
                   [[1.0, 1.0], [0.0, 0.5], [0.5, 0.0], [-0.0, 2.0]]])
    return prob, tmpl, p, z


def test_drift_objective_rows_match_point_evaluation():
    prob, tmpl, p, z = _drift_with_undefined_rows()
    mc = Certificate(tmpl, p)[0]
    value, gradient = falsify._drift_objective(prob, 0, mc)
    every = lambda z: np.arange(len(z))
    with np.errstate(all="ignore"):
        for batch in (z, z[:5]):
            got_v = value(batch, every(batch))
            got_g = gradient(batch, every(batch))
            for r, row in enumerate(batch):
                want_v, want_g = _point_drift(prob, tmpl, p, row)
                assert float(got_v[r]).hex() == float(want_v).hex()
                assert got_g[r].tobytes() == want_g.tobytes()
        # x = 0 and y = 0 divide by zero and take ln(0.0); so does x = -0.0
        assert list(np.isinf(value(z[-3:], every(z[-3:])))) == [True] * 3
        assert not gradient(z[-3:], every(z[-3:])).any()
        # the gradient is tangent to the level set through each point
        gv = model.template_grad_x(tmpl, p, 0, z[0])
        value(z[:1], every(z[:1]))
        tangent = gradient(z[:1], every(z[:1]))[0]
        assert abs(tangent @ gv) <= 1e-12 * np.linalg.norm(gv)


@pytest.mark.parametrize("case", ["undefined rows", "disturbance"])
def test_drift_gradient_after_value_is_a_fresh_evaluation(case):
    # the order of minimize_box: a value batch on every row, then value
    # batches on some rows at trial points, then gradients of rows at
    # their last value batch's point, in any order.  Each equals what a
    # new objective gives on those points alone, flat rows (+inf, a zero
    # gradient) too
    if case == "disturbance":
        prob, tmpl, p = circle_problem(0.0, 0.2, dist=(-0.5, 0.5))
        rng = np.random.default_rng(7)
        z = np.hstack([rng.uniform(-1.5, 1.5, (9, 2)),
                       rng.uniform(-0.5, 0.5, (9, 1))])
        z[4] = 0.0                       # grad V and the flow vanish
    else:
        prob, tmpl, p, z = _drift_with_undefined_rows()
    mc = Certificate(tmpl, p)[0]

    def fresh(points):
        value, gradient = falsify._drift_objective(prob, 0, mc)
        rows = np.arange(len(points))
        return value(points, rows), gradient(points, rows)

    value, gradient = falsify._drift_objective(prob, 0, mc)
    k = len(z)
    with np.errstate(all="ignore"):
        value(z, np.arange(k))
        tried = np.array([6, 1, 4, 8, 3])
        trial = z[tried] * 0.75
        value(trial, tried)
        at = z.copy()
        at[tried] = trial
        for rows in (np.array([4, 6, 1]), np.array([0, 8, 5, 2]),
                     np.arange(k)[::-1]):
            _, want = fresh(at[rows])
            assert gradient(at[rows], rows).tobytes() == want.tobytes()
        flat = np.isinf(fresh(at)[0])
        assert flat.any() and not gradient(at, np.arange(k))[flat].any()


class TestSignSearches:
    def test_initial_closed_form(self):
        prob, tmpl, p = composition_with_linear_barrier()
        hit = min_initial(prob, Certificate(tmpl, p), starts=8, seed=0)[0]
        assert hit.value == pytest.approx(8.87225682329, abs=1e-8)
        assert hit.x[0] == pytest.approx(9.0, abs=1e-8)

    def test_unsafe_closed_form(self):
        prob, tmpl, p = composition_with_linear_barrier()
        hit = min_unsafe(prob, Certificate(tmpl, p), starts=8, seed=0)[0]
        assert hit.value == pytest.approx(9.12774317671, abs=1e-8)
        assert hit.x[0] == pytest.approx(-9.0, abs=1e-8)

    def test_zero_template_gives_zero(self):
        prob, tmpl, _ = composition_with_linear_barrier()
        p0 = np.zeros(tmpl.size)
        init = min_initial(prob, Certificate(tmpl, p0), starts=4, seed=0)
        unsafe = min_unsafe(prob, Certificate(tmpl, p0), starts=4, seed=0)
        assert init[0].value == 0.0 and unsafe[0].value == 0.0

    def test_interior_peak_found_with_grid_oracle(self):
        # V = -(x - c)^2 has -V minimal (zero) at c inside the initial box
        prob = line_problem("1", omega=(-5.0, 5.0), init=(-1.0, 1.0),
                            unsafe=(4.0, 4.5))
        tmpl = Template((((0,), (1,), (2,)),))
        c = 0.25
        p = np.array([-c * c, 2 * c, -1.0])  # -(x - c)^2 expanded
        grid = np.arange(-1.0, 1.0 + 1e-9, 1e-4)
        oracle = min(-(-(g - c) ** 2) for g in grid)
        hit = min_initial(prob, Certificate(tmpl, p), starts=8, seed=1)[0]
        assert hit.value == pytest.approx(oracle, abs=1e-8)
        assert hit.x[0] == pytest.approx(c, abs=1e-5)


def circle_problem(center=0.0, contraction=0.2, omega=((0.5, 3.5), (-1.5, 1.5)),
                   dist=None):
    """V = (x - center)^2 + y^2 - 1 under the rotation-plus-contraction
    flow (-y - c x, x - c y), plus a disturbance d in ``dist`` on the first
    component when given."""
    c = contraction
    doc = {"variables": ["x", "y"],
           "modes": [{"name": "m", "omega": [list(b) for b in omega],
                      "flow": [f"-y - {c} * x" + (" + d" if dist else ""),
                               f"x - {c} * y"]}],
           "init": [{"mode": "m", "box": [[omega[0][0], omega[0][0] + 0.1],
                                          [omega[1][0], omega[1][0] + 0.1]]}],
           "unsafe": [{"mode": "m", "box": [[omega[0][1] - 0.1, omega[0][1]],
                                            [omega[1][1] - 0.1, omega[1][1]]]}]}
    if dist:
        doc.update(disturbances=["d"], disturbance_box=[list(dist)])
    tmpl = model.make_template("quadratic-2d", 2, 1)
    p = np.array([1.0, 0.0, 1.0, -2.0 * center, 0.0, center ** 2 - 1.0])
    return model.load_problem(doc), tmpl, p


def _band(p):
    return falsify._LEVEL_BAND * (1.0 + float(np.linalg.norm(p)))


class TestTransversality:
    def test_centred_circle_closed_form(self):
        # on the unit circle the flow M x, M = [[-c, -1], [1, -c]], points
        # inward at a constant angle: the normalized drift is c/sqrt(1 + c^2)
        # at every point
        prob, tmpl, p = circle_problem(0.0, 0.2, omega=((-2, 2), (-2, 2)))
        value, _, _, x, _, _ = min_transversality(prob, Certificate(tmpl, p),
                                                  starts=8, seed=0)[0]
        assert value == pytest.approx(0.2 / math.sqrt(1.04), abs=1e-12)
        assert abs(x @ x - 1.0) <= _band(p)

    def test_offset_circle_closed_form(self):
        # centred at (2, 0): the flow at x points along x turned by
        # 90 deg + atan(c), and where that is the outward normal the drift
        # takes its least value, -1.  Such points exist: the triangle
        # (origin, centre, point) has the angle 90 deg + atan(c) at the
        # point, so by the law of sines its angle at the origin has the
        # sine cos(atan(c)) / 2 < 1
        prob, tmpl, p = circle_problem(2.0, 0.2)
        value, _, _, x, _, _ = min_transversality(prob, Certificate(tmpl, p),
                                                  starts=8, seed=0)[0]
        assert value == pytest.approx(-1.0, abs=1e-9)
        normal = np.array([x[0] - 2.0, x[1]])
        flow = np.array([-x[1] - 0.2 * x[0], x[0] - 0.2 * x[1]])
        assert normal @ flow / np.linalg.norm(normal) / np.linalg.norm(flow) \
            == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_points_on_the_band_in_omega_and_disturbance_box(self, seed):
        # omega cuts the circle, so the retraction meets the box
        prob, tmpl, p = circle_problem(2.0, 0.2, omega=((1.2, 3.5), (-1.5, 0.6)),
                                       dist=(-0.5, 0.5))
        value, _, _, x, d, _ = min_transversality(prob, Certificate(tmpl, p),
                                                  starts=8, seed=seed)[0]
        assert value < 0
        assert abs(model.template_value(tmpl, p, 0, x)) <= _band(p)
        assert prob.modes[0].omega.contains(x) and prob.dist_box.contains(d)

    def test_rows_are_monotone_and_stay_on_the_band(self, rng):
        prob, tmpl, p = circle_problem(2.0, 0.2, dist=(-0.5, 0.5))
        mc = Certificate(tmpl, p)[0]
        lo = np.array([0.5, -1.5, -0.5])
        hi = np.array([3.5, 1.5, 0.5])
        band = _band(p)
        with np.errstate(all="ignore"):
            x, landed, _ = model.land_on_level_set(
                mc.value_grad, rng.uniform(lo[:2], hi[:2], (12, 2)),
                lo[:2], hi[:2], band, model.LANDING_STEPS)
            z0 = np.hstack([x, rng.uniform(-0.5, 0.5, (12, 1))])[landed]
            f, g = falsify._drift_objective(prob, 0, mc)
            project = falsify._retraction(prob, mc, lo, hi, band)
            before = None
            for iters in range(0, 40, 3):
                z, fz = minimize_box(f, g, lo, hi, z0, iters, project=project)
                assert np.all(np.abs(mc.value(z[:, :2])) <= band)
                assert np.all((lo <= z) & (z <= hi))
                if before is not None:
                    assert np.all(fz <= before)
                before = fz
        assert landed.sum() >= 8 and fz.min() == pytest.approx(-1.0, abs=1e-6)

    def test_aligned_field(self):
        prob = line_problem("1", omega=(-1.0, 1.0))
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x, flow +1: worst drift value -1
        value, _, mode, x, _, _ = min_transversality(
            prob, Certificate(tmpl, p), starts=8, seed=0)[0]
        assert value == pytest.approx(-1.0, abs=1e-8)
        assert abs(model.template_value(tmpl, p, mode, x)) <= 1e-6 * 2

    def test_anti_aligned_field(self):
        prob = line_problem("-1", omega=(-1.0, 1.0))
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])
        hit = min_transversality(prob, Certificate(tmpl, p),
                                 starts=8, seed=0)[0]
        assert hit.value == pytest.approx(1.0, abs=1e-8)

    def test_pendulum_horizontal_level_set_with_grid_oracle(self):
        prob = model.load_problem(benchmarks.pendulum())
        tmpl = Template((((0, 0), (0, 1)),))
        p = np.array([-8.9, 1.0])  # V = y - 8.9

        def normalized_drift(x):
            f = np.array([8.9, -math.sin(x) - 8.9])
            g = np.array([0.0, 1.0])
            return -float(g @ f) / np.linalg.norm(f)

        grid = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
        oracle = min(normalized_drift(x) for x in grid)
        assert oracle > 0  # the flow never crosses upward
        hit = min_transversality(prob, Certificate(tmpl, p),
                                 starts=12, seed=0)[0]
        assert hit.value > 0
        assert hit.value >= oracle - 1e-6

    def test_constant_gradient_free_template_fails_cleanly(self):
        prob = line_problem("1")
        tmpl = Template((((0,),),))
        assert min_transversality(prob, Certificate(tmpl, np.array([1.0])),
                                  starts=4, seed=0) == []

    def test_constant_zero_template_has_no_violation(self):
        # V = 0: every start lands, and a zero gradient is +inf, so the
        # drift search needs no guard against constant templates
        prob = line_problem("1")
        tmpl = Template((((0,),),))
        hits = min_transversality(prob, Certificate(tmpl, np.array([0.0])),
                                  starts=4, seed=0)
        assert len(hits) == 4 and all(h.value == math.inf for h in hits)


class TestReset:
    def _problem(self):
        return sawtooth_problem()

    def test_no_resets_is_vacuous(self):
        prob = line_problem("1")
        assert min_reset(prob, Certificate(linear_template_1d(),
                                           np.array([0.0, 1.0])),
                         starts=4, seed=0) == []

    def test_point_guard_values(self):
        prob = self._problem()
        tmpl = linear_template_1d()
        # V = x - 0.5: max(V(1), -V(0)) = max(0.5, 0.5) = 0.5
        hit = min_reset(prob, Certificate(tmpl, np.array([-0.5, 1.0])),
                        starts=4, seed=0)[0]
        assert hit.value == pytest.approx(0.5, abs=1e-12)
        # V = x - 2: max(-1, 2) = 2
        hit = min_reset(prob, Certificate(tmpl, np.array([-2.0, 1.0])),
                        starts=4, seed=0)[0]
        assert hit.value == pytest.approx(2.0, abs=1e-12)
        # V = -x + 0.5: max(-0.5, -0.5) = -0.5, a violation
        hit = min_reset(prob, Certificate(tmpl, np.array([0.5, -1.0])),
                        starts=4, seed=0)[0]
        assert hit.value == pytest.approx(-0.5, abs=1e-12)

    def test_undefined_map_rows_are_inf_with_zero_gradient(self):
        # r(x) = 1/x + x^400 divides by zero at x = 0 and x = -0.0 and
        # overflows at x = 10; the other rows keep their values
        rule = ResetRule(0, Box((-10.0,), (10.0,)), 0,
                         (ex.parse("1/x + x^400", ["x"]),))
        p = np.array([0.5, -1.0])  # V = 0.5 - x
        value, gradient = falsify._reset_objective(
            rule, Certificate(linear_template_1d(), p))
        x = np.array([[0.5], [0.0], [10.0], [-0.75], [-0.0], [1.5]])
        bad = np.array([False, True, True, False, True, False])
        with np.errstate(all="ignore"):
            v, g = value(x, None), gradient(x, None)   # the rows are ignored
            assert v[bad].tolist() == [math.inf] * 3
            assert not g[bad].any()
            assert v[~bad].tobytes() == value(x[~bad], None).tobytes()
            assert g[~bad].tobytes() == gradient(x[~bad], None).tobytes()
        # at x = 0.5: -V(r(x)) = 2 - 0.5 = 1.5 > V(x) = 0, and its slope is
        # r'(0.5) = -4 + 400 * 0.5^399
        assert v[0] == 1.5 and g[0, 0] == pytest.approx(-4.0)


class TestFindCounterexample:
    def test_none_when_all_conditions_hold(self):
        prob, tmpl, p = composition_with_linear_barrier()
        assert find_counterexample(prob, Certificate(tmpl, p),
                                   starts=8, seed=0) is None

    def test_transversality_violation_builds_long_segment(self):
        prob = line_problem("1", omega=(-1.0, 1.0), init=(-0.9, -0.8),
                            unsafe=(0.8, 0.9))
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x increases along the flow
        res = find_counterexample(prob, Certificate(tmpl, p),
                                  starts=8, seed=0, t_max=50.0)
        assert res is not None and res.hit.kind == "transversality"
        seg = res.segment
        assert seg.s[0] == pytest.approx(-1.1, abs=1e-5)
        assert seg.sp[0] == pytest.approx(1.1, abs=1e-5)
        assert segment_margin(prob, Certificate(tmpl, p), seg) <= 0.0

    def test_initial_violation_hard_row(self):
        # V = x + 0.5 exceeds 1 on the initial box, a worse violation than
        # the normalized drift can ever be
        prob = line_problem("1", omega=(-1.0, 1.0), init=(0.5, 0.75),
                            unsafe=(0.8, 0.9))
        tmpl = linear_template_1d()
        p = np.array([0.5, 1.0])
        res = find_counterexample(prob, Certificate(tmpl, p),
                                  starts=8, seed=0)
        assert res is not None and res.hit.kind == "initial"
        v_at_start = model.template_value(tmpl, p, res.segment.s_mode,
                                          res.segment.s)
        assert v_at_start >= 0.0
        assert rows_ref.flags(prob, res.segment) == [True, False, False, False]
        # the initial start's row, and the end's side it forces
        assert len(chebyshev.build([res.segment], tmpl, prob).hard) == 2
        assert segment_margin(prob, Certificate(tmpl, p), res.segment) <= 0.0

    def test_reset_violation(self):
        # V = 0.5 - x: negative at the guard, positive at the reset target,
        # and the other three conditions hold on these regions
        prob = sawtooth_problem(init=(0.6, 0.7), unsafe=(-1.8, -1.5))
        tmpl = linear_template_1d()
        p = np.array([0.5, -1.0])
        res = find_counterexample(prob, Certificate(tmpl, p),
                                  starts=8, seed=0)
        assert res is not None and res.hit.kind == "reset"
        assert segment_margin(prob, Certificate(tmpl, p), res.segment) <= 0.0

    def test_determinism(self):
        prob = line_problem("1", omega=(-1.0, 1.0), init=(-0.25, 0.25),
                            unsafe=(0.8, 0.9))
        tmpl = linear_template_1d()
        p = np.array([0.5, 1.0])
        a = find_counterexample(prob, Certificate(tmpl, p), starts=8, seed=123)
        b = find_counterexample(prob, Certificate(tmpl, p), starts=8, seed=123)
        assert a.hit.kind == b.hit.kind
        assert np.array_equal(a.hit.x, b.hit.x)
        assert a.hit.value == b.hit.value
        assert a.segment == b.segment


def _hex(values):
    return [float(v).hex() for v in values]


# find_counterexample on bundled problems, recorded when the drift search
# became one descent along the zero level set (the minima of the other
# three searches date from before the certificate evaluators were
# compiled to straight-line code).  The search must reproduce every
# minimum, point and segment bit for bit.  Each case: the
# problem, its candidate p and falsifier seed as the refinement loop
# produced them, the ride horizon, the four search minima, and the
# counter-example (kind, value, x, segment) or None for a miss.  Recorded
# on x86-64 Linux with glibc's libm and OpenBLAS; a libm or BLAS that
# rounds sin, pow or dot differently moves these values.  The two misses,
# pendulum-final and scalable-l3, were re-recorded when each start began
# to stop once it could no longer get below -_EPS_CE: their minima are
# positive, so the searches stop short of them, and they rise by at most
# 9.4e-4 relative.  The round-1 hit is unchanged.  Its segment was
# re-recorded when ride events began to be located on the step's dense
# output: the drift rides' endpoints move by at most 2.1e-7.  It was
# re-recorded again when the locator became a secant (Illinois regula
# falsi) instead of bisection: the endpoints move by at most 1.2e-9.
GOLDEN_SEARCHES = {
    "pendulum-round-1": (
        "pendulum",
        ["0x1.3659555109f31p-6", "-0x1.0a6c16aa83240p-7",
         "-0x1.70a7ad4316f7dp-6", "-0x1.2d857f2a88510p-5",
         "-0x1.0000000000000p+0", "-0x1.2f090420784d8p-1"],
        2488343231644625808, 50.0,
        {"min_initial": "0x1.c7a0d50735c0cp+2",
         "min_unsafe": "0x1.ec369980a4f7ep+1",
         "min_transversality": "-0x1.0000000000000p+0",
         "min_reset": "inf"},
        ("transversality", "-0x1.0000000000000p+0",
         ["-0x1.04ac2af0c9767p+2", "-0x1.0f592a4ae3fcdp-3"],
         (0, ["-0x1.5fffffffc5084p+3", "0x1.0080eedd14a35p+3"],
          0, ["-0x1.6abf8518e3785p+2", "-0x1.93154a3c9dd8fp-1"],
          False, False, False, False)),
    ),
    "pendulum-final": (
        "pendulum",
        ["-0x1.6b12fc1fff1d1p-6", "-0x1.418dc1122ba09p-55",
         "0x1.2d35314f2e12dp-4", "-0x1.8000000000000p-53",
         "-0x1.adca1080dd025p-1", "-0x1.0000000000000p+0"],
        5014055544817598431, 50.0,
        {"min_initial": "0x1.0532ef2ab88b6p+1",
         "min_unsafe": "0x1.68e74e2df0f2ep+1",
         "min_transversality": "0x1.c0756b5039253p-5",
         "min_reset": "inf"},
        None,
    ),
    "scalable-l3": (
        "scalable-l3",
        ["0x1.3ecbdde04e140p-3", "-0x1.0000000000000p+0",
         "0x1.939ed7f499700p-11", "0x1.39ec34474e000p-11",
         "0x1.93c34e7911f00p-11", "0x1.3a0ffbf9e0100p-11",
         "0x1.93e7bdb1c5a00p-11", "0x1.3a33e378a5880p-11"],
        2488343231644625808, 10.0,
        {"min_initial": "0x1.19f8280aef2a0p+3",
         "min_unsafe": "0x1.23b19be371560p+3",
         "min_transversality": "0x1.d2140955cce0fp-7",
         "min_reset": "inf"},
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SEARCHES))
def test_golden_counterexamples(case, monkeypatch):
    name, p_hex, seed, t_max, minima, expected = GOLDEN_SEARCHES[case]
    doc = benchmarks.corpus()[name]
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    p = np.array([float.fromhex(v) for v in p_hex])
    seen = {}
    for search in minima:
        inner = getattr(falsify, search)

        def recorded(*args, _inner=inner, _search=search, **kwargs):
            result = _inner(*args, **kwargs)
            seen[_search] = float(result[0].value if result
                                  else math.inf).hex()
            return result

        monkeypatch.setattr(falsify, search, recorded)
    res = find_counterexample(prob, Certificate(tmpl, p), starts=16,
                              seed=seed, bloat_factor=1.1, t_max=t_max)
    assert seen == minima
    if expected is None:
        assert res is None
        return
    kind, value, x, (s_mode, s, sp_mode, sp, *flags) = expected
    assert (res.hit.kind, float(res.hit.value).hex(), _hex(res.hit.x)) == \
        (kind, value, x)
    seg = res.segment
    assert (seg.s_mode, _hex(seg.s), seg.sp_mode, _hex(seg.sp)) == \
        (s_mode, s, sp_mode, sp)
    assert rows_ref.flags(prob, seg) == flags


def _round_one():
    """Pendulum's first round: problem, certificate, falsifier settings."""
    name, p_hex, seed, t_max, _, _ = GOLDEN_SEARCHES["pendulum-round-1"]
    doc = benchmarks.corpus()[name]
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    cert = Certificate(tmpl, np.array([float.fromhex(v) for v in p_hex]))
    return prob, cert, dict(starts=16, seed=seed, t_max=t_max)


class TestExtraSegments:
    """Pendulum's first round: all 16 drift starts end below -eps, at
    three distinct points and a fourth on the box's edge."""

    def test_extras_are_distinct_refuting_and_capped(self, monkeypatch):
        prob, cert, cfg = _round_one()
        res = find_counterexample(prob, cert, **cfg)
        assert len(res.extras) == falsify._EXTRAS and res.dropped == 0
        ends = [(s.s, s.sp) for s in (res.segment, *res.extras)]
        assert len(set(ends)) == len(ends)
        assert all(segment_margin(prob, cert, s) <= 0.0 for s in res.extras)
        monkeypatch.setattr(falsify, "_EXTRAS", 1)
        fewer = find_counterexample(prob, cert, **cfg)
        assert fewer.segment == res.segment
        assert fewer.extras == res.extras[:1]

    @pytest.mark.parametrize("refuting", [[True, False, True, False],
                                          [False, True, True, True]])
    def test_segments_that_do_not_refute(self, monkeypatch, refuting):
        """An extra whose segment does not refute is dropped and counted,
        and the worst segment is kept; a worst segment that does not
        refute raises."""
        prob, cert, cfg = _round_one()
        want = find_counterexample(prob, cert, **cfg)
        margins = iter(refuting)
        inner = falsify.segment_margin

        def faked(*args):
            return inner(*args) if next(margins) else 1.0

        monkeypatch.setattr(falsify, "segment_margin", faked)
        if not refuting[0]:
            with pytest.raises(falsify.RefutationError,
                               match="transversality"):
                find_counterexample(prob, cert, **cfg)
            return
        res = find_counterexample(prob, cert, **cfg)
        assert (res.segment, res.margin) == (want.segment, want.margin)
        assert res.extras == [want.extras[1]] and res.dropped == 2

    def test_hits_at_one_point_add_one_segment(self, monkeypatch):
        """Lorenz's first round: its 8 drift hits all converge to one
        point, so the round adds the worst segment alone."""
        doc = benchmarks.corpus()["lorenz"]
        prob = model.load_problem(doc)
        tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
        hits = []
        inner = falsify.min_transversality

        def recorded(*args, **kwargs):
            result = inner(*args, **kwargs)
            hits.extend(h for h in result if h.value < -1e-9)
            return result

        monkeypatch.setattr(falsify, "min_transversality", recorded)
        report = engine.run(prob, tmpl, engine.RunConfig(
            sigma=float(doc["run"]["sigma"]), seed=int(doc["run"]["seed"]),
            max_iterations=1))
        assert len(hits) >= 2
        assert report.log[0].segments_added == 1
        assert report.log[0].segments_dropped == 0
