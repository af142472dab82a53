import json
import math
from pathlib import Path

import numpy as np
import pytest

from simbarrier import benchmarks, chebyshev, expr as ex, falsify, model, sim
from simbarrier.model import Box, Certificate, ModeDef, Problem, Template
from simbarrier.sim import StopReason

import rows_reference as rows_ref
import sim_reference as ref
from conftest import line_problem, linear_template_1d, rk4_endpoint, sawtooth_problem

THERMOSTAT = Path(__file__).parents[1] / "bench" / "data" / "thermostat.json"


def _mode(flow_texts, names, omega):
    return ModeDef("m", omega, tuple(ex.parse(t, names) for t in flow_texts))


def _one_mode(flow_texts, names, omega: Box) -> Problem:
    """A single-mode system whose state space is ``omega``."""
    return Problem(tuple(names), (), Box((), ()),
                   (_mode(flow_texts, names, omega),), (), ((0, omega),),
                   ((0, omega),))


def _ride(prob, start, horizon, **kw) -> sim.Trajectory:
    """One ride, as a batch of one row."""
    traj, = sim.flow_hybrid(prob, [start], None, horizon, **kw)
    return traj


class TestIntegrate:
    """One continuous phase: the state space is the bloated box."""

    def test_exponential_decay_endpoint(self):
        prob = _one_mode(["-x"], ["x"], Box((-5.0,), (5.0,)))
        traj = _ride(prob, (0, [1.0]), 1.0, bloat_factor=1.0)
        assert traj.reason is StopReason.HORIZON
        assert abs(traj.end[0] - math.exp(-1.0)) <= 1e-6

    def test_pendulum_equilibrium(self):
        prob = model.load_problem(benchmarks.pendulum())
        traj = _ride(prob, (0, [0.0, 0.0]), 10.0)
        assert traj.reason is StopReason.HORIZON
        assert max(abs(v) for v in traj.end) <= 1e-9

    def test_bloat_exit_against_rk4_oracle(self):
        # oracle: fixed-step RK4 at h = 1e-5 marched to the boundary
        f = lambda x: np.array([1.0])
        t_oracle, x_oracle = 0.0, np.array([0.0])
        while x_oracle[0] < 0.5:
            x_oracle = rk4_endpoint(f, x_oracle, 1e-5, 1e-5)
            t_oracle += 1e-5
        prob = _one_mode(["1"], ["x"], Box((-1.0,), (0.5,)))
        traj = _ride(prob, (0, [0.0]), 10.0, bloat_factor=1.0)
        assert traj.reason is StopReason.LEFT_BLOAT
        assert abs(traj.end[0] - 0.5) <= 1e-6
        assert abs(traj.time - t_oracle) <= 2e-5

    def test_step_failure_reported(self):
        # finite-time domain exit: dx/dt = -1/x reaches x = 0 at t = 0.125
        prob = _one_mode(["-1/x"], ["x"], Box((-10.0,), (10.0,)))
        traj = _ride(prob, (0, [-0.5]), 1.0, bloat_factor=1.0)
        assert traj.reason is StopReason.FAILURE
        assert traj.end[0] < 0.0

    def test_convergence_order(self, monkeypatch):
        # halving both tolerances shrinks the endpoint error by >= 2x on
        # average over several horizons
        prob = _one_mode(["-x"], ["x"], Box((-100.0,), (100.0,)))

        def err(rtol, atol, horizon):
            monkeypatch.setattr(sim, "RTOL", rtol)
            monkeypatch.setattr(sim, "ATOL", atol)
            traj = _ride(prob, (0, [1.0]), horizon, bloat_factor=1.0)
            return abs(traj.end[0] - math.exp(-horizon))

        ratios = []
        for horizon in (1.0, 5.0, 10.0):
            e1 = err(1e-4, 1e-6, horizon)
            e2 = err(5e-5, 5e-7, horizon)
            ratios.append(e1 / max(e2, 1e-17))
        avg = float(np.exp(np.mean(np.log(ratios))))
        assert avg >= 2.0


class TestFlowHybrid:
    def test_sawtooth_reset(self):
        prob = sawtooth_problem()
        traj = _ride(prob, (0, (0.0,)), 1.5)
        assert traj.reason is StopReason.HORIZON
        assert traj.resets == 1
        assert abs(traj.end[0] - 0.5) <= 1e-6

    def test_zero_horizon_returns_start(self):
        prob = sawtooth_problem()
        traj = _ride(prob, (0, (0.3,)), 0.0)
        assert traj.end == (0.3,)
        assert traj.resets == 0
        assert traj.reason is StopReason.HORIZON

    def test_reset_into_own_guard_livelocks(self):
        prob = sawtooth_problem(reset_to=1.0)
        traj = _ride(prob, (0, (0.0,)), 5.0)
        assert traj.reason is StopReason.LIVELOCK
        assert traj.resets > 100

    def test_start_on_guard_resets_immediately(self):
        prob = sawtooth_problem()
        traj = _ride(prob, (0, (1.0,)), 0.25)
        assert traj.resets >= 1
        assert abs(traj.end[0] - 0.25) <= 1e-6

    def test_prefix_consistency_smooth(self):
        prob = model.load_problem(benchmarks.pendulum())
        start = (0, (1.0, 2.0))
        full = _ride(prob, start, 1.0)
        half = _ride(prob, start, 0.4)
        rest = _ride(prob, (half.end_mode, half.end), 0.6)
        assert np.allclose(full.end, rest.end, atol=1e-6)

    def test_prefix_consistency_across_reset(self):
        prob = sawtooth_problem()
        start = (0, (0.6,))
        full = _ride(prob, start, 1.0)
        half = _ride(prob, start, 0.5)
        rest = _ride(prob, (half.end_mode, half.end), 0.5)
        assert abs(full.end[0] - rest.end[0]) <= 1e-6
        assert full.resets == 1

    def test_unmappable_reset_fails_the_row(self):
        # the map ln(1 - x) cannot be computed past the guard x = 1: that row
        # ends as a failure in its source mode; the other row goes on
        prob = sawtooth_problem()
        rule = prob.resets[0]
        broken = model.ResetRule(rule.source, rule.guard, rule.target,
                                 (ex.parse("ln(1 - x)", ["x"]),), rule.inv,
                                 rule.image)
        prob = Problem(prob.state_vars, (), Box((), ()), prob.modes, (broken,),
                       prob.initial, prob.unsafe)
        failed, clear = sim.flow_hybrid(prob, [(0, (0.5,)), (0, (-1.5,))],
                                        None, 1.0)
        assert failed.reason is StopReason.FAILURE
        assert failed.resets == 0
        assert abs(failed.end[0] - 1.0) <= 1e-6
        assert clear.reason is StopReason.HORIZON


class TestEventLocation:
    """Crossings found on the accepted step's dense output, checked
    against what is known of the flow, not against the reference."""

    @pytest.mark.parametrize("flow, names, box, start, t_exit", [
        (["1"], ["x"], Box((-1.0,), (0.5,)), [0.0], 0.5),
        # x = cos t, y = sin t leaves x >= 0.3 at t = arccos(0.3)
        (["-y", "x"], ["x", "y"], Box((0.3, -2.0), (2.0, 2.0)), [1.0, 0.0],
         math.acos(0.3)),
    ])
    def test_exit_time_is_the_analytic_one(self, flow, names, box, start,
                                           t_exit):
        traj = _ride(_one_mode(flow, names, box), (0, start), 10.0,
                     bloat_factor=1.0)
        assert traj.reason is StopReason.LEFT_BLOAT
        assert abs(traj.time - t_exit) <= 1e-7

    def test_exits_and_guard_contacts_land_on_their_side(self):
        # every bloat exit ends inside the bloated box, and every guard
        # contact, as the jump sees it, lies inside its guard
        exits = 0
        for name, doc in benchmarks.corpus().items():
            prob = model.load_problem(doc)
            _, rows = _midpoint(prob)
            starts = [(m, v) for m, box in prob.initial
                      for v in sim._select_vertices(box, 16,
                                                    np.random.default_rng(5))]
            for traj in sim.flow_hybrid(prob, starts, rows, 10.0):
                if traj.reason is StopReason.LEFT_BLOAT and traj.time > 0.0:
                    omega = prob.modes[traj.end_mode].omega
                    assert model.bloat(omega, 1.1).contains(traj.end), name
                    exits += 1
        assert exits >= 50
        prob = _thermostat()
        contacts = []

        def record(rule, x, _y):
            contacts.extend((rule.guard, tuple(row)) for row in x.tolist())
            return np.zeros(len(x), dtype=bool)

        starts = [(m, (x,)) for m in (0, 1) for x in np.linspace(15.5, 21.5, 7)]
        sim.flow_hybrid(prob, starts, _midpoint(prob)[1], 30.0,
                        jump_stop=record)
        assert len(contacts) >= 50
        assert all(guard.contains(x) for guard, x in contacts)

    def test_box_exit_calls_the_flow_only_in_steps(self, monkeypatch):
        prob = _one_mode(["-y", "x"], ["x", "y"],
                         Box((0.3, -2.0), (2.0, 2.0)))
        flow = prob.modes[0].flow_rows
        calls = {"flow": 0, "located": 0, "flow_locating": 0}
        locating = [False]

        def counted_flow(z):
            calls["flow"] += 1
            calls["flow_locating"] += locating[0]
            return flow(z)

        def counted_locate(*args, _inner=sim._locate):
            calls["located"] += 1
            locating[0] = True
            try:
                return _inner(*args)
            finally:
                locating[0] = False

        prob.modes[0].__dict__["flow_rows"] = counted_flow
        monkeypatch.setattr(sim, "_locate", counted_locate)
        traj = _ride(prob, (0, [1.0, 0.0]), 10.0, bloat_factor=1.0)
        assert traj.reason is StopReason.LEFT_BLOAT
        assert calls["located"] == 1 and calls["flow"] >= 8
        assert calls["flow_locating"] == 0

    @staticmethod
    def locate(flow, x0, h, g, direction):
        """One Dormand-Prince step of size h of x' = flow(x) from x0, and
        ``sim._locate`` of g's crossing on it: the time, the point, whether
        the row failed, and the trials (calls of g)."""
        x, d, h = np.array([x0], dtype=float), np.empty((1, 0)), np.array([h])
        x_new, k = sim._rk_step(lambda z, _d: flow(z), x, d, h)
        trials = [0]

        def counted(z, _d):
            trials[0] += 1
            return g(z)

        t, at, failed = sim._locate(counted, direction, x, k, d, h, g(x),
                                    x_new, g(x_new))
        return t[0], at[0], failed[0], trials[0]

    def test_a_linear_event_takes_at_most_three_trials(self):
        # x - 0.3 on x' = 1: the first secant lands on the crossing, and
        # the next, clipped a quarter tolerance inside, closes the bracket
        t, at, failed, trials = self.locate(np.ones_like, [0.0], 1.0,
                                            lambda z: z[:, 0] - 0.3, 0)
        assert not failed and trials <= 3
        assert abs(t - 0.3) <= sim.EVENT_TIME_TOL and at[0] - 0.3 >= 0.0

    def test_a_smooth_drift_zero_takes_at_most_eight_trials(self,
                                                            monkeypatch):
        # the drift x of V = y on x = cos t, y = sin t from t = 1.4 falls
        # to zero at t = pi/2 - 1.4; the secant finds the crossing of the
        # step's interpolant that bisection finds, in fewer trials
        rotate = lambda z: np.stack([-z[:, 1], z[:, 0]], 1)
        args = (rotate, [math.cos(1.4), math.sin(1.4)], 0.25,
                lambda z: z[:, 0], -1)
        t, at, failed, trials = self.locate(*args)
        assert not failed and trials <= 8
        assert abs(t - (math.pi / 2 - 1.4)) <= 1e-6 and at[0] <= 0.0
        monkeypatch.setattr(sim, "_SECANT_TRIALS", 0)
        t_bisect, _, _, bisected = self.locate(*args)
        assert abs(t - t_bisect) <= sim.EVENT_TIME_TOL
        assert bisected == math.ceil(math.log2(0.25 / sim.EVENT_TIME_TOL))

    @pytest.mark.parametrize("g", [
        lambda z: -(z[:, 0] - 0.3) ** 9,
        lambda z: np.maximum(0.3 - z[:, 0], 1e-3 * (0.3 - z[:, 0])),
        lambda z: np.minimum(0.3 - z[:, 0], 40.0 * (0.2 - z[:, 0]) + 4.0),
    ], ids=["flat", "kinked-at-the-crossing", "kinked-before-it"])
    def test_flat_and_kinked_events_close_within_the_bound(self, g):
        t, _, failed, trials = self.locate(np.ones_like, [0.0], 1.0, g, -1)
        bisection = math.ceil(math.log2(1.0 / sim.EVENT_TIME_TOL))
        assert not failed and trials <= sim._SECANT_TRIALS + bisection
        assert 0.3 <= t <= 0.3 + sim.EVENT_TIME_TOL

    def test_an_exit_event_returns_a_point_inside(self):
        gap = sim._box_gap(Box((-1.0, -1.0), (0.3, 1.0)))
        t, at, failed, trials = self.locate(
            lambda z: np.stack([np.ones(len(z)), z[:, 0]], 1), [0.0, 0.0],
            0.8, gap, 1)
        assert not failed and trials <= 3
        assert gap(at[None])[0] <= 0.0 and abs(t - 0.3) <= sim.EVENT_TIME_TOL

    BALL = {
        "variables": ["x", "v"],
        "modes": [{"name": "fall", "omega": [[-1, 2], [-20, 20]],
                   "flow": ["v", "-9.81"]}],
        "resets": [{"source": "fall", "target": "fall",
                    "guard": [[-1, 0], [-20, 0]], "map": ["x", "-0.8*v"]}],
        "init": [{"mode": "fall", "box": [[0.5, 1], [0, 0]]}],
        "unsafe": [{"mode": "fall", "box": [[1.5, 2], [-20, 20]]}],
    }

    def test_a_bouncing_ball_bounces_at_the_analytic_times(self):
        # a reset that moves points: the ball falls from x0 at rest and
        # each bounce keeps 0.8 of its speed, so it lands at t1 =
        # sqrt(2 x0 / g) and then after flights of 2 (0.8^j) g t1 / g
        prob = model.load_problem(self.BALL)
        starts = [(0, (x0, 0.0)) for x0 in (1.0, 0.7, 0.5)]
        rows = sim.flow_hybrid(prob, starts, None, 3.0)
        for start, got in zip(starts, rows):
            assert _bits(got) == _bits(ref.flow_hybrid(prob, start, None,
                                                       3.0)), start
            assert got.resets >= 5
        for x0 in (1.0, 0.7):
            t1 = math.sqrt(2.0 * x0 / 9.81)
            landings = [t1 + sum(2.0 * 0.8 ** j * t1 for j in range(1, k))
                        for k in range(1, 6)]
            for k, t_k in enumerate(landings, 1):
                jumps = []

                def refuse_kth(_rule, x, _y):
                    jumps.append(x)
                    return np.full(len(x), len(jumps) == k)

                traj = _ride(prob, (0, (x0, 0.0)), 3.0,
                             jump_stop=refuse_kth)
                assert traj.reason is StopReason.JUMP and traj.resets == k - 1
                assert abs(traj.time - t_k) <= 1e-8, (x0, k)

    def test_an_overflowing_dense_output_fails_the_row(self):
        # the stages of x' = 1e308 are finite and so is the step, but
        # k^T P overflows: the row ends as a failure, not at a nan point
        prob = _one_mode(["1e308"], ["x"], Box((-1.0,), (1.0,)))
        traj = _ride(prob, (0, [0.0]), 1.0, bloat_factor=1.0)
        assert traj.reason is StopReason.FAILURE
        assert traj.end == (0.0,)


class TestReverse:
    def test_double_reverse_is_identity(self):
        prob = sawtooth_problem()
        assert prob.reversed.reversed == prob

    def test_pendulum_flows_negated(self):
        prob = model.load_problem(benchmarks.pendulum())
        rev = prob.reversed
        pt = (0.7, -1.3)
        for orig, back in zip(prob.modes[0].flow, rev.modes[0].flow):
            assert ex.evaluate(back, pt) == pytest.approx(
                -ex.evaluate(orig, pt))

    def test_initial_unsafe_swapped(self):
        prob = model.load_problem(benchmarks.pendulum())
        rev = prob.reversed
        assert rev.initial == prob.unsafe
        assert rev.unsafe == prob.initial

    def test_missing_inverse_rejected(self):
        prob = sawtooth_problem()
        rule = prob.resets[0]
        broken = model.ResetRule(rule.source, rule.guard, rule.target,
                                 rule.fwd, None, None)
        prob2 = model.Problem(prob.state_vars, prob.dist_vars, prob.dist_box,
                              prob.modes, (broken,), prob.initial, prob.unsafe)
        with pytest.raises(ValueError, match="inverse"):
            prob2.reversed

    def test_reversibility_on_benchmarks(self):
        for doc in (benchmarks.pendulum(), benchmarks.composition(),
                    benchmarks.lorenz()):
            prob = model.load_problem(doc)
            rev = prob.reversed
            sigma = doc["run"]["sigma"]
            rng = np.random.default_rng(7)
            for _ in range(3):
                mode, box = prob.initial[0]
                x = box.sample(rng)
                fwd = _ride(prob, (mode, x), sigma)
                if fwd.reason is not StopReason.HORIZON:
                    continue
                back = _ride(rev, (fwd.end_mode, fwd.end), sigma)
                err = np.linalg.norm(np.subtract(back.end, x))
                assert err <= 1e-4 * (1.0 + np.linalg.norm(x))


class TestInitSegments:
    def test_pendulum_has_eight(self):
        prob = model.load_problem(benchmarks.pendulum())
        segs = sim.init_segments(prob, 0.5, seed=0)
        assert len(segs) == 8
        flags = [rows_ref.flags(prob, s) for s in segs]
        forward = [f for f in flags if f[0]]
        backward = [f for f in flags if f[3]]
        assert len(forward) == 4 and len(backward) == 4

    def test_zero_sigma_degenerate_segments(self):
        prob = model.load_problem(benchmarks.pendulum())
        for seg in sim.init_segments(prob, 0.0, seed=0):
            assert seg.s == seg.sp

    def test_vertex_cap_and_reproducibility(self):
        doc = benchmarks.scalable(5)  # dimension 11: 2048 corners per box
        prob = model.load_problem(doc)
        a = sim.init_segments(prob, 0.01, vertex_cap=256, seed=42)
        b = sim.init_segments(prob, 0.01, vertex_cap=256, seed=42)
        assert len(a) == 512
        assert a == b

    @staticmethod
    def _select_one_at_a_time(box, cap, rng):
        """The vertex choice as one draw per attempt: the reference that
        ``sim._select_vertices`` reproduces."""
        n = box.dim
        if n <= 30 and 2 ** n <= cap:
            return model.vertices(box)
        chosen = {}
        attempts = 0
        while len(chosen) < cap and attempts < 20 * cap:
            bits = rng.integers(0, 2, size=n)
            chosen[tuple(box.hi[i] if bits[i] else box.lo[i]
                         for i in range(n))] = None
            attempts += 1
        return list(chosen)

    @pytest.mark.parametrize("cap", [1, 7, 64, 256, 1024])
    def test_vertices_and_stream_match_one_draw_per_attempt(self, cap):
        # scalable-l4's boxes (dimension 9), and a box with zero-width
        # dimensions, one of them [-0.0, 0.0], where draws that differ only
        # there give one vertex: 32 distinct vertices for 256 bit patterns,
        # so cap 64 and up exhausts the 20 * cap attempts
        prob = model.load_problem(benchmarks.scalable(4))
        flat = Box((0.0, 1.0, -2.0, -0.0, 0.5, -1.0, 0.0, 4.0),
                   (1.0, 1.0, -1.0, 0.0, 0.5, 1.0, 3.0, 5.0))
        for box in [b for _, b in prob.initial + prob.unsafe] + [flat]:
            for seed in range(3):
                got_rng, want_rng = (np.random.default_rng(seed)
                                     for _ in range(2))
                got = sim._select_vertices(box, cap, got_rng)
                want = self._select_one_at_a_time(box, cap, want_rng)
                assert repr(got) == repr(want)
                assert (got_rng.bit_generator.state
                        == want_rng.bit_generator.state)
                assert got_rng.random() == want_rng.random()
        rng = np.random.default_rng(0)
        assert len(sim._select_vertices(flat, 64, rng)) == 32

    def test_flags_recomputable(self):
        # build's hard rows are those of the endpoints' memberships and
        # of the disjunction sides these force
        doc = benchmarks.composition()
        prob = model.load_problem(doc)
        tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
        segs = sim.init_segments(prob, 0.1, seed=1)
        got, want = chebyshev.build(segs, tmpl, prob), rows_ref.build(
            segs, tmpl, prob)
        assert len(got.hard) >= len(segs)
        assert got.hard.tobytes() == want.hard.tobytes()


class TestDriftRides:
    def test_omega_immediate_stop(self):
        prob = line_problem("-x")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x, drift = -x < 0 at x = 1
        (mode, end), = sim.omega(prob, Certificate(tmpl, p), [(0, (1.0,))])
        assert end == (1.0,)

    def test_omega_parabola_event(self):
        prob = model.Problem(
            ("x", "y"), (), Box((), ()),
            (_mode(["y", "-1"], ["x", "y"], Box((-10.0, -10.0), (10.0, 10.0))),),
            (), ((0, Box((-1.0, 0.5), (1.0, 1.5))),),
            ((0, Box((5.0, 5.0), (6.0, 6.0))),))
        tmpl = Template((((0, 0), (1, 0)),))
        p = np.array([0.0, 1.0])  # V = x
        (_, end), = sim.omega(prob, Certificate(tmpl, p), [(0, (0.0, 1.0))])
        assert abs(end[0] - 0.5) <= 1e-5
        assert abs(end[1]) <= 1e-5

    def test_omega_bloat_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x, drift = 1 everywhere
        (_, end), = sim.omega(prob, Certificate(tmpl, p), [(0, (0.0,))],
                              t_max=50.0)
        assert abs(end[0] - 1.1) <= 1e-6

    def test_alpha_bloat_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])
        (_, end), = sim.alpha(prob, Certificate(tmpl, p), [(0, (0.0,))],
                              t_max=50.0)
        assert abs(end[0] - (-1.1)) <= 1e-6

    def test_alpha_immediate_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, -1.0])  # V = -x: drift -1 < 0, no backward ride
        (_, end), = sim.alpha(prob, Certificate(tmpl, p), [(0, (0.3,))])
        assert end == (0.3,)

    def test_alpha_reverse_of_parabola(self):
        # no bloating: the backward ride exits the state space at x = 0
        prob = model.Problem(
            ("x", "y"), (), Box((), ()),
            (_mode(["y", "-1"], ["x", "y"], Box((0.0, -2.0), (2.0, 2.0))),),
            (), ((0, Box((0.1, 0.5), (0.2, 1.5))),),
            ((0, Box((1.5, 1.5), (1.9, 1.9))),))
        tmpl = Template((((0, 0), (1, 0)),))
        p = np.array([0.0, 1.0])
        (_, end), = sim.alpha(prob, Certificate(tmpl, p), [(0, (0.5, 0.0))],
                           bloat_factor=1.0)
        assert abs(end[0] - 0.0) <= 1e-5
        assert abs(end[1] - 1.0) <= 1e-5

    def test_event_localization_tolerance(self):
        prob = model.load_problem(benchmarks.pendulum())
        tmpl = model.make_template("quadratic-2d", 2, 1)
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(10):
            p = rng.uniform(-1, 1, tmpl.size)
            x0 = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            (mode, end), = sim.omega(prob, Certificate(tmpl, p), [(0, x0)],
                                     t_max=20.0)
            g = model.template_grad_x(tmpl, p, mode, end)
            flow = ex.compile_vector(prob.modes[mode].flow)
            f = flow(list(end))
            drift = float(g @ f)
            inside = model.bloat(prob.modes[mode].omega, 1.1).contains(end)
            started = model.template_grad_x(tmpl, p, 0, x0) @ flow(list(x0))
            if inside and started > 0 and end != x0:
                assert abs(drift) <= 1e-6 * (
                    1.0 + np.linalg.norm(g) * np.linalg.norm(f))
                checked += 1
        assert checked >= 3


def _bits(traj: sim.Trajectory):
    """Everything a ride reports, floats as ``float.hex``."""
    return (traj.end_mode, [float(v).hex() for v in traj.end],
            float(traj.time).hex(), traj.reason, traj.resets)


def _midpoint(prob):
    """The bootstrap's disturbance policy: per ride and over rows."""
    d = np.asarray(prob.dist_box.midpoint())
    return (lambda _m, _x: d), (lambda _m, x: np.tile(d, (len(x), 1)))


def _thermostat():
    return model.load_problem(json.loads(THERMOSTAT.read_text()))


class TestLockstep:
    """Row r of a ``flow_hybrid`` batch ends bit for bit where the
    point-wise reference ends ride r alone."""

    def assert_lockstep(self, prob, starts, horizon, dpolicy=(None, None),
                        extra_event=None, **kw):
        point_policy, row_policy = dpolicy
        rows = sim.flow_hybrid(prob, starts, row_policy, horizon,
                               extra_event=extra_event and extra_event[1],
                               **kw)
        assert len(rows) == len(starts)
        for start, got in zip(starts, rows):
            want = ref.flow_hybrid(prob, start, point_policy, horizon,
                                   extra_event=extra_event and extra_event[0],
                                   **kw)
            assert _bits(got) == _bits(want), start
        return rows

    @pytest.mark.parametrize("name", sorted(benchmarks.corpus()))
    def test_corpus_bootstraps(self, name):
        doc = benchmarks.corpus()[name]
        prob = model.load_problem(doc)
        sigma, bloat = doc["run"]["sigma"], doc["run"]["bloat"]
        rng = np.random.default_rng(5)
        for dyn, boxes in ((prob, prob.initial),
                           (prob.reversed, prob.unsafe)):
            starts = [(mode, v) for mode, box in boxes
                      for v in sim._select_vertices(box, 256, rng)]
            self.assert_lockstep(dyn, starts, sigma, _midpoint(dyn),
                                 bloat_factor=bloat)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_thermostat(self, reverse):
        # resets, a midpoint disturbance, and rows that change mode at
        # different steps of the batch
        prob = _thermostat()
        if reverse:
            prob = prob.reversed
        starts = [(m, (x,)) for m in (0, 1) for x in np.linspace(12, 21.5, 9)]
        rows = self.assert_lockstep(prob, starts, 12.0, _midpoint(prob))
        assert len({r.resets for r in rows}) > 2
        assert {r.end_mode for r in rows} == {0, 1}

    def test_state_dependent_disturbance(self):
        prob = _thermostat()
        pick = lambda x: np.array([0.5 if x[0] < 18.0 else -0.5])
        policy = (lambda _m, x: pick(x),
                  lambda _m, x: np.array([pick(row) for row in x]))
        starts = [(m, (x,)) for m in (0, 1) for x in (15.5, 17.0, 19.0, 21.0)]
        self.assert_lockstep(prob, starts, 8.0, policy)

    def test_bloat_exits_at_different_steps(self):
        prob = line_problem("1 + x^2")
        starts = [(0, (x,)) for x in np.linspace(-1.0, 1.0, 12)]
        rows = self.assert_lockstep(prob, starts, 5.0)
        assert {r.reason for r in rows} == {StopReason.LEFT_BLOAT}
        assert len({r.time for r in rows}) == len(rows)

    def test_step_failure_among_finishing_rows(self):
        # dx/dt = -1/x reaches x = 0 at t = x0^2 / 2
        prob = _one_mode(["-1/x"], ["x"], Box((-10.0,), (10.0,)))
        starts = [(0, (x,)) for x in (-0.5, -0.3, -2.0, 0.4, 3.0)]
        rows = self.assert_lockstep(prob, starts, 1.0, bloat_factor=1.0)
        assert {r.reason for r in rows} == {StopReason.FAILURE,
                                            StopReason.HORIZON}

    def test_livelock_and_zero_horizon(self):
        looping = sawtooth_problem(reset_to=1.0)
        starts = [(0, (x,)) for x in (0.0, 0.5, 1.0, -1.5)]
        rows = self.assert_lockstep(looping, starts, 5.0)
        assert {r.reason for r in rows} == {StopReason.LIVELOCK}
        self.assert_lockstep(sawtooth_problem(), starts, 0.0)
        self.assert_lockstep(sawtooth_problem(), starts, 2.5)

    def test_rides_past_the_step_bound_stop(self, monkeypatch):
        # thermostat rows switch modes for the whole horizon; with the
        # bound lowered to 60 trial steps each ends at its 60th, except the
        # row that starts outside the bloated box
        monkeypatch.setattr(sim, "MAX_STEPS", 60)
        prob = _thermostat()
        point_policy, row_policy = _midpoint(prob)
        starts = [(m, (x,)) for m in (0, 1) for x in (15.0, 19.5, 21.0)]
        starts.append((0, (40.0,)))
        rows = sim.flow_hybrid(prob, starts, row_policy, 1e6)
        for start, got in zip(starts, rows):
            want = ref.flow_hybrid(prob, start, point_policy, 1e6,
                                   max_steps=60)
            assert _bits(got) == _bits(want), start
        assert [r.reason for r in rows] == (
            [StopReason.STEP_LIMIT] * 6 + [StopReason.LEFT_BLOAT])
        assert min(r.resets for r in rows[:6]) >= 1

    def test_extra_event(self):
        # the stop function of a drift ride: here y crossing down to 0; a
        # start with y < 0 is already below zero and ends where it is
        prob = model.load_problem(benchmarks.pendulum())
        g = lambda _m, x, _d: float(x[1])
        rows_g = lambda m, x, d: np.array([g(m, r, None) for r in x])
        starts = [(0, (x, y)) for x in (-2.0, 0.5, 3.0) for y in (-1.0, 1.5)]
        rows = self.assert_lockstep(prob, starts, 6.0,
                                    extra_event=(g, rows_g))
        for (_, x0), r in zip(starts, rows):
            if x0[1] < 0.0:
                assert (r.reason, r.time, r.end) == (StopReason.EVENT, 0.0,
                                                     x0)

    def test_extra_event_after_a_jump(self):
        # the relay with the stop function dV/dt of V = x: it rises in up
        # and falls in down, so a row stops at the start of its phase in
        # down, whether it jumps there after a ride, at time zero from the
        # guard, or starts there
        prob = model.load_problem(benchmarks.relay())
        slope = lambda m, s: 1.0 + 0.5 * s if m == 0 else -1.0 - 0.5 * s
        g = lambda m, x, _d: slope(m, math.sin(x[0]))
        rows_g = lambda m, x, _d: slope(m, np.sin(x[:, 0]))
        starts = [(0, (x,)) for x in np.linspace(0.0, 4.5, 7)]
        starts += [(0, (5.5,)), (1, (3.0,))]
        rows = self.assert_lockstep(prob, starts, 20.0,
                                    extra_event=(g, rows_g))
        assert {(r.reason, r.end_mode) for r in rows} == {
            (StopReason.EVENT, 1)}
        ridden = rows[:7]
        assert all(abs(r.end[0] - 5.0) <= 1e-6 for r in ridden)
        assert len({r.time for r in ridden}) == len(ridden)
        assert [r.resets for r in rows] == [1] * 8 + [0]
        assert [(r.time, r.end) for r in rows[7:]] == [(0.0, (5.5,)),
                                                        (0.0, (3.0,))]

    def test_guard_narrower_than_a_step(self):
        # a guard 0.05 wide across the paths of rows that ride at speed 1
        # in x: each row whose path passes through it jumps; the others
        # cross its face planes outside it, resume and never jump
        doc = {
            "variables": ["x", "y"],
            "modes": [
                {"name": "a", "omega": [[-3, 3], [-3, 3]],
                 "flow": ["1", "0.25*sin(x)"]},
                {"name": "b", "omega": [[-3, 3], [-3, 3]], "flow": ["0", "-1"]},
            ],
            "resets": [
                {"source": "a", "guard": [[1, 1.05], [0, 1]], "target": "b",
                 "map": ["x", "y"], "inverse": ["x", "y"],
                 "image": [[1, 1.05], [0, 1]]},
            ],
            "init": [{"mode": "a", "box": [[-2, -1.9], [0, 1]]}],
            "unsafe": [{"mode": "b", "box": [[2, 3], [2, 3]]}],
        }
        prob = model.load_problem(doc)
        ys = np.linspace(-1.5, 2.0, 15)
        rows = self.assert_lockstep(prob, [(0, (-2.0, y)) for y in ys], 8.0)
        # y(x) = y0 + 0.25 (cos(-2) - cos(x)) along mode a
        on_path = lambda y0: [y0 + 0.25 * (math.cos(-2.0) - math.cos(x))
                              for x in np.linspace(1.0, 1.05, 11)]
        through = [any(0.0 <= y <= 1.0 for y in on_path(y0)) for y0 in ys]
        assert sum(through) == 4
        for hit, r in zip(through, rows):
            if hit:
                assert (r.end_mode, r.resets) == (1, 1)
            else:
                assert (r.end_mode, r.resets) == (0, 0)
                assert r.reason is StopReason.LEFT_BLOAT
                assert abs(r.end[0] - 3.3) <= 1e-6

    def test_init_segments_matches_reference_rides(self):
        # one batch per direction, the starts in the order of the boxes
        prob = _thermostat()
        rev = prob.reversed
        point, _ = _midpoint(prob)
        ride = lambda dyn, m, v: _end(ref.flow_hybrid(dyn, (m, v), point, 0.5))
        want = [model.Segment(m, v, *ride(prob, m, v))
                for m, box in prob.initial for v in model.vertices(box)]
        want += [model.Segment(*ride(rev, m, v), m, v)
                 for m, box in prob.unsafe for v in model.vertices(box)]
        assert sim.init_segments(prob, 0.5, seed=3) == want

    @pytest.mark.parametrize("ride", ["omega", "alpha"])
    def test_drift_rides_match_rides_alone(self, ride):
        # the rides of a falsifier round: several starts in both modes, one
        # batch, each row ending where its start's ride alone ends
        prob = _thermostat()
        cert = Certificate(model.make_template("linear", 1, 2),
                           TestJumpStop.P)
        starts = [(0, (16.0,)), (1, (16.0,)), (0, (21.5,)), (1, (12.0,)),
                  (0, (15.25,))]
        ends = getattr(sim, ride)(prob, cert, starts, t_max=50.0)
        assert ends == [getattr(sim, ride)(prob, cert, [s], t_max=50.0)[0]
                        for s in starts]


def _end(traj):
    return traj.end_mode, traj.end


class TestJumpStop:
    """A counter-example ride ends before a reset that breaks the
    certificate's rise along it."""

    # round-1 candidate of the thermostat: V_off = -1 - x, V_on = 0.628 + x
    P = np.array([-1.0, -1.0, 0.628, 1.0])

    def test_forward_ride_stops_before_a_falling_jump(self):
        prob = _thermostat()
        tmpl = model.make_template("linear", 1, 2)
        # V_on rises to the on->off guard at x = 20, where V drops to -21
        cert = Certificate(tmpl, self.P)
        (mode, end), = sim.omega(prob, cert, [(1, (16.0,))], t_max=50.0)
        assert mode == 1
        assert abs(end[0] - 20.0) <= 1e-6
        # the reset counter-example (off, 16) now gives a refuting segment
        ref = falsify.refute(
            prob, cert, [falsify.Hit(None, "reset", 0, (16.0,), None,
                                     prob.resets[0])],
            bloat_factor=1.1, t_max=50.0)
        seg = ref.segment
        assert seg.sp_mode == 1 and abs(seg.sp[0] - 20.0) <= 1e-6
        assert falsify.segment_margin(prob, cert, seg) == ref.margin <= 0.0

    def test_backward_ride_stops_before_a_rising_jump(self):
        prob = _thermostat()
        tmpl = model.make_template("linear", 1, 2)
        # backward in off, x rises to the guard x = 20 of the reversed
        # off->on reset, where V would rise from -21 to 20.628
        cert = Certificate(tmpl, self.P)
        (mode, end), = sim.alpha(prob, cert, [(0, (16.0,))], t_max=50.0)
        assert mode == 0
        assert abs(end[0] - 20.0) <= 1e-6


class TestFallingMode:
    """A counter-example ride that jumps into a mode where the certificate
    falls stops there, at the start of its phase in that mode."""

    def test_forward_ride_stops_after_the_jump(self):
        prob = model.load_problem(benchmarks.relay())
        tmpl = model.make_template("linear", 1, 2)
        # V_up = -3 + x rises to the guard at x = 5; the jump raises V to
        # V_down = -2 + x = 3, which falls along down's flow
        cert = Certificate(tmpl, np.array([-3.0, 1.0, -2.0, 1.0]))
        (mode, end), = sim.omega(prob, cert, [(0, (3.0,))])
        assert mode == 1 and abs(end[0] - 5.0) <= 1e-6
        assert abs(cert[1].value(np.array([end]))[0] - 3.0) <= 1e-6
        # a drift counter-example at (up, 3.0) now gives a refuting segment
        ref = falsify.refute(
            prob, cert, [falsify.Hit(None, "transversality", 0,
                                     np.array([3.0]))],
            bloat_factor=1.1, t_max=100.0)
        assert ref.segment.sp_mode == 1
        assert falsify.segment_margin(prob, cert, ref.segment) == (
            ref.margin) <= 0.0

    def test_backward_ride_stops_after_the_jump(self):
        prob = model.load_problem(benchmarks.relay())
        tmpl = model.make_template("linear", 1, 2)
        # backward in down, V_down = 4 - x falls to the reversed guard at
        # x = 5; after the jump V_up = 3 - x rises in backward time
        cert = Certificate(tmpl, np.array([3.0, -1.0, 4.0, -1.0]))
        (mode, end), = sim.alpha(prob, cert, [(1, (3.0,))])
        assert mode == 0 and abs(end[0] - 5.0) <= 1e-6


def _constant_relay(guard) -> Problem:
    """The relay with flows 1 in up and -1 in down: the error estimate is
    zero, so every step grows fivefold, and ``guard`` is the reset's guard
    and image."""
    doc = benchmarks.relay()
    doc["modes"][0]["flow"], doc["modes"][1]["flow"] = ["1"], ["-1"]
    doc["resets"][0]["guard"] = doc["resets"][0]["image"] = [guard]
    return model.load_problem(doc)


@pytest.mark.parametrize("guard", [[5, 6], [5, 5.01]])
class TestLongSteps:
    """A ride whose step is longer than the guard still takes the reset:
    it meets the guard where it crosses the guard's face plane x = 5."""

    def test_flow_hybrid_jumps(self, guard):
        traj = _ride(_constant_relay(guard), (0, (3.0,)), 20.0)
        assert (traj.end_mode, traj.resets) == (1, 1)

    def test_omega_stops_after_the_jump(self, guard):
        cert = Certificate(model.make_template("linear", 1, 2),
                           np.array([-3.0, 1.0, -2.0, 1.0]))
        (mode, end), = sim.omega(_constant_relay(guard), cert, [(0, (3.0,))])
        assert mode == 1 and abs(end[0] - 5.0) <= 1e-6
