import json
import math
from pathlib import Path

import numpy as np
import pytest

from simbarrier import benchmarks, expr as ex, falsify, model, sim
from simbarrier.model import Box, Certificate, ModeDef, Problem, Template
from simbarrier.sim import StopReason

import sim_reference as ref
from conftest import line_problem, linear_template_1d, rk4_endpoint, sawtooth_problem

THERMOSTAT = Path(__file__).parents[1] / "bench" / "data" / "thermostat.json"


def _mode(flow_texts, names, omega):
    return ModeDef("m", omega, tuple(ex.parse(t, names) for t in flow_texts))


def _one_mode(flow_texts, names, omega: Box) -> Problem:
    """A single-mode system whose state space is ``omega``."""
    return Problem(tuple(names), (), None, (_mode(flow_texts, names, omega),),
                   (), ((0, omega),), ((0, omega),))


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

    def test_convergence_order(self):
        # halving both tolerances shrinks the endpoint error by >= 2x on
        # average over several horizons
        prob = _one_mode(["-x"], ["x"], Box((-100.0,), (100.0,)))

        def err(rtol, atol, horizon):
            traj = _ride(prob, (0, [1.0]), horizon, bloat_factor=1.0,
                         rtol=rtol, atol=atol)
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
        prob = Problem(prob.state_vars, (), None, prob.modes, (broken,),
                       prob.initial, prob.unsafe)
        failed, clear = sim.flow_hybrid(prob, [(0, (0.5,)), (0, (-1.5,))],
                                        None, 1.0)
        assert failed.reason is StopReason.FAILURE
        assert failed.resets == 0
        assert abs(failed.end[0] - 1.0) <= 1e-6
        assert clear.reason is StopReason.HORIZON


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
        forward = [s for s in segs if s.s_in_initial]
        backward = [s for s in segs if s.sp_in_unsafe]
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

    def test_flags_recomputable(self):
        prob = model.load_problem(benchmarks.composition())
        for seg in sim.init_segments(prob, 0.1, seed=1):
            assert seg.s_in_initial == prob.in_initial(seg.s_mode, seg.s)
            assert seg.sp_in_unsafe == prob.in_unsafe(seg.sp_mode, seg.sp)


class TestDriftRides:
    def test_omega_immediate_stop(self):
        prob = line_problem("-x")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x, drift = -x < 0 at x = 1
        mode, end = sim.omega(prob, Certificate(tmpl, p), (0, (1.0,)))
        assert end == (1.0,)

    def test_omega_parabola_event(self):
        prob = model.Problem(
            ("x", "y"), (), None,
            (_mode(["y", "-1"], ["x", "y"], Box((-10.0, -10.0), (10.0, 10.0))),),
            (), ((0, Box((-1.0, 0.5), (1.0, 1.5))),),
            ((0, Box((5.0, 5.0), (6.0, 6.0))),))
        tmpl = Template((((0, 0), (1, 0)),))
        p = np.array([0.0, 1.0])  # V = x
        _, end = sim.omega(prob, Certificate(tmpl, p), (0, (0.0, 1.0)))
        assert abs(end[0] - 0.5) <= 1e-5
        assert abs(end[1]) <= 1e-5

    def test_omega_bloat_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x, drift = 1 everywhere
        _, end = sim.omega(prob, Certificate(tmpl, p), (0, (0.0,)), t_max=50.0)
        assert abs(end[0] - 1.1) <= 1e-6

    def test_alpha_bloat_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])
        _, end = sim.alpha(prob, Certificate(tmpl, p), (0, (0.0,)), t_max=50.0)
        assert abs(end[0] - (-1.1)) <= 1e-6

    def test_alpha_immediate_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, -1.0])  # V = -x: drift -1 < 0, no backward ride
        _, end = sim.alpha(prob, Certificate(tmpl, p), (0, (0.3,)))
        assert end == (0.3,)

    def test_alpha_reverse_of_parabola(self):
        # no bloating: the backward ride exits the state space at x = 0
        prob = model.Problem(
            ("x", "y"), (), None,
            (_mode(["y", "-1"], ["x", "y"], Box((0.0, -2.0), (2.0, 2.0))),),
            (), ((0, Box((0.1, 0.5), (0.2, 1.5))),),
            ((0, Box((1.5, 1.5), (1.9, 1.9))),))
        tmpl = Template((((0, 0), (1, 0)),))
        p = np.array([0.0, 1.0])
        _, end = sim.alpha(prob, Certificate(tmpl, p), (0, (0.5, 0.0)),
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
            mode, end = sim.omega(prob, Certificate(tmpl, p), (0, x0), t_max=20.0)
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
    return (traj.start_mode, [float(v).hex() for v in traj.start],
            traj.end_mode, [float(v).hex() for v in traj.end],
            float(traj.time).hex(), traj.reason, traj.resets,
            traj.event_index)


def _midpoint(prob):
    """The bootstrap's disturbance policy: per ride and over rows."""
    if prob.dist_box is None:
        return None, None
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

    def test_extra_event(self):
        # the stop condition of a drift ride: here y crossing down to 0
        prob = model.load_problem(benchmarks.pendulum())
        g = lambda _m, x, _d: float(x[1])
        rows_g = lambda m, x, d: np.array([g(m, r, None) for r in x])
        starts = [(0, (x, y)) for x in (-2.0, 0.5, 3.0) for y in (-1.0, 1.5)]
        rows = self.assert_lockstep(prob, starts, 6.0,
                                    extra_event=((g, -1), (rows_g, -1)))
        assert {r.reason for r in rows} == {StopReason.EVENT,
                                            StopReason.HORIZON}

    def test_init_segments_matches_reference_rides(self):
        # one batch per direction, the starts in the order of the boxes
        prob = _thermostat()
        rev = prob.reversed
        point, _ = _midpoint(prob)
        ride = lambda dyn, m, v: _end(ref.flow_hybrid(dyn, (m, v), point, 0.5))
        want = [model.Segment.classify(prob, m, v, *ride(prob, m, v))
                for m, box in prob.initial for v in model.vertices(box)]
        want += [model.Segment.classify(prob, *ride(rev, m, v), m, v)
                 for m, box in prob.unsafe for v in model.vertices(box)]
        assert sim.init_segments(prob, 0.5, seed=3) == want


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
        mode, end = sim.omega(prob, Certificate(tmpl, self.P), (1, (16.0,)),
                              t_max=50.0)
        assert mode == 1
        assert abs(end[0] - 20.0) <= 1e-6
        # the reset counter-example (off, 16) now gives a refuting segment
        cert = Certificate(tmpl, self.P)
        seg, margin = falsify.refuting_segment(
            prob, cert, "reset", 0, (16.0,), prob.resets[0],
            bloat_factor=1.1, t_max=50.0)
        assert seg.sp_mode == 1 and abs(seg.sp[0] - 20.0) <= 1e-6
        assert falsify.segment_margin(prob, cert, seg) == margin <= 0.0

    def test_backward_ride_stops_before_a_rising_jump(self):
        prob = _thermostat()
        tmpl = model.make_template("linear", 1, 2)
        # backward in off, x rises to the guard x = 20 of the reversed
        # off->on reset, where V would rise from -21 to 20.628
        mode, end = sim.alpha(prob, Certificate(tmpl, self.P), (0, (16.0,)),
                              t_max=50.0)
        assert mode == 0
        assert abs(end[0] - 20.0) <= 1e-6
