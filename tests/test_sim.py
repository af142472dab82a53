import math

import numpy as np
import pytest

from simbarrier import benchmarks, expr as ex, model, sim
from simbarrier.model import Box, ModeDef, Template
from simbarrier.sim import StopReason

from conftest import line_problem, linear_template_1d, rk4_endpoint, sawtooth_problem

NO_D = lambda z: np.empty(0)


def _mode(flow_texts, names, omega):
    return ModeDef("m", omega, tuple(ex.parse(t, names) for t in flow_texts))


class TestIntegrate:
    def test_exponential_decay_endpoint(self):
        mode = _mode(["-x"], ["x"], Box((-5.0,), (5.0,)))
        traj = sim.integrate(mode, [1.0], NO_D, 1.0,
                             bloated=Box((-5.0,), (5.0,)))
        assert traj.reason is StopReason.HORIZON
        assert abs(traj.end[0] - math.exp(-1.0)) <= 1e-6

    def test_pendulum_equilibrium(self):
        prob = model.load_problem(benchmarks.pendulum())
        traj = sim.integrate(prob.modes[0], [0.0, 0.0], NO_D, 10.0,
                             bloated=model.bloat(prob.modes[0].omega, 1.1))
        assert traj.reason is StopReason.HORIZON
        assert max(abs(v) for v in traj.end) <= 1e-9

    def test_bloat_exit_against_rk4_oracle(self):
        # oracle: fixed-step RK4 at h = 1e-5 marched to the boundary
        f = lambda x: np.array([1.0])
        t_oracle, x_oracle = 0.0, np.array([0.0])
        while x_oracle[0] < 0.5:
            x_oracle = rk4_endpoint(f, x_oracle, 1e-5, 1e-5)
            t_oracle += 1e-5
        mode = _mode(["1"], ["x"], Box((-1.0,), (0.5,)))
        traj = sim.integrate(mode, [0.0], NO_D, 10.0,
                             bloated=Box((-1.0,), (0.5,)))
        assert traj.reason is StopReason.LEFT_BLOAT
        assert abs(traj.end[0] - 0.5) <= 1e-6
        assert abs(traj.time - t_oracle) <= 2e-5

    def test_step_failure_reported(self):
        # finite-time domain exit: dx/dt = -1/x reaches x = 0 at t = 0.125
        mode = _mode(["-1/x"], ["x"], Box((-10.0,), (10.0,)))
        traj = sim.integrate(mode, [-0.5], NO_D, 1.0,
                             bloated=Box((-10.0,), (10.0,)))
        assert traj.reason is StopReason.FAILURE
        assert traj.end[0] < 0.0

    def test_convergence_order(self):
        # halving both tolerances shrinks the endpoint error by >= 2x on
        # average over several horizons
        mode = _mode(["-x"], ["x"], Box((-100.0,), (100.0,)))
        big = Box((-100.0,), (100.0,))

        def err(rtol, atol, horizon):
            traj = sim.integrate(mode, [1.0], NO_D, horizon, bloated=big,
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
        traj = sim.flow_hybrid(prob, (0, (0.0,)), None, 1.5)
        assert traj.reason is StopReason.HORIZON
        assert traj.resets == 1
        assert abs(traj.end[0] - 0.5) <= 1e-6

    def test_zero_horizon_returns_start(self):
        prob = sawtooth_problem()
        traj = sim.flow_hybrid(prob, (0, (0.3,)), None, 0.0)
        assert traj.end == (0.3,)
        assert traj.resets == 0
        assert traj.reason is StopReason.HORIZON

    def test_reset_into_own_guard_livelocks(self):
        prob = sawtooth_problem(reset_to=1.0)
        traj = sim.flow_hybrid(prob, (0, (0.0,)), None, 5.0)
        assert traj.reason is StopReason.LIVELOCK
        assert traj.resets > 100

    def test_start_on_guard_resets_immediately(self):
        prob = sawtooth_problem()
        traj = sim.flow_hybrid(prob, (0, (1.0,)), None, 0.25)
        assert traj.resets >= 1
        assert abs(traj.end[0] - 0.25) <= 1e-6

    def test_prefix_consistency_smooth(self):
        prob = model.load_problem(benchmarks.pendulum())
        start = (0, (1.0, 2.0))
        full = sim.flow_hybrid(prob, start, None, 1.0)
        half = sim.flow_hybrid(prob, start, None, 0.4)
        rest = sim.flow_hybrid(prob, (half.end_mode, half.end), None, 0.6)
        assert np.allclose(full.end, rest.end, atol=1e-6)

    def test_prefix_consistency_across_reset(self):
        prob = sawtooth_problem()
        start = (0, (0.6,))
        full = sim.flow_hybrid(prob, start, None, 1.0)
        half = sim.flow_hybrid(prob, start, None, 0.5)
        rest = sim.flow_hybrid(prob, (half.end_mode, half.end), None, 0.5)
        assert abs(full.end[0] - rest.end[0]) <= 1e-6
        assert full.resets == 1


class TestReverse:
    def test_double_reverse_is_identity(self):
        prob = sawtooth_problem()
        assert sim.reverse(sim.reverse(prob)) == prob

    def test_pendulum_flows_negated(self):
        prob = model.load_problem(benchmarks.pendulum())
        rev = sim.reverse(prob)
        pt = (0.7, -1.3)
        for orig, back in zip(prob.modes[0].flow, rev.modes[0].flow):
            assert ex.evaluate(back, pt) == pytest.approx(
                -ex.evaluate(orig, pt))

    def test_initial_unsafe_swapped(self):
        prob = model.load_problem(benchmarks.pendulum())
        rev = sim.reverse(prob)
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
            sim.reverse(prob2)

    def test_reversibility_on_benchmarks(self):
        for doc in (benchmarks.pendulum(), benchmarks.composition(),
                    benchmarks.lorenz()):
            prob = model.load_problem(doc)
            rev = sim.reverse(prob)
            sigma = doc["run"]["sigma"]
            rng = np.random.default_rng(7)
            for _ in range(3):
                mode, box = prob.initial[0]
                x = box.sample(rng)
                fwd = sim.flow_hybrid(prob, (mode, x), None, sigma)
                if fwd.reason is not StopReason.HORIZON:
                    continue
                back = sim.flow_hybrid(rev, (fwd.end_mode, fwd.end), None,
                                       sigma)
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
        mode, end = sim.omega(prob, tmpl, p, (0, (1.0,)))
        assert end == (1.0,)

    def test_omega_parabola_event(self):
        prob = model.Problem(
            ("x", "y"), (), None,
            (_mode(["y", "-1"], ["x", "y"], Box((-10.0, -10.0), (10.0, 10.0))),),
            (), ((0, Box((-1.0, 0.5), (1.0, 1.5))),),
            ((0, Box((5.0, 5.0), (6.0, 6.0))),))
        tmpl = Template((((0, 0), (1, 0)),))
        p = np.array([0.0, 1.0])  # V = x
        _, end = sim.omega(prob, tmpl, p, (0, (0.0, 1.0)))
        assert abs(end[0] - 0.5) <= 1e-5
        assert abs(end[1]) <= 1e-5

    def test_omega_bloat_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x, drift = 1 everywhere
        _, end = sim.omega(prob, tmpl, p, (0, (0.0,)), t_max=50.0)
        assert abs(end[0] - 1.1) <= 1e-6

    def test_alpha_bloat_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])
        _, end = sim.alpha(prob, tmpl, p, (0, (0.0,)), t_max=50.0)
        assert abs(end[0] - (-1.1)) <= 1e-6

    def test_alpha_immediate_stop(self):
        prob = line_problem("1")
        tmpl = linear_template_1d()
        p = np.array([0.0, -1.0])  # V = -x: drift -1 < 0, no backward ride
        _, end = sim.alpha(prob, tmpl, p, (0, (0.3,)))
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
        _, end = sim.alpha(prob, tmpl, p, (0, (0.5, 0.0)), bloat_factor=1.0)
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
            mode, end = sim.omega(prob, tmpl, p, (0, x0), t_max=20.0)
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
