"""Disturbance-input paths: vertex policies, joint (x, d) search, and
quantified verification, which the bundled benchmarks (all without
disturbances) never exercise."""

import math

import numpy as np
import pytest

from simbarrier import expr as ex, falsify, model, sim
from simbarrier.model import Box, ModeDef, Problem, Template
from simbarrier.verify import VerdictStatus, verify


def disturbed_line(d_hi: float) -> Problem:
    # dx/dt = -1 + d with d in [-0.5, d_hi]
    return Problem(
        state_vars=("x",),
        dist_vars=("d",),
        dist_box=Box((-0.5,), (d_hi,)),
        modes=(ModeDef("m", Box((-1.0,), (1.0,)),
                       (ex.parse("-1 + d", ["x", "d"]),)),),
        resets=(),
        initial=((0, Box((-0.9,), (-0.8,))),),
        unsafe=((0, Box((0.8,), (0.9,))),),
    )


TMPL = Template((((0,), (1,)),))
P = np.array([-0.3, 1.0])  # V = x - 0.3


def test_integrate_with_constant_policy():
    prob = disturbed_line(0.5)
    policy = lambda _m, x: np.full((len(x), 1), 0.25)  # dx/dt = -0.75
    traj, = sim.flow_hybrid(prob, [(0, [0.5])], policy, 1.0,
                            bloat_factor=2.0)  # state space [-2, 2]
    assert traj.end[0] == pytest.approx(0.5 - 0.75, abs=1e-8)


def test_omega_picks_drift_maximizing_vertex():
    prob = disturbed_line(1.5)  # drift of V = x is -1 + d, max at d = 1.5
    _, end = sim.omega(prob, TMPL, P, (0, (0.0,)), t_max=30.0)
    assert end[0] == pytest.approx(1.1, abs=1e-6)  # bloated boundary


def test_alpha_picks_drift_minimizing_vertex():
    # minimizing d gives drift -1.5 < 0 at the start: no backward ride
    prob = disturbed_line(1.5)
    _, end = sim.alpha(prob, TMPL, P, (0, (0.0,)), t_max=30.0)
    assert end == (0.0,)


def test_transversality_searches_disturbance_jointly():
    prob = disturbed_line(1.5)
    (mode, x), d, value = falsify.min_transversality(
        prob, TMPL, P, starts=12, seed=0)
    # worst normalized drift is +1 direction: -(-1 + d)/... minimized
    # where -1 + d > 0, giving exactly -1
    assert value == pytest.approx(-1.0, abs=1e-6)
    assert d[0] > 1.0
    assert abs(x[0] - 0.3) <= 2e-6  # on the zero level set


def test_verify_quantifies_over_disturbance_box():
    safe = disturbed_line(0.5)   # drift in [-1.5, -0.5]: always inward
    assert verify(safe, TMPL, P).status is VerdictStatus.VERIFIED

    unsafe = disturbed_line(1.5)  # d = 1.5 pushes the flow outward
    verdict = verify(unsafe, TMPL, P)
    assert verdict.status is VerdictStatus.REFUTED
    assert verdict.condition == 3
    mode, x, d = verdict.witness
    assert abs(x[0] - 0.3) <= 1e-6
    assert d[0] == pytest.approx(1.5)  # witness at the violating vertex
    flow = ex.compile_vector([unsafe.modes[0].flow[0]])
    assert flow(list(x) + list(d))[0] > 0.0


def test_find_counterexample_on_disturbed_system():
    prob = disturbed_line(1.5)
    res = falsify.find_counterexample(
        prob, TMPL, P, falsify.FalsifyConfig(starts=12, seed=0, t_max=30.0))
    assert res is not None and res.kind == "transversality"
    assert falsify.segment_margin(prob, TMPL, P, res.segment) <= 0.0
    # the forward endpoint rode the drift-maximizing disturbance upward
    assert res.segment.sp[0] > res.segment.s[0]
