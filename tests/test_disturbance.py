"""Disturbance-input paths: vertex policies, joint (x, d) search, and
quantified verification, which the bundled benchmarks (all without
disturbances) never exercise."""

import math

import numpy as np
import pytest

from simbarrier import expr as ex, falsify, model, sim
from simbarrier.model import Box, Certificate, ModeDef, Problem, Template
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


def test_ride_without_a_policy_is_refused():
    # the flow reads its disturbance column, which no policy would fill
    with pytest.raises(ValueError, match=r"\(d\) needs a dpolicy"):
        sim.flow_hybrid(disturbed_line(0.5), [(0, (0.0,))], None, 1.0)


def test_omega_picks_drift_maximizing_vertex():
    prob = disturbed_line(1.5)  # drift of V = x is -1 + d, max at d = 1.5
    (_, end), = sim.omega(prob, Certificate(TMPL, P), [(0, (0.0,))],
                          t_max=30.0)
    assert end[0] == pytest.approx(1.1, abs=1e-6)  # bloated boundary


def test_alpha_picks_drift_minimizing_vertex():
    # minimizing d gives drift -1.5 < 0 at the start: no backward ride
    prob = disturbed_line(1.5)
    (_, end), = sim.alpha(prob, Certificate(TMPL, P), [(0, (0.0,))],
                          t_max=30.0)
    assert end == (0.0,)


@pytest.mark.parametrize("ride, end", [("omega", 5.5), ("alpha", -5.5)])
def test_rides_pass_over_a_vertex_of_nan_drift(ride, end):
    # at d = 0 the flow 1 + ln(d) is nan, so is the drift there: the rides
    # take the other vertex, d = 1, and leave the bloated box
    prob = model.load_problem({
        "variables": ["x"], "disturbances": ["d"],
        "disturbance_box": [[0, 1]],
        "modes": [{"name": "m", "omega": [[-5, 5]], "flow": ["1 + ln(d)"]}],
        "init": [{"mode": "m", "box": [[-4, -3]]}],
        "unsafe": [{"mode": "m", "box": [[3, 4]]}]})
    cert = Certificate(TMPL, np.array([-1.0, 1.0]))  # V = x - 1
    (_, x), = getattr(sim, ride)(prob, cert, [(0, (0.0,))], t_max=30.0)
    assert x[0] == pytest.approx(end, abs=1e-6)


def test_transversality_searches_disturbance_jointly():
    prob = disturbed_line(1.5)
    value, _, _, x, d, _ = falsify.min_transversality(
        prob, Certificate(TMPL, P), starts=12, seed=0)[0]
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
    res = falsify.find_counterexample(prob, Certificate(TMPL, P), starts=12,
                                      seed=0, t_max=30.0)
    assert res is not None and res.hit.kind == "transversality"
    assert falsify.segment_margin(prob, Certificate(TMPL, P), res.segment) <= 0.0
    # the forward endpoint rode the drift-maximizing disturbance upward
    assert res.segment.sp[0] > res.segment.s[0]


def _per_vertex_drifts(prob: Problem, mode: int, x: np.ndarray,
                       g: np.ndarray):
    """``Problem.vertex_drifts`` one disturbance vertex at a time: a flow
    batch of the rows at each vertex."""
    flow = prob.modes[mode].flow_rows
    g_norm = np.sqrt(model.row_dot(g, g))
    drifts, scales = [], []
    for d in prob.dist_vertices:
        f = flow(np.hstack([x, np.broadcast_to(d, (len(x), len(d)))]))
        drifts.append(model.row_dot(g, f))
        scales.append(g_norm * np.sqrt(model.row_dot(f, f)))
    return np.stack(drifts, 1), np.stack(scales, 1)


def _two_disturbances() -> Problem:
    # ln(d0) is undefined at the vertices with d0 = 0
    return model.load_problem({
        "variables": ["x", "y"], "disturbances": ["d0", "d1"],
        "disturbance_box": [[0, 1], [-0.5, 0.25]],
        "modes": [{"name": "m", "omega": [[-2, 2], [-2, 2]],
                   "flow": ["y + ln(d0) * x", "sin(x) * d1 - y"]}],
        "init": [{"mode": "m", "box": [[-1.5, -1], [-1.5, -1]]}],
        "unsafe": [{"mode": "m", "box": [[1, 1.5], [1, 1.5]]}]})


def _undisturbed() -> Problem:
    # ln(x) is undefined where x <= 0
    return model.load_problem({
        "variables": ["x", "y"],
        "modes": [{"name": "m", "omega": [[-2, 2], [-2, 2]],
                   "flow": ["y - ln(x)", "sqrt(x) * y"]}],
        "init": [{"mode": "m", "box": [[-1.5, -1], [-1.5, -1]]}],
        "unsafe": [{"mode": "m", "box": [[1, 1.5], [1, 1.5]]}]})


@pytest.mark.parametrize("rows", [1, 3, 20])
@pytest.mark.parametrize("prob", [disturbed_line(1.5), _two_disturbances(),
                                  _undisturbed()],
                         ids=["disturbed-line", "two-disturbances",
                              "undisturbed"])
def test_vertex_drifts_are_the_per_vertex_drifts(prob, rows):
    # one stacked flow batch gives each row and vertex the bits of its
    # own batch; the batch of 20 rows runs the batch code where a vertex's
    # own batch of 3 runs the point code
    rng = np.random.default_rng(rows)
    x = rng.uniform(-2.0, 2.0, (rows, prob.dim))
    g = rng.uniform(-1.0, 1.0, (rows, prob.dim))
    with np.errstate(all="ignore"):
        got = prob.vertex_drifts(0, x, g)
        want = _per_vertex_drifts(prob, 0, x, g)
    for a, b in zip(got, want):
        assert a.shape == (rows, len(prob.dist_vertices))
        nan = np.isnan(b)
        assert np.array_equal(np.isnan(a), nan)
        assert a[~nan].tobytes() == b[~nan].tobytes()
    if prob.dist_vars == ("d0", "d1"):  # d0 = 0 at vertices 0 and 1
        assert np.isnan(got[0][:, :2]).all()
        assert not np.isnan(got[0][:, 2:]).any()
    if not prob.dist_vars:
        assert np.isnan(got[0][:, 0]).tolist() == (x[:, 0] <= 0).tolist()
