"""Point-wise reference for ``sim.flow_hybrid``: the integrator of one
ride at a time that the row integrator replaced.

Row r of a ``sim.flow_hybrid`` batch must end bit for bit where
``flow_hybrid`` here ends for ride r alone (``tests/test_sim.py``,
``TestLockstep``).  The scalar helpers are kept as they were, so the
reference does not share code with what it checks.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from simbarrier import expr as ex
from simbarrier import model
from simbarrier.model import Box, ModeDef, Problem
from simbarrier.sim import (ATOL, EVENT_TIME_TOL, MAX_RESETS, MAX_STEPS,
                            RTOL, StopReason, Trajectory)

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4
# the DOPRI5 dense output: u(theta) = x + h (k^T P) (theta, ..., theta^4)
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


class _StepError(Exception):
    pass


def _rk_step(f, x: np.ndarray,
             h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Dormand-Prince step: 5th order solution, error estimate and
    the (7, n) stages."""
    k = np.empty((7, x.size))
    try:
        k[0] = f(x)
        for i in range(1, 7):
            xi = x + h * np.dot(_DP_A[i], k[:i])
            k[i] = f(xi)
    except ex.MATH_ERRORS as err:
        raise _StepError(str(err)) from None
    x5 = x + h * np.dot(_DP_B5, k)
    err = h * np.dot(_DP_ERR, k)
    if not np.all(np.isfinite(x5)):
        raise _StepError("non-finite state")
    return x5, err, k


def _box_gap(box: Box, x: Sequence[float]) -> float:
    """<= 0 inside the box, > 0 outside; continuous in x."""
    gap = -math.inf
    for lo, v, hi in zip(box.lo, x, box.hi):
        gap = max(gap, lo - v, v - hi)
    return gap


def _crossed(direction: int, g0: float, g1: float) -> bool:
    if direction < 0:
        return g0 > 0.0 >= g1
    if direction > 0:
        return g0 <= 0.0 < g1
    return (g0 > 0.0 >= g1) or (g0 <= 0.0 < g1)


def _locate(x_left: np.ndarray, k: np.ndarray, h: float, x_right: np.ndarray,
            g, g_left: float, g_right: float,
            direction: int) -> tuple[float, np.ndarray]:
    """Localize the crossing inside (0, h] on the dense output of the step
    from x_left to x_right with stages k, where g is g_left and g_right:
    Illinois regula falsi, each trial clipped EVENT_TIME_TOL / 4 inside the
    bracket, a trial that is not a number and every trial after the 8th at
    the midpoint; returns the endpoint on the crossed side (so guard
    events land inside the guard)."""
    lo, x_lo, g_lo = 0.0, x_left, float(g_left)
    hi, x_hi, g_hi = h, x_right, float(g_right)
    kept = 0                      # the end the last trial kept: -1 lo, 1 hi
    edge = EVENT_TIME_TOL / 4
    q = np.dot(k.T, _DP_P)
    crossed_from_left = lambda gm: _crossed(direction, g_left, gm)
    trials = 0
    while hi - lo > EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        t = mid
        if trials < 8:
            den = g_lo - g_hi
            secant = lo + (hi - lo) * (g_lo / den) if den else math.nan
            if secant == secant:
                t = min(max(secant, lo + edge), hi - edge)
        trials += 1
        theta = t / h
        powers = np.array([theta, theta * theta, theta * theta * theta,
                           theta * theta * theta * theta])
        x_t = x_left + h * np.dot(q, powers)
        if not np.all(np.isfinite(x_t)):
            raise _StepError("non-finite dense output")
        g_t = g(x_t)
        if crossed_from_left(g_t):
            if kept == -1:
                g_lo *= 0.5
            hi, x_hi, g_hi, kept = t, x_t, float(g_t), -1
        else:
            if kept == 1:
                g_hi *= 0.5
            lo, x_lo, g_lo, kept = t, x_t, float(g_t), 1
    if direction > 0:
        # exit events report the last point still inside
        return lo, x_lo
    return hi, x_hi


def integrate(mode: ModeDef, x0: Sequence[float],
              dpolicy: Callable[[np.ndarray], np.ndarray],
              horizon: float,
              events: Sequence[tuple[Callable, int]] = (),
              bloated: Box | None = None,
              rtol: float = RTOL, atol: float = ATOL,
              mode_index: int = 0, max_steps: int = MAX_STEPS
              ) -> tuple[Trajectory, int | None, int]:
    """Integrate one continuous mode until the horizon, an event crossing,
    exit from the bloated box, or ``max_steps`` trial steps, whichever
    comes first; returns the trajectory, the slot of the event that
    stopped it (None for any other stop) and the trial steps taken.

    Disturbance inputs are piecewise constant: dpolicy is re-evaluated at
    each accepted step.  Event functions take (state, disturbance).
    """
    x = np.asarray(x0, dtype=float)
    start = tuple(x)
    if dpolicy is None:
        dpolicy = lambda _z: np.empty(0)
    if bloated is not None and _box_gap(bloated, x) > 0.0:
        return (Trajectory(mode_index, start, 0.0, StopReason.LEFT_BLOAT),
                None, 0)
    if horizon <= 0.0:
        return Trajectory(mode_index, start, 0.0, StopReason.HORIZON), None, 0

    flow = ex.compile_vector(mode.flow)
    t = 0.0
    d = dpolicy(x)

    def rhs_at(d_now):
        if len(d_now):
            d_list = list(d_now)
            return lambda z: flow(list(z) + d_list)
        return lambda z: flow(z)

    rhs = rhs_at(d)

    # internal event table: user events first, bloat exit last
    table: list[tuple[Callable, int]] = [(g, direction) for g, direction in events]
    bloat_slot = None
    if bloated is not None:
        table.append((lambda z, _d: _box_gap(bloated, z), 1))
        bloat_slot = len(table) - 1

    g_prev = [g(x, d) for g, _ in table]

    f0 = rhs(x)
    h = min(horizon, max(1e-8, 0.01 * (1.0 + float(np.linalg.norm(x)))
                         / (1.0 + float(np.linalg.norm(f0)))))

    steps = 0
    while True:
        if steps == max_steps:
            return (Trajectory(mode_index, tuple(x), t, StopReason.STEP_LIMIT),
                    None, steps)
        steps += 1
        h = min(h, horizon - t)
        try:
            x_new, err, k = _rk_step(rhs, x, h)
        except _StepError:
            h *= 0.5
            if h < 1e-13 * (1.0 + abs(t)):
                return (Trajectory(mode_index, tuple(x), t,
                                   StopReason.FAILURE), None, steps)
            continue
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm > 1.0:
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            if h < 1e-13 * (1.0 + abs(t)):
                return (Trajectory(mode_index, tuple(x), t,
                                   StopReason.FAILURE), None, steps)
            continue

        # accepted step: localize the earliest event crossing, if any
        earliest = None
        for idx, (g, direction) in enumerate(table):
            g_new = g(x_new, d)
            if _crossed(direction, g_prev[idx], g_new):
                tau, x_loc = _locate(x, k, h, x_new, lambda z, _g=g: _g(z, d),
                                     g_prev[idx], g_new, direction)
                if earliest is None or tau < earliest[0]:
                    earliest = (tau, idx, x_loc)
        if earliest is not None:
            tau, idx, x_loc = earliest
            t += tau
            if idx == bloat_slot:
                return (Trajectory(mode_index, tuple(x_loc), t,
                                   StopReason.LEFT_BLOAT), None, steps)
            return (Trajectory(mode_index, tuple(x_loc), t, StopReason.EVENT),
                    idx, steps)

        t += h
        x = x_new
        if t >= horizon * (1.0 - 1e-14):
            return (Trajectory(mode_index, tuple(x), t, StopReason.HORIZON),
                    None, steps)
        d = dpolicy(x)
        rhs = rhs_at(d)
        g_prev = [g(x, d) for g, _ in table]
        growth = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        h *= growth


def _contains_tol(box: Box, x: Sequence[float], tol: float = 1e-7) -> bool:
    return all(lo - tol * (1.0 + abs(v)) <= v <= hi + tol * (1.0 + abs(v))
               for lo, v, hi in zip(box.lo, x, box.hi))


def _guard_events(prob: Problem, mode: int):
    """Event functions announcing guard contact for the resets out of a
    mode: one plane ``z[i] - c`` per distinct guard face, sorted, crossed
    either way; membership is checked at the localized point."""
    planes = sorted({(i, c) for rule in prob.mode_resets(mode)
                     for i in range(rule.guard.dim)
                     for c in (rule.guard.lo[i], rule.guard.hi[i])})
    return [(lambda z, _d, _i=i, _c=c: z[_i] - _c, 0) for i, c in planes]


def flow_hybrid(prob: Problem, start: tuple[int, Sequence[float]],
                dpolicy: Callable[[int, np.ndarray], np.ndarray] | None,
                horizon: float, *, bloat_factor: float = 1.1,
                extra_event: Callable | None = None,
                rtol: float = RTOL, atol: float = ATOL,
                max_resets: int = MAX_RESETS,
                max_steps: int = MAX_STEPS) -> Trajectory:
    """Follow the hybrid flow: continuous phases alternating with resets.

    Resets fire as early as possible, including at time zero when the start
    point already sits on a guard.  ``extra_event`` is the stop function
    g(mode, x, d), evaluated in the current mode: the ride stops where it
    crosses down to zero, or at the start of a continuous phase where it
    is already below zero.  The ride ends with reason STEP_LIMIT after
    ``max_steps`` trial steps over all its phases.
    """
    mode, x0 = start
    x = np.asarray(x0, dtype=float)
    t = 0.0
    resets = 0
    streak = 0

    if dpolicy is None:
        dpolicy = lambda _m, _x: np.empty(0)

    while True:
        # apply any reset whose guard contains the current point
        fired = False
        for rule in prob.mode_resets(mode):
            if _contains_tol(rule.guard, x):
                x = np.array([ex.evaluate(f, x) for f in rule.fwd])
                mode = rule.target
                resets += 1
                streak += 1
                if streak > max_resets:
                    return Trajectory(mode, tuple(x), t, StopReason.LIVELOCK,
                                      resets)
                fired = True
                break
        if fired:
            continue
        streak = 0

        if t >= horizon * (1.0 - 1e-14) or horizon == 0.0:
            return Trajectory(mode, tuple(x), t, StopReason.HORIZON, resets)

        mdef = prob.modes[mode]
        bloated = model.bloat(mdef.omega, bloat_factor)
        events = _guard_events(prob, mode)
        extra_slot = None
        if extra_event is not None:
            events.append((lambda z, d, _m=mode: extra_event(_m, z, d), -1))
            extra_slot = len(events) - 1
            # a phase that starts inside the bloated box where the stop
            # function is already below zero ends at its start
            if (not _box_gap(bloated, x) > 0.0
                    and extra_event(mode, x, dpolicy(mode, x)) < 0.0):
                return Trajectory(mode, tuple(x), t, StopReason.EVENT, resets)

        traj, slot, steps = integrate(
            mdef, x, lambda z, _m=mode: dpolicy(_m, z), horizon - t, events,
            bloated, rtol, atol, mode, max_steps)
        max_steps -= steps
        t += traj.time
        x = np.asarray(traj.end)

        if traj.reason is StopReason.EVENT:
            if extra_slot is not None and slot == extra_slot:
                return Trajectory(mode, tuple(x), t, StopReason.EVENT, resets)
            # a face plane crossed: the membership check at the loop top
            # applies the reset, or resumes the continuous phase where the
            # point is in no guard
            continue
        return Trajectory(mode, tuple(x), t, traj.reason, resets)
