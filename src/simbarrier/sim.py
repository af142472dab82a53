"""Numerical simulation of hybrid flows.

One integrator, ``flow_hybrid``, advances a batch of rides in lockstep,
one row per ride.  An embedded Dormand-Prince 4(5) step with adaptive
step control drives every row.  Events (a crossing of a guard's face
plane, the caller's stop function falling to zero, exit from the
bloated state space) are localized on the accepted step's dense output,
the 4th order continuous extension built from the step's own stages, so
locating a crossing takes no further step.  The locator is a secant
(Illinois regula falsi) on the event's values at the bracket's ends,
each trial a quarter tolerance inside the bracket, and falls back to
bisection after ``_SECANT_TRIALS`` trials, so a flat or kinked event
costs at most that many trials more than bisection; over the bundled
problems a location takes 5 trials on average, where bisection takes
24.  A row also stops at the start of any phase, after a jump too, where
its stop function is already below zero.  A row that crosses a face
plane inside a guard takes the reset, as early as possible, and rides on
where no guard holds the point; rows that jump repeatedly without time
progress stop with a livelock verdict, and every ride stops after
``MAX_STEPS`` trial steps, so a long horizon cannot make it run away.
Backward rides integrate ``Problem.reversed``, the time-reversed problem
that the problem builds once, so its flows and maps compile once too.

Each row keeps its own step size, accept/reject decision, event
location, reset streak and stop reason, so row r ends bit for bit where
the point-wise reference (``tests/sim_reference.py``) ends ride r
integrated alone.  Four rules keep it so:

- The stage sums are one stacked ``np.matmul`` of a Butcher row with the
  ``(rows, 7, n)`` stage array, which rounds each row as ``np.dot``
  rounds one ride.  One ``np.dot`` over all rows' columns rounds
  differently, because OpenBLAS blocks its gemv by the column count.
- So is the dense output: ``k^T P`` is a stacked ``np.matmul`` of each
  row's transposed stages with P, and so is its product with the row's
  powers of theta.
- The step factor ``0.9 * err_norm ** -0.2`` is a Python float (libm)
  power per row; numpy's vector power rounds differently.  For the same
  reason the powers of theta are products: theta * theta, then times
  theta, then times theta again.
- A dot product is ``model.row_dot`` (a BLAS dot per row) and a norm
  its square root, as ``np.linalg.norm`` of one row computes it; a
  reduction over an axis adds in another order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import model
from .model import Box, Certificate, Problem, ResetRule, Segment

EVENT_TIME_TOL = 1e-9
RTOL = 1e-8             # the step's error tolerances
ATOL = 1e-10
MAX_RESETS = 100
MAX_STEPS = 10_000      # trial steps of one ride, over all its phases
_SECANT_TRIALS = 8      # secant trials of an event location, then bisection
_EDGE = EVENT_TIME_TOL / 4  # a secant trial's least distance from the bracket

_DP_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4
# the dense output u(theta) = x + h (k^T P) (theta, theta^2, theta^3,
# theta^4), a 4th order continuous extension of the step (Hairer, Norsett
# & Wanner, Solving ODEs I, section II.6); scipy's RK45 uses this P
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
    [0.0, 40617522 / 29380423, -110615467 / 29380423,
     69997945 / 29380423],
])


class StopReason(enum.Enum):
    HORIZON = "horizon"
    LEFT_BLOAT = "left-bloated-state-space"
    EVENT = "event"
    JUMP = "jump"
    LIVELOCK = "livelock"
    FAILURE = "integration-failure"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class Trajectory:
    end_mode: int
    end: tuple[float, ...]
    time: float
    reason: StopReason
    resets: int = 0


# a function of state rows and their disturbance rows: a flow gives one row
# per state row, an event one value
Rows = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _rk_step(rhs: Rows, x: np.ndarray, d: np.ndarray,
             h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Dormand-Prince step of each row: the 5th order solution and
    the (rows, 7, n) stages.  A row the flow cannot compute is non-finite."""
    k = np.empty((len(x), 7, x.shape[1]))
    hc = h[:, None]
    k[:, 0] = rhs(x, d)
    for i in range(1, 7):
        k[:, i] = rhs(x + hc * np.matmul(_DP_A[i], k[:, :i]), d)
    return x + hc * np.matmul(_DP_B5, k), k


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(model.row_dot(a, a))


def _box_gap(box: Box) -> Rows:
    """Event ``(x, d) -> gap``: <= 0 inside the box, > 0 outside;
    continuous in x."""
    lo, hi = np.array(box.lo), np.array(box.hi)
    return lambda x, _d=None: np.maximum.reduce(np.maximum(lo - x, x - hi),
                                                axis=1)


def _contains_tol(box: Box, x: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    slack = tol * (1.0 + np.abs(x))
    return ((np.array(box.lo) - slack <= x)
            & (x <= np.array(box.hi) + slack)).all(axis=1)


def _crossed(direction: int, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    if direction < 0:
        return (g0 > 0.0) & (g1 <= 0.0)
    if direction > 0:
        return (g0 <= 0.0) & (g1 > 0.0)
    return ((g0 > 0.0) & (g1 <= 0.0)) | ((g0 <= 0.0) & (g1 > 0.0))


def _locate(g: Rows, direction: int, x_left: np.ndarray, k: np.ndarray,
            d: np.ndarray, h: np.ndarray, g_left: np.ndarray,
            x_right: np.ndarray, g_right: np.ndarray):
    """Localize each row's crossing of ``g`` inside (0, h] on the dense
    output of the accepted step from ``x_left`` to ``x_right`` with stages
    ``k``, where ``g`` is ``g_left`` and ``g_right``; a trial costs one
    evaluation of ``g`` and no step.  The rows search in lockstep, each
    until its own bracket is at most EVENT_TIME_TOL wide.  A trial is the
    secant of the bracket's event values (Illinois regula falsi: an end
    kept twice in a row has its value halved; Dowell & Jarratt, BIT 11,
    1971), clipped to EVENT_TIME_TOL / 4 inside the bracket so that a
    nearly linear event closes it with the next trial; a secant that is
    not a number, and every trial after the first ``_SECANT_TRIALS``, is
    the bracket's midpoint, so a flat or kinked event still closes it
    within bisection's count plus ``_SECANT_TRIALS``.  Returns the times
    and points on the crossed side (exit events, direction > 0, report
    the last point still inside, so guard events land inside the guard)
    and the rows where an interpolant point is not finite: finite stages
    near the overflow threshold (a flow of 1e308) give a finite step but
    an overflowing k^T P."""
    lo, hi = np.zeros(len(h)), h.copy()
    x_lo, x_hi = x_left.copy(), x_right.copy()
    g_lo, g_hi = np.array(g_left, dtype=float), np.array(g_right, dtype=float)
    kept = np.zeros(len(h), dtype=int)   # end the last trial kept: -1 lo, 1 hi
    q = np.matmul(k.transpose(0, 2, 1), _DP_P)
    failed = np.zeros(len(h), dtype=bool)
    trials = 0
    while (active := (hi - lo > EVENT_TIME_TOL) & ~failed).any():
        a = slice(None) if active.all() else np.flatnonzero(active)
        la, ha = lo[a], hi[a]
        mid = 0.5 * (la + ha)
        if trials < _SECANT_TRIALS:
            gl = g_lo[a]
            t = la + (ha - la) * (gl / (gl - g_hi[a]))
            t = np.where(t == t, np.minimum(np.maximum(t, la + _EDGE),
                                            ha - _EDGE), mid)
        else:
            t = mid
        trials += 1
        theta = t / h[a]
        theta2 = theta * theta
        theta3 = theta2 * theta
        powers = np.stack((theta, theta2, theta3, theta3 * theta), axis=1)
        x_t = x_left[a] + h[a][:, None] * np.matmul(
            q[a], powers[:, :, None])[:, :, 0]
        bad = ~np.isfinite(x_t).all(axis=1)
        g_t = g(x_t, d[a])
        up = ~bad & _crossed(direction, g_left[a], g_t)
        down = ~bad & ~up
        was = kept[a]
        hi[a] = np.where(up, t, ha)
        x_hi[a] = np.where(up[:, None], x_t, x_hi[a])
        g_hi[a] = np.where(up, g_t, np.where(down & (was == 1), 0.5 * g_hi[a],
                                             g_hi[a]))
        lo[a] = np.where(down, t, la)
        x_lo[a] = np.where(down[:, None], x_t, x_lo[a])
        g_lo[a] = np.where(down, g_t, np.where(up & (was == -1), 0.5 * g_lo[a],
                                               g_lo[a]))
        kept[a] = np.where(up, -1, np.where(down, 1, was))
        failed[a] = failed[a] | bad
    if direction > 0:
        return lo, x_lo, failed
    return hi, x_hi, failed


def _guard_events(prob: Problem, mode: int) -> list[tuple[Rows, int]]:
    """Events announcing guard contact for the resets out of a mode: one
    ``x_i - c`` per distinct face plane of their guards, sorted and crossed
    either way.  A path into a box crosses one of its faces, so no guard
    is too narrow for a step; the loop top checks guard membership at the
    localized point."""
    planes = sorted({(i, c) for rule in prob.mode_resets(mode)
                     for i in range(rule.guard.dim)
                     for c in (rule.guard.lo[i], rule.guard.hi[i])})
    return [(lambda x, _d, _i=i, _c=c: x[:, _i] - _c, 0) for i, c in planes]


class _Phase:
    """What a continuous phase in one mode needs, built once per
    ``flow_hybrid`` call: the flow over rows (``ModeDef.flow_rows``), the
    resets out of the mode, and the event table.  The table lists the
    guard events, then the caller's stop function, then the bloat exit."""

    def __init__(self, prob: Problem, mode: int, bloat_factor: float,
                 extra_event: Callable | None):
        self.mode = mode
        flow = prob.modes[mode].flow_rows
        self.rhs = lambda x, d: flow(np.concatenate((x, d), axis=1)
                                     if d.shape[1] else x)
        self.resets = prob.mode_resets(mode)
        self.events = _guard_events(prob, mode)
        self.guards = len(self.events)
        if extra_event is not None:
            self.events.append((lambda x, d: extra_event(mode, x, d), -1))
        self.gap = _box_gap(model.bloat(prob.modes[mode].omega, bloat_factor))
        self.bloat = len(self.events)
        self.events.append((self.gap, 1))

    def values(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Every event at the rows of x: shape (rows, events)."""
        return np.array([g(x, d) for g, _ in self.events]).T


class _Rides:
    """The live rows of a batch of rides, one row per ride; a row that
    ends is written to ``out`` and dropped."""

    FIELDS = ("ids", "alive", "mode", "x", "d", "g_prev", "t_out", "t", "h",
              "resets", "streak")

    def __init__(self, prob: Problem, starts, dpolicy, horizon: float,
                 bloat_factor: float, extra_event, jump_stop):
        k = len(starts)
        self.phases = [_Phase(prob, m, bloat_factor, extra_event)
                       for m in range(len(prob.modes))]
        self.dpolicy = dpolicy or (lambda _m, x: np.empty((len(x), 0)))
        self.horizon = horizon
        self.jump_stop = jump_stop
        self.out: list[Trajectory | None] = [None] * k
        self.ids = np.arange(k)
        self.alive = np.ones(k, dtype=bool)
        self.mode = np.array([m for m, _ in starts], dtype=int)
        self.x = np.array([x0 for _, x0 in starts],
                          dtype=float).reshape(k, prob.dim)
        self.d = np.empty((k, len(prob.dist_vars) if dpolicy else 0))
        self.g_prev = np.empty((k, max(len(p.events) for p in self.phases)))
        # time before the current phase, time in it, the step
        self.t_out, self.t, self.h = np.zeros(k), np.zeros(k), np.zeros(k)
        self.resets = np.zeros(k, dtype=int)
        self.streak = np.zeros(k, dtype=int)

    def run(self) -> list[Trajectory]:
        self.top(np.arange(len(self.ids)))
        self.compact()
        for _ in range(MAX_STEPS):
            if not len(self.ids):
                break
            for phase, rows in self.by_mode():
                self.step(phase, rows)
            self.compact()
        else:
            self.end(np.arange(len(self.ids)), StopReason.STEP_LIMIT)
        return self.out

    def compact(self):
        if not self.alive.all():
            keep = self.alive
            for name in self.FIELDS:
                setattr(self, name, getattr(self, name)[keep])

    def end(self, rows: np.ndarray, reason: StopReason):
        """The rows (indices of live rows) end where they are now."""
        if not rows.size:
            return
        time = self.t_out[rows] + self.t[rows]
        for r, t in zip(rows.tolist(), time.tolist()):
            self.out[self.ids[r]] = Trajectory(
                int(self.mode[r]), tuple(self.x[r].tolist()), t, reason,
                int(self.resets[r]))
        self.alive[rows] = False

    def by_mode(self):
        """The live rows of each mode: all of them as one slice when they
        share a mode."""
        modes = self.mode
        if not len(modes):
            return []
        if len(self.phases) == 1 or (modes == modes[0]).all():
            return [(self.phases[modes[0]], slice(None))]
        return [(self.phases[m], np.flatnonzero(modes == m))
                for m in sorted(set(modes.tolist()))]

    def top(self, rows: np.ndarray):
        """The hybrid loop's top: a row on a guard jumps, as long as it
        lands on one; the others start a continuous phase."""
        while rows.size:
            jumped = [rows[:0]]
            for m in sorted(set(self.mode[rows].tolist())):
                phase, on_mode = self.phases[m], rows[self.mode[rows] == m]
                for rule in phase.resets:
                    on = _contains_tol(rule.guard, self.x[on_mode])
                    if on.any():
                        jumped.append(self.jump(rule, on_mode[on]))
                        on_mode = on_mode[~on]
                self.begin(phase, on_mode)
            rows = np.concatenate(jumped)

    def jump(self, rule: ResetRule, rows: np.ndarray) -> np.ndarray:
        """Apply ``rule`` to rows on its guard; returns the rows that go
        on.  A row the map cannot compute ends as a failure, and a row
        whose jump ``jump_stop`` refuses ends before it."""
        x = self.x[rows]
        y = rule.map_rows(x)
        stop = ~np.isfinite(y).all(axis=1)
        self.end(rows[stop], StopReason.FAILURE)
        if self.jump_stop is not None:
            refused = ~stop & self.jump_stop(rule, x, y)
            self.end(rows[refused], StopReason.JUMP)
            stop |= refused
        rows = rows[~stop]
        self.x[rows] = y[~stop]
        self.mode[rows] = rule.target
        self.resets[rows] += 1
        self.streak[rows] += 1
        livelock = self.streak[rows] > MAX_RESETS
        self.end(rows[livelock], StopReason.LIVELOCK)
        return rows[~livelock]

    def begin(self, phase: _Phase, rows: np.ndarray):
        """Start a continuous phase, unless the row is at the horizon,
        outside the bloated box or where the stop function is already
        below zero (reason EVENT)."""
        self.streak[rows] = 0
        over = ((self.t_out[rows] >= self.horizon * (1.0 - 1e-14))
                | (self.horizon == 0.0))
        self.end(rows[over], StopReason.HORIZON)
        rows = rows[~over]
        out = phase.gap(self.x[rows]) > 0.0
        self.end(rows[out], StopReason.LEFT_BLOAT)
        rows = rows[~out]
        if not rows.size:
            return
        x = self.x[rows]
        d = self.d[rows] = self.dpolicy(phase.mode, x)
        g = self.g_prev[rows, :len(phase.events)] = phase.values(x, d)
        if phase.bloat > phase.guards:  # the stop function's slot
            falling = g[:, phase.guards] < 0.0
            self.end(rows[falling], StopReason.EVENT)
            rows, x, d = rows[~falling], x[~falling], d[~falling]
        span = self.horizon - self.t_out[rows]
        h = 0.01 * (1.0 + _norms(x)) / (1.0 + _norms(phase.rhs(x, d)))
        self.h[rows] = np.minimum(span, np.fmax(1e-8, h))

    def step(self, phase: _Phase, rows):
        """One trial step of each row (a slice or indices of live rows in
        ``phase``'s mode), accepted or rejected by the row's own error
        test; a rejected step shrinks the row's step size."""
        x, d, t = self.x[rows], self.d[rows], self.t[rows]
        h = np.minimum(self.h[rows], self.horizon - self.t_out[rows] - t)
        x_new, k = _rk_step(phase.rhs, x, d, h)
        err = h[:, None] * np.matmul(_DP_ERR, k)
        ok = np.isfinite(x_new).all(axis=1)
        scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(x_new))
        # np.mean's own rounding: the sum over the row, then / n
        err_norm = np.sqrt(np.add.reduce((err / scale) ** 2, axis=1)
                           / x.shape[1])
        power = [e ** -0.2 if e else math.inf for e in err_norm.tolist()]
        factor = np.fmax(0.2, 0.9 * np.array(power))
        accept = ok & ~(err_norm > 1.0)
        h_next = h * np.where(accept, np.fmin(5.0, factor),
                              np.where(ok, factor, 0.5))
        self.h[rows] = h_next
        if not accept.all():
            rows = np.arange(len(self.ids))[rows]
            tiny = ~accept & (h_next < 1e-13 * (1.0 + np.abs(t)))
            self.end(rows[tiny], StopReason.FAILURE)
            rows, x, x_new, k, d, t, h = (
                a[accept] for a in (rows, x, x_new, k, d, t, h))
        if len(h):
            self.advance(phase, rows, x, x_new, k, d, t, h)

    def advance(self, phase: _Phase, rows, x: np.ndarray, x_new: np.ndarray,
                k: np.ndarray, d: np.ndarray, t: np.ndarray, h: np.ndarray):
        """Accepted steps, with their (rows, 7, n) stages: a row stops at
        its earliest event crossing, else moves to the step's end."""
        g_prev, g_new = self.g_prev[rows], phase.values(x_new, d)
        hits = []
        for e, (_, direction) in enumerate(phase.events):
            crossed = _crossed(direction, g_prev[:, e], g_new[:, e])
            if crossed.any():
                hits.append((e, np.flatnonzero(crossed)))
        if hits:
            rows = np.arange(len(self.ids))[rows]
            moved = self.stop_at_events(phase, hits, rows, x, x_new, g_new, k,
                                        d, t, h)
            rows, x_new, d, t, h, g_new = (
                a[moved] for a in (rows, x_new, d, t, h, g_new))
        t = t + h
        self.t[rows] = t
        self.x[rows] = x_new
        over = t >= (self.horizon - self.t_out[rows]) * (1.0 - 1e-14)
        if over.any():
            rows = np.arange(len(self.ids))[rows]
            self.end(rows[over], StopReason.HORIZON)
            rows, x_new, d, g_new = (a[~over] for a in (rows, x_new, d, g_new))
        if not len(x_new):
            return
        d_new = self.d[rows] = self.dpolicy(phase.mode, x_new)
        if d.shape[1] and not (d_new == d).all():
            g_new = phase.values(x_new, d_new)
        self.g_prev[rows, :len(phase.events)] = g_new

    def stop_at_events(self, phase: _Phase, hits, rows: np.ndarray,
                       x: np.ndarray, x_new: np.ndarray, g_new: np.ndarray,
                       k: np.ndarray, d: np.ndarray, t: np.ndarray,
                       h: np.ndarray) -> np.ndarray:
        """Locate each crossed event of each row on its step's dense
        output, from its values ``g_new`` at the step's end, and stop the
        row at its earliest; returns the mask of rows that crossed none."""
        g_prev = self.g_prev[rows]
        tau = np.full(len(rows), math.inf)
        slot = np.full(len(rows), -1)
        x_at = x_new.copy()
        failed = np.zeros(len(rows), dtype=bool)
        for e, hit in hits:
            g, direction = phase.events[e]
            when, where, bad = _locate(g, direction, x[hit], k[hit], d[hit],
                                       h[hit], g_prev[hit, e], x_new[hit],
                                       g_new[hit, e])
            failed[hit[bad]] = True
            first = ~bad & (when < tau[hit])
            hit = hit[first]
            tau[hit], slot[hit], x_at[hit] = when[first], e, where[first]
        self.end(rows[failed], StopReason.FAILURE)
        event = (slot >= 0) & ~failed
        at, kind = rows[event], slot[event]
        self.t[at] = t[event] + tau[event]
        self.x[at] = x_at[event]
        self.end(at[kind == phase.bloat], StopReason.LEFT_BLOAT)
        self.end(at[(kind >= phase.guards) & (kind < phase.bloat)],
                 StopReason.EVENT)
        # a face plane crossed: the loop top applies the reset where the
        # point is in a guard, and otherwise resumes the continuous phase
        guard = at[kind < phase.guards]
        self.t_out[guard] += self.t[guard]
        self.t[guard] = 0.0
        self.top(guard)
        return slot < 0


def flow_hybrid(prob: Problem, starts: Sequence[tuple[int, Sequence[float]]],
                dpolicy: Callable[[int, np.ndarray], np.ndarray] | None,
                horizon: float, *, bloat_factor: float = 1.1,
                extra_event: Callable[[int, np.ndarray, np.ndarray],
                                      np.ndarray] | None = None,
                jump_stop: Callable[[ResetRule, np.ndarray, np.ndarray],
                                    np.ndarray] | None = None
                ) -> list[Trajectory]:
    """Follow the hybrid flow from each ``(mode, x)`` of ``starts``:
    continuous phases alternating with resets, one trajectory per start.

    Resets fire as early as possible, including at time zero when the
    start point already sits on a guard.  Disturbance inputs are piecewise
    constant: ``dpolicy(mode, x)`` gives one disturbance row per state row
    of ``x`` and is re-evaluated at each accepted step.
    ``extra_event(mode, x, d)`` is the stop function over rows, evaluated
    in the current mode: a row stops with reason EVENT where it crosses
    down to zero, or at the start of a continuous phase, the first or one
    after a jump, where it is already below zero (a nan rides on).
    ``jump_stop(rule, x, y)`` is True for the rows whose jump from
    ``x`` to ``y = rule.fwd(x)`` the ride refuses; such a row ends before
    the jump with reason JUMP.  A row that jumps more than ``MAX_RESETS``
    times in a row without time progress ends with reason LIVELOCK, and
    a row still riding after ``MAX_STEPS`` trial steps, accepted or
    rejected, ends where it is with reason STEP_LIMIT.
    """
    rides = _Rides(prob, starts, dpolicy, horizon, bloat_factor, extra_event,
                   jump_stop)
    with np.errstate(all="ignore"):
        return rides.run()


def _select_vertices(box: Box, cap: int,
                     rng: np.random.Generator) -> list[tuple[float, ...]]:
    """Up to ``cap`` distinct vertices of ``box``: all of them, when there
    are no more, or else the distinct vertices of up to 20 * cap attempts,
    in the order drawn, until there are ``cap``.  An attempt draws one bit
    per dimension, ``rng.integers(0, 2, size=n)``, and takes the upper
    bound where it is 1.  The attempts are drawn in blocks, and ``rng`` is
    then left where drawing them one at a time leaves it.  Vertices are
    told apart by value, not by bits: a box can have a zero-width
    dimension."""
    n = box.dim
    if n <= 30 and 2 ** n <= cap:
        return model.vertices(box)
    corners, cols = np.array([box.lo, box.hi], dtype=object), np.arange(n)
    state = rng.bit_generator.state
    chosen: dict[tuple[float, ...], None] = {}
    attempts = 0
    while len(chosen) < cap and attempts < 20 * cap:
        bits = rng.integers(0, 2, size=(min(cap, 20 * cap - attempts), n))
        for v in map(tuple, corners[bits, cols].tolist()):
            chosen[v] = None
            attempts += 1
            if len(chosen) == cap:
                break
    # the attempts drawn past the last one taken go back to the stream
    rng.bit_generator.state = state
    rng.integers(0, 2, size=(attempts, n))
    return list(chosen)


def _midpoint_policy(prob: Problem):
    if prob.dist_box is None:
        return None
    d_mid = np.asarray(prob.dist_box.midpoint())
    return lambda _m, x: np.broadcast_to(d_mid, (len(x), len(d_mid)))


def init_segments(prob: Problem, sigma: float, vertex_cap: int = 256,
                  seed: int = 0, *, bloat_factor: float = 1.1) -> list[Segment]:
    """Bootstrap segments: fixed-length forward runs from initial-box
    vertices and backward runs from unsafe-box vertices, each direction
    as one batch of rides."""
    rng = np.random.default_rng(seed)
    starts = [(mode, v) for mode, box in prob.initial
              for v in _select_vertices(box, vertex_cap, rng)]
    forward = flow_hybrid(prob, starts, _midpoint_policy(prob), sigma,
                          bloat_factor=bloat_factor)
    rev = prob.reversed
    ends = [(mode, v) for mode, box in prob.unsafe
            for v in _select_vertices(box, vertex_cap, rng)]
    backward = flow_hybrid(rev, ends, _midpoint_policy(rev), sigma,
                           bloat_factor=bloat_factor)
    return ([Segment(mode, v, traj.end_mode, traj.end)
             for (mode, v), traj in zip(starts, forward)]
            + [Segment(traj.end_mode, traj.end, mode, v)
               for (mode, v), traj in zip(ends, backward)])


def _drift_ride(prob_dyn: Problem, cert: Certificate,
                starts: Sequence[tuple[int, Sequence[float]]], orient: float,
                *, bloat_factor: float,
                t_max: float) -> list[tuple[int, tuple[float, ...]]]:
    """Shared core of the forward/backward counter-example endpoints.

    Integrates prob_dyn from each ``(mode, x)`` of ``starts``, as one
    ``flow_hybrid`` batch whose stop function is the drift of ``cert``,
    measured in the original forward orientation.  A row stops where the
    certificate stops rising: at its first drift zero, at the start of a
    phase (after a jump too) where it already falls, before a reset that
    would lower it (the jump condition of Prajna & Jadbabaie, HSCC 2004),
    at a bloated-box exit, or at the hard time cap.  The certificate's
    code is the caller's; prob_dyn's flows are compiled on its modes.
    """
    d_verts = np.array(prob_dyn.dist_vertices)

    def drift(m: int, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        g = cert[m].grad(x)
        f = prob_dyn.modes[m].flow_rows(np.concatenate((x, d), axis=1))
        return orient * model.row_dot(g, f)

    def dpolicy(m: int, x: np.ndarray) -> np.ndarray:
        """Per row, the first disturbance vertex of largest drift along
        prob_dyn's flow (``Problem.vertex_drifts``), a nan drift never
        the largest: backward, the least forward drift."""
        if len(d_verts) == 1:
            return np.broadcast_to(d_verts[0], (len(x), d_verts.shape[1]))
        v, _ = prob_dyn.vertex_drifts(m, x, cert[m].grad(x))
        return d_verts[np.argmax(np.fmax(v, -np.inf), 1)]

    def falls(rule: ResetRule, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows whose jump lowers the certificate along the ride."""
        before = cert[rule.source].value(x)
        return orient * (cert[rule.target].value(y) - before) < 0.0

    return [(traj.end_mode, traj.end) for traj in flow_hybrid(
        prob_dyn, starts, dpolicy, t_max, bloat_factor=bloat_factor,
        extra_event=drift, jump_stop=falls)]


def omega(prob: Problem, cert: Certificate,
          starts: Sequence[tuple[int, Sequence[float]]], *,
          bloat_factor: float = 1.1,
          t_max: float = 100.0) -> list[tuple[int, tuple[float, ...]]]:
    """Forward endpoints, one per ``(mode, x)`` of ``starts``, ridden as
    one batch: ride the flow while the certificate increases, choosing
    disturbances that maximize the increase.  A ride ends where the
    certificate stops rising: at a drift zero, at a start or after a jump
    where it already falls, or before a reset that lowers it."""
    return _drift_ride(prob, cert, starts, orient=1.0,
                       bloat_factor=bloat_factor, t_max=t_max)


def alpha(prob: Problem, cert: Certificate,
          starts: Sequence[tuple[int, Sequence[float]]], *,
          bloat_factor: float = 1.1,
          t_max: float = 100.0) -> list[tuple[int, tuple[float, ...]]]:
    """Backward start points, one per ``(mode, x)`` of ``starts``, ridden
    as one batch: ride the reversed flow while the certificate decreases
    in backward time, choosing disturbances that minimize the
    forward-orientation drift.  A ride ends where the certificate stops
    falling in backward time: at a drift zero, at a start or after a
    reversed jump where the forward drift is already negative, or before
    a reversed reset that raises the certificate."""
    return _drift_ride(prob.reversed, cert, starts, orient=-1.0,
                       bloat_factor=bloat_factor, t_max=t_max)
