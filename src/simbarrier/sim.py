"""Numerical simulation of hybrid flows.

One integrator, ``flow_hybrid``, advances a batch of rides in lockstep,
one row per ride.  An embedded Dormand-Prince 4(5) step with adaptive
step control drives every row.  Events (guard entry, the caller's stop
condition, exit from the bloated state space) are localized by bisection
on the accepted step.  Reset rules are applied as early as possible; rows
that jump repeatedly without time progress stop with a livelock verdict.
Backward rides integrate ``Problem.reversed``, the time-reversed problem
that the problem builds once, so its flows and maps compile once too.

Each row keeps its own step size, accept/reject decision, event
bisection, reset streak and stop reason, so row r ends bit for bit where
the point-wise reference (``tests/sim_reference.py``) ends ride r
integrated alone.  Three rules keep it so:

- The stage sums are one stacked ``np.matmul`` of a Butcher row with the
  ``(rows, 7, n)`` stage array, which rounds each row as ``np.dot``
  rounds one ride.  One ``np.dot`` over all rows' columns rounds
  differently, because OpenBLAS blocks its gemv by the column count.
- The step factor ``0.9 * err_norm ** -0.2`` is a Python float (libm)
  power per row; numpy's vector power rounds differently.
- A norm or a dot product is ``np.linalg.norm`` or ``np.dot`` of one row
  (a BLAS dot); a reduction over an axis adds in another order.
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
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
MAX_RESETS = 100

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


class StopReason(enum.Enum):
    HORIZON = "horizon"
    LEFT_BLOAT = "left-bloated-state-space"
    EVENT = "event"
    JUMP = "jump"
    LIVELOCK = "livelock"
    FAILURE = "integration-failure"


@dataclass(frozen=True)
class Trajectory:
    start_mode: int
    start: tuple[float, ...]
    end_mode: int
    end: tuple[float, ...]
    time: float
    reason: StopReason
    resets: int = 0
    event_index: int | None = None


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
    return np.array([np.linalg.norm(row) for row in a])


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


def _bisect(rhs: Rows, g: Rows, direction: int, x_left: np.ndarray,
            d: np.ndarray, h: np.ndarray, g_left: np.ndarray,
            x_right: np.ndarray):
    """Localize each row's crossing of ``g`` inside (0, h], where the step
    from ``x_left`` ends at ``x_right``.  The rows bisect in lockstep,
    each until its own bracket is at most EVENT_TIME_TOL wide.  Returns
    the times and points on the crossed side (exit events, direction > 0,
    report the last point still inside, so guard events land inside the
    guard) and the rows where a bisection step failed."""
    lo, hi = np.zeros(len(h)), h.copy()
    x_lo, x_hi = x_left.copy(), x_right.copy()
    failed = np.zeros(len(h), dtype=bool)
    while (active := (hi - lo > EVENT_TIME_TOL) & ~failed).any():
        a = slice(None) if active.all() else np.flatnonzero(active)
        mid = 0.5 * (lo[a] + hi[a])
        x_mid = _rk_step(rhs, x_lo[a], d[a], mid - lo[a])[0]
        bad = ~np.isfinite(x_mid).all(axis=1)
        up = ~bad & _crossed(direction, g_left[a], g(x_mid, d[a]))
        down = ~bad & ~up
        hi[a] = np.where(up, mid, hi[a])
        x_hi[a] = np.where(up[:, None], x_mid, x_hi[a])
        lo[a] = np.where(down, mid, lo[a])
        x_lo[a] = np.where(down[:, None], x_mid, x_lo[a])
        failed[a] = failed[a] | bad
    if direction > 0:
        return lo, x_lo, failed
    return hi, x_hi, failed


def _guard_events(prob: Problem, mode: int) -> list[tuple[Rows, int]]:
    """Events announcing guard contact for each reset out of a mode.

    Guards with zero-width dimensions cannot be detected through the box
    membership gap (it never changes sign), so each degenerate dimension
    contributes a plane-crossing event instead; membership is re-checked
    at the localized point.
    """
    events = []
    for rule in prob.mode_resets(mode):
        degenerate = [i for i, (lo, hi) in enumerate(zip(rule.guard.lo, rule.guard.hi))
                      if lo == hi]
        if degenerate:
            for i in degenerate:
                c = rule.guard.lo[i]
                events.append((lambda x, _d, _i=i, _c=c: x[:, _i] - _c, 0))
        else:
            events.append((_box_gap(rule.guard), -1))
    return events


class _Phase:
    """What a continuous phase in one mode needs, built once per
    ``flow_hybrid`` call: the flow over rows (``ModeDef.flow_rows``), the
    resets out of the mode, and the event table.  The table lists the
    guard events, then the caller's event, then the bloat exit."""

    def __init__(self, prob: Problem, mode: int, bloat_factor: float,
                 extra_event: tuple[Callable, int] | None):
        self.mode = mode
        flow = prob.modes[mode].flow_rows
        self.rhs = lambda x, d: flow(np.concatenate((x, d), axis=1)
                                     if d.shape[1] else x)
        self.resets = prob.mode_resets(mode)
        self.events = _guard_events(prob, mode)
        self.guards = len(self.events)
        if extra_event is not None:
            g, direction = extra_event
            self.events.append((lambda x, d: g(mode, x, d), direction))
        self.gap = _box_gap(model.bloat(prob.modes[mode].omega, bloat_factor))
        self.bloat = len(self.events)
        self.events.append((self.gap, 1))

    def values(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Every event at the rows of x: shape (rows, events)."""
        return np.array([g(x, d) for g, _ in self.events]).T


class _Rides:
    """The live rows of a batch of rides, one row per ride; a row that
    ends is written to ``out`` and dropped."""

    FIELDS = ("ids", "alive", "at_top", "mode", "x", "d", "g_prev", "t_out",
              "t", "span", "h", "resets", "streak")

    def __init__(self, prob: Problem, starts, dpolicy, horizon: float,
                 bloat_factor: float, extra_event, jump_stop,
                 rtol: float, atol: float):
        k = len(starts)
        self.start_modes = [int(m) for m, _ in starts]
        self.starts = [tuple(np.asarray(x0, dtype=float).tolist())
                       for _, x0 in starts]
        self.phases = [_Phase(prob, m, bloat_factor, extra_event)
                       for m in range(len(prob.modes))]
        self.dpolicy = dpolicy or (lambda _m, x: np.empty((len(x), 0)))
        self.horizon, self.rtol, self.atol = horizon, rtol, atol
        self.jump_stop = jump_stop
        self.out: list[Trajectory | None] = [None] * k
        self.ids = np.arange(k)
        self.alive = np.ones(k, dtype=bool)
        self.at_top = np.ones(k, dtype=bool)   # at the hybrid loop's top
        self.mode = np.array(self.start_modes, dtype=int)
        self.x = np.array(self.starts, dtype=float).reshape(k, prob.dim)
        self.d = np.empty((k, len(prob.dist_vars) if dpolicy else 0))
        self.g_prev = np.empty((k, max(len(p.events) for p in self.phases)))
        # time before the current phase, time in it, its span, the step
        self.t_out, self.t = np.zeros(k), np.zeros(k)
        self.span, self.h = np.zeros(k), np.zeros(k)
        self.resets = np.zeros(k, dtype=int)
        self.streak = np.zeros(k, dtype=int)

    def run(self) -> list[Trajectory]:
        while len(self.ids):
            if self.at_top.any():
                self.top(np.flatnonzero(self.at_top))
                self.compact()
            for phase, rows in self.by_mode():
                self.step(phase, rows)
            self.compact()
        return self.out

    def compact(self):
        if not self.alive.all():
            keep = self.alive
            for name in self.FIELDS:
                setattr(self, name, getattr(self, name)[keep])

    def end(self, rows: np.ndarray, reason: StopReason,
            event_index: int | None = None):
        """The rows (indices of live rows) end where they are now."""
        if not rows.size:
            return
        time = self.t_out[rows] + self.t[rows]
        for r, t in zip(rows.tolist(), time.tolist()):
            self.out[self.ids[r]] = Trajectory(
                self.start_modes[self.ids[r]], self.starts[self.ids[r]],
                int(self.mode[r]), tuple(self.x[r].tolist()), t, reason,
                int(self.resets[r]), event_index)
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
        """Start a continuous phase, unless the row is at the horizon or
        outside the bloated box."""
        self.streak[rows] = 0
        self.at_top[rows] = False
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
        span = self.span[rows] = self.horizon - self.t_out[rows]
        self.t[rows] = 0.0
        d = self.d[rows] = self.dpolicy(phase.mode, x)
        self.g_prev[rows, :len(phase.events)] = phase.values(x, d)
        h = 0.01 * (1.0 + _norms(x)) / (1.0 + _norms(phase.rhs(x, d)))
        self.h[rows] = np.minimum(span, np.fmax(1e-8, h))

    def step(self, phase: _Phase, rows):
        """One trial step of each row (a slice or indices of live rows in
        ``phase``'s mode), accepted or rejected by the row's own error
        test; a rejected step shrinks the row's step size."""
        x, d, t = self.x[rows], self.d[rows], self.t[rows]
        h = np.minimum(self.h[rows], self.span[rows] - t)
        x_new, k = _rk_step(phase.rhs, x, d, h)
        err = h[:, None] * np.matmul(_DP_ERR, k)
        ok = np.isfinite(x_new).all(axis=1)
        scale = self.atol + self.rtol * np.maximum(np.abs(x), np.abs(x_new))
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
            rows, x, x_new, d, t, h = (
                a[accept] for a in (rows, x, x_new, d, t, h))
        if len(h):
            self.advance(phase, rows, x, x_new, d, t, h)

    def advance(self, phase: _Phase, rows, x: np.ndarray, x_new: np.ndarray,
                d: np.ndarray, t: np.ndarray, h: np.ndarray):
        """Accepted steps: a row stops at its earliest event crossing,
        else moves to the step's end."""
        g_prev, g_new = self.g_prev[rows], phase.values(x_new, d)
        hits = []
        for e, (_, direction) in enumerate(phase.events):
            crossed = _crossed(direction, g_prev[:, e], g_new[:, e])
            if crossed.any():
                hits.append((e, np.flatnonzero(crossed)))
        if hits:
            rows = np.arange(len(self.ids))[rows]
            moved = self.stop_at_events(phase, hits, rows, x, x_new, d, t, h)
            rows, x_new, d, t, h, g_new = (
                a[moved] for a in (rows, x_new, d, t, h, g_new))
        t = t + h
        self.t[rows] = t
        self.x[rows] = x_new
        over = t >= self.span[rows] * (1.0 - 1e-14)
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
                       x: np.ndarray, x_new: np.ndarray, d: np.ndarray,
                       t: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Bisect each crossed event of each row and stop the row at its
        earliest; returns the mask of rows that crossed none."""
        g_prev = self.g_prev[rows]
        tau = np.full(len(rows), math.inf)
        slot = np.full(len(rows), -1)
        x_at = x_new.copy()
        failed = np.zeros(len(rows), dtype=bool)
        for e, hit in hits:
            g, direction = phase.events[e]
            when, where, bad = _bisect(phase.rhs, g, direction, x[hit],
                                       d[hit], h[hit], g_prev[hit, e],
                                       x_new[hit])
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
                 StopReason.EVENT, phase.guards)
        # guard contact: the loop top applies the reset, or, where a
        # degenerate dimension's plane was crossed outside the guard box,
        # resumes the continuous phase
        guard = at[kind < phase.guards]
        self.t_out[guard] += self.t[guard]
        self.t[guard] = 0.0
        self.at_top[guard] = True
        return slot < 0


def flow_hybrid(prob: Problem, starts: Sequence[tuple[int, Sequence[float]]],
                dpolicy: Callable[[int, np.ndarray], np.ndarray] | None,
                horizon: float, *, bloat_factor: float = 1.1,
                extra_event: tuple[Callable, int] | None = None,
                jump_stop: Callable[[ResetRule, np.ndarray, np.ndarray],
                                    np.ndarray] | None = None,
                rtol: float = DEFAULT_RTOL,
                atol: float = DEFAULT_ATOL) -> list[Trajectory]:
    """Follow the hybrid flow from each ``(mode, x)`` of ``starts``:
    continuous phases alternating with resets, one trajectory per start.

    Resets fire as early as possible, including at time zero when the
    start point already sits on a guard.  Disturbance inputs are piecewise
    constant: ``dpolicy(mode, x)`` gives one disturbance row per state row
    of ``x`` and is re-evaluated at each accepted step.  ``extra_event``
    is an additional stop condition ``(g(mode, x, d), direction)`` over
    rows, evaluated in the current mode; a row stops there with reason
    EVENT.  ``jump_stop(rule, x, y)`` is True for the rows whose jump from
    ``x`` to ``y = rule.fwd(x)`` the ride refuses; such a row ends before
    the jump with reason JUMP.  A row that jumps more than ``MAX_RESETS``
    times in a row without time progress ends with reason LIVELOCK.
    """
    rides = _Rides(prob, starts, dpolicy, horizon, bloat_factor, extra_event,
                   jump_stop, rtol, atol)
    with np.errstate(all="ignore"):
        return rides.run()


def _select_vertices(box: Box, cap: int,
                     rng: np.random.Generator) -> list[tuple[float, ...]]:
    n = box.dim
    if n <= 30 and 2 ** n <= cap:
        return model.vertices(box)
    chosen: dict[tuple[float, ...], None] = {}
    attempts = 0
    while len(chosen) < cap and attempts < 20 * cap:
        bits = rng.integers(0, 2, size=n)
        v = tuple(box.hi[i] if bits[i] else box.lo[i] for i in range(n))
        chosen[v] = None
        attempts += 1
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
    return ([Segment.classify(prob, mode, v, traj.end_mode, traj.end)
             for (mode, v), traj in zip(starts, forward)]
            + [Segment.classify(prob, traj.end_mode, traj.end, mode, v)
               for (mode, v), traj in zip(ends, backward)])


def _drift_ride(prob_dyn: Problem, cert: Certificate,
                start: tuple[int, Sequence[float]], orient: float,
                pick_max: bool, *, bloat_factor: float,
                t_max: float) -> tuple[int, tuple[float, ...]]:
    """Shared core of the forward/backward counter-example endpoints.

    Integrates prob_dyn, as a batch of one row, while the certificate
    ``cert`` rises along the ride, measured in the original forward
    orientation: it stops at the first drift zero, before a reset that
    would lower the certificate (the jump condition of Prajna & Jadbabaie,
    HSCC 2004), at a bloated-box exit, or at the hard time cap.  The
    certificate's code is the caller's; prob_dyn's flows are compiled on
    its modes.
    """
    d_verts = prob_dyn.dist_vertices

    def drift(m: int, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        g = cert[m].grad(x)
        f = prob_dyn.modes[m].flow_rows(np.concatenate((x, d), axis=1))
        return orient * np.array([np.dot(gr, fr) for gr, fr in zip(g, f)])

    def dpolicy(m: int, x: np.ndarray) -> np.ndarray:
        """Per row, the first disturbance vertex with the largest (or
        smallest) drift."""
        rows = lambda dv: np.broadcast_to(dv, (len(x), len(dv)))
        if len(d_verts) == 1:
            return rows(d_verts[0])
        pick = np.zeros(len(x), dtype=int)
        best = drift(m, x, rows(d_verts[0]))
        for i, dv in enumerate(d_verts[1:], 1):
            v = drift(m, x, rows(dv))
            better = v > best if pick_max else v < best
            best, pick[better] = np.where(better, v, best), i
        return np.array(d_verts)[pick]

    def falls(rule: ResetRule, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows whose jump lowers the certificate along the ride."""
        before = cert[rule.source].value(x)
        return orient * (cert[rule.target].value(y) - before) < 0.0

    mode, x0 = start
    x = np.asarray(x0, dtype=float).reshape(1, -1)
    if drift(mode, x, dpolicy(mode, x))[0] < 0.0:
        return mode, tuple(x[0].tolist())

    traj, = flow_hybrid(prob_dyn, [(mode, x[0])], dpolicy, t_max,
                        bloat_factor=bloat_factor, extra_event=(drift, -1),
                        jump_stop=falls)
    return traj.end_mode, traj.end


def omega(prob: Problem, cert: Certificate,
          start: tuple[int, Sequence[float]], *, bloat_factor: float = 1.1,
          t_max: float = 100.0) -> tuple[int, tuple[float, ...]]:
    """Forward endpoint: ride the flow while the certificate increases,
    choosing disturbances that maximize the increase; the ride ends before
    a reset that lowers the certificate."""
    return _drift_ride(prob, cert, start, orient=1.0, pick_max=True,
                       bloat_factor=bloat_factor, t_max=t_max)


def alpha(prob: Problem, cert: Certificate,
          start: tuple[int, Sequence[float]], *, bloat_factor: float = 1.1,
          t_max: float = 100.0) -> tuple[int, tuple[float, ...]]:
    """Backward start point: ride the reversed flow while the certificate
    decreases in backward time, choosing disturbances that minimize the
    forward-orientation drift; the ride ends before a reversed reset that
    raises the certificate."""
    return _drift_ride(prob.reversed, cert, start, orient=-1.0,
                       pick_max=False, bloat_factor=bloat_factor, t_max=t_max)
