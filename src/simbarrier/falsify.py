"""Counter-example point search and segment construction.

Four searches minimize four objectives by multi-start projected gradient
descent: the certificate's sign on the initial and on the unsafe boxes,
the normalized drift on its zero level set, and the reset condition on
the guards.  Each returns a ``Hit`` per start that ended, least value
first; one below -``_EPS_CE`` is a counter-example point, which
``refute`` extends to a segment.  The searches share one driver,
``_multistart``, and one descent, ``minimize_box``, which runs the starts
of a mode or a rule as the rows of one array.

Each row of a batch is bit for bit what one point gives, by the rules of
``expr.compile_batch`` and ``model.row_dot``.  A batch never raises: a
row outside an operation's domain is a row of nan.  So every objective
has one rule where it is undefined: where the flow, the reset map or the
certificate is not finite, the value is +inf and the gradient zero.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import chebyshev, model, sim
from .model import (KINDS, Box, Certificate, Hit, ModeCertificate, Problem,
                    Segment)

_EPS_CE = 1e-9           # a minimum below -_EPS_CE is a counter-example
_EXTRAS = 3              # extra refuting segments per round, at most
_DISTINCT = 1e-3         # relative distance under which two hits are one
_LEVEL_BAND = 1e-6
# Newton steps that retract a trial point onto the band: fewer than a
# start's model.LANDING_STEPS, because with 6, 8 or 25 steps the search
# ends log-dynamics seeds 5 and 7 with an Unknown verdict
_RETRACTION_STEPS = 4
_NORM_FLOOR = 1e-12
_MAX_HALVINGS = 60
_WINDOW = 10             # iterations between two checks of a row's pace
_DEPTH = 1e-3            # a stalling row below the goal stops once its pace
                         # projects at most this share of its depth
_CONTRACTION = 0.5       # window gains that shrink by this ratio, twice,
                         # project a geometric tail


class RefutationError(RuntimeError):
    """A constructed segment failed to refute its candidate: an event or
    landing fault; the caller aborts, as a new round would not progress."""


@dataclass
class Refutation:
    """The refuting segments of a round's counter-example hits."""
    hit: Hit                      # the worst hit
    segment: Segment              # its segment
    margin: float                 # the segment's margin under p, <= 0
    extras: list[Segment]         # the refuting segments of the other hits
    dropped: int                  # other hits' segments that did not refute
    sim_time: float = 0.0


_dot = model.row_dot


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m[r] @ v[r]`` for each r of a (k, p, q) and a (k, q) array."""
    return (m @ v[:, :, None])[:, :, 0]


# ``f(points, rows)``: a map of the (j, n) points of a descent's rows
Batch = Callable[[np.ndarray, np.ndarray], np.ndarray]
Projection = Batch


def minimize_box(f: Batch, grad: Batch, lo: np.ndarray, hi: np.ndarray,
                 z0: np.ndarray, max_iters: int = 200, tol: float = 1e-8,
                 project: Projection | None = None, goal: float | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent with Armijo backtracking from the k
    starts in the rows of ``z0`` at once; returns the (k, n) end points
    and their (k,) values.

    ``f``, ``grad`` and ``project`` are handed the (j, n) points of the
    rows ``rows`` (indices into ``z0``, in any order): ``f`` gives their
    values, on the rows that try a step, ``grad`` their gradients, on the
    rows that start an iteration, and ``project`` maps them into the
    feasible set (by default the box ``lo``, ``hi``, (n,) or (k, n)); a
    non-finite projected row is infeasible.  ``f`` is first called on
    every row, and a row's ``grad`` call is at the point of its last
    ``f`` call, so ``f`` may keep per row what ``grad`` needs.

    Each row is its own descent, ending where a run of its own would.  A
    step ``z - alpha * g`` is projected and accepted when finite and
    ``fn <= fz + 1e-4 * g.dz``, else halved, at most ``_MAX_HALVINGS``
    times; the next iteration tries ``min(2 * alpha, 1e3)``.  A row stops
    on a non-finite gradient, a box-clipped projected gradient of norm
    <= tol (a retraction would cost Newton steps), a step that does not
    move, a failed line search, or after ``max_iters`` iterations.

    With a ``goal``, a row also stops once its pace says that going on
    would not change whether it gets below the goal, all that a search
    needs to tell.  Every ``_WINDOW`` iterations, a row that gained no
    more over the last window than over the one before (one that speeds
    up goes on) projects the rest of its run: the last gain once per
    window left, or, where the last two gains each shrank to at most
    ``_CONTRACTION`` of the one before, the smaller geometric tail
    ``gain * r / (1 - r)``, r the larger ratio: what a linear contraction
    still gains (Ortega & Rheinboldt, 1970), where the repeated gain would
    overstate a settling row.  It stops when that cannot take it below the
    goal or, below it, would deepen it by at most ``_DEPTH`` of its depth.
    A tail from one ratio would stop the valley row of
    ``tests/test_falsify.py`` above a goal it reaches.  Like the search,
    the rule is a heuristic whose misses the verifier catches."""
    lo, hi = (np.broadcast_to(b, np.shape(z0)) for b in (lo, hi))
    if project is None:
        project = lambda z, rows: z.clip(lo.take(rows, 0), hi.take(rows, 0))
    every = np.arange(len(z0))
    z = project(np.asarray(z0, dtype=float), every)
    fz = np.array(f(z, every), dtype=float)
    g = np.empty_like(z)
    step = np.ones(len(z))
    alpha = np.empty(len(z))
    iters = np.zeros(len(z), dtype=int)
    halvings = np.zeros(len(z), dtype=int)
    fresh = np.arange(len(z))            # rows that start an iteration
    search = fresh[:0]                   # rows in a line search
    if goal is not None:
        mark = fz.copy()                 # each row's value a window ago
        gained = np.full(len(z), math.nan)  # its gain over the window before
        gained2 = gained.copy()          # and over the one before that
    while True:
        if fresh.size:
            fresh = fresh[iters.take(fresh) < max_iters]
        if goal is not None and fresh.size:
            done = iters.take(fresh)
            due = (done > 0) & (done % _WINDOW == 0)
            if due.any():
                rows, left = fresh[due], max_iters - done[due]
                fr = fz.take(rows)
                gain = mark.take(rows) - fr
                g1, g2 = gained.take(rows), gained2.take(rows)
                ahead = gain * left / _WINDOW  # the gain its pace projects
                # gains that shrink geometrically project their tail
                shrinks = ((gain <= _CONTRACTION * g1)
                           & (g1 <= _CONTRACTION * g2) & (g1 > 0.0))
                if shrinks.any():
                    s = shrinks.nonzero()[0]
                    r = np.maximum(gain[s] / g1[s], g1[s] / g2[s])
                    ahead[s] = np.minimum(ahead[s], gain[s] * r / (1.0 - r))
                stop = due.copy()
                stop[due] = ((gain <= g1)
                             & ((fr - ahead > goal)
                                | (ahead <= _DEPTH * (goal - fr))))
                mark[rows], gained[rows], gained2[rows] = fr, gain, g1
                fresh = fresh[~stop]
        if fresh.size:
            iters[fresh] += 1
            zf = z.take(fresh, 0)
            gf = grad(zf, fresh)
            v = zf - (zf - gf).clip(lo.take(fresh, 0), hi.take(fresh, 0))
            go = (np.isfinite(gf).all(1)
                  & ~(np.sqrt(_dot(v, v)) <= tol)).nonzero()[0]
            fresh = fresh.take(go)
            g[fresh] = gf.take(go, 0)
            alpha[fresh] = step.take(fresh)
            halvings[fresh] = 0
            search = np.concatenate([search, fresh])
        if not search.size:
            return z, fz
        zs, gs, a = z.take(search, 0), g.take(search, 0), alpha.take(search)
        zn = project(zs - a[:, None] * gs, search)
        dz = zn - zs
        moved = dz.any(1)
        if False in moved.tolist():      # rows whose step does not move stop
            keep = moved.nonzero()[0]
            search, zn, dz, gs, a = (search.take(keep), zn.take(keep, 0),
                                     dz.take(keep, 0), gs.take(keep, 0),
                                     a.take(keep))
            if not search.size:
                return z, fz
        fn = f(zn, search)
        ok = np.isfinite(fn) & (fn <= fz.take(search) + 1e-4 * _dot(gs, dz))
        accepted, rejected = ok.nonzero()[0], (~ok).nonzero()[0]
        fresh = search.take(accepted)
        z[fresh] = zn.take(accepted, 0)
        fz[fresh] = fn.take(accepted)
        step[fresh] = np.minimum(2.0 * a.take(accepted), 1e3)
        search = search.take(rejected)
        alpha[search] = a.take(rejected) * 0.5
        tried = halvings.take(search) + 1
        halvings[search] = tried
        search = search[tried < _MAX_HALVINGS]


def _multistart(regions: Sequence[tuple[object, Box]], starts: int,
                seed: int, descend):
    """The multi-start driver of the four searches: draws ``starts``
    starts from ``regions``, (key, box) pairs, each start's region, then
    its point, in that order of the random stream.  The starts of each
    key, keys in first-occurrence order, go to ``descend(key, lo, hi,
    z0)`` as the rows of one batch, with their regions' bounds in ``lo``
    and ``hi``; it returns the end points, the values and the indices of
    the rows that gave a result.  Returns the (value, key, point) of those
    starts by value, then by start index."""
    rng = np.random.default_rng(seed)
    picks = []
    for _ in range(starts):
        key, box = regions[int(rng.integers(len(regions)))]
        picks.append((key, box, box.sample(rng)))
    groups: dict = {}
    for i, (key, _, _) in enumerate(picks):
        groups.setdefault(key, []).append(i)
    results = [None] * starts
    with np.errstate(all="ignore"):
        for key, rows in groups.items():
            lo = np.array([picks[r][1].lo for r in rows])
            hi = np.array([picks[r][1].hi for r in rows])
            z, values, done = descend(key, lo, hi,
                                      np.array([picks[r][2] for r in rows]))
            for i, point, value in zip(done, z, values):
                results[rows[i]] = (float(value), key, point)
    # a stable sort keeps equal values in start order
    return sorted((res for res in results if res is not None),
                  key=lambda res: res[0])


def _min_sign(cert: Certificate, regions, sign: float, starts: int,
              seed: int, kind: str) -> list[Hit]:
    def descend(mode, lo, hi, z0):
        mc = cert[mode]
        z, values = minimize_box(lambda z, _: sign * mc.value(z),
                                 lambda z, _: sign * mc.grad(z), lo, hi, z0,
                                 goal=-_EPS_CE)
        return z, values, range(len(z))

    return [Hit(value, kind, mode, x)
            for value, mode, x in _multistart(regions, starts, seed, descend)]


def min_initial(prob: Problem, cert: Certificate, starts: int = 16,
                seed: int = 0) -> list[Hit]:
    """Minimize -V over the initial boxes; returns every start's ``Hit``,
    least first."""
    return _min_sign(cert, prob.initial, -1.0, starts, seed, "initial")


def min_unsafe(prob: Problem, cert: Certificate, starts: int = 16,
               seed: int = 0) -> list[Hit]:
    """Minimize V over the unsafe boxes; returns every start's ``Hit``,
    least first."""
    return _min_sign(cert, prob.unsafe, 1.0, starts, seed, "unsafe")


def _drift_objective(prob: Problem, mode: int, mc: ModeCertificate):
    """The normalized drift -(grad V / |grad V|) . (f / |f|) of mode
    ``mode`` under ``mc``, and its tangent gradient in (x, d): the x
    columns lose their component along grad V, which leaves the steepest
    descent within the level set.  A vanishing norm is undefined too.
    ``value`` keeps each row's grad V, flow, norms and flat mask, sized by
    its largest call, for ``gradient`` to reuse, as ``minimize_box``
    allows; ``gradient`` adds only the Hessian and flow Jacobian terms."""
    n, flow = prob.dim, prob.modes[mode].flow_rows
    kept = []        # grad V, flow, norms and flat mask, row by row

    def value(z, rows):
        gv, fv = mc.grad(z[:, :n]), flow(z)
        ng, nf = np.sqrt(_dot(gv, gv)), np.sqrt(_dot(fv, fv))
        flat = (~(np.isfinite(ng) & np.isfinite(nf))
                | (ng < _NORM_FLOOR) | (nf < _NORM_FLOOR))
        parts = (gv, fv, ng, nf, flat)
        if not kept or len(rows) > len(kept[0]):
            kept[:] = map(np.empty_like, parts)
        for into, part in zip(kept, parts):
            into[rows] = part
        out = -_dot(gv, fv) / (ng * nf)
        out[flat] = math.inf
        return out

    def gradient(z, rows):
        gv, fv, ng, nf, flat = (part.take(rows, 0) for part in kept)
        u = gv / ng[:, None]
        w = fv / nf[:, None]
        uw = _dot(u, w)[:, None]         # w . u rounds the same: same products
        pu_w = w - u * uw
        pw_u = u - w * uw
        jac = prob.flow_jacobians[mode](z).transpose(0, 2, 1)
        out = -(_matvec(mc.hess(z[:, :n]), pu_w) / ng[:, None]
                + _matvec(jac[:, :n], pw_u) / nf[:, None])
        out -= u * _dot(out, u)[:, None]
        if prob.n_dist:
            out = np.concatenate(
                [out, -(_matvec(jac[:, n:], pw_u) / nf[:, None])], axis=1)
        out[flat] = 0.0
        return out

    return value, gradient


def _retraction(prob: Problem, mc: ModeCertificate, lo: np.ndarray,
                hi: np.ndarray, band: float) -> Projection:
    """The drift search's projection: clip the (x, d) points to the box,
    then up to ``_RETRACTION_STEPS`` Newton steps along grad V towards
    |V| <= band; a point that does not land is nan, so its step halves."""
    n = prob.dim

    def project(z, rows):
        z = z.clip(lo, hi)
        z[:, :n], landed, _ = model.land_on_level_set(
            mc.value_grad, z[:, :n], lo[:n], hi[:n], band, _RETRACTION_STEPS)
        z[~landed] = math.nan
        return z

    return project


def min_transversality(prob: Problem, cert: Certificate, starts: int = 16,
                       seed: int = 0) -> list[Hit]:
    """Minimize the normalized drift over the certificate's zero level set
    and the disturbance box; returns the ``Hit`` of every landed start,
    least first.  Each start is drawn from its mode's box of (state,
    disturbance) points and landed on the band |V| <= band by Newton steps
    along grad V.  The landed starts descend along the tangent gradient
    with ``_retraction`` as the projection, so every accepted point stays
    in the band and the box (Nocedal & Wright, *Numerical Optimization*,
    ch. 17-18, on gradient projection and feasible descent)."""
    band = _LEVEL_BAND * (1.0 + float(np.linalg.norm(cert.p)))
    n = prob.dim

    def descend(mode, lo, hi, z):
        lo, hi = lo[0], hi[0]            # one box per mode
        mc = cert[mode]
        # patient: a start that stops landing is a start lost to the search
        z[:, :n], landed, _ = model.land_on_level_set(
            mc.value_grad, z[:, :n], lo[:n], hi[:n], band,
            model.LANDING_STEPS, patient=True)
        rows = landed.nonzero()[0]
        if not rows.size:
            return z, (), rows
        z, values = minimize_box(*_drift_objective(prob, mode, mc), lo, hi,
                                 z[rows],
                                 project=_retraction(prob, mc, lo, hi, band),
                                 goal=-_EPS_CE)
        return z, values, rows

    return [Hit(value, "transversality", mode, z[:n], z[n:])
            for value, mode, z in _multistart(list(enumerate(prob.flow_boxes)),
                                              starts, seed, descend)]


def _reset_objective(rule: model.ResetRule, cert: Certificate):
    """max(V_source(x), -V_target(r(x))) and its gradient over the rows
    of a batch; both ignore the rows they are handed."""
    source, target = cert[rule.source], cert[rule.target]

    def parts(x):
        rx = rule.map_rows(x)
        v_s, v_t = source.value(x), -target.value(rx)
        defined = np.isfinite(rx).all(1) & np.isfinite(v_s) & np.isfinite(v_t)
        return rx, v_s, v_t, ~defined

    def value(x, _):
        _, v_s, v_t, undefined = parts(x)
        out = np.where(v_t > v_s, v_t, v_s)  # max(v_s, v_t) as Python's max
        out[undefined] = math.inf
        return out

    def gradient(x, _):
        rx, v_s, v_t, undefined = parts(x)
        out = source.grad(x)
        back = ~(v_s >= v_t) & ~undefined
        if back.any():
            j = rule.map_jacobian(x[back]).transpose(0, 2, 1)
            out[back] = -_matvec(j, target.grad(rx[back]))
        out[undefined] = 0.0
        return out

    return value, gradient


def min_reset(prob: Problem, cert: Certificate, starts: int = 16,
              seed: int = 0) -> list[Hit]:
    """Minimize max(V(x), -V(r(x))) over guard boxes; returns every start's
    ``Hit``, least first, and none without resets."""
    if not prob.resets:
        return []

    def descend(idx, lo, hi, z0):
        z, values = minimize_box(*_reset_objective(prob.resets[idx], cert),
                                 lo, hi, z0, goal=-_EPS_CE)
        return z, values, range(len(z))

    return [Hit(value, "reset", prob.resets[idx].source, x, None,
                prob.resets[idx])
            for value, idx, x in _multistart(
                [(i, rule.guard) for i, rule in enumerate(prob.resets)],
                starts, seed, descend)]


def segment_margin(prob: Problem, cert: Certificate, seg: Segment) -> float:
    """Worst normalized margin of the candidate on the rows of one segment."""
    rows = chebyshev.build([seg], cert.template, prob)
    return chebyshev.margin(rows, cert.p)


def refute(prob: Problem, cert: Certificate, hits: Sequence[Hit], *,
           bloat_factor: float, t_max: float) -> Refutation:
    """Extend each counter-example ``Hit`` of ``hits``, worst first, to a
    segment and keep those that refute the candidate: the one path from
    points to segments, for the falsifier's hits and the verifier's
    witness alike.  Initial points ride forward, unsafe points backward,
    drift points both ways; a reset point rides backward in its source
    mode and forward from its image in the target mode.  The forward rides
    are one ``sim.omega`` batch and the backward ones one ``sim.alpha``
    batch, each row ending where a ride of its own ends.  The first
    segment must have a ``segment_margin`` <= 0, or RefutationError is
    raised; any other that does not refute is dropped and counted."""
    t0 = time.perf_counter()
    ride = dict(bloat_factor=bloat_factor, t_max=t_max)
    forward, backward = [], []
    for h in hits:
        if h.kind == "reset":
            forward.append((h.rule.target,
                            h.rule.map_rows(np.array([h.x], dtype=float))[0]))
        elif h.kind != "unsafe":
            forward.append((h.mode, h.x))
        if h.kind != "initial":
            backward.append((h.mode, h.x))
    ends = iter(sim.omega(prob, cert, forward, **ride) if forward else ())
    begins = iter(sim.alpha(prob, cert, backward, **ride) if backward else ())
    at = lambda h: (h.mode, tuple(map(float, h.x)))
    segs = [Segment(*(at(h) if h.kind == "initial" else next(begins)),
                    *(at(h) if h.kind == "unsafe" else next(ends)))
            for h in hits]
    margins = [segment_margin(prob, cert, seg) for seg in segs]
    worst = hits[0]
    if margins[0] > 0.0:
        raise RefutationError(
            f"{worst.kind} counter-example at "
            f"{tuple(np.asarray(worst.x).tolist())} in mode {worst.mode} "
            f"produced a segment with margin {margins[0]:.3e} > 0; "
            "event localization or level-set landing is off")
    extras = [seg for seg, m in zip(segs[1:], margins[1:]) if m <= 0.0]
    return Refutation(worst, segs[0], margins[0], extras,
                      len(segs) - 1 - len(extras),
                      sim_time=time.perf_counter() - t0)


def _near(hit: Hit, taken: Hit) -> bool:
    """Whether ``hit`` is of the kind and mode of ``taken`` and within
    ``_DISTINCT`` of it, relative to its own size, in the max norm."""
    return (hit.kind == taken.kind and hit.mode == taken.mode
            and np.abs(hit.x - taken.x).max()
            <= _DISTINCT * (1.0 + np.abs(hit.x).max()))


def find_counterexample(prob: Problem, cert: Certificate, *, starts: int = 16,
                        seed: int = 0, bloat_factor: float = 1.1,
                        t_max: float = 100.0) -> Refutation | None:
    """Run the four searches from ``starts`` starts each and ``refute`` the
    candidate with the worst hit and, least first, up to ``_EXTRAS``
    others, each not ``_near`` one already taken; None when every minimum
    is >= -_EPS_CE.  Several counter-examples per round are common in
    counter-example-guided synthesis (Abate et al., *FOSSIL*, HSCC 2021;
    Ravanbakhsh & Sankaranarayanan, Autonomous Robots, 2019)."""
    rng = np.random.default_rng(seed)
    seeds = [int(rng.integers(2 ** 63)) for _ in range(4)]

    hits = [*min_initial(prob, cert, starts, seeds[0]),
            *min_unsafe(prob, cert, starts, seeds[1]),
            *min_transversality(prob, cert, starts, seeds[2]),
            *min_reset(prob, cert, starts, seeds[3])]

    # a stable sort: ties keep the order of KINDS, then of the starts
    hits = sorted((h for h in hits if h.value < -_EPS_CE),
                  key=lambda h: h.value)
    if not hits:
        return None
    taken = hits[:1]
    for hit in hits[1:]:
        if len(taken) > _EXTRAS:
            break
        if not any(_near(hit, t) for t in taken):
            taken.append(hit)

    return refute(prob, cert, taken, bloat_factor=bloat_factor, t_max=t_max)
