"""Counter-example point search and segment construction.

Four objectives are minimized by multi-start projected gradient descent
with analytic gradients: certificate sign on the initial boxes, on the
unsafe boxes, the normalized drift on the certificate's zero level set,
and the reset condition on guard boxes.  Each search returns a ``Hit`` for
every start that ended somewhere, least value first.  A hit below
-``_EPS_CE`` is a counter-example point, and ``refute`` is the one path
from such points to simulation segments, for the falsifier's hits and the
verifier's witness alike: it extends each point through the
forward/backward drift rides, one ``sim.omega`` and one ``sim.alpha``
batch for all of them, and checks that each segment refutes the
candidate.  The first hit's segment must refute; any other segment that
does not refute is dropped and counted.

``find_counterexample`` hands ``refute`` the worst hit and, least value
first, up to ``_EXTRAS`` other hits, skipping a point within
``_DISTINCT`` (relative, max norm) of one already taken in its search and
mode.  Each row of a ride batch ends where a ride of its own would end,
so the worst segment is the one a round of one segment builds.  Adding
several counter-examples per round is common in counter-example-guided
certificate synthesis (Abate et al., *FOSSIL*, HSCC 2021; Ravanbakhsh &
Sankaranarayanan, Autonomous Robots, 2019).

The three box searches project onto their boxes.  The drift search keeps
its points on the level set itself: each start is landed on the band
|V| <= band by Newton steps along grad V, each step goes along the
drift's tangent gradient (its component along grad V removed), and each
trial point is retracted to the box and back onto the band by a few
Newton steps.  A trial that does not reach the band is rejected, so the
line search halves the step.  See Nocedal & Wright, *Numerical
Optimization*, ch. 17-18, on gradient projection and feasible descent.

The four searches are four objectives over one multi-start driver,
``_multistart``, and their starts run in lockstep.  The driver draws
every start's region (an initial or unsafe box, a mode's box of (state,
disturbance) points, a guard) and its point, in the order of the random
stream, hands the starts of each key (one mode or one rule) to the
search's descent as the rows of one array, and reduces the results in
start order.  ``minimize_box`` advances each row by exactly the rules of
a single descent and evaluates only the rows that start an iteration or
try a step, so every start ends where a run of its own would end.

A search only has to tell whether a start gets below -``_EPS_CE``, so
each search hands ``minimize_box`` that goal, and a row stops once its
pace says that going on would not change the answer.  Every ``_WINDOW``
iterations, a row whose gain over the last window is no larger than over
the window before stops when, at that gain, the iterations left would
not take it below the goal, or, once it is below the goal, would take it
further down by at most ``_DEPTH`` of its depth there.  The rule is per
row, so a start still ends where a run of its own would end.  Like the
search itself it is a heuristic, whose misses the rigorous verifier
catches: a row whose gain dips and then recovers slowly can stop above a
goal it would have reached, or below the goal short of a much deeper
end.  Above the goal, the rule stops starts that have settled: without
it, a search that finds nothing runs most of its starts to the
iteration cap (on scalable-l4, 10 of the 16 drift starts, each within
1e-6 of its end value by iteration 37).  Below it, the rule stops hits
that creep: any point below the goal refutes, yet on pendulum (seed 0)
the first round's drift search took 124 gradient batches, ~40 of them
with 7 rows creeping at -0.5257.  With the rule it takes 55, and the
run's drift searches take 364 lockstep batches (``f`` and ``grad``
calls) instead of 552.  On the bundled problems (seeds 0-7) it keeps
every round count, while a hit stops a little less deep: of the 2,237
rows that end below the goal, none by more than 1.0e-4 of its depth.

The objectives are batched: one code generator, ``expr.compile_batch``,
evaluates the certificate, its gradient and its Hessian (the candidate's
``model.Certificate``, which the caller builds once per candidate), and
the flows, the reset maps and their Jacobians, which the problem owns
(``ModeDef.flow_rows``, ``Problem.flow_jacobians``,
``ResetRule.map_rows``, ``ResetRule.map_jacobian``), column by column
over the rows.  The batched code performs the float operations of the
scalar reference (the monomial loops of ``model`` and
``expr.compile_vector``), so the results are bit-identical wherever the
reference is finite:
- elementwise numpy arithmetic rounds as Python floats do;
- ``**`` and the ``math`` functions run entry by entry on Python floats,
  because numpy's vector power, exp and log round differently from libm;
- every dot product and matrix-vector product is a stacked ``np.matmul``
  (``_dot``, ``_matvec``), which calls per row the BLAS kernel that
  ``ndarray.dot`` and 2-D ``@`` call, whereas ``(a * b).sum(1)`` and
  ``einsum`` round differently.
A batch never raises: a row outside the domain of a division, ln or sqrt,
or where a power or exp overflows, is a row of nan.  So every objective
has one rule for points where it is undefined: a row where the flow, the
reset map or the certificate is not finite has the value +inf and a zero
gradient.
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


class RefutationError(RuntimeError):
    """A constructed segment failed to refute the candidate it came from.

    Indicates an event-localization or level-set landing fault; the caller
    should abort rather than loop on a non-progressing constraint system.
    """


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


Batch = Callable[[np.ndarray], np.ndarray]


Projection = Callable[[np.ndarray, np.ndarray], np.ndarray]


def minimize_box(f: Batch, grad: Batch, lo: np.ndarray, hi: np.ndarray,
                 z0: np.ndarray, max_iters: int = 200, tol: float = 1e-8,
                 project: Projection | None = None, goal: float | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent with Armijo backtracking, from the k
    starts in the rows of ``z0`` at once.

    ``f`` maps (j, n) points to their (j,) values and ``grad`` to their
    (j, n) gradients.  ``project(points, rows)`` maps the (j, n) points of
    the rows ``rows`` (indices into ``z0``) into the feasible set and
    returns them as a new array; by default it clips them to the box
    ``lo``, ``hi`` of shape (n,) or (k, n).  A point it maps to a
    non-finite row is infeasible.  Each row is an independent descent:
    the start is projected, a step ``z - alpha * g`` is projected and
    accepted when its value is finite and ``fn <= fz + 1e-4 * g.dz``, it
    is halved up to 60 times per iteration, and the next iteration starts
    from ``min(2 * alpha, 1e3)``, so the values of a row never increase.
    A row stops on a non-finite gradient, a projected gradient
    ``z - clip(z - g)`` of norm <= tol (clipped to the row's box, also
    where ``project`` does more: the drift search's retraction would cost
    Newton steps on every row that starts an iteration), a trial step that
    does not move, a line search without an accepted step, or after
    max_iters iterations.  With a ``goal``, a row also stops when, after a
    multiple of ``_WINDOW`` iterations, its pace says that going on would
    not change the answer: its gain over the last window is no larger
    than its gain over the window before, and the gain that pace projects,
    ``ahead = gain * (iterations left) / _WINDOW``, either cannot take it
    to the goal (``fz - ahead > goal``) or, with the row below the goal,
    is at most ``_DEPTH * (goal - fz)``.  The first condition keeps a row
    that is speeding up: lorenz has drift rows that gain 1.4e-4 in their
    first window (0.51661 -> 0.51647) and fall to -0.0928 by iteration
    30, and extrapolating one window alone would stop them.  The last
    stops a hit that creeps towards a minimum that a counter-example does
    not need: pendulum's first drift search (seed 0) ran 7 rows at
    -0.5257 for ~40 of its 124 gradient batches, and takes 55 with it.
    Each round evaluates ``grad`` on the rows that start an iteration and
    ``f`` on the rows that try a step, and no other row.

    Returns the (k, n) end points and their (k,) values.
    """
    lo, hi = (np.broadcast_to(b, np.shape(z0)) for b in (lo, hi))
    if project is None:
        project = lambda z, rows: z.clip(lo.take(rows, 0), hi.take(rows, 0))
    z = project(np.asarray(z0, dtype=float), np.arange(len(z0)))
    fz = np.array(f(z), dtype=float)
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
                stop = due.copy()
                ahead = gain * left / _WINDOW  # the gain its pace projects
                stop[due] = ((gain <= gained.take(rows))
                             & ((fr - ahead > goal)
                                | (ahead <= _DEPTH * (goal - fr))))
                mark[rows], gained[rows] = fr, gain
                fresh = fresh[~stop]
        if fresh.size:
            iters[fresh] += 1
            zf = z.take(fresh, 0)
            gf = grad(zf)
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
        fn = f(zn)
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
    """The multi-start driver of the four searches.

    Draws ``starts`` starts from ``regions``, a list of (key, box) pairs:
    each start's region (``rng.integers(len(regions))``), then its point
    (``box.sample``).  The starts of each key, keys in first-occurrence
    order, go to ``descend(key, lo, hi, z0)`` as the rows of one batch,
    with the bounds of their regions in the rows of ``lo`` and ``hi``; it
    returns the end points and values of the rows that gave a result, and
    the indices of those rows.  Returns the (value, key, point) of every
    start that gave a result, sorted by value, then by start index, so the
    first is the least value, the first start among equals.
    """
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
        z, values = minimize_box(lambda z: sign * mc.value(z),
                                 lambda z: sign * mc.grad(z), lo, hi, z0,
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
    """Normalized drift -(grad V / |grad V|) . (f / |f|) of mode ``mode``
    with its certificate ``mc``, and its tangent gradient in (x, d), over
    the rows of a batch: the gradient with its component along grad V
    removed from the x columns, which is the steepest descent direction
    within the level set of V through the point.  Points where the norm of
    grad V or of the flow is not finite or vanishes are treated as +inf,
    with a zero gradient."""
    n, flow = prob.dim, prob.modes[mode].flow_rows

    def parts(z):
        x = z[:, :n]
        gv, fv = mc.grad(x), flow(z)
        ng, nf = np.sqrt(_dot(gv, gv)), np.sqrt(_dot(fv, fv))
        flat = (~(np.isfinite(ng) & np.isfinite(nf))
                | (ng < _NORM_FLOOR) | (nf < _NORM_FLOOR))
        return x, gv, fv, ng, nf, flat

    def value(z):
        x, gv, fv, ng, nf, flat = parts(z)
        out = -_dot(gv, fv) / (ng * nf)
        out[flat] = math.inf
        return out

    def gradient(z):
        x, gv, fv, ng, nf, flat = parts(z)
        u = gv / ng[:, None]
        w = fv / nf[:, None]
        uw = _dot(u, w)[:, None]         # w . u rounds the same: same products
        pu_w = w - u * uw
        pw_u = u - w * uw
        jac = prob.flow_jacobians[mode](z).transpose(0, 2, 1)
        out = -(_matvec(mc.hess(x), pu_w) / ng[:, None]
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
    """The projection of the drift search: clip the (x, d) points to the
    box, then take up to ``_RETRACTION_STEPS`` Newton steps along grad V
    towards |V| <= band; a point that does not reach the band becomes a
    row of nan, which ``minimize_box`` rejects."""
    n = prob.dim

    def project(z, rows):
        z = z.clip(lo, hi)
        z[:, :n], landed = model.land_on_level_set(
            mc.value, mc.grad, z[:, :n], lo[:n], hi[:n], band,
            _RETRACTION_STEPS)
        z[~landed] = math.nan
        return z

    return project


def min_transversality(prob: Problem, cert: Certificate, starts: int = 16,
                       seed: int = 0) -> list[Hit]:
    """Minimize the normalized drift over the certificate's zero level set
    and the disturbance box.

    Each start is drawn from its mode's box of (state, disturbance)
    points and landed on the band |V| <= band by Newton steps along
    grad V; a start that does not land gives no result.  The landed
    starts of one mode then descend together in ``minimize_box`` along
    the drift's tangent gradient, with ``_retraction`` as the projection,
    so every accepted point stays in the band, in omega and in the
    disturbance box.

    Returns the ``Hit`` of every landed start, least first: none when no
    start reaches the level set.
    """
    band = _LEVEL_BAND * (1.0 + float(np.linalg.norm(cert.p)))
    n = prob.dim

    def descend(mode, lo, hi, z):
        lo, hi = lo[0], hi[0]            # one box per mode
        mc = cert[mode]
        # patient: a start that stops landing is a start lost to the search
        z[:, :n], landed = model.land_on_level_set(
            mc.value, mc.grad, z[:, :n], lo[:n], hi[:n], band,
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
    """max(V_source(x), -V_target(r(x))) and its gradient over the rows of
    a batch; points where the map or a certificate value is not finite are
    treated as +inf, with a zero gradient."""
    source, target = cert[rule.source], cert[rule.target]

    def parts(x):
        rx = rule.map_rows(x)
        v_s, v_t = source.value(x), -target.value(rx)
        defined = np.isfinite(rx).all(1) & np.isfinite(v_s) & np.isfinite(v_t)
        return rx, v_s, v_t, ~defined

    def value(x):
        _, v_s, v_t, undefined = parts(x)
        out = np.where(v_t > v_s, v_t, v_s)  # max(v_s, v_t) as Python's max
        out[undefined] = math.inf
        return out

    def gradient(x):
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
    ``Hit``, least first, and none when the problem has no resets."""
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
    simulation segment and keep those that refute the candidate.

    Initial points ride forward, unsafe points backward, drift points both
    ways; a reset point rides backward in its source mode and forward from
    its image under its rule in the target mode.  The forward rides are
    one ``sim.omega`` batch and the backward rides one ``sim.alpha``
    batch; each row ends where a ride of its own ends.  The first hit's
    segment must have a ``segment_margin`` <= 0, or RefutationError is
    raised; any other segment that does not refute is dropped and counted.
    """
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
    candidate with the worst violation, or return None when every minimum
    is >= -_EPS_CE.

    The other starts' violations, least first, add up to ``_EXTRAS``
    extra hits: a hit near one already taken (``_near``) is skipped.
    """
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
