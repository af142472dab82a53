"""Counter-example point search and segment construction.

Four objectives are minimized by multi-start projected gradient descent
with analytic gradients: certificate sign on the initial boxes, on the
unsafe boxes, the normalized drift on the certificate's zero level set,
and the reset condition on guard boxes.  A negative minimum yields a
counter-example point, which is extended to a simulation segment through
the forward/backward drift rides; the segment is checked to actually
refute the candidate before it is returned.

The three box searches project onto their boxes.  The drift search keeps
its points on the level set itself: each start is landed on the band
|V| <= band by Newton steps along grad V, each step goes along the
drift's tangent gradient (its component along grad V removed), and each
trial point is retracted to the box and back onto the band by a few
Newton steps.  A trial that does not reach the band is rejected, so the
line search halves the step.  See Nocedal & Wright, *Numerical
Optimization*, ch. 17-18, on gradient projection and feasible descent.

The starts run in lockstep.  Each search first draws every start's mode,
region or reset rule and its starting point, in the order of the random
stream, then hands the starts of each group (one mode or one rule) to
``minimize_box`` as the rows of one array, and finally reduces the
results in start order.  ``minimize_box`` advances each row by exactly
the rules of a single descent and evaluates only the rows that start an
iteration or try a step, so every start ends where a run of its own
would end.

The objectives are batched: one code generator, ``expr.compile_batch``,
evaluates the certificate, its gradient and its Hessian (the expressions
of ``model.certificate_exprs``, compiled by ``model.compile_certificate``),
the flows, the reset maps and the Jacobians, column by column over the
rows.  The batched code performs the float operations of the scalar
reference (the monomial loops of ``model`` and ``expr.compile_vector``),
so the results are bit-identical wherever the reference is finite:
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

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import chebyshev, expr as ex, model, sim
from .model import Box, Problem, Segment, Template

_LEVEL_BAND = 1e-6
_RETRACTION_STEPS = 4
_NORM_FLOOR = 1e-12
_MAX_HALVINGS = 60


class RefutationError(RuntimeError):
    """A constructed segment failed to refute the candidate it came from.

    Indicates an event-localization or level-set landing fault; the caller
    should abort rather than loop on a non-progressing constraint system.
    """


@dataclass
class FalsifyConfig:
    starts: int = 16
    seed: int = 0
    eps_ce: float = 1e-9
    bloat_factor: float = 1.1
    t_max: float = 100.0
    rtol: float = sim.DEFAULT_RTOL
    atol: float = sim.DEFAULT_ATOL
    max_iters: int = 200
    grad_tol: float = 1e-8


@dataclass
class CtrxplResult:
    kind: str                     # initial | unsafe | transversality | reset
    mode: int
    x: np.ndarray
    d: np.ndarray | None
    value: float
    segment: Segment | None = None
    margin: float = 0.0           # the segment's margin under p, <= 0
    search_time: float = 0.0
    sim_time: float = 0.0


_dot = model.row_dot


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m[r] @ v[r]`` for each r of a (k, p, q) and a (k, q) array."""
    return (m @ v[:, :, None])[:, :, 0]


Batch = Callable[[np.ndarray], np.ndarray]


Projection = Callable[[np.ndarray, np.ndarray], np.ndarray]


def minimize_box(f: Batch, grad: Batch, lo: np.ndarray, hi: np.ndarray,
                 z0: np.ndarray, max_iters: int = 200, tol: float = 1e-8,
                 project: Projection | None = None
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
    ``z - project(z - g)`` of norm <= tol, a trial step that does not
    move, a line search without an accepted step, or after max_iters
    iterations.  Each round evaluates ``grad`` on the rows that start an
    iteration and ``f`` on the rows that try a step, and no other row.

    Returns the (k, n) end points and their (k,) values.
    """
    if project is None:
        if np.ndim(lo) == 2:
            project = lambda z, rows: z.clip(lo.take(rows, 0), hi.take(rows, 0))
        else:
            project = lambda z, rows: z.clip(lo, hi)
    z = project(np.asarray(z0, dtype=float), np.arange(len(z0)))
    fz = np.array(f(z), dtype=float)
    g = np.empty_like(z)
    step = np.ones(len(z))
    alpha = np.empty(len(z))
    iters = np.zeros(len(z), dtype=int)
    halvings = np.zeros(len(z), dtype=int)
    fresh = np.arange(len(z))            # rows that start an iteration
    search = fresh[:0]                   # rows in a line search
    while True:
        if fresh.size:
            fresh = fresh[iters.take(fresh) < max_iters]
        if fresh.size:
            iters[fresh] += 1
            zf = z.take(fresh, 0)
            gf = grad(zf)
            v = zf - project(zf - gf, fresh)
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


def _pick_region(regions: Sequence[tuple[int, Box]],
                 rng: np.random.Generator) -> tuple[int, Box]:
    return regions[int(rng.integers(len(regions)))]


def _best(candidates):
    """Deterministic min-reduction by (value, insertion order)."""
    best = None
    for cand in candidates:
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _groups(keys: Sequence) -> dict:
    """key -> indices of its occurrences, keys in first-occurrence order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def min_initial(prob: Problem, tmpl: Template, p: np.ndarray,
                starts: int = 16, seed: int = 0,
                cfg: FalsifyConfig | None = None):
    """Minimize -V over the initial boxes; returns ((mode, x), value)."""
    return _min_sign(prob, tmpl, p, prob.initial, -1.0, starts, seed, cfg)


def min_unsafe(prob: Problem, tmpl: Template, p: np.ndarray,
               starts: int = 16, seed: int = 0,
               cfg: FalsifyConfig | None = None):
    """Minimize V over the unsafe boxes; returns ((mode, x), value)."""
    return _min_sign(prob, tmpl, p, prob.unsafe, 1.0, starts, seed, cfg)


def _certificates(tmpl: Template, p: np.ndarray):
    """mode -> compiled (value, grad_x, hess_x), each built on first use."""
    return functools.cache(functools.partial(model.compile_certificate, tmpl, p))


def _jacobian(fs, cols: range):
    """Jacobian of ``fs`` in the variables ``cols`` over the rows of a
    batch, of shape (len(fs), len(cols)) per row."""
    batch = ex.compile_batch([ex.differentiate(f, j) for f in fs for j in cols])
    return lambda z: batch(z).reshape(len(z), len(fs), len(cols))


def _min_sign(prob, tmpl, p, regions, sign, starts, seed, cfg):
    cfg = cfg or FalsifyConfig()
    rng = np.random.default_rng(seed)
    cert = _certificates(tmpl, p)
    picks = []
    for _ in range(starts):
        mode, box = _pick_region(regions, rng)
        picks.append((mode, box, box.sample(rng)))
    x = np.empty((starts, prob.dim))
    fx = np.empty(starts)
    with np.errstate(all="ignore"):
        for mode, rows in _groups([mode for mode, _, _ in picks]).items():
            value, grad, _ = cert(mode)
            boxes = [picks[r][1] for r in rows]
            x[rows], fx[rows] = minimize_box(
                lambda z, _v=value: sign * _v(z),
                lambda z, _g=grad: sign * _g(z),
                np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes]),
                np.array([picks[r][2] for r in rows]),
                cfg.max_iters, cfg.grad_tol)
    fx, mode, x = _best((float(fx[r]), picks[r][0], x[r]) for r in range(starts))
    return (mode, x), fx


class _ModeGeometry:
    """Batched certificate, flow and flow Jacobians for one mode.

    The flow pieces take points whose columns are the state values
    followed by the disturbance values.
    """

    def __init__(self, prob: Problem, cert, mode: int):
        self.n = prob.dim
        self.l = prob.n_dist
        mdef = prob.modes[mode]
        self.value, self.grad_v, self.hess_v = cert(mode)
        self.flow = ex.compile_batch(mdef.flow)
        self.jac_x = _jacobian(mdef.flow, range(self.n))
        self.jac_d = _jacobian(mdef.flow, range(self.n, self.n + self.l))


def _drift_objective(geo: _ModeGeometry):
    """Normalized drift -(grad V / |grad V|) . (f / |f|) and its tangent
    gradient in (x, d), over the rows of a batch: the gradient with its
    component along grad V removed from the x columns, which is the
    steepest descent direction within the level set of V through the
    point.  Points where the norm of grad V or of the flow is not finite
    or vanishes are treated as +inf, with a zero gradient."""
    n = geo.n

    def parts(z):
        x = z[:, :n]
        gv, fv = geo.grad_v(x), geo.flow(z)
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
        if flat.all():
            out = np.zeros_like(z)
        else:
            u = gv / ng[:, None]
            w = fv / nf[:, None]
            uw = _dot(u, w)[:, None]     # w . u rounds the same: same products
            pu_w = w - u * uw
            pw_u = u - w * uw
            jac_x = geo.jac_x(z).transpose(0, 2, 1)
            out = -(_matvec(geo.hess_v(x), pu_w) / ng[:, None]
                    + _matvec(jac_x, pw_u) / nf[:, None])
            out -= u * _dot(out, u)[:, None]
            if geo.l:
                jac_d = geo.jac_d(z).transpose(0, 2, 1)
                out = np.concatenate(
                    [out, -(_matvec(jac_d, pw_u) / nf[:, None])], axis=1)
            out[flat] = 0.0
        return out

    return value, gradient


def _land(geo: _ModeGeometry, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
          band: float, max_steps: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """``model.land_on_level_set`` on the mode's certificate, with the
    search's gradient floor."""
    return model.land_on_level_set(geo.value, geo.grad_v, x, lo, hi, band,
                                   _NORM_FLOOR, max_steps)


def _retraction(geo: _ModeGeometry, lo: np.ndarray, hi: np.ndarray,
                band: float) -> Projection:
    """The projection of the drift search: clip the (x, d) points to the
    box, then take up to ``_RETRACTION_STEPS`` Newton steps along grad V
    towards |V| <= band; a point that does not reach the band becomes a
    row of nan, which ``minimize_box`` rejects."""
    n = geo.n

    def project(z, rows):
        z = z.clip(lo, hi)
        z[:, :n], landed = _land(geo, z[:, :n], lo[:n], hi[:n], band,
                                 _RETRACTION_STEPS)
        z[~landed] = math.nan
        return z

    return project


def min_transversality(prob: Problem, tmpl: Template, p: np.ndarray,
                       starts: int = 16, seed: int = 0,
                       cfg: FalsifyConfig | None = None):
    """Minimize the normalized drift over the certificate's zero level set
    and the disturbance box.

    Each start is drawn from omega (and the disturbance box) and landed on
    the band |V| <= band by Newton steps along grad V; a start that does
    not land gives no result.  The landed starts of one mode then descend
    together in ``minimize_box`` along the drift's tangent gradient, with
    ``_retraction`` as the projection, so every accepted point stays in the
    band, in omega and in the disturbance box.

    Returns ((mode, x), d, value); value is +inf when no start reaches the
    level set (no zero-level point found).
    """
    cfg = cfg or FalsifyConfig()
    rng = np.random.default_rng(seed)
    band = _LEVEL_BAND * (1.0 + float(np.linalg.norm(p)))
    cert = _certificates(tmpl, p)
    picks = []
    for _ in range(starts):
        mode = int(rng.integers(len(prob.modes)))
        z0 = prob.modes[mode].omega.sample(rng)
        if prob.dist_box is not None:
            z0 = np.concatenate([z0, prob.dist_box.sample(rng)])
        picks.append((mode, z0))
    results = [None] * starts
    with np.errstate(all="ignore"):
        for mode, rows in _groups([mode for mode, _ in picks]).items():
            geo = _ModeGeometry(prob, cert, mode)
            n = geo.n
            omega = prob.modes[mode].omega
            lo, hi = np.asarray(omega.lo), np.asarray(omega.hi)
            if prob.dist_box is not None:
                lo = np.concatenate([lo, prob.dist_box.lo])
                hi = np.concatenate([hi, prob.dist_box.hi])
            z = np.array([picks[r][1] for r in rows])
            z[:, :n], landed = _land(geo, z[:, :n], lo[:n], hi[:n], band)
            if not landed.any():
                continue
            z, values = minimize_box(*_drift_objective(geo), lo, hi, z[landed],
                                     cfg.max_iters, cfg.grad_tol,
                                     _retraction(geo, lo, hi, band))
            for r, value, point in zip(np.array(rows)[landed], values, z):
                results[r] = (float(value), mode, point[:n], point[n:])
    results = [res for res in results if res is not None]
    if not results:
        return None, None, math.inf
    value, mode, x, d = _best(results)
    return (mode, x), d, value


def _reset_objective(rule: model.ResetRule, cert, dim: int):
    """max(V_source(x), -V_target(r(x))) and its gradient over the rows of
    a batch; points where the map or a certificate value is not finite are
    treated as +inf, with a zero gradient."""
    fwd = ex.compile_batch(rule.fwd)
    jac = _jacobian(rule.fwd, range(dim))
    s_value, s_grad, _ = cert(rule.source)
    t_value, t_grad, _ = cert(rule.target)

    def parts(x):
        rx = fwd(x)
        v_s, v_t = s_value(x), -t_value(rx)
        defined = np.isfinite(rx).all(1) & np.isfinite(v_s) & np.isfinite(v_t)
        return rx, v_s, v_t, ~defined

    def value(x):
        _, v_s, v_t, undefined = parts(x)
        out = np.where(v_t > v_s, v_t, v_s)  # max(v_s, v_t) as Python's max
        out[undefined] = math.inf
        return out

    def gradient(x):
        rx, v_s, v_t, undefined = parts(x)
        out = s_grad(x)
        target = ~(v_s >= v_t) & ~undefined
        if target.any():
            j = jac(x[target]).transpose(0, 2, 1)
            out[target] = -_matvec(j, t_grad(rx[target]))
        out[undefined] = 0.0
        return out

    return value, gradient


def min_reset(prob: Problem, tmpl: Template, p: np.ndarray,
              starts: int = 16, seed: int = 0,
              cfg: FalsifyConfig | None = None):
    """Minimize max(V(x), -V(r(x))) over guard boxes.

    Returns ((rule_index, x), value); +inf when the problem has no resets.
    """
    cfg = cfg or FalsifyConfig()
    if not prob.resets:
        return None, math.inf
    rng = np.random.default_rng(seed)
    cert = _certificates(tmpl, p)
    picks = []
    for _ in range(starts):
        idx = int(rng.integers(len(prob.resets)))
        picks.append((idx, prob.resets[idx].guard.sample(rng)))
    x = np.empty((starts, prob.dim))
    fx = np.empty(starts)
    with np.errstate(all="ignore"):
        for idx, rows in _groups([idx for idx, _ in picks]).items():
            rule = prob.resets[idx]
            f, g = _reset_objective(rule, cert, prob.dim)
            x[rows], fx[rows] = minimize_box(
                f, g, np.asarray(rule.guard.lo), np.asarray(rule.guard.hi),
                np.array([picks[r][1] for r in rows]),
                cfg.max_iters, cfg.grad_tol)
    fx, idx, x = _best((float(fx[r]), picks[r][0], x[r]) for r in range(starts))
    return (idx, x), fx


def segment_margin(prob: Problem, tmpl: Template, p: np.ndarray,
                   seg: Segment) -> float:
    """Worst normalized margin of p on the rows of one segment."""
    rows = chebyshev.build([seg], tmpl, prob)
    return chebyshev.margin(rows, p)


KINDS = ("initial", "unsafe", "transversality", "reset")


def point_segment(prob: Problem, tmpl: Template, p: np.ndarray, kind: str,
                  mode: int, x, rule: model.ResetRule | None = None, *,
                  bloat_factor: float, t_max: float, rtol: float,
                  atol: float) -> Segment:
    """Extend a counter-example point of ``kind`` (one of ``KINDS``, the
    order of conditions 1-4) in ``mode`` to a simulation segment.

    Initial points ride forward, unsafe points backward, drift points both
    ways; a reset point rides backward in its source mode and forward from
    its image under ``rule`` in the target mode.
    """
    ride = dict(bloat_factor=bloat_factor, t_max=t_max, rtol=rtol, atol=atol)
    if kind == "initial":
        return Segment.classify(prob, mode, x,
                                *sim.omega(prob, tmpl, p, (mode, x), **ride))
    begin = sim.alpha(prob, tmpl, p, (mode, x), **ride)
    if kind == "unsafe":
        return Segment.classify(prob, *begin, mode, x)
    if kind == "reset":
        rx = ex.compile_batch(rule.fwd)(np.array([x], dtype=float))[0]
        end = sim.omega(prob, tmpl, p, (rule.target, rx), **ride)
    else:
        end = sim.omega(prob, tmpl, p, (mode, x), **ride)
    return Segment.classify(prob, *begin, *end)


def find_counterexample(prob: Problem, tmpl: Template, p: np.ndarray,
                        cfg: FalsifyConfig | None = None) -> CtrxplResult | None:
    """Run the four searches; construct and validate a refuting segment
    for the worst violation, or report none when all minima clear -eps."""
    cfg = cfg or FalsifyConfig()
    rng = np.random.default_rng(cfg.seed)
    seeds = [int(rng.integers(2 ** 63)) for _ in range(4)]

    t0 = time.perf_counter()
    (mi_pt, mi_val) = min_initial(prob, tmpl, p, cfg.starts, seeds[0], cfg)
    (mu_pt, mu_val) = min_unsafe(prob, tmpl, p, cfg.starts, seeds[1], cfg)
    nontrivial = any(any(any(e != 0 for e in m) for m in block)
                     for block in tmpl.monomials)
    if nontrivial:
        mt_pt, mt_d, mt_val = min_transversality(prob, tmpl, p, cfg.starts,
                                                 seeds[2], cfg)
    else:
        mt_pt, mt_d, mt_val = None, None, math.inf
    mr_pt, mr_val = min_reset(prob, tmpl, p, cfg.starts, seeds[3], cfg)
    search_time = time.perf_counter() - t0

    cases = [
        ("initial", mi_val, mi_pt, None),
        ("unsafe", mu_val, mu_pt, None),
        ("transversality", mt_val, mt_pt, mt_d),
        ("reset", mr_val, mr_pt, None),
    ]
    v = min(val for _, val, _, _ in cases)
    if v >= -cfg.eps_ce:
        return None
    for kind, value, payload, dist in cases:  # tie-break: declaration order
        if value == v:
            break

    t1 = time.perf_counter()
    if kind == "reset":
        rule = prob.resets[payload[0]]
        mode, x = rule.source, payload[1]
    else:
        rule = None
        mode, x = payload
    seg = point_segment(prob, tmpl, p, kind, mode, x, rule,
                        bloat_factor=cfg.bloat_factor, t_max=cfg.t_max,
                        rtol=cfg.rtol, atol=cfg.atol)
    sim_time = time.perf_counter() - t1

    new_margin = segment_margin(prob, tmpl, p, seg)
    if new_margin > 0.0:
        raise RefutationError(
            f"{kind} counter-example (value {value:.3e}) produced a segment "
            f"with margin {new_margin:.3e} > 0; event localization or "
            "level-set landing is off")

    return CtrxplResult(kind, mode, np.asarray(x), dist, value, seg,
                        margin=new_margin, search_time=search_time,
                        sim_time=sim_time)
