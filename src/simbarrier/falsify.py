"""Counter-example point search and segment construction.

Four objectives are minimized by multi-start projected gradient descent
with analytic gradients: certificate sign on the initial boxes, on the
unsafe boxes, the normalized drift on the certificate's zero level set,
and the reset condition on guard boxes.  A negative minimum yields a
counter-example point, which is extended to a simulation segment through
the forward/backward drift rides; the segment is checked to actually
refute the candidate before it is returned.

The searches evaluate the certificate through code generated once per
search (``model.compile_certificate``) and the flow and its Jacobians
through ``expr.compile_vector``.  Both are bit-identical to the reference
evaluators they replace, so every start, trajectory and counter-example
is the same as with ``model.template_*`` and ``expr.compile_expr``.
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

_PENALTIES = (1e2, 1e3, 1e4, 1e5, 1e6)
_LEVEL_BAND = 1e-6
_NORM_FLOOR = 1e-12


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
    search_time: float = 0.0
    sim_time: float = 0.0


def minimize_box(f: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray],
                 lo: np.ndarray, hi: np.ndarray, z0: np.ndarray,
                 max_iters: int = 200, tol: float = 1e-8) -> tuple[np.ndarray, float]:
    """Projected gradient descent with Armijo backtracking on a box.

    Monotone by construction: every accepted step decreases f.
    """
    z = np.clip(z0, lo, hi)
    fz = f(z)
    step = 1.0
    for _ in range(max_iters):
        g = grad(z)
        if not np.isfinite(g).all():
            break
        v = z - (z - g).clip(lo, hi)
        if math.sqrt(v.dot(v)) <= tol:
            break
        alpha = step
        accepted = False
        for _ in range(60):
            zn = (z - alpha * g).clip(lo, hi)
            dz = zn - z
            if not dz.any():
                break
            fn = f(zn)
            if math.isfinite(fn) and fn <= fz + 1e-4 * float(g @ dz):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        z, fz = zn, fn
        step = min(2.0 * alpha, 1e3)
    return z, fz


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
    """Compiled Jacobian of ``fs`` in the variables ``cols``:
    f(values) -> array of shape (len(fs), len(cols))."""
    fn = ex.compile_vector([ex.differentiate(f, j) for f in fs for j in cols])
    shape = (len(fs), len(cols))
    return lambda vals: np.array(fn(vals)).reshape(shape)


def _min_sign(prob, tmpl, p, regions, sign, starts, seed, cfg):
    cfg = cfg or FalsifyConfig()
    rng = np.random.default_rng(seed)
    cert = _certificates(tmpl, p)
    results = []
    for _ in range(starts):
        mode, box = _pick_region(regions, rng)
        lo = np.asarray(box.lo)
        hi = np.asarray(box.hi)
        value, grad, _ = cert(mode)
        f = lambda x, _v=value: sign * _v(x)
        g = lambda x, _g=grad: sign * _g(x)
        x, fx = minimize_box(f, g, lo, hi, box.sample(rng),
                             cfg.max_iters, cfg.grad_tol)
        results.append((fx, mode, x))
    fx, mode, x = _best(results)
    return (mode, x), fx


class _ModeGeometry:
    """Compiled certificate, flow and flow Jacobians for one mode.

    The flow pieces take the state values followed by the disturbance
    values (``list(x) + list(d)``).
    """

    def __init__(self, prob: Problem, cert, mode: int):
        self.n = prob.dim
        self.l = prob.n_dist
        mdef = prob.modes[mode]
        self.value, self.grad_v, self.hess_v = cert(mode)
        self.flow = sim.compile_flow(mdef, self.n + self.l)
        self.jac_x = _jacobian(mdef.flow, range(self.n))
        self.jac_d = _jacobian(mdef.flow, range(self.n, self.n + self.l))


def _drift_objective(geo: _ModeGeometry):
    """Normalized drift -(grad V / |grad V|) . (f / |f|) and its gradient
    in (x, d); points with a vanishing factor are treated as +inf."""
    n = geo.n

    def value(z):
        x, d = z[:n], z[n:]
        gv = geo.grad_v(x)
        try:
            fv = np.array(geo.flow(list(x) + list(d)))
        except (ValueError, ZeroDivisionError, OverflowError):
            return math.inf  # flow undefined here
        ng, nf = math.sqrt(gv.dot(gv)), math.sqrt(fv.dot(fv))
        if ng < _NORM_FLOOR or nf < _NORM_FLOOR:
            return math.inf
        return -float(gv @ fv) / (ng * nf)

    def gradient(z):
        x, d = z[:n], z[n:]
        gv = geo.grad_v(x)
        vals = list(x) + list(d)
        try:
            fv = np.array(geo.flow(vals))
        except (ValueError, ZeroDivisionError, OverflowError):
            return np.zeros_like(z)
        ng, nf = math.sqrt(gv.dot(gv)), math.sqrt(fv.dot(fv))
        if ng < _NORM_FLOOR or nf < _NORM_FLOOR:
            return np.zeros_like(z)
        u = gv / ng
        w = fv / nf
        pu_w = w - u * float(u @ w)
        pw_u = u - w * float(w @ u)
        gx = -(geo.hess_v(x) @ pu_w / ng + geo.jac_x(vals).T @ pw_u / nf)
        if geo.l:
            gd = -(geo.jac_d(vals).T @ pw_u / nf)
            return np.concatenate([gx, gd])
        return gx

    return value, gradient


def _land_on_level_set(geo: _ModeGeometry, x: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray,
                       band: float, max_steps: int = 25) -> np.ndarray | None:
    """Newton steps along grad V to |V| <= band, staying in the box."""
    for _ in range(max_steps):
        v = geo.value(x)
        if abs(v) <= band:
            return x
        g = geo.grad_v(x)
        n2 = float(g @ g)
        if n2 < _NORM_FLOOR:
            return None
        x = np.clip(x - (v / n2) * g, lo, hi)
    return x if abs(geo.value(x)) <= band else None


def min_transversality(prob: Problem, tmpl: Template, p: np.ndarray,
                       starts: int = 16, seed: int = 0,
                       cfg: FalsifyConfig | None = None):
    """Minimize the normalized drift over the certificate's zero level set
    and the disturbance box.

    Returns ((mode, x), d, value); value is +inf when no start reaches the
    level set (no zero-level point found).
    """
    cfg = cfg or FalsifyConfig()
    rng = np.random.default_rng(seed)
    band = _LEVEL_BAND * (1.0 + float(np.linalg.norm(p)))
    cert = _certificates(tmpl, p)
    geos = {}
    results = []
    for _ in range(starts):
        mode = int(rng.integers(len(prob.modes)))
        if mode not in geos:
            geos[mode] = _ModeGeometry(prob, cert, mode)
        geo = geos[mode]
        omega = prob.modes[mode].omega
        lo_x = np.asarray(omega.lo)
        hi_x = np.asarray(omega.hi)
        if prob.dist_box is not None:
            lo = np.concatenate([lo_x, prob.dist_box.lo])
            hi = np.concatenate([hi_x, prob.dist_box.hi])
            z0 = np.concatenate([omega.sample(rng), prob.dist_box.sample(rng)])
        else:
            lo, hi = lo_x, hi_x
            z0 = omega.sample(rng)
        fval, fgrad = _drift_objective(geo)
        z = z0
        for mu in _PENALTIES:
            pen = lambda w, _mu=mu: fval(w) + _mu * geo.value(w[:geo.n]) ** 2
            peng = lambda w, _mu=mu: _penalty_grad(geo, fgrad, w, _mu)
            z, _ = minimize_box(pen, peng, lo, hi, z,
                                cfg.max_iters, cfg.grad_tol)
        x = _land_on_level_set(geo, z[:geo.n], lo_x, hi_x, band)
        if x is None:
            continue
        d = z[geo.n:]
        z_final = np.concatenate([x, d]) if geo.l else x
        results.append((fval(z_final), mode, x, d))
    if not results:
        return None, None, math.inf
    value, mode, x, d = _best(results)
    return (mode, x), d, value


def _penalty_grad(geo: _ModeGeometry, fgrad, z, mu):
    g = fgrad(z).copy()
    x = z[:geo.n]
    g[:geo.n] += 2.0 * mu * geo.value(x) * geo.grad_v(x)
    return g


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
    jac_cache = {}
    results = []
    for _ in range(starts):
        idx = int(rng.integers(len(prob.resets)))
        rule = prob.resets[idx]
        if idx not in jac_cache:
            jac_cache[idx] = _jacobian(rule.fwd, range(prob.dim))
        source, target = cert(rule.source), cert(rule.target)

        def f(x, _r=rule, _s=source, _t=target):
            try:
                rx = np.array([ex.evaluate(m, x) for m in _r.fwd])
            except ex.DomainError:
                return math.inf
            return max(_s[0](x), -_t[0](rx))

        def g(x, _r=rule, _j=jac_cache[idx], _s=source, _t=target):
            try:
                rx = np.array([ex.evaluate(m, x) for m in _r.fwd])
            except ex.DomainError:
                return np.zeros(len(x))
            if _s[0](x) >= -_t[0](rx):
                return _s[1](x)
            return -(_j(list(x)).T @ _t[1](rx))

        lo = np.asarray(rule.guard.lo)
        hi = np.asarray(rule.guard.hi)
        x, fx = minimize_box(f, g, lo, hi, rule.guard.sample(rng),
                             cfg.max_iters, cfg.grad_tol)
        results.append((fx, idx, x))
    fx, idx, x = _best(results)
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
        rx = [ex.evaluate(f, x) for f in rule.fwd]
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
                        search_time, sim_time)
