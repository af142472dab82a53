"""Rigorous certificate verification by interval branch-and-bound.

The four certificate conditions (negative on initial boxes, positive on
unsafe boxes, strictly decreasing drift on the zero level set, sign
preserved across resets) are proven over a finite box cover.  Boxes that
cannot be decided are bisected along their widest dimension until a
minimum width; undecided leftovers make the verdict Unknown rather than
Verified.  Strictness survives rounding because all interval bounds are
outward-rounded before comparison against zero.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from . import model
from .model import Box, Problem, Template

CONDITION_NAMES = {
    1: "certificate negative on initial boxes",
    2: "certificate positive on unsafe boxes",
    3: "drift negative on the zero level set",
    4: "sign preserved across resets",
}


class VerdictStatus(enum.Enum):
    VERIFIED = "Verified"
    REFUTED = "Refuted"
    UNKNOWN = "Unknown"


@dataclass
class ConditionReport:
    boxes_verified: int = 0
    boxes_split: int = 0
    boxes_unresolved: int = 0
    volume_covered: float = 0.0
    region_volume: float = 0.0
    wall_time: float = 0.0


@dataclass
class Verdict:
    status: VerdictStatus
    condition: int | None = None
    witness: tuple[int, tuple[float, ...], tuple[float, ...]] | None = None
    unresolved: list[Box] = field(default_factory=list)
    min_width_reached: float = math.inf
    reports: dict[int, ConditionReport] = field(default_factory=dict)


@dataclass
class VerifyConfig:
    min_width_frac: float = 1e-4
    # disturbance dimensions only split once state dimensions are within
    # this multiple of their minimum width
    dist_defer: float = 10.0


_PROVED = 0
_REFUTED = 1
_SPLIT = 2


class _ModeChecks:
    """One mode's certificate and drift ``sum_j dV/dx_j * f_j`` compiled
    for interval enclosures over boxes, and the certificate, its gradient
    and the flow compiled for points."""

    def __init__(self, prob: Problem, tmpl: Template, p: np.ndarray, mode: int):
        value, grad = model.certificate_exprs(tmpl, p, mode)
        flow = prob.modes[mode].flow
        drift = functools.reduce(
            ex.Add, [ex.Mul(g, f) for g, f in zip(grad, flow)
                     if g != ex.Const(0.0)], ex.Const(0.0))
        self.value_box, self.drift_box = ex.compile_interval((value, drift))
        self.value = ex.compile_expr(value)
        self.grad = ex.compile_vector(grad)
        self.flow = ex.compile_vector(flow)


def _split_choice(box: Box, min_widths: Sequence[float],
                  n_state: int, cfg: VerifyConfig) -> int | None:
    widths = box.widths()
    rel = [w / mw if mw > 0 else 0.0 for w, mw in zip(widths, min_widths)]
    state_ok = [i for i in range(n_state) if rel[i] > 1.0]
    # state dimensions first; disturbance dimensions only join once every
    # state dimension is within dist_defer of its minimum width
    if state_ok and any(rel[i] > cfg.dist_defer for i in state_ok):
        return max(state_ok, key=lambda i: rel[i])
    dist_ok = [i for i in range(n_state, box.dim) if rel[i] > 1.0]
    if dist_ok:
        return max(dist_ok, key=lambda i: rel[i])
    if state_ok:
        return max(state_ok, key=lambda i: rel[i])
    return None


def _halves(box: Box, dim: int) -> tuple[Box, Box]:
    mid = 0.5 * (box.lo[dim] + box.hi[dim])
    lo1 = list(box.lo)
    hi1 = list(box.hi)
    hi1[dim] = mid
    lo2 = list(box.lo)
    lo2[dim] = mid
    return Box(tuple(lo1), tuple(hi1)), Box(tuple(lo2), tuple(box.hi))


def _cover(region: Box, min_widths: Sequence[float], n_state: int,
           cfg: VerifyConfig, check, report: ConditionReport):
    """Process a region box-by-box; returns (witness, unresolved, min_width)."""
    unresolved: list[Box] = []
    min_width = max(region.widths()) if region.dim else 0.0
    counter = 0
    heap = [(-max(region.widths(), default=0.0), counter, region)]
    while heap:
        _, _, box = heapq.heappop(heap)
        min_width = min(min_width, max(box.widths(), default=0.0))
        outcome, witness = check(box)
        if outcome == _PROVED:
            report.boxes_verified += 1
            report.volume_covered += box.volume()
            continue
        if outcome == _REFUTED:
            return witness, unresolved, min_width
        dim = _split_choice(box, min_widths, n_state, cfg)
        if dim is None:
            report.boxes_unresolved += 1
            report.volume_covered += box.volume()
            unresolved.append(box)
            continue
        report.boxes_split += 1
        for half in _halves(box, dim):
            counter += 1
            heapq.heappush(heap, (-max(half.widths()), counter, half))
    return None, unresolved, min_width


def verify(prob: Problem, tmpl: Template, p: np.ndarray,
           cfg: VerifyConfig | None = None) -> Verdict:
    """Prove all four certificate conditions, refute one with a checkable
    witness point, or give up with the unresolved boxes."""
    cfg = cfg or VerifyConfig()
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("certificate parameters must be finite")
    checks = {m: _ModeChecks(prob, tmpl, p, m) for m in range(len(prob.modes))}
    reports = {i: ConditionReport() for i in (1, 2, 3, 4)}
    verdict = Verdict(VerdictStatus.VERIFIED, reports=reports)
    p_scale = 1.0 + float(np.linalg.norm(p))

    def omega_min_widths(mode: int) -> list[float]:
        return [cfg.min_width_frac * w for w in prob.modes[mode].omega.widths()]

    def run_condition(cond: int, tasks):
        report = reports[cond]
        t0 = time.perf_counter()
        for region, min_widths, n_state, check in tasks:
            report.region_volume += region.volume()
            witness, unresolved, reached = _cover(
                region, min_widths, n_state, cfg, check, report)
            verdict.min_width_reached = min(verdict.min_width_reached, reached)
            if witness is not None:
                report.wall_time += time.perf_counter() - t0
                return witness
            verdict.unresolved.extend(unresolved)
            if unresolved and verdict.condition is None:
                verdict.condition = cond
        report.wall_time += time.perf_counter() - t0
        return None

    # conditions 1 and 2: fixed certificate sign on initial/unsafe boxes
    def sign_tasks(regions, want_negative: bool):
        tasks = []
        for mode, box in regions:
            mc = checks[mode]

            def check(bx: Box, _mc=mc, _neg=want_negative, _m=mode):
                rng = _mc.value_box(bx.intervals())
                if _neg and rng.hi < 0.0:
                    return _PROVED, None
                if not _neg and rng.lo > 0.0:
                    return _PROVED, None
                mid = bx.midpoint()
                v_mid = _mc.value(mid)
                bad = v_mid >= 1e-10 * p_scale if _neg else v_mid <= -1e-10 * p_scale
                if bad:
                    return _REFUTED, (_m, mid, ())
                return _SPLIT, None

            tasks.append((box, omega_min_widths(mode), box.dim, check))
        return tasks

    witness = run_condition(1, sign_tasks(prob.initial, True))
    if witness is not None:
        return _refuted(verdict, 1, witness)
    witness = run_condition(2, sign_tasks(prob.unsafe, False))
    if witness is not None:
        return _refuted(verdict, 2, witness)

    # condition 3: drift negative wherever the certificate can vanish
    tasks3 = []
    d_verts = ([np.asarray(v) for v in model.vertices(prob.dist_box)]
               if prob.dist_box is not None else [np.empty(0)])
    for mode in range(len(prob.modes)):
        mc = checks[mode]
        omega = prob.modes[mode].omega
        if prob.dist_box is not None:
            region = Box(omega.lo + prob.dist_box.lo, omega.hi + prob.dist_box.hi)
            min_w = omega_min_widths(mode) + [
                cfg.min_width_frac * w for w in prob.dist_box.widths()]
        else:
            region = omega
            min_w = omega_min_widths(mode)

        def check3(bx: Box, _mc=mc, _m=mode, _omega=omega):
            ivs = bx.intervals()
            v_rng = _mc.value_box(ivs)
            if not (v_rng.lo <= 0.0 <= v_rng.hi):
                return _PROVED, None
            drift = _mc.drift_box(ivs)
            if drift is not None and drift.hi < 0.0:
                return _PROVED, None
            witness = _drift_witness(_mc, prob.dim, _m, bx, d_verts, p_scale)
            if witness is not None:
                return _REFUTED, witness
            return _SPLIT, None

        tasks3.append((region, min_w, prob.dim, check3))
    witness = run_condition(3, tasks3)
    if witness is not None:
        return _refuted(verdict, 3, witness)

    # condition 4: non-positive certificate must map to negative under resets
    tasks4 = []
    for rule in prob.resets:
        def check4(bx: Box, _src=checks[rule.source], _rule=rule,
                   _fwd_box=ex.compile_interval(rule.fwd),
                   _fwd=ex.compile_vector(rule.fwd), _tgt=checks[rule.target]):
            ivs = bx.intervals()
            v_rng = _src.value_box(ivs)
            if v_rng.lo > 0.0:
                return _PROVED, None
            image = [f(ivs) for f in _fwd_box]
            if all(im is not None for im in image):
                after = _tgt.value_box(image)
                if after.hi < 0.0:
                    return _PROVED, None
            mid = bx.midpoint()
            v_mid = _src.value(mid)
            try:
                v_after = _tgt.value(_fwd(mid))
            except ex.MATH_ERRORS:
                return _SPLIT, None  # map or certificate undefined here
            if v_mid <= -1e-10 * p_scale and v_after >= 1e-10 * p_scale:
                return _REFUTED, (_rule.source, mid, ())
            return _SPLIT, None

        tasks4.append((rule.guard, omega_min_widths(rule.source),
                       rule.guard.dim, check4))
    witness = run_condition(4, tasks4)
    if witness is not None:
        return _refuted(verdict, 4, witness)

    if verdict.unresolved:
        verdict.status = VerdictStatus.UNKNOWN
    return verdict


def _refuted(verdict: Verdict, condition: int, witness) -> Verdict:
    verdict.status = VerdictStatus.REFUTED
    verdict.condition = condition
    verdict.witness = witness
    return verdict


def _drift_witness(mc: _ModeChecks, dim: int, mode: int, box: Box,
                   d_verts, p_scale):
    """Try to exhibit a concrete violating point for the drift condition:
    a state on the zero level set with non-negative drift for some
    disturbance vertex.  Conservative; never refutes on enclosure noise."""
    x = np.asarray(box.midpoint()[:dim])
    lo = np.asarray(box.lo[:dim])
    hi = np.asarray(box.hi[:dim])
    for _ in range(30):
        v = mc.value(x)
        if abs(v) <= 1e-9 * p_scale:
            break
        g = np.array(mc.grad(x))
        n2 = float(g @ g)
        if n2 < 1e-18:
            return None
        x = np.clip(x - (v / n2) * g, lo, hi)
    else:
        return None
    if abs(mc.value(x)) > 1e-9 * p_scale:
        return None
    g = np.array(mc.grad(x))
    best = None
    for d in d_verts:
        vals = list(x) + list(d)
        try:
            f = np.array(mc.flow(vals))
        except ex.MATH_ERRORS:
            continue  # flow undefined here; no witness from this point
        drift = float(g @ f)
        scale = 1.0 + float(np.linalg.norm(g)) * float(np.linalg.norm(f))
        if drift > 1e-7 * scale and (best is None or drift > best[0]):
            best = (drift, tuple(float(v) for v in d))
    if best is None:
        return None
    return (mode, tuple(float(v) for v in x), best[1])
