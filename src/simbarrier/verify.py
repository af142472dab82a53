"""Rigorous certificate verification by interval branch-and-bound.

The four certificate conditions (negative on initial boxes, positive on
unsafe boxes, strictly decreasing drift on the zero level set, sign
preserved across resets) are proven over a finite box cover.  Boxes that
cannot be decided are bisected along their widest dimension (relative to
its minimum width) until that minimum width; undecided leftovers make the
verdict Unknown rather than Verified.  Strictness survives rounding
because all interval bounds are outward-rounded before comparison against
zero.

The cover runs in lockstep, one width level at a time.  Pending boxes are
taken largest first, and among boxes of one width in the order they were
made.  A child is never wider than its parent and is made after every
pending box, so ``_cover`` takes all pending boxes of the largest width
at once and decides them as the rows of ``lo``/``hi`` arrays, in exactly
the order a box-by-box cover takes them:
- the enclosures are ``expr.compile_interval``'s box code on the rows,
  each row bit for bit its box's enclosure alone (see ``interval``);
- the midpoint checks evaluate ``expr.compile_batch`` on the rows' mid
  points, and the drift witness lands them on the zero level set with
  ``model.land_on_level_set``, the falsifier's Newton landing;
- the certificate's code, point and box, is one ``model.Certificate``
  built per call, and the flows and reset maps are compiled on the
  problem's modes and rules; only the drift enclosure is compiled here;
- a level that refutes stops at its first refuting row; the report counts
  only the rows before it and adds up their volumes in box order, so every
  verdict, witness and ``ConditionReport`` is what a cover deciding one
  box at a time gives.
One ``_cover`` call decides at most ``_MAX_BOXES`` boxes.  Past that, the
boxes still pending are unresolved, and the verdict is Unknown.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from . import model
from .model import Box, Certificate, Problem, Template

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


# disturbance dimensions only split once state dimensions are within this
# multiple of their minimum width
_DIST_DEFER = 10.0

_PROVED = 0
_REFUTED = 1
_SPLIT = 2

# boxes one _cover call decides before it gives the rest up as unresolved;
# the largest bench certificate needs 1,059 boxes
_MAX_BOXES = 100_000

# the drift witness: Newton steps towards |V| <= _WITNESS_BAND * (1 + |p|),
# stopping where |grad V|^2 < _WITNESS_FLOOR
_WITNESS_BAND = 1e-9
_WITNESS_FLOOR = 1e-18
_WITNESS_STEPS = 29


def _drift_box(prob: Problem, cert: Certificate, mode: int):
    """The enclosure of mode ``mode``'s drift ``sum_j dV/dx_j * f_j`` over
    rows of boxes, as (k, 1) bounds."""
    grad = cert[mode].exprs[1]
    drift = functools.reduce(
        ex.Add, [ex.Mul(g, f) for g, f in zip(grad, prob.modes[mode].flow)
                 if g != ex.Const(0.0)], ex.Const(0.0))
    return ex.compile_interval([drift])


def _split_dims(widths: np.ndarray, min_widths: np.ndarray,
                n_state: int) -> np.ndarray:
    """The dimension to bisect for each row of box widths, or -1 where every
    dimension is within its minimum width.

    Widths are relative to the minimum widths.  State dimensions go first;
    disturbance dimensions only join once every state dimension is within
    _DIST_DEFER of its minimum width.  Among candidates, the relatively
    widest, the first of equals."""
    positive = min_widths > 0
    rel = np.where(positive, widths / np.where(positive, min_widths, 1.0), 0.0)
    ok = rel > 1.0

    def widest(cols: slice):
        part = rel[:, cols]
        if not part.shape[1]:
            return np.zeros(len(rel), dtype=bool), np.zeros(len(rel), dtype=int)
        mask = ok[:, cols]
        return mask.any(1), np.argmax(np.where(mask, part, -np.inf), 1)

    state_any, state_best = widest(slice(0, n_state))
    dist_any, dist_best = widest(slice(n_state, None))
    urgent = (ok[:, :n_state] & (rel[:, :n_state] > _DIST_DEFER)).any(1)
    return np.where(urgent, state_best,
                    np.where(dist_any, dist_best + n_state,
                             np.where(state_any, state_best, -1)))


def _volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``Box.volume`` of each row: the product of the widths, left to right."""
    widths = hi - lo
    vol = np.ones(len(lo))
    for j in range(widths.shape[1]):
        vol = vol * widths[:, j]
    return vol


def _boxes(lo: np.ndarray, hi: np.ndarray) -> list[Box]:
    return [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


def _cover(region: Box, min_widths: Sequence[float], n_state: int, check,
           report: ConditionReport):
    """Decide a region level by level; returns (witness, unresolved,
    min_width).

    ``check(lo, hi)`` decides a level's boxes, the rows of ``lo`` and
    ``hi``: it returns an outcome per row and the witnesses of the rows it
    refutes, by row.  Pending boxes are kept in the order they were made,
    with their widths ``top`` in the widest dimension."""
    lo, hi = np.array([region.lo], dtype=float), np.array([region.hi], dtype=float)
    top = (hi - lo).max(1, initial=0.0)
    min_widths = np.asarray(min_widths, dtype=float)
    unresolved: list[Box] = []
    min_width = float(top[0])
    budget = _MAX_BOXES
    while len(lo):
        if not budget:  # every pending box is unresolved
            for vol in _volumes(lo, hi).tolist():
                report.volume_covered += vol
            report.boxes_unresolved += len(lo)
            unresolved += _boxes(lo, hi)
            break
        level = top == top.max()
        rows = np.flatnonzero(level)[:budget]
        budget -= len(rows)
        taken = np.zeros(len(lo), dtype=bool)
        taken[rows] = True
        blo, bhi = lo[rows], hi[rows]
        min_width = min(min_width, float(top[rows[0]]))
        outcome, witnesses = check(blo, bhi)
        refuted = np.flatnonzero(outcome == _REFUTED)
        stop = int(refuted[0]) if len(refuted) else len(rows)
        outcome, blo, bhi = outcome[:stop], blo[:stop], bhi[:stop]
        dims = np.full(stop, -1)
        split = outcome == _SPLIT
        dims[split] = _split_dims(bhi[split] - blo[split], min_widths,
                                  n_state)
        stuck = split & (dims < 0)
        covered = (outcome == _PROVED) | stuck
        for vol in _volumes(blo, bhi)[covered].tolist():
            report.volume_covered += vol
        halve = split & (dims >= 0)
        report.boxes_verified += int((outcome == _PROVED).sum())
        report.boxes_split += int(halve.sum())
        report.boxes_unresolved += int(stuck.sum())
        unresolved += _boxes(blo[stuck], bhi[stuck])
        if len(refuted):
            return witnesses[stop], unresolved, min_width
        # the two halves of each box, in box order, lower half first
        plo, phi, dim = blo[halve], bhi[halve], dims[halve]
        at = np.arange(len(dim))
        mid = 0.5 * (plo[at, dim] + phi[at, dim])
        clo, chi = plo.repeat(2, 0), phi.repeat(2, 0)
        chi[2 * at, dim] = mid
        clo[2 * at + 1, dim] = mid
        lo = np.concatenate([lo[~taken], clo])
        hi = np.concatenate([hi[~taken], chi])
        top = np.concatenate([top[~taken], (chi - clo).max(1)])
    return None, unresolved, min_width


def verify(prob: Problem, tmpl: Template, p: np.ndarray,
           cfg: VerifyConfig | None = None) -> Verdict:
    """Prove all four certificate conditions, refute one with a checkable
    witness point, or give up with the unresolved boxes."""
    cfg = cfg or VerifyConfig()
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("certificate parameters must be finite")
    cert = Certificate(tmpl, p)
    reports = {i: ConditionReport() for i in (1, 2, 3, 4)}
    verdict = Verdict(VerdictStatus.VERIFIED, reports=reports)
    p_scale = 1.0 + float(np.linalg.norm(p))
    tol = 1e-10 * p_scale

    def min_widths(box: Box) -> list[float]:
        return [cfg.min_width_frac * w for w in box.widths()]

    def run_condition(cond: int, tasks):
        report = reports[cond]
        t0 = time.perf_counter()
        with np.errstate(all="ignore"):
            for region, min_widths, n_state, check in tasks:
                report.region_volume += region.volume()
                witness, unresolved, reached = _cover(
                    region, min_widths, n_state, check, report)
                verdict.min_width_reached = min(verdict.min_width_reached,
                                                reached)
                if witness is not None:
                    report.wall_time += time.perf_counter() - t0
                    return witness
                verdict.unresolved.extend(unresolved)
                if unresolved and verdict.condition is None:
                    verdict.condition = cond
        report.wall_time += time.perf_counter() - t0
        return None

    def midpoint_witnesses(mode, mids, rows):
        return {int(r): (mode, tuple(m), ()) for r, m in zip(rows, mids.tolist())}

    # conditions 1 and 2: fixed certificate sign on initial/unsafe boxes; a
    # box is refuted at its midpoint where the value there, or the whole
    # enclosure, is beyond the tolerance on the wrong side
    def sign_tasks(regions, want_negative: bool):
        tasks = []
        for mode, box in regions:
            def check(lo, hi, _mc=cert[mode], _neg=want_negative, _m=mode):
                v_lo, v_hi = _mc.value_box(lo, hi)
                proved = v_hi < 0.0 if _neg else v_lo > 0.0
                outcome = np.where(proved, _PROVED, _SPLIT)
                rest = np.flatnonzero(~proved)
                mid = 0.5 * (lo[rest] + hi[rest])
                v_mid = _mc.value(mid)
                if _neg:
                    bad = (v_mid >= tol) | (v_lo[rest] >= tol)
                else:
                    bad = (v_mid <= -tol) | (v_hi[rest] <= -tol)
                outcome[rest[bad]] = _REFUTED
                return outcome, midpoint_witnesses(_m, mid[bad], rest[bad])

            tasks.append((box, min_widths(prob.modes[mode].omega), box.dim,
                          check))
        return tasks

    witness = run_condition(1, sign_tasks(prob.initial, True))
    if witness is not None:
        return _refuted(verdict, 1, witness)
    witness = run_condition(2, sign_tasks(prob.unsafe, False))
    if witness is not None:
        return _refuted(verdict, 2, witness)

    # condition 3: drift negative wherever the certificate can vanish
    tasks3 = []
    for mode, region in enumerate(prob.flow_boxes):
        def check3(lo, hi, _m=mode, _drift=_drift_box(prob, cert, mode)):
            v_lo, v_hi = cert[_m].value_box(lo, hi)
            proved = (v_lo > 0.0) | (v_hi < 0.0)
            rest = np.flatnonzero(~proved)
            _, drift_hi = _drift(lo[rest], hi[rest])
            falls = drift_hi[:, 0] < 0.0
            proved[rest[falls]] = True
            rest = rest[~falls]
            outcome = np.where(proved, _PROVED, _SPLIT)
            witnesses = {int(rest[i]): w for i, w in _drift_witnesses(
                prob, cert, _m, lo[rest], hi[rest], p_scale)}
            outcome[list(witnesses)] = _REFUTED
            return outcome, witnesses

        tasks3.append((region, min_widths(region), prob.dim, check3))
    witness = run_condition(3, tasks3)
    if witness is not None:
        return _refuted(verdict, 3, witness)

    # condition 4: non-positive certificate must map to negative under resets
    tasks4 = []
    for rule in prob.resets:
        def check4(lo, hi, _src=cert[rule.source], _rule=rule,
                   _tgt=cert[rule.target]):
            v_lo, _ = _src.value_box(lo, hi)
            proved = v_lo > 0.0
            rest = np.flatnonzero(~proved)
            image_lo, image_hi = _rule.map_box(lo[rest], hi[rest])
            _, after_hi = _tgt.value_box(image_lo, image_hi)
            # an image with an undefined coordinate proves nothing
            mapped = ~np.isnan(image_lo).any(1) & (after_hi < 0.0)
            proved[rest[mapped]] = True
            rest = rest[~mapped]
            outcome = np.where(proved, _PROVED, _SPLIT)
            mid = 0.5 * (lo[rest] + hi[rest])
            # nan where the map or the certificate is undefined: no witness
            v_after = _tgt.value(_rule.map_rows(mid))
            bad = (_src.value(mid) <= -tol) & (v_after >= tol)
            outcome[rest[bad]] = _REFUTED
            return outcome, midpoint_witnesses(_rule.source, mid[bad], rest[bad])

        tasks4.append((rule.guard, min_widths(prob.modes[rule.source].omega),
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


def _drift_witnesses(prob: Problem, cert: Certificate, mode: int,
                     lo: np.ndarray, hi: np.ndarray, p_scale: float):
    """Concrete violating points for the drift condition, one try per row
    of boxes: the box's midpoint landed on the zero level set within the
    box, with non-negative drift for some disturbance vertex (the one of
    largest drift, the first of equals).  Yields (row, witness) for the
    rows that have one.  Conservative; never refutes on enclosure noise."""
    mc, flow, dim = cert[mode], prob.modes[mode].flow_rows, prob.dim
    d_verts = prob.dist_vertices
    x, landed = model.land_on_level_set(
        mc.value, mc.grad, 0.5 * (lo[:, :dim] + hi[:, :dim]), lo[:, :dim],
        hi[:, :dim], _WITNESS_BAND * p_scale, _WITNESS_FLOOR, _WITNESS_STEPS)
    rows = np.flatnonzero(landed)
    x = x[rows]
    g = mc.grad(x)
    g_norm = np.sqrt(model.row_dot(g, g))
    best = np.full(len(rows), -1)
    best_drift = np.zeros(len(rows))
    for j, d in enumerate(d_verts):
        f = flow(np.hstack([x, np.broadcast_to(d, (len(x), len(d)))]))
        drift = model.row_dot(g, f)
        scale = 1.0 + g_norm * np.sqrt(model.row_dot(f, f))
        better = (drift > 1e-7 * scale) & ((best < 0) | (drift > best_drift))
        best[better] = j
        best_drift[better] = drift[better]
    for i in np.flatnonzero(best >= 0):
        yield int(rows[i]), (mode, tuple(x[i].tolist()),
                             tuple(d_verts[best[i]].tolist()))
