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
  ``model.land_on_level_set``, the falsifier's Newton landing; it lands
  only the rows whose midpoint drift does not clearly fall, and every row
  of a box too narrow to split (a witness only serves a refutation, and a
  skipped box is split, so its children get their own tries);
- the certificate's code, point and box, is one ``model.Certificate``
  built per call, and the flows and reset maps are compiled on the
  problem's modes and rules; only the drift enclosure is compiled here;
- a level that refutes stops at its first refuting row; the report counts
  only the boxes before it, and the witness rows up to it, and adds up
  their volumes in box order, so every verdict, witness and
  ``ConditionReport`` is what a cover deciding one box at a time gives.
One ``_cover`` call decides at most ``_MAX_BOXES`` boxes.  Past that, the
boxes still pending are unresolved, and the verdict is Unknown.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from . import model
from .model import Box, Certificate, Hit, Problem, Template

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
    witness_rows: int = 0  # midpoints handed to the drift witness's landing


@dataclass
class Verdict:
    status: VerdictStatus
    condition: int | None = None
    hit: Hit | None = None           # a refuted verdict's witness
    unresolved: list[Box] = field(default_factory=list)
    min_width_reached: float = math.inf
    reports: dict[int, ConditionReport] = field(default_factory=dict)

    @property
    def witness(self):
        """``hit`` as (mode, x, d), x and d tuples of floats, d empty but
        for the drift condition; None unless refuted."""
        h = self.hit
        return h and (h.mode, tuple(h.x.tolist()),
                      () if h.d is None else tuple(h.d.tolist()))


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
# ... and only from midpoints where, at some disturbance vertex, the drift
# is at least this multiple of |grad V| * |f|
_WITNESS_SKIP = -0.1


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
    ``hi``: it returns an outcome per row and the witness ``Hit`` of each
    row it refutes, by row.  Pending boxes are kept in the order they were
    made, with their widths ``top`` in the widest dimension."""
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
           min_width_frac: float = 1e-4) -> Verdict:
    """Prove all four certificate conditions, refute one with a checkable
    witness ``Hit``, or give up with the unresolved boxes.  A box is split
    no finer than ``min_width_frac`` of its region's width in each
    dimension."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("certificate parameters must be finite")
    cert = Certificate(tmpl, p)
    reports = {i: ConditionReport() for i in (1, 2, 3, 4)}
    verdict = Verdict(VerdictStatus.VERIFIED, reports=reports)
    with np.errstate(all="ignore"):
        for cond, region, widths, n_state, check in _tasks(
                prob, cert, min_width_frac, reports[3]):
            report = reports[cond]
            report.region_volume += region.volume()
            hit, unresolved, reached = _cover(region, widths, n_state, check,
                                              report)
            verdict.min_width_reached = min(verdict.min_width_reached,
                                            reached)
            if hit is not None:
                verdict.status = VerdictStatus.REFUTED
                verdict.condition, verdict.hit = cond, hit
                return verdict
            verdict.unresolved.extend(unresolved)
            if unresolved and verdict.condition is None:
                verdict.condition = cond
    if verdict.unresolved:
        verdict.status = VerdictStatus.UNKNOWN
    return verdict


def _tasks(prob: Problem, cert: Certificate, min_width_frac: float,
           report3: ConditionReport):
    """The covers of the four conditions, in order: (condition, region,
    minimum widths, state dimensions, check), each check built when its
    cover is about to run.  Condition 3's checks count their witness rows
    in ``report3``."""
    p_scale = 1.0 + float(np.linalg.norm(cert.p))
    tol = 1e-10 * p_scale

    def min_widths(box: Box) -> list[float]:
        return [min_width_frac * w for w in box.widths()]

    # conditions 1 and 2: fixed certificate sign on initial/unsafe boxes; a
    # box is refuted at its midpoint where the value there, or the whole
    # enclosure, is beyond the tolerance on the wrong side
    for cond, regions in ((1, prob.initial), (2, prob.unsafe)):
        for mode, box in regions:
            def check(lo, hi, _mc=cert[mode], _neg=cond == 1, _m=mode,
                      _kind=model.KINDS[cond - 1]):
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
                return outcome, {int(r): Hit(None, _kind, _m, x)
                                 for r, x in zip(rest[bad], mid[bad])}

            yield (cond, box, min_widths(prob.modes[mode].omega), box.dim,
                   check)

    # condition 3: drift negative wherever the certificate can vanish
    for mode, region in enumerate(prob.flow_boxes):
        widths = min_widths(region)

        def check3(lo, hi, _m=mode, _drift=_drift_box(prob, cert, mode),
                   _widths=np.array(widths)):
            v_lo, v_hi = cert[_m].value_box(lo, hi)
            proved = (v_lo > 0.0) | (v_hi < 0.0)
            rest = np.flatnonzero(~proved)
            _, drift_hi = _drift(lo[rest], hi[rest])
            falls = drift_hi[:, 0] < 0.0
            proved[rest[falls]] = True
            rest = rest[~falls]
            outcome = np.where(proved, _PROVED, _SPLIT)
            # a box too narrow to split gets its only try here
            stuck = _split_dims(hi[rest] - lo[rest], _widths, prob.dim) < 0
            tried, found = _drift_witnesses(prob, cert, _m, lo[rest],
                                            hi[rest], p_scale, stuck)
            hits = {int(rest[i]): hit for i, hit in found.items()}
            outcome[list(hits)] = _REFUTED
            # the rows a box-by-box cover tries: up to its first refutation
            last = min(hits, default=len(lo))
            report3.witness_rows += int((rest[tried] <= last).sum())
            return outcome, hits

        yield 3, region, widths, prob.dim, check3

    # condition 4: non-positive certificate must map to negative under resets
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
            return outcome, {int(r): Hit(None, "reset", _rule.source, x,
                                         rule=_rule)
                             for r, x in zip(rest[bad], mid[bad])}

        yield (4, rule.guard, min_widths(prob.modes[rule.source].omega),
               rule.guard.dim, check4)


def _vertex_drifts(flow, d_verts, x: np.ndarray, g: np.ndarray):
    """The drift ``g . f`` and ``|g| * |f|`` at each row of ``x`` for each
    disturbance vertex: two (k, vertices) arrays, ``g`` being grad V at
    ``x`` and ``f`` the flow at the row and the vertex."""
    g_norm = np.sqrt(model.row_dot(g, g))
    drifts, scales = [], []
    for d in d_verts:
        f = flow(np.hstack([x, np.broadcast_to(d, (len(x), len(d)))]))
        drifts.append(model.row_dot(g, f))
        scales.append(g_norm * np.sqrt(model.row_dot(f, f)))
    return np.stack(drifts, 1), np.stack(scales, 1)


def _drift_witnesses(prob: Problem, cert: Certificate, mode: int,
                     lo: np.ndarray, hi: np.ndarray, p_scale: float,
                     always: np.ndarray):
    """Concrete violating points for the drift condition, at most one try
    per row of boxes: the box's midpoint landed on the zero level set
    within the box, with drift above 1e-7 * (1 + |grad V| * |f|) for some
    disturbance vertex (the one of largest drift, the first of equals).

    A row is tried only where, at its midpoint, the drift is at least
    ``_WITNESS_SKIP`` * |grad V| * |f| for some vertex, or where ``always``
    is set; a row whose drift is undefined there is tried.  Returns the
    mask of the rows tried and a dict row -> ``Hit`` of the rows that have
    a witness.  Conservative; never refutes on enclosure noise."""
    mc, flow, dim = cert[mode], prob.modes[mode].flow_rows, prob.dim
    d_verts = prob.dist_vertices
    lo, hi = lo[:, :dim], hi[:, :dim]
    mid = 0.5 * (lo + hi)
    drift, scale = _vertex_drifts(flow, d_verts, mid, mc.grad(mid))
    tried = always | ~(drift < _WITNESS_SKIP * scale).all(1)
    rows = np.flatnonzero(tried)
    x, landed = model.land_on_level_set(
        mc.value, mc.grad, mid[rows], lo[rows], hi[rows],
        _WITNESS_BAND * p_scale, _WITNESS_FLOOR, _WITNESS_STEPS)
    rows, x = rows[landed], x[landed]
    drift, scale = _vertex_drifts(flow, d_verts, x, mc.grad(x))
    ok = drift > 1e-7 * (1.0 + scale)
    best = np.argmax(np.where(ok, drift, -np.inf), 1)
    return tried, {int(rows[i]): Hit(None, "transversality", mode, x[i],
                                     d_verts[best[i]])
                   for i in np.flatnonzero(ok.any(1))}
