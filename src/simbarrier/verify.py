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
- the split choice (``_split_dims``) is made once per level, on all of
  its boxes, before the check, and handed to the check; a box's choice
  depends on its widths alone, so the check's rows too narrow to split
  and the boxes the level bisects come from that one choice;
- the midpoint checks evaluate ``expr.compile_batch`` on the rows' mid
  points, and the drift witness lands them on the zero level set with
  ``model.land_on_level_set``, the falsifier's Newton landing, which steps
  each row alone on the certificate's point code (``value_grad``); it
  lands only the rows whose midpoint drift does not clearly fall, and
  every row of a box too narrow to split (a witness only serves a
  refutation, and a skipped box is split, so its children get their own
  tries); the drifts at the disturbance vertices are one flow batch
  (``Problem.vertex_drifts``);
- the certificate's code, point and box, is one ``model.Certificate``,
  the caller's (the engine passes the candidate's) or one built per call,
  and the flows and reset maps are compiled on the problem's modes and
  rules; only the drift enclosure is compiled here;
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
    levels: int = 0        # cover levels: the calls of the condition's check


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

    @property
    def proved(self) -> frozenset[int]:
        """The conditions whose cover ran to the end with no unresolved
        box: on a refuted verdict only conditions before ``condition``,
        whose covers alone ran; a condition without a report is not."""
        last = self.condition if self.status is VerdictStatus.REFUTED else 5
        return frozenset(c for c in range(1, last)
                         if c in self.reports
                         and not self.reports[c].boxes_unresolved)


# disturbance dimensions only split once state dimensions are within this
# multiple of their minimum width
_DIST_DEFER = 10.0

_PROVED = 0
_REFUTED = 1
_SPLIT = 2

# boxes one _cover call decides before it gives the rest up as unresolved;
# the largest bench certificate needs 1,059 boxes
_MAX_BOXES = 100_000

# the drift witness: model.LANDING_STEPS Newton steps towards
# |V| <= _WITNESS_BAND * (1 + |p|)
_WITNESS_BAND = 1e-9
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
    rel = widths / np.where(positive, min_widths, 1.0)
    # a candidate's relative width, -inf for the rest
    key = np.where(positive & (rel > 1.0), rel, -np.inf)
    state = key[:, :n_state]
    state_top, state_best = state.max(1), state.argmax(1)
    if n_state == key.shape[1]:
        return np.where(state_top > 1.0, state_best, -1)
    dist = key[:, n_state:]
    return np.where(state_top > _DIST_DEFER, state_best,
                    np.where(dist.max(1) > 1.0, dist.argmax(1) + n_state,
                             np.where(state_top > 1.0, state_best, -1)))


def _boxes(lo: np.ndarray, hi: np.ndarray) -> list[Box]:
    return [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


def _cover(region: Box, min_widths: Sequence[float], n_state: int, check,
           report: ConditionReport):
    """Decide a region level by level; returns (witness, unresolved,
    min_width).

    Each level's split choice (``_split_dims``) is made once, on all of
    its boxes, before the check, and handed to it: ``check(lo, hi, dims)``
    decides a level's boxes, the rows of ``lo`` and ``hi``, with ``dims``
    the dimension each would be bisected along (-1: too narrow to split).
    It returns an outcome per row and the witness ``Hit`` of each row it
    refutes, by row.  Pending boxes are kept in the order they were made."""
    lo, hi = np.array([region.lo], dtype=float), np.array([region.hi], dtype=float)
    min_widths = np.asarray(min_widths, dtype=float)
    unresolved: list[Box] = []
    min_width = max(region.widths(), default=0.0)
    budget = _MAX_BOXES
    while len(lo):
        widths = hi - lo
        if not budget:  # every pending box is unresolved
            for row in widths.tolist():
                report.volume_covered += math.prod(row)
            report.boxes_unresolved += len(lo)
            unresolved += _boxes(lo, hi)
            break
        top = widths.max(1, initial=0.0)
        width = top.max()
        min_width = min(min_width, float(width))
        level = top == width
        if len(lo) <= budget and level.all():  # the level is every box
            blo, bhi, kept = lo, hi, None
        else:
            rows = level.nonzero()[0][:budget]
            kept = np.ones(len(lo), dtype=bool)
            kept[rows] = False
            blo, bhi, widths = lo[rows], hi[rows], widths[rows]
        budget -= len(blo)
        dims = _split_dims(widths, min_widths, n_state)
        report.levels += 1
        outcome, witnesses = check(blo, bhi, dims)
        refuted = (outcome == _REFUTED).nonzero()[0]
        if len(refuted):
            stop = int(refuted[0])
            outcome, blo, bhi = outcome[:stop], blo[:stop], bhi[:stop]
            widths, dims = widths[:stop], dims[:stop]
        proved = outcome == _PROVED
        halve = ~proved & (dims >= 0)
        n_proved = int(np.count_nonzero(proved))
        n_halve = int(np.count_nonzero(halve))
        n_stuck = len(proved) - n_proved - n_halve
        volume = report.volume_covered  # summed in box order
        for row in (widths[~halve] if n_halve else widths).tolist():
            volume += math.prod(row)
        report.volume_covered = volume
        report.boxes_verified += n_proved
        report.boxes_split += n_halve
        if n_stuck:
            stuck = ~(proved | halve)
            report.boxes_unresolved += n_stuck
            unresolved += _boxes(blo[stuck], bhi[stuck])
        if len(refuted):
            return witnesses[stop], unresolved, min_width
        # the two halves of each box, in box order, lower half first
        dim = dims[halve]
        clo, chi = blo[halve].repeat(2, 0), bhi[halve].repeat(2, 0)
        lower = np.arange(0, 2 * n_halve, 2)
        mid = 0.5 * (clo[lower, dim] + chi[lower, dim])
        chi[lower, dim] = mid
        clo[lower + 1, dim] = mid
        if kept is None:
            lo, hi = clo, chi
        else:
            lo = np.concatenate([lo[kept], clo])
            hi = np.concatenate([hi[kept], chi])
    return None, unresolved, min_width


def verify(prob: Problem, tmpl: Template, p: np.ndarray,
           min_width_frac: float = 1e-4, *,
           cert: Certificate | None = None) -> Verdict:
    """Prove all four certificate conditions, refute one with a checkable
    witness ``Hit``, or give up with the unresolved boxes.  A box is split
    no finer than ``min_width_frac`` of its region's width in each
    dimension.  ``cert`` is the caller's ``Certificate`` of ``tmpl`` and
    ``p``, whose compiled code the cover then shares; without it, one is
    built."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("certificate parameters must be finite")
    if cert is None:
        cert = Certificate(tmpl, p)
    elif cert.template is not tmpl or not np.array_equal(cert.p, p):
        raise ValueError("cert is not the certificate of tmpl and p")
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
            def check(lo, hi, _dims, _mc=cert[mode], _neg=cond == 1,
                      _m=mode, _kind=model.KINDS[cond - 1]):
                v_lo, v_hi = _mc.value_box(lo, hi)
                proved = v_hi < 0.0 if _neg else v_lo > 0.0
                outcome = np.where(proved, _PROVED, _SPLIT)
                rest = (~proved).nonzero()[0]
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

        def check3(lo, hi, dims, _m=mode, _drift=_drift_box(prob, cert, mode)):
            v_lo, v_hi = cert[_m].value_box(lo, hi)
            proved = (v_lo > 0.0) | (v_hi < 0.0)
            rest = (~proved).nonzero()[0]
            _, drift_hi = _drift(lo[rest], hi[rest])
            falls = drift_hi[:, 0] < 0.0
            proved[rest[falls]] = True
            rest = rest[~falls]
            outcome = np.where(proved, _PROVED, _SPLIT)
            # a box too narrow to split gets its only try here
            tried, found = _drift_witnesses(prob, cert, _m, lo[rest],
                                            hi[rest], p_scale, dims[rest] < 0)
            hits = {int(rest[i]): hit for i, hit in found.items()}
            outcome[list(hits)] = _REFUTED
            # the rows a box-by-box cover tries: up to its first refutation
            last = min(hits, default=len(lo))
            report3.witness_rows += int((rest[tried] <= last).sum())
            return outcome, hits

        yield 3, region, widths, prob.dim, check3

    # condition 4: non-positive certificate must map to negative under resets
    for rule in prob.resets:
        def check4(lo, hi, _dims, _src=cert[rule.source], _rule=rule,
                   _tgt=cert[rule.target]):
            v_lo, _ = _src.value_box(lo, hi)
            proved = v_lo > 0.0
            rest = (~proved).nonzero()[0]
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
    mc, dim = cert[mode], prob.dim
    lo, hi = lo[:, :dim], hi[:, :dim]
    mid = 0.5 * (lo + hi)
    drift, scale = prob.vertex_drifts(mode, mid, mc.grad(mid))
    tried = always | ~(drift < _WITNESS_SKIP * scale).all(1)
    rows = tried.nonzero()[0]
    x, landed, g = model.land_on_level_set(
        mc.value_grad, mid[rows], lo[rows], hi[rows], _WITNESS_BAND * p_scale,
        model.LANDING_STEPS)
    if not landed.any():      # about half the calls: no flow batch to make
        return tried, {}
    rows, x = rows[landed], x[landed]
    drift, scale = prob.vertex_drifts(mode, x, g[landed])
    ok = drift > 1e-7 * (1.0 + scale)
    best = np.argmax(np.where(ok, drift, -np.inf), 1)
    return tried, {int(rows[i]): Hit(None, "transversality", mode, x[i],
                                     prob.dist_vertices[best[i]])
                   for i in ok.any(1).nonzero()[0]}
