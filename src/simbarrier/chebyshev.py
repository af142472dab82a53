"""Max-margin certificate candidates from simulation segments.

Each segment, two endpoints, contributes normalized linear rows in the
template parameters: a hard row for each endpoint in a closed initial or
unsafe box of its mode, and one two-way disjunctive row per segment
(certificate positive at the start or negative at the end).  A side that
contradicts a hard row of the same endpoint forces the other one: where
the start is initial (hard row ``V(s) <= -delta``) the end's side
``V(s') <= -delta`` is a hard row, and where the end is unsafe the
start's side ``V(s) >= delta`` is; such a disjunction is not kept.  A
segment from an initial start to an unsafe end so gives the rows ``r``
and ``-r`` for each endpoint, which hold together only for
``delta <= 0``: no candidate.  The candidate is the parameter vector of
max-norm at most one that maximizes the worst normalized margin, i.e.
the Chebyshev center of the row system.  Disjunctions are resolved exactly by best-first branch-and-bound
over per-segment disjunct choices, with the node relaxation dropping
unresolved disjunctions (a valid upper bound).
Each relaxation is one ``lp.lp_max`` over rows ``r.p - delta >= 0``;
with ``|r| = 1`` every such row holds at the lower corner ``p = -1``,
``delta = -(sqrt(k) + 1)``, where the simplex starts.

Every relaxation is solved by row generation, which hands its final basis
on.  The node keeps it once, for both children: a child's rows are its
parent's with one decided disjunction inserted in index order, so the
child's relaxation starts from the parent's working rows and basis,
renumbered around the new row, and needs a few dual simplex pivots
instead of a fresh row generation.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lp, model
from .model import Problem, Segment, Template


_GAP_TOL = 1e-9  # nodes whose bound is within this of the incumbent are pruned


class ConstraintError(RuntimeError):
    pass


@dataclass(frozen=True)
class SampledConstraint:
    dim: int
    hard: np.ndarray          # (H, k): rows r requiring r.p >= delta
    disjunctive: np.ndarray   # (D, 2, k): at least one of the pair >= delta

    @property
    def n_rows(self) -> int:
        return len(self.hard) + len(self.disjunctive)


@dataclass(frozen=True)
class Candidate:
    p: np.ndarray
    delta: float
    nodes: int = 0    # branch-and-bound nodes whose relaxation was solved
    pivots: int = 0   # simplex pivots over every LP of the solve


def build(segments: Sequence[Segment], tmpl: Template,
          prob: Problem) -> SampledConstraint:
    """Assemble the normalized row system for a set of segments.

    The rows of all endpoints come from one call per mode of the
    template's compiled monomials (``Template.monomial_rows``); each row
    is divided by its norm.  Raises ConstraintError when an endpoint's
    row is not finite (a monomial overflows there), naming the first.
    """
    if not segments:
        raise ConstraintError("no segments")
    # endpoint 2i is segment i's start, 2i + 1 its end
    modes = np.array([m for seg in segments for m in (seg.s_mode, seg.sp_mode)])
    points = np.array([x for seg in segments for x in (seg.s, seg.sp)],
                      dtype=float)
    rows = np.zeros((len(points), tmpl.size))
    for mode, monomials in enumerate(tmpl.monomial_rows):
        at = np.flatnonzero(modes == mode)
        rows[at, tmpl.block_slice(mode)] = monomials(points[at])
    norm2 = model.row_dot(rows, rows)
    bad = ~np.isfinite(norm2)
    if bad.any():
        i = int(bad.argmax())
        raise ConstraintError(
            f"mode {prob.modes[modes[i]].name!r}: the template's monomials "
            f"at the point {tuple(points[i].tolist())} are not finite")
    units = (rows / np.sqrt(norm2)[:, None]).reshape(len(segments), 2, -1)
    inside = np.zeros((len(points), 2), dtype=bool)
    for kind, regions in enumerate((prob.initial, prob.unsafe)):
        for mode, box in regions:
            inside[:, kind] |= ((modes == mode) & (points >= box.lo).all(1)
                                & (points <= box.hi).all(1))
    # per segment, the hard rows -a_s, a_s, -a_sp, a_sp where the start
    # or end is initial or unsafe, in that order
    flags = inside.reshape(-1, 4)
    signed = np.stack([-units[:, 0], units[:, 0], -units[:, 1], units[:, 1]],
                      axis=1)
    disj = np.stack([units[:, 0], -units[:, 1]], axis=1)
    # side 1, a_s, meets the initial start's row -a_s, so the start forces
    # side 2, -a_sp; side 2 meets the unsafe end's row a_sp and forces a_s
    forced = flags[:, [0, 3]]
    hard = np.concatenate([signed[flags], disj[:, ::-1][forced]])
    return SampledConstraint(tmpl.size, hard, disj[~forced.any(1)])


def margin(c: SampledConstraint, p: np.ndarray) -> float:
    """Worst normalized margin of p over all rows; positive iff p satisfies
    every hard row and one disjunct per disjunctive row strictly."""
    worst = math.inf
    if len(c.hard):
        worst = min(worst, float(np.min(c.hard @ p)))
    if len(c.disjunctive):
        pair = c.disjunctive @ p            # (D, 2)
        worst = min(worst, float(np.min(np.max(pair, axis=1))))
    return worst


def _relaxation(c: SampledConstraint, assign: np.ndarray,
                start: lp.Basis | None = None):
    """LP over (p, delta) with unresolved disjunctions dropped: the hard
    rows, then the chosen side of each decided disjunction in index order.
    ``start`` is a basis over these rows (``lp.lp_max``).  Returns the
    optimal p, the bound, the simplex pivot count and the LP's final
    basis."""
    k = c.dim
    decided = np.flatnonzero(assign)
    n_hard = len(c.hard)
    rows = np.empty((n_hard + len(decided), k + 1))
    rows[:n_hard, :k] = c.hard
    rows[n_hard:, :k] = c.disjunctive[decided, assign[decided] - 1]
    rows[:, k] = -1.0
    obj = np.zeros(k + 1)
    obj[k] = 1.0
    hi = np.ones(k + 1)
    hi[k] = math.sqrt(k) + 1.0
    res = lp.lp_max(obj, rows, np.zeros(len(rows)), -hi, hi, start)
    return res.x[:k], float(res.value), res.pivots, res.basis


def solve(c: SampledConstraint, delta_min: float = 1e-6) -> Candidate | None:
    """Globally maximize the worst margin; None when the optimum does not
    clear delta_min.

    A node is an array of per-disjunction choices (0 undecided, 1 or 2 the
    side imposed) and the basis its parent's relaxation handed on (None at
    the root).
    """
    best_p = np.zeros(c.dim)
    best_delta = margin(c, best_p) if c.n_rows else 0.0
    nodes = pivots = counter = 0
    heap: list[tuple[float, int, np.ndarray, lp.Basis | None]] = [
        (-math.inf, 0, np.zeros(len(c.disjunctive), dtype=np.int8), None)]
    while heap:
        neg_bound, _, assign, start = heapq.heappop(heap)
        if -neg_bound <= best_delta + _GAP_TOL:
            break
        nodes += 1
        p_star, bound, lp_pivots, basis = _relaxation(c, assign, start)
        pivots += lp_pivots
        if bound <= best_delta + _GAP_TOL:
            continue
        # branch on the open disjunction the relaxation optimum violates
        # most (the first one among equals)
        undecided = np.flatnonzero(assign == 0)
        gaps = (c.disjunctive[undecided] @ p_star).max(axis=1) - bound
        if not len(gaps) or gaps.min() >= -1e-12:
            # relaxation optimum already satisfies every open disjunction
            d = margin(c, p_star)
            if d > best_delta:
                best_p, best_delta = p_star, d
            continue
        worst = undecided[gaps.argmin()]
        # both children share this node's basis, its rows renumbered around
        # the child's decided row, which comes in at ``at``
        at = len(c.hard) + np.count_nonzero(assign[:worst])
        rows = basis.rows
        basis = dataclasses.replace(basis, rows=rows + (rows >= at))
        for choice in (1, 2):
            child = assign.copy()
            child[worst] = choice
            counter += 1
            heapq.heappush(heap, (-bound, counter, child, basis))

    if best_delta <= delta_min:
        return None
    return Candidate(best_p, best_delta, nodes, pivots)
