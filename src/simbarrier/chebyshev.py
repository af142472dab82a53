"""Max-margin certificate candidates from simulation segments.

Each segment contributes normalized linear rows in the template
parameters: hard rows for endpoints classified as initial or unsafe, and
one two-way disjunctive row per segment (certificate positive at the
start or negative at the end).  The candidate is the parameter vector of
max-norm at most one that maximizes the worst normalized margin, i.e. the
Chebyshev center of the row system.  Disjunctions are resolved exactly by
best-first branch-and-bound over per-segment disjunct choices, with the
node relaxation dropping unresolved disjunctions (a valid upper bound).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lp
from .model import Problem, Segment, Template, coeff_row


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


def _unit(row: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(row))
    if norm < 1e-300:
        raise ConstraintError(
            "zero coefficient row; templates must carry a constant monomial")
    return row / norm


def build(segments: Sequence[Segment], tmpl: Template,
          prob: Problem) -> SampledConstraint:
    """Assemble the normalized row system for a set of segments."""
    if not segments:
        raise ConstraintError("no segments")
    k = tmpl.size
    hard: list[np.ndarray] = []
    disj: list[np.ndarray] = []
    for seg in segments:
        a_s = _unit(coeff_row(tmpl, seg.s_mode, seg.s))
        a_sp = _unit(coeff_row(tmpl, seg.sp_mode, seg.sp))
        if seg.s_in_initial:
            hard.append(-a_s)
        if seg.s_in_unsafe:
            hard.append(a_s)
        if seg.sp_in_initial:
            hard.append(-a_sp)
        if seg.sp_in_unsafe:
            hard.append(a_sp)
        disj.append(np.stack([a_s, -a_sp]))
    hard_arr = np.array(hard) if hard else np.empty((0, k))
    disj_arr = np.array(disj) if disj else np.empty((0, 2, k))
    return SampledConstraint(k, hard_arr, disj_arr)


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


def _relaxation(c: SampledConstraint, assign: np.ndarray):
    """LP over (p, delta) with unresolved disjunctions dropped: the hard
    rows, then the chosen side of each decided disjunction in index order.
    Returns the optimal p, the bound and the simplex pivot count."""
    k = c.dim
    decided = np.flatnonzero(assign)
    n_hard = len(c.hard)
    rows = np.empty((n_hard + len(decided), k + 1))
    rows[:n_hard, :k] = c.hard
    rows[n_hard:, :k] = c.disjunctive[decided, assign[decided] - 1]
    rows[:, k] = -1.0
    obj = np.zeros(k + 1)
    obj[k] = 1.0
    delta_cap = math.sqrt(k) + 1.0
    bounds = [(-1.0, 1.0)] * k + [(-delta_cap, delta_cap)]
    res = lp.lp_max(obj, [(r, ">=", 0.0) for r in rows], bounds)
    if not res.optimal:  # unreachable: p = 0 satisfies every row at delta 0
        raise ConstraintError("relaxation infeasible")
    return res.x[:k], float(res.value), res.pivots


def solve(c: SampledConstraint, delta_min: float = 1e-6,
          warm: np.ndarray | None = None) -> Candidate | None:
    """Globally maximize the worst margin; None when the optimum does not
    clear delta_min.

    A warm-start parameter vector seeds the disjunct choices (each
    disjunction takes the side the vector satisfies better), which gives
    the branch-and-bound an immediate incumbent.  A node is an array of
    per-disjunction choices: 0 undecided, 1 or 2 the side imposed.
    """
    n_disj = len(c.disjunctive)
    best_p = np.zeros(c.dim)
    best_delta = margin(c, best_p) if c.n_rows else 0.0
    nodes = pivots = 0

    def consider(p: np.ndarray):
        nonlocal best_p, best_delta
        d = margin(c, p)
        if d > best_delta:
            best_p, best_delta = p.copy(), d

    def relax(assign: np.ndarray):
        nonlocal pivots
        p_star, bound, lp_pivots = _relaxation(c, assign)
        pivots += lp_pivots
        return p_star, bound

    if warm is not None and n_disj:
        pair = c.disjunctive @ warm
        consider(relax(np.where(pair[:, 0] >= pair[:, 1], 1, 2))[0])

    counter = 0
    heap: list[tuple[float, int, np.ndarray]] = [
        (-math.inf, counter, np.zeros(n_disj, dtype=np.int8))]
    while heap:
        neg_bound, _, assign = heapq.heappop(heap)
        if -neg_bound <= best_delta + _GAP_TOL:
            break
        nodes += 1
        p_star, bound = relax(assign)
        if bound <= best_delta + _GAP_TOL:
            continue
        # branch on the open disjunction the relaxation optimum violates
        # most (the first one among equals)
        undecided = np.flatnonzero(assign == 0)
        gaps = (c.disjunctive[undecided] @ p_star).max(axis=1) - bound
        if not len(gaps) or gaps.min() >= -1e-12:
            # relaxation optimum already satisfies every open disjunction
            consider(p_star)
            continue
        worst = undecided[gaps.argmin()]
        for choice in (1, 2):
            child = assign.copy()
            child[worst] = choice
            counter += 1
            heapq.heappush(heap, (-bound, counter, child))

    if best_delta <= delta_min:
        return None
    return Candidate(best_p, best_delta, nodes, pivots)
