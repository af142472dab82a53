"""Dense bounded-variable simplex for ``A x >= b``.

``lp_max`` maximizes ``c.x`` over ``A x >= b`` and ``lo <= x <= hi``,
where the lower corner ``x = lo`` must satisfy every row (``LPError``
otherwise).  The max-margin rows ``u.p - delta >= 0`` of the candidate
search, with ``|u| = 1`` and ``p`` in ``[-1, 1]^k``, hold there with room
to spare: at ``p = -1`` and ``delta = -(sqrt(k) + 1)`` a row's left side
is ``-sum(u) + sqrt(k) + 1 >= 1``, since ``|sum(u)| <= sqrt(k)``.

A system of at most ``_DIRECT_ROW_LIMIT`` rows is solved cold: one primal
simplex run from the all-slack basis at the lower corner, which is
feasible.  A larger system is solved by exact row generation: a working
subset, first its leading ``_ROW_BATCH`` rows solved cold, grows by the
most violated rows until its optimum satisfies every row, which certifies
global optimality (the subset optimum is an upper bound).  Each round
after the first keeps the previous round's basis: the new rows' slacks
enter it as basic, which leaves it dual feasible, and the basis inverse
grows by the block formula ``[[B^-1, 0], [-R_B B^-1, I]]``.  Dual simplex
pivots then restore primal feasibility, and the primal simplex, started
from that basis, confirms optimality.  Such a solve returns its final
basis on its binding rows (``Basis``: those rows, the basic columns and
the nonbasic columns at their upper bound, as small integer arrays; a row
whose slack is basic is dropped with its slack, which keeps the basis
optimal).  Given back with a system that has the same rows and some more,
it is the next solve's working subset and basis, so a program that
differs from an earlier one by a few rows needs a few dual pivots instead
of a fresh run.  The fork by size is measured: sending systems of at most
80 rows through row generation too moved pendulum's synthesis (seed 0)
from 3 to 5 rounds, since those optima are often not unique and the
rounds that keep a basis end on another vertex.

Pivot rules.  The primal entering variable follows Bland's
smallest-index rule; the leaving row takes the min ratio with a
largest-pivot tie-break (stability) and smallest index as the last resort.
The dual leaving row is the basic variable farthest outside its bounds
(the first among equals); the entering column takes the min dual ratio,
the largest pivot among ratios within ``_TOL`` of it, then the smallest
index.  Every solve is deterministic.  Built for the small, repeatedly
solved programs of the candidate search, where exactness and
reproducibility matter more than raw speed.

The kernel is the dense revised simplex on whole arrays, kept by
``_Working``: the primal and the dual loop are its two methods and share
the rest.  One pricing step sets ``x_B = B^-1 (b - A x_N)`` and the
reduced costs ``c - (c_B B^-1) A``: the primal runs it every iteration,
the dual at its start and after each refactorisation, updating both
incrementally in between.  One basis exchange sets the statuses and the
basis position and gives the explicit basis inverse a masked rank-1
update, or, every ``_REFACTOR_EVERY`` pivots of a run, the one
refactorisation, ``inv(A_B)``, which is also how a restart builds its
inverse.  One iteration cap bounds both loops (``LPError`` past it).
Pricing is one boolean mask over the columns and the step ratios of all
basic rows are one array expression.  Only the primal leaving-row
tie-break runs in Python, over the rows that can block: its outcome
depends on the order in which rows are visited, so no single ``argmin``
can replace it.

Bit-identity contract: in the cold solve, and in the first round of a
row generation that starts without a basis, every array operation rounds
each element exactly as the scalar formula it stands for (the same
operands, in the same order), so the pivot sequence, the iterates and the
results are fixed to the last bit by the input.  Golden values in
``tests/test_lp.py`` and ``tests/test_chebyshev.py`` pin this; a change
that moves one bit there is a change of algorithm, not of implementation.
The later rounds are deterministic too, but their pivots are another
algorithm's: they update ``x_B`` and the reduced costs incrementally, and
their optimum may be another vertex of the same optimal face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9
_REFACTOR_EVERY = 40
_DIRECT_ROW_LIMIT = 80
_ROW_BATCH = 40

_AT_LO = 0
_AT_HI = 1
_BASIC = 2


class LPError(RuntimeError):
    pass


@dataclass(frozen=True)
class Basis:
    """The final basis of a row-generation solve, on its binding rows.

    The working program has the columns ``x`` (n structural) and one slack
    per working row, the slack of ``rows[i]`` being column ``n + i``.
    ``rows`` indexes the rows of the solve's ``A``; ``basic`` lists the
    basic columns by basis position (here the structural ones only: every
    kept row's slack is nonbasic); ``at_hi`` marks, over all columns, the
    nonbasic ones at their upper bound.
    """
    rows: np.ndarray
    basic: np.ndarray
    at_hi: np.ndarray


@dataclass
class LPResult:
    x: np.ndarray
    value: float
    pivots: int = 0  # basis exchanges over every simplex run of the solve
    basis: Basis | None = None  # row generation's final basis, else None


def lp_max(c, A, b, lo, hi, start: Basis | None = None) -> LPResult:
    """Maximize c.x subject to A x >= b and lo <= x <= hi, for a (m, n)
    array ``A`` and finite bounds whose lower corner satisfies every row.

    More than ``_DIRECT_ROW_LIMIT`` rows are solved by row generation
    (see the module docstring), which returns its final ``Basis``.
    ``start`` is such a basis of an earlier solve over rows of this ``A``
    (``start.rows`` index this ``A``): row generation then starts from it,
    with the rows outside its working set as the candidates to add.  A
    system of at most ``_DIRECT_ROW_LIMIT`` rows is solved cold whatever
    ``start`` says, and returns no basis.
    """
    c, A, b, lo, hi = (np.asarray(v, dtype=float) for v in (c, A, b, lo, hi))
    n = c.size
    if A.shape != (b.size, n) or lo.shape != (n,) or hi.shape != (n,):
        raise LPError(f"arity mismatch: c {c.shape}, A {A.shape}, "
                      f"b {b.shape}, bounds {lo.shape} and {hi.shape}")
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
    if bad.any():
        j = int(bad.argmax())
        raise LPError(
            f"structural bounds must be finite, got [{lo[j]}, {hi[j]}]")
    violated = b - A @ lo > 0.0
    if violated.any():
        raise LPError(f"row {int(violated.argmax())} is violated at the "
                      "lower corner of the bounds")
    if b.size <= _DIRECT_ROW_LIMIT:
        work = _Working(c, A, b, lo, hi)
        value, pivots = work.primal()
        return LPResult(work.x[:n].copy(), value, pivots)

    if start is None:
        active = np.arange(_ROW_BATCH)
        work = _Working(c, A[active], b[active], lo, hi)
        value, pivots = work.primal()
    else:
        active = start.rows
        work = _Working.restart(c, A, b, lo, hi, start)
        value, pivots = float(work.obj @ work.x), 0
    taken = np.zeros(b.size, dtype=bool)
    taken[active] = True
    for _ in range(b.size):
        x = work.x[:n]
        new = _most_violated(b - A @ x, taken)
        if not new.size:
            return LPResult(x.copy(), value, pivots, work.binding(active))
        work.add_rows(A[new], b[new])
        active = np.concatenate([active, new])
        taken[new] = True
        pivots += work.dual()
        value, more = work.primal()
        pivots += more
    raise LPError("row generation failed to converge")


def _most_violated(viol, taken) -> np.ndarray:
    """The indices of at most ``_ROW_BATCH`` rows not yet ``taken`` whose
    violation ``viol`` exceeds 1e-9, most violated first, ties in index
    order.  Only those rows are sorted, which gives the rows, in the same
    order, of a stable sort of all of ``-viol`` filtered afterwards."""
    rows = np.flatnonzero((viol > 1e-9) & ~taken)
    return rows[np.argsort(-viol[rows], kind="stable")][:_ROW_BATCH]


class _Working:
    """The working rows ``A x >= b`` as ``[A | I] (x, s) = b`` with slacks
    ``s <= 0`` (``T``, ``b``; column bounds ``lo``, ``hi`` and objective
    ``obj``), and a basis of it: the basic columns by position, each
    column's status and value, and the basis inverse."""

    def __init__(self, c, A, b, lo, hi):
        # start at the corner x = lo with every slack basic: row i reads
        # A[i].x + s_i = b_i with s_i <= 0, so s_i is the residual there,
        # which the simplex's first step computes.  Columns: n structural
        # | m slack.
        m, n = A.shape
        N = n + m
        slack = n + np.arange(m)
        self.T = np.zeros((m, N))
        self.T[:, :n] = A
        self.T[np.arange(m), slack] = 1.0
        self.b = b
        self.lo = np.full(N, -math.inf)
        self.hi = np.zeros(N)
        self.lo[:n], self.hi[:n] = lo, hi
        self.status = np.full(N, _AT_LO, dtype=int)
        self.status[slack] = _BASIC
        self.x = np.zeros(N)
        self.x[:n] = lo
        self.obj = np.zeros(N)
        self.obj[:n] = c
        self.basis = slack
        self.Binv = np.eye(m)

    @classmethod
    def restart(cls, c, A, b, lo, hi, start: Basis) -> _Working:
        """The working rows ``start.rows`` of ``A x >= b`` at the basis
        ``start``, with the basic values computed from it."""
        work = cls(c, A[start.rows], b[start.rows], lo, hi)
        work.basis = start.basic.astype(int)
        work.status = np.where(start.at_hi, _AT_HI, _AT_LO)
        work.status[work.basis] = _BASIC
        work.x = np.where(start.at_hi, work.hi, work.lo)
        work._refactor()
        work._price()
        return work

    def binding(self, rows) -> Basis:
        """The basis on the working rows ``rows`` whose slack is nonbasic.

        A row whose slack is basic is not binding at this vertex; dropping
        it together with its slack column leaves a nonsingular basis, and
        an optimal one.  What is left is one row per basic structural.
        """
        n = self.T.shape[1] - self.T.shape[0]
        tight = self.status[n:] != _BASIC
        kept = np.concatenate([np.ones(n, dtype=bool), tight])
        return Basis(rows[tight].astype(np.int32),
                     self.basis[self.basis < n].astype(np.int32),
                     self.status[kept] == _AT_HI)


    def primal(self) -> tuple[float, int]:
        """Run the bounded-variable primal simplex from the current basis,
        which must be feasible; returns the optimum and the pivot count.
        Every iteration prices in full (``_price``)."""
        lo, hi, basis, status, x = (self.lo, self.hi, self.basis,
                                     self.status, self.x)
        movable = lo != hi
        bounded_above = hi != math.inf
        pivots = 0
        for _ in range(self._cap()):
            reduced = self._price()

            # Bland's rule: the first non-basic column that improves c.x
            improving = movable & (((status == _AT_LO) & (reduced > _TOL))
                                   | ((status == _AT_HI) & (reduced < -_TOL)))
            entering = int(improving.argmax())
            if not improving[entering]:
                return float(self.obj @ x), pivots

            direction = 1.0 if status[entering] == _AT_LO else -1.0
            w = self.Binv @ self.T[:, entering]

            # step to the bound of each basic variable that can block: moving
            # down to its lower bound (coef > 0) or up to a finite upper bound
            coef = direction * w
            down = coef > _TOL
            blocking = (down | ((coef < -_TOL)
                                & bounded_above[basis])).nonzero()[0]
            down = down[blocking]
            k = basis[blocking]
            gap = np.where(down, x[k] - lo[k], hi[k] - x[k])
            ratio = gap / np.where(down, coef[blocking], -coef[blocking])
            ratio = np.where(ratio < 0.0, 0.0, ratio)  # max(ratio, 0.0)

            # smallest step that drives a basic variable (or the entering
            # variable itself) to a bound; among near-tied blockers prefer the
            # largest pivot magnitude (numerical stability), then the smallest
            # variable index (determinism).  The window moves with each row
            # taken, so the rows are visited in order.
            t_best = float(hi[entering] - lo[entering])
            leave_pos = -1  # -1 means bound flip
            leave_var = entering
            leave_at_lo = True
            leave_pivot = 0.0
            for r, t, var, pivot, at_lo in zip(
                    blocking.tolist(), ratio.tolist(), k.tolist(),
                    np.abs(w[blocking]).tolist(), down.tolist()):
                if t < t_best - _TOL:
                    take = True
                elif t < t_best + _TOL:
                    if leave_pos >= 0:
                        take = (pivot > leave_pivot * (1.0 + 1e-12)
                                or (pivot >= leave_pivot * (1.0 - 1e-12)
                                    and var < leave_var))
                    else:
                        take = t <= t_best
                else:
                    take = False
                if take:
                    t_best = min(t, t_best)
                    leave_pos = r
                    leave_var = var
                    leave_at_lo = at_lo
                    leave_pivot = pivot
            if t_best == math.inf:
                raise LPError("unbounded program despite box bounds")

            # only the variables leaving for a bound need a value here: the
            # basic ones are priced again at the top of the loop
            if leave_pos < 0:
                status[entering] = _AT_HI if direction > 0 else _AT_LO
                x[entering] = hi[entering] if direction > 0 else lo[entering]
                continue
            pivots += 1
            self._exchange(leave_pos, entering, w, not leave_at_lo, pivots)
        raise LPError("simplex iteration limit exceeded")

    def dual(self) -> int:
        """Run the bounded-variable dual simplex from a basis whose reduced
        costs are dual feasible (within ``_TOL``) until every basic
        variable is within its bounds; returns the pivot count.  ``x_B``
        and the reduced costs are priced at the start and after each
        refactorisation, and updated incrementally in between."""
        lo, hi, basis, status, x = (self.lo, self.hi, self.basis,
                                     self.status, self.x)
        movable = lo != hi
        pivots = 0
        reduced = self._price()
        for _ in range(self._cap()):
            xb = x[basis]
            short = lo[basis] - xb   # > 0 below the lower bound
            over = xb - hi[basis]    # > 0 above the upper bound
            worst = np.maximum(short, over)
            r = int(worst.argmax())
            if not worst[r] > _TOL:
                return pivots
            # the leaving variable rises to its lower bound or falls to its
            # upper one; x_B[r] moves by -alpha[j] per unit of entering x_j,
            # so an entering column at its lower bound (moving up) needs
            # alpha[j] of the opposite sign to the move, one at its upper
            # bound the same sign
            rise = bool(short[r] > over[r])
            alpha = self.Binv[r] @ self.T
            toward = alpha if rise else -alpha
            at_lo = status == _AT_LO
            at_hi = status == _AT_HI
            eligible = movable & ((at_lo & (toward < -_TOL))
                                  | (at_hi & (toward > _TOL)))
            cols = eligible.nonzero()[0]
            if not cols.size:
                raise LPError("the working rows have no feasible point")
            # dual ratio test: the reduced costs stay dual feasible
            slack = np.maximum(np.where(at_lo[cols], -reduced[cols],
                                        reduced[cols]), 0.0)
            size = np.abs(alpha[cols])
            ratio = slack / size
            near = (ratio <= ratio.min() + _TOL).nonzero()[0]
            j = int(cols[near[int(size[near].argmax())]])

            w = self.Binv @ self.T[:, j]
            out = basis[r]
            step = (x[out] - (lo[out] if rise else hi[out])) / w[r]
            x[basis] -= step * w
            x[j] += step
            reduced -= (reduced[j] / alpha[j]) * alpha
            reduced[j] = 0.0
            pivots += 1
            if self._exchange(r, j, w, not rise, pivots):
                reduced = self._price()
        raise LPError("dual simplex iteration limit exceeded")

    def _cap(self) -> int:
        """The iteration cap of one simplex run, primal or dual."""
        m, N = self.T.shape
        return 2000 + 200 * (m + N)

    def _price(self) -> np.ndarray:
        """Set ``x_B = B^-1 (b - A x_N)`` and return the reduced costs
        ``c - (c_B B^-1) A``."""
        self.x[self.basis] = self.Binv @ (
            self.b - self.T @ np.where(self.status == _BASIC, 0.0, self.x))
        y = self.obj[self.basis] @ self.Binv
        return self.obj - y @ self.T

    def _refactor(self):
        self.Binv = np.linalg.inv(self.T[:, self.basis])

    def _exchange(self, r, j, w, to_hi, pivots) -> bool:
        """Column ``j`` enters the basis at position ``r``, whose variable
        leaves for its upper bound (``to_hi``) or its lower one; ``w`` is
        ``B^-1 A_j``.  ``B^-1`` takes the rank-1 update, or is refactorised
        when ``pivots``, this run's count with this exchange, is a multiple
        of ``_REFACTOR_EVERY``; returns whether it was."""
        out = self.basis[r]
        self.status[out] = _AT_HI if to_hi else _AT_LO
        self.x[out] = self.hi[out] if to_hi else self.lo[out]
        self.status[j] = _BASIC
        self.basis[r] = j
        if pivots % _REFACTOR_EVERY == 0:
            self._refactor()
            return True
        Binv = self.Binv
        Binv[r] /= w[r]
        update = np.abs(w) > 0.0
        update[r] = False
        np.subtract(Binv, w[:, None] * Binv[r], out=Binv,
                    where=update[:, None])
        return False

    def add_rows(self, A, b):
        """Append rows ``A x >= b`` with their slacks basic.

        The slack of appended row j is column ``n + m + j``, after the
        present slacks.  The basis matrix becomes ``[[B, 0], [R_B, I]]``,
        where ``R_B`` is the new rows on the basic columns, so its inverse
        is ``[[B^-1, 0], [-R_B B^-1, I]]``; ``R_B`` is zero on the basic
        slacks.
        """
        m, N = self.T.shape
        n = N - m
        r = len(b)
        T = np.zeros((m + r, N + r))
        T[:m, :N] = self.T
        T[m:, :n] = A
        T[m + np.arange(r), N + np.arange(r)] = 1.0
        Binv = np.zeros((m + r, m + r))
        Binv[:m, :m] = self.Binv
        structural = (self.basis < n).nonzero()[0]
        Binv[m:, :m] = -(A[:, self.basis[structural]] @ self.Binv[structural])
        Binv[m + np.arange(r), m + np.arange(r)] = 1.0
        self.T, self.Binv = T, Binv
        self.b = np.concatenate([self.b, b])
        self.lo = np.concatenate([self.lo, np.full(r, -math.inf)])
        self.hi = np.concatenate([self.hi, np.zeros(r)])
        self.obj = np.concatenate([self.obj, np.zeros(r)])
        self.status = np.concatenate([self.status, np.full(r, _BASIC)])
        self.x = np.concatenate([self.x, np.zeros(r)])
        self.basis = np.concatenate([self.basis, N + np.arange(r)])
