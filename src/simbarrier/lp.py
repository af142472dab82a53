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
pivots (``_dual_simplex``) then restore primal feasibility, and the primal
simplex, started from that basis, confirms optimality.  Such a solve
returns its final basis on its binding rows (``Basis``: those rows, the
basic columns and the nonbasic columns at their upper bound, as small
integer arrays; a row whose slack is basic is dropped with its slack,
which keeps the basis optimal).  Given back with a system that has the
same rows and some more, it is the next solve's working subset and basis,
so a program that differs from an earlier one by a few rows needs a few
dual pivots instead of a fresh run.

Pivot rules.  The primal entering variable follows Bland's
smallest-index rule; the leaving row takes the min ratio with a
largest-pivot tie-break (stability) and smallest index as the last resort.
The dual leaving row is the basic variable farthest outside its bounds
(the first among equals); the entering column takes the min dual ratio,
the largest pivot among ratios within ``_TOL`` of it, then the smallest
index.  Every solve is deterministic, and each simplex is capped
(``LPError`` past the cap).  Built for the small, repeatedly solved
programs of the candidate search, where exactness and reproducibility
matter more than raw speed.

The kernel is the dense revised simplex on whole arrays: the basic
variables are set through the basis index array, pricing is one boolean
mask over the columns, the step ratios of all basic rows are one array
expression, and the explicit basis inverse takes a masked rank-1 update
(refactorised every ``_REFACTOR_EVERY`` pivots).  Only the primal
leaving-row tie-break runs in Python, over the rows that can block: its
outcome depends on the order in which rows are visited, so no single
``argmin`` can replace it.

Bit-identity contract: in the cold solve, and in the first round of a
row generation that starts without a basis, every array operation rounds
each element exactly as the scalar formula it stands for (the same
operands, in the same order), so the pivot sequence, the iterates and the
results are fixed to the last bit by the input.  Golden values in
``tests/test_lp.py`` and ``tests/test_chebyshev.py`` pin this; a change
that moves one bit there is a change of algorithm, not of implementation.
The warm rounds are deterministic too, but their pivots are another
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
        return _lp_max_direct(c, A, b, lo, hi)

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
        viol = b - A @ x
        order = np.argsort(-viol, kind="stable")
        new = order[viol[order] > 1e-9]
        new = new[~taken[new]][:_ROW_BATCH]
        if not new.size:
            return LPResult(x.copy(), value, pivots, work.binding(active))
        work.add_rows(A[new], b[new])
        active = np.concatenate([active, new])
        taken[new] = True
        pivots += work.dual()
        value, more = work.primal()
        pivots += more
    raise LPError("row generation failed to converge")


def _lp_max_direct(c, A, b, lo, hi) -> LPResult:
    m, n = A.shape
    if m == 0:
        # optimum sits at a bound of each variable
        x = np.where(c > 0, hi, lo)
        return LPResult(x, float(c @ x))
    work = _Working(c, A, b, lo, hi)
    value, pivots = work.primal()
    return LPResult(work.x[:n].copy(), value, pivots)


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
        work.x[work.basis] = 0.0
        work.Binv = _basis_inverse(work.T, work.basis)
        work.x[work.basis] = work.Binv @ (work.b - work.T @ work.x)
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
        """Run the primal simplex from the current basis, which must be
        feasible; returns the optimum and the pivot count."""
        _, value, pivots = _simplex(self.T, self.b, self.obj, self.lo,
                                    self.hi, self.basis, self.status, self.x,
                                    self.Binv)
        return value, pivots

    def dual(self) -> int:
        """Restore primal feasibility of a dual-feasible basis; returns the
        pivot count."""
        return _dual_simplex(self.T, self.b, self.obj, self.lo, self.hi,
                             self.basis, self.status, self.x, self.Binv)

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


def _basis_inverse(T, basis):
    """Inverse of ``T[:, basis]`` for a working program ``T = [A | I]``.

    Let S be the basis positions of structural columns J and P the rows
    whose slack is nonbasic (|P| = |S|).  Solving ``B z = v`` gives
    ``z_S = M^-1 v_P`` with ``M = A[P, J]``, and on each basic slack of a
    row q, ``z = v_q - A[q, J] z_S``; so only M is inverted.
    """
    m, N = T.shape
    n = N - m
    structural = basis < n
    S = structural.nonzero()[0]
    Q = (~structural).nonzero()[0]
    q_rows = basis[Q] - n
    tight = np.ones(m, dtype=bool)
    tight[q_rows] = False
    P = tight.nonzero()[0]
    Binv = np.zeros((m, m))
    Binv[Q, q_rows] = 1.0
    if S.size:
        J = basis[S]
        M_inv = np.linalg.inv(T[np.ix_(P, J)])
        Binv[np.ix_(S, P)] = M_inv
        Binv[np.ix_(Q, P)] = -(T[np.ix_(q_rows, J)] @ M_inv)
    return Binv


def _dual_cap(m, N):
    # the primal simplex's iteration cap
    return 2000 + 200 * (m + N)


def _dual_simplex(A, b, c, lo, hi, basis, status, x, Binv):
    """Run the bounded-variable dual simplex in place from a basis whose
    reduced costs are dual feasible (within ``_TOL``), until every basic
    variable is within its bounds.

    ``basis``, ``status``, ``x`` and ``Binv`` are updated in place;
    returns the number of basis exchanges.  ``x_B`` and the reduced costs
    are updated incrementally between refactorisations.
    """
    m, N = A.shape
    movable = lo != hi
    cap = _dual_cap(m, N)
    pivots = 0

    def refresh():
        x[basis] = Binv @ (b - A @ np.where(status == _BASIC, 0.0, x))
        return c - (c[basis] @ Binv) @ A

    reduced = refresh()
    while True:
        xb = x[basis]
        short = lo[basis] - xb   # > 0 below the lower bound
        over = xb - hi[basis]    # > 0 above the upper bound
        worst = np.maximum(short, over)
        r = int(worst.argmax())
        if not worst[r] > _TOL:
            return pivots
        if pivots >= cap:
            raise LPError("dual simplex iteration limit exceeded")
        # the leaving variable rises to its lower bound or falls to its
        # upper one; x_B[r] moves by -alpha[j] per unit of entering x_j,
        # so an entering column at its lower bound (moving up) needs
        # alpha[j] of the opposite sign to the move, one at its upper
        # bound the same sign
        rise = bool(short[r] > over[r])
        alpha = Binv[r] @ A
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

        w = Binv @ A[:, j]
        out = basis[r]
        bound = lo[out] if rise else hi[out]
        step = (x[out] - bound) / w[r]
        x[basis] -= step * w
        x[j] += step
        x[out] = bound
        status[out] = _AT_LO if rise else _AT_HI
        reduced -= (reduced[j] / alpha[j]) * alpha
        reduced[j] = 0.0
        status[j] = _BASIC
        basis[r] = j

        pivots += 1
        if pivots % _REFACTOR_EVERY == 0:
            Binv[:] = _basis_inverse(A, basis)
            reduced = refresh()
        else:
            Binv[r] /= w[r]
            update = np.abs(w) > 0.0
            update[r] = False
            np.subtract(Binv, w[:, None] * Binv[r], out=Binv,
                        where=update[:, None])


def _simplex(A, b, c, lo, hi, basis, status, x, Binv):
    """Run the bounded-variable primal simplex in place from a feasible
    basis with the inverse ``Binv`` (the identity for the slack basis).

    ``basis`` (an index array), ``status``, ``x`` and ``Binv`` are updated
    in place; returns x, the objective value and the number of basis
    exchanges.
    """
    m, N = A.shape
    movable = lo != hi
    bounded_above = hi != math.inf
    pivots = 0
    max_iters = 2000 + 200 * (m + N)

    for _ in range(max_iters):
        x[basis] = Binv @ (b - A @ np.where(status == _BASIC, 0.0, x))
        y = c[basis] @ Binv
        reduced = c - y @ A

        # Bland's rule: the first non-basic column that improves c.x
        improving = movable & (((status == _AT_LO) & (reduced > _TOL))
                               | ((status == _AT_HI) & (reduced < -_TOL)))
        entering = int(improving.argmax())
        if not improving[entering]:
            return x, float(c @ x), pivots

        direction = 1.0 if status[entering] == _AT_LO else -1.0
        w = Binv @ A[:, entering]

        # step to the bound of each basic variable that can block: moving
        # down to its lower bound (coef > 0) or up to a finite upper bound
        coef = direction * w
        down = coef > _TOL
        blocking = (down | ((coef < -_TOL) & bounded_above[basis])).nonzero()[0]
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
        # basic ones are recomputed from Binv at the top of the loop
        if leave_pos < 0:
            status[entering] = _AT_HI if direction > 0 else _AT_LO
            x[entering] = hi[entering] if direction > 0 else lo[entering]
            continue

        out = basis[leave_pos]
        status[out] = _AT_LO if leave_at_lo else _AT_HI
        x[out] = lo[out] if leave_at_lo else hi[out]
        status[entering] = _BASIC
        basis[leave_pos] = entering

        pivots += 1
        if pivots % _REFACTOR_EVERY == 0:
            Binv[:] = np.linalg.inv(A[:, basis])
        else:
            Binv[leave_pos] /= w[leave_pos]
            update = np.abs(w) > 0.0
            update[leave_pos] = False
            np.subtract(Binv, w[:, None] * Binv[leave_pos], out=Binv,
                        where=update[:, None])

    raise LPError("simplex iteration limit exceeded")
