"""Dense bounded-variable primal simplex.

Every solve starts at the lower corner of the box, from a crash basis:
each row whose residual there fits its slack's bounds starts with that
slack basic, and only the other rows get a basic artificial variable.
Phase 1 drives those artificials to zero and is skipped when there are
none, as for the max-margin rows of the candidate search, which all hold
at that corner (Bixby, *Implementing the simplex method: the initial
basis*, ORSA J. Computing 4(3), 1992).  The entering variable
follows Bland's smallest-index rule; the leaving row takes the min ratio
with a largest-pivot tie-break (stability) and smallest index as the last
resort, so every solve is deterministic.  Built for the small, repeatedly
solved programs of the candidate search, where exactness and
reproducibility matter more than raw speed; systems with many rows are
handled by exact row generation on top of the same core.

The kernel is the dense revised simplex on whole arrays: the basic
variables are set through the basis index array, pricing is one boolean
mask over the columns, the step ratios of all basic rows are one array
expression, and the explicit basis inverse takes a masked rank-1 update
(refactorised every ``_REFACTOR_EVERY`` pivots).  Only the leaving-row
tie-break runs in Python, over the rows that can block: its outcome
depends on the order in which rows are visited, so no single ``argmin``
can replace it.

Bit-identity contract: every array operation rounds each element exactly
as the scalar formula it stands for (the same operands, in the same
order), so the pivot sequence, the iterates and the results are fixed to
the last bit by the input.  Golden values in ``tests/test_lp.py`` and
``tests/test_chebyshev.py`` pin this; a change that moves one bit is a
change of algorithm, not of implementation.  The goldens were last
recorded when the crash start replaced the all-artificial start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


@dataclass
class LPResult:
    status: str  # "optimal" or "infeasible"
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0  # basis exchanges over every simplex run of the solve

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def lp_max(c: Sequence[float],
           rows: Sequence[tuple[Sequence[float], str, float]],
           bounds: Sequence[tuple[float, float]]) -> LPResult:
    """Maximize c.x subject to the rows (a, sense, rhs) with sense one of
    '<=', '>=', '=', and finite box bounds on every structural variable.

    Large row systems are solved by row generation: a working subset grows
    with the most violated rows until the subset optimum satisfies every
    row, which certifies global optimality (the subset optimum is an upper
    bound).  Infeasibility of a subset already proves infeasibility.
    """
    if len(rows) <= _DIRECT_ROW_LIMIT:
        return _lp_max_direct(c, rows, bounds)

    struct, le, ge, rhs = _row_arrays(rows, len(c))
    active = list(range(_ROW_BATCH))
    in_set = set(active)
    pivots = 0
    for _ in range(len(rows)):
        res = _lp_max_direct(c, [rows[i] for i in active], bounds)
        pivots += res.pivots
        res.pivots = pivots
        if not res.optimal:
            return res
        excess = struct @ res.x - rhs
        viol = np.where(le, excess, np.where(ge, -excess, np.abs(excess)))
        order = np.argsort(-viol, kind="stable")
        added = 0
        for i in order:
            if viol[i] <= 1e-9:
                break
            if i not in in_set:
                active.append(int(i))
                in_set.add(int(i))
                added += 1
                if added >= _ROW_BATCH:
                    break
        if added == 0:
            return res
    raise LPError("row generation failed to converge")


def _lp_max_direct(c: Sequence[float],
                   rows: Sequence[tuple[Sequence[float], str, float]],
                   bounds: Sequence[tuple[float, float]]) -> LPResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    if len(bounds) != n:
        raise LPError("bounds arity mismatch")
    x_lo, x_hi = np.array(bounds, dtype=float).reshape(n, 2).T
    bad = ~(np.isfinite(x_lo) & np.isfinite(x_hi) & (x_lo <= x_hi))
    if bad.any():
        j = int(bad.argmax())
        raise LPError(
            f"structural bounds must be finite, got [{x_lo[j]}, {x_hi[j]}]")

    m = len(rows)
    if m == 0:
        # optimum sits at a bound of each variable
        x = np.where(c > 0, x_hi, x_lo)
        return LPResult("optimal", x, float(c @ x))
    struct, le, ge, b = _row_arrays(rows, n)

    # columns: n structural | m slack | m artificial
    N = n + 2 * m
    diag = np.arange(m)
    slack, art = n + diag, n + m + diag
    A = np.zeros((m, N))
    A[:, :n] = struct
    A[diag, slack] = 1.0
    lo = np.zeros(N)
    hi = np.zeros(N)
    lo[:n], hi[:n] = x_lo, x_hi
    lo[slack] = np.where(ge, -math.inf, 0.0)
    hi[slack] = np.where(le, math.inf, 0.0)

    # crash start at the corner x = x_lo: a row whose residual there fits
    # its slack's bounds starts with that slack basic and its artificial
    # fixed at 0; every other row keeps its slack at 0 and starts with its
    # artificial basic at |residual|.  The basis is diagonal +-1, so it is
    # its own inverse.
    x = np.zeros(N)
    x[:n] = x_lo
    residual = b - struct @ x_lo
    fits = (residual >= lo[slack]) & (residual <= hi[slack])
    A[diag, art] = np.where(residual >= 0.0, 1.0, -1.0)
    hi[art] = np.where(fits, 0.0, math.inf)
    status = np.full(N, _AT_LO, dtype=int)
    status[slack] = np.where(ge, _AT_HI, _AT_LO)
    basis = np.where(fits, slack, art)
    status[basis] = _BASIC
    x[basis] = np.where(fits, residual, np.abs(residual))
    Binv = np.diag(A[diag, basis])

    pivots = 0
    if not fits.all():
        # phase 1: drive the basic artificials to zero
        c1 = np.zeros(N)
        c1[n + m:] = -1.0
        x, value, pivots = _simplex(A, b, c1, lo, hi, basis, status, x, Binv)
        if value < -1e-7:
            return LPResult("infeasible", pivots=pivots)
        Binv = np.linalg.inv(A[:, basis])

    # phase 2: artificials pinned at zero, real objective
    hi[n + m:] = 0.0
    c2 = np.zeros(N)
    c2[:n] = c
    x, value, more = _simplex(A, b, c2, lo, hi, basis, status, x, Binv)
    return LPResult("optimal", x[:n].copy(), float(value), pivots + more)


def _row_arrays(rows: Sequence[tuple[Sequence[float], str, float]], n: int):
    """Row matrix, '<=' and '>=' masks and right-hand sides of the rows."""
    m = len(rows)
    coeffs, senses, rhs = zip(*rows)
    try:
        struct = np.array(coeffs, dtype=float).reshape(m, n)
    except ValueError:
        for i, a in enumerate(coeffs):
            if np.size(a) != n:
                raise LPError(f"row {i} arity mismatch") from None
        raise
    sense = np.array(senses)
    le, ge = sense == "<=", sense == ">="
    unknown = ~(le | ge | (sense == "="))
    if unknown.any():
        i = int(unknown.argmax())
        raise LPError(f"row {i}: unknown sense {senses[i]!r}")
    return struct, le, ge, np.array(rhs, dtype=float)


def _simplex(A, b, c, lo, hi, basis, status, x, Binv):
    """Run the bounded-variable simplex from a feasible basis in place.

    ``Binv`` is the inverse of the starting basis matrix.  ``basis`` (an
    index array), ``status`` and ``x`` are updated in place; returns x,
    the objective value and the number of basis exchanges.
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
            Binv = np.linalg.inv(A[:, basis])
        else:
            Binv[leave_pos] /= w[leave_pos]
            update = np.abs(w) > 0.0
            update[leave_pos] = False
            np.subtract(Binv, w[:, None] * Binv[leave_pos], out=Binv,
                        where=update[:, None])

    raise LPError("simplex iteration limit exceeded")
