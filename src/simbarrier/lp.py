"""Dense bounded-variable primal simplex for ``A x >= b``.

``lp_max`` maximizes ``c.x`` over ``A x >= b`` and ``lo <= x <= hi``,
starting every solve from the all-slack basis at the lower corner
``x = lo``, which must satisfy every row (``LPError`` otherwise).  The
max-margin rows ``u.p - delta >= 0`` of the candidate search, with
``|u| = 1`` and ``p`` in ``[-1, 1]^k``, hold there with room to spare: at
``p = -1`` and ``delta = -(sqrt(k) + 1)`` a row's left side is
``-sum(u) + sqrt(k) + 1 >= 1``, since ``|sum(u)| <= sqrt(k)``.  So the
start is feasible and each solve is one simplex run.  The entering variable
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
change of algorithm, not of implementation.  The goldens were recorded
when the solve began to start from the slack basis at the lower corner,
and held unchanged when the solver stopped accepting rows that the corner
violates.
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


@dataclass
class LPResult:
    x: np.ndarray
    value: float
    pivots: int = 0  # basis exchanges over every simplex run of the solve


def lp_max(c, A, b, lo, hi) -> LPResult:
    """Maximize c.x subject to A x >= b and lo <= x <= hi, for a (m, n)
    array ``A`` and finite bounds whose lower corner satisfies every row.

    Large row systems are solved by row generation: a working subset grows
    with the most violated rows until the subset optimum satisfies every
    row, which certifies global optimality (the subset optimum is an upper
    bound).
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

    active = np.arange(_ROW_BATCH)
    taken = np.zeros(b.size, dtype=bool)
    taken[active] = True
    pivots = 0
    for _ in range(b.size):
        res = _lp_max_direct(c, A[active], b[active], lo, hi)
        pivots += res.pivots
        res.pivots = pivots
        viol = b - A @ res.x
        order = np.argsort(-viol, kind="stable")
        new = order[viol[order] > 1e-9]
        new = new[~taken[new]][:_ROW_BATCH]
        if not new.size:
            return res
        active = np.concatenate([active, new])
        taken[new] = True
    raise LPError("row generation failed to converge")


def _lp_max_direct(c, A, b, lo, hi) -> LPResult:
    m, n = A.shape
    if m == 0:
        # optimum sits at a bound of each variable
        x = np.where(c > 0, hi, lo)
        return LPResult(x, float(c @ x))

    # start at the corner x = lo with every slack basic: row i reads
    # A[i].x + s_i = b_i with s_i <= 0, so s_i is the residual there, which
    # the simplex's first step computes.  Columns: n structural | m slack.
    N = n + m
    slack = n + np.arange(m)
    T = np.zeros((m, N))
    T[:, :n] = A
    T[np.arange(m), slack] = 1.0
    t_lo = np.full(N, -math.inf)
    t_hi = np.zeros(N)
    t_lo[:n], t_hi[:n] = lo, hi
    status = np.full(N, _AT_LO, dtype=int)
    status[slack] = _BASIC
    x = np.zeros(N)
    x[:n] = lo
    obj = np.zeros(N)
    obj[:n] = c
    x, value, pivots = _simplex(T, b, obj, t_lo, t_hi, slack, status, x)
    return LPResult(x[:n].copy(), float(value), pivots)


def _simplex(A, b, c, lo, hi, basis, status, x):
    """Run the bounded-variable simplex in place from a feasible basis
    whose matrix is the identity.

    ``basis`` (an index array), ``status`` and ``x`` are updated in place;
    returns x, the objective value and the number of basis exchanges.
    """
    m, N = A.shape
    Binv = np.eye(m)
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
