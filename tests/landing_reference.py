"""Lockstep reference for ``model.land_on_level_set``: the Newton landing
that stepped all rows at once, one value batch and one gradient batch per
step, and that the per-row point loop replaced.

Row r of ``model.land_on_level_set`` must end bit for bit where
``land_on_level_set`` here ends row r, and land where it lands
(``tests/test_model.py``, ``TestLandingReference``).  The loop is kept as
it was: it takes the certificate's batch callables
(``ModeCertificate.value`` and ``grad``), which compile the value and the
gradient apart, and steps with numpy, so the reference shares no stepping
code with what it checks.
"""

from __future__ import annotations

import math

import numpy as np

# a step must cut |V| to at most this share of its value before the step
_CONTRACTION = 0.5


def land_on_level_set(value, grad, x: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, band: float, max_steps: int,
                      patient: bool = False
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps along grad V towards |V| <= band from each row of
    ``x``, each step clipped to the row's box [lo, hi] (arrays of x's
    shape, or one box for all rows); returns the end points and the mask
    of rows that reached the band.

    ``value`` and ``grad`` are V and grad V over the rows of a batch.  A
    row stops without landing where |grad V|^2 is not positive (zero or
    nan) or where its step returns its point.  It also stops without
    landing where V is not finite, or where a step fails to halve |V|
    (|V_new| > 0.5 * |V_old|): Newton's iterates contract near a root, so
    a row that does not has left that region and would creep towards a
    point where grad V vanishes and V does not (Deuflhard, *Newton Methods
    for Nonlinear Problems*, 2004, ch. 1-3).  With ``patient``, a row
    skips these two rules and steps on; where V is not finite it then
    never lands.  A row is tested at most ``max_steps + 1`` times: before
    each step, and once after the last.
    """
    x = x.copy()
    landed = np.zeros(len(x), dtype=bool)
    if not len(x):
        return x, landed
    # the rows still stepping: their indices, points and boxes; a row's
    # point goes back to x when it leaves them
    rows, xa = np.arange(len(x)), x
    per_row = lo.ndim == 2
    limit = math.inf                     # each row's bound on |V|
    for _ in range(max_steps):
        v = value(xa)
        near = np.abs(v) <= band
        on = ~near
        if not patient:
            on &= np.isfinite(v) & (np.abs(v) <= limit)
        if not on.all():
            landed[rows[near]] = True
            x[rows[~on]] = xa[~on]
            if not on.any():
                return x, landed
            rows, xa, v = rows[on], xa[on], v[on]
            if per_row:
                lo, hi = lo[on], hi[on]
        g = grad(xa)
        n2 = (g[:, None, :] @ g[:, :, None])[:, 0, 0]    # model.row_dot
        go = n2 > 0.0
        if not go.all():
            x[rows[~go]] = xa[~go]
            if not go.any():
                return x, landed
            rows, xa, v, g, n2 = rows[go], xa[go], v[go], g[go], n2[go]
            if per_row:
                lo, hi = lo[go], hi[go]
        step = np.clip(xa - (v / n2)[:, None] * g, lo, hi)
        # a row whose step returns its own point, bit for bit, would repeat
        # it at every later step and never land: it stops there
        moves = (step.view(np.int64) != xa.view(np.int64)).any(axis=1)
        if not moves.all():
            x[rows[~moves]] = xa[~moves]
            if not moves.any():
                return x, landed
            rows, step, v = rows[moves], step[moves], v[moves]
            if per_row:
                lo, hi = lo[moves], hi[moves]
        xa = step
        limit = _CONTRACTION * np.abs(v)
    landed[rows] = np.abs(value(xa)) <= band
    x[rows] = xa
    return x, landed
