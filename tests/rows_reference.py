"""Point-wise reference for ``chebyshev.build``: the coefficient row of one
point at a time and the per-segment loop that the template's compiled
monomial rows (``model.Template.monomial_rows``) replaced.

``build`` must give bit for bit the rows of ``build`` here, hard-row order
included, and the same blocked sides (``tests/test_chebyshev.py``), and a
mode's compiled monomials at a point must be bit for bit that mode's block
of ``coeff_row`` (``tests/test_model.py``).  The loops are kept as they were, and an
endpoint's membership in the initial and unsafe boxes is decided here,
point by point with ``Box.contains``, so the reference does not share
code with what it checks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from simbarrier.chebyshev import ConstraintError, SampledConstraint
from simbarrier.model import Problem, Segment, Template, _mono_value


def coeff_row(t: Template, mode: int, x: Sequence[float]) -> np.ndarray:
    """Row a with a.p == template_value(t, p, mode, x) for every p."""
    row = np.zeros(t.size)
    sl = t.block_slice(mode)
    row[sl] = [_mono_value(m, x) for m in t.monomials[mode]]
    return row


def flags(prob: Problem, seg: Segment) -> list[bool]:
    """Whether the start is initial, is unsafe, and the end is initial, is
    unsafe: in a closed box of its mode in ``prob.initial``, ``unsafe``."""
    return [any(m == mode and box.contains(x) for m, box in regions)
            for mode, x in ((seg.s_mode, seg.s), (seg.sp_mode, seg.sp))
            for regions in (prob.initial, prob.unsafe)]


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
    blocked: list[list[bool]] = []
    for seg in segments:
        a_s = _unit(coeff_row(tmpl, seg.s_mode, seg.s))
        a_sp = _unit(coeff_row(tmpl, seg.sp_mode, seg.sp))
        s_initial, s_unsafe, sp_initial, sp_unsafe = flags(prob, seg)
        if s_initial:
            hard.append(-a_s)
        if s_unsafe:
            hard.append(a_s)
        if sp_initial:
            hard.append(-a_sp)
        if sp_unsafe:
            hard.append(a_sp)
        disj.append(np.stack([a_s, -a_sp]))
        # a_s >= delta contradicts the initial start's -a_s >= delta, and
        # -a_sp >= delta the unsafe end's a_sp >= delta
        blocked.append([s_initial, sp_unsafe])
    hard_arr = np.array(hard) if hard else np.empty((0, k))
    disj_arr = np.array(disj) if disj else np.empty((0, 2, k))
    return SampledConstraint(k, hard_arr, disj_arr,
                             np.array(blocked, dtype=bool).reshape(-1, 2))
