"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from simbarrier import expr as ex
from simbarrier import model
from simbarrier.model import Box, ModeDef, Problem, ResetRule, Template


# ---------------------------------------------------------------------------
# random expression trees (total on the reals: guarded ln/sqrt/div)

def rand_expr(rng: np.random.Generator, nvars: int, depth: int) -> ex.Expr:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ex.Var(int(rng.integers(nvars)))
        return ex.Const(round(float(rng.uniform(-2.0, 2.0)), 3))
    r = rng.random()
    sub = lambda: rand_expr(rng, nvars, depth - 1)
    if r < 0.20:
        return ex.Add(sub(), sub())
    if r < 0.35:
        return ex.Sub(sub(), sub())
    if r < 0.50:
        return ex.Mul(sub(), sub())
    if r < 0.60:
        return ex.Neg(sub())
    if r < 0.70:
        return (ex.Sin if rng.random() < 0.5 else ex.Cos)(sub())
    if r < 0.78:
        return ex.Pow(sub(), int(rng.integers(0, 4)))
    if r < 0.86:
        # denominator >= 1 keeps division total
        return ex.Div(sub(), ex.Add(ex.Pow(sub(), 2), ex.Const(1.0)))
    if r < 0.94:
        return ex.Ln(ex.Add(ex.Pow(sub(), 2), ex.Const(1.0)))
    return ex.Sqrt(ex.Add(ex.Pow(sub(), 2), ex.Const(0.5)))


# ---------------------------------------------------------------------------
# small systems

def line_problem(flow: str = "1", omega=(-1.0, 1.0), init=(-0.9, -0.8),
                 unsafe=(0.8, 0.9)) -> Problem:
    """One-dimensional single-mode system."""
    return Problem(
        state_vars=("x",),
        dist_vars=(),
        dist_box=Box((), ()),
        modes=(ModeDef("m", Box((omega[0],), (omega[1],)),
                       (ex.parse(flow, ["x"]),)),),
        resets=(),
        initial=((0, Box((init[0],), (init[1],))),),
        unsafe=((0, Box((unsafe[0],), (unsafe[1],))),),
    )


def sawtooth_problem(reset_to: float = 0.0, init=(-1.0, -0.5),
                     unsafe=(1.5, 1.8)) -> Problem:
    """dx/dt = 1 with a reset back to ``reset_to`` at x = 1."""
    return Problem(
        state_vars=("x",),
        dist_vars=(),
        dist_box=Box((), ()),
        modes=(ModeDef("m", Box((-2.0,), (2.0,)), (ex.parse("1", ["x"]),)),),
        resets=(ResetRule(
            source=0, guard=Box((1.0,), (1.0,)), target=0,
            fwd=(ex.Const(reset_to),),
            inv=(ex.Const(1.0),), image=Box((reset_to,), (reset_to,))),),
        initial=((0, Box((init[0],), (init[1],))),),
        unsafe=((0, Box((unsafe[0],), (unsafe[1],))),),
    )


def shared_guard_doc() -> dict:
    """Modes a, b, c with flow -1 and two identity resets on one guard,
    a -> b, then a -> c."""
    return {"variables": ["x"],
            "modes": [{"name": name, "omega": [[-2, 2]], "flow": ["-1"]}
                      for name in "abc"],
            "resets": [{"source": "a", "guard": [[0, 1]], "target": target,
                        "map": ["x"], "inverse": ["x"], "image": [[0, 1]]}
                       for target in "bc"],
            "init": [{"mode": "a", "box": [[-2, -1.5]]}],
            "unsafe": [{"mode": "a", "box": [[1.8, 2]]}],
            "template": "linear"}


# V_a = x - 1.5, V_b = -1, V_c = 1: the reset to b keeps the sign, the
# reset to c, the second rule, does not
SHARED_GUARD_P = (-1.5, 1.0, -1.0, 0.0, 1.0, 0.0)


def linear_template_1d() -> Template:
    return Template((((0,), (1,)),))


# ---------------------------------------------------------------------------
# independent oracles

def rk4_endpoint(f, x0: np.ndarray, t_end: float, h: float) -> np.ndarray:
    """Fixed-step classical Runge-Kutta, the reference integrator."""
    x = np.asarray(x0, dtype=float)
    t = 0.0
    while t < t_end - 1e-15:
        step = min(h, t_end - t)
        k1 = f(x)
        k2 = f(x + 0.5 * step * k1)
        k3 = f(x + 0.5 * step * k2)
        k4 = f(x + step * k3)
        x = x + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += step
    return x


def grid_max_margin(hard: np.ndarray, disj: np.ndarray, k: int,
                    res: float = 1e-3) -> float:
    """Brute-force grid oracle for the max-margin problem over [-1, 1]^k.

    Evaluates min(hard margins, per-disjunction max) on a full grid and
    returns the best value found.  Only sensible for k <= 2 at res 1e-3.
    """
    axis = np.arange(-1.0, 1.0 + res / 2, res)
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    best = -np.inf
    for chunk in np.array_split(pts, max(1, len(pts) // 200_000)):
        worst = np.full(len(chunk), np.inf)
        if len(hard):
            worst = np.minimum(worst, (chunk @ hard.T).min(axis=1))
        if len(disj):
            a = chunk @ disj[:, 0, :].T
            b = chunk @ disj[:, 1, :].T
            worst = np.minimum(worst, np.maximum(a, b).min(axis=1))
        m = float(worst.max())
        if m > best:
            best = m
    return best


def lp_max_margin_oracle(hard: np.ndarray, disj: np.ndarray, k: int) -> float:
    """Exact oracle: enumerate all disjunct assignments, solve each pure
    LP with scipy, take the best.  Independent of the in-repo simplex."""
    from itertools import product

    from scipy.optimize import linprog

    best = -math.inf
    choices = list(product([0, 1], repeat=len(disj))) if len(disj) else [()]
    for pick in choices:
        rows = [np.append(-r, 1.0) for r in hard]
        rows += [np.append(-disj[j, c, :], 1.0) for j, c in enumerate(pick)]
        # maximize delta == minimize -delta; rows encode r.p - delta >= 0
        c = np.zeros(k + 1)
        c[-1] = -1.0
        bounds = [(-1, 1)] * k + [(-k - 2, k + 2)]
        if rows:
            res = linprog(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                          bounds=bounds, method="highs")
        else:
            res = linprog(c, bounds=bounds, method="highs")
        assert res.success
        best = max(best, -res.fun)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
