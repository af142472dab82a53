"""Problem data model: boxes, modes, resets, templates, segments, hits.

A safety verification problem bundles a mode set with box-shaped state
spaces, per-mode flow expressions, optional invertible reset rules, and
box-shaped initial and unsafe regions.  Certificate templates are linear
in their parameters with a per-mode monomial basis.  The model owns the
compiled code, each piece built at first use: a mode's flow compiles on
the mode, a reset's map and its Jacobian on the rule, the flows'
Jacobians and the time-reversed problem on the problem, and a
candidate's code on its ``Certificate``.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .expr import Expr


class ProblemFormatError(ValueError):
    """Problem document violates the schema or an internal consistency rule."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box bound arity mismatch")
        for a, b in zip(self.lo, self.hi):
            if not (math.isfinite(a) and math.isfinite(b)) or a > b:
                raise ValueError(f"empty or unbounded box dimension [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x: Sequence[float]) -> bool:
        return all(a <= v <= b for a, v, b in zip(self.lo, x, self.hi))

    def midpoint(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def volume(self) -> float:
        return math.prod(self.widths())

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + rng.random(self.dim) * (hi - lo)


def vertices(b: Box) -> list[tuple[float, ...]]:
    """All corner points in lexicographic low/high order, deduplicated."""
    corners = itertools.product(*((lo, hi) for lo, hi in zip(b.lo, b.hi)))
    return list(dict.fromkeys(corners))


def bloat(b: Box, factor: float) -> Box:
    """Scale each dimension about its midpoint by ``factor`` >= 1."""
    if factor < 1.0:
        raise ValueError("bloat factor must be >= 1")
    lo, hi = [], []
    for a, c in zip(b.lo, b.hi):
        mid = 0.5 * (a + c)
        lo.append(mid - factor * (mid - a))
        hi.append(mid + factor * (c - mid))
    return Box(tuple(lo), tuple(hi))


def _jacobian(fs: Sequence[Expr], cols: int):
    """The Jacobian of ``fs`` in the variables ``0 .. cols - 1`` over the
    rows of a batch, of shape (k, len(fs), cols): one ``compile_batch``."""
    batch = ex.compile_batch([ex.differentiate(f, j)
                              for f in fs for j in range(cols)])
    return lambda z: batch(z).reshape(len(z), len(fs), cols)


@dataclass(frozen=True)
class ModeDef:
    name: str
    omega: Box
    flow: tuple[Expr, ...]

    @functools.cached_property
    def flow_rows(self):
        """The flow over the rows of (state, disturbance) points, compiled
        at first use: ``expr.compile_batch`` of ``flow``."""
        return ex.compile_batch(self.flow)


@dataclass(frozen=True)
class ResetRule:
    source: int
    guard: Box
    target: int
    fwd: tuple[Expr, ...]
    inv: tuple[Expr, ...] | None = None
    image: Box | None = None

    @property
    def invertible(self) -> bool:
        return self.inv is not None and self.image is not None

    @functools.cached_property
    def map_rows(self):
        """The forward map over the rows of points, compiled at first use:
        ``expr.compile_batch`` of ``fwd``."""
        return ex.compile_batch(self.fwd)

    @functools.cached_property
    def map_jacobian(self):
        """The forward map's Jacobian over the rows of points, of shape
        (k, n, n), compiled at first use."""
        return _jacobian(self.fwd, len(self.fwd))

    @functools.cached_property
    def map_box(self):
        """The forward map's enclosure over rows of boxes, compiled at
        first use: ``expr.compile_interval`` of ``fwd``."""
        return ex.compile_interval(self.fwd)

    @functools.cached_property
    def reversed(self) -> "ResetRule":
        """The rule of the time-reversed problem: from the image back to
        the guard by the inverse map, built at first use, so the load's
        inverse spot check and the backward rides share its compiled
        ``map_rows``."""
        return ResetRule(source=self.target, guard=self.image,
                         target=self.source, fwd=self.inv, inv=self.fwd,
                         image=self.guard)


@dataclass(frozen=True)
class Problem:
    state_vars: tuple[str, ...]
    dist_vars: tuple[str, ...]
    dist_box: Box              # Box((), ()) without disturbances
    modes: tuple[ModeDef, ...]
    resets: tuple[ResetRule, ...]
    initial: tuple[tuple[int, Box], ...]
    unsafe: tuple[tuple[int, Box], ...]

    @property
    def dim(self) -> int:
        return len(self.state_vars)

    @property
    def n_dist(self) -> int:
        return len(self.dist_vars)

    @functools.cached_property
    def flow_jacobians(self) -> tuple:
        """Per mode, the flow's Jacobian in the state and disturbance
        columns over the rows of (state, disturbance) points, of shape
        (k, n, n + l), compiled at first use."""
        return tuple(_jacobian(m.flow, self.dim + self.n_dist)
                     for m in self.modes)

    @functools.cached_property
    def flow_boxes(self) -> tuple[Box, ...]:
        """Per mode, the box of (state, disturbance) points: omega, then
        the disturbance box."""
        return tuple(Box(m.omega.lo + self.dist_box.lo,
                         m.omega.hi + self.dist_box.hi) for m in self.modes)

    @functools.cached_property
    def dist_vertices(self) -> tuple[np.ndarray, ...]:
        """The disturbance box's corners (``vertices``); without
        disturbances, one empty disturbance."""
        return tuple(np.asarray(v, dtype=float)
                     for v in vertices(self.dist_box))

    @functools.cached_property
    def reversed(self) -> "Problem":
        """The time-reversed problem: negated flows, inverted resets,
        swapped initial and unsafe regions; built at first use.  Raises
        ValueError for a reset without a declared inverse."""
        for i, rule in enumerate(self.resets):
            if not rule.invertible:
                raise ValueError(
                    f"reset {i} has no declared inverse; backward simulation "
                    "requires invertible resets")
        modes = tuple(
            ModeDef(m.name, m.omega, tuple(ex.negated(e) for e in m.flow))
            for m in self.modes)
        return Problem(self.state_vars, self.dist_vars, self.dist_box, modes,
                       tuple(r.reversed for r in self.resets),
                       initial=self.unsafe, unsafe=self.initial)

    def mode_resets(self, mode: int) -> list[ResetRule]:
        return [r for r in self.resets if r.source == mode]

    def vertex_drifts(self, mode: int, x: np.ndarray, g: np.ndarray):
        """The drift ``g . f`` and ``|g| * |f|`` at each row of ``x`` for
        each disturbance vertex (``dist_vertices``): two (k, vertices)
        arrays, ``g`` being grad V at ``x`` and ``f`` mode ``mode``'s flow
        at the row and the vertex.

        The flow is evaluated once, on one stacked batch of every row at
        every vertex (row r at vertex v is batch row ``r * vertices + v``);
        without disturbances that batch is ``x`` itself.  Rows are
        independent under ``compile_batch`` and ``row_dot``, so each entry
        is bit for bit the drift of its row and vertex alone."""
        k, n_vert = len(x), len(self.dist_vertices)
        g_norm = np.sqrt(row_dot(g, g))
        if self.n_dist:
            cols = x.shape[1] + self.n_dist
            z = np.empty((k, n_vert, cols))
            z[:, :, :x.shape[1]] = x[:, None]
            z[:, :, x.shape[1]:] = self.dist_vertices
            z = z.reshape(k * n_vert, cols)
            g = g.repeat(n_vert, 0)
        else:
            z = x
        f = self.modes[mode].flow_rows(z)
        f_norm = np.sqrt(row_dot(f, f)).reshape(k, n_vert)
        return row_dot(g, f).reshape(k, n_vert), g_norm[:, None] * f_norm


@dataclass(frozen=True)
class Segment:
    """The start and end point of one simulation run, each with its mode."""

    s_mode: int
    s: tuple[float, ...]
    sp_mode: int
    sp: tuple[float, ...]


# the kinds of counter-example, by the condition they violate (1 to 4)
KINDS = ("initial", "unsafe", "transversality", "reset")


class Hit(NamedTuple):
    """A counter-example point, from a falsifier search or a verifier's
    witness: the search's value (None for a verifier's witness), the kind
    (one of ``KINDS``), the mode, the state point and, for the drift
    condition, the disturbance, for the reset condition, the rule."""
    value: float | None
    kind: str
    mode: int
    x: np.ndarray
    d: np.ndarray | None = None
    rule: ResetRule | None = None


Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Template:
    """Per-mode monomial bases for a certificate linear in its parameters.

    Parameter blocks are concatenated in mode declaration order; block i
    holds one coefficient per monomial of mode i.
    """

    monomials: tuple[tuple[Monomial, ...], ...]

    def __post_init__(self):
        for mode_monos in self.monomials:
            if len(set(mode_monos)) != len(mode_monos):
                raise ValueError("duplicate monomials in a mode block")
            if all(any(e != 0 for e in m) for m in mode_monos):
                raise ValueError("every mode needs the constant monomial")

    @property
    def size(self) -> int:
        return sum(len(block) for block in self.monomials)

    def block_slice(self, mode: int) -> slice:
        start = sum(len(b) for b in self.monomials[:mode])
        return slice(start, start + len(self.monomials[mode]))

    @functools.cached_property
    def monomial_rows(self) -> tuple:
        """Per mode, that mode's monomials over the rows of points, of shape
        (k, number of monomials), compiled at first use: one
        ``expr.compile_batch`` of trees that perform ``_mono_value``'s
        float operations, ``1.0`` times the powers ``x_i ** e_i`` in
        variable order."""
        return tuple(ex.compile_batch(
            [functools.reduce(ex.Mul, _factors(m), ex.Const(1.0))
             for m in monos]) for monos in self.monomials)


def _mono_value(mono: Monomial, x: Sequence[float]) -> float:
    v = 1.0
    for e, xi in zip(mono, x):
        if e:
            v *= xi ** e
    return v


def _mono_grad(mono: Monomial, x: Sequence[float]) -> list[float]:
    g = []
    for j, ej in enumerate(mono):
        if ej == 0:
            g.append(0.0)
            continue
        v = float(ej) * x[j] ** (ej - 1)
        for i, ei in enumerate(mono):
            if i != j and ei:
                v *= x[i] ** ei
        g.append(v)
    return g


def template_value(t: Template, p: np.ndarray, mode: int,
                   x: Sequence[float]) -> float:
    block = p[t.block_slice(mode)]
    return float(sum(c * _mono_value(m, x)
                     for c, m in zip(block, t.monomials[mode])))


def template_grad_x(t: Template, p: np.ndarray, mode: int,
                    x: Sequence[float]) -> np.ndarray:
    g = np.zeros(len(x))
    block = p[t.block_slice(mode)]
    for c, m in zip(block, t.monomials[mode]):
        if c:
            g += c * np.asarray(_mono_grad(m, x))
    return g


def template_hess_x(t: Template, p: np.ndarray, mode: int,
                    x: Sequence[float]) -> np.ndarray:
    n = len(x)
    h = np.zeros((n, n))
    block = p[t.block_slice(mode)]
    for c, m in zip(block, t.monomials[mode]):
        if not c:
            continue
        for j, ej in enumerate(m):
            if ej == 0:
                continue
            grad_j = _mono_grad(_lower(m, j), x)
            h[j] += c * ej * np.asarray(grad_j)
    return h


def _lower(mono: Monomial, j: int) -> Monomial:
    out = list(mono)
    out[j] -= 1
    return tuple(out)


def _power(i: int, e: int) -> Expr:
    """``x_i ** e`` for ``e >= 1``; ``x ** 1`` is ``x`` itself."""
    return ex.Var(i) if e == 1 else ex.Pow(ex.Var(i), e)


def _factors(mono: Monomial, skip: int = -1) -> list[Expr]:
    """The factors ``x_i ** e_i`` of ``mono`` with ``e_i > 0`` and
    ``i != skip``, in variable order."""
    return [_power(i, e) for i, e in enumerate(mono) if e and i != skip]


def _grad_factors(mono: Monomial, j: int) -> list[Expr]:
    """The factors of ``_mono_grad(mono, x)[j]`` for ``mono[j] > 0``, in
    its order of multiplication: ``e * x_j ** (e - 1)`` first, whose
    ``1.0 * x_j ** 0`` for ``e == 1`` is the exact unit and left out."""
    e = mono[j]
    lead = [] if e == 1 else [ex.Const(float(e)), _power(j, e - 1)]
    return lead + _factors(mono, j)


def _sum(terms: Iterable[tuple[float, list[Expr]]]) -> Expr:
    """``0.0 + c * f * g ... + ...`` grouped as the loops group it: each
    product from the left, times its coefficient, added from the left.  A
    term without factors is its bare coefficient (``c * 1.0 == c``)."""
    total: Expr = ex.Const(0.0)
    for c, factors in terms:
        term: Expr = ex.Const(c)
        if factors:
            term = ex.Mul(term, functools.reduce(ex.Mul, factors))
        total = ex.Add(total, term)
    return total


def _grad_terms(terms: list[tuple[float, Monomial]], n: int) -> list[list]:
    """Per variable j, the ``(c, factors)`` terms of ``template_grad_x``'s
    entry j, without its zero coefficients and structural zero terms."""
    grad = [[] for _ in range(n)]
    for c, m in terms:
        if c:
            for j in (j for j, e in enumerate(m) if e):
                grad[j].append((c, _grad_factors(m, j)))
    return grad


def certificate_exprs(t: Template, p: np.ndarray, mode: int
                      ) -> tuple[Expr, tuple[Expr, ...]]:
    """Mode ``mode``'s certificate and its gradient as expressions over the
    state variables.

    Each tree performs the float operations of ``template_value`` and
    ``template_grad_x`` in their order: sums start from 0.0 and run in
    monomial order; gradient factors multiply in ``_mono_grad``'s order;
    the gradient skips zero coefficients where the loop skips them, and
    drops the loop's structural zero terms, which add exactly nothing for
    finite ``c``.
    """
    terms = list(zip(map(float, p[t.block_slice(mode)]), t.monomials[mode]))
    grad = _grad_terms(terms, len(terms[0][1]))
    return _sum((c, _factors(m)) for c, m in terms), tuple(map(_sum, grad))


def hessian_exprs(t: Template, p: np.ndarray, mode: int) -> tuple[Expr, ...]:
    """Mode ``mode``'s certificate Hessian, n * n entries row by row, as
    expressions performing ``template_hess_x``'s float operations in its
    order: row j is the gradient of the terms ``(c * m[j], m lowered in
    j)``, without the loop's structural zero terms, as in the gradient."""
    terms = list(zip(map(float, p[t.block_slice(mode)]), t.monomials[mode]))
    n = len(terms[0][1])
    return tuple(_sum(entry) for j in range(n) for entry in _grad_terms(
        [(c * m[j], _lower(m, j)) for c, m in terms if c and m[j]], n))


class Certificate:
    """One candidate: template ``template`` with coefficients ``p``, and
    per mode the code that evaluates it (``cert[mode]``), each piece
    compiled at first use and kept as long as the certificate, so that
    the searches and rides of one candidate share one compilation."""

    def __init__(self, template: Template, p: np.ndarray):
        self.template = template
        self.p = p
        self.modes = tuple(ModeCertificate(template, p, m)
                           for m in range(len(template.monomials)))

    def __getitem__(self, mode: int) -> "ModeCertificate":
        return self.modes[mode]


class ModeCertificate:
    """One mode's certificate over rows: ``value``, ``grad`` and ``hess``
    take points as the rows of a float array of shape (k, n) and return
    arrays of shape (k,), (k, n) and (k, n, n); ``value_box`` takes rows
    of boxes ``lo``, ``hi`` and returns the (k,) bounds of the value;
    ``value_grad`` takes one point and returns V and grad V as one list.

    The point code is ``expr.compile_batch`` of ``certificate_exprs`` and
    ``hessian_exprs``.  Where ``template_value``, ``template_grad_x`` and
    ``template_hess_x`` give finite results at ``x[r]``, row r is bit for
    bit theirs.  Elsewhere the row has a non-finite entry too, though not
    the loops' bits: a power that overflows makes the row nan where the
    loops give inf, and a coefficient times an exponent that is not finite
    leaves out the nan that the loops' structural zero terms add.  The
    Hessian trees are built only when ``hess`` is first asked for.
    """

    def __init__(self, template: Template, p: np.ndarray, mode: int):
        self._args = (template, p, mode)

    @functools.cached_property
    def exprs(self) -> tuple[Expr, tuple[Expr, ...]]:
        """The value and gradient trees (``certificate_exprs``)."""
        return certificate_exprs(*self._args)

    @functools.cached_property
    def value(self):
        batch = ex.compile_batch((self.exprs[0],))
        return lambda x: batch(x)[:, 0]

    @functools.cached_property
    def grad(self):
        return ex.compile_batch(self.exprs[1])

    @functools.cached_property
    def value_grad(self):
        """V and grad V at one point, a list of floats, as the list
        [V, dV/dx_1, ...]: ``expr.compile_vector`` of the value and
        gradient trees, compiled at the first call.  Where that code
        raises, V and grad V are each the row that ``value`` and ``grad``
        give at the point, nan where their own code raises, so the call
        raises no math error."""
        def value_grad(x):
            try:
                return self._value_grad_code(x)
            except ex.MATH_ERRORS:
                row = np.array([x])
                return [*self.value(row).tolist(), *self.grad(row)[0].tolist()]
        return value_grad

    @functools.cached_property
    def _value_grad_code(self):
        return ex.compile_vector((self.exprs[0], *self.exprs[1]))

    @functools.cached_property
    def hess(self):
        n = len(self.exprs[1])
        batch = ex.compile_batch(hessian_exprs(*self._args))
        return lambda x: batch(x).reshape(len(x), n, n)

    @functools.cached_property
    def value_box(self):
        box = ex.compile_interval((self.exprs[0],))

        def bounds(lo, hi):
            enc_lo, enc_hi = box(lo, hi)
            return enc_lo[:, 0], enc_hi[:, 0]
        return bounds


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r].dot(b[r])`` for each row r of two (k, n) arrays: a stacked
    ``np.matmul``, which calls per row the BLAS kernel that ``ndarray.dot``
    calls, whereas ``(a * b).sum(1)`` and ``einsum`` round differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# Newton steps that land a point on the zero level set: a drift search's
# start, and a box midpoint of the verifier's drift witness
LANDING_STEPS = 25
# a step must cut |V| to at most this share of its value before the step
_CONTRACTION = 0.5


def land_on_level_set(value_grad, x: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, band: float, max_steps: int,
                      patient: bool = False
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton steps along grad V towards |V| <= band from each row of
    ``x``, each step clipped to the row's box [lo, hi] (arrays of x's
    shape, or one box for all rows); returns the end points, the mask
    of rows that reached the band, and grad V at the end points, from the
    last ``value_grad`` call of each row, which is at its end point.

    ``value_grad`` maps one point, a list of floats, to the list
    [V, dV/dx_1, ...] (``ModeCertificate.value_grad``).  A row stops
    without landing where |grad V|^2 is not positive (zero or nan) or
    where its step returns its point.  It also stops without landing
    where V is not finite, or where a step fails to halve |V|
    (|V_new| > 0.5 * |V_old|): Newton's iterates contract near a root, so
    a row that does not has left that region and would creep towards a
    point where grad V vanishes and V does not (Deuflhard, *Newton Methods
    for Nonlinear Problems*, 2004, ch. 1-3).  With ``patient``, a row
    skips these two rules and steps on; where V is not finite it then
    never lands.  A row is tested at most ``max_steps + 1`` times: before
    each step, and once after the last.

    The rows are few (at most a cover level's undecided boxes or a
    search's starts), so each steps alone in Python floats, one
    ``value_grad`` call per step, and gives what a lockstep loop over
    numpy rows gives bit for bit: |grad V|^2 is ``np.dot`` of the row's
    gradient, the BLAS kernel that ``row_dot`` reaches (a Python sum of
    squares rounds differently where that kernel fuses multiply-adds),
    and the clip is ``np.clip``'s, which keeps a nan and picks a bound
    where a coordinate is not strictly inside it.
    """
    if not len(x):
        return x.copy(), np.zeros(0, dtype=bool), x.copy()
    pack = struct.Struct(f"{x.shape[1]}d").pack
    boxes = (zip(lo.tolist(), hi.tolist()) if lo.ndim == 2
             else itertools.repeat((lo.tolist(), hi.tolist())))
    ends, landed, grads = [], [], []
    for xs, (lo_r, hi_r) in zip(x.tolist(), boxes):
        bits = pack(*xs)
        # the row's bound on |V|; the largest float tests that V is finite
        limit = sys.float_info.max
        for _ in range(max_steps):
            v, *g = value_grad(xs)
            if abs(v) <= band or not (patient or abs(v) <= limit):
                break
            g_row = np.array(g)
            n2 = float(g_row.dot(g_row))
            if not n2 > 0.0:
                break
            q = v / n2
            step = []
            for s, d, l, h in zip(xs, g, lo_r, hi_r):
                # np.clip: the greater of c and l, then the lesser of that
                # and h, each keeping a nan c
                c = s - q * d
                if c <= l:
                    c = l
                step.append(h if c >= h else c)
            # a row whose step returns its own point, bit for bit, would
            # repeat it at every later step and never land: it stops there
            step_bits = pack(*step)
            if step_bits == bits:
                break
            xs, bits, limit = step, step_bits, _CONTRACTION * abs(v)
        else:
            v, *g = value_grad(xs)
        # v and g are at the row's end, where every path above stops
        ends.append(xs)
        landed.append(abs(v) <= band)
        grads.append(g)
    return np.array(ends), np.array(landed), np.array(grads)


def template_linear(n: int, modes: int = 1) -> Template:
    """Constant plus all first-order monomials, per mode."""
    base: list[Monomial] = [tuple(0 for _ in range(n))]
    for j in range(n):
        base.append(tuple(1 if i == j else 0 for i in range(n)))
    return Template(tuple(tuple(base) for _ in range(modes)))


def template_quadratic_2d(modes: int = 1) -> Template:
    """x^2, xy, y^2, x, y, 1 for two-dimensional problems."""
    base: tuple[Monomial, ...] = (
        (2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))
    return Template(tuple(base for _ in range(modes)))


def make_template(layout: str | Sequence[Sequence[Sequence[int]]],
                  n: int, modes: int) -> Template:
    """Build a template from a shorthand name or explicit exponent lists,
    each exponent a JSON integer >= 0."""
    if isinstance(layout, str):
        if layout == "linear":
            return template_linear(n, modes)
        if layout == "quadratic-2d":
            if n != 2:
                raise ProblemFormatError(
                    "template", "quadratic-2d requires a 2-dimensional state")
            return template_quadratic_2d(modes)
        raise ProblemFormatError("template", f"unknown shorthand {layout!r}")
    if not isinstance(layout, (list, tuple)) or not all(
            isinstance(block, (list, tuple)) for block in layout):
        raise ProblemFormatError(
            "template", "expected a shorthand name or a list of mode blocks")
    blocks = []
    for i, block in enumerate(layout):
        monos = []
        for j, m in enumerate(block):
            loc = f"template[{i}][{j}]"
            if not isinstance(m, (list, tuple)) or len(m) != n:
                raise ProblemFormatError(
                    loc, f"expected a list of {n} exponents, got {m!r}")
            mono = tuple(json_number(e, f"{loc}[{k}]", integer=True)
                         for k, e in enumerate(m))
            if any(e < 0 for e in mono):
                raise ProblemFormatError(loc, f"expected exponents >= 0: {m!r}")
            monos.append(mono)
        blocks.append(tuple(monos))
    if len(blocks) == 1 and modes > 1:
        blocks = blocks * modes
    if len(blocks) != modes:
        raise ProblemFormatError(
            "template", f"expected {modes} mode blocks, got {len(blocks)}")
    try:
        return Template(tuple(blocks))
    except ValueError as err:
        raise ProblemFormatError("template", str(err)) from None


def monomial_name(mono: Monomial, variables: Sequence[str]) -> str:
    parts = []
    for name, e in zip(variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomial_from_name(text: str, variables: Sequence[str]) -> Monomial:
    expo = [0] * len(variables)
    text = text.strip()
    if text == "1":
        return tuple(expo)
    index = {name: i for i, name in enumerate(variables)}
    for part in text.split("*"):
        # an exponent is ASCII decimal digits, nothing else
        name, caret, power = part.strip().partition("^")
        if not caret:
            power = "1"
        if (name not in index or not (power.isascii() and power.isdigit())
                or int(power) < 1):
            raise ValueError(f"bad monomial {text!r}")
        expo[index[name]] += int(power)
    return tuple(expo)


# ---------------------------------------------------------------------------
# Problem document loading


def _require(doc: dict, key: str, location: str):
    if not isinstance(doc, dict):
        raise ProblemFormatError(location.rpartition(".")[0] or location,
                                 "expected an object")
    if key not in doc:
        raise ProblemFormatError(location or key, "required section missing")
    return doc[key]


def json_number(value, location: str, integer: bool = False):
    """``value`` as a float, or as an int with ``integer``, if it is a JSON
    number; a string, a bool, an integer beyond the float range or, with
    ``integer``, a fraction is an error at ``location``."""
    what = "an integer" if integer else "a number"
    if type(value) is int or type(value) is float and (
            not integer or value.is_integer()):
        try:
            number = float(value)        # an int beyond the range overflows
        except OverflowError:
            raise ProblemFormatError(
                location, f"expected {what} within the float range") from None
        return int(value) if integer else number
    raise ProblemFormatError(location, f"expected {what}, got {value!r}")


def _load_box(raw, n: int | None, location: str) -> Box:
    if not isinstance(raw, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw):
        raise ProblemFormatError(location, "expected a list of [lo, hi] pairs")
    if n is not None and len(raw) != n:
        raise ProblemFormatError(
            location, f"expected {n} dimensions, got {len(raw)}")
    pairs = [[json_number(v, f"{location}[{i}][{j}]")
              for j, v in enumerate(pair)] for i, pair in enumerate(raw)]
    try:
        return Box(*map(tuple, zip(*pairs)))
    except ValueError as err:
        raise ProblemFormatError(location, str(err)) from None


def _parse_exprs(raw, variables, n, location) -> tuple[Expr, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ProblemFormatError(
            location, f"expected {n} expressions, got "
            f"{len(raw) if isinstance(raw, (list, tuple)) else type(raw).__name__}")
    out = []
    for i, text in enumerate(raw):
        try:
            out.append(ex.parse(str(text), variables))
        except ex.ParseError as err:
            raise ProblemFormatError(f"{location}[{i}]", str(err)) from None
    return tuple(out)


def load_problem(doc: dict) -> Problem:
    """Validate a problem document (parsed JSON) into a Problem."""
    if not isinstance(doc, dict):
        raise ProblemFormatError("document", "expected a JSON object")
    raw_vars = _require(doc, "variables", "variables")
    raw_dist = doc.get("disturbances", [])
    names: list[str] = []
    for key, raw in (("variables", raw_vars), ("disturbances", raw_dist)):
        if not isinstance(raw, list):
            raise ProblemFormatError(key, "expected a list of names")
        for i, name in enumerate(raw):
            if not ex.is_name(name) or name in names:
                raise ProblemFormatError(f"{key}[{i}]", (
                    f"expected a new identifier, no function name: {name!r}"))
            names.append(name)
    state_vars = tuple(raw_vars)
    if not state_vars:
        raise ProblemFormatError("variables", "must be non-empty")
    n = len(state_vars)

    dist_vars = tuple(raw_dist)
    dist_box = (_load_box(_require(doc, "disturbance_box", "disturbance_box"),
                          len(dist_vars), "disturbance_box")
                if dist_vars else Box((), ()))
    all_vars = state_vars + dist_vars

    raw_modes = _require(doc, "modes", "modes")
    if not isinstance(raw_modes, list):
        raise ProblemFormatError("modes", "expected a list")
    if not raw_modes:
        raise ProblemFormatError("modes", "at least one mode is required")
    modes = []
    for i, rm in enumerate(raw_modes):
        loc = f"modes[{i}]"
        name = str(_require(rm, "name", f"{loc}.name"))
        omega = _load_box(_require(rm, "omega", f"{loc}.omega"), n, f"{loc}.omega")
        flow = _parse_exprs(_require(rm, "flow", f"{loc}.flow"),
                            all_vars, n, f"{loc}.flow")
        modes.append(ModeDef(name, omega, flow))
    names = [m.name for m in modes]
    if len(set(names)) != len(names):
        raise ProblemFormatError("modes", "duplicate mode names")
    mode_index = {m.name: i for i, m in enumerate(modes)}

    def resolve_mode(name, location):
        if name not in mode_index:
            raise ProblemFormatError(location, f"unknown mode {name!r}")
        return mode_index[name]

    resets = []
    raw_resets = doc.get("resets", [])
    if not isinstance(raw_resets, list):
        raise ProblemFormatError("resets", "expected a list")
    for i, rr in enumerate(raw_resets):
        loc = f"resets[{i}]"
        src = resolve_mode(str(_require(rr, "source", f"{loc}.source")),
                           f"{loc}.source")
        tgt = resolve_mode(str(_require(rr, "target", f"{loc}.target")),
                           f"{loc}.target")
        guard = _load_box(_require(rr, "guard", f"{loc}.guard"), n, f"{loc}.guard")
        src_omega = modes[src].omega
        if not (src_omega.contains(guard.lo) and src_omega.contains(guard.hi)):
            raise ProblemFormatError(
                f"{loc}.guard", "guard box must lie inside the source omega")
        fwd = _parse_exprs(_require(rr, "map", f"{loc}.map"),
                           state_vars, n, f"{loc}.map")
        inv = None
        image = None
        if "inverse" in rr or "image" in rr:
            inv = _parse_exprs(_require(rr, "inverse", f"{loc}.inverse"),
                               state_vars, n, f"{loc}.inverse")
            image = _load_box(_require(rr, "image", f"{loc}.image"),
                              n, f"{loc}.image")
        rule = ResetRule(src, guard, tgt, fwd, inv, image)
        if rule.invertible:
            _spot_check_inverse(rule, i)
        resets.append(rule)

    def load_regions(key) -> tuple[tuple[int, Box], ...]:
        raw = _require(doc, key, key)
        if not isinstance(raw, list) or not raw:
            raise ProblemFormatError(key, "expected a non-empty list")
        out = []
        for i, entry in enumerate(raw):
            loc = f"{key}[{i}]"
            m = resolve_mode(str(_require(entry, "mode", f"{loc}.mode")),
                             f"{loc}.mode")
            b = _load_box(_require(entry, "box", f"{loc}.box"), n, f"{loc}.box")
            omega = modes[m].omega
            if not (omega.contains(b.lo) and omega.contains(b.hi)):
                raise ProblemFormatError(loc, "box must lie inside the mode omega")
            out.append((m, b))
        return tuple(out)

    return Problem(
        state_vars=state_vars,
        dist_vars=dist_vars,
        dist_box=dist_box,
        modes=tuple(modes),
        resets=tuple(resets),
        initial=load_regions("init"),
        unsafe=load_regions("unsafe"),
    )


_SPOT_CHECKS = 8  # points at which a declared inverse is checked


def _spot_check_inverse(rule: ResetRule, index: int):
    # inverse(map(x)) must reproduce x on the guard; checked at the guard
    # midpoint and a few corners, in that order, with the rule's compiled
    # code (the inverse's is the reversed rule's): a value that is not
    # finite is undefined at its point
    points = [rule.guard.midpoint(), *vertices(rule.guard)[:_SPOT_CHECKS - 1]]
    with np.errstate(all="ignore"):
        ys = rule.map_rows(np.array(points))
        backs = rule.reversed.map_rows(ys)
    for x, y, back in zip(points, ys.tolist(), backs.tolist()):
        for at, value, what in ((x, y, "map"), (y, back, "inverse")):
            if not all(map(math.isfinite, value)):
                raise ProblemFormatError(f"resets[{index}].{what}",
                                         f"undefined at the point {tuple(at)}")
        err = max(abs(a - b) for a, b in zip(back, x))
        if err > 1e-9 * (1.0 + max(abs(v) for v in x)):
            raise ProblemFormatError(
                f"resets[{index}].inverse",
                f"inverse map does not invert the forward map (error {err:.2e})")
