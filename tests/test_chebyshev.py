import json
import math
from pathlib import Path

import numpy as np
import pytest

from simbarrier import benchmarks, chebyshev, engine, lp, model, sim
from simbarrier.chebyshev import build, margin, solve
from simbarrier.model import Segment, Template

import rows_reference as ref
from conftest import grid_max_margin, line_problem, lp_max_margin_oracle


def _seg(s, sp):
    return Segment(0, (s,), 0, (sp,))


def _units(tmpl, seg):
    """The unit rows a_s and a_sp of a segment's endpoints, as
    ``rows_reference`` gives them."""
    rows = (ref.coeff_row(tmpl, mode, x)
            for mode, x in ((seg.s_mode, seg.s), (seg.sp_mode, seg.sp)))
    return [row / np.linalg.norm(row) for row in rows]


THERMOSTAT = Path(__file__).parents[1] / "bench" / "data" / "thermostat.json"


@pytest.fixture
def prob():
    # initial [-1, -1], unsafe [1, 1] inside a wide 1-d state space
    return line_problem("1", omega=(-5.0, 5.0), init=(-1.0, -1.0),
                        unsafe=(1.0, 1.0))


@pytest.fixture
def tmpl():
    return Template((((0,), (1,)),))


class TestBuild:
    def test_classification_counts(self, prob, tmpl):
        # an initial start or an unsafe end forces one disjunction side
        inside = _seg(-1.0, 0.0)       # start in initial only
        c = build([inside], tmpl, prob)
        assert len(c.hard) == 2 and len(c.disjunctive) == 0

        crossing = _seg(-1.0, 1.0)     # initial to unsafe
        c = build([crossing], tmpl, prob)
        assert len(c.hard) == 4 and len(c.disjunctive) == 0

        free = _seg(-0.5, 0.5)         # unclassified endpoints
        c = build([free], tmpl, prob)
        assert len(c.hard) == 0 and len(c.disjunctive) == 1

    def test_rows_are_unit_norm(self, prob, tmpl):
        c = build([_seg(-1.0, 1.0), _seg(0.25, 0.75)], tmpl, prob)
        for row in c.hard:
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
        for pair in c.disjunctive:
            assert np.linalg.norm(pair[0]) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(pair[1]) == pytest.approx(1.0, abs=1e-12)

    def test_scale_consistency(self, prob, tmpl):
        # normalized rows do not depend on a positive rescaling of the
        # unnormalized coefficients
        seg = _seg(-1.0, 0.5)
        row = ref.coeff_row(tmpl, 0, seg.s)
        unit_once = row / np.linalg.norm(row)
        scaled = 37.5 * row
        unit_twice = scaled / np.linalg.norm(scaled)
        assert np.allclose(unit_once, unit_twice, atol=1e-15)

    def test_closed_boxes(self):
        # pendulum: initial y in [8, 10], unsafe y in [-10, -5]; an endpoint
        # on a box's boundary is in it
        prob = model.load_problem(benchmarks.pendulum())
        tmpl = model.template_linear(2)
        on = Segment(0, (0.0, 8.0), 0, (0.0, -5.0))
        off = Segment(0, (0.0, 7.9), 0, (0.0, -4.99))
        rows = build([on, off], tmpl, prob)
        a_s, a_sp = _units(tmpl, on)
        # the endpoints' rows, then the sides they force
        assert rows.hard.tobytes() == np.stack(
            [-a_s, a_sp, -a_sp, a_s]).tobytes()
        assert len(rows.disjunctive) == 1
        assert ref.flags(prob, on) == [True, False, False, True]
        assert ref.flags(prob, off) == [False] * 4

    def test_boxes_of_another_mode(self):
        # thermostat: initial x in [18, 20] in mode off, unsafe x in
        # [10, 12] in mode on; a point in a box of the other mode is neither
        prob = model.load_problem(json.loads(THERMOSTAT.read_text()))
        tmpl = model.template_linear(1, 2)
        swapped = Segment(1, (19.0,), 0, (11.0,))
        assert len(build([swapped], tmpl, prob).hard) == 0
        # the two endpoints' rows and the two sides they force
        assert len(build([Segment(0, (19.0,), 1, (11.0,))], tmpl,
                         prob).hard) == 4

    def test_empty_rejected(self, prob, tmpl):
        with pytest.raises(chebyshev.ConstraintError):
            build([], tmpl, prob)

    def test_non_finite_row_names_mode_and_point(self):
        # x ** 120 overflows from |x| ~ 370 on: the first row that is not
        # finite is the second segment's end
        wide = line_problem("-x", omega=(-1000.0, 1000.0),
                            init=(900.0, 1000.0), unsafe=(-1000.0, -900.0))
        tmpl = Template((((0,), (1,), (120,)),))
        segs = [_seg(1.0, 2.0), _seg(3.0, 1000.0),
                _seg(-950.0, 4.0)]
        with pytest.raises(chebyshev.ConstraintError,
                           match=r"mode 'm'.*\(1000\.0,\) are not finite"):
            build(segs, tmpl, wide)
        assert np.isfinite(build(segs[:1], tmpl, wide).disjunctive).all()


def _bootstrap(doc):
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    return prob, tmpl, sim.init_segments(prob, 0.1, 64, 0, bloat_factor=1.1)


@pytest.mark.parametrize("case", ["scalable-l2", "pendulum", "thermostat",
                                  "line"])
def test_build_equals_per_segment_loop(case, prob, tmpl, rng):
    """``build`` gives bit for bit the rows of the per-segment loop it
    replaced (``rows_reference.build``), hard-row order included, forced
    sides among them: on bootstrap segments of a linear, a quadratic and a
    two-mode template, and on line segments whose endpoints take every
    initial/unsafe flag."""
    if case == "scalable-l2":
        prob, tmpl, segs = _bootstrap(benchmarks.scalable(2))
    elif case == "pendulum":
        prob, tmpl, segs = _bootstrap(benchmarks.pendulum())
    elif case == "thermostat":
        prob, tmpl, segs = _bootstrap(json.loads(THERMOSTAT.read_text()))
        assert {s.s_mode for s in segs} | {s.sp_mode for s in segs} == {0, 1}
    else:
        ends = [-1.0, 1.0, 0.5, float(rng.uniform(-2, 2))]
        segs = [_seg(s, sp) for s in ends for sp in ends]
    got, want = build(segs, tmpl, prob), ref.build(segs, tmpl, prob)
    assert got.n_rows > len(segs) > len(got.disjunctive)
    for name in ("hard", "disjunctive"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestSolveDerived:
    def test_two_hard_rows(self, prob, tmpl):
        # s = -1 in initial, s = +1 in unsafe:
        # rows -(p0 - p1)/sqrt(2) >= d and (p0 + p1)/sqrt(2) >= d
        segs = [_seg(-1.0, -1.0), _seg(1.0, 1.0)]
        c = build(segs, tmpl, prob)
        cand = solve(c)
        oracle = grid_max_margin(c.hard, c.disjunctive, 2, res=1e-3)
        assert cand.delta == pytest.approx(1.0 / math.sqrt(2), abs=2e-3)
        assert cand.delta == pytest.approx(oracle, abs=2e-3)
        assert cand.p[1] == pytest.approx(1.0, abs=1e-6)
        assert abs(cand.p[0]) <= 1e-6

    def test_contradictory_rows_give_no_candidate(self, tmpl):
        both = line_problem("1", omega=(-5.0, 5.0), init=(0.0, 0.0),
                            unsafe=(0.0, 0.0))
        segs = [_seg(0.0, 0.0)]
        c = build(segs, tmpl, both)
        assert solve(c, delta_min=0.0) is None
        assert solve(c, delta_min=1e-6) is None

    def test_single_disjunctive_row(self, prob, tmpl):
        # both endpoints at the origin: each disjunct is the unit row for
        # the constant monomial, so the optimum aligns with it at delta 1
        c = build([_seg(0.0, 0.0)], tmpl, prob)
        cand = solve(c)
        oracle = grid_max_margin(c.hard, c.disjunctive, 2, res=1e-3)
        assert cand.delta == pytest.approx(1.0, abs=2e-3)
        assert cand.delta == pytest.approx(oracle, abs=2e-3)


class TestSolveProperties:
    def test_output_feasibility(self, prob, tmpl, rng):
        segs = [_seg(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
                for _ in range(6)]
        segs += [_seg(-1.0, 0.0), _seg(0.0, 1.0)]
        c = build(segs, tmpl, prob)
        cand = solve(c, delta_min=-math.inf)
        if cand is None:
            return
        if len(c.hard):
            assert np.min(c.hard @ cand.p) >= cand.delta - 1e-6
        pair = c.disjunctive @ cand.p
        assert np.min(np.max(pair, axis=1)) >= cand.delta - 1e-6

    def test_monotone_in_segments(self, prob, tmpl, rng):
        segs = [_seg(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
                for _ in range(5)]
        segs.append(_seg(-1.0, -0.5))
        c_small = build(segs[:3], tmpl, prob)
        c_big = build(segs, tmpl, prob)
        d_small = solve(c_small, delta_min=-math.inf).delta
        d_big = solve(c_big, delta_min=-math.inf).delta
        assert d_big <= d_small + 1e-9

    def test_positive_delta_iff_strictly_satisfiable(self, prob, tmpl):
        # satisfiable side
        c = build([_seg(-1.0, -0.9), _seg(0.9, 1.0)], tmpl, prob)
        cand = solve(c)
        assert cand is not None and cand.delta > 0
        assert margin(c, cand.p) == pytest.approx(cand.delta)
        # unsatisfiable side: the same point initial and unsafe
        both = line_problem("1", omega=(-5.0, 5.0), init=(0.5, 0.5),
                            unsafe=(0.5, 0.5))
        c2 = build([_seg(0.5, 0.5)], tmpl, both)
        assert solve(c2) is None
        assert grid_max_margin(c2.hard, c2.disjunctive, 2, res=1e-2) <= 1e-9

    def test_determinism(self, prob, tmpl, rng):
        segs = [_seg(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
                for _ in range(8)]
        segs += [_seg(-1.0, 0.3), _seg(-0.3, 1.0)]
        c = build(segs, tmpl, prob)
        cold = solve(c, delta_min=-math.inf)
        again = solve(c, delta_min=-math.inf)
        assert np.array_equal(cold.p, again.p)
        assert cold.delta == again.delta


# chebyshev.solve on the bootstrap segments of scalable-l2 (64 segments):
# p, delta, and the node and pivot counts of this search.  The golden was
# recorded when the simplex began to start from the slack basis, and
# re-recorded when ride events began to be located on the step's dense
# output and when the locator became a secant (Illinois regula falsi),
# each of which moves the bootstrap endpoints that leave the bloated box
# in their last bits.  It was re-recorded again when each disjunction
# side forced by an initial start or an unsafe end became a hard row:
# every bootstrap segment starts initial, so the 68 hard and 64
# disjunctive rows became 132 hard rows, solved in one node by row
# generation (8 nodes and 88 pivots before).  delta moved in its last
# bits, and p to another point of the same optimal face.
# Recorded on x86-64 Linux with glibc's libm and OpenBLAS.
GOLDEN_SCALABLE_L2 = (
    ["0x1.2e38f7fd718e0p-3", "-0x1.0000000000000p+0",
     "0x1.1ef44ec5c0080p-10", "0x1.be31cb9816900p-11",
     "0x1.1f2b7541eee00p-10", "0x1.be9e4ee907418p-11"],
    "0x1.923485bfb7212p-2", 1, 21)


def test_golden_scalable_l2():
    prob = model.load_problem(benchmarks.scalable(2))
    tmpl = model.make_template("linear", prob.dim, 1)
    segs = sim.init_segments(prob, 0.1, 256, 0, bloat_factor=1.1)
    c = build(segs, tmpl, prob)
    assert (len(c.hard), len(c.disjunctive)) == (132, 0)
    cand = solve(c)
    assert ([float(v).hex() for v in cand.p], float(cand.delta).hex(),
            cand.nodes, cand.pivots) == GOLDEN_SCALABLE_L2


class TestForcedSides:
    def test_initial_start_forces_the_end_side(self, prob, tmpl):
        seg = _seg(-1.0, 0.0)
        a_s, a_sp = _units(tmpl, seg)
        c = build([seg], tmpl, prob)
        assert c.hard.tobytes() == np.stack([-a_s, -a_sp]).tobytes()
        assert c.disjunctive.shape == (0, 2, 2)

    def test_unsafe_end_forces_the_start_side(self, prob, tmpl):
        seg = _seg(0.0, 1.0)
        a_s, a_sp = _units(tmpl, seg)
        c = build([seg], tmpl, prob)
        assert c.hard.tobytes() == np.stack([a_sp, a_s]).tobytes()
        assert c.disjunctive.shape == (0, 2, 2)

    def test_forced_rows_follow_every_endpoint_row(self, prob, tmpl):
        # in segment order, after the endpoints' rows; the free segment
        # keeps its disjunction
        segs = [_seg(-1.0, 0.0), _seg(0.0, 0.5), _seg(0.5, 1.0)]
        (a0, b0), (a1, b1), (a2, b2) = (_units(tmpl, seg) for seg in segs)
        c = build(segs, tmpl, prob)
        assert c.hard.tobytes() == np.stack([-a0, b2, -b0, a2]).tobytes()
        assert c.disjunctive.tobytes() == np.stack([[a1, -b1]]).tobytes()

    def test_both_sides_forced_give_none(self, prob, tmpl):
        # an initial start and an unsafe end: the rows a_s and -a_s, and
        # a_sp and -a_sp, hold together only for delta <= 0
        for segs in ([_seg(-1.0, 1.0)], [_seg(-1.0, 1.0), _seg(0.0, 0.5)]):
            c = build(segs, tmpl, prob)
            assert len(c.disjunctive) == len(segs) - 1
            assert solve(c) is None

    @pytest.mark.parametrize("dims", [2, 3])
    def test_scalable_bootstrap_solves_in_one_node(self, dims):
        # every bootstrap segment starts initial
        prob = model.load_problem(benchmarks.scalable(dims))
        tmpl = model.make_template("linear", prob.dim, 1)
        segs = sim.init_segments(prob, 0.1, 256, 0, bloat_factor=1.1)
        c = build(segs, tmpl, prob)
        assert len(c.disjunctive) == 0
        cand = solve(c)
        assert cand is not None and cand.nodes == 1

    def test_forced_rows_keep_the_optimum(self, prob, tmpl, rng):
        """A forced side and its disjunction, kept both, give the same
        optimum: the side that contradicts a hard row holds only for
        delta <= 0.  The segments run down the line, from the unsafe
        point towards the initial one, so a barrier exists."""
        ends = [-1.0, 1.0, 0.5, -0.25, float(rng.uniform(-2, 2))]
        segs = [_seg(s, sp) for s in ends for sp in ends if s >= sp]
        c = build(segs, tmpl, prob)
        units = [_units(tmpl, seg) for seg in segs]
        hard = [row for (a_s, a_sp), seg in zip(units, segs)
                for row, flag in zip((-a_s, a_s, -a_sp, a_sp),
                                     ref.flags(prob, seg)) if flag]
        kept = chebyshev.SampledConstraint(
            c.dim, np.array(hard),
            np.array([[a_s, -a_sp] for a_s, a_sp in units]))
        assert len(c.disjunctive) < len(kept.disjunctive) == len(segs)
        forced, both = solve(c), solve(kept)
        assert forced is not None and both is not None
        assert forced.delta == pytest.approx(both.delta, abs=1e-9)


def test_margin_lps_run_phase_two_only(monkeypatch):
    # every row r.p - delta >= 0 with |r| = 1 holds at the lower corner
    # p = -1, delta = -(sqrt(k) + 1), so the root's first working set runs
    # one primal simplex from the slack basis; every other node starts
    # from its parent's basis.  Recorded per LP: its start, and per primal
    # run whether it began at the slack basis.
    solves = []
    lp_max, primal = lp.lp_max, lp._Working.primal

    def recorded_lp_max(*args):
        solves.append((args[5], []))
        return lp_max(*args)

    def recorded_primal(work):
        m, N = work.T.shape
        solves[-1][1].append(np.array_equal(work.basis, np.arange(N - m, N))
                             and np.array_equal(work.Binv, np.eye(m)))
        return primal(work)

    monkeypatch.setattr(lp, "lp_max", recorded_lp_max)
    monkeypatch.setattr(lp._Working, "primal", recorded_primal)
    cand = solve(build(*_branching_scalable_l3(4)))
    assert cand is not None and len(solves) == cand.nodes > 1
    (root_start, root_runs), *children = solves
    assert root_start is None and root_runs[0]
    assert all(isinstance(start, lp.Basis) for start, _ in children)


def _branching_scalable_l3(free):
    """scalable-l3's bootstrap segments and ``free`` segments between
    points drawn in its domain, away from the initial and the unsafe box;
    each free segment keeps its disjunction, so the search branches.
    Returns the arguments of ``build``."""
    prob = model.load_problem(benchmarks.scalable(3))
    tmpl = model.make_template("linear", prob.dim, 1)
    segs = sim.init_segments(prob, 0.1, 256, 0, bloat_factor=1.1)
    rng = np.random.default_rng(0)
    segs += [Segment(0, tuple(rng.uniform(-8, 8, 7)), 0,
                     tuple(rng.uniform(-8, 8, 7))) for _ in range(free)]
    return segs, tmpl, prob


def test_children_start_from_their_parents_basis(monkeypatch):
    """On scalable-l3's bootstrap and 16 free segments (520 hard rows, 16
    disjunctions), each child restarts row generation from its parent's
    basis and reaches the optimum of one cold simplex run over all its
    rows, with at least 2x fewer pivots over the search."""
    c = build(*_branching_scalable_l3(16))
    assert (len(c.hard), len(c.disjunctive)) == (520, 16)
    solves = []
    lp_max = lp.lp_max

    def recorded(obj, A, b, lo, hi, start):
        res = lp_max(obj, A, b, lo, hi, start)
        value, pivots = lp._Working(obj, A, b, lo, hi).primal()
        solves.append((start is not None, res.value, value, res.pivots,
                       pivots))
        return res

    monkeypatch.setattr(lp, "lp_max", recorded)
    warm = solve(c)
    assert warm.nodes == len(solves) > 10
    started, values, cold_values, pivots, cold_pivots = zip(*solves)
    assert started[0] is False and all(started[1:])
    assert values == pytest.approx(cold_values, abs=1e-8)
    assert sum(pivots) == warm.pivots
    assert warm.pivots * 2 <= sum(cold_pivots)


def test_pendulum_children_start_from_their_parents_basis(monkeypatch):
    # in every round, the root starts row generation from the slack basis
    # and each other node from its parent's basis; some children need dual
    # pivots to restore feasibility
    relaxations, duals = [], []
    relaxation, dual = chebyshev._relaxation, lp._Working.dual

    def recorded(c, assign, start=None):
        relaxations.append((not assign.any(), start))
        return relaxation(c, assign, start)

    def counted(work):
        duals.append(dual(work))
        return duals[-1]

    monkeypatch.setattr(chebyshev, "_relaxation", recorded)
    monkeypatch.setattr(lp._Working, "dual", counted)
    doc = benchmarks.pendulum()
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    run = doc["run"]
    report = engine.run(prob, tmpl, engine.RunConfig(
        sigma=run["sigma"], bloat_factor=run["bloat"], starts=run["starts"],
        max_iterations=run["max_iter"], seed=run["seed"]))
    assert report.status is engine.RunStatus.BARRIER_FOUND
    assert len(relaxations) == sum(rec.bb_nodes for rec in report.log)
    roots = [start is None for root, start in relaxations if root]
    assert len(roots) == report.iterations and all(roots)
    assert all(isinstance(start, lp.Basis)
               for root, start in relaxations if not root)
    assert len(relaxations) > report.iterations and sum(duals) > 0


class TestOracleEquivalence:
    def test_random_instances_match_grid_and_lp(self, rng):
        # mixed instance sizes; grid oracle for k <= 2, exact
        # assignment-enumeration LP oracle for k = 3
        for trial in range(60):
            k = int(rng.integers(1, 4))
            n_hard = int(rng.integers(0, 4))
            n_disj = int(rng.integers(1, 5))
            hard = np.array([_unit(rng.uniform(-1, 1, k), rng)
                             for _ in range(n_hard)]).reshape(n_hard, k)
            disj = np.array([[_unit(rng.uniform(-1, 1, k), rng),
                              _unit(rng.uniform(-1, 1, k), rng)]
                             for _ in range(n_disj)])
            c = chebyshev.SampledConstraint(k, hard, disj)
            cand = solve(c, delta_min=-math.inf)
            got = cand.delta
            if k <= 2:
                want = grid_max_margin(hard, disj, k, res=1e-3)
            else:
                want = lp_max_margin_oracle(hard, disj, k)
            assert abs(got - want) <= 2e-3, f"trial {trial} (k={k})"


def _unit(v, rng):
    n = np.linalg.norm(v)
    if n < 1e-9:
        v = rng.uniform(0.5, 1.0, v.size)
        n = np.linalg.norm(v)
    return v / n
