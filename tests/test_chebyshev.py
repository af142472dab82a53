import dataclasses
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
        inside = _seg(-1.0, 0.0)       # start in initial only
        c = build([inside], tmpl, prob)
        assert len(c.hard) == 1 and len(c.disjunctive) == 1

        crossing = _seg(-1.0, 1.0)     # initial to unsafe
        c = build([crossing], tmpl, prob)
        assert len(c.hard) == 2 and len(c.disjunctive) == 1

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
        a_s, a_sp = ref.build([on], tmpl, prob).disjunctive[0]
        assert rows.hard.tobytes() == np.stack([-a_s, -a_sp]).tobytes()
        assert ref.flags(prob, on) == [True, False, False, True]
        assert ref.flags(prob, off) == [False] * 4

    def test_boxes_of_another_mode(self):
        # thermostat: initial x in [18, 20] in mode off, unsafe x in
        # [10, 12] in mode on; a point in a box of the other mode is neither
        prob = model.load_problem(json.loads(THERMOSTAT.read_text()))
        tmpl = model.template_linear(1, 2)
        swapped = Segment(1, (19.0,), 0, (11.0,))
        assert len(build([swapped], tmpl, prob).hard) == 0
        assert len(build([Segment(0, (19.0,), 1, (11.0,))], tmpl,
                         prob).hard) == 2

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
    replaced (``rows_reference.build``), hard-row order included: on
    bootstrap segments of a linear, a quadratic and a two-mode template,
    and on line segments whose endpoints take every initial/unsafe flag."""
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
    assert got.n_rows > len(segs)
    assert got.blocked.dtype == bool and got.blocked.any()
    for name in ("hard", "disjunctive", "blocked"):
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


# chebyshev.solve on the bootstrap segments of scalable-l2 (64 segments,
# 68 hard and 64 disjunctive rows): p, delta, and the node and pivot counts
# of this search, recorded when the simplex began to start from the slack
# basis.  Every relaxation has at most 80 rows and is one cold simplex run.
# p and delta were re-recorded when ride events began to be located on
# the step's dense output, which moves the bootstrap endpoints that leave
# the bloated box in their last bits; the row counts, nodes and pivots
# stay.  They were re-recorded again, for the same reason, when the
# locator became a secant (Illinois regula falsi) instead of bisection.
# The nodes and pivots were re-recorded (15 -> 8, 154 -> 88) when the
# search stopped pushing the children that a hard row of the same endpoint
# rules out: their relaxations were always pruned, so p and delta stay.
# Recorded on x86-64 Linux with glibc's libm and OpenBLAS.
GOLDEN_SCALABLE_L2 = (
    ["0x1.2e38f7fd71f10p-3", "-0x1.0000000000000p+0",
     "0x1.1f2b7541ec680p-10", "0x1.be9e4ee908a00p-11",
     "0x1.1ef44ec5c368bp-10", "0x1.be31cb981158ap-11"],
    "0x1.923485bfb71ecp-2", 8, 88)


def test_golden_scalable_l2():
    prob = model.load_problem(benchmarks.scalable(2))
    tmpl = model.make_template("linear", prob.dim, 1)
    segs = sim.init_segments(prob, 0.1, 256, 0, bloat_factor=1.1)
    c = build(segs, tmpl, prob)
    assert (len(c.hard), len(c.disjunctive)) == (68, 64)
    cand = solve(c)
    assert ([float(v).hex() for v in cand.p], float(cand.delta).hex(),
            cand.nodes, cand.pivots) == GOLDEN_SCALABLE_L2


def _unblocked(c):
    return dataclasses.replace(c, blocked=np.zeros_like(c.blocked))


def _same_candidate(c):
    """Solve ``c`` with its blocked sides and with none blocked: the two
    give p and delta bit for bit, and the first no more nodes or pivots.
    Returns both candidates."""
    pruned, full = solve(c), solve(_unblocked(c))
    assert (pruned is None) == (full is None)
    if pruned is not None:
        assert pruned.p.tobytes() == full.p.tobytes()
        assert float(pruned.delta).hex() == float(full.delta).hex()
        assert pruned.nodes <= full.nodes and pruned.pivots <= full.pivots
    return pruned, full


class TestBlockedSides:
    def test_sides_of_the_initial_start_and_the_unsafe_end(self, prob,
                                                           tmpl):
        segs = [_seg(-1.0, 0.0), _seg(0.0, 1.0), _seg(1.0, -1.0),
                _seg(0.0, 0.5)]
        assert build(segs, tmpl, prob).blocked.tolist() == [
            [True, False], [False, True], [False, False], [False, False]]

    @pytest.mark.parametrize("dims", [2, 3])
    def test_scalable_bootstrap_keeps_its_candidate(self, dims):
        prob = model.load_problem(benchmarks.scalable(dims))
        tmpl = model.make_template("linear", prob.dim, 1)
        segs = sim.init_segments(prob, 0.1, 256, 0, bloat_factor=1.1)
        pruned, full = _same_candidate(build(segs, tmpl, prob))
        assert pruned is not None and pruned.nodes < full.nodes

    def test_pendulum_rounds_keep_their_candidates(self, monkeypatch):
        constraints = []

        def recorded(c, delta_min):
            constraints.append(c)
            return solve(c, delta_min)

        monkeypatch.setattr(chebyshev, "solve", recorded)
        doc = benchmarks.pendulum()
        prob = model.load_problem(doc)
        tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
        run = doc["run"]
        report = engine.run(prob, tmpl, engine.RunConfig(
            sigma=run["sigma"], bloat_factor=run["bloat"],
            starts=run["starts"], max_iterations=run["max_iter"],
            seed=run["seed"]))
        assert report.status is engine.RunStatus.BARRIER_FOUND
        assert len(constraints) == report.iterations >= 2
        for c, rec in zip(constraints, report.log):
            pruned, _ = _same_candidate(c)
            assert (pruned.nodes, pruned.pivots) == (rec.bb_nodes,
                                                     rec.lp_pivots)

    def test_initial_start_to_unsafe_end_gives_none(self, prob, tmpl):
        # both sides of the disjunction are blocked: the root has no child
        for segs in ([_seg(-1.0, 1.0)], [_seg(-1.0, 1.0), _seg(0.0, 0.5)]):
            c = build(segs, tmpl, prob)
            assert c.blocked[0].all()
            assert solve(c) is None
            assert solve(_unblocked(c)) is None


def test_margin_lps_run_phase_two_only(monkeypatch):
    # every row r.p - delta >= 0 with |r| = 1 holds at the lower corner
    # p = -1, delta = -(sqrt(k) + 1), so each LP of at most 80 rows runs
    # one primal simplex from the slack basis
    runs, sizes = [], []
    lp_max, primal = lp.lp_max, lp._Working.primal

    def counted_lp_max(*args):
        sizes.append(len(args[2]))
        runs.append(0)
        return lp_max(*args)

    def counted_primal(work):
        m, N = work.T.shape
        assert np.array_equal(work.basis, np.arange(N - m, N))
        assert np.array_equal(work.Binv, np.eye(m))
        runs[-1] += 1
        return primal(work)

    monkeypatch.setattr(lp, "lp_max", counted_lp_max)
    monkeypatch.setattr(lp._Working, "primal", counted_primal)
    prob = model.load_problem(benchmarks.scalable(2))
    tmpl = model.make_template("linear", prob.dim, 1)
    segs = sim.init_segments(prob, 0.1, 256, 0, bloat_factor=1.1)
    cand = solve(build(segs, tmpl, prob))
    assert cand is not None and cand.nodes > 1
    assert len(runs) >= cand.nodes and set(runs) == {1}
    assert max(sizes) <= lp._DIRECT_ROW_LIMIT


# the pivots of chebyshev.solve on scalable-l3's bootstrap below when each
# relaxation ran row generation from scratch, every round from the slack
# basis (x86-64 Linux, OpenBLAS)
COLD_PIVOTS_SCALABLE_L3 = 914


def test_children_start_from_their_parents_basis(monkeypatch):
    """On scalable-l3's bootstrap (264 hard rows, 256 disjunctions) every
    relaxation runs row generation, and each child restarts from its
    parent's basis: the optimum of one cold simplex run over all rows, at
    least 4x fewer pivots than cold row generation."""
    prob = model.load_problem(benchmarks.scalable(3))
    tmpl = model.make_template("linear", prob.dim, 1)
    segs = sim.init_segments(prob, 0.1, 256, 0, bloat_factor=1.1)
    c = build(segs, tmpl, prob)
    assert len(c.hard) > lp._DIRECT_ROW_LIMIT
    starts = []
    lp_max = lp.lp_max

    def recorded(*args):
        starts.append(args[5] is not None)
        return lp_max(*args)

    monkeypatch.setattr(lp, "lp_max", recorded)
    warm = solve(c)
    assert starts[0] is False and all(starts[1:]) and len(starts) > 10
    monkeypatch.setattr(lp, "_DIRECT_ROW_LIMIT", 10 ** 9)
    cold = solve(c)
    assert warm.delta == pytest.approx(cold.delta, abs=1e-9)
    assert warm.pivots * 4 <= COLD_PIVOTS_SCALABLE_L3


def test_pendulum_runs_no_dual_pivot(monkeypatch):
    # every pendulum relaxation has at most 80 rows: one cold run each
    duals, sizes = [], []
    dual, lp_max = lp._Working.dual, lp.lp_max

    def counted(work):
        duals.append(len(work.b))
        return dual(work)

    def solved(*args):
        sizes.append(len(args[2]))
        return lp_max(*args)

    monkeypatch.setattr(lp._Working, "dual", counted)
    monkeypatch.setattr(lp, "lp_max", solved)
    doc = benchmarks.pendulum()
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    run = doc["run"]
    report = engine.run(prob, tmpl, engine.RunConfig(
        sigma=run["sigma"], bloat_factor=run["bloat"], starts=run["starts"],
        max_iterations=run["max_iter"], seed=run["seed"]))
    assert report.status is engine.RunStatus.BARRIER_FOUND
    assert sizes and max(sizes) <= lp._DIRECT_ROW_LIMIT
    assert duals == []


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
            c = chebyshev.SampledConstraint(
                k, hard, disj, np.zeros((n_disj, 2), dtype=bool))
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
