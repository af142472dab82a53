import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from simbarrier import (benchmarks, chebyshev, engine, expr, falsify, model,
                        sim, verify)
from simbarrier.engine import RunConfig, RunStatus
from simbarrier.model import Certificate
from simbarrier.verify import VerdictStatus

from conftest import SHARED_GUARD_P, line_problem, shared_guard_doc


@pytest.fixture(scope="module")
def composition_run():
    prob = model.load_problem(benchmarks.composition())
    tmpl = model.make_template("linear", 3, 1)
    cfg = RunConfig(sigma=0.1, max_iterations=20, seed=0, verify=True)
    return prob, tmpl, cfg, engine.run(prob, tmpl, cfg)


class TestRunOutcomes:
    def test_composition_found_and_verified(self, composition_run):
        _, _, _, report = composition_run
        assert report.status is RunStatus.BARRIER_FOUND
        assert report.iterations <= 5
        assert report.verdict.status is VerdictStatus.VERIFIED
        assert report.p is not None and report.delta > 0

    def test_identical_initial_and_unsafe_gives_no_candidate(self):
        prob = line_problem("1", omega=(-1.0, 1.0), init=(-0.2, 0.2),
                            unsafe=(-0.2, 0.2))
        tmpl = model.Template((((0,), (1,)),))
        report = engine.run(prob, tmpl, RunConfig(sigma=0.05, seed=0,
                                                  max_iterations=5))
        assert report.status is RunStatus.NO_CANDIDATE

    def test_iteration_limit(self):
        prob = model.load_problem(benchmarks.pendulum())
        tmpl = model.make_template("quadratic-2d", 2, 1)
        report = engine.run(prob, tmpl, RunConfig(sigma=0.5, seed=0,
                                                  max_iterations=1))
        assert report.status is RunStatus.ITERATION_LIMIT
        assert report.iterations == 1

    def test_a_long_horizon_run_returns(self, monkeypatch):
        # the pendulum's bootstrap rides that stay in its state space
        # circle its equilibrium for the whole horizon of 1e6; each stops
        # at sim.MAX_STEPS trial steps
        rides = []

        def flow_hybrid(*args, **kw):
            rides.append(real(*args, **kw))
            return rides[-1]
        real = sim.flow_hybrid
        monkeypatch.setattr(sim, "flow_hybrid", flow_hybrid)
        prob = model.load_problem(benchmarks.pendulum())
        tmpl = model.make_template("quadratic-2d", 2, 1)
        report = engine.run(prob, tmpl, RunConfig(sigma=1e6, seed=0,
                                                  max_iterations=1))
        assert report.status is RunStatus.ITERATION_LIMIT
        assert report.iterations == 1
        bootstrap = rides[0] + rides[1]
        assert {t.reason for t in bootstrap} == {sim.StopReason.STEP_LIMIT,
                                                 sim.StopReason.LEFT_BLOAT}


class TestRunInvariants:
    def test_progress_one_segment_per_refinement(self, composition_run):
        prob, tmpl, cfg, report = composition_run
        refinements = sum(1 for r in report.log if r.segment is not None)
        bootstrap = report.segment_count - refinements
        assert bootstrap == 16  # 8 + 8 vertices for this system

    def test_delta_monotone(self, composition_run):
        _, _, _, report = composition_run
        deltas = [r.delta for r in report.log]
        assert all(b <= a + 1e-9 for a, b in zip(deltas, deltas[1:]))

    def test_added_segments_refute_their_candidates(self, composition_run):
        prob, tmpl, _, report = composition_run
        for rec in report.log:
            if rec.segment is not None:
                assert rec.segment_margin <= 0.0
                assert falsify.segment_margin(
                    prob, Certificate(tmpl, rec.p), rec.segment) == \
                    rec.segment_margin

    def test_reproducible(self, composition_run):
        prob, tmpl, cfg, first = composition_run
        second = engine.run(prob, tmpl, cfg)
        assert first.status == second.status
        assert first.iterations == second.iterations
        assert np.array_equal(first.p, second.p)
        assert first.delta == second.delta
        assert first.segment_count == second.segment_count
        assert [r.kind for r in first.log] == [r.kind for r in second.log]

    def test_records_carry_candidate_counts(self, composition_run,
                                            monkeypatch):
        prob, tmpl, cfg, _ = composition_run
        seen = []
        inner = chebyshev.solve

        def recorded(*args, **kwargs):
            seen.append(inner(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(chebyshev, "solve", recorded)
        report = engine.run(prob, tmpl, cfg)
        assert [(r.bb_nodes, r.lp_pivots) for r in report.log] == \
            [(c.nodes, c.pivots) for c in seen]
        assert all(r.bb_nodes >= 1 and r.lp_pivots >= 1 for r in report.log)

    def test_records_carry_counterexample_value_and_search_time(
            self, monkeypatch):
        prob = model.load_problem(benchmarks.pendulum())
        tmpl = model.make_template("quadratic-2d", 2, 1)
        seen = []
        inner = falsify.find_counterexample

        def recorded(*args, **kwargs):
            seen.append(inner(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(falsify, "find_counterexample", recorded)
        report = engine.run(prob, tmpl, RunConfig(sigma=0.5, seed=0,
                                                  max_iterations=3))
        assert len(report.log) == len(seen) == 3
        for rec, ce in zip(report.log, seen):
            if ce is None:
                assert rec.value is None and rec.search_time > 0.0
            else:
                assert (rec.kind, rec.value) == (ce.hit.kind, ce.hit.value)
                assert rec.value < 0.0 < rec.search_time
        assert any(ce is not None for ce in seen)
        assert sum(r.search_time for r in report.log) == \
            report.timings["counterexample"]

    def test_timing_fields(self, composition_run):
        _, _, _, report = composition_run
        assert set(report.timings) == {
            "simulation", "candidate", "counterexample", "verification"}
        assert sum(report.timings.values()) <= report.total_time + 1e-6


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(sigma=-1.0)
        with pytest.raises(ValueError):
            RunConfig(bloat_factor=0.5)
        with pytest.raises(ValueError):
            RunConfig(max_iterations=0)
        for bad in (dict(sigma=math.inf), dict(sigma=math.nan),
                    dict(bloat_factor=math.inf), dict(bloat_factor=math.nan),
                    dict(starts=0), dict(starts=-1), dict(seed=-1),
                    dict(vertex_cap=0), dict(delta_min=-1.0),
                    dict(delta_min=math.nan), dict(min_width_frac=0.0),
                    dict(min_width_frac=math.inf)):
            with pytest.raises(ValueError):
                RunConfig(**bad)

    def test_each_bad_value_names_its_setting(self):
        for name, value in (("sigma", math.nan), ("bloat_factor", 0.5),
                            ("delta_min", math.nan), ("seed", -1),
                            ("min_width_frac", math.inf), ("starts", 0),
                            ("max_iterations", math.nan), ("vertex_cap", -3)):
            with pytest.raises(engine.SettingError) as err:
                RunConfig(**{name: value})
            assert err.value.field == name, name

    def test_counts_have_a_stated_maximum(self):
        for name, most in (("starts", 10_000), ("max_iterations", 10_000),
                           ("vertex_cap", 65_536)):
            RunConfig(**{name: most})
            with pytest.raises(engine.SettingError) as err:
                RunConfig(**{name: most + 1})
            assert err.value.field == name
            assert str(err.value) == f"expected at most {most}"

    def test_ride_horizon_default(self):
        assert RunConfig(sigma=0.25).ride_horizon == 25.0

    def test_min_width_frac_reaches_the_verifier(self, monkeypatch):
        prob = model.load_problem(benchmarks.composition())
        tmpl = model.make_template("linear", 3, 1)
        seen = []
        inner = verify.verify

        def recorded(*args, **kwargs):
            bound = inspect.signature(inner).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["min_width_frac"])
            return inner(*args, **kwargs)

        monkeypatch.setattr(verify, "verify", recorded)
        report = engine.run(prob, tmpl, RunConfig(sigma=0.1, seed=0,
                                                  min_width_frac=0.25))
        assert report.verdict is not None and seen == [0.25]


def _doc_run(doc: dict) -> tuple:
    """Problem, template and RunConfig of a problem document, as
    ``simbarrier synth`` builds them without flags."""
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    run = doc["run"]
    return prob, tmpl, RunConfig(sigma=float(run["sigma"]),
                                 bloat_factor=float(run["bloat"]),
                                 starts=int(run["starts"]),
                                 max_iterations=int(run["max_iter"]),
                                 seed=int(run["seed"]))


THERMOSTAT = Path(__file__).parents[1] / "bench" / "data" / "thermostat.json"

# engine.run with each document's own settings: p, delta, per round (kind,
# falsifier value, segment margin of the worst counter-example) and the
# verdict's box counts (verified, split, unresolved) per condition.  The
# thermostat is the one hybrid synthesis, so it covers every reset-map call
# site; it was recorded before the candidate became one shared
# model.Certificate per round.  Pendulum was re-recorded when a round began
# to add the segments of up to three other distinct hits: its first round
# keeps the worst segment bit for bit (same value and margin) and adds
# three more, so it ends after 3 rounds instead of 5, with another p.  The
# thermostat was re-recorded when the candidate search stopped seeding its
# branch-and-bound with a relaxation at the previous candidate.  Where no
# leaf beat that seed, the seed's optimum was the candidate; now the best
# leaf is, an optimum that differs in its last bits.  The rounds, kinds,
# nodes and box counts stay; p[3] (by 1.2e-16), delta and the second
# round's value and segment margin move.  Log-dynamics (8 rounds, each
# refuted by a drift hit) and scalable-l3 (found in its first round, its
# falsifier finding nothing) were recorded just before the falsifier's
# starts began to stop once they could no longer reach a counter-example;
# that rule keeps every hit, and with them these runs, bit for bit.  All
# four were re-recorded when ride events began to be located on the
# step's dense output instead of by fresh steps: the endpoints of event-
# stopped rides move in their last bits, and with them p, delta and the
# values and margins (the thermostat keeps its p and delta).  Rounds,
# kinds and box counts stay.  Pendulum and log-dynamics were re-recorded
# when a falsifier start below the goal began to stop once its pace
# projected less than falsify._DEPTH of its depth: a drift hit ends a
# little less deep, so p, delta and the values and margins move (not
# pendulum's first round, whose worst hit is the bound -1).  Rounds, kinds
# and box counts stay.  All four were re-recorded when the pace rule began
# to project a geometric tail for gains that shrink by half twice, and
# ride events began to be located by a secant (Illinois regula falsi)
# instead of bisection: every event-stopped ride moves in its last bits,
# and with them p, delta and the values and margins (the thermostat keeps
# its p and delta, and scalable-l3's near-equal pair coefficients trade
# places).  Rounds, kinds and box counts stay.
GOLDEN_RUNS = {
    "log-dynamics": (
        ["0x1.f929f56b4d438p-5", "-0x1.7ca09e2adc400p-2",
         "0x1.16c99c534a7bap-2", "-0x1.0000000000000p+0",
         "-0x1.c299ac96ca8b0p-4", "-0x1.b57a6187ebadbp-1"],
        "0x1.3f7186824641ap-4",
        [("transversality", "-0x1.1fb7daf3452c7p-1", "-0x1.cdf497b7225e6p-3"),
         ("transversality", "-0x1.0000000000000p+0", "-0x1.9b8599894f312p-5"),
         ("transversality", "-0x1.1d21720ebfa31p-2", "-0x1.074c4db155444p-4"),
         ("transversality", "-0x1.640c3f93a07f2p-3", "-0x1.f87d4585e11b0p-6"),
         ("transversality", "-0x1.bbda54e667e45p-6", "-0x1.69dfd16013200p-9"),
         ("transversality", "-0x1.3155a7c924f0dp-7", "-0x1.faa6d40b25000p-15"),
         ("transversality", "-0x1.374ee35b5c5e6p-5", "-0x1.da84c05c63cc0p-10"),
         (None, None, None)],
        {1: (10, 9, 0), 2: (3, 2, 0), 3: (327, 326, 0), 4: (0, 0, 0)}),
    "pendulum": (
        ["-0x1.673468b401869p-6", "-0x1.899838ae36290p-10",
         "0x1.29d2ea9bc37cap-4", "-0x1.ebfe46d9c3ac0p-8",
         "-0x1.d1701443c6d06p-1", "-0x1.0000000000000p+0"],
        "0x1.c3472f4101c32p-6",
        [("transversality", "-0x1.0000000000000p+0", "-0x1.de6b8b3d99fccp-6"),
         ("transversality", "-0x1.5ee00169ae6e9p-4", "-0x1.c7ceff9a11dcep-8"),
         (None, None, None)],
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (405, 404, 0), 4: (0, 0, 0)}),
    "scalable-l3": (
        ["0x1.3ecbdee17194cp-3", "-0x1.0000000000000p+0",
         "0x1.93e8259bc231cp-11", "0x1.3a336f8fbd89cp-11",
         "0x1.93c3ae860f0ddp-11", "0x1.3a0f90f7b4b3cp-11",
         "0x1.939e203a68d27p-11", "0x1.39ed012a0adeep-11"],
        "0x1.514c0a137a193p-2",
        [(None, None, None)],
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (1, 0, 0), 4: (0, 0, 0)}),
    "thermostat": (
        ["-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "-0x1.332dc503b3b83p-4"],
        "0x1.104ae41215570p-7",
        [("reset", "-0x1.0a0be01f63b7ap+4", "-0x1.07b52aa656d42p+0"),
         ("reset", "-0x1.21e70926ba000p-12", "-0x1.348b5f34fc000p-16"),
         (None, None, None)],
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (2, 0, 0), 4: (2, 0, 0)}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_whole_run_golden(name):
    doc = (json.loads(THERMOSTAT.read_text()) if name == "thermostat"
           else benchmarks.corpus()[name])
    report = engine.run(*_doc_run(doc))
    p, delta, rounds, boxes = GOLDEN_RUNS[name]
    hexed = lambda v: None if v is None else float(v).hex()
    assert report.status is RunStatus.BARRIER_FOUND
    assert report.verdict.status is VerdictStatus.VERIFIED
    assert [float(v).hex() for v in report.p] == p
    assert float(report.delta).hex() == delta
    assert [(r.kind, hexed(r.value), hexed(r.segment_margin))
            for r in report.log] == rounds
    assert {c: (r.boxes_verified, r.boxes_split, r.boxes_unresolved)
            for c, r in report.verdict.reports.items()} == boxes


def test_each_candidate_is_compiled_once(monkeypatch):
    """One engine.run on pendulum builds each candidate's trees once, and
    verify shares the final candidate's.  Before the candidate was shared,
    the same run built the value and gradient trees 24 times and the
    Hessian trees 15 times, and before verify took the engine's
    certificate, it built the final candidate's trees a second time."""
    calls = {"certificate_exprs": 0, "hessian_exprs": 0}
    for name in calls:
        def counted(*args, _inner=getattr(model, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(model, name, counted)
    report = engine.run(*_doc_run(benchmarks.pendulum()))
    assert report.iterations == 3  # candidates, of one mode each
    assert calls["certificate_exprs"] <= report.iterations
    assert calls["hessian_exprs"] <= report.iterations


@pytest.mark.parametrize("name", ["pendulum", "thermostat"])
def test_second_run_compiles_only_certificates(monkeypatch, name):
    """The flows, the reset maps, their Jacobians and the time-reversed
    problem compile on the problem, once: a second engine.run on the same
    Problem compiles only its candidates' code.  Before the problem owned
    them, the second run compiled 15 other batches on pendulum and 26 on
    the thermostat."""
    doc = (benchmarks.pendulum() if name == "pendulum"
           else json.loads(THERMOSTAT.read_text()))
    prob, tmpl, cfg = _doc_run(doc)
    engine.run(prob, tmpl, cfg)
    outside = []
    inner = expr.compile_batch

    def counted(es):
        caller = sys._getframe(1).f_locals.get("self")
        if not isinstance(caller, model.ModeCertificate):
            outside.append(es)
        return inner(es)

    monkeypatch.setattr(expr, "compile_batch", counted)
    report = engine.run(prob, tmpl, cfg)
    assert report.status is RunStatus.BARRIER_FOUND
    assert outside == []


def test_thermostat_compiles_each_batch_once(monkeypatch):
    """The thermostat's load and first engine.run compile, outside the
    candidates' certificates, 14 batches: the flows of its 2 modes forward
    and reversed, their 2 Jacobians, per reset rule the map, its Jacobian
    and the inverse map, and the template's monomial rows of its 2 modes
    (``Template.monomial_rows``, for ``chebyshev.build``).  Before the
    reversed rule was built on the rule, an inverse compiled at load for
    the spot check and again for the backward rides: one batch more."""
    compiled = []
    inner = expr.compile_batch

    def counted(es):
        caller = sys._getframe(1).f_locals.get("self")
        if not isinstance(caller, model.ModeCertificate):
            compiled.append(tuple(es))
        return inner(es)

    monkeypatch.setattr(expr, "compile_batch", counted)
    prob, tmpl, cfg = _doc_run(json.loads(THERMOSTAT.read_text()))
    report = engine.run(prob, tmpl, cfg)
    assert report.status is RunStatus.BARRIER_FOUND
    assert len(prob.modes) == len(prob.resets) == 2
    assert len(compiled) == 14


def test_verifier_refutation_adds_the_witness_segment(monkeypatch):
    """A candidate the falsifier misses goes to the verifier; its refuted
    verdict's witness becomes the round's one refuting segment.  Pendulum's
    first candidate, with the falsifier's first search made to miss, is
    refuted on condition 3."""
    calls = []
    inner = falsify.find_counterexample

    def first_misses(*args, **kwargs):
        calls.append(None)
        return None if len(calls) == 1 else inner(*args, **kwargs)

    monkeypatch.setattr(falsify, "find_counterexample", first_misses)
    prob, tmpl, cfg = _doc_run(benchmarks.pendulum())
    report = engine.run(prob, tmpl, cfg)
    first = report.log[0]
    assert (first.kind, first.value, float(first.segment_margin).hex()) == \
        ("verify-refuted-3", None, "-0x1.85d047841590fp-6")
    assert first.segments_added == 1 and first.segments_dropped == 0
    assert falsify.segment_margin(prob, Certificate(tmpl, first.p),
                                  first.segment) == first.segment_margin
    assert report.status is RunStatus.BARRIER_FOUND
    assert report.verdict.status is VerdictStatus.VERIFIED
    assert (report.iterations, report.segment_count) == (5, 13)


def test_verifier_refutes_through_the_reset_it_names(monkeypatch):
    """Two resets leave mode a through one guard, and the verifier refutes
    the second: the round's segment rides that rule's map.  Round 1's
    candidate is forced to ``SHARED_GUARD_P`` and the falsifier made to
    miss it; a segment through the first rule, the first rule whose guard
    holds the witness, would not refute."""
    prob = model.load_problem(shared_guard_doc())
    tmpl = model.make_template("linear", 1, 3)
    solve, search = chebyshev.solve, falsify.find_counterexample
    rounds = []

    def forced(*args, **kwargs):
        cand = solve(*args, **kwargs)
        rounds.append(None)
        if len(rounds) == 1:
            cand = dataclasses.replace(cand, p=np.array(SHARED_GUARD_P))
        return cand

    def first_misses(*args, **kwargs):
        return None if len(rounds) == 1 else search(*args, **kwargs)

    monkeypatch.setattr(chebyshev, "solve", forced)
    monkeypatch.setattr(falsify, "find_counterexample", first_misses)
    report = engine.run(prob, tmpl, RunConfig())
    first = report.log[0]
    assert (first.kind, float(first.segment_margin).hex()) == \
        ("verify-refuted-4", "-0x1.a7bbf583b7c82p-2")
    assert first.segment.sp_mode == 2    # landed in c, the second target
    assert first.segments_added == 1
    assert report.status is RunStatus.BARRIER_FOUND
    assert report.verdict.status is VerdictStatus.VERIFIED
    assert report.iterations == 3
