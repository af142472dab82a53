import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from simbarrier import benchmarks, chebyshev, engine, expr, falsify, model
from simbarrier.engine import RunConfig, RunStatus
from simbarrier.model import Certificate
from simbarrier.verify import VerdictStatus

from conftest import line_problem


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
                assert (rec.kind, rec.value, rec.search_time) == \
                    (ce.kind, ce.value, ce.search_time)
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

    def test_ride_horizon_default(self):
        assert RunConfig(sigma=0.25).ride_horizon == 25.0


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

# engine.run with each document's own settings, recorded before the
# candidate became one shared model.Certificate per round: p, delta, per
# round (kind, falsifier value, segment margin) and the verdict's box
# counts (verified, split, unresolved) per condition.  The thermostat is
# the one hybrid synthesis, so it covers every reset-map call site.
GOLDEN_RUNS = {
    "pendulum": (
        ["-0x1.6ce8121b83840p-6", "-0x1.3dc0cdf36ea08p-9",
         "0x1.285dd164d919cp-4", "-0x1.8d3101704a490p-7",
         "-0x1.d1dee49136568p-1", "-0x1.0000000000000p+0"],
        "0x1.bda9118c7bfd2p-6",
        [("transversality", "-0x1.0000000000000p+0", "-0x1.de6b91cda8b6bp-6"),
         ("transversality", "-0x1.b09be5d01be4fp-2", "-0x1.1f0c59b4c0050p-9"),
         ("transversality", "-0x1.54149e0cc677dp-4", "-0x1.b484b2eaa0502p-8"),
         ("transversality", "-0x1.2023019d82c47p-2", "-0x1.600771bd01c38p-5"),
         (None, None, None)],
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (333, 332, 0), 4: (0, 0, 0)}),
    "thermostat": (
        ["-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "-0x1.332dc503b3b8cp-4"],
        "0x1.104ae41215528p-7",
        [("reset", "-0x1.0a0be01f63b7ap+4", "-0x1.07b52aa653784p+0"),
         ("reset", "-0x1.21e70be41e800p-12", "-0x1.348b621f7b000p-16"),
         (None, None, None)],
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (2, 0, 0), 4: (2, 0, 0)}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_whole_run_golden(name):
    doc = (benchmarks.pendulum() if name == "pendulum"
           else json.loads(THERMOSTAT.read_text()))
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
    verify builds its own once.  Before the candidate was shared, the
    same run built the value and gradient trees 24 times and the Hessian
    trees 15 times."""
    calls = {"certificate_exprs": 0, "hessian_exprs": 0}
    for name in calls:
        def counted(*args, _inner=getattr(model, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(model, name, counted)
    report = engine.run(*_doc_run(benchmarks.pendulum()))
    assert report.iterations == 5  # candidates, of one mode each
    assert calls["certificate_exprs"] <= report.iterations + 1  # + verify
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
