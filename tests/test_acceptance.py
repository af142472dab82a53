"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

The synthesis runs are session-cached so the refutation and monotonicity
criteria can audit the same logs that produced the end-to-end results.
"""

import math
import time

import numpy as np
import pytest

from simbarrier import benchmarks, chebyshev, engine, expr as ex, falsify, model, sim
from simbarrier.engine import RunConfig, RunStatus
from simbarrier.model import Certificate
from simbarrier.verify import VerdictStatus, verify

from conftest import (
    grid_max_margin,
    lp_max_margin_oracle,
    rand_expr,
    sawtooth_problem,
)


def _criterion(number: int, label: str, checks: dict[str, bool]):
    ok = all(checks.values())
    verdict = "PASS" if ok else "FAIL"
    detail = "" if ok else " [" + ", ".join(k for k, v in checks.items()
                                            if not v) + "]"
    print(f"ACCEPTANCE {number} ({label}): {verdict}{detail}")
    assert ok, f"criterion {number} failed: {checks}"


def _synthesize(doc, max_iterations):
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    cfg = RunConfig(sigma=doc["run"]["sigma"], seed=0,
                    max_iterations=max_iterations, verify=True)
    t0 = time.perf_counter()
    report = engine.run(prob, tmpl, cfg)
    elapsed = time.perf_counter() - t0
    return prob, tmpl, report, elapsed


@pytest.fixture(scope="session")
def composition_run():
    return _synthesize(benchmarks.composition(), max_iterations=20)


@pytest.fixture(scope="session")
def pendulum_run():
    return _synthesize(benchmarks.pendulum(), max_iterations=30)


@pytest.fixture(scope="session")
def log_dynamics_run():
    return _synthesize(benchmarks.log_dynamics(), max_iterations=30)


@pytest.fixture(scope="session")
def scalable2_run():
    return _synthesize(benchmarks.scalable(2), max_iterations=20)


@pytest.fixture(scope="session")
def lorenz_run():
    return _synthesize(benchmarks.lorenz(), max_iterations=40)


@pytest.fixture(scope="session")
def thermostat_run():
    return _synthesize(benchmarks.thermostat(), max_iterations=20)


@pytest.fixture(scope="session")
def relay_run():
    return _synthesize(benchmarks.relay(), max_iterations=20)


@pytest.fixture(scope="session")
def all_runs(composition_run, pendulum_run, log_dynamics_run, scalable2_run,
             lorenz_run, thermostat_run, relay_run):
    return {
        "composition": composition_run,
        "pendulum": pendulum_run,
        "log-dynamics": log_dynamics_run,
        "scalable-l2": scalable2_run,
        "lorenz": lorenz_run,
        "thermostat": thermostat_run,
        "relay": relay_run,
    }


def test_criterion_1_published_barrier_verifies():
    prob = model.load_problem(benchmarks.composition())
    tmpl = model.make_template([[[0, 0, 0], [1, 0, 0]]], 3, 1)
    p = np.array([0.12774317671, -1.0])
    t0 = time.perf_counter()
    verdict = verify(prob, tmpl, p)
    elapsed = time.perf_counter() - t0
    # ground truth, closed form: V <= -8.87 on the initial box,
    # V >= 9.12 on the unsafe box, drift identically -1
    v_init_max = 0.12774317671 - 9.0
    v_unsafe_min = 0.12774317671 + 9.0
    _criterion(1, "published composition barrier verifies", {
        "verified": verdict.status is VerdictStatus.VERIFIED,
        "under 10 s": elapsed < 10.0,
        "initial margin": v_init_max < -8.87,
        "unsafe margin": v_unsafe_min > 9.12,
    })


def test_criterion_2_composition_synthesis(composition_run):
    _, _, report, elapsed = composition_run
    _criterion(2, "composition synthesis (linear template)", {
        "found": report.status is RunStatus.BARRIER_FOUND,
        "verified": report.verdict is not None
        and report.verdict.status is VerdictStatus.VERIFIED,
        "iterations <= 5": report.iterations <= 5,
        "under 60 s": elapsed < 60.0,
    })


def test_criterion_3_pendulum_synthesis(pendulum_run):
    prob, tmpl, report, elapsed = pendulum_run
    fresh = (verify(prob, tmpl, report.p).status is VerdictStatus.VERIFIED
             if report.p is not None else False)
    _criterion(3, "pendulum synthesis (quadratic template)", {
        "found": report.status is RunStatus.BARRIER_FOUND,
        "its barrier verifies": fresh,
        "iterations <= 30": report.iterations <= 30,
        "under 5 min": elapsed < 300.0,
    })


def test_criterion_4_log_dynamics_synthesis(log_dynamics_run):
    _, _, report, elapsed = log_dynamics_run
    _criterion(4, "non-polynomial 2-d synthesis", {
        "found": report.status is RunStatus.BARRIER_FOUND,
        "verified": report.verdict is not None
        and report.verdict.status is VerdictStatus.VERIFIED,
        "iterations <= 30": report.iterations <= 30,
        "under 5 min": elapsed < 300.0,
    })


def test_criterion_5_scalable_family(scalable2_run):
    _, _, report, elapsed = scalable2_run
    _criterion(5, "scalable family, five dimensions", {
        "found": report.status is RunStatus.BARRIER_FOUND,
        "verified": report.verdict is not None
        and report.verdict.status is VerdictStatus.VERIFIED,
        "under 10 min": elapsed < 600.0,
    })


def test_criterion_6_lorenz(lorenz_run):
    prob, tmpl, report, _ = lorenz_run
    fresh = (verify(prob, tmpl, report.p).status is VerdictStatus.VERIFIED
             if report.p is not None else False)
    _criterion(6, "lorenz synthesis, own coefficients verify", {
        "found": report.status is RunStatus.BARRIER_FOUND,
        "its barrier verifies": fresh,
    })


def test_criterion_7_chebyshev_oracle_equivalence():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        n_hard = int(rng.integers(0, 4))
        n_disj = int(rng.integers(1, 7))

        def unit(v):
            n = np.linalg.norm(v)
            return v / n if n > 1e-9 else unit(rng.uniform(0.5, 1, k))

        hard = np.array([unit(rng.uniform(-1, 1, k))
                         for _ in range(n_hard)]).reshape(n_hard, k)
        disj = np.array([[unit(rng.uniform(-1, 1, k)),
                          unit(rng.uniform(-1, 1, k))]
                         for _ in range(n_disj)])
        c = chebyshev.SampledConstraint(k, hard, disj,
                                        np.zeros((n_disj, 2), dtype=bool))
        got = chebyshev.solve(c, delta_min=-math.inf).delta
        if k <= 2:
            want = grid_max_margin(hard, disj, k, res=1e-3)
        else:
            # a 1e-3 grid in three dimensions is out of reach; the exact
            # enumeration-of-disjuncts LP oracle stands in for it
            want = lp_max_margin_oracle(hard, disj, k)
        if abs(got - want) > 2e-3:
            failures += 1
    _criterion(7, "max-margin solver matches independent oracle", {
        "200/200 within 2e-3": failures == 0,
    })


def test_criterion_8_refutation_property(all_runs):
    total = 0
    bad = 0
    for name, (prob, tmpl, report, _) in all_runs.items():
        for rec in report.log:
            added = [] if rec.segment is None else [rec.segment, *rec.extras]
            for seg in added:
                total += 1
                margin = falsify.segment_margin(
                    prob, Certificate(tmpl, rec.p), seg)
                if margin > 0.0:
                    bad += 1
    _criterion(8, "every added segment refutes its candidate", {
        f"{total - bad}/{total} margins <= 0": bad == 0,
        "logs non-trivial": total >= 1,
    })


def test_criterion_9_delta_monotone(all_runs):
    violations = 0
    compared = 0
    for name, (_, _, report, _) in all_runs.items():
        deltas = [r.delta for r in report.log]
        for a, b in zip(deltas, deltas[1:]):
            compared += 1
            if b > a + 1e-9:
                violations += 1
    _criterion(9, "candidate margin never increases across refinements", {
        f"{compared - violations}/{compared} steps monotone": violations == 0,
        "logs non-trivial": compared >= 1,
    })


def test_criterion_10_numerics_suite():
    rng = np.random.default_rng(10)

    # symbolic gradients against central differences, 1000 expressions
    grad_ok = 0
    grad_total = 0
    h = 1e-5
    for _ in range(1000):
        e = rand_expr(rng, 2, 3)
        var = int(rng.integers(2))
        d = ex.differentiate(e, var)
        pt = rng.uniform(-1, 1, 2)
        hi = pt.copy()
        lo = pt.copy()
        hi[var] += h
        lo[var] -= h
        f_hi, f_lo = ex.evaluate(e, hi), ex.evaluate(e, lo)
        sym = ex.evaluate(d, pt)
        if max(abs(f_hi), abs(f_lo), abs(sym)) > 1e3:
            continue
        grad_total += 1
        if abs(sym - (f_hi - f_lo) / (2 * h)) <= 1e-5 * (1 + abs(sym)):
            grad_ok += 1

    # interval soundness, 1000 triples
    sound_ok = 0
    from simbarrier.interval import Interval
    for _ in range(1000):
        e = rand_expr(rng, 2, 4)
        center = rng.uniform(-2, 2, 2)
        half = rng.uniform(0, 0.5, 2)
        box = [Interval(c - w, c + w) for c, w in zip(center, half)]
        enc = ex.interval_eval(e, box)
        pt = [rng.uniform(b.lo, b.hi) for b in box]
        if enc is not None and ex.evaluate(e, pt) in enc:
            sound_ok += 1

    # integrator endpoint error on exponential decay
    box = model.Box((-5.0,), (5.0,))
    decay = model.Problem(("x",), (), model.Box((), ()), (model.ModeDef(
        "m", box, (ex.parse("-x", ["x"]),)),), (), ((0, box),), ((0, box),))
    traj, = sim.flow_hybrid(decay, [(0, [1.0])], None, 1.0, bloat_factor=1.0)
    decay_err = abs(traj.end[0] - math.exp(-1.0))

    # hybrid sawtooth against its piecewise-analytic solution
    prob = sawtooth_problem()
    saw, = sim.flow_hybrid(prob, [(0, (0.0,))], None, 1.5)
    saw_err = abs(saw.end[0] - 0.5)

    _criterion(10, "numerics suite", {
        f"gradients {grad_ok}/{grad_total}": grad_ok == grad_total
        and grad_total >= 900,
        f"interval soundness {sound_ok}/1000": sound_ok == 1000,
        "decay endpoint <= 1e-6": decay_err <= 1e-6,
        "sawtooth endpoint <= 1e-6": saw_err <= 1e-6 and saw.resets == 1,
    })


def test_criterion_11_thermostat_hybrid_synthesis(thermostat_run):
    _, _, report, _ = thermostat_run
    verdict = report.verdict
    _criterion(11, "hybrid synthesis, resets proved (thermostat)", {
        "found": report.status is RunStatus.BARRIER_FOUND,
        "verified": verdict is not None
        and verdict.status is VerdictStatus.VERIFIED,
        "condition 4 proved on >= 1 box": verdict is not None
        and verdict.reports[4].boxes_verified >= 1,
    })


def test_criterion_12_relay_hybrid_synthesis(relay_run):
    # the relay's counter-example rides jump into the mode where the
    # certificate falls and must stop there to refute their candidate
    _, _, report, _ = relay_run
    verdict = report.verdict
    _criterion(12, "hybrid synthesis through a falling mode (relay)", {
        "found": report.status is RunStatus.BARRIER_FOUND,
        "verified": verdict is not None
        and verdict.status is VerdictStatus.VERIFIED,
        "4 rounds": report.iterations == 4,
        "condition 4 proved on >= 1 box": verdict is not None
        and verdict.reports[4].boxes_verified >= 1,
    })
