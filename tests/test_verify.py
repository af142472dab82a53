import json
import math
from pathlib import Path

import numpy as np
import pytest

from simbarrier import benchmarks, cli, expr as ex, model
from simbarrier import verify as verify_module
from simbarrier.model import Box, ModeDef, Problem, Template
from simbarrier.verify import VerdictStatus, verify

from conftest import (SHARED_GUARD_P, line_problem, linear_template_1d,
                      sawtooth_problem, shared_guard_doc)


def composition_with_published_barrier():
    prob = model.load_problem(benchmarks.composition())
    tmpl = model.make_template([[[0, 0, 0], [1, 0, 0]]], 3, 1)
    p = np.array([0.12774317671, -1.0])
    return prob, tmpl, p


def box_counts(verdict):
    """Condition -> (boxes verified, split, unresolved)."""
    return {c: (r.boxes_verified, r.boxes_split, r.boxes_unresolved)
            for c, r in verdict.reports.items()}


class TestVerified:
    def test_published_composition_barrier(self):
        prob, tmpl, p = composition_with_published_barrier()
        verdict = verify(prob, tmpl, p)
        assert verdict.status is VerdictStatus.VERIFIED
        assert not verdict.unresolved

    def test_callers_certificate_is_used_and_checked(self, monkeypatch):
        prob, tmpl, p = composition_with_published_barrier()
        cert = model.Certificate(tmpl, p)
        built = []
        monkeypatch.setattr(verify_module, "Certificate",
                            lambda *args: built.append(args))
        verdict = verify(prob, tmpl, p, cert=cert)
        assert verdict.status is VerdictStatus.VERIFIED and built == []
        with pytest.raises(ValueError, match="not the certificate"):
            verify(prob, tmpl, p + 1.0, cert=cert)

    def test_statistical_cross_check(self, rng):
        # 1e5 samples per condition find no violation of a verified result
        prob, tmpl, p = composition_with_published_barrier()
        assert verify(prob, tmpl, p).status is VerdictStatus.VERIFIED
        n = 100_000
        mode, ibox = prob.initial[0]
        lo, hi = np.asarray(ibox.lo), np.asarray(ibox.hi)
        pts = lo + rng.random((n, 3)) * (hi - lo)
        assert np.all(0.12774317671 - pts[:, 0] < 0)
        mode, ubox = prob.unsafe[0]
        lo, hi = np.asarray(ubox.lo), np.asarray(ubox.hi)
        pts = lo + rng.random((n, 3)) * (hi - lo)
        assert np.all(0.12774317671 - pts[:, 0] > 0)
        # drift on the zero level set: project x1 onto the plane
        omega = prob.modes[0].omega
        lo, hi = np.asarray(omega.lo), np.asarray(omega.hi)
        pts = lo + rng.random((n, 3)) * (hi - lo)
        pts[:, 0] = 0.12774317671
        # dV/dt = -dx1/dt = -1 everywhere, by the flow definition
        flow0 = ex.compile_vector([prob.modes[0].flow[0]])
        drift = np.array([-flow0(list(x))[0] for x in pts[:100]])
        assert np.all(drift < 0)

    def test_splitting_instance_with_volume_bookkeeping(self):
        # V = x^2 - 0.25 with flow -x: zero set at +-0.5, drift -2 x^2 < 0
        # there; proving it forces splits around the level set
        prob = line_problem("-x", omega=(-1.0, 1.0), init=(-0.1, 0.1),
                            unsafe=(0.8, 0.9))
        tmpl = Template((((0,), (2,)),))
        p = np.array([-0.25, 1.0])
        verdict = verify(prob, tmpl, p)
        assert verdict.status is VerdictStatus.VERIFIED
        rep3 = verdict.reports[3]
        assert rep3.boxes_split > 0
        assert box_counts(verdict) == {1: (1, 0, 0), 2: (1, 0, 0),
                                       3: (6, 5, 0), 4: (0, 0, 0)}
        assert rep3.volume_covered == pytest.approx(rep3.region_volume,
                                                    rel=1e-9)
        for cond in (1, 2):
            rep = verdict.reports[cond]
            assert rep.volume_covered == pytest.approx(rep.region_volume,
                                                       rel=1e-9)

    def test_reset_condition_proved(self):
        # V = -0.5 - x: negative at the guard x = 1 and still negative at
        # the reset target 0; drift is -1 on the whole zero set
        prob = sawtooth_problem(init=(0.6, 0.7), unsafe=(-1.8, -1.5))
        tmpl = linear_template_1d()
        p = np.array([-0.5, -1.0])
        verdict = verify(prob, tmpl, p)
        assert verdict.reports[4].boxes_verified >= 1
        assert verdict.status is VerdictStatus.VERIFIED
        assert box_counts(verdict) == {1: (1, 0, 0), 2: (1, 0, 0),
                                       3: (1, 0, 0), 4: (1, 0, 0)}


class TestRefuted:
    def test_constant_negative_certificate_fails_on_unsafe(self):
        prob = model.load_problem(benchmarks.pendulum())
        tmpl = Template((((0, 0),),))
        verdict = verify(prob, tmpl, np.array([-1.0]))
        assert verdict.status is VerdictStatus.REFUTED
        assert verdict.condition == 2
        mode, x, _ = verdict.witness
        assert any(m == mode and box.contains(x) for m, box in prob.unsafe)
        # witness replay by plain evaluation
        assert model.template_value(tmpl, np.array([-1.0]), mode, x) <= 0.0

    def test_drift_violation_witness_replay(self):
        prob = line_problem("1", omega=(-1.0, 1.0), init=(-0.9, -0.8),
                            unsafe=(0.8, 0.9))
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x: zero at 0, drift +1 there
        verdict = verify(prob, tmpl, p)
        assert verdict.status is VerdictStatus.REFUTED
        assert verdict.condition == 3
        mode, x, d = verdict.witness
        assert abs(model.template_value(tmpl, p, mode, x)) <= 1e-9
        g = model.template_grad_x(tmpl, p, mode, x)
        flow = ex.compile_vector(prob.modes[mode].flow)
        f = np.array(flow(list(x) + list(d)))
        assert float(g @ f) > 0.0

    def test_initial_sign_violation(self):
        prob = line_problem("1", omega=(-1.0, 1.0), init=(0.2, 0.4),
                            unsafe=(0.8, 0.9))
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # V = x > 0 on the initial box
        verdict = verify(prob, tmpl, p)
        assert verdict.status is VerdictStatus.REFUTED
        assert verdict.condition == 1

    def test_reset_condition_refuted(self):
        prob = sawtooth_problem(init=(0.6, 0.7), unsafe=(-1.8, -1.5))
        tmpl = linear_template_1d()
        p = np.array([0.5, -1.0])  # V = 0.5 - x: V(1) < 0 but V(0) > 0
        verdict = verify(prob, tmpl, p)
        assert verdict.status is VerdictStatus.REFUTED
        assert verdict.condition == 4
        assert box_counts(verdict) == {1: (1, 0, 0), 2: (1, 0, 0),
                                       3: (1, 0, 0), 4: (0, 0, 0)}

    def test_reset_witness_names_its_rule(self):
        # both resets leave mode a through the guard [0, 1]; only the
        # second, to c, maps V_a <= 0 to V > 0
        prob = model.load_problem(shared_guard_doc())
        tmpl = model.make_template("linear", 1, 3)
        verdict = verify(prob, tmpl, np.array(SHARED_GUARD_P))
        assert (verdict.status, verdict.condition) == \
            (VerdictStatus.REFUTED, 4)
        assert verdict.hit.kind == "reset" and verdict.hit.value is None
        assert verdict.hit.rule is prob.resets[1]
        assert verdict.witness == (0, (0.5,), ())

    def test_certificate_overflowing_at_midpoints_is_refuted_by_its_enclosure(self):
        # V = x^200 - 1 overflows at every point of the initial box, so its
        # midpoint values are undefined; its enclosure's lower bound is far
        # above the tolerance, so every point violates condition 1 and the
        # first box is refuted at its midpoint, and nothing raises
        prob = line_problem("-x", omega=(-300.0, 300.0), init=(100.0, 200.0),
                            unsafe=(250.0, 260.0))
        tmpl = Template((((0,), (200,)),))
        verdict = verify(prob, tmpl, np.array([-1.0, 1.0]))
        assert verdict.status is VerdictStatus.REFUTED
        assert verdict.condition == 1
        assert verdict.witness == (0, (150.0,), ())
        assert box_counts(verdict)[1] == (0, 0, 0)


class TestUnknown:
    def test_tangent_zero_set_gives_unknown(self):
        # V = x^3 with flow -x: drift -3x^4 <= 0 touches zero exactly on the
        # level set, so strict verification must give up around the origin
        prob = line_problem("-x", omega=(-1.0, 1.0), init=(-0.9, -0.8),
                            unsafe=(0.8, 0.9))
        tmpl = Template((((0,), (3,)),))
        p = np.array([0.0, 1.0])
        verdict = verify(prob, tmpl, p)
        assert verdict.status is VerdictStatus.UNKNOWN
        assert verdict.condition == 3
        assert verdict.unresolved
        assert box_counts(verdict) == {1: (1, 0, 0), 2: (1, 0, 0),
                                       3: (26, 27, 2), 4: (0, 0, 0)}
        assert all(b.lo[0] <= 0.0 <= b.hi[0] or
                   min(abs(b.lo[0]), abs(b.hi[0])) < 0.01
                   for b in verdict.unresolved)
        assert verdict.min_width_reached <= 2 * 1e-4 * 2.0

    def test_domain_error_never_verifies(self):
        # ln(x) is undefined on part of the state space; the certificate
        # cannot be proved there even though it looks fine numerically
        prob = Problem(
            ("x",), (), Box((), ()),
            (ModeDef("m", Box((-1.0,), (1.0,)),
                     (ex.parse("ln(x^2)", ["x"]),)),),
            (), ((0, Box((-0.9,), (-0.8,))),), ((0, Box((0.8,), (0.9,))),))
        tmpl = linear_template_1d()
        p = np.array([0.0, 1.0])  # zero set at 0 where ln(x^2) blows up
        verdict = verify(prob, tmpl, p)
        assert verdict.status is not VerdictStatus.VERIFIED



class TestMonotoneEffort:
    def test_finer_width_never_flips_verified_to_refuted(self):
        prob, tmpl, p = composition_with_published_barrier()
        for frac in (1e-2, 1e-3, 1e-4):
            verdict = verify(prob, tmpl, p, frac)
            assert verdict.status is VerdictStatus.VERIFIED

    def test_unknown_can_resolve_with_effort(self):
        # coarse splitting gives up; finer splitting proves the instance
        prob = line_problem("-x", omega=(-1.0, 1.0), init=(-0.1, 0.1),
                            unsafe=(0.8, 0.9))
        tmpl = Template((((0,), (2,)),))
        p = np.array([-0.25, 1.0])
        coarse = verify(prob, tmpl, p, 0.4)
        fine = verify(prob, tmpl, p, 1e-4)
        assert coarse.status in (VerdictStatus.UNKNOWN, VerdictStatus.VERIFIED)
        assert fine.status is VerdictStatus.VERIFIED


class TestBoxBudget:
    def test_budget_gives_unknown_with_the_pending_boxes(self, monkeypatch):
        # the splitting instance needs 11 boxes for condition 3; with a
        # budget of 5 per cover, the boxes still pending are unresolved
        monkeypatch.setattr(verify_module, "_MAX_BOXES", 5)
        prob = line_problem("-x", omega=(-1.0, 1.0), init=(-0.1, 0.1),
                            unsafe=(0.8, 0.9))
        tmpl = Template((((0,), (2,)),))
        verdict = verify(prob, tmpl, np.array([-0.25, 1.0]))
        assert verdict.status is VerdictStatus.UNKNOWN
        assert verdict.condition == 3
        rep3 = verdict.reports[3]
        assert rep3.boxes_verified + rep3.boxes_split == 5
        assert rep3.boxes_unresolved == len(verdict.unresolved) > 0
        # the unresolved boxes and the decided ones cover omega once
        assert rep3.volume_covered == pytest.approx(rep3.region_volume,
                                                    rel=1e-12)
        assert all(-1.0 <= b.lo[0] <= b.hi[0] <= 1.0 for b in verdict.unresolved)


class TestDriftWitness:
    def test_stuck_box_is_landed_whatever_its_midpoint_drift(self):
        # V = x with flow 0.1 - x on [-0.2, 1]: at the midpoint 0.4 the
        # drift is -0.3, -|grad V| * |f|, yet on the zero level set, at 0,
        # it is +0.1
        prob = line_problem("0.1 - x", omega=(-0.2, 1.0), init=(-0.15, -0.1),
                            unsafe=(0.8, 0.9))
        tmpl, p = linear_template_1d(), np.array([0.0, 1.0])
        cert = model.Certificate(tmpl, p)
        lo, hi = np.array([[-0.2]]), np.array([[1.0]])
        tried, hits = verify_module._drift_witnesses(
            prob, cert, 0, lo, hi, 2.0, np.array([False]))
        assert (tried.tolist(), hits) == ([False], {})
        tried, hits = verify_module._drift_witnesses(
            prob, cert, 0, lo, hi, 2.0, np.array([True]))
        assert tried.tolist() == [True] and hits[0].x.tolist() == [0.0]
        # a minimum width of the whole region leaves the first box unsplit
        verdict = verify(prob, tmpl, p, 1.0)
        assert (verdict.status, verdict.condition) == (
            VerdictStatus.REFUTED, 3)
        assert verdict.witness == (0, (0.0,), ())
        assert verdict.reports[3].witness_rows == 1
        assert box_counts(verdict)[3] == (0, 0, 0)

    def test_rows_kept_land_as_when_every_row_lands(self):
        # a grid of 256 boxes of width 0.625 near lorenz-iter7's witness
        prob = model.load_problem(benchmarks.corpus()["lorenz"])
        barrier = json.loads((BENCH_DATA / "certs" / "lorenz-iter7.json")
                             .read_text())
        tmpl, p = cli._barrier_from_doc(barrier, prob, "lorenz-iter7.json")
        cert = model.Certificate(tmpl, p)
        lo = np.stack(np.meshgrid(np.arange(-5.0, 0.0, 0.625),
                                  np.arange(-2.5, 0.0, 0.625),
                                  np.arange(-5.0, 0.0, 0.625),
                                  indexing="ij"), -1).reshape(-1, 3)
        hi = lo + 0.625
        p_scale = 1.0 + float(np.linalg.norm(p))
        with np.errstate(all="ignore"):
            kept, hits = verify_module._drift_witnesses(
                prob, cert, 0, lo, hi, p_scale, np.zeros(len(lo), bool))
            every, all_hits = verify_module._drift_witnesses(
                prob, cert, 0, lo, hi, p_scale, np.ones(len(lo), bool))
        assert every.all() and 0 < kept.sum() < len(lo) and len(hits) > 1

        def bits(found):
            return {r: (h.kind, h.mode, h.x.tobytes(), h.d.tobytes())
                    for r, h in found.items()}
        assert bits(hits) == {r: b for r, b in bits(all_hits).items()
                              if kept[r]}



class TestLevels:
    def test_split_choice_is_made_once_per_level(self, monkeypatch):
        # the splitting instance: 11 boxes of condition 3 over its levels;
        # each level's check gets the choice made on exactly its rows
        calls, checked = [], []
        split_dims = verify_module._split_dims

        def counting(widths, *args):
            calls.append(len(widths))
            return split_dims(widths, *args)

        cover = verify_module._cover

        def spying(region, min_widths, n_state, check, report):
            def spied(lo, hi, dims):
                checked.append(len(lo))
                assert len(dims) == len(lo) == calls[-1]
                return check(lo, hi, dims)
            return cover(region, min_widths, n_state, spied, report)

        monkeypatch.setattr(verify_module, "_split_dims", counting)
        monkeypatch.setattr(verify_module, "_cover", spying)
        prob = line_problem("-x", omega=(-1.0, 1.0), init=(-0.1, 0.1),
                            unsafe=(0.8, 0.9))
        verdict = verify(prob, Template((((0,), (2,)),)),
                         np.array([-0.25, 1.0]))
        assert verdict.status is VerdictStatus.VERIFIED
        levels = {c: r.levels for c, r in verdict.reports.items()}
        assert levels[3] > 1 and levels[4] == 0
        assert calls == checked and len(calls) == sum(levels.values())
        assert sum(calls) == sum(sum(counts)
                                 for counts in box_counts(verdict).values())

    def test_box_too_narrow_to_split_gets_its_witness_try(self, monkeypatch):
        # the stuck box of TestDriftWitness, whose midpoint drift clearly
        # falls: the level's one choice marks it, and the witness lands it
        calls = []
        split_dims = verify_module._split_dims

        def counting(widths, *args):
            dims = split_dims(widths, *args)
            calls.append(dims.tolist())
            return dims

        monkeypatch.setattr(verify_module, "_split_dims", counting)
        prob = line_problem("0.1 - x", omega=(-0.2, 1.0), init=(-0.15, -0.1),
                            unsafe=(0.8, 0.9))
        verdict = verify(prob, linear_template_1d(), np.array([0.0, 1.0]),
                         1.0)
        assert verdict.witness == (0, (0.0,), ())
        rep3 = verdict.reports[3]
        assert (rep3.levels, rep3.witness_rows) == (1, 1)
        # conditions 1 and 2 prove their boxes at one level each; condition
        # 3's one box cannot be split
        assert calls == [[-1], [-1], [-1]]


BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"

# verify() on the benchmark's certificates, recorded before the cover ran
# in lockstep: status, condition, witness (mode, x, d as float.hex),
# (verified, split, unresolved) boxes per condition, min_width_reached
BENCH_VERDICTS = {
    "pendulum-final": ("Verified", None, None,
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (114, 113, 0), 4: (0, 0, 0)}, "0x1.4000000000000p-3"),
    "log-dynamics-final": ("Verified", None, None,
        {1: (11, 10, 0), 2: (1, 0, 0), 3: (519, 518, 0), 4: (0, 0, 0)}, "0x1.4000000000000p-5"),
    "lorenz-final": ("Verified", None, None,
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (441, 440, 0), 4: (0, 0, 0)}, "0x1.4000000000000p-4"),
    "lorenz-iter1": ("Refuted", 3, (0, ('-0x1.382fa5e22985ep+1', '-0x1.4000000000000p-1', '-0x1.6a86b5b11eb13p+1'), ()),
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (234, 263, 0), 4: (0, 0, 0)}, "0x1.3333333333340p-1"),
    "lorenz-iter4": ("Refuted", 3, (0, ('-0x1.4000000000000p+1', '-0x1.4000000000000p-2', '-0x1.44568ee66918dp+1'), ()),
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (226, 264, 0), 4: (0, 0, 0)}, "0x1.3333333333340p-1"),
    "lorenz-iter7": ("Refuted", 3, (0, ('-0x1.97e85ef29ac5dp+1', '-0x1.4000000000000p+0', '-0x1.1ec8e658535e2p+0'), ()),
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (74, 160, 0), 4: (0, 0, 0)}, "0x1.3333333333340p-1"),
    "lorenz-iter10": ("Refuted", 3, (0, ('-0x1.6dd8057331cbap+0', '-0x1.4000000000000p-1', '-0x1.b6bcc0e110e9ep-1'), ()),
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (209, 267, 0), 4: (0, 0, 0)}, "0x1.3333333333340p-1"),
    "lorenz-iter13": ("Refuted", 3, (0, ('-0x1.e0aec86830bd6p+0', '-0x1.4000000000000p-2', '-0x1.3d76d247addfdp+0'), ()),
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (243, 267, 0), 4: (0, 0, 0)}, "0x1.3333333333340p-1"),
    "composition-published": ("Verified", None, None,
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (1, 0, 0), 4: (0, 0, 0)}, "0x1.4000000000000p+4"),
    "thermostat-c14": ("Verified", None, None,
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (2, 0, 0), 4: (2, 0, 0)}, "0x1.0000000000000p+0"),
    "thermostat-c16.5": ("Refuted", 4, (0, ('0x1.f000000000000p+3',), ()),
        {1: (1, 0, 0), 2: (1, 0, 0), 3: (2, 0, 0), 4: (0, 0, 0)}, "0x1.0000000000000p+0"),
}


def _bench_cases():
    return json.loads((BENCH_DATA / "expected.json").read_text())["cases"]


def _bench_verdict(case):
    corpus = benchmarks.corpus()
    doc = (corpus[case["problem"]] if case["problem"] in corpus else
           json.loads((BENCH_DATA / f"{case['problem']}.json").read_text()))
    prob = model.load_problem(doc)
    barrier = json.loads((BENCH_DATA / case["barrier"]).read_text())
    tmpl, p = cli._barrier_from_doc(barrier, prob, case["barrier"])
    return verify(prob, tmpl, p)


@pytest.mark.parametrize("case", _bench_cases(), ids=lambda c: c["id"])
def test_bench_certificate_verdicts_are_pinned(case):
    verdict = _bench_verdict(case)
    witness = verdict.witness and (
        verdict.witness[0], tuple(v.hex() for v in verdict.witness[1]),
        tuple(v.hex() for v in verdict.witness[2]))
    got = (verdict.status.value, verdict.condition, witness,
           box_counts(verdict), verdict.min_width_reached.hex())
    assert got == BENCH_VERDICTS[case["id"]]
    assert (got[0], got[1]) == (case["verdict"], case["condition"])


# the midpoints the drift witness lands per certificate; landing every
# split box of condition 3 made 2,252 in all
BENCH_WITNESS_ROWS = {
    "pendulum-final": 41, "log-dynamics-final": 223, "lorenz-final": 154,
    "lorenz-iter1": 24, "lorenz-iter4": 38, "lorenz-iter7": 9,
    "lorenz-iter10": 26, "lorenz-iter13": 28, "composition-published": 0,
    "thermostat-c14": 0, "thermostat-c16.5": 0,
}


def test_bench_witness_rows_are_pinned():
    assert {case["id"]: _bench_verdict(case).reports[3].witness_rows
            for case in _bench_cases()} == BENCH_WITNESS_ROWS


# cover levels (check calls) per certificate and condition
BENCH_LEVELS = {
    "pendulum-final": (1, 1, 16, 0), "log-dynamics-final": (6, 1, 18, 0),
    "lorenz-final": (1, 1, 29, 0), "lorenz-iter1": (1, 1, 14, 0),
    "lorenz-iter4": (1, 1, 15, 0), "lorenz-iter7": (1, 1, 10, 0),
    "lorenz-iter10": (1, 1, 13, 0), "lorenz-iter13": (1, 1, 15, 0),
    "composition-published": (1, 1, 1, 0), "thermostat-c14": (1, 1, 2, 2),
    "thermostat-c16.5": (1, 1, 2, 1),
}


def test_bench_levels_are_pinned():
    levels = {case["id"]: tuple(r.levels for r in
                                _bench_verdict(case).reports.values())
              for case in _bench_cases()}
    assert levels == BENCH_LEVELS
    assert sum(levels["pendulum-final"]) == 18
    assert sum(map(sum, levels.values())) == 165


def test_bench_landing_batches_are_pinned(monkeypatch):
    # the point evaluations (V and grad V at one point) of the drift
    # witness's Newton landing over the certificates: 4,695 when a row
    # steps on after a step that fails to halve |V|; the rows handed to it
    # stay the 543 of BENCH_WITNESS_ROWS
    points = []
    land = model.land_on_level_set

    def counting(value_grad, *args, **kwargs):
        def counted(x):
            points.append(x)
            return value_grad(x)
        return land(counted, *args, **kwargs)

    monkeypatch.setattr(model, "land_on_level_set", counting)
    rows = sum(_bench_verdict(case).reports[3].witness_rows
               for case in _bench_cases())
    assert (len(points), rows) == (1659, 543)
