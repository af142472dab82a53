"""Counter-example-guided refinement loop.

Bootstrap segments seed the sampled constraint; the loop alternates
max-margin candidate computation and counter-example search, growing the
segment set by exactly one refuting segment per round, and optionally
hands the surviving candidate to the rigorous verifier.  A refuted
verification feeds its witness point back into the loop as a fresh
counter-example.  Each candidate is one ``model.Certificate``, shared by
the falsifier's searches, the rides and the refuting segments.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import chebyshev, falsify, sim
from . import verify as rigor
from .model import Certificate, Problem, Segment, Template


class RunStatus(enum.Enum):
    BARRIER_FOUND = "BarrierFound"
    NO_CANDIDATE = "NoCandidate"
    ITERATION_LIMIT = "IterationLimit"


@dataclass
class RunConfig:
    sigma: float = 0.5
    bloat_factor: float = 1.1
    vertex_cap: int = 256
    starts: int = 16
    max_iterations: int = 50
    delta_min: float = 1e-6
    seed: int = 0
    verify: bool = True
    min_width_frac: float = 1e-4

    def __post_init__(self):
        # written so that nan fails every test
        if not (0 <= self.sigma < math.inf
                and 1 <= self.bloat_factor < math.inf
                and 0 < self.min_width_frac < math.inf and self.delta_min >= 0
                and min(self.vertex_cap, self.starts, self.max_iterations) >= 1
                and self.seed >= 0):
            raise ValueError("invalid run configuration")

    @property
    def ride_horizon(self) -> float:
        return 100.0 * self.sigma


@dataclass
class IterationRecord:
    index: int
    delta: float | None              # None: no candidate cleared delta_min
    p: np.ndarray | None
    kind: str | None = None          # counter-example kind, if one was found
    value: float | None = None       # the falsifier's counter-example value
    search_time: float = 0.0         # the falsifier's four searches, seconds
    segment: Segment | None = None
    segment_margin: float | None = None
    bb_nodes: int = 0                # candidate step: branch-and-bound nodes
    lp_pivots: int = 0               # candidate step: simplex pivots


@dataclass
class RunReport:
    status: RunStatus
    p: np.ndarray | None = None
    delta: float | None = None
    verdict: rigor.Verdict | None = None
    iterations: int = 0
    segment_count: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    log: list[IterationRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    total_time: float = 0.0


def run(prob: Problem, tmpl: Template, cfg: RunConfig | None = None) -> RunReport:
    """Synthesize a certificate, refining on counter-examples."""
    cfg = cfg or RunConfig()
    timings = {"simulation": 0.0, "candidate": 0.0,
               "counterexample": 0.0, "verification": 0.0}
    report = RunReport(RunStatus.ITERATION_LIMIT, timings=timings)
    rng = np.random.default_rng(cfg.seed)
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    segments = sim.init_segments(prob, cfg.sigma, cfg.vertex_cap,
                                 int(rng.integers(2 ** 63)),
                                 bloat_factor=cfg.bloat_factor)
    timings["simulation"] += time.perf_counter() - t0

    warm = None
    for it in range(1, cfg.max_iterations + 1):
        report.iterations = it

        t0 = time.perf_counter()
        constraint = chebyshev.build(segments, tmpl, prob)
        cand = chebyshev.solve(constraint, cfg.delta_min, warm)
        timings["candidate"] += time.perf_counter() - t0
        if cand is None:
            report.log.append(IterationRecord(it, None, None))
            report.status = RunStatus.NO_CANDIDATE
            break
        warm = cand.p
        record = IterationRecord(it, cand.delta, cand.p,
                                 bb_nodes=cand.nodes, lp_pivots=cand.pivots)
        report.log.append(record)

        cert = Certificate(tmpl, cand.p)
        fcfg = falsify.FalsifyConfig(
            starts=cfg.starts, seed=int(rng.integers(2 ** 63)),
            bloat_factor=cfg.bloat_factor, t_max=cfg.ride_horizon)
        t0 = time.perf_counter()
        ce = falsify.find_counterexample(prob, cert, fcfg)
        elapsed = time.perf_counter() - t0
        if ce is not None:
            timings["simulation"] += ce.sim_time
        record.search_time = ce.search_time if ce is not None else elapsed
        timings["counterexample"] += record.search_time

        if ce is not None:
            record.kind = ce.kind
            record.value = ce.value
            record.segment = ce.segment
            record.segment_margin = ce.margin
            segments.append(ce.segment)
            continue

        if cfg.verify:
            t0 = time.perf_counter()
            verdict = rigor.verify(
                prob, tmpl, cand.p,
                rigor.VerifyConfig(min_width_frac=cfg.min_width_frac))
            timings["verification"] += time.perf_counter() - t0
            if verdict.status is rigor.VerdictStatus.REFUTED:
                mode, x, _d = verdict.witness
                rule = None
                if verdict.condition == 4:
                    rules = prob.mode_resets(mode)
                    rule = next((r for r in rules if r.guard.contains(x)),
                                rules[0])
                t0 = time.perf_counter()
                seg, m = falsify.refuting_segment(
                    prob, cert, falsify.KINDS[verdict.condition - 1], mode, x,
                    rule, bloat_factor=cfg.bloat_factor,
                    t_max=cfg.ride_horizon)
                timings["simulation"] += time.perf_counter() - t0
                record.kind = f"verify-refuted-{verdict.condition}"
                record.segment = seg
                record.segment_margin = m
                segments.append(seg)
                continue
            report.verdict = verdict
            if verdict.status is rigor.VerdictStatus.UNKNOWN:
                report.notes.append(
                    "verification gave up on some boxes; certificate kept")
        report.status = RunStatus.BARRIER_FOUND
        report.p = cand.p
        report.delta = cand.delta
        break

    report.segment_count = len(segments)
    report.total_time = time.perf_counter() - t_start
    return report
