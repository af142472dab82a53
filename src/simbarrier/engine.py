"""Counter-example-guided refinement loop.

Bootstrap segments seed the sampled constraint; the loop alternates
max-margin candidate computation and the candidate's test, growing the
segment set by the refuting segments of each round (the worst
counter-example's and those of up to ``falsify._EXTRAS`` other distinct
ones).  With verification on, the rigorous verifier tests each candidate
first: a proved one ends the loop, and the falsifier searches only one
that is not proved, and in it only the conditions the verdict left open
(``Verdict.proved``; on a refuted round, the refuted condition and those
after it, and any before it whose cover left a box unresolved).  A
refuted verdict's witness, a ``model.Hit`` like the falsifier's and
naming its reset, becomes the refuting segment through
``falsify.refute``, the path the falsifier's hits take, when the search
misses.  Without verification the falsifier is the only test and runs
all four searches.  Each candidate is one ``model.Certificate``, shared
by the verifier, the falsifier's searches, the rides and the refuting
segments.
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


class SettingError(ValueError):
    """A run setting out of its range; ``field`` names it."""

    def __init__(self, field: str, expected: str):
        super().__init__(f"expected {expected}")
        self.field = field


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
        # each setting, whether it is in range, and its range; every test is
        # written so that nan fails it
        checks = [
            ("sigma", 0 <= self.sigma < math.inf, "a finite number >= 0"),
            ("bloat_factor", 1 <= self.bloat_factor < math.inf,
             "a finite number >= 1"),
            ("delta_min", self.delta_min >= 0, "a number >= 0"),
            ("min_width_frac", 0 < self.min_width_frac < math.inf,
             "a finite number > 0"),
            ("seed", self.seed >= 0, "an integer >= 0")]
        # a start, a round and a bootstrap vertex each cost work and memory;
        # the maxima bound what one run can ask for
        for name, most in (("starts", 10_000), ("max_iterations", 10_000),
                           ("vertex_cap", 65_536)):
            n = getattr(self, name)
            checks.append((name, 1 <= n <= most,
                           f"at most {most}" if n > most else "at least 1"))
        for name, ok, expected in checks:
            if not ok:
                raise SettingError(name, expected)

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
    # the falsifier's four searches, seconds; 0.0 in a round whose
    # candidate the verifier proved, which is not searched
    search_time: float = 0.0
    segment: Segment | None = None   # the worst counter-example's segment
    segment_margin: float | None = None
    extras: list[Segment] = field(default_factory=list)  # other refuting ones
    segments_dropped: int = 0        # extra segments that did not refute
    bb_nodes: int = 0                # candidate step: branch-and-bound nodes
    lp_pivots: int = 0               # candidate step: simplex pivots

    @property
    def segments_added(self) -> int:
        return (self.segment is not None) + len(self.extras)


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
    """Synthesize a certificate, refining on counter-examples.

    Each round's candidate is verified (``cfg.verify``) before it is
    searched.  Verified ends the run BarrierFound without a search.
    Otherwise the falsifier searches the conditions the verdict did not
    prove (all four without verification): a hit refutes it; a miss
    refutes it with a Refuted verdict's witness, or ends the run
    BarrierFound with an Unknown verdict, or, without verification, with
    no verdict.  The falsifier's seed is drawn in every round, searched or
    not, so a round's seed does not depend on how earlier rounds were
    tested."""
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

    for it in range(1, cfg.max_iterations + 1):
        report.iterations = it

        t0 = time.perf_counter()
        constraint = chebyshev.build(segments, tmpl, prob)
        cand = chebyshev.solve(constraint, cfg.delta_min)
        timings["candidate"] += time.perf_counter() - t0
        if cand is None:
            report.log.append(IterationRecord(it, None, None))
            report.status = RunStatus.NO_CANDIDATE
            break
        record = IterationRecord(it, cand.delta, cand.p,
                                 bb_nodes=cand.nodes, lp_pivots=cand.pivots)
        report.log.append(record)

        cert = Certificate(tmpl, cand.p)
        seed = int(rng.integers(2 ** 63))
        verdict = None
        if cfg.verify:
            t0 = time.perf_counter()
            verdict = rigor.verify(prob, tmpl, cand.p, cfg.min_width_frac,
                                   cert=cert)
            timings["verification"] += time.perf_counter() - t0
        status = verdict.status if verdict is not None else None

        ref = None
        if status is not rigor.VerdictStatus.VERIFIED:
            t0 = time.perf_counter()
            ref = falsify.find_counterexample(
                prob, cert, starts=cfg.starts, seed=seed,
                bloat_factor=cfg.bloat_factor, t_max=cfg.ride_horizon,
                proved=verdict.proved if verdict is not None else ())
            record.search_time = time.perf_counter() - t0 - (
                ref.sim_time if ref is not None else 0.0)
            timings["counterexample"] += record.search_time
            if ref is not None:
                record.kind = ref.hit.kind
            elif status is rigor.VerdictStatus.REFUTED:
                ref = falsify.refute(prob, cert, [verdict.hit],
                                     bloat_factor=cfg.bloat_factor,
                                     t_max=cfg.ride_horizon)
                record.kind = f"verify-refuted-{verdict.condition}"

        if ref is not None:
            timings["simulation"] += ref.sim_time
            record.value = ref.hit.value
            record.segment, record.segment_margin = ref.segment, ref.margin
            record.extras, record.segments_dropped = ref.extras, ref.dropped
            segments += [ref.segment, *ref.extras]
            continue
        if verdict is not None:
            report.verdict = verdict
            if status is rigor.VerdictStatus.UNKNOWN:
                report.notes.append(
                    "verification gave up on some boxes; certificate kept")
        report.status = RunStatus.BARRIER_FOUND
        report.p = cand.p
        report.delta = cand.delta
        break

    report.segment_count = len(segments)
    report.total_time = time.perf_counter() - t_start
    return report
