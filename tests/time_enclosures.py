"""Micro-timing of the verifier: its two interval enclosures, its cost per
cover level, and its drift witness's Newton landing.

    PYTHONPATH=src python tests/time_enclosures.py

For each committed certificate of ``bench/data/certs`` (with its problem
from ``bench/data/expected.json``), prints three markdown tables.  The
first gives the µs per call of the value enclosure
(``Certificate.value_box``) and the drift enclosure (``verify._drift_box``)
of its first mode, on 1, 16 and 128 boxes.  The boxes are drawn with a
fixed seed inside the region each condition covers, each 1/64 of its
width per dimension, as in the cover's deeper levels.  Each figure is the
least of 5 repeats, after one call that compiles the code.  The second
gives the ms per ``verify.verify`` call, as the benchmark makes it (a new
``Certificate`` per call), the least of 5 after one warm call; the cover
levels (``ConditionReport.levels``) and boxes over the four conditions;
and the µs per level.  The third gives the µs per row of the drift
witness's landing (``model.land_on_level_set`` with the first mode's
``value_grad``, the witness's band and ``model.LANDING_STEPS``) from the
midpoints of 1 and 16 boxes drawn as for the first table in the mode's
box, each row in its own box, the least of 5 repeats; and how many of the
16 rows reach the band.  The script only reads those files.
"""

from __future__ import annotations

import json
import pathlib
import timeit

import numpy as np

from simbarrier import benchmarks, cli, model, verify

DATA = pathlib.Path(__file__).resolve().parent.parent / "bench" / "data"
ROWS = (1, 16, 128)
LANDED_ROWS = (1, 16)


def _boxes(region: model.Box, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = np.array(region.lo), np.array(region.hi)
    width = (hi - lo) / 64.0
    start = lo + rng.random((k, len(lo))) * (hi - lo - width)
    return start, start + width


def _us_per_call(enclose, lo, hi) -> float:
    enclose(lo, hi)
    number = max(1, int(2e-2 / max(timeit.timeit(lambda: enclose(lo, hi),
                                                  number=1), 1e-7)))
    best = min(timeit.repeat(lambda: enclose(lo, hi), number=number,
                             repeat=5))
    return best / number * 1e6


def _certificates():
    """(id, problem, template, coefficients) of each committed certificate."""
    bundled = benchmarks.corpus()
    cases = json.loads((DATA / "expected.json").read_text())["cases"]
    for case in cases:
        name = case["problem"]
        doc = (bundled.get(name)
               or json.loads((DATA / f"{name}.json").read_text()))
        prob = model.load_problem(doc)
        tmpl, p = cli._barrier_from_doc(
            json.loads((DATA / case["barrier"]).read_text()), prob,
            case["barrier"])
        yield case["id"], prob, tmpl, p


def _table(cols) -> None:
    print("| " + " | ".join(cols) + " |")
    print("|---" * len(cols) + "|")


def main() -> None:
    certificates = list(_certificates())
    _table(["certificate (µs per call)"]
           + [f"{kind} {k}" for kind in ("value", "drift") for k in ROWS])
    for name, prob, tmpl, p in certificates:
        cert = model.Certificate(tmpl, p)
        rng = np.random.default_rng(0)
        cells = []
        for enclose, region in (
                (cert[0].value_box, prob.modes[0].omega),
                (verify._drift_box(prob, cert, 0), prob.flow_boxes[0])):
            with np.errstate(all="ignore"):
                cells += [_us_per_call(enclose, *_boxes(region, k, rng))
                          for k in ROWS]
        print(f"| {name} | " + " | ".join(f"{c:.1f}" for c in cells) + " |")
    print()
    _table(["certificate", "ms per verify", "levels", "boxes",
            "µs per level"])
    for name, prob, tmpl, p in certificates:
        verdict = verify.verify(prob, tmpl, p)
        best = min(timeit.repeat(lambda: verify.verify(prob, tmpl, p),
                                 number=1, repeat=5))
        reports = verdict.reports.values()
        levels = sum(r.levels for r in reports)
        boxes = sum(r.boxes_verified + r.boxes_split + r.boxes_unresolved
                    for r in reports)
        print(f"| {name} | {best * 1e3:.2f} | {levels} | {boxes} | "
              f"{best / levels * 1e6:.0f} |")
    print()
    _table(["certificate (µs per landed row)"]
           + [f"landing {k}" for k in LANDED_ROWS] + ["reach the band of 16"])
    for name, prob, tmpl, p in certificates:
        value_grad = model.Certificate(tmpl, p)[0].value_grad
        band = verify._WITNESS_BAND * (1.0 + float(np.linalg.norm(p)))
        rng = np.random.default_rng(0)

        def land(lo, hi):
            return model.land_on_level_set(value_grad, 0.5 * (lo + hi), lo,
                                           hi, band, model.LANDING_STEPS)
        cells = []
        for k in LANDED_ROWS:
            lo, hi = _boxes(prob.modes[0].omega, k, rng)
            cells.append(f"{_us_per_call(land, lo, hi) / k:.1f}")
        cells.append(str(int(land(lo, hi)[1].sum())))
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
