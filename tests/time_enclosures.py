"""Micro-timing of the verifier's two interval enclosures.

    PYTHONPATH=src python tests/time_enclosures.py

For each committed certificate of ``bench/data/certs`` (with its problem
from ``bench/data/expected.json``), prints the µs per call of the value
enclosure (``Certificate.value_box``) and the drift enclosure
(``verify._drift_box``) of its first mode, on 1, 16 and 128 boxes, as a
markdown table.  The boxes are drawn with a fixed seed inside the region
each condition covers, each 1/64 of its width per dimension, as in the
cover's deeper levels.  Each figure is the least of 5 repeats, after one
call that compiles the code.  The script only reads those files.
"""

from __future__ import annotations

import json
import pathlib
import timeit

import numpy as np

from simbarrier import benchmarks, cli, model, verify

DATA = pathlib.Path(__file__).resolve().parent.parent / "bench" / "data"
ROWS = (1, 16, 128)


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


def main() -> None:
    bundled = benchmarks.corpus()
    cases = json.loads((DATA / "expected.json").read_text())["cases"]
    cols = [f"{kind} {k}" for kind in ("value", "drift") for k in ROWS]
    print("| certificate (µs per call) | " + " | ".join(cols) + " |")
    print("|---" * (len(cols) + 1) + "|")
    for case in cases:
        name = case["problem"]
        doc = (bundled.get(name)
               or json.loads((DATA / f"{name}.json").read_text()))
        prob = model.load_problem(doc)
        tmpl, p = cli._barrier_from_doc(
            json.loads((DATA / case["barrier"]).read_text()), prob,
            case["barrier"])
        cert = model.Certificate(tmpl, p)
        rng = np.random.default_rng(0)
        cells = []
        for enclose, region in (
                (cert[0].value_box, prob.modes[0].omega),
                (verify._drift_box(prob, cert, 0), prob.flow_boxes[0])):
            with np.errstate(all="ignore"):
                cells += [_us_per_call(enclose, *_boxes(region, k, rng))
                          for k in ROWS]
        print(f"| {case['id']} | " + " | ".join(f"{c:.1f}" for c in cells)
              + " |")


if __name__ == "__main__":
    main()
