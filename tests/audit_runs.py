"""Seeds audit: ``engine.run`` on every corpus problem at each given seed.

    PYTHONPATH=src python tests/audit_runs.py 0 1 2 3 4 5 6 7 > runs.jsonl
    PYTHONPATH=src python tests/audit_runs.py 0 1 2 --compare runs.jsonl

Each run takes its document's settings, with the seed replaced, and
prints one JSON line: the status, verdict, round and segment counts,
``p`` and delta as ``float.hex``, per round the counter-example kind and
value, the segment margin, the branch-and-bound nodes and the LP pivots,
the verifier's box counts per condition, and the falsifier's lockstep
batches: the calls of ``falsify.minimize_box``'s ``f`` and ``grad``, in
the drift search (``min_transversality``) and in the other three
searches apart.  ``--compare FILE`` reads the lines of an earlier audit
and prints, to stderr, each run that differs from its line there in
more than its batch counts, with its status, verdict and round changes,
and then the rounds and the batches of each kind summed over the runs
in both, before -> after.  An earlier audit without batch counts (one
taken before they were recorded) is compared on the rest; its batches
print as "-".  The exit status is 1 when a run does not end in
BarrierFound/Verified, or when the summed rounds rise.
"""

from __future__ import annotations

import argparse
import json
import sys

from simbarrier import benchmarks, engine, falsify, model

BATCHES = ("drift", "other")     # the searches whose batches are counted


def _hex(v) -> str | None:
    return None if v is None else float(v).hex()


def _run_counting_batches(prob, tmpl, cfg) -> tuple[engine.RunReport, dict]:
    """``engine.run`` with every call of ``minimize_box``'s ``f`` and
    ``grad`` counted, under "drift" within ``min_transversality`` and
    under "other" elsewhere; ``falsify`` is restored afterwards."""
    counts = dict.fromkeys(BATCHES, 0)
    search = ["other"]
    minimize, drift = falsify.minimize_box, falsify.min_transversality

    def counted(fn):
        def call(z):
            counts[search[0]] += 1
            return fn(z)
        return call

    def minimize_box(f, grad, *args, **kwargs):
        return minimize(counted(f), counted(grad), *args, **kwargs)

    def min_transversality(*args, **kwargs):
        search[0] = "drift"
        try:
            return drift(*args, **kwargs)
        finally:
            search[0] = "other"

    falsify.minimize_box = minimize_box
    falsify.min_transversality = min_transversality
    try:
        return engine.run(prob, tmpl, cfg), counts
    finally:
        falsify.minimize_box, falsify.min_transversality = minimize, drift


def _outcome(entry: dict) -> dict:
    """An audit line without its batch counts: what the run computed."""
    return {key: v for key, v in entry.items() if key != "batches"}


def audit(name: str, doc: dict, seed: int) -> dict:
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    run = doc["run"]
    report, batches = _run_counting_batches(prob, tmpl, engine.RunConfig(
        sigma=run["sigma"], bloat_factor=run["bloat"], starts=run["starts"],
        max_iterations=run["max_iter"], seed=seed))
    verdict = report.verdict
    return {
        "problem": name, "seed": seed,
        "status": report.status.value,
        "verdict": verdict and verdict.status.value,
        "rounds": report.iterations,
        "segments": report.segment_count,
        "p": None if report.p is None else [_hex(v) for v in report.p],
        "delta": _hex(report.delta),
        "log": [[r.kind, _hex(r.value), _hex(r.segment_margin), r.bb_nodes,
                 r.lp_pivots] for r in report.log],
        "boxes": verdict and {
            str(c): [r.boxes_verified, r.boxes_split, r.boxes_unresolved]
            for c, r in verdict.reports.items()},
        "batches": batches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--compare", metavar="FILE",
                        help="an earlier audit's output")
    args = parser.parse_args(argv)
    before = {}
    if args.compare:
        with open(args.compare) as f:
            for line in f:
                entry = json.loads(line)
                before[entry["problem"], entry["seed"]] = entry
    failed = differ = 0
    rounds_before = rounds_after = 0
    batches_before = dict.fromkeys(BATCHES, 0)
    batches_after = dict.fromkeys(BATCHES, 0)
    old_counted = True            # every compared earlier line has counts
    for seed in args.seeds:
        for name, doc in benchmarks.corpus().items():
            entry = audit(name, doc, seed)
            print(json.dumps(entry), flush=True)
            if (entry["status"], entry["verdict"]) != ("BarrierFound",
                                                       "Verified"):
                failed += 1
            old = before.get((name, seed))
            if old is not None:
                rounds_before += old["rounds"]
                rounds_after += entry["rounds"]
                old_counted &= "batches" in old
                for kind in BATCHES:
                    batches_after[kind] += entry["batches"][kind]
                    batches_before[kind] += old.get("batches", {}).get(kind, 0)
            if args.compare and (old is None
                                 or _outcome(old) != _outcome(entry)):
                differ += 1
                moved = "not in FILE" if old is None else ", ".join(
                    f"{key} {old[key]} -> {entry[key]}"
                    for key in ("status", "verdict", "rounds")
                    if old[key] != entry[key]) or "bits only"
                print(f"{name} seed {seed} differs: {moved}", file=sys.stderr)
    if args.compare:
        print(f"{differ} of {len(args.seeds) * len(benchmarks.corpus())} "
              "runs differ", file=sys.stderr)
        print(f"summed rounds {rounds_before} -> {rounds_after}",
              file=sys.stderr)
        for kind in BATCHES:
            was = batches_before[kind] if old_counted else "-"
            print(f"summed {kind} batches {was} -> {batches_after[kind]}",
                  file=sys.stderr)
    print(f"{failed} runs not BarrierFound/Verified", file=sys.stderr)
    return 1 if failed or rounds_after > rounds_before else 0


if __name__ == "__main__":
    sys.exit(main())
