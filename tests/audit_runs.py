"""Seeds audit: ``engine.run`` on every corpus problem at each given seed.

    PYTHONPATH=src python tests/audit_runs.py 0 1 2 3 4 5 6 7 > runs.jsonl
    PYTHONPATH=src python tests/audit_runs.py 0 1 2 --compare runs.jsonl

Each run takes its document's settings, with the seed replaced, and
prints one JSON line: the status, verdict, round and segment counts,
``p`` and delta as ``float.hex``, per round the counter-example kind and
value, the segment margin, the branch-and-bound nodes and the LP pivots,
and the verifier's box counts per condition.  ``--compare FILE`` reads
the lines of an earlier audit and prints, to stderr, each run that
differs from its line there, with its status, verdict and round changes,
and then the rounds summed over the runs in both, before -> after.
The exit status is 1 when a run does not end in BarrierFound/Verified,
or when the summed rounds rise.
"""

from __future__ import annotations

import argparse
import json
import sys

from simbarrier import benchmarks, engine, model


def _hex(v) -> str | None:
    return None if v is None else float(v).hex()


def audit(name: str, doc: dict, seed: int) -> dict:
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    run = doc["run"]
    report = engine.run(prob, tmpl, engine.RunConfig(
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
            if args.compare and old != entry:
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
    print(f"{failed} runs not BarrierFound/Verified", file=sys.stderr)
    return 1 if failed or rounds_after > rounds_before else 0


if __name__ == "__main__":
    sys.exit(main())
