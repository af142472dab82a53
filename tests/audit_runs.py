"""Seeds audit: ``engine.run`` on every corpus problem at each given seed.

    PYTHONPATH=src python tests/audit_runs.py 0 1 2 3 4 5 6 7 > runs.jsonl
    PYTHONPATH=src python tests/audit_runs.py 0 1 2 --compare runs.jsonl
    PYTHONPATH=src python tests/audit_runs.py 0 1 2 --no-verify

Each run takes its document's settings, with the seed replaced, and
prints one JSON line: the status, verdict, round and segment counts,
``p`` and delta as ``float.hex``, per round the counter-example kind and
value, the segment margin, the branch-and-bound nodes and the LP pivots,
the verifier's box counts per condition, and under ``batches`` the
work of the two inner loops: the falsifier's lockstep batches (the
calls of ``falsify.minimize_box``'s ``f`` and ``grad``), in the drift
search (``min_transversality``) and in the other three searches apart,
and the rides' event-location trials (the calls of the event function
inside ``sim._locate``).  ``--compare FILE`` reads the lines of an
earlier audit and prints, to stderr, each run that differs from its
line there in more than its counts (the rounds' nodes and pivots and
the batches), with its status, verdict and round changes, and then the
rounds, the nodes, the pivots, the batches of each kind and the event
trials summed over the runs in both, before -> after.  A count that an
earlier audit lacks (one taken before it was recorded) prints as "-".
The exit status is 1 when a run does not end in BarrierFound/Verified,
or when the summed rounds rise.  ``--no-verify`` audits the heuristic
mode: each run has ``verify=False``, so the falsifier alone accepts a
candidate, and the final certificate is verified afterwards with
``verify.verify``; that verdict, and its box counts, are the line's.
"""

from __future__ import annotations

import argparse
import json
import sys

from simbarrier import benchmarks, engine, falsify, model, sim, verify

# what is counted, and how --compare names its sum: per round the
# branch-and-bound nodes and LP pivots, and per run the work under "batches"
COUNTS = {"nodes": "B&B nodes", "pivots": "LP pivots",
          "drift": "drift batches", "other": "other batches",
          "events": "event trials"}


def _hex(v) -> str | None:
    return None if v is None else float(v).hex()


def _run_counting_batches(prob, tmpl, cfg) -> tuple[engine.RunReport, dict]:
    """``engine.run`` with every call of ``minimize_box``'s ``f`` and
    ``grad`` counted, under "drift" within ``min_transversality`` and
    under "other" elsewhere, and every call of ``sim._locate``'s event
    function under "events"; ``falsify`` and ``sim`` are restored
    afterwards."""
    counts = dict.fromkeys(("drift", "other", "events"), 0)
    search = ["other"]
    minimize, drift = falsify.minimize_box, falsify.min_transversality
    locate = sim._locate

    def counted(fn, key=None):
        def call(*args):
            counts[key or search[0]] += 1
            return fn(*args)
        return call

    def minimize_box(f, grad, *args, **kwargs):
        return minimize(counted(f), counted(grad), *args, **kwargs)

    def _locate(g, *args):
        return locate(counted(g, "events"), *args)

    def min_transversality(*args, **kwargs):
        search[0] = "drift"
        try:
            return drift(*args, **kwargs)
        finally:
            search[0] = "other"

    falsify.minimize_box = minimize_box
    falsify.min_transversality = min_transversality
    sim._locate = _locate
    try:
        return engine.run(prob, tmpl, cfg), counts
    finally:
        falsify.minimize_box, falsify.min_transversality = minimize, drift
        sim._locate = locate


def _outcome(entry: dict) -> dict:
    """An audit line without its counts: what the run computed."""
    out = {key: v for key, v in entry.items() if key != "batches"}
    out["log"] = [rec[:3] for rec in entry["log"]]
    return out


def _counts(entry: dict) -> dict:
    """An audit line's counts by ``COUNTS`` key, the nodes and pivots
    summed over its rounds; a count the line lacks is missing."""
    log = entry["log"]
    return {"nodes": sum(rec[3] for rec in log),
            "pivots": sum(rec[4] for rec in log), **entry.get("batches", {})}


def audit(name: str, doc: dict, seed: int, verified: bool = True) -> dict:
    prob = model.load_problem(doc)
    tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
    run = doc["run"]
    cfg = engine.RunConfig(
        sigma=run["sigma"], bloat_factor=run["bloat"], starts=run["starts"],
        max_iterations=run["max_iter"], seed=seed, verify=verified)
    report, batches = _run_counting_batches(prob, tmpl, cfg)
    verdict = report.verdict
    if not verified and report.p is not None:
        verdict = verify.verify(prob, tmpl, report.p, cfg.min_width_frac)
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
    parser.add_argument("--no-verify", action="store_true",
                        help="run with verification off and verify each "
                             "final certificate afterwards")
    args = parser.parse_args(argv)
    before = {}
    if args.compare:
        with open(args.compare) as f:
            for line in f:
                entry = json.loads(line)
                before[entry["problem"], entry["seed"]] = entry
    failed = differ = 0
    rounds_before = rounds_after = 0
    counts_before = dict.fromkeys(COUNTS, 0)
    counts_after = dict.fromkeys(COUNTS, 0)
    old_counted = dict.fromkeys(COUNTS, True)  # in every compared old line
    for seed in args.seeds:
        for name, doc in benchmarks.corpus().items():
            entry = audit(name, doc, seed, not args.no_verify)
            print(json.dumps(entry), flush=True)
            if (entry["status"], entry["verdict"]) != ("BarrierFound",
                                                       "Verified"):
                failed += 1
            old = before.get((name, seed))
            if old is not None:
                rounds_before += old["rounds"]
                rounds_after += entry["rounds"]
                now, then = _counts(entry), _counts(old)
                for kind in COUNTS:
                    counts_after[kind] += now[kind]
                    was = then.get(kind)
                    old_counted[kind] &= was is not None
                    counts_before[kind] += was or 0
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
        for kind, name in COUNTS.items():
            was = counts_before[kind] if old_counted[kind] else "-"
            print(f"summed {name} {was} -> {counts_after[kind]}",
                  file=sys.stderr)
    print(f"{failed} runs not BarrierFound/Verified", file=sys.stderr)
    return 1 if failed or rounds_after > rounds_before else 0


if __name__ == "__main__":
    sys.exit(main())
