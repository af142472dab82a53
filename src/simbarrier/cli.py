"""Command-line front end.

Commands: ``synth`` runs the refinement loop on a problem document and
writes a report, ``verify`` checks a given coefficient file rigorously,
``bench`` runs every problem in a directory, ``gen`` emits bundled
benchmark documents.  Exit codes: 0 for a found/verified certificate,
1 for no certificate / refuted / unknown, 2 for usage or document errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, benchmarks, chebyshev, engine, falsify, lp, model
from . import verify as rigor
from .expr import ParseError
from .model import Problem, ProblemFormatError, Template

PROBLEM_SCHEMA = "problem/1"
BARRIER_SCHEMA = "barrier/1"
REPORT_SCHEMA = "report/2"
VERDICT_SCHEMA = "verdict/1"

# failures of a run on a well-formed document: reported without a stack
# trace, exit code 1
_RUN_ERRORS = (falsify.RefutationError, lp.LPError, chebyshev.ConstraintError)


class UserError(Exception):
    """Bad input; reported without a stack trace, exit code 2."""


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UserError(f"{path}: {err.strerror or err}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise UserError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from None
    except (ValueError, RecursionError) as err:
        # an integer of more digits than int() reads, or nesting deeper
        # than the recursion limit
        raise UserError(f"{path}: invalid JSON: {err}") from None


def _load_object(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise UserError(f"{path}: document: expected a JSON object, got "
                        f"{type(doc).__name__}")
    return doc


def _load_problem_doc(path: str) -> tuple[Problem, Template, dict]:
    doc = _load_object(path)
    if doc.get("schema", PROBLEM_SCHEMA) != PROBLEM_SCHEMA:
        raise UserError(f"{path}: unsupported schema {doc.get('schema')!r}")
    try:
        prob = model.load_problem(doc)
        tmpl = model.make_template(doc.get("template", "linear"),
                                   prob.dim, len(prob.modes))
    except (ProblemFormatError, ParseError) as err:
        raise UserError(f"{path}: {err}") from None
    return prob, tmpl, doc


def _load_synth_doc(path: str) -> tuple[Problem, Template, dict]:
    """A problem document for synthesis, whose backward rides run every
    reset in reverse and so need its inverse."""
    prob, tmpl, doc = _load_problem_doc(path)
    for i, rule in enumerate(prob.resets):
        if not rule.invertible:
            raise UserError(f"{path}: resets[{i}]: synthesis needs an "
                            "inverse map and its image box")
    return prob, tmpl, doc


# each RunConfig setting that a document or a flag sets: its key in the
# document's "run" object, which also names its flag (vertex_cap has none)
_RUN_KEYS = {"sigma": "sigma", "bloat_factor": "bloat", "starts": "starts",
             "max_iterations": "max_iter", "seed": "seed",
             "delta_min": "delta_min", "min_width_frac": "min_box_width",
             "vertex_cap": "vertex_cap"}


def _run_config(doc: dict, args, path: str,
                names=tuple(_RUN_KEYS)) -> engine.RunConfig:
    """The run settings of ``names``: a flag's value, else the document's,
    else the default.  A setting out of range is reported at its flag or
    key."""
    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise UserError(f"{path}: run: expected an object")
    settings, where = {}, {}
    for name in names:
        key = _RUN_KEYS[name]
        flag = getattr(args, key, None)
        if flag is not None:
            settings[name], where[name] = flag, "--" + key.replace("_", "-")
        elif key in run:
            # an integer setting has an integer default
            integer = isinstance(getattr(engine.RunConfig, name), int)
            try:
                settings[name] = model.json_number(run[key], f"run.{key}",
                                                   integer)
            except ProblemFormatError as err:
                raise UserError(f"{path}: {err}") from None
            where[name] = f"{path}: run.{key}"
    try:
        return engine.RunConfig(verify=not getattr(args, "no_verify", False),
                                **settings)
    except engine.SettingError as err:
        raise UserError(f"{where[err.field]}: {err}") from None


def _barrier_json(prob: Problem, tmpl: Template, p: np.ndarray) -> dict:
    modes = {}
    for m, mdef in enumerate(prob.modes):
        block = p[tmpl.block_slice(m)]
        modes[mdef.name] = {
            model.monomial_name(mono, prob.state_vars): float(c)
            for mono, c in zip(tmpl.monomials[m], block)
        }
    return modes


def _barrier_from_doc(doc: dict, prob: Problem,
                      path: str) -> tuple[Template, np.ndarray]:
    if doc.get("schema", BARRIER_SCHEMA) != BARRIER_SCHEMA:
        raise UserError(f"{path}: unsupported barrier schema "
                        f"{doc.get('schema')!r}")
    raw_modes = doc.get("modes")
    if not isinstance(raw_modes, dict) or not raw_modes:
        raise UserError(f"{path}: modes: section missing or empty")
    blocks = []
    coeffs: list[float] = []
    for mdef in prob.modes:
        loc = f"{path}: modes.{mdef.name}"
        entries = raw_modes.get(mdef.name)
        if entries is None:
            raise UserError(f"{loc}: no coefficients for this mode")
        if not isinstance(entries, dict):
            raise UserError(f"{loc}: expected an object mapping monomials "
                            f"to coefficients")
        names: dict[tuple[int, ...], str] = {}
        for name, value in entries.items():
            try:
                mono = model.monomial_from_name(name, prob.state_vars)
            except ValueError as err:
                raise UserError(f"{loc}: {err}") from None
            if mono in names:
                raise UserError(f"{loc}: {names[mono]!r} and {name!r} name "
                                f"the same monomial")
            names[mono] = name
            try:
                coeff = model.json_number(value, f"modes.{mdef.name}.{name}")
            except ProblemFormatError as err:
                raise UserError(f"{path}: {err}") from None
            if not math.isfinite(coeff):
                raise UserError(f"{loc}.{name}: coefficient must be finite, "
                                f"got {value!r}")
            coeffs.append(coeff)
        monos = list(names)
        if all(any(e for e in m) for m in monos):
            monos.append(tuple(0 for _ in prob.state_vars))
            coeffs.append(0.0)
        blocks.append(tuple(monos))
    declared = {mdef.name for mdef in prob.modes}
    for name in raw_modes:
        if name not in declared:
            raise UserError(f"{path}: modes.{name}: the problem declares no "
                            "such mode")
    return Template(tuple(blocks)), np.asarray(coeffs)


def _found(report: engine.RunReport) -> bool:
    """A certificate found, and verified unless verification was off."""
    return (report.status is engine.RunStatus.BARRIER_FOUND
            and (report.verdict is None
                 or report.verdict.status is rigor.VerdictStatus.VERIFIED))


def _verdict_name(verdict: rigor.Verdict | None) -> str | None:
    return verdict.status.value if verdict is not None else None


def _boxes_json(verdict: rigor.Verdict | None) -> dict | None:
    """The verifier's box counts per condition; None without a verdict."""
    if verdict is None:
        return None
    return {str(i): {"verified": r.boxes_verified, "split": r.boxes_split,
                     "unresolved": r.boxes_unresolved}
            for i, r in verdict.reports.items()}


def _report_json(name: str, report: engine.RunReport, prob: Problem,
                 tmpl: Template, seed: int) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "problem": name,
        "status": report.status.value,
        "barrier": (_barrier_json(prob, tmpl, report.p)
                    if report.p is not None else None),
        "delta": report.delta,
        "iterations": report.iterations,
        "segments": report.segment_count,
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
        "verdict": _verdict_name(report.verdict),
        "boxes": _boxes_json(report.verdict),
        "tool": f"simbarrier {__version__}",
        "seed": seed,
        "notes": list(report.notes),
        "log": [_record_json(rec) for rec in report.log],
    }
    return doc


def _record_json(rec: engine.IterationRecord) -> dict:
    """One refinement round: the candidate's margin and search effort, the
    worst counter-example that refuted it (kind None for the last round),
    and how many refuting segments the round added and dropped."""
    return {
        "index": rec.index,
        "delta": rec.delta,
        "kind": rec.kind,
        "value": rec.value,
        "search_time": round(rec.search_time, 6),
        "segment_margin": rec.segment_margin,
        "segments_added": rec.segments_added,
        "segments_dropped": rec.segments_dropped,
        "bb_nodes": rec.bb_nodes,
        "lp_pivots": rec.lp_pivots,
    }


def _write_report(doc: dict, path: str | None):
    text = json.dumps(doc, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _synthesize(path: str, args):
    """Run the loop on the problem document at ``path`` with its settings
    and the flags.  Returns the problem's name and dimension, the run's
    report or its error, and the report document (None after an error,
    which is printed as an ``error:`` line)."""
    prob, tmpl, doc = _load_synth_doc(path)
    cfg = _run_config(doc, args, path)
    name = doc.get("name", Path(path).stem)
    try:
        report = engine.run(prob, tmpl, cfg)
    except _RUN_ERRORS as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return name, prob.dim, err, None
    return (name, prob.dim, report,
            _report_json(name, report, prob, tmpl, cfg.seed))


def _cmd_synth(args) -> int:
    _, _, report, out = _synthesize(args.problem, args)
    if out is None:
        return 1
    _write_report(out, args.report)
    return 0 if _found(report) else 1


def _cmd_verify(args) -> int:
    prob, _tmpl, doc = _load_problem_doc(args.problem)
    barrier_doc = _load_object(args.barrier)
    tmpl, p = _barrier_from_doc(barrier_doc, prob, args.barrier)
    frac = _run_config(doc, args, args.problem,
                       ("min_width_frac",)).min_width_frac
    t0 = time.perf_counter()
    verdict = rigor.verify(prob, tmpl, p, frac)
    elapsed = time.perf_counter() - t0
    mode, x, d = verdict.witness or (None, None, ())
    out = {
        "schema": VERDICT_SCHEMA,
        "problem": doc.get("name", Path(args.problem).stem),
        "status": verdict.status.value,
        "verdict": verdict.status.value,
        "condition": verdict.condition,
        "mode": None if mode is None else prob.modes[mode].name,
        "witness": x and list(x),
        "disturbance": list(d) or None,
        "reset": next((i for i, rule in enumerate(prob.resets)
                       if verdict.hit and rule is verdict.hit.rule), None),
        "wall_time": round(elapsed, 6),
        "boxes": _boxes_json(verdict),
        "tool": f"simbarrier {__version__}",
    }
    _write_report(out, args.report)
    return 0 if verdict.status is rigor.VerdictStatus.VERIFIED else 1


def _cmd_bench(args) -> int:
    directory = Path(args.corpus)
    if not directory.is_dir():
        raise UserError(f"{args.corpus}: not a directory")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise UserError(f"{args.corpus}: no problem documents found")
    rows = []
    all_ok = True
    for path in paths:
        name, dim, report, out = _synthesize(str(path), args)
        rows.append((name, dim, report))
        if out is None:
            # one failing problem becomes an error row; the batch goes on
            all_ok = False
            continue
        all_ok = all_ok and _found(report)
        if args.report_dir:
            Path(args.report_dir).mkdir(parents=True, exist_ok=True)
            _write_report(out, str(Path(args.report_dir) / f"{path.stem}-report.json"))
    header = (f"{'problem':<16} {'dim':>3} {'iter':>4} {'simulation':>10} "
              f"{'candidate':>10} {'counterex':>10} {'verif':>8}  status")
    print(header)
    for name, dim, report in rows:
        if isinstance(report, Exception):
            print(f"{name:<16} {dim:>3} {'-':>4} {'-':>10} {'-':>10} "
                  f"{'-':>10} {'-':>8}  Error/{type(report).__name__}")
            continue
        t = report.timings
        verdict = _verdict_name(report.verdict) or "-"
        print(f"{name:<16} {dim:>3} {report.iterations:>4} "
              f"{t['simulation']:>10.2f} {t['candidate']:>10.2f} "
              f"{t['counterexample']:>10.2f} {t['verification']:>8.2f}  "
              f"{report.status.value}/{verdict}")
    return 0 if all_ok else 1


def _cmd_gen(args) -> int:
    if args.corpus_dir:
        written = benchmarks.write_corpus(args.corpus_dir)
        for path in written:
            print(path)
        return 0
    if args.scalable is None:
        raise UserError("gen: pass --scalable L or --corpus DIR")
    if args.scalable < 1:
        raise UserError("gen: --scalable: expected an integer >= 1, "
                        f"got {args.scalable}")
    doc = benchmarks.scalable(args.scalable)
    text = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return 0


def _add_run_flags(sp):
    sp.add_argument("--sigma", type=float, default=None,
                    help="simulation length for bootstrap segments")
    sp.add_argument("--bloat", type=float, default=None,
                    help="state-space bloating factor (default 1.1)")
    sp.add_argument("--starts", type=int, default=None,
                    help="multi-start count for the falsifier")
    sp.add_argument("--max-iter", type=int, default=None,
                    help="refinement iteration budget")
    sp.add_argument("--seed", type=int, default=None, help="random seed")
    sp.add_argument("--delta-min", type=float, default=None,
                    help="smallest margin accepted as a candidate")
    sp.add_argument("--min-box-width", type=float, default=None,
                    help="verifier minimum box width as a fraction of the "
                         "state-space width")
    sp.add_argument("--no-verify", action="store_true",
                    help="skip the rigorous verification step")
    sp.add_argument("--report", default=None, help="write the report here")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simbarrier",
        description="Synthesize and verify barrier certificates from "
                    "simulations")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesize a certificate")
    sp.add_argument("problem", help="problem document (JSON)")
    _add_run_flags(sp)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("verify", help="verify given certificate coefficients")
    sp.add_argument("problem", help="problem document (JSON)")
    sp.add_argument("--barrier", required=True,
                    help="coefficient document (JSON)")
    sp.add_argument("--min-box-width", type=float, default=None)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("bench", help="run every problem in a directory")
    sp.add_argument("corpus", help="directory of problem documents")
    sp.add_argument("--report-dir", default=None,
                    help="write per-problem reports into this directory")
    _add_run_flags(sp)
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("gen", help="emit bundled benchmark documents")
    sp.add_argument("--scalable", type=int, default=None, metavar="L",
                    help="emit the scalable family instance with L pairs")
    sp.add_argument("--corpus", dest="corpus_dir", default=None, metavar="DIR",
                    help="write the whole bundled corpus into DIR")
    sp.add_argument("--output", default=None, help="output path")
    sp.set_defaults(func=_cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except UserError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
