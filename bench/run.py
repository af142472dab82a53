"""Benchmark of simbarrier: time to a verified barrier certificate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through the public library API in this process, checks
every outcome independently of the verifier, and prints the metrics; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, with times scaled to a reference machine speed (see
``speed.py``).  ``--trace 1`` adds one traced pass after the untraced
ones and reports the per-layer metrics, with the spans written to
``bench/out/``.  Workloads, metrics and known gaps are described in
``bench/README.md``.
"""

from __future__ import annotations

import os

# numpy's OpenBLAS would otherwise start a second thread on a small machine
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import FloatCert, FloatSystem, replay_witness, sample_conditions  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

# Problems of each synthesis workload, run with their bundled documents'
# own settings (seed included) so that every pass does the same work.
SYNTH_PROBLEMS = {
    "synth-nonlinear": ("pendulum",),
    "synth-scalable": ("scalable-l3", "scalable-l4"),
}
WORKLOADS = (*SYNTH_PROBLEMS, "verify-certs")
SETUP_ROUNDS = 5


def run_config(engine, doc: dict):
    """The RunConfig that ``simbarrier synth`` builds from a document."""
    run = doc["run"]
    return engine.RunConfig(sigma=float(run["sigma"]),
                            bloat_factor=float(run["bloat"]),
                            starts=int(run["starts"]),
                            max_iterations=int(run["max_iter"]),
                            seed=int(run["seed"]))


def read_barrier(model, doc: dict, prob):
    """Template and coefficients of a ``barrier/1`` document."""
    blocks, coeffs = [], []
    for mode in prob.modes:
        entries = doc["modes"][mode.name]
        blocks.append(tuple(model.monomial_from_name(name, prob.state_vars)
                            for name in entries))
        coeffs.extend(float(v) for v in entries.values())
    return model.Template(tuple(blocks)), np.array(coeffs)


def problem_doc(bundled: dict, name: str) -> dict:
    """A bundled problem document, or one of the benchmark's own."""
    if name in bundled:
        return bundled[name]
    return json.loads((DATA / f"{name}.json").read_text())


class Program:
    """The modules of one fresh import of simbarrier."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "simbarrier" or m.startswith("simbarrier.")]:
            del sys.modules[name]
        load = importlib.import_module
        self.package = load("simbarrier")
        for name in ("benchmarks", "chebyshev", "engine", "expr", "falsify",
                     "lp", "model", "sim", "verify"):
            setattr(self, name, load(f"simbarrier.{name}"))


class SynthOp:
    """Synthesize one bundled problem, verification included."""

    def __init__(self, prog: Program, doc: dict):
        self.name = doc["name"]
        self.prog = prog
        self.doc = doc
        self.prob = prog.model.load_problem(self.doc)
        self.tmpl = prog.model.make_template(self.doc["template"],
                                             self.prob.dim,
                                             len(self.prob.modes))
        self.cfg = run_config(prog.engine, self.doc)

    def run(self):
        return self.prog.engine.run(self.prob, self.tmpl, self.cfg)

    def check(self, report, rng) -> list[str]:
        if report.status.value != "BarrierFound":
            return [f"status {report.status.value}"]
        if report.verdict is None or report.verdict.status.value != "Verified":
            return ["certificate was not verified"]
        cert = FloatCert([
            [(float(c), m) for c, m in zip(report.p[self.tmpl.block_slice(i)],
                                           self.tmpl.monomials[i])]
            for i in range(len(self.prob.modes))])
        return sample_conditions(FloatSystem(self.doc), cert, rng)


class VerifyOp:
    """Verify one committed certificate with a known verdict."""

    def __init__(self, prog: Program, case: dict, doc: dict):
        self.name = case["id"]
        self.prog = prog
        self.case = case
        self.doc = doc
        self.barrier = json.loads((DATA / case["barrier"]).read_text())
        self.prob = prog.model.load_problem(self.doc)
        self.tmpl, self.p = read_barrier(prog.model, self.barrier, self.prob)

    def run(self):
        return self.prog.verify.verify(self.prob, self.tmpl, self.p)

    def check(self, verdict, _rng) -> list[str]:
        want, cond = self.case["verdict"], self.case["condition"]
        if verdict.status.value != want or verdict.condition != cond:
            return [f"verdict {verdict.status.value} at condition "
                    f"{verdict.condition}, expected {want} at {cond}"]
        if want != "Refuted":
            return []
        system = FloatSystem(self.doc)
        cert = FloatCert.from_barrier_doc(self.barrier, system)
        problem = replay_witness(system, cert, cond, verdict.witness)
        return [f"witness does not replay: {problem}"] if problem else []


def set_up(workload: str):
    """Import simbarrier and load, validate and build the workload's inputs."""
    prog = Program()
    bundled = prog.benchmarks.corpus()
    if workload in SYNTH_PROBLEMS:
        return [SynthOp(prog, bundled[name])
                for name in SYNTH_PROBLEMS[workload]], prog
    cases = json.loads((DATA / "expected.json").read_text())["cases"]
    return [VerifyOp(prog, case, problem_doc(bundled, case["problem"]))
            for case in cases], prog


def run_pass(ops, order, clock, tracer: Tracer | None = None):
    """One closed-loop pass: each operation starts when the previous ends."""
    results = []
    t0 = clock()
    for i in order:
        op = ops[i]
        call = op.run
        if tracer is not None:
            tracer.op = op.name
            call = tracer.wrap(op.run, "op")
        t_op = clock()
        try:
            result, error = call(), None
        except Exception:  # an operation's failure is counted, not fatal
            result, error = None, traceback.format_exc()
        results.append((op, result, error, clock() - t_op))
    return clock() - t0, results


def install(tracer: Tracer, prog: Program, layer: dict):
    def on_hit(result):
        layer["hits"] += result is not None

    def on_build(constraint):
        layer["rows"] = max(layer["rows"], constraint.n_rows)

    def on_verdict(verdict):
        layer["refuted"] += verdict.status.value == "Refuted"
        for r in verdict.reports.values():
            layer["boxes"] += r.boxes_verified + r.boxes_split + r.boxes_unresolved
            layer["unresolved"] += r.boxes_unresolved

    tracer.span(prog.falsify, "find_counterexample", on_hit)
    for name in ("min_initial", "min_unsafe", "min_transversality", "min_reset"):
        tracer.span(prog.falsify, name)
    tracer.span(prog.chebyshev, "build", on_build)
    tracer.span(prog.chebyshev, "solve")
    tracer.span(prog.lp, "lp_max")
    for name in ("init_segments", "omega", "alpha"):
        tracer.span(prog.sim, name)
    tracer.span(prog.verify, "verify", on_verdict)
    tracer.count(prog.falsify, "minimize_box")
    for name in ("template_value", "template_grad_x", "template_hess_x"):
        tracer.count(prog.model, name)
    tracer.count(prog.expr, "evaluate")
    tracer.count(prog.expr, "interval_eval")


def layer_metrics(tracer: Tracer, layer: dict, results,
                  overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass.  Span times are raw wall
    times and ``trace.pass_s``, the sum of the operation spans, is their
    denominator; the overhead is the traced pass minus the untraced median,
    both scaled like ``pass_s``."""
    total, self_time, calls = tracer.totals()
    reports = [r for op, r, _, _ in results if isinstance(op, SynthOp) and r]
    kinds = [rec.kind or "" for r in reports for rec in r.log]

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {
        "engine.iterations": (sum(r.iterations for r in reports), "count"),
        "engine.segments": (sum(r.segment_count for r in reports), "count"),
        "engine.verify_refutations": (
            sum(k.startswith("verify-refuted") for k in kinds), "count"),
        "falsify.find_counterexample.s": (total["falsify.find_counterexample"], "s"),
        "falsify.find_counterexample.calls": (calls["falsify.find_counterexample"], "count"),
        "falsify.find_counterexample.self_s": (self_time["falsify.find_counterexample"], "s"),
    }
    for name in ("min_transversality", "min_initial", "min_unsafe", "min_reset"):
        m[f"falsify.{name}.s"] = (total[f"falsify.{name}"], "s")
    m["falsify.minimize_box.calls"] = (tracer.counts["falsify.minimize_box.calls"], "count")
    m["falsify.hit_share"] = (
        share(layer["hits"], calls["falsify.find_counterexample"]), "ratio")
    for name in ("model.template_value", "model.template_grad_x",
                 "model.template_hess_x", "expr.evaluate", "expr.interval_eval"):
        m[f"{name}.calls"] = (tracer.counts[f"{name}.calls"], "count")
    m.update({
        "chebyshev.build.s": (total["chebyshev.build"], "s"),
        "chebyshev.solve.s": (total["chebyshev.solve"], "s"),
        "chebyshev.solve.calls": (calls["chebyshev.solve"], "count"),
        "chebyshev.rows": (layer["rows"], "count"),
        "lp.lp_max.s": (total["lp.lp_max"], "s"),
        "lp.lp_max.calls": (calls["lp.lp_max"], "count"),
        "sim.init_segments.s": (total["sim.init_segments"], "s"),
        "sim.init_segments.calls": (calls["sim.init_segments"], "count"),
        "sim.ride.s": (total["sim.omega"] + total["sim.alpha"], "s"),
        "sim.ride.calls": (calls["sim.omega"] + calls["sim.alpha"], "count"),
        "verify.verify.s": (total["verify.verify"], "s"),
        "verify.verify.calls": (calls["verify.verify"], "count"),
        "verify.boxes": (layer["boxes"], "count"),
        "verify.unresolved": (layer["unresolved"], "count"),
        "verify.refuted_share": (
            share(layer["refuted"], calls["verify.verify"]), "ratio"),
        "trace.pass_s": (total["op"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return {name: (float(v) if unit == "s" else v, unit)
            for name, (v, unit) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "simbarrier" / "__init__.py").is_file():
        print(f"error: no simbarrier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    with SpeedProbe() as probe:
        setup_times = []
        mark = probe.mark()
        for _ in range(SETUP_ROUNDS):
            t0 = probe.clock()
            ops, prog = set_up(args.workload)
            setup_times.append(probe.clock() - t0)
        setup_s = statistics.median(setup_times) * probe.factor(mark)

        order_rng = np.random.default_rng(args.seed)
        pass_times, scaled, outcomes = [], [], []
        start = probe.clock()
        while not pass_times or probe.clock() - start < args.seconds:
            mark = probe.mark()
            seconds, results = run_pass(ops, order_rng.permutation(len(ops)),
                                        probe.clock)
            pass_times.append(seconds)
            scaled.append(seconds * probe.factor(mark))
            outcomes.extend(results)
        op_times = {}
        for op, _result, _error, seconds in outcomes:
            op_times.setdefault(op.name, []).append(seconds)

        if args.trace:
            tracer, layer = Tracer(), dict(hits=0, rows=0, refuted=0,
                                           boxes=0, unresolved=0)
            install(tracer, prog, layer)
            mark = probe.mark()
            try:
                traced_s, results = run_pass(
                    ops, order_rng.permutation(len(ops)), probe.clock, tracer)
            finally:
                tracer.restore()
            overhead_s = traced_s * probe.factor(mark) - statistics.median(scaled)
            outcomes.extend(results)
    check_rng = np.random.default_rng([args.seed, 1])
    failed = 0
    for op, result, error, _seconds in outcomes:
        try:
            problems = [error] if error else op.check(result, check_rng)
        except Exception:  # a malformed outcome is a failed operation
            problems = [traceback.format_exc()]
        for problem in problems:
            print(f"FAIL {op.name}: {problem}", file=sys.stderr)
        failed += bool(problems)
    attempted = len(outcomes)

    if args.trace:
        metrics = layer_metrics(tracer, layer, results, overhead_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(scaled), "s"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tool": f"simbarrier {prog.package.__version__}",
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "speed_samples": len(probe.samples),
        "setup_times": setup_times, "pass_times": pass_times,
        "op_times": op_times,
        "operations": [op.name for op in ops],
    }
    if args.trace:
        path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.dump(path, meta)
        meta["spans_file"] = str(path.relative_to(ROOT))
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    print(json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
