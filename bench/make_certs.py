"""Rebuild the verify-certs inputs in bench/data from the program.

    python3 bench/make_certs.py

Synthesizes pendulum, log-dynamics and lorenz with their bundled run
settings (seed 0) and writes, as ``barrier/1`` documents:

* each final certificate, which the run verified;
* every lorenz candidate the verifier refuted at condition 3, taking
  every third one so that refutations do not crowd out proofs.

It also writes the two hand-derived certificates below and
``expected.json``, the verdicts the benchmark checks against.  The
thermostat problem, ``thermostat.json``, is written by hand.
"""

from __future__ import annotations

import json
import sys

from run import DATA, Program, run_config

# Published certificate of the composition system: V = 0.1277... - x1.
COMPOSITION = {"m": {"1": 0.12774317671, "x1": -1.0}}

# Thermostat: V_off = -1 never vanishes; V_on = c - x vanishes at x = c,
# where the heater drives dx/dt = (30 - c)/2 + d >= 6.75 - 0.5 > 0 for
# c = 14 and c = 16.5.  Unsafe x <= 12 in "on" has V >= c - 12 > 0.  The reset
# off -> on fires on x in [15, 16] and keeps x, so V_on after the reset is
# c - x: negative for c = 14 (verified), positive for c = 16.5 (refuted at
# condition 4, the reset condition).
THERMOSTAT = {
    "thermostat-c14": ({"off": {"1": -1.0, "x": 0.0},
                        "on": {"1": 14.0, "x": -1.0}}, "Verified", None),
    "thermostat-c16.5": ({"off": {"1": -1.0, "x": 0.0},
                          "on": {"1": 16.5, "x": -1.0}}, "Refuted", 4),
}


def barrier_doc(model, prob, tmpl, p) -> dict:
    modes = {}
    for m, mdef in enumerate(prob.modes):
        block = p[tmpl.block_slice(m)]
        modes[mdef.name] = {model.monomial_name(mono, prob.state_vars): float(c)
                            for mono, c in zip(tmpl.monomials[m], block)}
    return {"schema": "barrier/1", "modes": modes}


def main() -> int:
    prog = Program()
    certs = DATA / "certs"
    certs.mkdir(parents=True, exist_ok=True)
    cases = []

    def add(case_id, problem, doc, verdict, condition):
        (certs / f"{case_id}.json").write_text(json.dumps(doc, indent=2) + "\n")
        cases.append({"id": case_id, "problem": problem,
                      "barrier": f"certs/{case_id}.json",
                      "verdict": verdict, "condition": condition})

    for name in ("pendulum", "log-dynamics", "lorenz"):
        doc = prog.benchmarks.corpus()[name]
        prob = prog.model.load_problem(doc)
        tmpl = prog.model.make_template(doc["template"], prob.dim,
                                        len(prob.modes))
        report = prog.engine.run(prob, tmpl, run_config(prog.engine, doc))
        if report.verdict is None or report.verdict.status.value != "Verified":
            print(f"{name}: no verified certificate", file=sys.stderr)
            return 1
        add(f"{name}-final", name, barrier_doc(prog.model, prob, tmpl, report.p),
            "Verified", None)
        refuted = [rec for rec in report.log if rec.kind == "verify-refuted-3"]
        for rec in refuted[::3] if name == "lorenz" else []:
            add(f"{name}-iter{rec.index}", name,
                barrier_doc(prog.model, prob, tmpl, rec.p), "Refuted", 3)

    add("composition-published", "composition",
        {"schema": "barrier/1", "modes": COMPOSITION}, "Verified", None)
    for case_id, (modes, verdict, condition) in THERMOSTAT.items():
        add(case_id, "thermostat", {"schema": "barrier/1", "modes": modes},
            verdict, condition)
    (DATA / "expected.json").write_text(
        json.dumps({"cases": cases}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
