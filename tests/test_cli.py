import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simbarrier import (benchmarks, chebyshev, cli, engine, falsify, lp,
                        model, verify)

from conftest import shared_guard_doc

THERMOSTAT = Path(__file__).parents[1] / "bench" / "data" / "thermostat.json"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _overflowing_reset():
    """A reset a -> b without an inverse whose map x^400 overflows on most
    of its guard [5, 10]."""
    return {"variables": ["x"],
            "modes": [{"name": "a", "omega": [[0, 10]], "flow": ["-1"]},
                      {"name": "b", "omega": [[-10, 10]], "flow": ["-1"]}],
            "resets": [{"source": "a", "target": "b", "guard": [[5, 10]],
                        "map": ["x^400"]}],
            "init": [{"mode": "a", "box": [[0, 1]]}],
            "unsafe": [{"mode": "b", "box": [[9, 10]]}]}


@pytest.fixture
def composition_path(tmp_path):
    return _write(tmp_path, "composition.json", benchmarks.composition())


@pytest.fixture
def paper_barrier_path(tmp_path):
    doc = {"schema": "barrier/1",
           "modes": {"m": {"1": 0.12774317671, "x1": -1.0}}}
    return _write(tmp_path, "paper-barrier-4.json", doc)


class TestSynth:
    def test_composition_end_to_end(self, composition_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli.main(["synth", composition_path, "--seed", "0",
                         "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["schema"] == "report/2"
        assert doc["status"] == "BarrierFound"
        assert doc["verdict"] == "Verified"
        assert doc["barrier"] is not None
        assert set(doc["timings"]) == {"simulation", "candidate",
                                       "counterexample", "verification"}
        assert doc["seed"] == 0
        # the verifier's box counts, in the shape of verdict/1's
        assert doc["boxes"] == {str(i): {"verified": 1, "split": 0,
                                         "unresolved": 0} for i in (1, 2, 3)} \
            | {"4": {"verified": 0, "split": 0, "unresolved": 0}}

    def test_no_verify_report_has_no_boxes(self, composition_path, tmp_path):
        report_path = tmp_path / "report.json"
        assert cli.main(["synth", composition_path, "--seed", "0",
                         "--no-verify", "--report", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["verdict"] is None and doc["boxes"] is None

    def test_report_round_trips_through_verify(self, composition_path,
                                               tmp_path):
        report_path = tmp_path / "report.json"
        assert cli.main(["synth", composition_path, "--seed", "0",
                         "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        barrier = {"schema": "barrier/1", "modes": report["barrier"]}
        barrier_path = _write(tmp_path, "found.json", barrier)
        assert cli.main(["verify", composition_path,
                         "--barrier", barrier_path]) == 0

    def test_deterministic_reports(self, composition_path, tmp_path):
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        cli.main(["synth", composition_path, "--seed", "7",
                  "--report", str(p1)])
        cli.main(["synth", composition_path, "--seed", "7",
                  "--report", str(p2)])
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        for doc in (d1, d2):
            doc.pop("timings")
            for entry in doc["log"]:
                entry.pop("search_time")
        assert d1 == d2

    def test_report_logs_every_round(self, tmp_path):
        path = _write(tmp_path, "pendulum.json", benchmarks.pendulum())
        report_path = tmp_path / "report.json"
        assert cli.main(["synth", path, "--report", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        log = doc["log"]
        assert doc["iterations"] > 1
        assert [entry["index"] for entry in log] == \
            list(range(1, doc["iterations"] + 1))
        # every round but the last was refuted by a counter-example
        assert all(entry["kind"] is not None and entry["segment_margin"] <= 0
                   for entry in log[:-1])
        assert set(log[0]) == {"index", "delta", "kind", "value",
                               "search_time", "segment_margin",
                               "segments_added", "segments_dropped",
                               "bb_nodes", "lp_pivots"}
        # a refuted round adds its worst segment, and maybe distinct extras
        assert all(entry["segments_added"] >= 1 for entry in log[:-1])
        assert log[-1]["segments_added"] == log[-1]["segments_dropped"] == 0
        # the last round found no counter-example; its margin is the report's
        assert log[-1]["kind"] is None and log[-1]["delta"] == doc["delta"]
        assert all(entry["lp_pivots"] >= 1 for entry in log)
        # both sides are rounded to the microsecond
        assert sum(entry["search_time"] for entry in log) == pytest.approx(
            doc["timings"]["counterexample"], abs=1e-6 * len(log))

    def test_no_candidate_round_is_logged(self, tmp_path):
        doc = benchmarks.composition()
        doc["unsafe"] = doc["init"]
        path = _write(tmp_path, "overlap.json", doc)
        report_path = tmp_path / "report.json"
        assert cli.main(["synth", path, "--report", str(report_path)]) == 1
        report = json.loads(report_path.read_text())
        assert report["status"] == "NoCandidate"
        assert report["iterations"] == 1
        assert len(report["log"]) == 1
        assert report["log"][0]["index"] == 1
        assert report["log"][0]["delta"] is None

    def test_coefficients_round_trip_exactly(self, composition_path,
                                             tmp_path):
        report_path = tmp_path / "report.json"
        cli.main(["synth", composition_path, "--seed", "0",
                  "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        text = report_path.read_text()
        for monomial, value in report["barrier"]["m"].items():
            # full-precision decimal serialization: reading the report back
            # reproduces every coefficient bit for bit
            assert repr(value) in text or f"{value}" in text
            assert float(repr(value)) == value

    def test_runtime_imports_only_numpy(self, composition_path, tmp_path):
        # a synthesis in a fresh process loads none of the test extras
        script = (
            "import json, sys\n"
            "from simbarrier import cli\n"
            "code = cli.main(['synth', sys.argv[1], '--report', sys.argv[2]])\n"
            "print(json.dumps([code, [m for m in ('scipy', 'mpmath',"
            " 'hypothesis', 'pytest') if m in sys.modules]]))\n")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run(
            [sys.executable, "-c", script, composition_path,
             str(tmp_path / "report.json")],
            env=env, capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [0, []]


class TestVerifyCommand:
    def test_published_barrier_verifies(self, composition_path,
                                        paper_barrier_path, tmp_path):
        report_path = tmp_path / "verify.json"
        code = cli.main(["verify", composition_path,
                         "--barrier", paper_barrier_path,
                         "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["verdict"] == "Verified"
        assert doc["schema"] == "verdict/1"
        assert set(doc) == {"schema", "problem", "status", "verdict",
                            "condition", "mode", "witness", "disturbance",
                            "reset", "wall_time", "boxes", "tool"}
        assert (doc["mode"], doc["witness"], doc["disturbance"],
                doc["reset"]) == (None, None, None, None)

    def test_bad_barrier_refuted(self, composition_path, tmp_path):
        doc = {"schema": "barrier/1",
               "modes": {"m": {"1": 0.12774317671, "x1": 1.0}}}
        path = _write(tmp_path, "flipped.json", doc)
        assert cli.main(["verify", composition_path, "--barrier", path]) == 1

    def test_overflowing_reset_map_is_refuted(self, tmp_path, capsys):
        # V_a = -1 and V_b = x - 1: the guard midpoints 7.5 and 6.25 overflow
        # and split; 5.625^400 ~ 1e300 maps to V_b > 0
        path = _write(tmp_path, "overflow-reset.json", _overflowing_reset())
        barrier = _write(tmp_path, "barrier.json", {"modes": {
            "a": {"1": -1.0, "x": 0.0}, "b": {"1": -1.0, "x": 1.0}}})
        report_path = tmp_path / "verify.json"
        assert cli.main(["verify", path, "--barrier", barrier,
                         "--report", str(report_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(report_path.read_text())
        assert (doc["verdict"], doc["condition"], doc["witness"]) == \
            ("Refuted", 4, [5.625])

    def test_refuted_reset_is_named(self, tmp_path):
        # two resets a -> b and a -> c share the guard [0, 1]; V_c = 1 > 0
        # refutes the second
        path = _write(tmp_path, "shared-guard.json", shared_guard_doc())
        barrier = _write(tmp_path, "barrier.json", {"modes": {
            "a": {"1": -1.5, "x": 1}, "b": {"1": -1}, "c": {"1": 1}}})
        report_path = tmp_path / "verify.json"
        assert cli.main(["verify", path, "--barrier", barrier,
                         "--report", str(report_path)]) == 1
        doc = json.loads(report_path.read_text())
        assert (doc["verdict"], doc["condition"], doc["mode"], doc["witness"],
                doc["disturbance"], doc["reset"]) == \
            ("Refuted", 4, "a", [0.5], None, 1)

    def test_drift_witness_names_mode_and_disturbance(self, tmp_path):
        # V_off = 17 - x rises along the off flow -0.5 (x - 10) + d, most
        # steeply at d = -0.5; the witness replays from the document alone
        barrier = _write(tmp_path, "barrier.json", {"modes": {
            "off": {"1": 17, "x": -1}, "on": {"1": 16.5, "x": -1}}})
        report_path = tmp_path / "verify.json"
        assert cli.main(["verify", str(THERMOSTAT), "--barrier", barrier,
                         "--report", str(report_path)]) == 1
        doc = json.loads(report_path.read_text())
        assert (doc["verdict"], doc["condition"], doc["mode"], doc["witness"],
                doc["disturbance"], doc["reset"]) == \
            ("Refuted", 3, "off", [17.0], [-0.5], None)

    def test_unknown_monomial_name(self, composition_path, tmp_path):
        doc = {"schema": "barrier/1", "modes": {"m": {"q^2": 1.0}}}
        path = _write(tmp_path, "bad.json", doc)
        assert cli.main(["verify", composition_path, "--barrier", path]) == 2

    # a synthesized pendulum certificate: the default width proves
    # condition 3 with 405 boxes, width 0.4 leaves boxes unresolved
    PENDULUM_P = np.array([float.fromhex(v) for v in (
        "-0x1.6734656fb7eb0p-6", "-0x1.89978c6213ef0p-10",
        "0x1.29d2ebf984e72p-4", "-0x1.ebfd6f7a98e90p-8",
        "-0x1.d17013b87ba6ep-1", "-0x1.0000000000000p+0")])

    def verify_pendulum(self, tmp_path, doc, flags):
        """The exit code and the verifier's boxes for the pendulum
        certificate through ``simbarrier verify``, and the problem and
        template."""
        prob = model.load_problem(doc)
        tmpl = model.make_template(doc["template"], prob.dim, len(prob.modes))
        barrier = {"schema": "barrier/1",
                   "modes": cli._barrier_json(prob, tmpl, self.PENDULUM_P)}
        report = tmp_path / "verdict.json"
        code = cli.main(["verify", _write(tmp_path, "pendulum.json", doc),
                         "--barrier", _write(tmp_path, "barrier.json", barrier),
                         "--report", str(report), *flags])
        return code, json.loads(report.read_text())["boxes"], prob, tmpl

    def test_min_box_width_reaches_the_verifier(self, tmp_path):
        code, boxes, prob, tmpl = self.verify_pendulum(
            tmp_path, benchmarks.pendulum(), ["--min-box-width", "0.4"])
        p = self.PENDULUM_P
        assert code == 1
        assert boxes == cli._boxes_json(verify.verify(prob, tmpl, p, 0.4))
        assert boxes != cli._boxes_json(verify.verify(prob, tmpl, p))

    def test_document_min_box_width_reaches_the_verifier(self, tmp_path):
        # the width a synth run of the document used; a flag overrides it
        doc = benchmarks.pendulum()
        doc["run"]["min_box_width"] = 0.4
        code, boxes, prob, tmpl = self.verify_pendulum(tmp_path, doc, [])
        p = self.PENDULUM_P
        assert code == 1
        assert boxes == cli._boxes_json(verify.verify(prob, tmpl, p, 0.4))
        code, boxes, _, _ = self.verify_pendulum(tmp_path, doc,
                                                 ["--min-box-width", "1e-4"])
        assert code == 0
        assert boxes == cli._boxes_json(verify.verify(prob, tmpl, p))


class TestErrors:
    def test_missing_section_is_diagnosed(self, tmp_path, capsys):
        doc = benchmarks.pendulum()
        del doc["unsafe"]
        path = _write(tmp_path, "missing-unsafe.json", doc)
        assert cli.main(["synth", path]) == 2
        err = capsys.readouterr().err
        assert "unsafe" in err and "missing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("change,location", [
        ({"run": {"sigma": "abc"}}, "run.sigma"),
        ({"run": {"seed": [1]}}, "run.seed"),
        ({"run": {"max_iter": 0}}, "run.max_iter"),
        ({"template": [[[1, 0], [0, 1]]]}, "template"),
        ({"modes": [5]}, "modes[0]"),
        ({"resets": [3]}, "resets[0]"),
        ({"variables": 5}, "variables"),
        ({"disturbances": "d"}, "disturbances"),
        ({"template": 0}, "template"),
        ({"disturbances": ["d"], "disturbance_box": [{}]}, "disturbance_box"),
        # settings that cannot run: nan fails every range test, and an
        # infinite count is no integer
        ({"run": {"sigma": math.nan}}, "run.sigma"),
        ({"run": {"sigma": 1e400}}, "run.sigma"),
        ({"run": {"bloat": 1e400}}, "run.bloat"),
        ({"run": {"starts": 0}}, "run.starts"),
        ({"run": {"starts": -1}}, "run.starts"),
        ({"run": {"seed": -1}}, "run.seed"),
        ({"run": {"seed": 1e400}}, "run.seed"),
        # integer settings take no bool and no fraction; float settings
        # take no bool
        ({"run": {"starts": 2.7}}, "run.starts"),
        ({"run": {"max_iter": True}}, "run.max_iter"),
        ({"run": {"seed": 0.5}}, "run.seed"),
        ({"run": {"vertex_cap": False}}, "run.vertex_cap"),
        ({"run": {"sigma": True}}, "run.sigma"),
        # numbers only: a string is no number, even one that parses as one
        ({"run": {"starts": "3"}}, "run.starts"),
        ({"run": {"sigma": "0.25"}}, "run.sigma"),
        ({"run": {"seed": " 7 "}}, "run.seed"),
        # box bounds are JSON numbers within the float range too
        ({"init": [{"mode": "m", "box": [[-10 ** 400, 10], [8, 10]]}]},
         "init[0].box[0][0]"),
        ({"init": [{"mode": "m", "box": [["-10", 10], [8, 10]]}]},
         "init[0].box[0][0]"),
        ({"unsafe": [{"mode": "m", "box": [[-10, 10], [-10, True]]}]},
         "unsafe[0].box[1][1]"),
        ({"modes": [{"name": "m", "omega": [[-10, "10"], [-10, 10]],
                     "flow": ["y", "-x"]}]}, "modes[0].omega[0][1]"),
        ({"disturbances": ["d"], "disturbance_box": [["0", 1]]},
         "disturbance_box[0][0]"),
        ({"resets": [{"source": "m", "target": "m",
                      "guard": [[0, 10 ** 400], [0, 1]],
                      "map": ["x", "y"]}]}, "resets[0].guard[0][1]"),
        ({"resets": [{"source": "m", "target": "m",
                      "guard": [[0, 1], [0, 1]], "map": ["x", "y"],
                      "inverse": ["x", "y"], "image": [[0, 1], [False, 1]]}]},
         "resets[0].image[1][0]"),
        # names are distinct identifiers: a disturbance x would shadow the
        # state x, and a variable "1" would be the constant monomial's name
        ({"disturbances": ["x"], "disturbance_box": [[0, 1]]},
         "disturbances[0]"),
        ({"disturbances": ["d", "d"], "disturbance_box": [[0, 1], [0, 1]]},
         "disturbances[1]"),
        ({"variables": ["1", "y"]}, "variables[0]"),
        ({"variables": ["x", "sin"]}, "variables[1]"),
        ({"variables": ["x", 7]}, "variables[1]"),
        # template exponents are JSON integers >= 0
        ({"template": [[[0, 0], [2.7, 0]]]}, "template[0][1][0]"),
        ({"template": [[[0, 0], [0, True]]]}, "template[0][1][1]"),
        ({"template": [[[0, 0], ["1", 0]]]}, "template[0][1][0]"),
        ({"template": [[[0, 0], [1, -1]]]}, "template[0][1]"),
    ])
    def test_malformed_fields_are_diagnosed(self, tmp_path, capsys, change,
                                            location):
        doc = benchmarks.pendulum()
        doc.update(change)
        path = _write(tmp_path, "malformed.json", doc)
        assert cli.main(["synth", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {location}: " in err
        assert "Traceback" not in err

    # counts beyond their maximum, integers beyond the float range and
    # settings below their range; engine.run fails the test if it is
    # reached, so no such run starts
    @pytest.mark.parametrize("run,flags,location,message", [
        ({"starts": 10 ** 400}, [], "run.starts",
         "expected an integer within the float range"),
        ({"vertex_cap": -10 ** 400}, [], "run.vertex_cap",
         "expected an integer within the float range"),
        ({"starts": 10_001}, [], "run.starts", "expected at most 10000"),
        ({"max_iter": 1e300}, [], "run.max_iter", "expected at most 10000"),
        ({"vertex_cap": 65_537}, [], "run.vertex_cap",
         "expected at most 65536"),
        ({}, ["--starts", "10001"], "--starts", "expected at most 10000"),
        ({}, ["--max-iter", "10" * 40], "--max-iter",
         "expected at most 10000"),
        # below their range: named by the key, or by the flag that set it
        ({"sigma": -1}, [], "run.sigma", "expected a finite number >= 0"),
        ({"bloat": 0.5}, [], "run.bloat", "expected a finite number >= 1"),
        ({"delta_min": -1e-3}, [], "run.delta_min", "expected a number >= 0"),
        ({"min_box_width": 0}, [], "run.min_box_width",
         "expected a finite number > 0"),
        ({"vertex_cap": 0}, [], "run.vertex_cap", "expected at least 1"),
        ({"seed": -1}, [], "run.seed", "expected an integer >= 0"),
        ({}, ["--starts", "0"], "--starts", "expected at least 1"),
        ({"starts": 4}, ["--bloat", "0.5"], "--bloat",
         "expected a finite number >= 1"),
        ({"seed": 3}, ["--seed", "-1"], "--seed", "expected an integer >= 0"),
    ])
    def test_oversized_settings_are_refused(self, composition_path, capsys,
                                            monkeypatch, run, flags, location,
                                            message):
        monkeypatch.setattr(engine, "run",
                            lambda *args: pytest.fail("the run started"))
        doc = json.loads(Path(composition_path).read_text())
        doc["run"].update(run)
        Path(composition_path).write_text(json.dumps(doc))
        assert cli.main(["synth", composition_path, *flags]) == 2
        if not location.startswith("--"):
            location = f"{composition_path}: {location}"
        assert capsys.readouterr().err == f"error: {location}: {message}\n"

    def test_a_flag_overrides_the_document(self):
        args = cli._build_parser().parse_args(
            ["synth", "problem.json", "--starts", "4", "--seed", "0"])
        doc = {"run": {"starts": 0, "seed": 5, "sigma": 0.25}}
        cfg = cli._run_config(doc, args, "problem.json")
        assert (cfg.starts, cfg.seed, cfg.sigma) == (4, 0, 0.25)
        assert (cfg.max_iterations, cfg.vertex_cap) == (50, 256)

    def test_non_integer_setting_message(self, composition_path, capsys):
        doc = json.loads(Path(composition_path).read_text())
        doc["run"].update(starts=2.7, max_iter=True)
        Path(composition_path).write_text(json.dumps(doc))
        assert cli.main(["synth", composition_path]) == 2
        assert capsys.readouterr().err == (
            f"error: {composition_path}: run.starts: expected an integer, "
            "got 2.7\n")

    def test_overflowing_template_row_is_diagnosed(self, tmp_path, capsys):
        # x ** 120 overflows on the initial box [900, 1000]: the round
        # fails with one message, not a traceback or a candidate from a
        # nan row
        doc = {"variables": ["x"],
               "modes": [{"name": "q", "omega": [[-1000, 1000]],
                          "flow": ["-x"]}],
               "init": [{"mode": "q", "box": [[900, 1000]]}],
               "unsafe": [{"mode": "q", "box": [[-1000, -900]]}],
               "template": [[[0], [1], [120]]],
               "run": {"sigma": 0.1, "starts": 4, "max_iter": 5}}
        path = _write(tmp_path, "overflowing-template.json", doc)
        assert cli.main(["synth", path]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
        assert "mode 'q'" in lines[0] and "not finite" in lines[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_literal_outside_float_range_is_diagnosed(self, tmp_path, capsys):
        doc = benchmarks.pendulum()
        doc["modes"][0]["flow"][0] += " + 0*1e400"
        path = _write(tmp_path, "overflow.json", doc)
        assert cli.main(["synth", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}: modes[0].flow[0]: " in err and "'1e400'" in err
        assert "Traceback" not in err

    def test_non_ascii_numeral_is_diagnosed(self, tmp_path, capsys):
        # an Arabic-Indic three is no number, as in a barrier's monomials
        doc = benchmarks.pendulum()
        doc["modes"][0]["flow"][0] = "\u0663*x"
        path = _write(tmp_path, "numeral.json", doc)
        assert cli.main(["synth", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}: modes[0].flow[0]: " in err
        assert "unexpected character '\u0663'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fwd,inv,location,point", [
        ("1/x", "1/x", "resets[0].map", "(0.0,)"),
        ("x - 1", "(x + 1)^2 / (x + 1)", "resets[0].inverse", "(-1.0,)"),
        ("x + (x*1e200*1e200 - x*1e200*1e200)", "x", "resets[0].map",
         "(0.5,)"),
    ])
    def test_reset_undefined_at_a_spot_check_point(self, tmp_path, capsys,
                                                    fwd, inv, location, point):
        # the map at the guard corner x = 0, or the inverse at its image,
        # divides by zero; the third map is inf - inf = nan at the guard
        # midpoint
        doc = {"variables": ["x"],
               "modes": [{"name": "a", "omega": [[-2, 2]], "flow": ["1"]}],
               "resets": [{"source": "a", "target": "a", "guard": [[0, 1]],
                           "map": [fwd], "inverse": [inv],
                           "image": [[1, 2]]}],
               "init": [{"mode": "a", "box": [[-2, -1.5]]}],
               "unsafe": [{"mode": "a", "box": [[1.5, 2]]}]}
        path = _write(tmp_path, "undefined-map.json", doc)
        assert cli.main(["synth", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {location}: undefined at the point {point}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "bench"])
    def test_reset_without_inverse_is_rejected_for_synthesis(
            self, tmp_path, capsys, command):
        # backward rides need the inverse; verify accepts such a reset
        path = _write(tmp_path, "no-inverse.json", _overflowing_reset())
        assert cli.main([command, path if command == "synth"
                         else str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: resets[0]: " in err
        assert "Traceback" not in err

    def test_run_failure_is_diagnosed(self, capsys, monkeypatch):
        # the thermostat synthesizes since a counter-example ride stops
        # before a reset that lowers the certificate; a run that fails is
        # reported, not raised
        path = str(THERMOSTAT)
        assert cli.main(["synth", path]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert (report["status"], report["verdict"]) == ("BarrierFound",
                                                         "Verified")
        assert "Traceback" not in captured.err

        def refuted(*_args):
            raise falsify.RefutationError("reset counter-example ...")
        monkeypatch.setattr(engine, "run", refuted)
        assert cli.main(["synth", path]) == 1
        captured = capsys.readouterr()
        assert f"error: {path}: reset counter-example" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["synth", "verify"])
    def test_problem_document_not_an_object(self, tmp_path, capsys, command,
                                            paper_barrier_path):
        path = _write(tmp_path, "list.json", [benchmarks.composition()])
        args = [command, path] + (["--barrier", paper_barrier_path]
                                  if command == "verify" else [])
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert f"{path}: document: expected a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("barrier,location", [
        (["not", "an", "object"], "document"),
        ({"modes": {"m": [1.0, -1.0]}}, "modes.m"),
        ({"modes": {"m": {"1": 0.5, "x1": "abc"}}}, "modes.m.x1"),
        ({"modes": {"m": {"1": 0.5, "x1": None}}}, "modes.m.x1"),
        ({"modes": {"m": {"1": 0.5, "x1": math.nan}}}, "modes.m.x1"),
        ('{"modes": {"m": {"1": 0.5, "x1": 1e400}}}', "modes.m.x1"),
        ({"modes": {"m": {"1": 0.5, "x1": -1.0, "x1^1": 2.0}}}, "modes.m"),
        # coefficients are JSON numbers within the float range
        ({"modes": {"m": {"1": "0.1277", "x1": -1.0}}}, "modes.m.1"),
        ({"modes": {"m": {"1": True, "x1": -1.0}}}, "modes.m.1"),
        ({"modes": {"m": {"1": 10 ** 400, "x1": -1.0}}}, "modes.m.1"),
        # every mode named must be one the problem declares
        ({"modes": {"m": {"1": 0.12774317671, "x1": -1.0},
                    "ghost": {"1": 1.0}}}, "modes.ghost"),
        # an exponent is ASCII decimal digits; the bad name is quoted
        ({"modes": {"m": {"1": 0.5, "x1^2.5": -1.0}}}, "modes.m"),
    ])
    def test_malformed_barrier_is_diagnosed(self, composition_path, tmp_path,
                                            capsys, barrier, location):
        path = tmp_path / "barrier.json"
        path.write_text(barrier if isinstance(barrier, str)
                        else json.dumps(barrier))
        assert cli.main(["verify", composition_path,
                         "--barrier", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {location}: " in err
        assert "Traceback" not in err
        if "x1^2.5" in str(barrier):
            assert "bad monomial 'x1^2.5'" in err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"variables": [,]}')
        assert cli.main(["synth", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    @pytest.mark.parametrize("text", [
        # json reads an integer with int(), which refuses more than 4300
        # digits, and nested arrays by recursion
        '{"variables": [1%s]}' % ("0" * 5000),
        "[" * 100000 + "]" * 100000,
    ], ids=["digits", "nesting"])
    def test_json_beyond_the_parser_limits(self, tmp_path, capsys, text):
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert cli.main(["synth", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid JSON: " in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "verify", "bench"])
    def test_document_not_in_utf8_is_diagnosed(self, tmp_path, capsys,
                                               composition_path, command):
        # a UTF-16 byte order mark: JSON is UTF-8, so the bytes do not
        # decode, and the error names the file and the byte
        bad = tmp_path / "docs" / "utf16.json"
        bad.parent.mkdir()
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        args = {"synth": ["synth", str(bad)],
                "verify": ["verify", composition_path, "--barrier", str(bad)],
                "bench": ["bench", str(bad.parent)]}[command]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: not UTF-8 at byte 0: invalid start byte" in err
        assert "Traceback" not in err

    @staticmethod
    def _named_document(tmp_path) -> Path:
        """A document named "compositión", alone in its directory."""
        doc = benchmarks.composition()
        doc["name"] = "compositión"
        path = tmp_path / "named" / "named.json"
        path.parent.mkdir()
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        return path

    @staticmethod
    def _run_in_c_locale(*args):
        """``simbarrier.cli *args`` under the C locale without UTF-8 mode,
        where the locale's encoding is ASCII."""
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        return subprocess.run([sys.executable, "-m", "simbarrier.cli", *args],
                              env=env, capture_output=True, text=True)

    def test_utf8_document_is_read_whatever_the_locale(self, tmp_path):
        path = self._named_document(tmp_path)
        done = self._run_in_c_locale("synth", str(path), "--no-verify",
                                     "--report", str(tmp_path / "report.json"))
        assert (done.returncode, done.stderr) == (0, "")
        report = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert report["problem"] == "compositión"

    def test_bench_prints_a_name_the_locale_cannot_encode(self, tmp_path):
        path = self._named_document(tmp_path)
        done = self._run_in_c_locale("bench", str(path.parent), "--no-verify")
        assert (done.returncode, done.stderr) == (0, "")
        row = done.stdout.splitlines()[1]
        assert row.startswith("compositi\\xf3n ")
        assert row.endswith("BarrierFound/-")

    def test_missing_file(self, capsys):
        assert cli.main(["synth", "/nonexistent/problem.json"]) == 2

    def test_usage_error(self):
        assert cli.main(["frobnicate"]) == 2

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
    def test_verify_min_box_width_out_of_range(self, composition_path,
                                               paper_barrier_path, capsys,
                                               width):
        assert cli.main(["verify", composition_path, "--barrier",
                         paper_barrier_path, "--min-box-width", width]) == 2
        assert "error: --min-box-width: expected a finite number > 0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("width", [0, -1, "0.5"])
    def test_verify_document_min_box_width_out_of_range(
            self, tmp_path, paper_barrier_path, capsys, width):
        doc = benchmarks.composition()
        doc["run"]["min_box_width"] = width
        path = _write(tmp_path, "composition.json", doc)
        assert cli.main(["verify", path, "--barrier",
                         paper_barrier_path]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: run.min_box_width: expected " in err


class TestGenAndBench:
    def test_gen_scalable_loads(self, tmp_path):
        out = tmp_path / "s3.json"
        assert cli.main(["gen", "--scalable", "3", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["variables"]) == 7
        from simbarrier import model
        prob = model.load_problem(doc)
        assert prob.dim == 7

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_gen_scalable_below_one_is_diagnosed(self, capsys, pairs):
        assert cli.main(["gen", "--scalable", pairs]) == 2
        assert capsys.readouterr().err == (
            f"error: gen: --scalable: expected an integer >= 1, got {pairs}\n")

    def test_gen_corpus_and_bench(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen", "--corpus", str(corpus)]) == 0
        names = {p.name for p in corpus.glob("*.json")}
        assert names == {
            "pendulum.json", "log-dynamics.json", "lorenz.json",
            "composition.json", "thermostat.json", "relay.json",
            "scalable-l1.json", "scalable-l2.json", "scalable-l3.json",
            "scalable-l4.json"}
        # run the cheap instance through the bench table path
        solo = tmp_path / "solo"
        solo.mkdir()
        (solo / "composition.json").write_text(
            (corpus / "composition.json").read_text())
        code = cli.main(["bench", str(solo), "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "composition" in out
        assert "BarrierFound/Verified" in out

    @pytest.mark.parametrize("error", [falsify.RefutationError, lp.LPError,
                                       chebyshev.ConstraintError])
    def test_bench_isolates_a_failing_problem(self, tmp_path, capsys,
                                              monkeypatch, error):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a-fails", "b-runs"):
            doc = benchmarks.composition()
            doc["name"] = name
            (corpus / f"{name}.json").write_text(json.dumps(doc))
        timings = dict(simulation=0.0, candidate=0.0, counterexample=0.0,
                       verification=0.0)
        ran = []

        def fake_run(prob, tmpl, cfg):
            ran.append(len(ran))
            if len(ran) == 1:
                raise error("injected failure")
            return engine.RunReport(engine.RunStatus.BARRIER_FOUND,
                                    timings=timings)

        monkeypatch.setattr(engine, "run", fake_run)
        assert cli.main(["bench", str(corpus)]) == 1
        assert ran == [0, 1]
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[1].startswith("a-fails") and \
            lines[1].endswith(f"Error/{error.__name__}")
        assert lines[2].startswith("b-runs") and \
            lines[2].endswith("BarrierFound/-")
        assert "injected failure" in captured.err
        assert "Traceback" not in captured.err
