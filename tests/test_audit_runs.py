import json

from simbarrier import benchmarks

import audit_runs


def test_compare_sums_batches_and_accepts_an_audit_without_them(
        monkeypatch, tmp_path, capsys):
    # the relay alone: its refuted rounds run the drift search and others,
    # and its rides locate guard and bloat-exit events (the thermostat's
    # rounds, refuted at condition 4, run only the reset search)
    monkeypatch.setattr(benchmarks, "corpus", lambda: {
        "relay": benchmarks.relay()})
    assert audit_runs.main(["0"]) == 0
    line = json.loads(capsys.readouterr().out)
    batches = dict(line["batches"])
    assert batches["drift"] > 0 and batches["other"] > 0
    assert batches["events"] > 0
    counted = tmp_path / "counted.jsonl"
    counted.write_text(json.dumps(line) + "\n")
    del line["batches"]["events"]        # an audit from before the trials
    untried = tmp_path / "untried.jsonl"
    untried.write_text(json.dumps(line) + "\n")
    del line["batches"]                  # an audit from before the counts
    uncounted = tmp_path / "uncounted.jsonl"
    uncounted.write_text(json.dumps(line) + "\n")

    assert audit_runs.main(["0", "--compare", str(counted)]) == 0
    err = capsys.readouterr().err
    assert "0 of 1 runs differ" in err
    assert (f"summed drift batches {batches['drift']} -> {batches['drift']}"
            in err)
    assert (f"summed other batches {batches['other']} -> {batches['other']}"
            in err)
    assert (f"summed event trials {batches['events']} -> {batches['events']}"
            in err)

    assert audit_runs.main(["0", "--compare", str(untried)]) == 0
    err = capsys.readouterr().err
    assert "0 of 1 runs differ" in err
    assert f"summed drift batches {batches['drift']} -> " in err
    assert f"summed event trials - -> {batches['events']}" in err

    assert audit_runs.main(["0", "--compare", str(uncounted)]) == 0
    err = capsys.readouterr().err
    assert "0 of 1 runs differ" in err
    assert f"summed drift batches - -> {batches['drift']}" in err
    assert f"summed event trials - -> {batches['events']}" in err


def test_compare_counts_nodes_and_pivots(monkeypatch, tmp_path, capsys):
    # a run that differs from the earlier audit only in its rounds' nodes
    # and pivots is not listed; one that differs in a logged value is
    monkeypatch.setattr(benchmarks, "corpus", lambda: {
        "thermostat": benchmarks.thermostat()})
    assert audit_runs.main(["0"]) == 0
    line = json.loads(capsys.readouterr().out)
    nodes = sum(rec[3] for rec in line["log"])
    pivots = sum(rec[4] for rec in line["log"])
    assert nodes >= len(line["log"]) >= 2 and pivots >= 1
    for rec in line["log"]:
        rec[3] += 1
        rec[4] += 2
    recounted = tmp_path / "recounted.jsonl"
    recounted.write_text(json.dumps(line) + "\n")
    line["log"][0][2] = "0x1.0p-99"
    moved = tmp_path / "moved.jsonl"
    moved.write_text(json.dumps(line) + "\n")
    rounds = len(line["log"])

    assert audit_runs.main(["0", "--compare", str(recounted)]) == 0
    err = capsys.readouterr().err
    assert "0 of 1 runs differ" in err and "bits only" not in err
    assert f"summed B&B nodes {nodes + rounds} -> {nodes}" in err
    assert f"summed LP pivots {pivots + 2 * rounds} -> {pivots}" in err

    assert audit_runs.main(["0", "--compare", str(moved)]) == 0
    err = capsys.readouterr().err
    assert "thermostat seed 0 differs: bits only" in err
    assert "1 of 1 runs differ" in err
