import json

from simbarrier import benchmarks

import audit_runs


def test_compare_sums_batches_and_accepts_an_audit_without_them(
        monkeypatch, tmp_path, capsys):
    # composition alone: one round, every search misses, and the bootstrap
    # locates the bloat exits of its rides
    monkeypatch.setattr(benchmarks, "corpus", lambda: {
        "composition": benchmarks.composition()})
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
