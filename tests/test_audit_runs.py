import json

from simbarrier import benchmarks

import audit_runs


def test_compare_sums_batches_and_accepts_an_audit_without_them(
        monkeypatch, tmp_path, capsys):
    # composition alone: one round, and every search misses
    monkeypatch.setattr(benchmarks, "corpus", lambda: {
        "composition": benchmarks.composition()})
    assert audit_runs.main(["0"]) == 0
    line = json.loads(capsys.readouterr().out)
    batches = line["batches"]
    assert batches["drift"] > 0 and batches["other"] > 0
    counted = tmp_path / "counted.jsonl"
    counted.write_text(json.dumps(line) + "\n")
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

    assert audit_runs.main(["0", "--compare", str(uncounted)]) == 0
    err = capsys.readouterr().err
    assert "0 of 1 runs differ" in err
    assert f"summed drift batches - -> {batches['drift']}" in err
