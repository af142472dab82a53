"""Fuzzed problem documents: one key deleted or one value replaced, and
``simbarrier synth`` still ends in an exit code, never in an exception."""

import copy
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from simbarrier import benchmarks, cli

THERMOSTAT = Path(__file__).parents[1] / "bench" / "data" / "thermostat.json"

DOCUMENTS = {
    "pendulum": benchmarks.pendulum(),
    "composition": benchmarks.composition(),
    "scalable-l1": benchmarks.scalable(1),
    "thermostat": json.loads(THERMOSTAT.read_text()),
}

# 1e400 is inf, written to the document as Infinity
ALPHABET = [None, True, 0, -1, 1e400, "nan", "", [], {}, [[1, 0]], "x/0"]
DELETE = object()


def _paths(doc, prefix=()):
    """The path (a tuple of keys and indices) of every value in ``doc``."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = [(name, path) for name, doc in DOCUMENTS.items()
         for path in _paths(doc)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(PATHS),
       value=st.sampled_from([DELETE] + ALPHABET))
def test_mutated_document_ends_in_an_exit_code(tmp_path, capsys, target,
                                               value):
    name, path = target
    doc = copy.deepcopy(DOCUMENTS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    file = tmp_path / "mutated.json"
    file.write_text(json.dumps(doc))
    code = cli.main(["synth", str(file), "--max-iter", "1", "--no-verify"])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
