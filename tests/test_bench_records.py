"""Every benchmark record at the root of the repository is well formed.

A `BENCH_*.json` backs a performance claim, so it must parse and say what was
claimed (`claim`), how it was run (`command`, `protocol`) and on what
(`provenance`): the Python, mpmath and mpmath arithmetic backend versions,
since the timings depend on all three.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_its_claim_runs_and_provenance(path):
    record = json.loads(path.read_text())
    for key in ("claim", "command", "protocol", "provenance"):
        assert record.get(key), "%s has no %s" % (path.name, key)
    for key in ("python", "mpmath", "mpmath_backend"):
        assert record["provenance"].get(key), "%s provenance has no %s" % (path.name, key)
