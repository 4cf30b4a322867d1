"""Every committed benchmark record names what it compared and where."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
PROVENANCE = ("parent_commit", "change_commit", "python", "numpy", "cpu_count")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_carries_provenance_and_runs(path):
    record = json.loads(path.read_text())
    missing = [key for key in PROVENANCE if key not in record]
    assert not missing, f"{path.name} lacks {missing}"
    assert isinstance(record.get("runs"), list) and record["runs"]
