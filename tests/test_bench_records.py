"""The committed benchmark records.

Each ``BENCH_*.json`` at the repository root records one speed claim: what
changed, against which parent commit, on what host, with which bench command,
and the paired runs behind it.  Its claim names a workload and an end-to-end
metric that ``BENCHMARK.json`` declares, so a claim cannot rest on a figure
the benchmark does not report.
"""

import datetime
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("change", "parent_commit", "date", "bench", "claim", "workloads")
HOST_FIELDS = ("cpu", "nproc", "python")


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _record(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_holds_every_field(path):
    record = _record(path)
    missing = [name for name in FIELDS if name not in record]
    missing += [f"host.{name}" for name in HOST_FIELDS if name not in record.get("host", {})]
    assert not missing, f"{path.name} lacks {', '.join(missing)}"
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"]), record["parent_commit"]
    date = datetime.date.fromisoformat(record["date"])
    assert path.name.startswith(f"BENCH_{date.isoformat()}"), path.name


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_claims_an_end_to_end_metric_of_the_benchmark(path):
    benchmark = _benchmark()
    claim = _record(path)["claim"]
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}, claim
    assert claim["metric"] in {m["name"] for m in benchmark["end_to_end"]}, claim
    assert claim["workload"] in _record(path)["workloads"], claim
