"""The committed benchmark records are PerfRecords, named by experiment id.

Every root ``BENCH_<id>.json`` and every entry of a
``benchmarks/baselines/<id>.json`` file is ``PerfRecord.to_dict()``,
written by ``repro.obs.perf.archive`` (baselines by ``perf baseline``).
"""

import json
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.obs.perf import PerfRecord, extract_headlines

REPO = Path(__file__).resolve().parents[1]
ROOT_FILES = sorted(REPO.glob("BENCH_*.json"))
BASELINE_FILES = sorted((REPO / "benchmarks" / "baselines").glob("*.json"))


def _name(path):
    return path.name


def test_every_tracked_benchmark_has_a_root_record():
    assert {f"BENCH_{bench}.json"
            for bench in ("batch", "obs", "audit", "trace", "serve", "shard")
            } <= {path.name for path in ROOT_FILES}


@pytest.mark.parametrize("path", ROOT_FILES, ids=_name)
def test_root_file_is_its_experiments_record(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    record = PerfRecord.from_dict(payload)
    assert set(payload) == set(record.to_dict())
    assert path.name == f"BENCH_{record.bench}.json"
    assert record.bench in EXPERIMENTS
    assert record.rows
    assert extract_headlines(record) == record.headlines


@pytest.mark.parametrize("path", BASELINE_FILES, ids=_name)
def test_baseline_entries_are_records(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    records = [PerfRecord.from_dict(entry) for entry in payload]
    assert records
    assert {record.bench for record in records} == {path.stem}
    assert path.stem in EXPERIMENTS
