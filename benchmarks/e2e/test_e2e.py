"""Self-test of the end-to-end benchmark, at a 0.02 scale (under 60 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import runner
from workloads import WORKLOADS, active_probes, make_inputs

HERE = Path(__file__).resolve().parent
#: 2% of the benchmark's 6 s run length.
SECONDS = 0.12


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == runner.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == runner.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    result = runner.run_workload(name, seed=3, seconds=SECONDS, trace=trace)
    assert result.correct, result.notes
    assert result.failed == 0
    assert list(result.metrics) == list(result.units())
    assert all(math.isfinite(v) for v in result.metrics.values())
    if not trace:
        assert all(v > 0 for v in result.metrics.values()), result.metrics
    else:
        frames_per_pass = 4 if WORKLOADS[name].config.shards > 1 else 10
        assert result.metrics["hashing.passes_per_frame"] == frames_per_pass


def test_command_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "small-frames",
         "--seed", "2", "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} \
        == runner.E2E_UNITS
    for name, unit in runner.E2E_UNITS.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name


def test_reference_from_another_seed_fails_the_answer_check(tmp_path):
    workload = WORKLOADS["ingest-str"]
    inputs = make_inputs(workload, 5, SECONDS)
    other = make_inputs(workload, 6, SECONDS)
    session = runner.Session(workload, inputs, tmp_path, "t")
    result = runner.RunResult(workload.name, 5, False)
    try:
        session.open()
        for index in range(1, len(inputs.wire)):
            session.ingest(index)
        probes = active_probes(inputs.frames, 100) + inputs.absent[:100]
        answers = session.probe(probes)
    finally:
        session.close(result)
    assert result.correct and result.failed == 0
    assert runner.check_answers(workload.config, inputs.frames, probes,
                                answers) == []
    assert runner.check_answers(workload.config, other.frames, probes,
                                answers)


def test_load_cap_counts_unsent_frames_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "LOAD_CAP_S", 0.0)
    workload = WORKLOADS["small-frames"]
    inputs = make_inputs(workload, 5, SECONDS)
    session = runner.Session(workload, inputs, tmp_path, "t")
    result = runner.RunResult(workload.name, 5, False)
    try:
        session.open()
        session.load(5)
    finally:
        session.close(result)
    # Frame 0 opens the session, frame 1 is sent before the cap hits.
    unsent = len(inputs.frames) - 2
    assert result.failed == unsent and result.attempted == unsent + 2
    assert any("frames unsent" in note for note in result.notes)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 501)]
    value, pct = runner.tail_percentile(samples, 99)
    assert pct == 98.0 and value == 490.0
    assert sum(s > value for s in samples) == 10
    value, pct = runner.tail_percentile(samples * 4, 99)
    assert pct == 99.0 and sum(s > value for s in samples * 4) >= 10
    assert runner.tail_percentile(samples[:15], 95)[1] == 50.0


def test_missing_wrap_target_is_skipped(monkeypatch):
    module = types.ModuleType("e2e_fake_layer")

    def work(items):
        return len(items)

    module.work = work
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = layers.Recorder()
    recorder.install((
        layers.Target("e2e_fake_layer.work", lambda args, result: result),
        layers.Target("e2e_fake_layer.gone"),
        layers.Target("e2e_fake_missing_module.work"),
    ))
    assert recorder.absent == ["e2e_fake_layer.gone",
                               "e2e_fake_missing_module.work"]
    assert module.work([1, 2, 3]) == 3
    snap = recorder.snapshot()
    assert snap["stats"]["e2e_fake_layer.work"][:2] == [1, 3]
    metrics = layers.layer_metrics(snap)
    assert set(metrics) <= set(runner.LAYER_UNITS)
    assert all(v == 0 for v in metrics.values())
