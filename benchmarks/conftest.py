"""Shared helpers for the benchmark suite.

Every benchmark runs one paper experiment (at paper parameters unless
noted), times it via pytest-benchmark, prints the reproduced series,
and archives it through :func:`record_result`, which fans one
``ExperimentResult`` out to every surface the performance trajectory
needs:

- ``benchmarks/results/<name>.txt`` — the rendered table (gitignored
  working copy, uploaded as a CI artifact);
- ``benchmarks/results/<name>.json`` — the JSON payload, same life;
- ``BENCH_<name>.json`` at the repository root — the committed
  cross-PR trajectory file;
- one :class:`~repro.obs.perf.record.PerfRecord` appended to the
  performance ledger (``benchmarks/results/perf_ledger.jsonl``, or
  ``$REPRO_PERF_LEDGER``), carrying the headline scalars, kernel
  backend, host facts, and the explanatory metrics delta when the
  experiment archived a registry snapshot.

``--kernel {auto,numpy,numba}`` selects the kernel backend for the
whole benchmark session (default: the ``REPRO_KERNEL`` environment
variable, else ``auto``); the resolved backend is stamped into every
``BENCH_*.json`` payload via :func:`bench_payload`. Quick-mode runs
(any ``*_BENCH_QUICK`` env toggle) are marked as such on their ledger
records so they only ever compare against quick-mode baselines.
"""

import json
import os
import pathlib

import pytest

from repro.kernels import kernel_info, set_default_backend

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: The suite's quick-mode toggles; any of them marks the run as quick.
QUICK_ENV_VARS = (
    "OVERHEAD_BENCH_QUICK",
    "SHARD_BENCH_QUICK",
    "BATCH_BENCH_QUICK",
    "SERVE_BENCH_QUICK",
)


def pytest_addoption(parser):
    parser.addoption(
        "--kernel", action="store", default=None,
        choices=("auto", "numpy", "numba"),
        help="kernel backend for the numeric hot path (default: "
             "REPRO_KERNEL env var, else auto)",
    )


@pytest.fixture(scope="session", autouse=True)
def _apply_kernel_option(request):
    """Pin the session's process-default backend from ``--kernel``."""
    choice = request.config.getoption("--kernel")
    if choice is not None:
        set_default_backend(choice)


def quick_mode():
    """True when any benchmark quick-mode env toggle is set."""
    return any(os.environ.get(var, "") not in ("", "0")
               for var in QUICK_ENV_VARS)


def bench_payload(result):
    """JSON payload for one ExperimentResult, stamped with the backend.

    JSON-safe extras ride along under ``"extras"`` — except the bulky
    registry snapshot, which benchmarks that want it archive separately.
    """
    payload = {
        "title": result.title,
        "columns": list(result.columns),
        "rows": [{k: row[k] for k in result.columns} for row in result.rows],
        "kernel": kernel_info(),
    }
    extras = {k: v for k, v in getattr(result, "extras", {}).items()
              if k != "snapshot"}
    if extras:
        payload["extras"] = extras
    return payload


@pytest.fixture
def record_result():
    """Archive an ExperimentResult to text, JSON, root, and the ledger."""

    def _record(name, result):
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        text = result.render()
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        body = json.dumps(bench_payload(result), indent=2,
                          default=float) + "\n"
        (RESULTS_DIR / f"{name}.json").write_text(body)
        (REPO_ROOT / f"BENCH_{name}.json").write_text(body)

        # Ledger append: lazy imports so collecting the suite stays
        # cheap when a run dies before any benchmark records.
        from repro.obs.perf import PerfLedger, PerfRecord
        from repro.obs.perf.ledger import LEDGER_ENV
        from repro.obs.perf.telemetry import aggregate_snapshot
        delta = aggregate_snapshot(
            getattr(result, "extras", {}).get("snapshot"))
        record = PerfRecord.from_result(
            name, result, quick=quick_mode(), metrics_delta=delta)
        PerfLedger(os.environ.get(LEDGER_ENV)
                   or RESULTS_DIR / "perf_ledger.jsonl").append(record)

        print()
        print(text)
        return result

    return _record


def run_once(benchmark, runner, **kwargs):
    """Execute an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(lambda: runner(**kwargs), rounds=1, iterations=1)
