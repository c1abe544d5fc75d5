"""Shared helpers for the benchmark suite.

Every benchmark runs one paper experiment (at paper parameters unless
noted), times it via pytest-benchmark, prints the reproduced series,
and archives it through :func:`record_result` under its
``repro.bench.experiments.EXPERIMENTS`` id:

- ``benchmarks/results/<id>.txt`` — the rendered table (gitignored
  working copy, uploaded as a CI artifact);
- :func:`repro.obs.perf.archive` — the one writer of the run's
  :class:`~repro.obs.perf.record.PerfRecord`: ``BENCH_<id>.json`` at
  the repository root (the committed cross-PR trajectory file) and the
  same record appended to the performance ledger
  (``benchmarks/results/perf_ledger.jsonl``, or ``$REPRO_PERF_LEDGER``).

A bench module with a quick-mode toggle passes the ``quick`` it ran
with, so quick runs only ever compare against quick-mode baselines.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture
def record_result():
    """Archive an ExperimentResult as its table and its PerfRecord."""

    def _record(name, result, quick=False):
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        text = result.render()
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

        # Lazy imports so collecting the suite stays cheap when a run
        # dies before any benchmark records.
        from repro.obs.perf import PerfLedger, archive
        from repro.obs.perf.ledger import LEDGER_ENV
        ledger = PerfLedger(os.environ.get(LEDGER_ENV)
                            or RESULTS_DIR / "perf_ledger.jsonl")
        archive(name, result, quick=quick, root=REPO_ROOT, ledger=ledger)

        print()
        print(text)
        return result

    return _record


def run_once(benchmark, runner, **kwargs):
    """Execute an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(lambda: runner(**kwargs), rounds=1, iterations=1)
