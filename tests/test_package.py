"""Package-level checks: exports, error hierarchy, version."""

import pytest

import repro
from repro import errors


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("subpackage", [
        "repro.core", "repro.baselines", "repro.hashing", "repro.streams",
        "repro.datasets", "repro.cache", "repro.analysis", "repro.apps",
        "repro.ext", "repro.bench", "repro.timebase",
        # Some names of these load lazily, through a module __getattr__.
        "repro.obs", "repro.serve", "repro.shard",
    ])
    def test_subpackage_all_resolves(self, subpackage):
        import importlib
        module = importlib.import_module(subpackage)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{subpackage}.{name}"

    def test_key_entry_points_present(self):
        for name in ("ClockBloomFilter", "ClockBitmap", "ClockCountMin",
                     "ClockTimeSpanSketch", "ItemBatchMonitor",
                     "BatchTracker", "count_window", "time_window"):
            assert name in repro.__all__


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in ("ConfigurationError", "MemoryBudgetError", "TimeError",
                     "EstimatorSaturatedError", "DatasetError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_value_error_compatibility(self):
        # Config and dataset problems are also ValueErrors, so generic
        # callers can catch them idiomatically.
        assert issubclass(errors.ConfigurationError, ValueError)
        assert issubclass(errors.DatasetError, ValueError)
        assert issubclass(errors.TimeError, ValueError)

    def test_memory_budget_is_configuration(self):
        assert issubclass(errors.MemoryBudgetError, errors.ConfigurationError)

    def test_one_except_catches_everything(self):
        caught = []
        for exc in (errors.ConfigurationError("x"), errors.TimeError("y"),
                    errors.DatasetError("z")):
            try:
                raise exc
            except errors.ReproError as err:
                caught.append(err)
        assert len(caught) == 3
