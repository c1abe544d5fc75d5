"""Clock-Sketch: measuring item batches in data streams.

A production-quality Python reproduction of "Out of Many We are One:
Measuring Item Batch with Clock-Sketch" (SIGMOD 2021). An *item batch*
is a run of identical items whose inter-arrival gaps stay below a
window ``T``; the library measures batch activeness, cardinality, time
span, and size with the paper's clock-augmented sketches, and ships the
state-of-the-art baselines, dataset synthesizers, exact ground truth,
and the full experiment harness reproducing every figure and table of
the paper's evaluation.

Quickstart
----------
>>> from repro import ClockBloomFilter, count_window
>>> bf = ClockBloomFilter.from_memory("8KB", count_window(1024))
>>> bf.insert("flow-a")
>>> bf.contains("flow-a")
True
"""

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # the names as tools see them; at run time see _SOURCES
    from .core import (
        ClockArray,
        ClockBloomFilter,
        ClockBitmap,
        ClockCountMin,
        ClockTimeSpanSketch,
        CardinalityEstimate,
        TimeSpanResult,
        TimeSpanBatchResult,
    )
    from .engine import BatchEngine
    from .monitor import BatchReport, ItemBatchMonitor
    from .serialize import dump_sketch, dumps_sketch, load_sketch, loads_sketch
    from .shard import ShardedSketch
    from .streams import BatchTracker, Batch, Stream, segment_batches
    from .timebase import WindowKind, WindowSpec, count_window, time_window
    from .units import format_bits, parse_memory
    from .errors import (
        ConfigurationError,
        DatasetError,
        EstimatorSaturatedError,
        MemoryBudgetError,
        ReproError,
        TimeError,
    )

#: The submodule behind each public name. Names load on first use
#: (PEP 562), so importing one subpackage (a server imports only
#: ``repro.serve``) compiles none of the others.
_SOURCES = {
    "core": ("ClockArray", "ClockBloomFilter", "ClockBitmap",
             "ClockCountMin", "ClockTimeSpanSketch", "CardinalityEstimate",
             "TimeSpanResult", "TimeSpanBatchResult"),
    "engine": ("BatchEngine",),
    "monitor": ("ItemBatchMonitor", "BatchReport"),
    "serialize": ("dump_sketch", "dumps_sketch", "load_sketch",
                  "loads_sketch"),
    "shard": ("ShardedSketch",),
    "streams": ("BatchTracker", "Batch", "Stream", "segment_batches"),
    "timebase": ("WindowKind", "WindowSpec", "count_window", "time_window"),
    "units": ("format_bits", "parse_memory"),
    "errors": ("ConfigurationError", "DatasetError",
               "EstimatorSaturatedError", "MemoryBudgetError", "ReproError",
               "TimeError"),
}
_ORIGIN = {name: module for module, names in _SOURCES.items()
           for name in names}

__version__ = "1.0.0"

__all__ = [
    "ClockArray",
    "ClockBloomFilter",
    "ClockBitmap",
    "ClockCountMin",
    "ClockTimeSpanSketch",
    "CardinalityEstimate",
    "TimeSpanResult",
    "TimeSpanBatchResult",
    "BatchEngine",
    "ItemBatchMonitor",
    "BatchReport",
    "dump_sketch",
    "dumps_sketch",
    "load_sketch",
    "loads_sketch",
    "ShardedSketch",
    "BatchTracker",
    "Batch",
    "Stream",
    "segment_batches",
    "WindowKind",
    "WindowSpec",
    "count_window",
    "time_window",
    "format_bits",
    "parse_memory",
    "ReproError",
    "ConfigurationError",
    "MemoryBudgetError",
    "TimeError",
    "EstimatorSaturatedError",
    "DatasetError",
    "__version__",
]


def __getattr__(name: str) -> Any:
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
