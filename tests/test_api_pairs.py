"""One write path, one read path, matched ``contains`` aliases.

``insert``/``insert_many`` are written once, on ``ClockSketchBase``, and
``query``/``query_many`` once, on ``ClockSketchReader``; every sketch
class (the four kinds, the baselines, the sharded view) inherits them.
A subclass that wrote its own would fork the path its callers take, and
one that defined half of the ``contains`` pair would leave scalar or
batch callers off it. Walking every class the package defines checks
both where they live.
"""

import importlib
import pkgutil

import repro
from repro.core.base import ClockSketchBase, ClockSketchReader

WRITTEN_ONCE = {
    ClockSketchBase: ("insert", "insert_many"),
    ClockSketchReader: ("query", "query_many"),
}


def _sketch_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)
    seen, stack = [], [ClockSketchBase]
    while stack:
        cls = stack.pop()
        if cls not in seen and cls.__module__.startswith("repro."):
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


def test_insert_and_query_are_written_once():
    classes = _sketch_classes()
    names = {cls.__name__ for cls in classes}
    assert {"ClockBloomFilter", "ClockCountMin", "ShardedSketch",
            "NaiveTimeSpanSketch", "TimeOutBloomFilter"} <= names
    owners = {}
    for cls in classes:
        for name in ("insert", "insert_many", "query", "query_many"):
            if name in vars(cls):
                owners.setdefault(name, []).append(cls)
    assert owners == {name: [cls] for cls, pair in WRITTEN_ONCE.items()
                      for name in pair}


def test_contains_pairs_are_both_or_neither():
    halves = [cls.__name__ for cls in _sketch_classes()
              if ("contains" in vars(cls)) != ("contains_many" in vars(cls))]
    assert halves == []
    assert "contains_many" in vars(repro.ClockBloomFilter)
