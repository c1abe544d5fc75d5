"""Clock-invariant sanitizer: runtime checks for sketch state.

SALSA and SF-sketch both demonstrate the failure class this module
exists to rule out: silently-corrupted counter state that keeps
producing *plausible* estimates. The sanitizer wraps
:class:`~repro.core.clockarray.ClockArray` and the four Clock-sketch
structures with invariant checks that turn silent corruption into an
immediate :class:`SanitizerError`:

- **cell range** — every clock cell stays in ``[0, 2^s - 1]``;
- **sweep-pointer monotonicity** — the cleaner's total step count
  never moves backwards (its position is that count mod ``m``);
- **cleaning cadence** — the cleaner never lags its
  ``T / (2^s - 2)``-per-circle schedule: exact sweep modes must be
  fully caught up after every operation, deferred modes may lag by at
  most one circle (their documented relaxation);
- **no false expiry (spot check)** — an item inserted within the
  window guarantee is never reported dead by a query;
- **serialize round-trip stability** — a sketch periodically survives
  ``dumps -> loads`` bit-identically.

Three ways to enable it:

- per sketch: ``ClockBloomFilter(..., sanitize=True)`` or
  :func:`sanitize_sketch`;
- per process: :func:`install` / :func:`uninstall` (re-entrant, pairs
  may nest) or the :func:`sanitized` context manager;
- per test run: ``REPRO_SANITIZE=1 python -m pytest`` — the conftest
  plugin installs the sanitizer for the whole tier-1 suite.

The checks are read-only: a sanitized sketch produces bit-identical
results to an unsanitized one, it just refuses to keep running on
corrupted state.
"""

from __future__ import annotations

import functools
import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from ..errors import ReproError, _notify_flight
from ..hashing import key_ids

__all__ = [
    "SanitizerError",
    "check_clock",
    "check_roundtrip",
    "check_sketch",
    "enabled",
    "install",
    "sanitize_sketch",
    "sanitized",
    "uninstall",
]


class SanitizerError(ReproError, AssertionError):
    """A sketch invariant was violated at runtime."""

    def __init__(self, *args: object) -> None:
        super().__init__(*args)
        _notify_flight("sanitizer", self)


#: Environment variable gating the pytest-wide sanitizer.
ENV_FLAG = "REPRO_SANITIZE"

#: Per-sketch cap on remembered recent inserts (spot-check memory bound).
RECENT_CAP = 4096

#: Items sampled from each batch operation for spot checks.
SAMPLE = 64

#: A serialize round-trip is verified every this many mutations.
ROUNDTRIP_EVERY = 512


def enabled() -> bool:
    """Is the environment-variable sanitizer switch on?"""
    value = os.environ.get(ENV_FLAG, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------

def check_clock(clock: Any) -> None:
    """Assert the core clock-array invariants on one ``ClockArray``.

    Raises :class:`SanitizerError` on a cell outside ``[0, 2^s - 1]``,
    a sweep-step count that moved backwards, or a cleaner lagging (or
    ahead of) its sweep-cadence schedule.
    """
    values = clock.values
    max_value = clock.max_value
    if values.size:
        top = int(values.max())
        if top > max_value:
            raise SanitizerError(
                f"clock cell out of range: found value {top} with "
                f"s={clock.s} (max {max_value}); cell state is corrupted"
            )
    steps = int(clock.steps_done)
    seen = int(getattr(clock, "_qa_steps_seen", 0))
    if steps < seen:
        raise SanitizerError(
            f"sweep pointer moved backwards: {steps} total steps after "
            f"{seen}; the cleaning pointer must be monotone mod m"
        )
    clock._qa_steps_seen = steps
    lag = int(clock.total_steps_at(clock.now)) - steps
    if lag < 0:
        raise SanitizerError(
            f"cleaner ran {-lag} sweep steps ahead of its schedule; "
            "cells are expiring early"
        )
    limit = clock.n - 1 if clock.is_deferred else 0
    if lag > limit:
        raise SanitizerError(
            f"cleaning cadence violated: cleaner is {lag} sweep steps "
            f"behind schedule (allowed {limit} in {clock.sweep_mode!r} "
            f"mode); the T/(2^s-2) error window no longer holds"
        )


def check_roundtrip(sketch: Any) -> None:
    """Assert a sketch serialises and restores bit-identically."""
    from .. import serialize
    from ..core import KINDS
    if type(sketch) not in KINDS:
        return
    clone = serialize.loads_sketch(serialize.dumps_sketch(sketch))
    checks: List[Tuple[str, bool]] = [
        ("clock.values", bool(np.array_equal(clone.clock.values,
                                             sketch.clock.values))),
        ("clock.steps_done", clone.clock.steps_done == sketch.clock.steps_done),
        ("now", float(clone.now) == float(sketch.now)),
        ("items_inserted", clone.items_inserted == sketch.items_inserted),
    ]
    for side in ("counters", "timestamps"):
        if hasattr(sketch, side):
            checks.append((side, bool(np.array_equal(getattr(clone, side),
                                                     getattr(sketch, side)))))
    for field, ok in checks:
        if not ok:
            raise SanitizerError(
                f"serialize round-trip diverged at {field}: a restored "
                "sketch would not continue bit-for-bit"
            )


def check_sketch(sketch: Any) -> None:
    """Run every applicable invariant check on one sketch, immediately."""
    check_clock(sketch.clock)
    check_roundtrip(sketch)


def _guarantee_age(sketch: Any) -> float:
    """Age below which an inserted item must still be reported alive.

    The paper guarantees liveness throughout the window ``T`` for the
    exact sweep modes and ``T - T/(2^s - 2)`` for the deferred modes;
    the sanitizer keeps one extra cleaning circle of slack in both
    cases so boundary rounding can never false-alarm.
    """
    window = float(sketch.window.length)
    circles = int(sketch.clock.circles_per_window)
    slack = window / circles
    if sketch.clock.is_deferred:
        return max(0.0, window - 2.0 * slack)
    return max(0.0, window - slack)


def _recent(sketch: Any) -> "OrderedDict[int, float]":
    table = getattr(sketch, "_qa_recent", None)
    if table is None:
        table = OrderedDict()
        sketch._qa_recent = table
    return table


def _record_inserts(sketch: Any, items: Any, times: Any) -> None:
    """Remember when each item arrived, by its key id: the id, not the
    item, names its cells (``0`` and ``False`` have different ones)."""
    table = _recent(sketch)
    for kid, t in zip(key_ids(items).tolist(), times):
        table[kid] = float(t)
        table.move_to_end(kid)
    while len(table) > RECENT_CAP:
        table.popitem(last=False)


def _check_alive(sketch: Any, items: Any, now: float) -> None:
    """Raise unless every item, read dead at ``now``, arrived outside
    the guarantee horizon (or is not remembered)."""
    recent = _recent(sketch)
    bound = _guarantee_age(sketch)
    for item, kid in zip(items, key_ids(items).tolist()):
        inserted = recent.get(kid)
        if inserted is not None and 0.0 <= now - inserted < bound:
            raise SanitizerError(
                f"no-false-expiry violated: item {item!r} inserted "
                f"{now - inserted:g} time units ago (guarantee horizon "
                f"{bound:g}, window {sketch.window.length:g}) was "
                "reported dead"
            )


def _after_mutation(sketch: Any) -> None:
    ops = int(getattr(sketch, "_qa_ops", 0)) + 1
    sketch._qa_ops = ops
    check_clock(sketch.clock)
    if ops == 1 or ops % ROUNDTRIP_EVERY == 0:
        check_roundtrip(sketch)


# ----------------------------------------------------------------------
# Method wrappers
# ----------------------------------------------------------------------

def _wrap_clock(name: str, orig: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(orig)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = orig(self, *args, **kwargs)
        if name == "reset":
            self._qa_steps_seen = 0
        check_clock(self)
        return result
    return wrapper


def _wrap_insert(orig: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(orig)
    def wrapper(self: Any, item: Any, now: float) -> Any:
        result = orig(self, item, now)
        _record_inserts(self, [item], [now])
        _after_mutation(self)
        return result
    return wrapper


def _batch_sample(count: int) -> List[int]:
    if count <= SAMPLE:
        return list(range(count))
    half = SAMPLE // 2
    return list(range(half)) + list(range(count - half, count))


def _wrap_insert_many(orig: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(orig)
    def wrapper(self: Any, items: Any, times: Any) -> Any:
        result = orig(self, items, times)
        sample = _batch_sample(len(items))
        _record_inserts(self, [items[i] for i in sample],
                        [times[i] for i in sample])
        _after_mutation(self)
        return result
    return wrapper


def _dead(answer: Any) -> Any:
    """Where an answer reads dead: inactive, or a zero count (a
    Count-Min counter is erased when its clock expires)."""
    return getattr(answer, "active", answer) == 0


def _wrap_reader(orig: Callable[..., Any], batch: bool) -> Callable[..., Any]:
    from ..core import KINDS

    @functools.wraps(orig)
    def wrapper(self: Any, items: Any, t: Any = None) -> Any:
        result = orig(self, items, t)
        # A sharded view shares the read path; its replicas are checked
        # by the clock hooks its barrier runs.
        if isinstance(self, KINDS):
            rows = items if batch else [items]
            _check_alive(self, [rows[int(i)] for i in
                                np.flatnonzero(_dead(result))[:SAMPLE]],
                         float(self.now))
            check_clock(self.clock)
        return result
    return wrapper


def _wrap_aggregate_reader(orig: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(orig)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = orig(self, *args, **kwargs)
        check_clock(self.clock)
        return result
    return wrapper


#: Every method of the kinds the sanitizer hooks, and its wrapper: the
#: writers (scalar, batch), the readers and the bitmap's estimate.
_HOOKS: Dict[str, Callable[[Callable[..., Any]], Callable[..., Any]]] = {
    "_write_one": _wrap_insert,
    "_write": _wrap_insert_many,
    "query": functools.partial(_wrap_reader, batch=False),
    "query_many": functools.partial(_wrap_reader, batch=True),
    "contains": functools.partial(_wrap_reader, batch=False),
    "contains_many": functools.partial(_wrap_reader, batch=True),
    "estimate": _wrap_aggregate_reader,
}

_CLOCK_METHODS = ("advance", "sync_state", "flush", "touch", "load_values",
                  "reset")


def _clock_class() -> type:
    from ..core.clockarray import ClockArray
    return ClockArray


def _build_patches() -> List[Tuple[type, str, Callable[..., Any]]]:
    """(class, method name, wrapper) for every method the sanitizer hooks."""
    patches: List[Tuple[type, str, Callable[..., Any]]] = []
    clock_cls = _clock_class()
    for name in _CLOCK_METHODS:
        orig = clock_cls.__dict__.get(name)
        if orig is not None:
            patches.append((clock_cls, name, _wrap_clock(name, orig)))
    from ..core import KINDS
    # The kinds share their writers, which every insert path (a
    # sketch's own, a monitor's, a shard replica's) runs with resolved
    # times, and their read path: wrap each where it is defined, once.
    owners = dict.fromkeys(
        (next(c for c in cls.__mro__ if name in c.__dict__), name)
        for cls in KINDS for name in _HOOKS if hasattr(cls, name))
    for owner, name in owners:
        patches.append((owner, name, _HOOKS[name](owner.__dict__[name])))
    return patches


# ----------------------------------------------------------------------
# Global install / per-instance wrapping
# ----------------------------------------------------------------------

_install_refs = 0
_saved: List[Tuple[type, str, Callable[..., Any]]] = []


def install() -> None:
    """Patch ClockArray and the four kinds process-wide (re-entrant).

    Nested ``install()`` calls stack; the patches are removed when
    :func:`uninstall` has been called as many times as :func:`install`.
    """
    global _install_refs
    _install_refs += 1
    if _install_refs > 1:
        return
    for cls, name, wrapper in _build_patches():
        _saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)


def uninstall() -> None:
    """Undo one :func:`install`; restores originals at refcount zero."""
    global _install_refs
    if _install_refs == 0:
        return
    _install_refs -= 1
    if _install_refs:
        return
    while _saved:
        cls, name, orig = _saved.pop()
        setattr(cls, name, orig)


@contextmanager
def sanitized() -> Iterator[None]:
    """Context manager: sanitizer installed inside the ``with`` block."""
    install()
    try:
        yield
    finally:
        uninstall()


def sanitize_sketch(sketch: Any) -> Any:
    """Wrap one sketch instance (and its clock) with invariant checks.

    Unlike :func:`install`, only this instance is affected; other
    sketches in the process run unchecked. Returns the sketch.
    """
    import types

    clock = sketch.clock
    clock_cls = type(clock)
    for name in _CLOCK_METHODS:
        orig = getattr(clock_cls, name, None)
        if orig is not None and name not in clock.__dict__:
            clock.__dict__[name] = types.MethodType(_wrap_clock(name, orig),
                                                    clock)
    cls = type(sketch)
    for name, wrap in _HOOKS.items():
        if hasattr(cls, name) and name not in sketch.__dict__:
            sketch.__dict__[name] = types.MethodType(
                wrap(getattr(cls, name)), sketch)
    sketch._qa_opt_in = True
    return sketch
