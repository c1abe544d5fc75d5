"""Pluggable kernel backends for the numeric hot path.

Everything per-cell and per-batch that the sketches compute — closed
form sweep-hit counting, snapshot-value reconstruction, the vector
sweep and decrement-range passes, the fused touch/timespan/countmin
batch finishers, and the shard scatter fan-out — lives behind the
:class:`KernelBackend` seam defined here. Three backends implement it:

``numpy``
    The reference backend: the library's original vectorised numpy
    code, moved verbatim into :mod:`repro.kernels.numpy_backend`.
``numba``
    The same kernels as explicit loops, compiled to machine code with
    ``numba.njit`` (:mod:`repro.kernels.numba_backend`). Only
    available when numba is installed; selecting it without numba
    falls back to ``numpy`` with a single warning.
``python``
    The numba kernels *un*-jitted (:mod:`repro.kernels.loops`) — slow,
    dependency-free, and algorithmically identical to ``numba``; used
    for differential testing on hosts without numba.

Selection
---------
The process-wide default backend is resolved on first use from the
``REPRO_KERNEL`` environment variable (``auto`` | ``numpy`` |
``numba``; also accepts ``python``). ``auto`` — the default — picks
``numba`` when importable, else ``numpy``, silently. Code can override
per call site (``ClockArray(..., kernel_backend="numpy")``), per
process (:func:`set_default_backend`), or per block
(:func:`use_backend`). Every backend produces bit-identical sketch
state — enforced by ``tests/test_kernel_backends.py`` — so selection
is purely a speed choice.

The active backend is published to the observability registry as the
``repro_kernel_info`` gauge (labels ``backend`` / ``compiled``) when
instrumentation is enabled. See ``docs/kernels.md`` for the protocol
contract and how to add a backend.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError
from .loops import LoopKernelBackend, build_kernels
from .numba_backend import NUMBA_AVAILABLE, NumbaKernelBackend
from .numpy_backend import NumpyKernelBackend

__all__ = [
    "KERNEL_CHOICES",
    "KernelBackend",
    "LoopKernelBackend",
    "NUMBA_AVAILABLE",
    "NumbaKernelBackend",
    "NumpyKernelBackend",
    "build_kernels",
    "get_default_backend",
    "kernel_info",
    "numba_available",
    "publish_info",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

#: Values accepted by ``REPRO_KERNEL`` and every ``--kernel`` flag.
#: ``python`` is deliberately undocumented in the CLI help: it is the
#: un-jitted differential twin of ``numba``, interpreter-slow.
KERNEL_CHOICES = ("auto", "numpy", "numba", "python")

_ENV_VAR = "REPRO_KERNEL"


@runtime_checkable
class KernelBackend(Protocol):
    """The primitive-kernel seam every backend implements.

    All methods must be bit-identical to the numpy reference backend
    (:class:`NumpyKernelBackend`) on the same inputs — backends differ
    only in speed. ``clock`` parameters are duck-typed
    :class:`~repro.core.clockarray.ClockArray` instances; kernels read
    their configuration (``n``, ``max_value``, ``steps_done``,
    ``values``) and commit cell images through the validating
    ``clock.load_values`` — never by writing the buffer directly.
    """

    #: Short identifier (``numpy`` / ``numba`` / ``python``).
    name: str
    #: True when the kernels run as compiled machine code.
    compiled: bool

    def sweep_hits(self, total_steps: int | np.ndarray,
                   cells: int | np.ndarray, n: int) -> np.ndarray:
        """Closed-form decrement count per cell over ``[1, total_steps]``."""
        ...

    def snapshot_values(self, set_steps: np.ndarray, cells: np.ndarray,
                        n: int, max_value: int,
                        query_steps: int) -> np.ndarray:
        """Closed-form clock value of each cell at query time."""
        ...

    def decay_all(self, values: np.ndarray, rounds: int) -> np.ndarray:
        """Full-circle sweep: every cell loses ``rounds``; returns expiries."""
        ...

    def decrement_range(self, values: np.ndarray, a: int, b: int,
                        ) -> np.ndarray:
        """One sweep pass over ``a..b-1``; returns absolute expiries."""
        ...

    def fuse_touch(self, clock: Any, cells: np.ndarray, steps: np.ndarray,
                   end_steps: int, count_cleaned: bool = False) -> int:
        """Fused batch of plain clock touches; returns cells cleaned.

        ``count_cleaned`` asks for the (slightly more expensive)
        cleaned-cell count; with it off the method returns 0. Kernels
        never consult observability state themselves — the engine
        passes ``count_cleaned=_obs.ENABLED`` so backends stay pure.
        """
        ...

    def fuse_timespan(self, clock: Any, timestamps: np.ndarray,
                      cells: np.ndarray, steps: np.ndarray,
                      stamps: np.ndarray, end_steps: int,
                      count_cleaned: bool = False) -> int:
        """Fused batch of touches plus first-writer timestamps."""
        ...

    def fuse_countmin(self, clock: Any, counters: np.ndarray,
                      counter_max: int, cells: np.ndarray,
                      steps: np.ndarray, end_steps: int,
                      count_cleaned: bool = False) -> int:
        """Fused batch of saturating counter bumps plus touches."""
        ...

    def scatter_by_shard(self, items: np.ndarray, times_arr: np.ndarray,
                         shard_ids: np.ndarray,
                         ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Split one batch into per-shard ``(shard, items, times)``."""
        ...


# ----------------------------------------------------------------------
# Backend construction and selection
# ----------------------------------------------------------------------

#: Backend singletons, built on demand (numba compilation state is
#: per-function-signature inside the backend, so sharing one instance
#: process-wide maximises warm-up reuse).
_INSTANCES: dict[str, KernelBackend] = {}

#: The resolved process default; None until first resolution.
_DEFAULT: "KernelBackend | None" = None

#: What the default resolution was asked for (the env value), for
#: kernel_info() reporting.
_REQUESTED: str = "auto"

_WARNED_FALLBACK = False


def numba_available() -> bool:
    """Is the numba JIT importable in this process?"""
    return NUMBA_AVAILABLE


def _instance(name: str) -> KernelBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        if name == "numpy":
            backend = NumpyKernelBackend()
        elif name == "python":
            backend = LoopKernelBackend()
        else:
            backend = NumbaKernelBackend()
        _INSTANCES[name] = backend
    return backend


def _make(name: str) -> KernelBackend:
    """Build (or reuse) the backend a spec names, applying fallbacks."""
    global _WARNED_FALLBACK
    if name == "auto":
        return _instance("numba" if NUMBA_AVAILABLE else "numpy")
    if name == "numba" and not NUMBA_AVAILABLE:
        if not _WARNED_FALLBACK:
            _WARNED_FALLBACK = True
            warnings.warn(
                "REPRO_KERNEL=numba requested but numba is not "
                "installed; falling back to the numpy kernel backend",
                RuntimeWarning,
                stacklevel=3,
            )
        return _instance("numpy")
    if name in ("numpy", "numba", "python"):
        return _instance(name)
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; use one of {KERNEL_CHOICES}"
    )


def resolve_backend(spec: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend spec to a live backend object.

    ``spec`` may be None (the process default, itself resolved from
    ``REPRO_KERNEL`` on first use), a name from
    :data:`KERNEL_CHOICES`, or an already-constructed backend object
    (returned as-is). This is what ``ClockArray`` calls on
    construction.
    """
    if spec is None:
        return get_default_backend()
    if isinstance(spec, str):
        return _make(spec)
    if isinstance(spec, KernelBackend):
        return spec
    raise ConfigurationError(
        f"kernel backend spec must be a name or a KernelBackend, "
        f"got {type(spec).__name__}"
    )


def get_default_backend() -> KernelBackend:
    """The process-default backend, resolving ``REPRO_KERNEL`` once."""
    global _DEFAULT, _REQUESTED
    if _DEFAULT is None:
        _REQUESTED = os.environ.get(_ENV_VAR, "auto").strip() or "auto"
        _DEFAULT = _make(_REQUESTED)
        _publish_if_enabled()
    return _DEFAULT


def set_default_backend(spec: str | KernelBackend) -> KernelBackend:
    """Set the process-default backend; returns the backend installed.

    Affects every subsequently constructed ``ClockArray`` (and the
    scatter fan-out); existing arrays keep the backend they resolved.
    """
    global _DEFAULT, _REQUESTED
    backend = resolve_backend(spec)
    _DEFAULT = backend
    if isinstance(spec, str):
        _REQUESTED = spec
    _publish_if_enabled()
    return backend


@contextmanager
def use_backend(spec: str | KernelBackend) -> Iterator[KernelBackend]:
    """``with use_backend("numpy"):`` — scoped default-backend override.

    Process-global (not thread-local): intended for benchmarks, tests,
    and pinning one batch's backend, not for concurrent mixing.
    """
    global _DEFAULT
    previous = _DEFAULT
    backend = set_default_backend(spec)
    try:
        yield backend
    finally:
        _DEFAULT = previous
        _publish_if_enabled()


def kernel_info() -> dict[str, Any]:
    """The active default backend, as a JSON-friendly dict.

    Recorded in benchmark payloads so BENCH trajectories name the
    backend that produced them.
    """
    backend = get_default_backend()
    return {
        "backend": backend.name,
        "compiled": bool(backend.compiled),
        "requested": _REQUESTED,
        "numba_available": NUMBA_AVAILABLE,
    }


def publish_info() -> None:
    """Publish the active backend to the obs registry.

    Runs automatically on every default-backend resolution or change
    while instrumentation is enabled; call it explicitly after
    ``obs.runtime.enable()`` to stamp a fresh registry with the
    ``repro_kernel_info`` gauge without changing the backend.
    """
    from ..obs import runtime as _obs

    backend = get_default_backend()
    _obs.publish_kernel_info(backend.name, bool(backend.compiled))


def _publish_if_enabled() -> None:
    from ..obs import runtime as _obs

    if _obs.ENABLED and _DEFAULT is not None:
        _obs.publish_kernel_info(_DEFAULT.name, bool(_DEFAULT.compiled))
