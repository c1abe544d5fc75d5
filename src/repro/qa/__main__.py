"""``python -m repro.qa`` — the unified QA driver.

Three subcommands::

    python -m repro.qa lint src tests        # AST rules SK101-SK103
    python -m repro.qa flow src tests        # flow rules SK108-SK111
    python -m repro.qa sanitize              # dynamic invariant smoke run

``lint`` and ``flow`` forward their remaining arguments to
:func:`repro.qa.lint.main` and :func:`repro.qa.flow.driver.main`
unchanged (including ``--stale-suppressions``). ``sanitize`` runs
every sketch family through a short sanitized workload so the runtime
invariant checks execute end to end.

With no subcommand, or an unknown one, the driver prints usage and
exits 2.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

_USAGE = (
    "usage: python -m repro.qa {lint,flow,sanitize} [options] [paths...]\n"
    "  lint      AST rules SK101-SK103 (see `lint --help`)\n"
    "  flow      inter-procedural flow rules SK108-SK111 "
    "(see `flow --help`)\n"
    "  sanitize  dynamic invariant smoke run over all sketch families\n"
)


def _sanitize_main(argv: Sequence[str]) -> int:
    """Run each sketch family under the sanitizer wrappers."""
    import numpy as np

    from ..core import (ClockBitmap, ClockBloomFilter, ClockCountMin,
                        ClockTimeSpanSketch)
    from ..timebase import time_window
    from .sanitizer import sanitize_sketch

    if argv and argv[0] in ("-h", "--help"):
        print("usage: python -m repro.qa sanitize\n\n"
              "Runs every sketch family through a short insert/query/"
              "advance workload with the dynamic sanitizer installed; "
              "any invariant breach raises SanitizerError (exit 1).")
        return 0

    window = time_window(64.0)
    builds = {
        "bloom": lambda: ClockBloomFilter(n=512, k=3, s=2, window=window),
        "bitmap": lambda: ClockBitmap(n=512, s=4, window=window),
        "countmin": lambda: ClockCountMin(width=256, depth=2, s=2,
                                          window=window),
        "timespan": lambda: ClockTimeSpanSketch(n=512, k=3, s=4,
                                                window=window),
    }
    keys = np.arange(200, dtype=np.int64)
    times = np.linspace(1.0, 32.0, keys.size)
    failures = 0
    for name, build in builds.items():
        try:
            sketch = sanitize_sketch(build())
            sketch.insert_many(keys, times)
            for key in keys[:16]:
                if hasattr(sketch, "contains"):
                    sketch.contains(key, t=33.0)
                elif hasattr(sketch, "query"):
                    sketch.query(key, t=33.0)
            if hasattr(sketch, "estimate"):
                sketch.estimate(t=33.0)
            sketch.clock.advance(96.0)  # expire everything, checked
        except Exception as exc:
            failures += 1
            print(f"qa sanitize: {name}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            print(f"qa sanitize: {name}: ok")
    status = "clean" if not failures else f"{failures} failure(s)"
    print(f"qa sanitize: {len(builds)} sketch families exercised, "
          f"{status}")
    return 1 if failures else 0


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    command, rest = (args[0], args[1:]) if args else ("", [])
    if command == "lint":
        from .lint import main as lint_main
        return lint_main(rest)
    if command == "flow":
        from .flow.driver import main as flow_main
        return flow_main(rest)
    if command == "sanitize":
        return _sanitize_main(rest)
    if command in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    print(_USAGE, end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
