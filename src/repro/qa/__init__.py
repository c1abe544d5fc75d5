"""Correctness tooling for the Clock-sketch reproduction.

Three legs, all repo-specific, unified behind
``python -m repro.qa {lint,flow,sanitize}``:

- **sketch-lint** (:mod:`repro.qa.lint` / :mod:`repro.qa.rules`): an
  AST-based static-analysis pass enforcing the disciplines the hot
  path depends on — no scalar loops over streams, explicit numpy
  dtypes, clock-cell mutation only through :class:`ClockArray`,
  matched scalar/batch API pairs. Run it with
  ``python -m repro.qa lint src tests``; add ``--stale-suppressions``
  to audit the suppression comments themselves.

- **sketch-flow** (:mod:`repro.qa.flow`): an inter-procedural dataflow
  analyzer — per-function CFGs, a cross-module call graph, and four
  whole-program rules: SK108 lock dominance, SK109 fault-path
  completeness, SK110 kernel purity, SK111 ``_obs.ENABLED`` gating.
  Run it with ``python -m repro.qa flow src tests``.

- **sanitizer** (:mod:`repro.qa.sanitizer`): a dynamic invariant
  checker that wraps :class:`~repro.core.clockarray.ClockArray` and
  the four sketches with runtime assertions — cell range, sweep-pointer
  monotonicity, cleaning-cadence bound, no-false-expiry spot checks,
  and serialize round-trip stability. Enable it per sketch with
  ``sanitize=True``, globally with :func:`repro.qa.sanitizer.install`,
  or for a whole pytest run with ``REPRO_SANITIZE=1``;
  ``python -m repro.qa sanitize`` runs a standalone smoke pass.

See ``docs/qa.md`` for the full rule catalogue and workflows.
"""

from __future__ import annotations

import importlib
from typing import Any

# PEP 562 lazy re-exports: ``python -m repro.qa.lint`` imports this
# package before runpy executes the submodule as __main__, so an eager
# ``from .lint import ...`` here would trigger the double-import
# RuntimeWarning on every lint run.
_EXPORTS = {
    "lint_file": ("lint", "lint_file"),
    "lint_paths": ("lint", "lint_paths"),
    "lint_source": ("lint", "lint_source"),
    "lint_main": ("lint", "main"),
    "find_stale_suppressions": ("lint", "find_stale_suppressions"),
    "analyze_paths": ("flow", "analyze_paths"),
    "analyze_source": ("flow", "analyze_source"),
    "flow_main": ("flow", "main"),
    "FLOW_RULE_IDS": ("flow", "FLOW_RULE_IDS"),
    "Finding": ("rules", "Finding"),
    "RULE_IDS": ("rules", "RULE_IDS"),
    "SUPPRESSION_TOKENS": ("rules", "SUPPRESSION_TOKENS"),
    "SanitizerError": ("sanitizer", "SanitizerError"),
    "check_clock": ("sanitizer", "check_clock"),
    "check_roundtrip": ("sanitizer", "check_roundtrip"),
    "check_sketch": ("sanitizer", "check_sketch"),
    "enabled": ("sanitizer", "enabled"),
    "install": ("sanitizer", "install"),
    "sanitize_sketch": ("sanitizer", "sanitize_sketch"),
    "sanitized": ("sanitizer", "sanitized"),
    "uninstall": ("sanitizer", "uninstall"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, attr)


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "FLOW_RULE_IDS",
    "Finding",
    "RULE_IDS",
    "SUPPRESSION_TOKENS",
    "SanitizerError",
    "analyze_paths",
    "analyze_source",
    "check_clock",
    "check_roundtrip",
    "check_sketch",
    "enabled",
    "find_stale_suppressions",
    "flow_main",
    "install",
    "lint_file",
    "lint_main",
    "lint_paths",
    "lint_source",
    "sanitize_sketch",
    "sanitized",
    "uninstall",
]
