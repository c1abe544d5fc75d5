"""Inter-procedural dataflow analysis for the Clock-sketch repo.

The flow analyzer complements sketch-lint's per-statement rules with
whole-program passes: per-function control-flow graphs with guard
facts and dominators (:mod:`repro.qa.flow.cfg`), a cross-module call
graph (:mod:`repro.qa.flow.callgraph`), and four rules
(:mod:`repro.qa.flow.rules`):

- **SK108** lock dominance over wrapped-sketch and shard-replica state;
- **SK109** fault-path completeness in ``shard/``, ``engine/`` and
  ``serve/``;
- **SK110** kernel purity (no obs/env/globals/I-O,
  interprocedurally);
- **SK111** ``_obs.ENABLED`` gating of hot-path instrumentation.

Run it as ``python -m repro.qa flow src tests`` (see
:mod:`repro.qa.flow.driver` for suppressions, and ``docs/qa.md`` for
the rule catalog).
"""

from __future__ import annotations

from .callgraph import Project
from .cfg import CFG, build_cfg
from .driver import analyze_paths, analyze_source, load_project, main
from .rules import FLOW_RULE_IDS, run_flow_rules

__all__ = [
    "CFG",
    "FLOW_RULE_IDS",
    "Project",
    "analyze_paths",
    "analyze_source",
    "build_cfg",
    "load_project",
    "main",
    "run_flow_rules",
]
