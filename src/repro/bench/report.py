"""Markdown report generation and multi-seed aggregation.

``repro-bench all --report out.md`` (or :func:`write_report` directly)
runs experiments and emits one self-contained Markdown document with a
table per figure — the machine-generated companion to EXPERIMENTS.md.
``--seeds N`` repeats each experiment over N workloads and
:func:`aggregate_results` merges them (mean of every numeric column,
plus a per-row std column for the measurement columns).
"""

from __future__ import annotations

import math
import time

from .harness import ExperimentResult, _format_cell

__all__ = ["to_markdown", "write_report", "aggregate_results"]

#: Columns that identify a row rather than measure something; they must
#: agree across seeds and are never averaged.
_ID_COLUMNS = frozenset({
    "panel", "dataset", "mode", "memory_kb", "s", "k", "window",
    "query_at_windows", "algorithm", "variant", "metric", "trace",
    "cache_size", "population", "queries", "task", "cells",
})


def aggregate_results(results: "list[ExperimentResult]") -> ExperimentResult:
    """Merge same-shaped results from different seeds.

    Rows are matched positionally (every seed runs the identical
    parameter grid); identity columns are checked for agreement,
    numeric measurement columns become their across-seed mean, and one
    ``<col>_std`` column is added per measurement column.
    """
    if not results:
        raise ValueError("nothing to aggregate")
    if len(results) == 1:
        return results[0]
    first = results[0]
    for other in results[1:]:
        if len(other.rows) != len(first.rows):
            raise ValueError("seed runs produced different grids")

    measure_columns = [c for c in first.columns if c not in _ID_COLUMNS]
    columns = list(first.columns)
    for col in measure_columns:
        columns.append(f"{col}_std")

    merged = ExperimentResult(
        title=f"{first.title} (mean of {len(results)} seeds)",
        columns=columns,
        notes=list(first.notes),
    )
    for index, row in enumerate(first.rows):
        out = {c: row.get(c) for c in first.columns if c in _ID_COLUMNS}
        for col in measure_columns:
            samples = [r.rows[index].get(col) for r in results]
            numeric = [s for s in samples if isinstance(s, (int, float))]
            if not numeric:
                out[col] = None
                out[f"{col}_std"] = None
                continue
            mean = sum(numeric) / len(numeric)
            var = sum((s - mean) ** 2 for s in numeric) / len(numeric)
            out[col] = mean
            out[f"{col}_std"] = math.sqrt(var)
        merged.add(**out)
    return merged


def to_markdown(result: ExperimentResult) -> str:
    """Render one experiment as a Markdown section with a table."""
    lines = [f"## {result.title}", ""]
    header = "| " + " | ".join(result.columns) + " |"
    rule = "|" + "|".join("---" for _ in result.columns) + "|"
    lines.append(header)
    lines.append(rule)
    for row in result.rows:
        cells = [_format_cell(row.get(col)) for col in result.columns]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    for note in result.notes:
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)


def write_report(results: "dict[str, ExperimentResult]", path,
                 title: str = "Clock-Sketch reproduction report") -> None:
    """Write a multi-experiment Markdown report to ``path``.

    ``results`` maps experiment ids (``fig6`` ...) to their results, in
    the order they should appear.
    """
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    parts = [f"# {title}", "", f"Generated {stamp}.", ""]
    for name, result in results.items():
        parts.append(f"<!-- experiment: {name} -->")
        parts.append(to_markdown(result))
    with open(path, "w") as handle:
        handle.write("\n".join(parts))
