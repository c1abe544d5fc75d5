"""Flow-analyzer driver: project loading, suppressions, CLI.

::

    python -m repro.qa flow src tests

Exit status mirrors sketch-lint: 0 clean, 1 findings, 2 usage or parse
error. Suppression comments are shared with sketch-lint (same
``# sketchlint: <token>`` syntax, same placement rules); the flow
tokens are ``lock-ok`` (SK108), ``fault-ok`` (SK109), ``impure-ok``
(SK110), and ``obs-gate-ok`` (SK111).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from ..lint import _suppressed_lines, iter_python_files
from ..rules import Finding
from .callgraph import Project
from .rules import run_flow_rules

__all__ = ["analyze_paths", "analyze_source", "load_project", "main"]


def load_project(paths: Sequence["Path | str"],
                 ) -> Tuple[Project, Dict[str, Tuple[str, ast.Module]]]:
    """Parse every Python file under ``paths`` into one Project.

    Returns the project plus a map ``path -> (source, tree)`` for
    suppression filtering. Raises :class:`SyntaxError` on a file that
    does not parse (annotated with the offending filename).
    """
    project = Project()
    parsed: Dict[str, Tuple[str, ast.Module]] = {}
    for file in iter_python_files(paths):
        path = str(file)
        source = file.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=path)
        project.add_module(path, tree)
        parsed[path] = (source, tree)
    return project, parsed


def _filter_suppressed(findings: List[Finding],
                       parsed: Dict[str, Tuple[str, ast.Module]],
                       ) -> List[Finding]:
    suppressed_by_path: Dict[str, Dict[str, Set[int]]] = {}
    out = []
    for finding in findings:
        entry = parsed.get(finding.path)
        if entry is None:
            out.append(finding)
            continue
        table = suppressed_by_path.get(finding.path)
        if table is None:
            table = _suppressed_lines(*entry)
            suppressed_by_path[finding.path] = table
        if finding.line not in table.get(finding.rule, ()):
            out.append(finding)
    return out


def analyze_paths(paths: Sequence["Path | str"]) -> List[Finding]:
    """Run the flow rules over every Python file under ``paths``."""
    project, parsed = load_project(paths)
    return _filter_suppressed(run_flow_rules(project), parsed)


def analyze_source(source: str, path: str) -> List[Finding]:
    """Analyze one module's source under a (possibly virtual) path.

    The single-module variant used by the fixture tests — the whole
    "project" is this module, so interprocedural reasoning stays within
    it.
    """
    tree = ast.parse(source, filename=path)
    project = Project()
    project.add_module(path, tree)
    findings = [f for f in run_flow_rules(project) if f.path == path]
    table = _suppressed_lines(source, tree)
    return [f for f in findings
            if f.line not in table.get(f.rule, ())]


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa flow",
        description="Clock-sketch inter-procedural flow analyzer "
                    "(rules SK108-SK111).",
    )
    parser.add_argument("paths", nargs="+",
                        help="files or directories to analyze")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the per-finding listing")
    args = parser.parse_args(argv)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"sketchflow: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        findings = analyze_paths(args.paths)
    except SyntaxError as exc:
        print(f"sketchflow: parse error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        for finding in findings:
            print(finding.format())
    files = len(set(iter_python_files(args.paths)))
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"sketchflow: {files} file(s) analyzed, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
