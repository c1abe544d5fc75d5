"""sketch-lint: the repo-specific static-analysis pass (CLI).

Runs the SK1xx rules of :mod:`repro.qa.rules` over source trees::

    python -m repro.qa lint src tests
    python -m repro.qa lint --stale-suppressions src tests

Exit status is 0 when no violations are found, 1 otherwise (2 for
usage/parse errors). Suppressions are source comments::

    # sketchlint: scalar-ok            (SK101)
    # sketchlint: dtype-ok             (SK102)
    # sketchlint: raw-clock-ok         (SK103)
    # sketchlint: lock-ok              (SK108, flow)
    # sketchlint: fault-ok             (SK109, flow)
    # sketchlint: impure-ok            (SK110, flow)
    # sketchlint: obs-gate-ok          (SK111, flow)

A suppression comment silences its rule on its own line and on the
line directly below (comment-above style). Placed on a ``def`` or
``class`` line it silences the rule for the whole statement body. The
same comments are honoured by the flow analyzer
(:mod:`repro.qa.flow`) for the SK108-SK111 rules.

``--stale-suppressions`` audits the comments themselves: a token whose
rule would not fire anywhere in the comment's scope even with
suppressions ignored is dead weight and gets reported (exit 1), so
suppressions cannot outlive the violation they were excusing.

Directories named ``qa_fixtures`` are skipped by default: they hold
the linter's own deliberately-broken test snippets.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set

from .rules import Finding, SUPPRESSION_TOKENS, run_rules, scope_for_path

__all__ = ["lint_source", "lint_file", "lint_paths", "iter_python_files",
           "find_stale_suppressions", "main"]

#: Directory names never descended into.
EXCLUDED_DIRS: Set[str] = {"__pycache__", ".git", ".venv", "qa_fixtures",
                           "node_modules", "build", "dist"}

_COMMENT_PREFIX = "sketchlint:"


def _suppression_comments(source: str) -> "List[tuple]":
    """Every suppression token in ``source`` as ``(line, token, rule)``."""
    out: List[tuple] = []
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    try:
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(_COMMENT_PREFIX):
                continue
            body = text[len(_COMMENT_PREFIX):]
            for word in body.replace(",", " ").split():
                rule = SUPPRESSION_TOKENS.get(word)
                if rule is None and word in SUPPRESSION_TOKENS.values():
                    rule = word
                if rule is not None:
                    out.append((tok.start[0], word, rule))
    except tokenize.TokenError:
        pass
    return out


def _stmt_spans(tree: ast.Module) -> Dict[int, range]:
    """``def``/``class`` header line -> the statement's full line range."""
    spans: Dict[int, range] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            spans[node.lineno] = range(node.lineno, end + 1)
    return spans


def _suppressed_lines(source: str, tree: ast.Module) -> Dict[str, Set[int]]:
    """Map rule id -> set of source lines on which it is suppressed."""
    suppressed: Dict[str, Set[int]] = {}

    def add(rule: str, lines: Iterable[int]) -> None:
        suppressed.setdefault(rule, set()).update(lines)

    spans = _stmt_spans(tree)
    for line, _token, rule in _suppression_comments(source):
        if line in spans:
            add(rule, spans[line])
        else:
            add(rule, (line, line + 1))
    return suppressed


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source, classified by ``path`` (may be virtual)."""
    tree = ast.parse(source, filename=path)
    findings = run_rules(tree, path, scope_for_path(path))
    if not findings:
        return findings
    suppressed = _suppressed_lines(source, tree)
    return [
        f for f in findings
        if f.line not in suppressed.get(f.rule, ())
    ]


def lint_file(path: "Path | str") -> List[Finding]:
    """Lint one file on disk."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def iter_python_files(paths: Sequence["Path | str"]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories."""
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            if p.suffix == ".py":
                yield p
            continue
        for candidate in sorted(p.rglob("*.py")):
            if not EXCLUDED_DIRS & set(candidate.parts):
                yield candidate


def lint_paths(paths: Sequence["Path | str"]) -> List[Finding]:
    """Lint every Python file under the given paths."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return findings


def find_stale_suppressions(paths: Sequence["Path | str"],
                            ) -> "List[tuple]":
    """Suppression tokens whose rule would not fire in their scope.

    Runs *both* the lint rules and the flow rules with suppressions
    ignored, then checks every ``# sketchlint: <token>`` comment: if the
    token's rule produces no finding on any line the comment covers, the
    token is stale. Returns sorted ``(path, line, token, rule)`` tuples.
    """
    # Imported lazily: flow.driver imports this module for the shared
    # suppression machinery.
    from .flow.driver import load_project
    from .flow.rules import run_flow_rules

    project, parsed = load_project(paths)
    active: Dict[str, Dict[str, Set[int]]] = {}
    for finding in run_flow_rules(project):
        active.setdefault(finding.path, {}) \
            .setdefault(finding.rule, set()).add(finding.line)
    stale: List[tuple] = []
    for path, (source, tree) in parsed.items():
        per_rule = active.setdefault(path, {})
        for finding in run_rules(tree, path, scope_for_path(path)):
            per_rule.setdefault(finding.rule, set()).add(finding.line)
        spans = _stmt_spans(tree)
        for line, token, rule in _suppression_comments(source):
            covered = spans.get(line, range(line, line + 2))
            hits = per_rule.get(rule, set())
            if not hits.intersection(covered):
                stale.append((path, line, token, rule))
    return sorted(stale)


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa lint",
        description="Clock-sketch repo linter (rules SK101-SK103; "
                    "the flow rules SK108-SK111 live in "
                    "`python -m repro.qa flow`).",
    )
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the per-finding listing")
    parser.add_argument("--stale-suppressions", action="store_true",
                        help="instead of linting, report suppression "
                             "comments whose rule no longer fires in "
                             "their scope")
    args = parser.parse_args(argv)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"sketchlint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    if args.stale_suppressions:
        try:
            stale = find_stale_suppressions(args.paths)
        except SyntaxError as exc:
            print(f"sketchlint: parse error: {exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            for path, line, token, rule in stale:
                print(f"{path}:{line}: stale suppression `{token}` — "
                      f"{rule} does not fire in its scope")
        status = "clean" if not stale else f"{len(stale)} stale token(s)"
        print(f"sketchlint: suppression audit, {status}")
        return 1 if stale else 0

    try:
        findings = lint_paths(args.paths)
    except SyntaxError as exc:
        print(f"sketchlint: parse error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        for finding in findings:
            print(finding.format())
    count = len(findings)
    files = len(set(iter_python_files(args.paths)))
    status = "clean" if not count else f"{count} finding(s)"
    print(f"sketchlint: {files} file(s) checked, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
