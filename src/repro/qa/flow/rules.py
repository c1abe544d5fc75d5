"""The four flow rules: SK108-SK111.

Each pass runs over a :class:`~repro.qa.flow.callgraph.Project` and
returns :class:`~repro.qa.rules.Finding` records (the same type
sketch-lint emits, so suppression and reporting machinery is shared).

``SK108`` **lock dominance** — accesses to a lock-wrapper's wrapped
sketch must be dominated by ``self._lock`` (directly, through
``_guarded``, or through a callable handed to ``_guarded``); reads of
shard replica state must follow a quiescence point (``drain`` /
``barrier`` / ``join``) or run in a single-owner context (``__init__``,
a ``kind = "serial"`` router, a worker-process function). Dynamic
``getattr`` forwards are only clean under a proven membership test
against a module-level frozen string allowlist.

``SK109`` **fault-path completeness** — in ``shard/``, ``engine/``
and ``serve/``
no bare ``except``, no silently swallowed exceptions outside shutdown
paths, and no overbroad ``except Exception`` that neither re-raises nor
translates into the typed ``repro.errors`` family.

``SK110`` **kernel purity** — functions reachable from a
``repro/kernels/`` backend module may not touch ``repro.obs``,
``os.environ``, module globals, or perform I/O. Interprocedural over
resolved calls; the package ``kernels/__init__.py`` is excluded.

``SK111`` **obs gating** — enabled-mode instrumentation (``record_*``
/ ``publish_*`` / ``sample_clock`` / ``series`` on the obs-runtime
alias) reachable
from a public hot-path function must sit behind the ``_obs.ENABLED``
switchboard on every path. Taint propagates through unguarded resolved
calls; ``repro.obs.runtime`` itself (internally no-op-safe when
disabled) is not a taint source.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..rules import Finding
from .callgraph import ClassInfo, FunctionInfo, ModuleInfo, Project
from .cfg import OBS_ENABLED_FACT, expr_key

__all__ = ["FLOW_RULE_IDS", "FlowScope", "flow_scope_for_path",
           "run_flow_rules"]

FLOW_RULE_IDS = ("SK108", "SK109", "SK110", "SK111")

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Replica attributes/methods that read or write shared mutable state
#: (clock cells, side arrays, temporal counters) — anything else on a
#: replica counts as immutable configuration.
_MUTABLE_REPLICA_ATTRS = frozenset({
    "clock", "timestamps", "counters", "values",
    "insert", "insert_many", "snapshot", "merge", "_cells",
    "advance", "flush", "sync_state", "load_values",
    "stream_clock", "items_inserted", "now",
})

#: Calls that establish quiescence: after one of these returns, every
#: worker has acknowledged its commands (or been joined), so parent-side
#: replica reads are race-free until the next dispatch.
_QUIESCENCE_CALLS = frozenset({"drain", "barrier", "join"})

#: Hot-path instrumentation recorders on the obs-runtime alias: the
#: prefixed recorders plus ``sample_clock`` and the catalogue lookup
#: ``series``, which registers a live series when enabled.
_RECORDER_PREFIXES = ("record_", "publish_")
_RECORDER_NAMES = frozenset({"sample_clock", "series"})


class FlowScope:
    """Which flow rules apply to one module path."""

    __slots__ = ("shard_scope", "fault_scope", "kernel_scope", "hot_scope")

    def __init__(self, shard_scope: bool, fault_scope: bool,
                 kernel_scope: bool, hot_scope: bool) -> None:
        self.shard_scope = shard_scope
        self.fault_scope = fault_scope
        self.kernel_scope = kernel_scope
        self.hot_scope = hot_scope


def flow_scope_for_path(path: str) -> FlowScope:
    """Classify a repo-relative path for the flow rules."""
    pure = PurePosixPath(str(path).replace("\\", "/"))
    parts = set(pure.parts)
    name = pure.name
    in_repro = "repro" in parts
    return FlowScope(
        shard_scope="shard" in parts,
        fault_scope=("shard" in parts or "engine" in parts
                     or "serve" in parts),
        kernel_scope="kernels" in parts and name != "__init__.py",
        hot_scope=in_repro and (
            bool(parts & {"core", "engine", "shard", "hashing"})
            or name in ("concurrent.py", "monitor.py")
        ),
    )


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_single_owner(func: FunctionInfo, project: Project) -> bool:
    """Single-owner contexts where replica access cannot race workers."""
    if func.name == "__init__":
        return True
    if func.cls is None:
        return "worker" in func.name
    kind = project.class_str_attr(func.cls, "kind")
    return kind == "serial"


def _membership_ok(project: Project, mod: ModuleInfo, func: FunctionInfo,
                   call: ast.Call) -> bool:
    """Is a dynamic ``getattr(x, name)`` guarded by a frozen allowlist?

    Requires the fact ``in:name:COLL`` on every path to the call, with
    ``COLL`` resolving to a module-level frozenset of attribute names.
    """
    if len(call.args) != 2 or not isinstance(call.args[1], ast.Name):
        return False
    key = call.args[1].id
    for fact in func.cfg.facts_at(call):
        if not fact.startswith(f"in:{key}:"):
            continue
        coll = fact.split(":", 2)[2]
        if project.frozenset_named(mod, coll) is not None:
            return True
    return False


# ----------------------------------------------------------------------
# SK108 — lock dominance
# ----------------------------------------------------------------------

def _lock_class_wrapped_attrs(cls: ClassInfo) -> FrozenSet[str]:
    """Wrapped-state attributes of a lock class (else empty).

    A *lock class* assigns ``self._lock`` in ``__init__``; its wrapped
    state is whatever ``__init__`` stores from its first positional
    parameter (``self.sketch = sketch``).
    """
    init = cls.methods.get("__init__")
    if init is None:
        return frozenset()
    node = init.node
    assert isinstance(node, _FUNC_TYPES)
    args = node.args.args
    if len(args) < 2:
        return frozenset()
    first_param = args[1].arg
    has_lock = False
    wrapped: Set[str] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign):
            continue
        for target in sub.targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if target.attr == "_lock":
                has_lock = True
            elif isinstance(sub.value, ast.Name) \
                    and sub.value.id == first_param:
                wrapped.add(target.attr)
    return frozenset(wrapped) if has_lock else frozenset()


def _guarded_node_ids(func_node: ast.AST) -> Set[int]:
    """ids of AST nodes protected by being handed to ``self._guarded``.

    Covers expressions appearing inside the arguments of a
    ``self._guarded(...)`` call (including inline lambdas) and the
    bodies of nested functions whose *name* is passed to ``_guarded``.
    """
    protected: Set[int] = set()
    passed_names: Set[str] = set()
    for sub in ast.walk(func_node):
        if not (isinstance(sub, ast.Call)
                and expr_key(sub.func) == "self._guarded"):
            continue
        for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
            if isinstance(arg, ast.Name):
                passed_names.add(arg.id)
            for node in ast.walk(arg):
                protected.add(id(node))
    for sub in ast.walk(func_node):
        if isinstance(sub, _FUNC_TYPES) and sub.name in passed_names:
            for node in ast.walk(sub):
                protected.add(id(node))
    return protected


def _rule_sk108_wrapper(project: Project, mod: ModuleInfo,
                        findings: List[Finding]) -> None:
    for cls in mod.classes.values():
        wrapped = _lock_class_wrapped_attrs(cls)
        if not wrapped:
            continue
        for method in cls.methods.values():
            if method.name == "__init__":
                continue
            guarded = _guarded_node_ids(method.node)
            handled: Set[int] = set()
            cfg = method.cfg
            for sub in ast.walk(method.node):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Name) \
                        and sub.func.id == "getattr" and sub.args:
                    base = sub.args[0]
                    if isinstance(base, ast.Attribute) \
                            and isinstance(base.value, ast.Name) \
                            and base.value.id == "self" \
                            and base.attr in wrapped:
                        handled.add(id(base))
                        if id(sub) in guarded \
                                or "self._lock" in cfg.context_of(sub) \
                                or _membership_ok(project, mod, method, sub):
                            continue
                        findings.append(Finding(
                            "SK108", mod.path, sub.lineno,
                            f"dynamic `getattr(self.{base.attr}, ...)` "
                            "forward without lock or a module-level "
                            "frozenset allowlist membership test; racing "
                            "threads can observe mutable state unlocked",
                        ))
            for sub in ast.walk(method.node):
                if not (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and sub.attr in wrapped):
                    continue
                if id(sub) in handled or id(sub) in guarded:
                    continue
                if "self._lock" in cfg.context_of(sub):
                    continue
                findings.append(Finding(
                    "SK108", mod.path, sub.lineno,
                    f"access to wrapped `self.{sub.attr}` outside "
                    "`with self._lock` / `self._guarded(...)`; this "
                    "races the cleaner thread",
                ))


def _replica_rooted(node: ast.expr) -> bool:
    key = expr_key(node)
    return key is not None and (key == "replicas"
                                or key.endswith(".replicas"))


def _replica_elem_names(func_node: ast.AST,
                        rooted_locals: Set[str]) -> Set[str]:
    """Names bound to replica elements by loops/zip/enumerate."""

    def is_source(expr: ast.expr) -> bool:
        if _replica_rooted(expr):
            return True
        if isinstance(expr, ast.Subscript):
            return is_source(expr.value)
        if isinstance(expr, ast.Name) and expr.id in rooted_locals:
            return True
        if isinstance(expr, ast.Call) \
                and _call_name(expr) in ("zip", "enumerate"):
            return any(is_source(a) for a in expr.args)
        return False

    def target_names(target: ast.expr) -> Iterable[str]:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from target_names(elt)

    elems: Set[str] = set()
    for sub in ast.walk(func_node):
        if isinstance(sub, (ast.For, ast.AsyncFor)) and is_source(sub.iter):
            elems.update(target_names(sub.target))
        elif isinstance(sub, ast.comprehension) and is_source(sub.iter):
            elems.update(target_names(sub.target))
    return elems


def _quiescent_before(func_node: ast.AST, line: int) -> bool:
    for sub in ast.walk(func_node):
        if isinstance(sub, ast.Call) and sub.lineno < line \
                and _call_name(sub) in _QUIESCENCE_CALLS:
            return True
    return False


def _call_sites_of(project: Project,
                   target: FunctionInfo) -> List[Tuple[FunctionInfo,
                                                       ast.Call]]:
    sites = []
    for func in project.functions():
        for sub in ast.walk(func.node):
            if isinstance(sub, ast.Call) \
                    and _call_name(sub) == target.name \
                    and project.resolve_call(func, sub) is target:
                sites.append((func, sub))
    return sites


def _rule_sk108_replicas(project: Project, mod: ModuleInfo,
                         findings: List[Finding]) -> None:
    for func in project.functions_in(mod):
        if _is_single_owner(func, project):
            continue
        rooted_locals: Set[str] = set()
        for sub in ast.walk(func.node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) \
                    and _replica_rooted(sub.value):
                rooted_locals.add(sub.targets[0].id)
        elems = _replica_elem_names(func.node, rooted_locals)

        def is_replica_expr(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Subscript):
                return _replica_rooted(expr.value) or (
                    isinstance(expr.value, ast.Name)
                    and expr.value.id in rooted_locals)
            return isinstance(expr, ast.Name) and expr.id in elems

        accesses: List[Tuple[int, str]] = []
        for sub in ast.walk(func.node):
            if isinstance(sub, ast.Attribute) \
                    and sub.attr in _MUTABLE_REPLICA_ATTRS \
                    and is_replica_expr(sub.value):
                accesses.append((sub.lineno, sub.attr))
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "getattr" and sub.args \
                    and is_replica_expr(sub.args[0]):
                if not _membership_ok(project, mod, func, sub):
                    accesses.append((sub.lineno, "getattr"))
        if not accesses:
            continue
        for line, attr in accesses:
            if _quiescent_before(func.node, line):
                continue
            if func.name.startswith("_") and self_heals(
                    project, func):
                continue
            detail = ("dynamic `getattr` over a replica without a "
                      "frozenset allowlist membership test"
                      if attr == "getattr" else
                      f"replica `.{attr}` read without a preceding "
                      "quiescence point (drain/barrier/join)")
            findings.append(Finding(
                "SK108", mod.path, line,
                f"{detail}; worker processes may still be writing "
                "this shared-memory state",
            ))


def self_heals(project: Project, func: FunctionInfo) -> bool:
    """Every call site of a private helper sits after quiescence."""
    sites = _call_sites_of(project, func)
    if not sites:
        return False
    for caller, call in sites:
        if _is_single_owner(caller, project):
            continue
        if not _quiescent_before(caller.node, call.lineno):
            return False
    return True


def _rule_sk108(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for mod in project.modules.values():
        scope = flow_scope_for_path(mod.path)
        if "repro" in PurePosixPath(mod.path).parts:
            _rule_sk108_wrapper(project, mod, findings)
        if scope.shard_scope:
            _rule_sk108_replicas(project, mod, findings)
    return findings


# ----------------------------------------------------------------------
# SK109 — fault-path completeness
# ----------------------------------------------------------------------

def _is_shutdown_name(name: str) -> bool:
    stripped = name.lstrip("_")
    return stripped.startswith(("close", "stop", "shutdown")) \
        or name in ("__del__", "__exit__")


def _handler_names(type_node: Optional[ast.expr]) -> List[str]:
    if type_node is None:
        return []
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) \
        else [type_node]
    names = []
    for node in nodes:
        key = expr_key(node)
        if key is not None:
            names.append(key.rsplit(".", 1)[-1])
    return names


def _is_pass_only(body: List[ast.stmt]) -> bool:
    real = [s for s in body
            if not (isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant)
                    and isinstance(s.value.value, str))]
    return all(isinstance(s, ast.Pass) for s in real)


def _raises_typed(project: Project, func: FunctionInfo,
                  node: ast.AST, depth: int = 0,
                  seen: Optional[Set[str]] = None) -> bool:
    """Does this subtree raise, or call something that (transitively)
    raises, a constructed exception?"""
    if seen is None:
        seen = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            return True
        if depth < 3 and isinstance(sub, ast.Call):
            callee = project.resolve_call(func, sub)
            if callee is not None and callee.key not in seen:
                seen.add(callee.key)
                if _raises_typed(project, callee, callee.node,
                                 depth + 1, seen):
                    return True
    return False


def _uses_bound_name(handler: ast.ExceptHandler) -> bool:
    if handler.name is None:
        return False
    for stmt in handler.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and sub.id == handler.name:
                return True
    return False


def _rule_sk109(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for mod in project.modules.values():
        if not flow_scope_for_path(mod.path).fault_scope:
            continue
        for func in project.functions_in(mod):
            shutdown = _is_shutdown_name(func.name)
            for sub in ast.walk(func.node):
                if not isinstance(sub, ast.ExceptHandler):
                    continue
                if sub.type is None:
                    findings.append(Finding(
                        "SK109", mod.path, sub.lineno,
                        "bare `except:` swallows every failure "
                        "(including worker death); catch a typed "
                        "exception from the repro.errors family",
                    ))
                    continue
                names = _handler_names(sub.type)
                if _is_pass_only(sub.body):
                    if shutdown:
                        continue
                    findings.append(Finding(
                        "SK109", mod.path, sub.lineno,
                        f"`except {'/'.join(names) or '...'}: pass` "
                        "silently drops a failure outside a shutdown "
                        "path; propagate it or translate it into the "
                        "typed repro.errors family",
                    ))
                    continue
                if not any(n in ("Exception", "BaseException")
                           for n in names):
                    continue
                if shutdown or func.name == "__del__":
                    continue
                if _uses_bound_name(sub):
                    continue
                body_mod = ast.Module(body=sub.body, type_ignores=[])
                if _raises_typed(project, func, body_mod):
                    continue
                findings.append(Finding(
                    "SK109", mod.path, sub.lineno,
                    f"overbroad `except {'/'.join(names)}` neither "
                    "re-raises nor translates into the typed "
                    "repro.errors family",
                ))
    return findings


# ----------------------------------------------------------------------
# SK110 — kernel purity
# ----------------------------------------------------------------------

def _obs_aliases(mod: ModuleInfo) -> Set[str]:
    aliases = set()
    for local, target in mod.imports.items():
        if target == "repro.obs" or target.endswith(".obs") \
                or target.endswith("obs.runtime") \
                or target.endswith("obs.trace") \
                or target.endswith("obs.perf") \
                or target.endswith("obs.perf.telemetry"):
            aliases.add(local)
    return aliases


def _purity_sink(func: FunctionInfo) -> Optional[Tuple[int, str]]:
    """First impurity in a function body, as ``(line, description)``."""
    aliases = _obs_aliases(func.module)
    for sub in ast.walk(func.node):
        if isinstance(sub, ast.Global):
            return sub.lineno, "`global` statement (module-state write)"
        if isinstance(sub, ast.Name) and sub.id in aliases:
            return sub.lineno, f"touches repro.obs (via `{sub.id}`)"
        if isinstance(sub, ast.Attribute):
            key = expr_key(sub)
            if key is None:
                continue
            if key == "os.environ" or key.startswith("os.environ."):
                return sub.lineno, "reads `os.environ`"
            if key.startswith(("sys.stdout", "sys.stderr")):
                return sub.lineno, f"touches `{key}`"
            if key.startswith("warnings."):
                return sub.lineno, f"calls `{key}`"
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                and sub.func.id in ("print", "open", "input"):
            return sub.lineno, f"performs I/O (`{sub.func.id}`)"
    return None


def _rule_sk110(project: Project) -> List[Finding]:
    sink_memo: Dict[str, Optional[Tuple[int, str]]] = {}

    def sink_of(func: FunctionInfo) -> Optional[Tuple[int, str]]:
        if func.key not in sink_memo:
            sink_memo[func.key] = _purity_sink(func)
        return sink_memo[func.key]

    findings: List[Finding] = []
    reported: Set[Tuple[str, int]] = set()
    for mod in project.modules.values():
        if not flow_scope_for_path(mod.path).kernel_scope:
            continue
        for root in project.functions_in(mod):
            # BFS from the kernel root through resolved calls.
            queue = [root]
            visited = {root.key}
            while queue:
                func = queue.pop(0)
                sink = sink_of(func)
                if sink is not None:
                    line, desc = sink
                    where = (func.module.path, line)
                    if where not in reported:
                        reported.add(where)
                        via = "" if func is root else \
                            f" (reached from `{root.qualname}`)"
                        findings.append(Finding(
                            "SK110", func.module.path, line,
                            f"kernel-impure: `{func.qualname}` {desc}"
                            f"{via}; kernel backends must stay free of "
                            "obs, environment, globals, and I/O",
                        ))
                    continue
                for sub in ast.walk(func.node):
                    if not isinstance(sub, ast.Call):
                        continue
                    callee = project.resolve_call(func, sub)
                    if callee is not None and callee.key not in visited:
                        visited.add(callee.key)
                        queue.append(callee)
    return findings


# ----------------------------------------------------------------------
# SK111 — obs gating
# ----------------------------------------------------------------------

def _is_recorder_call(mod: ModuleInfo, call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)):
        return False
    if func.value.id not in _obs_aliases(mod):
        return False
    return func.attr.startswith(_RECORDER_PREFIXES) \
        or func.attr in _RECORDER_NAMES


def _rule_sk111(project: Project) -> List[Finding]:
    # Step 1: direct sinks — unguarded recorder calls per function.
    sinks: Dict[str, Tuple[str, int, str]] = {}
    calls: Dict[str, List[Tuple[str, bool]]] = {}
    by_key: Dict[str, FunctionInfo] = {}
    for func in project.functions():
        by_key[func.key] = func
        mod = func.module
        if mod.name == "repro.obs.runtime":
            continue
        out_calls: List[Tuple[str, bool]] = []
        for sub in ast.walk(func.node):
            if not isinstance(sub, ast.Call):
                continue
            if _is_recorder_call(mod, sub):
                if func.key not in sinks \
                        and OBS_ENABLED_FACT not in func.cfg.facts_at(sub):
                    name = sub.func.attr \
                        if isinstance(sub.func, ast.Attribute) else "?"
                    sinks[func.key] = (mod.path, sub.lineno, name)
                continue
            callee = project.resolve_call(func, sub)
            if callee is not None:
                guarded = OBS_ENABLED_FACT in func.cfg.facts_at(sub)
                out_calls.append((callee.key, guarded))
        if out_calls:
            calls[func.key] = out_calls

    # Step 2: taint fixpoint through unguarded resolved calls.
    tainted: Dict[str, Tuple[str, int, str]] = dict(sinks)
    changed = True
    while changed:
        changed = False
        for key, out_calls in calls.items():
            if key in tainted:
                continue
            for callee_key, guarded in out_calls:
                if not guarded and callee_key in tainted:
                    tainted[key] = tainted[callee_key]
                    changed = True
                    break

    # Step 3: report the sink behind each tainted public hot-path root.
    findings: List[Finding] = []
    reported: Set[Tuple[str, int]] = set()
    for func in project.functions():
        if func.name.startswith("_"):
            continue
        if not flow_scope_for_path(func.module.path).hot_scope:
            continue
        taint = tainted.get(func.key)
        if taint is None:
            continue
        path, line, recorder = taint
        if (path, line) in reported:
            continue
        reported.add((path, line))
        via = "" if func.key in sinks else \
            f", reachable from hot path `{func.qualname}`"
        findings.append(Finding(
            "SK111", path, line,
            f"recorder `{recorder}` runs without an `_obs.ENABLED` "
            f"guard on some path{via}; enabled-mode instrumentation "
            "must stay behind the switchboard",
        ))
    return findings


# ----------------------------------------------------------------------
# Driver entry
# ----------------------------------------------------------------------

def run_flow_rules(project: Project) -> List[Finding]:
    """Run SK108-SK111 over a project; findings sorted by location."""
    findings: List[Finding] = []
    findings.extend(_rule_sk108(project))
    findings.extend(_rule_sk109(project))
    findings.extend(_rule_sk110(project))
    findings.extend(_rule_sk111(project))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
