"""Whole-program model: modules, classes, functions, resolved calls.

:class:`Project` parses every analyzed file once and builds the index
the flow rules share — per-module import tables (with relative imports
resolved against the package layout), class registries with
cross-module MRO, module-level string-frozenset constants (allowlists),
and a *resolved-call* oracle good enough for the repo's idiom:

- ``f(...)`` — module-local function or ``from .mod import f``;
- ``alias.f(...)`` — ``alias`` names an imported module;
- ``self.m(...)`` — method lookup over the enclosing class's MRO;
- ``var.m(...)`` — ``var`` is a local assigned ``var = ClassName(...)``
  (or an alias of such a local / of a typed ``self`` attribute);
- ``self.X.m(...)`` — ``self.X`` was assigned a value of known class
  type in any method of the class;
- ``ClassName(...)`` — resolves to ``ClassName.__init__``.

Calls through duck-typed values (``sketch.clock.advance`` and friends)
are *not* resolvable and the rules treat them as opaque; that is a
documented precision limit, not an error.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .cfg import CFG, build_cfg

__all__ = ["Project", "ModuleInfo", "ClassInfo", "FunctionInfo"]


def module_name_for(path: str) -> str:
    """Dotted module name for a repo-relative file path.

    ``src/repro/shard/workers.py`` -> ``repro.shard.workers``;
    ``__init__.py`` maps to its package. Files outside ``src/`` (tests,
    benchmarks, fixtures) get a name from their own path so they stay
    addressable without colliding with the library.
    """
    parts = list(Path(path).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class FunctionInfo:
    """One function or method, with its lazily-built CFG."""

    def __init__(self, module: "ModuleInfo", qualname: str,
                 node: ast.AST, cls: Optional["ClassInfo"]) -> None:
        self.module = module
        self.qualname = qualname
        self.node = node
        self.cls = cls
        self._cfg: Optional[CFG] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> str:
        return f"{self.module.name}:{self.qualname}"

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.key}>"


class ClassInfo:
    """One class: methods, base names, and inferred ``self.X`` types."""

    def __init__(self, module: "ModuleInfo", name: str,
                 node: ast.ClassDef) -> None:
        self.module = module
        self.name = name
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}
        #: base-class expressions as dotted strings (unresolved)
        self.bases: List[str] = []
        #: attr name -> class dotted name, from ``self.X = ClassName(..)``
        self.attr_types: Dict[str, str] = {}
        self._attrs_inferred = False
        #: string-constant class attributes (``kind = "serial"``)
        self.str_attrs: Dict[str, str] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.module.name}:{self.name}>"


class ModuleInfo:
    """One parsed module and its name-resolution tables."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.name = module_name_for(path)
        self.is_package = Path(path).name == "__init__.py"
        #: local name -> dotted target (module, or module.attr)
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module-level ``NAME = frozenset({"a", ...})`` constants
        self.frozensets: Dict[str, FrozenSet[str]] = {}

    @property
    def package(self) -> str:
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""

    def resolve_relative(self, level: int, target: str) -> str:
        """Absolute dotted name of a ``from ...target import`` source."""
        if level == 0:
            return target
        base = self.name.split(".")
        # level 1 = current package; each extra level strips one more.
        # A package __init__ *is* its package, so strip one less.
        strip = level - 1 if self.is_package else level
        base = base[:len(base) - strip] if strip <= len(base) else []
        if target:
            base.append(target)
        return ".".join(base)


_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _const_frozenset(node: ast.expr) -> Optional[FrozenSet[str]]:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "frozenset" and len(node.args) == 1
            and not node.keywords):
        return None
    arg = node.args[0]
    elts: List[ast.expr]
    if isinstance(arg, (ast.Set, ast.Tuple, ast.List)):
        elts = list(arg.elts)
    else:
        return None
    out = []
    for elt in elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return frozenset(out)


def _call_class_name(node: ast.expr) -> Optional[str]:
    """Dotted callee name if ``node`` is ``Name(...)``/``a.b.Name(...)``."""
    if not isinstance(node, ast.Call):
        return None
    parts: List[str] = []
    func: ast.expr = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(func.id)
    return ".".join(reversed(parts))


class Project:
    """Index over every analyzed module, with call resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self._local_types: Dict[int, Dict[str, str]] = {}

    # -- construction --------------------------------------------------

    def add_module(self, path: str, tree: ast.Module) -> ModuleInfo:
        mod = ModuleInfo(path, tree)
        self._index_imports(mod)
        self._index_toplevel(mod)
        self.modules[mod.name] = mod
        self.by_path[path] = mod
        return mod

    def _index_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                source = mod.resolve_relative(node.level, node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{source}.{alias.name}" \
                        if source else alias.name

    def _index_toplevel(self, mod: ModuleInfo) -> None:
        for node in mod.tree.body:
            if isinstance(node, _FUNC_TYPES):
                mod.functions[node.name] = FunctionInfo(
                    mod, node.name, node, None)
            elif isinstance(node, ast.ClassDef):
                mod.classes[node.name] = self._index_class(mod, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                fs = _const_frozenset(node.value)
                if fs is not None:
                    mod.frozensets[node.targets[0].id] = fs

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        cls = ClassInfo(mod, node.name, node)
        for base in node.bases:
            parts: List[str] = []
            cur: ast.expr = base
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name):
                parts.append(cur.id)
                cls.bases.append(".".join(reversed(parts)))
        for item in node.body:
            if isinstance(item, _FUNC_TYPES):
                cls.methods[item.name] = FunctionInfo(
                    mod, f"{node.name}.{item.name}", item, cls)
            elif isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name) \
                    and isinstance(item.value, ast.Constant) \
                    and isinstance(item.value.value, str):
                cls.str_attrs[item.targets[0].id] = item.value.value
        return cls

    def attr_types(self, cls: ClassInfo) -> Dict[str, str]:
        """``self.X`` attr name -> class dotted name, inferred lazily.

        Deferred until first use so the whole project is indexed before
        any cross-module class names are resolved (eager inference at
        ``add_module`` time would miss classes added later).
        """
        if cls._attrs_inferred:
            return cls.attr_types
        cls._attrs_inferred = True
        for method in cls.methods.values():
            # Direct locals only (``v = ClassName(...)``) — resolving
            # aliases here would recurse back into this inference.
            direct: Dict[str, str] = {}
            for sub in ast.walk(method.node):
                if not (isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1):
                    continue
                target = sub.targets[0]
                name = _call_class_name(sub.value)
                if name is not None and self.resolve_class(
                        cls.module, name) is not None:
                    if isinstance(target, ast.Name):
                        direct[target.id] = name
                    elif isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        cls.attr_types.setdefault(target.attr, name)
            for sub in ast.walk(method.node):
                if not (isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1):
                    continue
                target = sub.targets[0]
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self" \
                        and isinstance(sub.value, ast.Name) \
                        and sub.value.id in direct:
                    cls.attr_types.setdefault(target.attr,
                                              direct[sub.value.id])
        return cls.attr_types

    # -- name resolution -----------------------------------------------

    def _resolve_qualified(self, full: str,
                           depth: int = 0) -> "Optional[object]":
        """Resolve ``pkg.mod.Thing`` to a ClassInfo or FunctionInfo.

        Follows re-export chains (``from .shadow import ShadowAuditor``
        in a package ``__init__``) a few levels deep.
        """
        if depth > 5:
            return None
        owner, _, name = full.rpartition(".")
        owner_mod = self.modules.get(owner)
        if owner_mod is None:
            return None
        if name in owner_mod.classes:
            return owner_mod.classes[name]
        if name in owner_mod.functions:
            return owner_mod.functions[name]
        reexport = owner_mod.imports.get(name)
        if reexport is not None and reexport != full:
            return self._resolve_qualified(reexport, depth + 1)
        return None

    def resolve_class(self, mod: ModuleInfo,
                      dotted: str) -> Optional[ClassInfo]:
        """Resolve a dotted class reference as seen from ``mod``."""
        head, _, rest = dotted.partition(".")
        if not rest and head in mod.classes:
            return mod.classes[head]
        target = mod.imports.get(head)
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        resolved = self._resolve_qualified(full)
        return resolved if isinstance(resolved, ClassInfo) else None

    def mro(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """Depth-first method resolution order (cycle-safe)."""
        seen = set()
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            yield cur
            for base in cur.bases:
                resolved = self.resolve_class(cur.module, base)
                if resolved is not None:
                    stack.append(resolved)

    def lookup_method(self, cls: ClassInfo,
                      name: str) -> Optional[FunctionInfo]:
        for owner in self.mro(cls):
            if name in owner.methods:
                return owner.methods[name]
        return None

    def class_str_attr(self, cls: ClassInfo, name: str) -> Optional[str]:
        for owner in self.mro(cls):
            if name in owner.str_attrs:
                return owner.str_attrs[name]
        return None

    def frozenset_named(self, mod: ModuleInfo,
                        dotted: str) -> Optional[FrozenSet[str]]:
        """A module-level string frozenset visible from ``mod``."""
        if dotted in mod.frozensets:
            return mod.frozensets[dotted]
        target = mod.imports.get(dotted)
        if target is not None:
            owner, _, name = target.rpartition(".")
            owner_mod = self.modules.get(owner)
            if owner_mod is not None:
                return owner_mod.frozensets.get(name)
        return None

    # -- call resolution -----------------------------------------------

    def local_class_names(self, func: FunctionInfo) -> Dict[str, str]:
        """Local var -> dotted class name (``v = ClassName(...)``)."""
        cached = self._local_types.get(id(func.node))
        if cached is not None:
            return cached
        types: Dict[str, str] = {}
        aliases: List[Tuple[str, str]] = []
        for node in ast.walk(func.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            name = _call_class_name(node.value)
            if name is not None and self.resolve_class(
                    func.module, name) is not None:
                types[target] = name
                continue
            # ``v = self.X`` / ``v = other_local`` aliases.
            if isinstance(node.value, ast.Attribute) \
                    and isinstance(node.value.value, ast.Name) \
                    and node.value.value.id == "self" \
                    and func.cls is not None:
                attr_type = self.attr_types(func.cls).get(node.value.attr)
                if attr_type is not None:
                    types[target] = attr_type
            elif isinstance(node.value, ast.Name):
                aliases.append((target, node.value.id))
        for target, source in aliases:
            if source in types:
                types.setdefault(target, types[source])
        self._local_types[id(func.node)] = types
        return types

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> Optional[FunctionInfo]:
        """Best-effort static resolution of one call site."""
        func = call.func
        mod = caller.module

        if isinstance(func, ast.Name):
            name = func.id
            if name in mod.functions:
                return mod.functions[name]
            cls = self.resolve_class(mod, name)
            if cls is not None:
                return self.lookup_method(cls, "__init__")
            target = mod.imports.get(name)
            if target is not None:
                owner, _, fn = target.rpartition(".")
                owner_mod = self.modules.get(owner)
                if owner_mod is not None:
                    if fn in owner_mod.functions:
                        return owner_mod.functions[fn]
                    if fn in owner_mod.classes:
                        return self.lookup_method(
                            owner_mod.classes[fn], "__init__")
            return None

        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        base = func.value

        if isinstance(base, ast.Name):
            if base.id == "self" and caller.cls is not None:
                return self.lookup_method(caller.cls, method)
            # Module alias: ``helpers.f(...)``.
            target = mod.imports.get(base.id)
            if target is not None:
                owner_mod = self.modules.get(target)
                if owner_mod is not None:
                    if method in owner_mod.functions:
                        return owner_mod.functions[method]
                    if method in owner_mod.classes:
                        return self.lookup_method(
                            owner_mod.classes[method], "__init__")
            # Typed local: ``v = ClassName(...); v.m(...)``.
            local = self.local_class_names(caller).get(base.id)
            if local is not None:
                cls = self.resolve_class(mod, local)
                if cls is not None:
                    return self.lookup_method(cls, method)
            return None

        # ``self.X.m(...)`` with a known attr type.
        if isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name) \
                and base.value.id == "self" and caller.cls is not None:
            attr_type = None
            for owner in self.mro(caller.cls):
                owner_attrs = self.attr_types(owner)
                if base.attr in owner_attrs:
                    attr_type = (owner.module, owner_attrs[base.attr])
                    break
            if attr_type is not None:
                cls = self.resolve_class(attr_type[0], attr_type[1])
                if cls is not None:
                    return self.lookup_method(cls, method)
        return None

    # -- iteration -----------------------------------------------------

    def functions(self) -> Iterator[FunctionInfo]:
        for mod in self.modules.values():
            yield from mod.functions.values()
            for cls in mod.classes.values():
                yield from cls.methods.values()

    def functions_in(self, mod: ModuleInfo) -> Iterator[FunctionInfo]:
        yield from mod.functions.values()
        for cls in mod.classes.values():
            yield from cls.methods.values()
