"""Per-module and whole-project analysis contexts.

A :class:`ModuleContext` wraps one parsed source file: its AST, source
lines, best-effort dotted module name, the ``repro`` package it belongs to
(for layering checks) and an import-alias table that lets rules resolve
``np.random.seed`` back to ``numpy.random.seed`` regardless of how numpy
was imported.  The tree is walked once, into :attr:`ModuleContext.nodes`,
which the alias table and every module rule read instead of re-walking.
A :class:`ProjectContext` is the collection of module contexts handed to
whole-program rules (the cross-layer contract checks).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Packages of ``repro`` ordered into layers; a module may only import
#: packages of strictly lower rank (``cli``/``experiments``/``__main__``
#: are top-level glue and exempt).  ``analysis``, ``metrics`` and ``obs``
#: sit at the bottom: they import nothing else from ``repro``.
PACKAGE_RANKS: Dict[str, int] = {
    "metrics": 0,
    "analysis": 0,
    "obs": 0,
    "designspace": 1,
    "workloads": 1,
    "power": 1,
    "cluster": 1,
    "simulator": 2,
    "regression": 3,
    "baselines": 4,
    "harness": 4,
    "studies": 5,
}

#: Path fragments that mark a file as test code (rules such as the
#: determinism family are relaxed there).
_TEST_MARKERS = ("tests", "test", "conftest")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_names(node: ast.AST) -> List[str]:
    """All Name identifiers appearing anywhere under ``node``."""
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


def _relative_base(module: str, is_package: bool, level: int) -> Optional[str]:
    """The absolute package a relative import of ``level`` anchors at.

    For a plain module ``a.b.c``, level 1 resolves against ``a.b`` and
    level 2 against ``a``; for a package ``__init__`` the module itself is
    the first anchor.  Returns None when the import climbs past the top.
    """
    parts = module.split(".") if module else []
    anchor = parts if is_package else parts[:-1]
    drop = level - 1
    if drop > len(anchor) or not anchor[: len(anchor) - drop]:
        return None
    return ".".join(anchor[: len(anchor) - drop])


def _collect_aliases(
    nodes: Iterable[ast.AST], module: str = "", is_package: bool = False
) -> Dict[str, str]:
    """Map local names to the dotted import target they refer to.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from numpy import
    random as r`` yields ``{"r": "numpy.random"}``.  Relative imports are
    resolved against ``module`` (the importer's dotted name) into absolute
    targets — ``from ..obs.metrics import x`` inside ``repro.harness.y``
    yields ``{"x": "repro.obs.metrics.x"}`` — which is what lets the
    dataflow call graph follow intra-repo calls.  Star imports bind no
    usable local name and are skipped.  ``nodes`` is a walked tree
    (:attr:`ModuleContext.nodes`, or ``ast.walk(tree)``).
    """
    aliases: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                base = _relative_base(module, is_package, node.level)
                if base is None:
                    continue
                if node.module:
                    base = f"{base}.{node.module}"
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}"
    return aliases


@dataclass
class ModuleContext:
    """One parsed source file plus the metadata rules need."""

    path: Path
    relpath: str
    module: str
    package: str
    source: str
    lines: List[str]
    tree: ast.Module
    is_test: bool
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Every node of ``tree`` in ``ast.walk`` order, listed once.
    nodes: List[ast.AST] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))

    @cached_property
    def scopes(self):
        """The module's :class:`~.scopes.ScopeIndex`, built on first use."""
        from .scopes import ScopeIndex

        return ScopeIndex(self.tree)

    def source_line(self, lineno: int) -> str:
        """Stripped source text of 1-based ``lineno`` (baseline fingerprint)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain through the import aliases.

        Returns the canonical dotted name (``numpy.random.seed``) or None
        when the chain's root is not an imported name — which also keeps a
        local variable that happens to be called ``random`` from tripping
        the determinism rules.
        """
        name = dotted_name(node)
        if not name:
            return None
        head, _, rest = name.partition(".")
        base = self.aliases.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base


def package_of(relpath: str) -> str:
    """The ranked ``repro`` package a path belongs to, or ``""``.

    Looks for a known package name among the path's directory components,
    so both ``src/repro/simulator/config.py`` and a test fixture laid out
    as ``fixtures/layering/simulator/bad.py`` resolve to ``simulator``.
    """
    parts = Path(relpath).parts[:-1]
    if "repro" in parts:
        after = parts[parts.index("repro") + 1:]
        return after[0] if after and after[0] in PACKAGE_RANKS else ""
    for part in parts:
        if part in PACKAGE_RANKS:
            return part
    return ""


def module_name(relpath: str) -> str:
    """Best-effort dotted module name for a repo-relative path."""
    path = Path(relpath)
    parts = list(path.parts)
    parts[-1] = path.stem
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def is_test_path(relpath: str) -> bool:
    """Whether a path is test code (fixtures and benchmarks excluded)."""
    parts = Path(relpath).parts
    stem = Path(relpath).stem
    if "fixtures" in parts:
        return False
    if stem.startswith("test_") or stem in ("conftest",):
        return True
    return any(part in _TEST_MARKERS for part in parts[:-1])


def build_module_context(
    path: Path, root: Path
) -> Tuple[Optional[ModuleContext], Optional[str]]:
    """Parse ``path`` into a context; returns ``(ctx, error_message)``."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return None, f"unreadable: {error}"
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, f"syntax error: {error.msg} (line {error.lineno})"
    module = module_name(relpath)
    ctx = ModuleContext(
        path=path,
        relpath=relpath,
        module=module,
        package=package_of(relpath),
        source=source,
        lines=source.splitlines(),
        tree=tree,
        is_test=is_test_path(relpath),
    )
    ctx.aliases = _collect_aliases(
        ctx.nodes, module=module, is_package=Path(relpath).stem == "__init__"
    )
    return ctx, None


@dataclass
class ProjectContext:
    """All module contexts of one analysis run.

    ``summaries`` optionally carries precomputed per-module dataflow
    summaries (the runner supplies them, computed or read from the cache);
    :meth:`dataflow` builds them on demand otherwise, so project rules can
    always ask for the interprocedural index.
    """

    root: Path
    modules: List[ModuleContext]
    summaries: Optional[List] = None
    _dataflow: Optional[object] = field(default=None, init=False, repr=False)

    def iter_package(self, package: str) -> Iterator[ModuleContext]:
        """Modules belonging to one ranked ``repro`` package."""
        for ctx in self.modules:
            if ctx.package == package:
                yield ctx

    def find(self, suffix: str) -> Optional[ModuleContext]:
        """First module whose relpath ends with ``suffix``."""
        for ctx in self.modules:
            if ctx.relpath.endswith(suffix):
                return ctx
        return None

    def context_for(self, module: str) -> Optional[ModuleContext]:
        """The module context with dotted name ``module``, if analyzed."""
        for ctx in self.modules:
            if ctx.module == module:
                return ctx
        return None

    def dataflow(self):
        """The memoized interprocedural :class:`~.dataflow.DataflowIndex`.

        Built from ``summaries`` when the runner provided them, otherwise
        summarized fresh from the parsed module contexts.
        """
        if self._dataflow is None:
            from .dataflow import build_index, summarize_module

            summaries = self.summaries
            if summaries is None:
                summaries = [summarize_module(ctx) for ctx in self.modules]
            self._dataflow = build_index(summaries)
        return self._dataflow
