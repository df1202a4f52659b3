"""Import/call graph and reachability over module summaries.

:func:`build_index` folds a set of :class:`~.summaries.ModuleSummary`
objects into a :class:`DataflowIndex`: functions by qualified name, an
import graph, a conservative call graph, pool-worker entrypoints, and
the RNG-factory set the DET003 rule consumes.

Resolution is deliberately conservative.  A dotted target resolves when
it names a summarized function directly, names a class (mapped to its
``__init__``), or can be reached by walking the longest known-module
prefix and following that module's defs and import aliases — which is
what lets ``repro.workloads.get_profile`` resolve through a package
``__init__`` re-export to the defining module.  Method calls on
arbitrary objects, ``getattr`` dispatch, and lambdas stay unresolved;
the rules treat unresolved calls as opaque (no propagation), trading
recall for a near-zero false-positive rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .summaries import (
    ArgInfo,
    CallSite,
    FunctionSummary,
    ModuleSummary,
    RNG_CONSTRUCTORS,
)

#: How many alias/def hops ``resolve`` follows before giving up.
_MAX_RESOLVE_DEPTH = 8

#: Call targets whose callable argument becomes a pool-worker entrypoint.
#: ``ChunkTask(fn=...)`` (or second positional) is the resilience layer's
#: chunk descriptor; ``.submit(fn, ...)`` is the raw executor API;
#: ``Process(target=...)`` / ``Thread(target=...)`` (or second positional)
#: spawn workers whose targets run outside the driver's control flow just
#: like pool workers do.
_TASK_WRAPPERS = {"ChunkTask"}
_SUBMIT_METHODS = {"submit"}
_PROCESS_WRAPPERS = {"Process", "Thread"}

#: Decorators that memoize the decorated function.
MEMO_DECORATORS = {
    "functools.lru_cache",
    "functools.cache",
    "lru_cache",
    "cache",
}

#: Method/callable names that register a build function for memoization
#: (``Trace.derived(key, build)`` caches ``build``'s result per key).
_MEMO_REGISTRARS = {"derived"}

#: Class-name suffixes whose ``update`` method must stay pure: sweep
#: reducers fold batches into accumulated state and are replayed on
#: resume, so an impure ``update`` double-applies mutations.
_REDUCER_SUFFIXES = ("Reducer",)


@dataclass(frozen=True)
class RngFactory:
    """A function that builds and returns an RNG seeded from a param."""

    qualname: str
    seed_param: str
    #: Whether an omitted/None seed flows into the constructor unseeded
    #: (the param's default is None and it feeds the seed slot).
    none_default: bool


@dataclass
class DataflowIndex:
    """The interprocedural view the project-scoped rules query."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: module -> imported modules (edges of the import graph).
    imports: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: caller qualname -> resolved callee qualnames.
    calls: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Functions handed to pool executors (ChunkTask fn / .submit).
    entrypoints: Tuple[str, ...] = ()
    #: RNG factories discovered by the seed-flow fixpoint.
    rng_factories: Dict[str, RngFactory] = field(default_factory=dict)
    #: Functions registered as memoized builders (``.derived`` args).
    memo_registered: Tuple[str, ...] = ()

    # -- lookups -----------------------------------------------------------

    def function(self, qualname: str) -> Optional[FunctionSummary]:
        return self.functions.get(qualname)

    def module_of(self, qualname: str) -> Optional[ModuleSummary]:
        """The summary of the module defining ``qualname``."""
        name = qualname
        while name:
            if name in self.modules:
                return self.modules[name]
            if "." not in name:
                return None
            name = name.rsplit(".", 1)[0]
        return None

    def resolve(self, dotted: str) -> Optional[str]:
        """Resolve a dotted name to a summarized function's qualname."""
        seen: Set[str] = set()
        name = dotted
        for _ in range(_MAX_RESOLVE_DEPTH):
            if name in seen:
                return None
            seen.add(name)
            if name in self.functions:
                return name
            # A class resolves to its constructor when summarized.
            init = f"{name}.__init__"
            if init in self.functions:
                return init
            redirected = self._follow_defs(name)
            if redirected is None or redirected == name:
                return None
            name = redirected
        return None

    def _follow_defs(self, dotted: str) -> Optional[str]:
        """One hop through the longest known-module prefix's defs/aliases."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            mod = self.modules.get(prefix)
            if mod is None:
                continue
            head = parts[cut]
            rest = ".".join(parts[cut + 1:])
            if head in mod.defs:
                base = mod.defs[head]
            elif head in mod.aliases:
                base = mod.aliases[head]
            else:
                return None
            return f"{base}.{rest}" if rest else base
        return None

    # -- reachability ------------------------------------------------------

    def reachable_from(
        self, entrypoints: Optional[Tuple[str, ...]] = None
    ) -> Dict[str, str]:
        """BFS over the call graph from ``entrypoints``.

        Returns ``{reachable qualname: originating entrypoint}`` — the
        representative entrypoint is the first (in sorted entrypoint
        order) whose BFS wave reached the function, which gives rule
        messages a stable, meaningful anchor.
        """
        if entrypoints is None:
            entrypoints = self.entrypoints
        origin: Dict[str, str] = {}
        queue: deque = deque()
        for entry in sorted(entrypoints):
            if entry in self.functions and entry not in origin:
                origin[entry] = entry
                queue.append(entry)
        while queue:
            current = queue.popleft()
            for callee in self.calls.get(current, ()):
                if callee not in origin:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready graph dump for ``repro analyze --graph``."""
        return {
            "modules": sorted(self.modules),
            "imports": {
                module: list(targets)
                for module, targets in sorted(self.imports.items())
                if targets
            },
            "calls": {
                caller: list(callees)
                for caller, callees in sorted(self.calls.items())
                if callees
            },
            "entrypoints": list(self.entrypoints),
            "rng_factories": {
                name: {
                    "seed_param": factory.seed_param,
                    "none_default": factory.none_default,
                }
                for name, factory in sorted(self.rng_factories.items())
            },
            "memo_registered": list(self.memo_registered),
        }


def _callable_args(site: CallSite) -> List[ArgInfo]:
    """Arguments of ``site`` that carry a function reference."""
    infos = [info for info in site.args if info.ref]
    infos += [info for _, info in site.kwargs if info.ref]
    return infos


def _entrypoint_refs(site: CallSite) -> List[str]:
    """Function refs handed to a pool wrapper at this call site."""
    last = site.target.rsplit(".", 1)[-1]
    refs: List[str] = []
    if last in _TASK_WRAPPERS:
        fn_info = site.kwarg("fn")
        if fn_info is None and len(site.args) >= 2:
            fn_info = site.args[1]
        if fn_info is not None and fn_info.ref:
            refs.append(fn_info.ref)
    elif last in _SUBMIT_METHODS:
        for info in site.args:
            if info.ref:
                refs.append(info.ref)
                break
    elif last in _PROCESS_WRAPPERS:
        # Process(target=fn) / Thread(target=fn); the second positional
        # slot is ``target`` in the stdlib signature (group, target, ...).
        fn_info = site.kwarg("target")
        if fn_info is None and len(site.args) >= 2:
            fn_info = site.args[1]
        if fn_info is not None and fn_info.ref:
            refs.append(fn_info.ref)
    return refs


def _find_rng_factories(
    index: DataflowIndex,
) -> Dict[str, RngFactory]:
    """Fixpoint over seed flow: direct constructors, then forwarders.

    Round 0 finds functions that build an RNG whose seed comes straight
    from a parameter and return it.  Subsequent rounds add functions that
    return a call into a known factory, passing one of their own
    parameters into the factory's seed slot — so ``forward_rng(seed)``
    chains resolve however deep they go (bounded by the fixpoint).
    """
    factories: Dict[str, RngFactory] = {}
    for qualname, fn in index.functions.items():
        for event in fn.rng:
            if not event.seed.startswith("param:"):
                continue
            if "return" not in event.escapes:
                continue
            param = event.seed.split(":", 1)[1]
            factories[qualname] = RngFactory(
                qualname=qualname,
                seed_param=param,
                none_default=param in fn.none_default_params,
            )
    changed = True
    while changed:
        changed = False
        for qualname, fn in index.functions.items():
            if qualname in factories:
                continue
            for site in fn.calls:
                if not site.returned:
                    continue
                resolved = index.resolve(site.target)
                if resolved is None or resolved not in factories:
                    continue
                inner = factories[resolved]
                seed_info = _seed_slot(site, index.functions[resolved], inner)
                if seed_info is None or seed_info.param is None:
                    continue
                factories[qualname] = RngFactory(
                    qualname=qualname,
                    seed_param=seed_info.param,
                    none_default=seed_info.param in fn.none_default_params,
                )
                changed = True
                break
    return factories


def _seed_slot(
    site: CallSite, callee: FunctionSummary, factory: RngFactory
) -> Optional[ArgInfo]:
    """The argument feeding ``factory``'s seed parameter at ``site``."""
    info = site.kwarg(factory.seed_param)
    if info is not None:
        return info
    try:
        position = callee.params.index(factory.seed_param)
    except ValueError:
        return None
    if position < len(site.args):
        return site.args[position]
    return None


def seed_argument(
    index: DataflowIndex, site: CallSite, factory: RngFactory
) -> Optional[ArgInfo]:
    """Public wrapper: what flows into ``factory``'s seed at ``site``.

    Returns None when the seed slot is not filled at all (the callee's
    default applies).
    """
    callee = index.functions.get(factory.qualname)
    if callee is None:
        return None
    return _seed_slot(site, callee, factory)


def build_index(summaries: List[ModuleSummary]) -> DataflowIndex:
    """Fold module summaries into the interprocedural index."""
    index = DataflowIndex()
    for summary in summaries:
        index.modules[summary.module] = summary
        index.imports[summary.module] = tuple(
            sorted(set(summary.imports) & {s.module for s in summaries})
        )
        for fn in summary.functions:
            index.functions[fn.qualname] = fn

    entrypoints: Set[str] = set()
    memo_registered: Set[str] = set()
    for summary in summaries:
        if summary.is_test:
            continue
        for fn in summary.functions:
            for site in fn.calls:
                for ref in _entrypoint_refs(site):
                    resolved = index.resolve(ref)
                    if resolved is not None:
                        entrypoints.add(resolved)
                last = site.target.rsplit(".", 1)[-1]
                if last in _MEMO_REGISTRARS:
                    for info in _callable_args(site):
                        resolved = index.resolve(info.ref)
                        if resolved is not None:
                            memo_registered.add(resolved)
    index.entrypoints = tuple(sorted(entrypoints))
    index.memo_registered = tuple(sorted(memo_registered))

    calls: Dict[str, List[str]] = {}
    for qualname, fn in index.functions.items():
        resolved_callees: List[str] = []
        for site in fn.calls:
            resolved = index.resolve(site.target)
            if resolved is not None and resolved != qualname:
                resolved_callees.append(resolved)
            # A function reference passed as an argument may be invoked
            # by the callee; treat hand-offs to *known* functions as
            # call edges so worker helpers stay reachable.
            for info in _callable_args(site):
                ref = index.resolve(info.ref)
                if ref is not None and ref != qualname:
                    resolved_callees.append(ref)
        calls[qualname] = tuple(dict.fromkeys(resolved_callees))
    index.calls = calls

    index.rng_factories = _find_rng_factories(index)
    return index


def is_memoized(index: DataflowIndex, fn: FunctionSummary) -> bool:
    """Whether ``fn`` sits behind a memoization boundary.

    True for ``functools.lru_cache``/``cache`` decorated functions, for
    functions registered as ``.derived`` build callables, and for the
    ``update`` method of reducer classes (replayed on resume).
    """
    for decorator in fn.decorators:
        if decorator in MEMO_DECORATORS:
            return True
        if decorator.rsplit(".", 1)[-1] in {"lru_cache", "cache"}:
            return True
    if fn.qualname in index.memo_registered:
        return True
    if fn.name == "update" and fn.class_name:
        if fn.class_name.endswith(_REDUCER_SUFFIXES):
            return True
        mod = index.module_of(fn.qualname)
        if mod is not None:
            cls = mod.classes.get(fn.class_name)
            if cls is not None and any(
                base.rsplit(".", 1)[-1].endswith(_REDUCER_SUFFIXES)
                for base in cls.bases
            ):
                return True
    return False
