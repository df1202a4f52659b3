"""Per-function dataflow summaries.

One :class:`ModuleSummary` condenses everything the interprocedural rules
need to know about a parsed module — without keeping its AST alive:
module-level mutable state, per-function global writes, parameter
mutations, RNG construction/escape events, and every call site with its
best-effort resolved target.  Summaries are plain data (``to_dict`` /
``from_dict`` round-trip through JSON), which is what makes the on-disk
summary cache possible: a warm cache entry holds the summary, never the
tree.

Resolution here is *name-level and conservative*: a call is resolved
when its target chain starts at a module-level def, an import alias
(including relative imports, resolved to absolute names by the context),
a function-local def, or ``self`` (mapped to the enclosing class).
Calls on arbitrary objects stay unresolved and are carried with their
raw dotted text — the graph layer and the rules treat them as opaque.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..context import ModuleContext, dotted_name

#: Bump when the summary schema changes (invalidates cache entries).
SUMMARY_SCHEMA_VERSION = 1

#: RNG constructors whose seeding the determinism rules track.  The
#: module-local DET001/DET002 checks import this same set.
RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "appendleft", "extend", "extendleft", "insert",
    "add", "update", "setdefault", "remove", "discard", "clear",
    "pop", "popitem", "write",
}

#: Call targets (last component) that build mutable containers.
_CONTAINER_CALLS = {
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter",
}

#: Keyword names that carry a seed into an RNG constructor or factory.
_SEED_KWARGS = ("seed",)


def _is_mutable_literal(node: ast.expr) -> bool:
    """Whether an expression builds a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name and name.split(".")[-1] in _CONTAINER_CALLS:
            return True
    return False


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _chain_root(node: ast.expr) -> Tuple[Optional[str], str]:
    """Root Name and attribute path of an Attribute/Subscript chain.

    ``block.bips[0]`` yields ``("block", "block.bips")``; subscripts are
    transparent (they index, the named container is what mutates).
    Returns ``(None, "")`` when the chain does not bottom out at a Name.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return node.id, ".".join(reversed(parts))
        else:
            return None, ""


@dataclass(frozen=True)
class ArgInfo:
    """What one call argument looks like, as far as names can tell."""

    is_none: bool = False
    #: The enclosing function's parameter passed bare, if any.
    param: Optional[str] = None
    #: Resolved dotted name when the argument is a function/class reference.
    ref: Optional[str] = None

    def to_dict(self) -> dict:
        return {"is_none": self.is_none, "param": self.param, "ref": self.ref}

    @classmethod
    def from_dict(cls, payload: dict) -> "ArgInfo":
        return cls(
            is_none=bool(payload.get("is_none", False)),
            param=payload.get("param"),
            ref=payload.get("ref"),
        )


@dataclass(frozen=True)
class CallSite:
    """One call made by a function, with argument shape."""

    target: str
    resolved: bool
    lineno: int
    args: Tuple[ArgInfo, ...] = ()
    kwargs: Tuple[Tuple[str, ArgInfo], ...] = ()
    #: True when the call's result is directly returned.
    returned: bool = False

    def kwarg(self, name: str) -> Optional[ArgInfo]:
        """The info for keyword argument ``name``, if passed."""
        for key, info in self.kwargs:
            if key == name:
                return info
        return None

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "resolved": self.resolved,
            "lineno": self.lineno,
            "args": [a.to_dict() for a in self.args],
            "kwargs": [[k, a.to_dict()] for k, a in self.kwargs],
            "returned": self.returned,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CallSite":
        return cls(
            target=str(payload["target"]),
            resolved=bool(payload["resolved"]),
            lineno=int(payload["lineno"]),
            args=tuple(ArgInfo.from_dict(a) for a in payload.get("args", [])),
            kwargs=tuple(
                (str(k), ArgInfo.from_dict(a))
                for k, a in payload.get("kwargs", [])
            ),
            returned=bool(payload.get("returned", False)),
        )


@dataclass(frozen=True)
class GlobalWrite:
    """One write to module-level (or class-level) state inside a function.

    ``kind`` is ``"rebind"`` (assignment under a ``global`` declaration),
    ``"augment"`` (augmented assignment under ``global``), or ``"mutate"``
    (in-place container mutation of a module- or class-level name).
    """

    name: str
    lineno: int
    kind: str

    def to_dict(self) -> dict:
        return {"name": self.name, "lineno": self.lineno, "kind": self.kind}

    @classmethod
    def from_dict(cls, payload: dict) -> "GlobalWrite":
        return cls(
            name=str(payload["name"]),
            lineno=int(payload["lineno"]),
            kind=str(payload["kind"]),
        )


@dataclass(frozen=True)
class ParamMutation:
    """One in-place mutation of a parameter inside a function."""

    name: str
    lineno: int
    how: str  # "attr" | "item" | "method:<name>"

    def to_dict(self) -> dict:
        return {"name": self.name, "lineno": self.lineno, "how": self.how}

    @classmethod
    def from_dict(cls, payload: dict) -> "ParamMutation":
        return cls(
            name=str(payload["name"]),
            lineno=int(payload["lineno"]),
            how=str(payload["how"]),
        )


@dataclass(frozen=True)
class RngEvent:
    """One RNG construction inside a function.

    ``seed`` classifies where the seed comes from: ``"none"`` (omitted or
    an explicit None), ``"param:<name>"`` (taken directly from a
    parameter), ``"literal"`` (a constant), or ``"expr"`` (anything
    else).  ``escapes`` lists how the constructed generator leaves the
    function: ``"return"``, ``"arg"`` (passed into a call), or
    ``"global:<name>"``.
    """

    lineno: int
    constructor: str
    seed: str
    escapes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "lineno": self.lineno,
            "constructor": self.constructor,
            "seed": self.seed,
            "escapes": list(self.escapes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RngEvent":
        return cls(
            lineno=int(payload["lineno"]),
            constructor=str(payload["constructor"]),
            seed=str(payload["seed"]),
            escapes=tuple(payload.get("escapes", [])),
        )


@dataclass
class FunctionSummary:
    """What one function does, as the dataflow rules see it."""

    qualname: str
    name: str
    lineno: int
    params: Tuple[str, ...] = ()
    none_default_params: Tuple[str, ...] = ()
    class_name: str = ""
    decorators: Tuple[str, ...] = ()
    global_writes: Tuple[GlobalWrite, ...] = ()
    param_mutations: Tuple[ParamMutation, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    rng: Tuple[RngEvent, ...] = ()

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "lineno": self.lineno,
            "params": list(self.params),
            "none_default_params": list(self.none_default_params),
            "class_name": self.class_name,
            "decorators": list(self.decorators),
            "global_writes": [w.to_dict() for w in self.global_writes],
            "param_mutations": [m.to_dict() for m in self.param_mutations],
            "calls": [c.to_dict() for c in self.calls],
            "rng": [r.to_dict() for r in self.rng],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FunctionSummary":
        return cls(
            qualname=str(payload["qualname"]),
            name=str(payload["name"]),
            lineno=int(payload["lineno"]),
            params=tuple(payload.get("params", [])),
            none_default_params=tuple(payload.get("none_default_params", [])),
            class_name=str(payload.get("class_name", "")),
            decorators=tuple(payload.get("decorators", [])),
            global_writes=tuple(
                GlobalWrite.from_dict(w)
                for w in payload.get("global_writes", [])
            ),
            param_mutations=tuple(
                ParamMutation.from_dict(m)
                for m in payload.get("param_mutations", [])
            ),
            calls=tuple(
                CallSite.from_dict(c) for c in payload.get("calls", [])
            ),
            rng=tuple(RngEvent.from_dict(r) for r in payload.get("rng", [])),
        )


@dataclass
class ClassSummary:
    """Bases and class-level mutable attributes of one class."""

    qualname: str
    bases: Tuple[str, ...] = ()
    mutable_attrs: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "bases": list(self.bases),
            "mutable_attrs": list(self.mutable_attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ClassSummary":
        return cls(
            qualname=str(payload["qualname"]),
            bases=tuple(payload.get("bases", [])),
            mutable_attrs=tuple(payload.get("mutable_attrs", [])),
        )


@dataclass
class ModuleSummary:
    """One module's condensed dataflow facts."""

    relpath: str
    module: str
    package: str
    is_test: bool
    imports: Tuple[str, ...] = ()
    #: Module-level name -> qualified name (functions and classes).
    defs: Dict[str, str] = field(default_factory=dict)
    #: Local import name -> absolute dotted target (from the context).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to mutable containers.
    mutable_globals: Tuple[str, ...] = ()
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    functions: Tuple[FunctionSummary, ...] = ()

    def to_dict(self) -> dict:
        return {
            "version": SUMMARY_SCHEMA_VERSION,
            "relpath": self.relpath,
            "module": self.module,
            "package": self.package,
            "is_test": self.is_test,
            "imports": list(self.imports),
            "defs": dict(self.defs),
            "aliases": dict(self.aliases),
            "mutable_globals": list(self.mutable_globals),
            "classes": {
                name: summary.to_dict()
                for name, summary in self.classes.items()
            },
            "functions": [f.to_dict() for f in self.functions],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModuleSummary":
        return cls(
            relpath=str(payload["relpath"]),
            module=str(payload["module"]),
            package=str(payload.get("package", "")),
            is_test=bool(payload.get("is_test", False)),
            imports=tuple(payload.get("imports", [])),
            defs=dict(payload.get("defs", {})),
            aliases=dict(payload.get("aliases", {})),
            mutable_globals=tuple(payload.get("mutable_globals", [])),
            classes={
                name: ClassSummary.from_dict(raw)
                for name, raw in payload.get("classes", {}).items()
            },
            functions=tuple(
                FunctionSummary.from_dict(f)
                for f in payload.get("functions", [])
            ),
        )


# -- construction --------------------------------------------------------------

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class _FunctionWalker:
    """Summarize one function body without descending into nested defs."""

    def __init__(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        qualname: str,
        class_name: str,
        module_summary: "ModuleSummary",
        local_defs: Dict[str, str],
    ):
        self.ctx = ctx
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self.mod = module_summary
        self.local_defs = local_defs
        #: The body in document order, nested defs skipped; every pass
        #: below reads this one list.
        self.shallow = list(_walk_shallow(node))
        self.params = _param_names(node.args)
        self.none_defaults = _none_default_params(node.args)
        self.globals_declared: set = set()
        self.locals: set = set(self.params)
        self.global_writes: List[GlobalWrite] = []
        self.param_mutations: List[ParamMutation] = []
        self.calls: List[CallSite] = []
        self.rng_events: Dict[int, RngEvent] = {}  # id(call-node) -> event
        #: Local names bound to RNG constructor results.
        self.rng_names: Dict[str, int] = {}  # name -> id(call-node)

    # -- name resolution ---------------------------------------------------

    def resolve_ref(self, expr: ast.expr) -> Tuple[str, bool]:
        """Best-effort dotted resolution of a Name/Attribute chain."""
        dotted = dotted_name(expr)
        if not dotted:
            return "", False
        head, _, rest = dotted.partition(".")
        if head == "self" and self.class_name:
            if rest and "." not in rest:
                return f"{self.mod.module}.{self.class_name}.{rest}", True
            return dotted, False
        if head in self.local_defs:
            base = self.local_defs[head]
        elif head in self.mod.defs and head not in self.locals:
            base = self.mod.defs[head]
        elif head in self.mod.aliases and head not in self.locals:
            base = self.mod.aliases[head]
        else:
            return dotted, False
        return (f"{base}.{rest}" if rest else base), True

    def _is_module_level(self, name: str) -> bool:
        """Whether ``name`` refers to module state (not shadowed locally)."""
        if name in self.locals or name in self.globals_declared:
            return False
        return (
            name in self.mod.mutable_globals
            or name in self.mod.defs
        )

    # -- collection passes -------------------------------------------------

    def collect_locals(self) -> None:
        """Pre-pass: parameter/assignment names and ``global`` decls."""
        for child in self.shallow:
            if isinstance(child, ast.Global):
                self.globals_declared.update(child.names)
            elif isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        if target.id not in self.globals_declared:
                            self.locals.add(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for element in ast.walk(target):
                            if isinstance(element, ast.Name):
                                self.locals.add(element.id)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                for element in ast.walk(child.target):
                    if isinstance(element, ast.Name):
                        self.locals.add(element.id)
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if item.optional_vars is not None:
                        for element in ast.walk(item.optional_vars):
                            if isinstance(element, ast.Name):
                                self.locals.add(element.id)
            elif isinstance(child, ast.comprehension):
                for element in ast.walk(child.target):
                    if isinstance(element, ast.Name):
                        self.locals.add(element.id)
        # ``global X`` names are never locals, whatever the above saw.
        self.locals -= self.globals_declared

    def walk(self) -> None:
        """Main pass: writes, mutations, calls, RNG events.

        Calls are handled first so that RNG events exist before the
        second pass tracks how their results flow (an ``Assign`` or
        ``Return`` node is the *parent* of the call expression, so a
        single document-order pass would see it too early).
        """
        for child in self.shallow:
            if isinstance(child, ast.Call):
                self._handle_call(child)
        for child in self.shallow:
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    self._handle_write(target, child.value, child.lineno,
                                       kind="rebind")
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                self._handle_write(child.target, child.value, child.lineno,
                                   kind="rebind")
            elif isinstance(child, ast.AugAssign):
                self._handle_write(child.target, child.value, child.lineno,
                                   kind="augment")
            elif isinstance(child, ast.Return) and child.value is not None:
                self._handle_return(child.value)
        for child in self.shallow:
            # A local bound to an RNG generator and passed into a call
            # escapes as an argument (needs rng_names from pass two).
            if isinstance(child, ast.Call):
                for arg in child.args:
                    if isinstance(arg, ast.Name) and arg.id in self.rng_names:
                        self._add_escape(self.rng_names[arg.id], "arg")

    def _handle_write(
        self, target: ast.expr, value: ast.expr, lineno: int, kind: str
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.global_writes.append(
                    GlobalWrite(name=target.id, lineno=lineno, kind=kind)
                )
            elif isinstance(value, ast.Call) and kind == "rebind":
                # Track RNG generators bound to locals for escape analysis.
                event_id = id(value)
                if event_id in self.rng_events:
                    self.rng_names[target.id] = event_id
            return
        # Attribute / subscript writes mutate their root object.
        root, path = _chain_root(target)
        if root is None:
            return
        how = "item" if isinstance(target, ast.Subscript) else "attr"
        if root in self.params:
            self.param_mutations.append(
                ParamMutation(name=root, lineno=lineno, how=how)
            )
        elif self._is_module_level(root):
            self.global_writes.append(
                GlobalWrite(name=path, lineno=lineno, kind="mutate")
            )
        elif root in self.globals_declared:
            self.global_writes.append(
                GlobalWrite(name=path, lineno=lineno, kind="mutate")
            )

    def _handle_call(self, node: ast.Call) -> None:
        target, resolved = self.resolve_ref(node.func)
        if not target:
            target = "<dynamic>"
        # In-place mutation through a method call on a param or global.
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in _MUTATING_METHODS:
                root, path = _chain_root(node.func.value)
                if root is not None:
                    if root in self.params:
                        self.param_mutations.append(
                            ParamMutation(
                                name=root,
                                lineno=node.lineno,
                                how=f"method:{method}",
                            )
                        )
                    elif self._is_module_level(root) or (
                        root in self.globals_declared
                    ):
                        self.global_writes.append(
                            GlobalWrite(
                                name=path, lineno=node.lineno, kind="mutate"
                            )
                        )
                    else:
                        self._class_attr_mutation(node, root, path)
        args = tuple(self._arg_info(arg) for arg in node.args)
        kwargs = tuple(
            (kw.arg, self._arg_info(kw.value))
            for kw in node.keywords
            if kw.arg is not None
        )
        self.calls.append(
            CallSite(
                target=target,
                resolved=resolved,
                lineno=node.lineno,
                args=args,
                kwargs=kwargs,
            )
        )
        if resolved and target in RNG_CONSTRUCTORS:
            self.rng_events[id(node)] = RngEvent(
                lineno=node.lineno,
                constructor=target,
                seed=self._classify_seed(node),
            )

    def _class_attr_mutation(self, node: ast.Call, root: str, path: str):
        """``Cls.registry.append(...)`` on a module-level class attr."""
        cls = self.mod.classes.get(root)
        if cls is None or root in self.locals:
            return
        parts = path.split(".")
        if len(parts) >= 2 and parts[1] in cls.mutable_attrs:
            self.global_writes.append(
                GlobalWrite(name=path, lineno=node.lineno, kind="mutate")
            )

    def _classify_seed(self, node: ast.Call) -> str:
        seed_expr: Optional[ast.expr] = None
        if node.args:
            seed_expr = node.args[0]
        else:
            for kw in node.keywords:
                if kw.arg in _SEED_KWARGS:
                    seed_expr = kw.value
                    break
        if seed_expr is None or _is_none(seed_expr):
            return "none"
        if isinstance(seed_expr, ast.Name) and seed_expr.id in self.params:
            return f"param:{seed_expr.id}"
        if isinstance(seed_expr, ast.Constant):
            return "literal"
        return "expr"

    def _handle_return(self, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            # Mark the most recent matching call site as returned.
            for index in range(len(self.calls) - 1, -1, -1):
                if self.calls[index].lineno == value.lineno:
                    site = self.calls[index]
                    self.calls[index] = CallSite(
                        target=site.target,
                        resolved=site.resolved,
                        lineno=site.lineno,
                        args=site.args,
                        kwargs=site.kwargs,
                        returned=True,
                    )
                    break
            if id(value) in self.rng_events:
                self._add_escape(id(value), "return")
        elif isinstance(value, ast.Name) and value.id in self.rng_names:
            self._add_escape(self.rng_names[value.id], "return")

    def _add_escape(self, event_id: int, escape: str) -> None:
        event = self.rng_events.get(event_id)
        if event is not None and escape not in event.escapes:
            self.rng_events[event_id] = RngEvent(
                lineno=event.lineno,
                constructor=event.constructor,
                seed=event.seed,
                escapes=event.escapes + (escape,),
            )

    def _arg_info(self, expr: ast.expr) -> ArgInfo:
        if _is_none(expr):
            return ArgInfo(is_none=True)
        if isinstance(expr, ast.Name) and expr.id in self.params:
            return ArgInfo(param=expr.id)
        if isinstance(expr, (ast.Name, ast.Attribute)):
            ref, resolved = self.resolve_ref(expr)
            if resolved:
                return ArgInfo(ref=ref)
        return ArgInfo()

    def summary(self) -> FunctionSummary:
        decorators = []
        for decorator in getattr(self.node, "decorator_list", []):
            expr = decorator.func if isinstance(decorator, ast.Call) else decorator
            name, resolved = self.resolve_ref(expr)
            if name:
                decorators.append(name)
        # RNG names assigned to a ``global``-declared name escape globally.
        for child in self.shallow:
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in self.globals_declared
                        and isinstance(child.value, ast.Name)
                        and child.value.id in self.rng_names
                    ):
                        self._add_escape(
                            self.rng_names[child.value.id],
                            f"global:{target.id}",
                        )
        return FunctionSummary(
            qualname=self.qualname,
            name=getattr(self.node, "name", "<lambda>"),
            lineno=self.node.lineno,
            params=tuple(self.params),
            none_default_params=tuple(self.none_defaults),
            class_name=self.class_name,
            decorators=tuple(decorators),
            global_writes=tuple(self.global_writes),
            param_mutations=tuple(self.param_mutations),
            calls=tuple(self.calls),
            rng=tuple(
                self.rng_events[key] for key in sorted(
                    self.rng_events, key=lambda k: self.rng_events[k].lineno
                )
            ),
        )


def _walk_shallow(node: ast.AST):
    """Walk a function body in document order, skipping nested defs.

    Document order matters: escape tracking relies on an ``Assign``
    binding an RNG local being seen before the ``Return`` that reads it.
    """
    stack = list(reversed(list(ast.iter_child_nodes(node))))
    while stack:
        child = stack.pop()
        if isinstance(child, _FUNC_NODES + (ast.ClassDef, ast.Lambda)):
            continue
        yield child
        stack.extend(reversed(list(ast.iter_child_nodes(child))))


def _param_names(args: ast.arguments) -> List[str]:
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names += [a.arg for a in args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _none_default_params(args: ast.arguments) -> List[str]:
    """Parameters whose default value is the literal None."""
    result: List[str] = []
    positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
    defaults = list(args.defaults)
    for arg, default in zip(positional[len(positional) - len(defaults):],
                            defaults):
        if _is_none(default):
            result.append(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and _is_none(default):
            result.append(arg.arg)
    return result


def _summarize_functions(
    ctx: ModuleContext,
    node: ast.AST,
    prefix: str,
    class_name: str,
    module_summary: ModuleSummary,
) -> List[FunctionSummary]:
    """Summaries for a def and (recursively) its named nested defs."""
    qualname = f"{prefix}.{node.name}"
    nested = _direct_nested_defs(node)
    local_defs = {child.name: f"{qualname}.{child.name}" for child in nested}
    walker = _FunctionWalker(
        ctx, node, qualname, class_name, module_summary, local_defs
    )
    walker.collect_locals()
    walker.walk()
    summaries = [walker.summary()]
    for child in nested:
        summaries.extend(
            _summarize_functions(ctx, child, qualname, class_name,
                                 module_summary)
        )
    return summaries


def _direct_nested_defs(parent: ast.AST) -> List[ast.AST]:
    """Defs nested in ``parent`` with no def or class in between.

    A breadth-first walk that stops at defs and classes, so the defs come
    out in ``ast.walk`` order.
    """
    nested: List[ast.AST] = []
    queue = deque(ast.iter_child_nodes(parent))
    while queue:
        child = queue.popleft()
        if isinstance(child, _FUNC_NODES):
            nested.append(child)
        elif not isinstance(child, ast.ClassDef):
            queue.extend(ast.iter_child_nodes(child))
    return nested


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Build the dataflow summary of one parsed module."""
    summary = ModuleSummary(
        relpath=ctx.relpath,
        module=ctx.module,
        package=ctx.package,
        is_test=ctx.is_test,
        aliases=dict(ctx.aliases),
    )
    imports: set = set()
    for target in ctx.aliases.values():
        imports.add(target.rsplit(".", 1)[0] if "." in target else target)
    mutable_globals: List[str] = []
    for node in ctx.tree.body:
        if isinstance(node, _FUNC_NODES) or isinstance(node, ast.ClassDef):
            summary.defs[node.name] = f"{ctx.module}.{node.name}"
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _is_mutable_literal(
                    node.value
                ):
                    mutable_globals.append(target.id)
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.value is not None
                and _is_mutable_literal(node.value)
            ):
                mutable_globals.append(node.target.id)
    summary.mutable_globals = tuple(dict.fromkeys(mutable_globals))
    summary.imports = tuple(sorted(imports))

    functions: List[FunctionSummary] = []
    for node in ctx.tree.body:
        if isinstance(node, _FUNC_NODES):
            functions.extend(
                _summarize_functions(ctx, node, ctx.module, "", summary)
            )
        elif isinstance(node, ast.ClassDef):
            bases = []
            for base in node.bases:
                name, _ = _resolve_module_ref(ctx, base)
                if name:
                    bases.append(name)
            attrs = []
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name) and _is_mutable_literal(
                            item.value
                        ):
                            attrs.append(target.id)
                elif isinstance(item, ast.AnnAssign):
                    if (
                        isinstance(item.target, ast.Name)
                        and item.value is not None
                        and _is_mutable_literal(item.value)
                    ):
                        attrs.append(item.target.id)
            summary.classes[node.name] = ClassSummary(
                qualname=f"{ctx.module}.{node.name}",
                bases=tuple(bases),
                mutable_attrs=tuple(dict.fromkeys(attrs)),
            )
            for item in node.body:
                if isinstance(item, _FUNC_NODES):
                    functions.extend(
                        _summarize_functions(
                            ctx,
                            item,
                            f"{ctx.module}.{node.name}",
                            node.name,
                            summary,
                        )
                    )
    summary.functions = tuple(functions)
    return summary


def _resolve_module_ref(ctx: ModuleContext, expr: ast.expr):
    """Module-scope resolution (no function locals to consider)."""
    dotted = dotted_name(expr)
    if not dotted:
        return "", False
    head, _, rest = dotted.partition(".")
    if head in ctx.aliases:
        base = ctx.aliases[head]
        return (f"{base}.{rest}" if rest else base), True
    return dotted, False
