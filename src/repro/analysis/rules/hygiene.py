"""Error-hygiene rules (HYG).

Swallowed exceptions turn model-fidelity bugs into silently wrong tables;
mutable default arguments leak state across calls — the classic way a
"deterministic" pipeline becomes order-dependent.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register

_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "defaultdict", "OrderedDict"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


@register
class BareExcept(Rule):
    """HYG001: ``except:`` with no exception type."""

    id = "HYG001"
    name = "bare-except"
    severity = Severity.ERROR
    description = (
        "Bare except: catches SystemExit/KeyboardInterrupt and masks real"
        " failures — name the exception types you mean to handle."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag handlers with no exception type."""
        for node in ctx.nodes:
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    "bare except: — name the exception types to handle",
                    col=node.col_offset,
                )


@register
class SilentExcept(Rule):
    """HYG002: handler that swallows the exception with ``pass``."""

    id = "HYG002"
    name = "silent-except"
    severity = Severity.WARNING
    description = (
        "except-body is a lone pass/... — the failure vanishes without a"
        " trace; at minimum record why ignoring it is safe."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag handlers whose body is only ``pass`` or ``...``."""
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if len(node.body) != 1:
                continue
            only = node.body[0]
            swallowed = isinstance(only, ast.Pass) or (
                isinstance(only, ast.Expr)
                and isinstance(only.value, ast.Constant)
                and only.value.value is Ellipsis
            )
            if swallowed:
                yield self.finding(
                    ctx,
                    node.lineno,
                    "exception swallowed by a pass-only handler",
                    col=node.col_offset,
                )


@register
class MutableDefault(Rule):
    """HYG003: mutable default argument."""

    id = "HYG003"
    name = "mutable-default"
    severity = Severity.WARNING
    description = (
        "Default argument is a mutable object (list/dict/set literal or"
        " constructor) shared across calls — default to None and create"
        " the object inside the function."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag list/dict/set defaults on function signatures."""
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.finding(
                        ctx,
                        default.lineno,
                        f"mutable default argument in {node.name}(); use "
                        "None and construct per call",
                        col=default.col_offset,
                    )
