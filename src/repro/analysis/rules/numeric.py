"""Numerical-safety rules (NUM).

The models transform responses with ``sqrt(bips)`` and ``log(watts)`` and
normalize encodings by parameter spans — so float comparisons, divisions
by collection sizes and transcendental domains are all load-bearing here.
These rules are guard-sensitive: a division or ``log`` whose operand is
checked anywhere in the enclosing function (``if``/``assert``/comparison/
clamp call/``np.errstate``) is accepted.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..context import ModuleContext, root_names
from ..findings import Finding, Severity
from ..registry import Rule, register

#: log/sqrt style calls with restricted domains (log1p and hypot excluded
#: on purpose: they are usually chosen *for* their safety).
_DOMAIN_CALLS = {
    "math.log", "math.log2", "math.log10", "math.sqrt",
    "numpy.log", "numpy.log2", "numpy.log10", "numpy.sqrt",
}

#: Wrappers inside a domain-call argument that establish the domain.
_SAFE_WRAPPERS = {"abs", "max", "maximum", "clip", "exp", "square", "fmax"}

_DIV_OPS = (ast.Div, ast.FloorDiv, ast.Mod)


def _is_float_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_floaty(node: ast.expr, ctx: ModuleContext) -> bool:
    """Expressions that are float-valued on their face."""
    if _is_float_literal(node):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand, ctx)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            return True
        resolved = ctx.resolve(node.func)
        if resolved and resolved.startswith("math."):
            return True
    return False


def _len_or_sum_arg(node: ast.expr) -> Optional[ast.Call]:
    """The call node when ``node`` is a direct ``len(...)``/``sum(...)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("len", "sum")
    ):
        return node
    return None


def _candidate_names(node: ast.expr, ctx: ModuleContext) -> List[str]:
    """Names under ``node`` that are not import aliases (``np`` etc.)."""
    return [name for name in root_names(node) if name not in ctx.aliases]


@register
class FloatEquality(Rule):
    """NUM001: exact equality between float expressions."""

    id = "NUM001"
    name = "float-equality"
    severity = Severity.WARNING
    description = (
        "Bare ==/!= where an operand is visibly float-valued (float"
        " literal, division, math.* call) — exact float comparison is"
        " brittle; compare against a tolerance (math.isclose/np.isclose)."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag ``==``/``!=`` comparisons with float-valued operands."""
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(_is_floaty(operand, ctx) for operand in operands):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "exact float equality; use math.isclose/np.isclose "
                        "or an explicit tolerance",
                        col=node.col_offset,
                    )
                    break


@register
class UnguardedDivision(Rule):
    """NUM002: division by a collection size with no emptiness guard."""

    id = "NUM002"
    name = "unguarded-division"
    severity = Severity.WARNING
    description = (
        "Division by len(...)/sum(...) (directly or via a local bound to"
        " one) with no guard on the operand anywhere in the enclosing"
        " function — empty inputs raise ZeroDivisionError or yield NaN."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag ``x / len(y)`` style divisions lacking a visible guard."""
        index = ctx.scopes
        for node in ctx.nodes:
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, _DIV_OPS)):
                continue
            scope = index.scope_of(node)
            denominator = node.right
            call = _len_or_sum_arg(denominator)
            via: Optional[str] = None
            if call is None and isinstance(denominator, ast.Name):
                assigned = scope.assigned_value(denominator.id)
                if assigned is not None:
                    call = _len_or_sum_arg(assigned)
                    via = denominator.id
            if call is None:
                continue
            checked = ([via] if via else []) + _candidate_names(call, ctx)
            if any(scope.is_guarded(name) for name in checked):
                continue
            label = f"{call.func.id}(...)"  # type: ignore[union-attr]
            source = f"{via} = {label}" if via else label
            yield self.finding(
                ctx,
                node.lineno,
                f"division by {source} without a guard against an empty "
                "input (ZeroDivisionError)",
                col=node.col_offset,
            )


@register
class UnguardedDomainCall(Rule):
    """NUM003: log/sqrt on an unguarded argument."""

    id = "NUM003"
    name = "unguarded-log-sqrt"
    severity = Severity.WARNING
    description = (
        "math/numpy log or sqrt whose argument is neither a positive"
        " constant, wrapped in a domain-establishing call (abs/max/clip/"
        "exp), nor checked in the enclosing function — the sqrt-BIPS and"
        " log-power transforms make domain errors a real failure mode."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag domain-restricted calls with unvetted arguments."""
        index = ctx.scopes
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved not in _DOMAIN_CALLS or not node.args:
                continue
            argument = node.args[0]
            if self._safe_argument(argument):
                continue
            names = _candidate_names(argument, ctx)
            if not names:
                continue  # constant-ish expression (np.pi etc.)
            scope = index.scope_of(node)
            if any(scope.is_guarded(name) for name in names):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                f"{resolved}() argument is never checked against its "
                "domain in this function",
                col=node.col_offset,
            )

    @staticmethod
    def _safe_argument(node: ast.expr) -> bool:
        """Whether the argument establishes its own domain syntactically."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float)) and node.value > 0
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for side in (node.left, node.right):
                value = getattr(side, "value", None)
                if isinstance(value, (int, float)) and value > 0:
                    return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = getattr(node.right, "value", None)
            if isinstance(exponent, int) and exponent % 2 == 0:
                return True
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                target = inner.func
                last = (
                    target.attr
                    if isinstance(target, ast.Attribute)
                    else target.id if isinstance(target, ast.Name) else ""
                )
                if last in _SAFE_WRAPPERS:
                    return True
        return False
