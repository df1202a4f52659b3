"""Cross-layer contract rules (CON).

Three layers must agree on the design-parameter vocabulary:

- ``designspace`` *defines* parameters (``Parameter(name=..., derived=...)``),
- ``simulator/config.py`` *consumes* them (``settings["name"]`` lookups),
- ``regression`` model specs *reference* them (``SplineTerm("name")`` ...).

Train/eval skew between these layers is silent: a renamed parameter or a
forgotten consumer changes results without any exception.  These
whole-program rules walk all three surfaces and flag dead parameters
(defined, never consumed), phantom parameters (consumed, never defined)
and unknown model predictors.  Each rule runs only when both sides of its
contract are present in the analyzed tree, so single-package runs stay
quiet.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..context import ModuleContext, ProjectContext
from ..findings import Finding, Severity
from ..registry import Rule, register

#: Term constructors whose positional string args name design parameters.
_TERM_CALLS = {"SplineTerm", "LinearTerm", "InteractionTerm"}


def _call_name(node: ast.Call) -> str:
    """Last dotted component of a call target."""
    target = node.func
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return ""


@dataclass(frozen=True)
class _Site:
    """A named reference at a location."""

    name: str
    ctx: ModuleContext
    line: int


def defined_parameters(project: ProjectContext) -> Dict[str, _Site]:
    """Primary + derived parameter names defined in ``designspace``."""
    defined: Dict[str, _Site] = {}
    for ctx in project.iter_package("designspace"):
        for node in ctx.nodes:
            if not (isinstance(node, ast.Call) and _call_name(node) == "Parameter"):
                continue
            for keyword in node.keywords:
                value = keyword.value
                if keyword.arg == "name" and isinstance(value, ast.Constant):
                    if isinstance(value.value, str):
                        defined.setdefault(
                            value.value, _Site(value.value, ctx, value.lineno)
                        )
                elif keyword.arg == "derived" and isinstance(value, ast.Dict):
                    for key in value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            defined.setdefault(
                                key.value, _Site(key.value, ctx, key.lineno)
                            )
    return defined


def consumed_settings(config: ModuleContext) -> List[_Site]:
    """Parameter names the machine-config layer reads from ``settings``."""
    consumed: List[_Site] = []

    def is_settings(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == "settings"

    for node in config.nodes:
        if isinstance(node, ast.Subscript) and is_settings(node.value):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, str):
                consumed.append(_Site(index.value, config, node.lineno))
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            if isinstance(node.ops[0], (ast.In, ast.NotIn)):
                literal, container = node.left, node.comparators[0]
                if (
                    is_settings(container)
                    and isinstance(literal, ast.Constant)
                    and isinstance(literal.value, str)
                ):
                    consumed.append(_Site(literal.value, config, node.lineno))
        elif isinstance(node, ast.Call):
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "get"
                and is_settings(target.value)
                and node.args
            ):
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    consumed.append(_Site(first.value, config, node.lineno))
    return consumed


def predictor_references(project: ProjectContext) -> List[_Site]:
    """Parameter names referenced by model terms in ``regression``/``studies``."""
    references: List[_Site] = []
    for package in ("regression", "studies"):
        for ctx in project.iter_package(package):
            for node in ctx.nodes:
                if not (
                    isinstance(node, ast.Call)
                    and _call_name(node) in _TERM_CALLS
                ):
                    continue
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        references.append(_Site(arg.value, ctx, arg.lineno))
    return references


def _contract_surfaces(
    project: ProjectContext,
) -> Tuple[Dict[str, _Site], List[_Site]]:
    """(defined parameters, consumed settings); empty when a side is absent."""
    defined = defined_parameters(project)
    config = project.find("simulator/config.py")
    if not defined or config is None:
        return {}, []
    return defined, consumed_settings(config)


@register
class DeadParameter(Rule):
    """CON001: parameter defined but never consumed by the simulator config."""

    id = "CON001"
    name = "dead-parameter"
    severity = Severity.ERROR
    scope = "project"
    description = (
        "Design parameter defined in designspace (Parameter name/derived)"
        " that simulator/config.py never reads from its settings — the"
        " parameter silently has no effect on simulated results."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag defined parameter names absent from config consumption."""
        defined, consumed = _contract_surfaces(project)
        if not defined or not consumed:
            return
        consumed_names = {site.name for site in consumed}
        for name, site in sorted(defined.items()):
            if name not in consumed_names:
                yield self.finding(
                    site.ctx,
                    site.line,
                    f"parameter {name!r} is defined here but never consumed "
                    "by simulator/config.py",
                )


@register
class PhantomParameter(Rule):
    """CON002: config consumes a parameter nothing defines."""

    id = "CON002"
    name = "phantom-parameter"
    severity = Severity.ERROR
    scope = "project"
    description = (
        "simulator/config.py reads a settings key that no designspace"
        " Parameter (primary or derived) defines — the branch is dead or"
        " the definition was renamed without updating the consumer."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag consumed settings keys with no matching definition."""
        defined, consumed = _contract_surfaces(project)
        if not defined or not consumed:
            return
        for site in consumed:
            if site.name not in defined:
                yield self.finding(
                    site.ctx,
                    site.line,
                    f"settings key {site.name!r} is consumed here but no "
                    "designspace Parameter defines it",
                )


@register
class UnknownPredictor(Rule):
    """CON003: model term references an unknown design parameter."""

    id = "CON003"
    name = "unknown-predictor"
    severity = Severity.ERROR
    scope = "project"
    description = (
        "A SplineTerm/LinearTerm/InteractionTerm names a predictor that"
        " no designspace Parameter defines — the model spec and the"
        " design-space encoding have drifted apart."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag term predictor names absent from the design space."""
        defined = defined_parameters(project)
        if not defined:
            return
        for site in predictor_references(project):
            if site.name not in defined:
                yield self.finding(
                    site.ctx,
                    site.line,
                    f"model term references predictor {site.name!r}, which "
                    "no designspace Parameter defines",
                )
