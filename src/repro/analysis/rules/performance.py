"""Performance rules (PERF).

``Simulator.simulate`` and ``StudyContext.simulate`` take a block of
configs; a block of more than two replays the trace once through the
batched timing kernel (:func:`repro.simulator.batch.run_pipeline_batch`).
Handing them one config at a time from a loop — ``simulate(…, [config])``
— keeps every design on its own trace replay, which pays the
per-instruction python overhead once per design instead of once per
block: typically a 3-6x slowdown at realistic block sizes.  A loop that
simulates a whole block per iteration (one per benchmark, say) is fine.
An intentional one-design loop is carried in the analysis baseline with
a reason.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register

#: AST nodes whose lexical body repeats per element.
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _is_one_design_simulate(node: ast.AST) -> bool:
    """A ``….simulate(…, [x])`` call: a one-element list display as a block."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "simulate"
        and any(
            isinstance(arg, ast.List)
            and len(arg.elts) == 1
            and not isinstance(arg.elts[0], ast.Starred)
            for arg in node.args
        )
    )


class _LoopedCallScanner(ast.NodeVisitor):
    """Collect one-design simulate calls lexically nested inside a loop."""

    def __init__(self) -> None:
        self._depth = 0
        self.hits: List[ast.Call] = []

    def visit(self, node: ast.AST) -> None:
        looping = isinstance(node, _LOOP_NODES)
        if looping:
            self._depth += 1
        if self._depth and _is_one_design_simulate(node):
            self.hits.append(node)
        self.generic_visit(node)
        if looping:
            self._depth -= 1


@register
class ScalarSimulateInLoop(Rule):
    """PERF001: one-design simulation loop where a block would do."""

    id = "PERF001"
    name = "scalar-simulate-in-loop"
    severity = Severity.WARNING
    exempt_tests = True
    description = (
        "simulate(…, [one_config]) call inside a loop in harness or study"
        " code — pass the whole block in one simulate() call, which"
        " replays the trace once per block with bit-identical results;"
        " baseline an intentional one-design loop with a reason."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag loop-nested one-design simulate calls in harness/studies."""
        if ctx.package not in ("harness", "studies"):
            return
        scanner = _LoopedCallScanner()
        scanner.visit(ctx.tree)
        for node in scanner.hits:
            yield self.finding(
                ctx,
                node.lineno,
                "one-design simulate() inside a loop; pass the block to one"
                " simulate() call — results are bit-identical and the trace"
                " is replayed once per block",
                col=node.col_offset,
            )
