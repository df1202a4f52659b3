"""Concurrency rules (RACE) — pool-worker writes to module state.

Campaign chunks execute in ``ProcessPoolExecutor`` workers
(``run_chunks`` in the resilience layer), and any code may spawn
long-lived workers via ``multiprocessing.Process``.  A worker
that writes module-level state writes its *own process's* copy: the
write never reaches the driver, is silently re-applied on retry, and
merges in whatever order resume replays chunks.  These rules walk the
dataflow call graph from every discovered worker entrypoint
(``ChunkTask`` ``fn`` callables, ``.submit`` targets, and
``Process``/``Thread`` ``target`` callables) and flag module-state
writes anywhere on a reachable path — including helpers the worker
calls in other modules, which module-local rules cannot see.
"""

from __future__ import annotations

from typing import Iterator

from ..context import ProjectContext
from ..findings import Finding, Severity
from ..registry import Rule, register

_KIND_VERBS = {
    "rebind": "rebound",
    "augment": "updated in place (augmented assignment)",
    "mutate": "mutated in place",
}


def _race_findings(rule: Rule, project: ProjectContext, kinds) -> Iterator[Finding]:
    """Shared walk: writes of the given kinds on worker-reachable paths."""
    index = project.dataflow()
    origin = index.reachable_from()
    for qualname in sorted(origin):
        fn = index.function(qualname)
        mod = index.module_of(qualname)
        if fn is None or mod is None or mod.is_test:
            continue
        ctx = project.context_for(mod.module)
        if ctx is None:
            continue
        for write in fn.global_writes:
            if write.kind not in kinds:
                continue
            entry = origin[qualname]
            via = "" if entry == qualname else f" (reached via {entry})"
            yield rule.finding(
                ctx,
                write.lineno,
                f"module-level state '{write.name}' "
                f"{_KIND_VERBS[write.kind]} in {qualname}, which runs in "
                f"pool workers{via} — worker writes are process-local and "
                "are lost, re-applied on retry, or merged "
                "nondeterministically on resume",
            )


@register
class WorkerGlobalRebind(Rule):
    """RACE001: global rebinding on a pool-worker call path."""

    id = "RACE001"
    name = "worker-global-rebind"
    severity = Severity.ERROR
    scope = "project"
    exempt_tests = True
    description = (
        "A function reachable from a pool-worker entrypoint rebinds or"
        " augments module-level state (global declaration) — the write is"
        " confined to the worker process and breaks replay determinism."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag rebind/augment writes reachable from pool entrypoints."""
        return _race_findings(self, project, ("rebind", "augment"))


@register
class WorkerContainerMutation(Rule):
    """RACE002: module-level container mutated on a pool-worker path."""

    id = "RACE002"
    name = "worker-container-mutation"
    severity = Severity.WARNING
    scope = "project"
    exempt_tests = True
    description = (
        "A function reachable from a pool-worker entrypoint mutates a"
        " module-level container (list/dict/set or class-level registry)"
        " in place — accumulated state diverges between driver and"
        " workers and merges nondeterministically."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag in-place container mutations reachable from entrypoints."""
        return _race_findings(self, project, ("mutate",))
