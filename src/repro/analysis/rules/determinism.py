"""Determinism rules (DET).

The reproduction's artifacts (Table 2, Figure 3, ...) must be identical
across runs: every stochastic component threads an explicitly seeded
``numpy.random.Generator``.  These rules flag the two ways that contract
silently erodes — touching the process-global RNG state, and constructing
generators without a seed.  Test code is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext, ProjectContext
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..dataflow import RNG_CONSTRUCTORS, seed_argument

#: ``random.*`` functions that read or mutate the module-global state.
_STDLIB_STATE = {
    "seed", "getstate", "setstate", "getrandbits", "randbytes",
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate",
}

#: Legacy ``numpy.random.*`` functions backed by the global RandomState.
_NUMPY_STATE = {
    "seed", "get_state", "set_state", "rand", "randn", "randint",
    "random", "random_sample", "random_integers", "ranf", "sample",
    "bytes", "choice", "shuffle", "permutation", "beta", "binomial",
    "chisquare", "dirichlet", "exponential", "gamma", "geometric",
    "gumbel", "laplace", "logistic", "lognormal", "multinomial",
    "normal", "pareto", "poisson", "power", "rayleigh",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_normal", "standard_t", "triangular", "uniform",
    "vonmises", "wald", "weibull", "zipf",
}

_GLOBAL_STATE = (
    {f"random.{name}" for name in _STDLIB_STATE}
    | {f"numpy.random.{name}" for name in _NUMPY_STATE}
)

#: RNG constructors that accept (and here must receive) a seed.  The
#: canonical set lives in the dataflow layer so the interprocedural
#: escape analysis (DET003) and the local check (DET002) agree.
_RNG_CONSTRUCTORS = RNG_CONSTRUCTORS


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register
class GlobalRandomState(Rule):
    """DET001: use of process-global RNG state."""

    id = "DET001"
    name = "global-random-state"
    severity = Severity.ERROR
    exempt_tests = True
    description = (
        "Call into the process-global RNG (random.* / legacy numpy.random.*)"
        " — global state breaks run-to-run reproducibility; thread an"
        " explicitly seeded numpy.random.Generator instead."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag calls resolving to global-state RNG functions."""
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _GLOBAL_STATE:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"global RNG state via {resolved}(); use an explicitly "
                    "seeded numpy.random.Generator",
                    col=node.col_offset,
                )


@register
class UnseededGenerator(Rule):
    """DET002: RNG constructed without an explicit seed."""

    id = "DET002"
    name = "unseeded-generator"
    severity = Severity.ERROR
    exempt_tests = True
    description = (
        "RNG constructor called without a seed argument (or with an"
        " explicit None) — every generator outside test code must be"
        " seeded so sampling is reproducible."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag seedless ``default_rng()`` / ``RandomState()`` / ``Random()``."""
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved not in _RNG_CONSTRUCTORS:
                continue
            if node.args and not _is_none(node.args[0]):
                continue
            seed_kwargs = [k for k in node.keywords if k.arg == "seed"]
            if seed_kwargs and not _is_none(seed_kwargs[0].value):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                f"{resolved}() constructed without an explicit seed",
                col=node.col_offset,
            )


@register
class UnseededRngEscape(Rule):
    """DET003: a factory-built RNG escapes unseeded into non-test code."""

    id = "DET003"
    name = "unseeded-rng-escape"
    severity = Severity.ERROR
    scope = "project"
    exempt_tests = True
    description = (
        "Call into an RNG factory (a function that builds and returns a"
        " generator seeded from a parameter) without an effective seed —"
        " omitted with a None default, or an explicit None — so an"
        " unseeded generator escapes into simulation/harness code."
        " Closes the interprocedural blind spot of DET001/DET002."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        """Flag factory call sites whose seed slot resolves to None."""
        index = project.dataflow()
        for module in sorted(index.modules):
            mod = index.modules[module]
            if mod.is_test:
                continue
            ctx = project.context_for(module)
            if ctx is None:
                continue
            for fn in mod.functions:
                for site in fn.calls:
                    resolved = index.resolve(site.target)
                    if resolved is None:
                        continue
                    factory = index.rng_factories.get(resolved)
                    if factory is None or factory.qualname == fn.qualname:
                        continue
                    info = seed_argument(index, site, factory)
                    if info is None:
                        if not factory.none_default:
                            continue
                        how = (
                            f"seed omitted and {factory.qualname}'s "
                            f"'{factory.seed_param}' defaults to None"
                        )
                    elif info.is_none:
                        how = f"explicit None '{factory.seed_param}'"
                    else:
                        continue
                    yield self.finding(
                        ctx,
                        site.lineno,
                        f"unseeded RNG escapes from factory "
                        f"{factory.qualname} into {fn.qualname}: {how}",
                    )
