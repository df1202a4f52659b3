"""repro — Microarchitectural design space studies with regression models.

A from-scratch reproduction of Lee & Brooks, "Illustrative Design Space
Studies with Microarchitectural Regression Models" (HPCA 2007):

- :mod:`repro.designspace` — the Table 1 design space, UAR sampling, codecs
- :mod:`repro.workloads` — the nine-benchmark suite as synthetic traces
- :mod:`repro.simulator` — out-of-order superscalar timing model (Turandot's role)
- :mod:`repro.power` — CACTI/PowerTimer-style power models
- :mod:`repro.regression` — splines, interactions, transforms, OLS, diagnostics
- :mod:`repro.cluster` — K-means for the heterogeneity study
- :mod:`repro.metrics` — delay, watts, bips^3/w
- :mod:`repro.studies` — the pareto, pipeline-depth and heterogeneity studies
- :mod:`repro.harness` — campaigns, caching, scale presets, rendering
- :mod:`repro.analysis` — repo-specific static analysis (``repro analyze``);
  not imported by ``import repro``, import it by name

Quick start::

    from repro.harness import get_scale
    from repro.studies import StudyContext, pareto

    ctx = StudyContext(scale=get_scale("ci"))
    for row in pareto.table2(ctx):
        print(row.benchmark, row.point, row.predicted_delay, row.predicted_watts)
"""

__version__ = "1.0.0"

# ``analysis`` is left out: no model code uses it, and ``repro analyze``
# imports it when it runs.
from . import (  # noqa: F401
    cluster,
    designspace,
    harness,
    metrics,
    power,
    regression,
    simulator,
    studies,
    workloads,
)

__all__ = [
    "designspace",
    "workloads",
    "simulator",
    "power",
    "regression",
    "cluster",
    "metrics",
    "studies",
    "harness",
    "analysis",
    "__version__",
]
