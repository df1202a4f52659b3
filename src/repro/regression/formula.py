"""Model specifications.

A :class:`ModelSpec` names the response, its transform and the term list —
the full description of one of the paper's regression models (Equation 1
plus the transform and interaction choices of Sections 3.2-3.3).  Specs
are declarative and reusable across benchmarks: the paper fits the same
specification once per benchmark per metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .terms import Term, TermError
from .transforms import IdentityTransform, ResponseTransform


@dataclass(frozen=True)
class ModelSpec:
    """Declarative regression model description.

    Attributes
    ----------
    response:
        Name of the response column (e.g. ``"bips"`` or ``"watts"``).
    terms:
        Sequence of :class:`~repro.regression.terms.Term`.
    transform:
        Response transform (Section 3.3); identity by default.
    name:
        Optional label for tables and artifacts.
    """

    response: str
    terms: Tuple[Term, ...]
    transform: ResponseTransform = field(default_factory=IdentityTransform)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.response:
            raise TermError("model spec needs a response name")
        if not self.terms:
            raise TermError("model spec needs at least one term")

    @property
    def predictors(self) -> Tuple[str, ...]:
        """All predictor names referenced by the terms, de-duplicated."""
        seen: list = []
        for term in self.terms:
            for predictor in term.predictors:
                if predictor not in seen:
                    seen.append(predictor)
        return tuple(seen)

    def with_terms(self, terms: Sequence[Term], name: str = "") -> "ModelSpec":
        """Copy with a different term list (ablation hook)."""
        return ModelSpec(
            response=self.response,
            terms=tuple(terms),
            transform=self.transform,
            name=name or self.name,
        )
