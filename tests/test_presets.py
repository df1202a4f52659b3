"""Tests pinning the paper's model specifications (Sections 3.2-3.3)."""

import pytest

from repro.regression import (
    InteractionTerm,
    SplineTerm,
    extended_terms,
    linear_terms,
    main_effects_only_terms,
    paper_terms,
    performance_spec,
    power_spec,
)
from repro.regression.presets import EXTENDED_PREDICTORS, PREDICTORS


def spline_knots(terms):
    return {
        term.name: term.knots for term in terms if isinstance(term, SplineTerm)
    }


def interaction_pairs(terms):
    return {
        frozenset((term.a, term.b))
        for term in terms
        if isinstance(term, InteractionTerm)
    }


class TestPaperTerms:
    def test_every_table1_predictor_has_a_main_effect(self):
        knots = spline_knots(paper_terms())
        assert set(knots) == set(PREDICTORS)

    def test_knot_counts_follow_section_3_3(self):
        knots = spline_knots(paper_terms())
        # strong predictors: 4 knots
        assert knots["depth"] == 4
        assert knots["gpr_phys"] == 4
        # weak predictors: 3 knots
        for name in ("br_resv", "il1_kb", "dl1_kb", "l2_mb"):
            assert knots[name] == 3

    def test_domain_interactions_of_section_3_2(self):
        pairs = interaction_pairs(paper_terms())
        assert frozenset(("depth", "dl1_kb")) in pairs     # depth x caches
        assert frozenset(("depth", "l2_mb")) in pairs
        assert frozenset(("width", "gpr_phys")) in pairs   # width x window
        assert frozenset(("width", "br_resv")) in pairs
        assert frozenset(("il1_kb", "l2_mb")) in pairs     # adjacent levels
        assert frozenset(("dl1_kb", "l2_mb")) in pairs

    def test_no_unjustified_interactions(self):
        # exactly the six domain-specified pairs
        assert len(interaction_pairs(paper_terms())) == 6


class TestSpecs:
    def test_performance_uses_sqrt(self):
        assert performance_spec().transform.name == "sqrt"
        assert performance_spec().response == "bips"

    def test_power_uses_log(self):
        assert power_spec().transform.name == "log"
        assert power_spec().response == "watts"

    def test_specs_share_term_structure(self):
        perf = performance_spec()
        power = power_spec()
        assert len(perf.terms) == len(power.terms)


class TestAblationVariants:
    def test_main_effects_only_has_no_interactions(self):
        assert not interaction_pairs(main_effects_only_terms())
        assert set(spline_knots(main_effects_only_terms())) == set(PREDICTORS)

    def test_linear_terms_cover_predictors(self):
        terms = linear_terms()
        assert len(terms) == len(PREDICTORS)
        assert not spline_knots(terms)


class TestExtendedTerms:
    def test_superset_of_paper_terms(self):
        assert len(extended_terms()) > len(paper_terms())

    def test_covers_extended_predictors(self):
        names = set()
        for term in extended_terms():
            names.update(term.predictors)
        assert names == set(EXTENDED_PREDICTORS)

    def test_associativity_interacts_with_dl1(self):
        pairs = interaction_pairs(extended_terms())
        assert frozenset(("dl1_assoc", "dl1_kb")) in pairs
        assert frozenset(("in_order", "width")) in pairs
