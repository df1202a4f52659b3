"""Tests for fitting several specs to one dataset with shared term binding."""

import numpy as np
import pytest

from repro.regression import (
    FitError,
    InteractionTerm,
    LinearTerm,
    ModelSpec,
    SplineTerm,
    fit_models,
    fit_ols,
    main_effects_only_terms,
    performance_spec,
    power_spec,
    predictor_importance,
)


@pytest.fixture(scope="module")
def train(ctx):
    return ctx.campaign.dataset("gzip", "train").columns()


def drop_one_specs(spec):
    return [
        spec.with_terms(
            [term for term in spec.terms if predictor not in term.predictors],
            name=f"drop-{predictor}",
        )
        for predictor in spec.predictors
    ]


def assert_same_fit(model, reference):
    assert model.coefficients.tobytes() == reference.coefficients.tobytes()
    assert model.r_squared == reference.r_squared
    assert model.residual_variance == reference.residual_variance
    assert model.column_names == reference.column_names
    assert model.n_observations == reference.n_observations
    assert len(model.bound_terms) == len(reference.bound_terms)
    for term, ref in zip(model.bound_terms, reference.bound_terms):
        assert type(term) is type(ref)
        if hasattr(ref, "knots"):
            assert term.knots.tobytes() == ref.knots.tobytes()
    assert model.xtx_inverse.tobytes() == reference.xtx_inverse.tobytes()


class TestSharedBinding:
    """One ``fit_models`` call must give, field for field, the models that
    per-spec ``fit_ols`` calls give; a shared block stacked in the wrong
    term order, or a knot placed on the wrong column, would fail here."""

    def test_matches_per_spec_fits_bitwise(self, train):
        specs = [performance_spec(), power_spec()]
        specs += drop_one_specs(performance_spec())
        specs += [performance_spec().with_terms(main_effects_only_terms(), "main")]
        models = fit_models(specs, train)
        assert len(models) == len(specs)
        for spec, model in zip(specs, models):
            assert model.spec is spec
            assert_same_fit(model, fit_ols(spec, train))

    def test_each_term_bound_once(self, train, monkeypatch):
        # Binding per spec would make 14 spline binds for the
        # performance + power pair; shared binding makes 7.
        binds = []
        bind = SplineTerm.bind

        def counting_bind(self, data):
            binds.append(self)
            return bind(self, data)

        monkeypatch.setattr(SplineTerm, "bind", counting_bind)
        bips, watts = fit_models([performance_spec(), power_spec()], train)
        assert len(binds) == 7
        assert all(a is b for a, b in zip(bips.bound_terms, watts.bound_terms))

    def test_empty_spec_list(self, train):
        assert fit_models([], train) == []

    def test_duplicate_columns_still_rejected(self, train):
        spec = ModelSpec("bips", (LinearTerm("depth"), LinearTerm("depth")))
        with pytest.raises(ValueError, match="duplicate"):
            fit_models([spec], train)


def per_spec_importance(spec, data):
    """Reference drop-one partial R^2: one ``fit_ols`` per spec."""
    full = fit_ols(spec, data)
    return {
        predictor: full.r_squared - fit_ols(reduced, data).r_squared
        for predictor, reduced in zip(spec.predictors, drop_one_specs(spec))
    }, full.r_squared


class TestImportance:
    """Fitting the full and drop-one specs together must not move any
    partial R^2 from fitting each spec separately."""

    @pytest.mark.parametrize("make_spec", [performance_spec, power_spec])
    def test_matches_per_spec_oracle(self, train, make_spec):
        spec = make_spec()
        importance = predictor_importance(spec, train)
        partial, full_r_squared = per_spec_importance(spec, train)
        assert importance.full_r_squared == full_r_squared
        assert importance.partial_r_squared == partial
        assert list(importance.partial_r_squared) == list(spec.predictors)


class TestLazyInverse:
    """``xtx_inverse`` is computed on first read, not eagerly in every
    fit, and is bitwise the eager pseudo-inverse."""

    def test_bitwise_pinv_of_training_gram(self, train):
        model = fit_ols(performance_spec(), train)
        X = model.design_matrix(train)
        assert model.xtx_inverse.tobytes() == np.linalg.pinv(X.T @ X).tobytes()

    def test_computed_once(self, train):
        model = fit_ols(power_spec(), train)
        assert model.xtx_inverse is model.xtx_inverse

    def test_unread_inverse_never_computed(self, train, monkeypatch):
        calls = []
        pinv = np.linalg.pinv

        def counting_pinv(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return pinv(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        models = fit_models([performance_spec(), power_spec()], train)
        assert calls == []
        models[0].standard_errors()
        assert len(calls) == 1


def small_data(n=50, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    z = rng.uniform(0, 10, n)
    return {"x": x, "z": z, "y": 1.0 + 2.0 * x - z + rng.standard_normal(n)}


SPEC = ModelSpec("y", (SplineTerm("x", knots=3), InteractionTerm("x", "z")))


class TestInputValidation:
    """Bad training columns fail with a ``FitError`` that names them."""

    def test_nan_response(self):
        # Unchecked, the fit "succeeds": NaN coefficients, r_squared 1.0.
        data = small_data()
        data["y"][3] = np.nan
        with pytest.raises(FitError, match=r"response 'y' has 1 non-finite"):
            fit_ols(SPEC, data)

    def test_infinite_predictor(self):
        # Unchecked, LAPACK prints DLASCL to stderr and a bare
        # LinAlgError follows.
        data = small_data()
        data["z"][[0, 7]] = [np.inf, -np.inf]
        with pytest.raises(FitError, match=r"predictor 'z' has 2 non-finite"):
            fit_models([SPEC], data)

    def test_short_predictor(self):
        # Unchecked, numpy raises a raw broadcast ValueError.
        data = small_data()
        data["z"] = data["z"][:-1]
        with pytest.raises(FitError, match=r"predictor 'z' has 49 rows .* 50"):
            fit_ols(SPEC, data)

    def test_unreferenced_columns_ignored(self):
        data = small_data()
        data["unused"] = np.full(3, np.nan)
        assert np.isfinite(fit_ols(SPEC, data).coefficients).all()

    def test_missing_predictor_named(self):
        data = small_data()
        del data["z"]
        with pytest.raises(ValueError, match="'z' missing"):
            fit_ols(SPEC, data)
