"""Tests for response transforms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.regression import (
    IdentityTransform,
    LogTransform,
    SqrtTransform,
    TransformError,
)


class TestIdentity:
    def test_round_trip(self):
        y = np.array([-2.0, 0.0, 5.5])
        transform = IdentityTransform()
        assert (transform.inverse(transform.forward(y)) == y).all()


class TestSqrt:
    def test_forward(self):
        assert SqrtTransform().forward(np.array([4.0]))[0] == 2.0

    def test_round_trip(self):
        y = np.array([0.0, 0.25, 9.0])
        transform = SqrtTransform()
        assert transform.inverse(transform.forward(y)) == pytest.approx(y)

    def test_rejects_negative(self):
        with pytest.raises(TransformError):
            SqrtTransform().forward(np.array([-1.0]))

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=20))
    def test_round_trip_property(self, values):
        y = np.array(values)
        transform = SqrtTransform()
        assert transform.inverse(transform.forward(y)) == pytest.approx(y, rel=1e-9)


class TestLog:
    def test_forward(self):
        assert LogTransform().forward(np.array([np.e]))[0] == pytest.approx(1.0)

    def test_round_trip(self):
        y = np.array([0.1, 1.0, 250.0])
        transform = LogTransform()
        assert transform.inverse(transform.forward(y)) == pytest.approx(y)

    def test_rejects_zero(self):
        with pytest.raises(TransformError):
            LogTransform().forward(np.array([0.0]))

    def test_rejects_negative(self):
        with pytest.raises(TransformError):
            LogTransform().forward(np.array([-3.0]))

    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20))
    def test_round_trip_property(self, values):
        y = np.array(values)
        transform = LogTransform()
        assert transform.inverse(transform.forward(y)) == pytest.approx(y, rel=1e-9)


class TestRegistry:
    def test_names_stable(self):
        assert SqrtTransform().name == "sqrt"
        assert LogTransform().name == "log"
