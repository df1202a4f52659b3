"""Tests for the Table 3 branch predictor."""

from repro.simulator import OneBitBHT
from repro.simulator.branch import BHT_ENTRIES


class TestOneBitBHT:
    def test_learns_constant_branch(self):
        predictor = OneBitBHT()
        outcomes = [predictor.predict_and_update(3, True) for _ in range(10)]
        assert all(outcomes)  # initialized taken, stays correct

    def test_learns_after_one_flip(self):
        predictor = OneBitBHT()
        assert predictor.predict_and_update(3, False) is False  # mispredict
        assert predictor.predict_and_update(3, False) is True

    def test_alternating_pattern_always_wrong(self):
        predictor = OneBitBHT()
        predictor.predict_and_update(3, False)  # table now False
        results = [
            predictor.predict_and_update(3, i % 2 == 0) for i in range(10)
        ]
        assert not any(results)  # 1-bit thrashes on alternation

    def test_site_aliasing_by_modulo(self):
        assert BHT_ENTRIES == 16 * 1024  # Table 3
        predictor = OneBitBHT()
        predictor.predict_and_update(1, False)
        # the next site up does not alias onto entry 1 ...
        assert predictor.predict_and_update(2, False) is False
        # ... but site 1 + BHT_ENTRIES does
        assert predictor.predict_and_update(1 + BHT_ENTRIES, False) is True


class TestFactory:
    """The predictor a fresh simulator builds when none is passed in."""

    def test_default_is_table3_bht(self):
        predictor = OneBitBHT()
        assert isinstance(predictor, OneBitBHT)
        assert len(predictor._table) == BHT_ENTRIES == 16 * 1024  # Table 3
        assert all(predictor._table)  # initialized taken
