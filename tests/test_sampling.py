"""Tests for design space samplers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.designspace import (
    DesignSpace,
    Parameter,
    ParameterError,
    PointSet,
    exploration_space,
    sample_halton,
    sample_stratified,
    sample_stratified_indices,
    sample_uar,
    sample_uar_indices,
    sampling_space,
)
from repro.designspace.pointset import index_levels
from repro.designspace.sampling import _uar_indices


@pytest.fixture(scope="module")
def toy_space():
    return DesignSpace(
        [
            Parameter(name="a", values=(1, 2, 3, 4)),
            Parameter(name="b", values=(1, 2, 3)),
            Parameter(name="c", values=(1, 2)),
        ]
    )


class TestUAR:
    def test_count(self, toy_space):
        assert len(sample_uar(toy_space, 10, seed=1)) == 10

    def test_unique_by_default(self, toy_space):
        points = sample_uar(toy_space, 20, seed=1)
        assert len(set(points)) == 20

    def test_unique_cannot_exceed_space(self, toy_space):
        with pytest.raises(ParameterError):
            sample_uar(toy_space, len(toy_space) + 1, seed=1)

    def test_with_replacement_can_exceed_space(self, toy_space):
        points = sample_uar(toy_space, 50, seed=1, unique=False)
        assert len(points) == 50

    def test_deterministic_with_seed(self, toy_space):
        assert sample_uar(toy_space, 8, seed=5) == sample_uar(toy_space, 8, seed=5)

    def test_different_seeds_differ(self, toy_space):
        a = sample_uar(toy_space, 12, seed=1)
        b = sample_uar(toy_space, 12, seed=2)
        assert a != b

    def test_zero_count(self, toy_space):
        assert sample_uar(toy_space, 0, seed=1) == []

    def test_negative_count_rejected(self, toy_space):
        with pytest.raises(ParameterError):
            sample_uar(toy_space, -1)

    def test_rejection_path_on_huge_space(self):
        # |S| = 375,000 >> 20 * count triggers the rejection sampler.
        points = sample_uar(sampling_space(), 100, seed=3)
        assert len(set(points)) == 100

    def test_all_points_valid(self, toy_space):
        for point in sample_uar(toy_space, 24, seed=2):
            assert point in toy_space

    def test_roughly_uniform_coverage(self, toy_space):
        # Exhaustive draw covers the whole space exactly once.
        points = sample_uar(toy_space, len(toy_space), seed=0)
        assert len(set(points)) == len(toy_space)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_membership_property(self, seed):
        space = sampling_space()
        for point in sample_uar(space, 5, seed=seed):
            assert point in space


class TestStratified:
    def test_per_level_counts(self, toy_space):
        points = sample_stratified(toy_space, "a", per_level=3, seed=1)
        assert len(points) == 4 * 3
        for level in (1, 2, 3, 4):
            assert sum(1 for p in points if p["a"] == level) == 3

    def test_deterministic(self, toy_space):
        a = sample_stratified(toy_space, "a", 2, seed=9)
        b = sample_stratified(toy_space, "a", 2, seed=9)
        assert a == b

    def test_unknown_parameter(self, toy_space):
        with pytest.raises(ParameterError):
            sample_stratified(toy_space, "bogus", 2)


class TestHalton:
    def test_deterministic(self, toy_space):
        assert sample_halton(toy_space, 10) == sample_halton(toy_space, 10)

    def test_count_and_membership(self, toy_space):
        points = sample_halton(toy_space, 30)
        assert len(points) == 30
        assert all(point in toy_space for point in points)

    def test_covers_all_levels_of_each_parameter(self, toy_space):
        points = sample_halton(toy_space, 60)
        for parameter in toy_space.parameters:
            seen = {point[parameter.name] for point in points}
            assert seen == set(parameter.values)

    def test_negative_count_rejected(self, toy_space):
        with pytest.raises(ParameterError):
            sample_halton(toy_space, -1)

    def test_too_many_parameters_rejected(self):
        parameters = [
            Parameter(name=f"p{i}", values=(1, 2)) for i in range(13)
        ]
        with pytest.raises(ParameterError):
            sample_halton(DesignSpace(parameters), 4)


# -- index samplers ------------------------------------------------------------


def _list_rejection_draws(size, count, rng):
    """The list sampler's rejection loop: first occurrences, in draw order."""
    seen = set()
    indices = []
    while len(indices) < count:
        needed = count - len(indices)
        for i in rng.integers(0, size, size=needed * 2):
            i = int(i)
            if i not in seen:
                seen.add(i)
                indices.append(i)
                if len(indices) == count:
                    break
    return indices


def _list_sample_uar(space, count, seed=None, unique=True):
    """The list sampler the index samplers replaced, kept as the oracle."""
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    size = len(space)
    rng = np.random.default_rng(seed)
    if unique:
        if count > size:
            raise ParameterError(
                f"cannot draw {count} unique points from a space of {size}"
            )
        if count * 20 < size:
            indices = _list_rejection_draws(size, count, rng)
        else:
            indices = list(rng.choice(size, size=count, replace=False))
    else:
        indices = list(rng.integers(0, size, size=count))
    return [space.point_at(int(i)) for i in indices]


def _list_sample_stratified(space, parameter_name, per_level, seed=None):
    parameter = space.parameter(parameter_name)
    rng = np.random.default_rng(seed)
    points = []
    for value in parameter.values:
        level_space = space.restrict({parameter_name: [value]})
        child_seed = int(rng.integers(0, 2**31 - 1))
        points.extend(_list_sample_uar(level_space, per_level, seed=child_seed))
    return points


_TOY = DesignSpace(
    [
        Parameter(name="a", values=(1, 2, 3, 4)),
        Parameter(name="b", values=(1, 2, 3)),
        Parameter(name="c", values=(1, 2)),
    ]
)
#: 1,000 points: counts below 50 take the rejection branch with frequent
#: duplicate draws, counts from 50 up take ``rng.choice``.
_MID = DesignSpace(
    [
        Parameter(name="x", values=tuple(range(10))),
        Parameter(name="y", values=tuple(range(0, 100, 10))),
        Parameter(name="z", values=tuple(range(1, 11))),
    ]
)
_EXPLORATION = exploration_space()


class _ScriptedRng:
    """Stands in for a ``Generator``: ``integers`` returns scripted draws."""

    def __init__(self, batches):
        self._batches = [np.array(batch, dtype=np.int64) for batch in batches]

    def integers(self, low, high, size):
        batch = self._batches.pop(0)
        assert batch.size == size
        return batch


def _points(space, indices):
    return list(PointSet(space, indices))


class TestIndexSamplers:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["toy", "mid", "exploration"]),
        st.integers(0, 2**31 - 1),
        st.booleans(),
        st.data(),
    )
    def test_uar_matches_list_sampler(self, which, seed, unique, data):
        space = {"toy": _TOY, "mid": _MID, "exploration": _EXPLORATION}[which]
        # Up to just past the rejection/choice switch (count * 20 < |S|).
        limit = min(len(space), len(space) // 20 + 40)
        count = data.draw(st.integers(0, limit), label="count")
        indices = sample_uar_indices(space, count, seed=seed, unique=unique)
        assert indices.dtype == np.int64
        expected = _list_sample_uar(space, count, seed=seed, unique=unique)
        assert _points(space, indices) == expected
        assert sample_uar(space, count, seed=seed, unique=unique) == expected

    @pytest.mark.parametrize(
        "space,count",
        [(_MID, 49), (_MID, 50), (_EXPLORATION, 13_124), (_EXPLORATION, 13_125)],
    )
    def test_uar_branch_edges(self, space, count):
        """Both sides of the rejection/choice switch, exactly."""
        assert _points(space, sample_uar_indices(space, count, seed=3)) == (
            _list_sample_uar(space, count, seed=3)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(
            [("toy", "a"), ("toy", "c"), ("mid", "y"), ("exploration", "depth"),
             ("exploration", "l2_mb")]
        ),
        st.integers(0, 2**31 - 1),
        st.data(),
    )
    def test_stratified_matches_list_sampler(self, target, seed, data):
        which, name = target
        space = {"toy": _TOY, "mid": _MID, "exploration": _EXPLORATION}[which]
        level_size = len(space) // space.parameter(name).cardinality
        per_level = data.draw(st.integers(0, min(level_size, 300)), label="per_level")
        indices = sample_stratified_indices(space, name, per_level, seed=seed)
        expected = _list_sample_stratified(space, name, per_level, seed=seed)
        assert _points(space, indices) == expected
        assert sample_stratified(space, name, per_level, seed=seed) == expected

    @pytest.mark.parametrize(
        "script",
        [
            # round 1 keeps 5 and 7; round 2 must skip the kept 7
            [[5, 5, 7, 5, 7, 5], [7, 9]],
            # round 2 finds nothing new; round 3 fills both places
            [[5] * 6, [5, 5, 5, 5], [8, 5, 8, 2]],
        ],
    )
    def test_rejection_rounds_skip_kept_indices(self, script):
        """Later rejection rounds (rare with a real generator) dedup
        against every index kept so far, exactly as the list loop did."""
        got = _uar_indices(1000, 3, _ScriptedRng(script), unique=True)
        assert got.tolist() == _list_rejection_draws(1000, 3, _ScriptedRng(script))

    def test_stratified_choice_branch_on_exploration_space(self):
        # 1,875 * 20 == 37,500 designs per depth level: the choice branch.
        indices = sample_stratified_indices(_EXPLORATION, "depth", 1875, seed=5)
        assert _points(_EXPLORATION, indices) == _list_sample_stratified(
            _EXPLORATION, "depth", 1875, seed=5
        )

    def test_errors_match_list_sampler(self):
        for call in (
            lambda: sample_uar_indices(_TOY, -1),
            lambda: sample_uar_indices(_TOY, len(_TOY) + 1),
            lambda: sample_stratified_indices(_TOY, "bogus", 1),
            lambda: sample_stratified_indices(_TOY, "a", 7),
        ):
            with pytest.raises(ParameterError):
                call()


class TestPointSet:
    @pytest.fixture(scope="class")
    def point_set(self):
        indices = sample_uar_indices(_EXPLORATION, 500, seed=11)
        return PointSet(_EXPLORATION, indices), indices

    def test_int_access_matches_point_at(self, point_set):
        points, indices = point_set
        for position in (0, 1, 250, 499, -1, -500, np.int64(7)):
            assert points[position] == _EXPLORATION.point_at(int(indices[position]))
        with pytest.raises(IndexError):
            points[500]

    def test_slicing_returns_point_sets(self, point_set):
        points, indices = point_set
        for key in (slice(10, 20), slice(None, None, 7), slice(-5, None), [3, 1, 3]):
            sliced = points[key]
            assert isinstance(sliced, PointSet)
            assert list(sliced) == [
                _EXPLORATION.point_at(int(i)) for i in indices[key]
            ]

    def test_iteration_and_len(self, point_set):
        points, indices = point_set
        assert len(points) == 500
        assert list(points) == [_EXPLORATION.point_at(int(i)) for i in indices]

    def test_level_columns_match_points(self, point_set):
        points, _ = point_set
        decoded = list(points)
        matrix = points.level_matrix()
        for j, parameter in enumerate(_EXPLORATION.parameters):
            levels = [parameter.index_of(p[parameter.name]) for p in decoded]
            assert points.levels(parameter.name).tolist() == levels
            assert matrix[:, j].tolist() == levels
            assert points.column(parameter.name).tolist() == [
                float(p[parameter.name]) for p in decoded
            ]

    def test_level_matrix_is_one_read_only_decode(self, point_set):
        """Memoized: the same read-only array on every call, in the
        narrowest dtype, equal to decoding the indices afresh."""
        points, indices = point_set
        fresh = PointSet(_EXPLORATION, indices)
        matrix = fresh.level_matrix()
        assert fresh.level_matrix() is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1
        assert matrix.dtype == np.uint8
        assert matrix.flags.f_contiguous
        assert np.array_equal(matrix, index_levels(_EXPLORATION, indices))

    def test_rejects_bad_indices(self):
        with pytest.raises(ParameterError):
            PointSet(_TOY, [len(_TOY)])
        with pytest.raises(ParameterError):
            PointSet(_TOY, [-1])
        with pytest.raises(ParameterError):
            PointSet(_TOY, [[0]])
        with pytest.raises(ParameterError):
            PointSet(_TOY, [0]).levels("bogus")
