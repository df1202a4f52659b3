"""Tests for the blockwise sweep engine (repro.harness.sweep).

The engine sweeps a :class:`PointSet`.  Its contract is *partition
independence*: any block size, and a point set built from indices or
from an explicit point list (:meth:`PointSet.from_points`), must reduce
to the same results as a monolithic whole-table pass.
"""

import dataclasses

import numpy as np
import pytest

from repro.designspace import DesignEncoder, DesignPoint, PointSet
from repro.designspace.parameters import ParameterError
from repro.designspace.pointset import encoded_level_tables
from repro.harness.sweep import (
    CollectReducer,
    DesignLayout,
    SweepBlock,
    _LevelDesignCache,
    GroupedMetricReducer,
    ParetoFrontierReducer,
    SweepError,
    TopKReducer,
    discretized_frontier,
    pareto_indices,
    predict_source,
    run_sweep,
    strict_pareto_mask,
)
from repro.harness import sweep as sweep_module
from repro.metrics import MetricError, bips3_per_watt


@pytest.fixture(scope="module")
def predictor(ctx):
    return ctx.predictor("gzip")


def collect(predictor, points, block_size):
    """Full (bips, watts) vectors of one sweep at ``block_size``."""
    report = run_sweep(
        [predictor],
        points,
        [[CollectReducer(metrics=("bips", "watts"))]],
        block_size=block_size,
    )
    collected = report.results[0][0]
    return collected.metric("bips"), collected.metric("watts")


@pytest.fixture(scope="module")
def exploration(ctx):
    return ctx.exploration_points()


def _encode(points: PointSet) -> np.ndarray:
    """``(n, P)`` encoded coordinates gathered through the level tables."""
    levels = points.level_matrix()
    tables = encoded_level_tables(points.space)
    return np.column_stack(
        [table[levels[:, j]] for j, table in enumerate(tables)]
    )


class TestSources:
    """Point sets as sweep inputs: indices and explicit point lists."""

    def test_space_source_matches_point_at(self, ctx):
        space = ctx.exploration_space
        whole = PointSet(space, np.arange(len(space)))
        encoder = DesignEncoder(space)
        positions = [0, 1, 7, len(space) // 2, len(space) - 1]
        for pos in positions:
            point = whole[pos]
            assert point == space.point_at(pos)
            got = _encode(whole[pos:pos + 1])[0]
            assert np.array_equal(got, encoder.encode_point(point))

    def test_space_source_subset_and_slice(self, ctx):
        space = ctx.exploration_space
        indices = np.array([5, 17, 101, 999], dtype=np.int64)
        points = PointSet(space, indices)
        assert len(points) == 4
        assert points[2] == space.point_at(101)
        assert np.array_equal(points[1:3].indices, indices[1:3])

    def test_space_source_rejects_bad_indices(self, ctx):
        space = ctx.exploration_space
        with pytest.raises(ParameterError):
            PointSet(space, np.array([len(space)]))
        with pytest.raises(ParameterError):
            PointSet(space, np.array([-1]))

    def test_point_source_encoding_matches_encoder(self, ctx, exploration):
        """from_points round-trips the points, their indices and encoding."""
        space = ctx.exploration_space
        points = list(exploration[:64])
        built = PointSet.from_points(space, points)
        assert len(built) == len(points)
        for i, point in enumerate(points):
            assert built[i] == point
            assert built.indices[i] == space.index_of(point)
            assert space.point_at(int(built.indices[i])) == point
        expected = DesignEncoder(space).encode(points)
        assert np.array_equal(_encode(built), expected)

    def test_point_source_rejects_off_grid(self, ctx):
        space = ctx.exploration_space
        bad = space.point_at(0).replace(depth=13)  # 13 FO4 is not a level
        with pytest.raises(ParameterError):
            PointSet.from_points(space, [space.point_at(1), bad])
        first = space.point_at(0)
        renamed = DesignPoint(("bogus",) + first.names[1:], first.values)
        with pytest.raises(ParameterError, match="do not match"):
            PointSet.from_points(space, [first, renamed])

    def test_sources_agree(self, ctx, predictor):
        """A from_points set predicts byte-equal to the same indices."""
        space = ctx.exploration_space
        indices = np.arange(0, len(space), len(space) // 200, dtype=np.int64)
        by_index = PointSet(space, indices)
        by_list = PointSet.from_points(
            space, [space.point_at(int(i)) for i in indices]
        )
        assert np.array_equal(by_list.indices, indices)
        bips_a, watts_a = collect(predictor, by_index, block_size=64)
        bips_b, watts_b = collect(predictor, by_list, block_size=64)
        assert bips_a.tobytes() == bips_b.tobytes()
        assert watts_a.tobytes() == watts_b.tobytes()


class TestBlockwisePrediction:
    def test_matches_predict_points(self, ctx, exploration):
        """Blockwise == whole-table: same values, bit for bit, when the
        block decomposition matches (one monolithic block)."""
        table = ctx.predict_points("gzip", list(exploration))
        bips, watts = collect(
            ctx.predictor("gzip"), exploration, block_size=len(exploration)
        )
        assert np.array_equal(bips, table.bips)
        assert np.array_equal(watts, table.watts)

    def test_block_size_invariance(self, ctx, predictor, exploration):
        """Any block size reproduces the same reductions: identical
        frontier indices and argmax, values equal to float tolerance."""
        baseline = None
        for block_size in (len(exploration), 256, 101, 7):
            report = run_sweep(
                [predictor],
                exploration,
                [[ParetoFrontierReducer(bins=50), TopKReducer()]],
                block_size=block_size,
            )
            front, best = report.results[0]
            if baseline is None:
                baseline = (front, best)
                continue
            assert np.array_equal(front.indices, baseline[0].indices)
            assert best.indices[0] == baseline[1].indices[0]
            np.testing.assert_allclose(
                front.delay, baseline[0].delay, rtol=1e-12
            )
            np.testing.assert_allclose(
                best.values, baseline[1].values, rtol=1e-12
            )

    def test_rejects_bad_config(self, ctx, predictor, exploration):
        with pytest.raises(SweepError):
            run_sweep([predictor], exploration[:8], [[]], block_size=0)


def _assert_kernel_matches_predict(model, space, blocks):
    """The gather kernel's predictions are bitwise ``model.predict``'s on
    each ``(start, stop)`` range of the space's point indices."""
    cache = _LevelDesignCache(model, space)
    encoder = DesignEncoder(space)
    for start, stop in blocks:
        points = [space.point_at(i) for i in range(start, stop)]
        matrix = np.vstack([encoder.encode_point(p) for p in points])
        columns = {n: matrix[:, j] for j, n in enumerate(space.names)}
        expected = model.predict(columns)
        levels = PointSet(space, np.arange(start, stop)).level_matrix()
        got = cache.predict(levels)
        assert got.tobytes() == expected.tobytes(), (start, stop)
    return cache.layout


def _extended_model():
    """The extended performance spec fitted to a smooth synthetic
    response over a UAR sample of the extended space."""
    from repro.designspace import extended_space, sample_uar
    from repro.regression import extended_performance_spec, fit_ols

    space = extended_space()
    points = sample_uar(space, 300, seed=4)
    matrix = DesignEncoder(space).encode(points)
    data = {n: matrix[:, j] for j, n in enumerate(space.names)}
    data["bips"] = 1.0 + 0.1 * (matrix ** 2).sum(axis=1) + 0.05 * matrix[:, 0]
    return space, fit_ols(extended_performance_spec(), data)


class TestLevelKernel:
    """The level-table gather kernel against the model's own predict."""

    # (start, stop) over the full exploration space: single rows, an odd
    # and an even small block, a full default block, and the ragged tail
    # of a default-block sweep (262,500 = 32 * 8192 + 356).
    BLOCKS = [(0, 1), (131_071, 131_072), (5, 8), (1000, 1004),
              (8192, 16_384), (262_144, 262_500)]

    @pytest.mark.parametrize("name", ["gzip", "mcf", "applu"])
    @pytest.mark.parametrize("metric", ["bips", "watts"])
    def test_bitwise_equal_to_fitted_model_predict(self, ctx, name, metric):
        layout = _assert_kernel_matches_predict(
            ctx.model(name, metric), ctx.exploration_space, self.BLOCKS
        )
        # {depth, il1, dl1, l2} and {width, gpr, br_resv}, in 5 runs.
        assert sorted(
            int(np.prod(sizes)) for _, sizes in layout._groups
        ) == [300, 875]
        assert len(layout._runs) == 5

    @pytest.mark.parametrize("metric", ["bips", "watts"])
    def test_sampling_space(self, ctx, metric):
        """The 375,000-design sampling space: 1,250-row depth component,
        and the ragged tail of a default-block sweep."""
        space = ctx.sampling_space
        _assert_kernel_matches_predict(
            ctx.model("mcf", metric), space,
            [(0, 3), (8192, 16_384), (368_640, 375_000)],
        )

    def test_extended_space_splits_the_oversized_component(self):
        """Associativity would join d-L1 to the depth component, whose
        cross product (5,000 rows) is over the cap: the joining term gets
        a group of its own, and predictions stay bitwise equal."""
        space, model = _extended_model()
        layout = _assert_kernel_matches_predict(
            model, space, [(0, 5), (8192, 16_384), (2_991_000, 3_000_000)]
        )
        rows = [int(np.prod(sizes)) for _, sizes in layout._groups]
        assert max(rows) <= sweep_module.MAX_COMPONENT_ROWS
        # depth/il1/dl1/l2, width/gpr/br/in_order, assoc, assoc x dl1
        assert sorted(rows) == [4, 20, 600, 1250]

    def test_component_over_a_lowered_cap(self, ctx, monkeypatch):
        """With the cap below the depth component's 875 rows, the paper's
        layout splits it and still equals FittedModel.predict."""
        monkeypatch.setattr(sweep_module, "MAX_COMPONENT_ROWS", 200)
        layout = _assert_kernel_matches_predict(
            ctx.model("gzip", "bips"), ctx.exploration_space, self.BLOCKS
        )
        rows = [int(np.prod(sizes)) for _, sizes in layout._groups]
        assert max(rows) <= 200 and len(rows) > 2

    def test_equal_layouts_share_their_run_tables(self, ctx):
        """Two builds of one spec's layout compare equal and hold the very
        same run tables; a different model's layout is unequal."""
        space = ctx.exploration_space
        terms = ctx.model("gzip", "bips").bound_terms
        a, b = DesignLayout(terms, space), DesignLayout(terms, space)
        assert a == b and hash(a) == hash(b)
        assert all(x is y for (_, x), (_, y) in zip(a._runs, b._runs))
        dropped = DesignLayout(terms[:-1], space)
        assert dropped != a
        # Its first four runs hold the same columns, so the same tables.
        assert all(x is y for (_, x), (_, y) in zip(a._runs[:4], dropped._runs))

    def test_accepts_row_major_levels(self, ctx):
        """The kernel reads any (n, P) level layout, not only column-major."""
        space = ctx.exploration_space
        cache = _LevelDesignCache(ctx.model("gzip", "bips"), space)
        levels = PointSet(space, np.arange(8192, 16_384)).level_matrix()
        assert np.array_equal(
            cache.predict(np.ascontiguousarray(levels)), cache.predict(levels)
        )

    def test_term_outside_space_raises(self, ctx):
        """A term the level tables cannot gather is an error, not a
        silent fallback; the message names the term."""
        from repro.regression.terms import LinearTerm

        model = ctx.model("gzip", "bips")
        foreign = LinearTerm("bogus").bind({"bogus": np.arange(3.0)})
        broken = dataclasses.replace(
            model, bound_terms=model.bound_terms + (foreign,)
        )
        with pytest.raises(SweepError, match="bogus"):
            _LevelDesignCache(broken, ctx.exploration_space)


class TestMetricChecks:
    def test_nonpositive_bips_raises_from_run_sweep(self, ctx, exploration):
        """A model predicting bips <= 0 for some designs is an error, not
        a negative delay, checked once per predicted block."""
        from repro.regression.transforms import IdentityTransform

        predictor = ctx.predictor("gzip")
        model = predictor.bips_model
        linear = dataclasses.replace(
            model,
            spec=dataclasses.replace(model.spec, transform=IdentityTransform()),
        )
        encoded = DesignEncoder(exploration.space).encode(exploration)
        columns = {n: encoded[:, j] for j, n in enumerate(exploration.space.names)}
        coefficients = linear.coefficients.copy()
        coefficients[0] -= np.median(linear.predict(columns))
        shifted = dataclasses.replace(linear, coefficients=coefficients)
        predicted = shifted.predict(columns)
        assert (predicted <= 0).any() and (predicted > 0).any()
        broken = dataclasses.replace(predictor, bips_model=shifted)
        with pytest.raises(MetricError, match="bips must be positive"):
            run_sweep([broken], exploration, [[TopKReducer()]], block_size=64)


class TestReducers:
    def test_frontier_reducer_matches_whole_table(self, ctx, exploration):
        table = ctx.predict_points("gzip", list(exploration))
        expected = discretized_frontier(table.delay, table.watts, bins=50)
        (result,) = run_sweep(
            [ctx.predictor("gzip")], exploration,
            [[ParetoFrontierReducer(bins=50)]], block_size=128,
        ).results[0]
        assert np.array_equal(np.sort(result.indices), np.sort(expected))

    def test_topk_matches_argmax(self, ctx, exploration):
        table = ctx.predict_points("gzip", list(exploration))
        (best,) = run_sweep(
            [ctx.predictor("gzip")], exploration,
            [[TopKReducer(metric="efficiency", k=1)]], block_size=128,
        ).results[0]
        assert best.indices[0] == int(table.efficiency.argmax())
        assert best.points[0] == table.points[int(table.efficiency.argmax())]

    def test_topk_first_occurrence_tie_break(self, ctx, predictor):
        """Duplicated points tie exactly; argmax keeps the first."""
        space = ctx.exploration_space
        point = space.point_at(42)
        points = PointSet.from_points(space, [point] * 10)
        (best,) = run_sweep(
            [predictor], points, [[TopKReducer(k=1)]], block_size=3
        ).results[0]
        assert best.indices[0] == 0

    def test_grouped_matches_masked_table(self, ctx):
        points = ctx.per_depth_points()
        bips, watts = predict_source(ctx.predictor("gzip"), points)
        efficiency = bips3_per_watt(bips, watts)
        (grouped,) = run_sweep(
            [ctx.predictor("gzip")], points,
            [[GroupedMetricReducer("depth", "efficiency")]], block_size=64,
        ).results[0]
        depths = np.array([p["depth"] for p in points], dtype=float)
        for level in grouped.levels():
            mask = depths == level
            np.testing.assert_allclose(
                grouped.values[level], efficiency[mask], rtol=1e-12
            )
            local = np.flatnonzero(mask)
            best_local = int(local[efficiency[mask].argmax()])
            assert grouped.argmax_indices[level] == best_local
            assert grouped.argmax_points[level] == points[best_local]

    def test_suite_grouped_pass_holds_only_its_values(self, ctx):
        """Nine benchmarks' grouped reducers over 5,000 designs in blocks
        of 16: traced memory peaks near the finalized values, with no
        per-block chunks or joined copies (those made it 2.2x)."""
        import tracemalloc

        points = _strided(ctx.exploration_space, 5000)
        predictors = [ctx.predictor(b) for b in ctx.benchmarks]
        for predictor in predictors:  # build the layouts outside the trace
            predictor._level_caches(points.space)
        points.level_matrix()
        tracemalloc.start()
        try:
            report = run_sweep(
                predictors, points,
                [[GroupedMetricReducer("depth", "efficiency")]
                 for _ in predictors],
                block_size=16,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        values = len(predictors) * len(points) * 8
        assert sum(
            array.nbytes
            for (grouped,) in report.results
            for array in grouped.values.values()
        ) == values
        assert peak < 1.5 * values

    def test_collect_matches_table(self, ctx, exploration):
        table = ctx.predict_points("gzip", list(exploration))
        (collected,) = run_sweep(
            [ctx.predictor("gzip")], exploration,
            [[CollectReducer(metrics=("bips", "delay"), columns=("depth",))]],
            block_size=173,
        ).results[0]
        np.testing.assert_allclose(
            collected.metric("bips"), table.bips, rtol=1e-12
        )
        np.testing.assert_allclose(
            collected.metric("delay"), table.delay, rtol=1e-12
        )
        expected_depth = np.array(
            [p["depth"] for p in table.points], dtype=float
        )
        assert np.array_equal(collected.column("depth"), expected_depth)

    def test_reducer_results_memoized(self, ctx):
        def reducers():
            return [ParetoFrontierReducer(bins=50)]

        a = ctx.sweep_exploration(["gzip"], reducers)["gzip"][0]
        b = ctx.sweep_exploration(["gzip"], reducers)["gzip"][0]
        assert a is b  # cached finalized result, not a re-run


def _assert_identical(a, b, where=()):
    """Bitwise equality of two finalized reducer results."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert a.tobytes() == b.tobytes(), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            _assert_identical(
                getattr(a, f.name), getattr(b, f.name), where + (f.name,)
            )
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            _assert_identical(a[key], b[key], where + (key,))
    else:
        assert a == b, where


def _all_reducers():
    return [
        ParetoFrontierReducer(bins=20),
        TopKReducer(metric="efficiency", k=3),
        GroupedMetricReducer("depth", "efficiency"),
        CollectReducer(metrics=("bips", "watts", "delay"), columns=("dl1_kb",)),
    ]


def _strided(space, n):
    """``n`` designs spread over the whole space, in ascending order."""
    return PointSet(space, np.linspace(0, len(space) - 1, n).astype(np.int64))


class TestSuiteSweep:
    """Many predictors in one pass: shared decode and design matrices."""

    # Each size sweeps a set with a ragged last block (but block size 1).
    SIZES = {1: 40, 7: 200, 64: 1000, 8192: 8192 + 357}

    @pytest.mark.parametrize("block_size", sorted(SIZES))
    def test_suite_equals_one_benchmark_at_a_time(self, ctx, block_size):
        points = _strided(ctx.exploration_space, self.SIZES[block_size])
        predictors = [ctx.predictor(b) for b in ctx.benchmarks]
        suite = run_sweep(
            predictors, points, [_all_reducers() for _ in predictors],
            block_size=block_size,
        )
        assert suite.benchmarks == tuple(ctx.benchmarks)
        for predictor, results in zip(predictors, suite.results):
            alone = run_sweep(
                [predictor], points, [_all_reducers()], block_size=block_size
            )
            for got, expected in zip(results, alone.results[0]):
                _assert_identical(got, expected, (predictor.benchmark,))

    def test_distinct_layouts_get_their_own_matrix(self, ctx, monkeypatch):
        """Bootstrap refits bind other knots, so they gather from other
        tables; each model still equals its own FittedModel.predict."""
        from repro.studies.robustness import bootstrap_models

        nominal = ctx.predictor("mcf")
        predictors = [nominal] + [
            dataclasses.replace(
                nominal, bips_model=models.bips, watts_model=models.watts
            )
            for models in bootstrap_models(ctx, "mcf", replicates=2, seed=3)
        ]
        space = ctx.exploration_space
        layouts = {p._level_caches(space)[0].layout for p in predictors}
        assert len(layouts) == len(predictors)

        fills = []
        design = DesignLayout.design
        monkeypatch.setattr(
            DesignLayout, "design",
            lambda self, levels: fills.append(self) or design(self, levels),
        )
        points = _strided(space, 500)
        report = run_sweep(
            predictors, points,
            [[CollectReducer(metrics=("bips", "watts"))] for _ in predictors],
            block_size=len(points),
        )
        assert len(fills) == len(predictors)
        encoder = DesignEncoder(space)
        matrix = encoder.encode(list(points))
        columns = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
        for predictor, (collected,) in zip(predictors, report.results):
            for metric in ("bips", "watts"):
                model = getattr(predictor, f"{metric}_model")
                expected = model.predict(columns)
                assert collected.metric(metric).tobytes() == expected.tobytes()

    def test_one_matrix_fill_per_block_per_layout(self, ctx, monkeypatch):
        """The suite's 18 models share one layout: the paper's specs share
        their terms, and every benchmark binds its knots to the same
        training designs.  One fill per block serves all of them."""
        fills = []
        design = DesignLayout.design
        monkeypatch.setattr(
            DesignLayout, "design",
            lambda self, levels: fills.append(levels.shape[0])
            or design(self, levels),
        )
        predictors = [ctx.predictor(b) for b in ctx.benchmarks]
        space = ctx.exploration_space
        layouts = [
            cache.layout
            for p in predictors
            for cache in p._level_caches(space)
        ]
        assert len(set(layouts)) == 1
        points = _strided(space, 1000)
        run_sweep(
            predictors, points, [[TopKReducer()] for _ in predictors],
            block_size=64,
        )
        assert fills == [64] * 15 + [40]

    def test_point_set_decodes_once_across_studies(
        self, test_scale, simulator, monkeypatch
    ):
        """T2, X3 and X9 sweep the exploration set in 7 passes (among
        them the suite's, X9's bootstrap replicates' and the whole-set
        prediction tables); a fresh context decodes its indices into
        levels exactly once."""
        import repro.designspace.pointset as pointset_module
        import repro.studies.common as common_module
        import repro.studies.robustness as robustness_module
        from repro.experiments import run_experiment
        from repro.studies import StudyContext

        fresh = StudyContext(scale=test_scale, simulator=simulator)
        exploration = fresh.exploration_points()
        decoded = []
        original = pointset_module.index_levels
        monkeypatch.setattr(
            pointset_module, "index_levels",
            lambda space, indices: decoded.append(indices)
            or original(space, indices),
        )
        runs = []
        run = sweep_module.run_sweep
        for module in (sweep_module, common_module, robustness_module):
            monkeypatch.setattr(
                module, "run_sweep",
                lambda predictors, points, *args, **kw: runs.append(points)
                or run(predictors, points, *args, **kw),
            )
        for experiment_id in ("T2", "X3", "X9"):
            run_experiment(experiment_id, ctx=fresh)
        assert sum(points is exploration for points in runs) == 7
        assert sum(indices is exploration.indices for indices in decoded) == 1

    def test_points_counter_counts_every_predictor(self, ctx):
        predictors = [ctx.predictor(b) for b in ctx.benchmarks]
        points = _strided(ctx.exploration_space, 300)
        report = run_sweep(
            predictors, points, [[TopKReducer()] for _ in predictors],
            block_size=128,
        )
        counters = report.metrics["counters"]
        assert counters["sweep.points"] == len(predictors) * len(points)
        assert counters["sweep.blocks"] == 3
        assert report.points_per_second > 0

    def test_reducer_lists_must_match_predictors(self, ctx, predictor):
        with pytest.raises(SweepError, match="reducer lists"):
            run_sweep(
                [predictor, predictor], ctx.exploration_points()[:8],
                [[TopKReducer()]],
            )

    def test_context_sweeps_missing_benchmarks_in_one_pass(
        self, test_scale, simulator, monkeypatch
    ):
        """The memo is per benchmark: a suite request after a
        one-benchmark request sweeps only the rest, in one run."""
        import repro.studies.common as common_module
        from repro.studies import StudyContext

        fresh = StudyContext(scale=test_scale, simulator=simulator)
        runs = []
        original = common_module.run_sweep
        monkeypatch.setattr(
            common_module, "run_sweep",
            lambda predictors, *args, **kw: runs.append(
                [p.benchmark for p in predictors]
            ) or original(predictors, *args, **kw),
        )

        def reducers():
            return [TopKReducer()]

        first = fresh.sweep_exploration(["gzip"], reducers)
        suite = fresh.sweep_exploration(fresh.benchmarks, reducers)
        assert runs == [
            ["gzip"], [b for b in fresh.benchmarks if b != "gzip"]
        ]
        assert suite["gzip"][0] is first["gzip"][0]
        assert list(suite) == list(fresh.benchmarks)
        fresh.sweep_exploration(fresh.benchmarks, reducers)
        assert len(runs) == 2


def _old_topk(blocks, metric, k):
    """The full-merge top-k: concatenate every candidate, lexsort."""
    indices = np.array([], dtype=np.int64)
    values = np.array([], dtype=float)
    for block in blocks:
        indices = np.concatenate([indices, block.indices])
        values = np.concatenate([values, block.metric(metric)])
        order = np.lexsort((indices, -values))[:k]
        indices, values = indices[order], values[order]
    return indices, values


def _synthetic_blocks(rng, sizes, nan_share, levels):
    """Blocks of coarse random values: ties and NaNs on purpose."""
    blocks, start = [], 0
    for size in sizes:
        efficiency = rng.integers(0, levels, size).astype(float)
        efficiency[rng.random(size) < nan_share] = np.nan
        bips = rng.random(size)
        blocks.append(
            SweepBlock(
                benchmark="synthetic",
                indices=np.arange(start, start + size, dtype=np.int64),
                bips=bips,
                watts=rng.random(size),
                delay=1.0 / bips,
                efficiency=efficiency,
            )
        )
        start += size
    return blocks


class TestTopKPrefilter:
    """The block prefilter keeps exactly the old full-lexsort result."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("nan_share", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize(
        "sizes", [[50, 50, 7], [1, 2, 1, 40], [2, 2, 2], [300, 1]]
    )
    def test_matches_full_lexsort(self, k, nan_share, sizes):
        rng = np.random.default_rng(len(sizes) * 100 + k)
        for levels in (3, 1000):  # heavy ties at the boundary, then few
            blocks = _synthetic_blocks(rng, sizes, nan_share, levels)
            reducer = TopKReducer(metric="efficiency", k=k)
            for block in blocks:
                reducer.update(block)
            indices, values = _old_topk(blocks, "efficiency", k)
            assert reducer._indices.tobytes() == indices.tobytes()
            assert reducer._state["values"].tobytes() == values.tobytes()
            for name in ("bips", "watts", "delay"):
                whole = np.concatenate([b.metric(name) for b in blocks])
                assert (
                    reducer._state[name].tobytes() == whole[indices].tobytes()
                )


class TestParetoPrefilter:
    """Dropping designs the running candidates strictly dominate leaves
    the frontier of the whole set unchanged."""

    @pytest.mark.parametrize("levels", [4, 50, 100_000])
    @pytest.mark.parametrize("sizes", [[200, 200, 200], [1, 500, 3, 90], [600]])
    def test_matches_discretized_frontier(self, levels, sizes):
        rng = np.random.default_rng(levels + len(sizes))
        n = sum(sizes)
        # Coarse values tie on purpose; power falls with delay, noisily.
        delay = rng.integers(1, levels + 1, n).astype(float)
        power = np.round(1000.0 / delay + rng.integers(0, levels, n))
        reducer = ParetoFrontierReducer(bins=20)
        start = 0
        for size in sizes:
            stop = start + size
            reducer.update(
                SweepBlock(
                    benchmark="synthetic",
                    indices=np.arange(start, stop, dtype=np.int64),
                    bips=1.0 / delay[start:stop],
                    watts=power[start:stop],
                    delay=delay[start:stop],
                    efficiency=power[start:stop],
                )
            )
            start = stop
        kept = sum(chunk.size for chunk in reducer._indices)
        unfiltered = sum(
            int(strict_pareto_mask(delay[a:a + size], power[a:a + size]).sum())
            for a, size in zip(np.cumsum([0] + sizes[:-1]), sizes)
        )
        assert kept <= unfiltered
        expected = discretized_frontier(delay, power, bins=20)
        front = reducer.finalize(PointSet(_toy_space(n), np.arange(n)))
        assert sorted(front.indices.tolist()) == sorted(expected.tolist())

    def test_drops_what_earlier_blocks_dominate(self):
        reducer = ParetoFrontierReducer(bins=4)
        for start, delay, power in [(0, [1.0, 2.0], [5.0, 1.0]),
                                    (2, [3.0, 0.5, 2.0], [2.0, 9.0, 3.0])]:
            reducer.update(
                SweepBlock(
                    benchmark="synthetic",
                    indices=np.arange(start, start + len(delay)),
                    bips=np.ones(len(delay)),
                    watts=np.array(power),
                    delay=np.array(delay),
                    efficiency=np.ones(len(delay)),
                )
            )
        # Nothing in its own block dominates design 2 (delay 3, power 2),
        # but design 1 (2, 1) does; design 4 (2, 3) ties design 1's delay,
        # so it is not strictly dominated and stays.
        assert np.concatenate(reducer._indices).tolist() == [0, 1, 3, 4]


def _toy_space(n):
    """A one-parameter space with at least ``n`` designs."""
    from repro.designspace import DesignSpace, Parameter

    return DesignSpace([Parameter("x", tuple(range(n)))], name="toy")


class TestFrontierMath:
    def test_strict_pareto_mask_keeps_ties(self):
        delay = np.array([1.0, 1.0, 2.0, 3.0])
        power = np.array([5.0, 5.0, 5.0, 4.0])
        mask = strict_pareto_mask(delay, power)
        # both delay=1 ties survive; delay=2/power=5 is only weakly
        # dominated (equal power) and survives; delay=3 improves power.
        assert mask.tolist() == [True, True, True, True]
        mask2 = strict_pareto_mask(
            np.array([1.0, 2.0]), np.array([1.0, 2.0])
        )
        assert mask2.tolist() == [True, False]

    def test_pareto_reexports_preserved(self):
        from repro.studies.pareto import discretized_frontier as df
        from repro.studies.pareto import pareto_indices as pi

        assert df is discretized_frontier
        assert pi is pareto_indices


class TestStudyContextIntegration:
    def test_exploration_sweep_indices_align_with_table(self, ctx):
        """Sweep positions index predict_exploration rows."""
        table = ctx.predict_exploration("gzip")
        front = ctx.sweep_exploration(
            ["gzip"], lambda: [ParetoFrontierReducer(bins=50)]
        )["gzip"][0]
        for idx, point in zip(front.indices, front.points):
            assert table.points[int(idx)] == point

    def test_trace_built_once_per_benchmark(self, test_scale, monkeypatch):
        """Simulating many designs generates the benchmark's trace once."""
        import repro.simulator.simulator as simulator_module
        from repro.simulator import Simulator
        from repro.studies import StudyContext

        fresh = StudyContext(scale=test_scale, simulator=Simulator(),
                             benchmarks=["gzip"])
        calls = []
        original = simulator_module.generate_trace

        def spying_generate_trace(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            simulator_module, "generate_trace", spying_generate_trace
        )
        for point in fresh.exploration_points()[:4]:
            fresh.simulate("gzip", [point])
        fresh.simulate("gzip", list(fresh.exploration_points()[4:8]))
        assert len(calls) == 1
