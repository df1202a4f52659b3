"""Tests for the interprocedural dataflow layer.

Covers the per-function summaries, call-graph resolution (including
re-exports through package ``__init__`` alias maps), pool-entrypoint
detection, reachability, the RNG-factory fixpoint, the content-keyed
summary cache, and the runner's single walk per module.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    UsageError,
    analyze_paths,
    build_index,
    collect_files,
    dataflow_index,
    summarize_module,
)
from repro.analysis.context import build_module_context
from repro.analysis.dataflow import ModuleSummary, cache_key
from repro.analysis.scopes import ScopeIndex

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def _summary(tmp_path, relparts, source):
    path = tmp_path.joinpath(*relparts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    ctx, error = build_module_context(path, tmp_path)
    assert error is None, error
    return summarize_module(ctx)


def _tree(tmp_path, files):
    for relparts, source in files.items():
        path = tmp_path.joinpath(*relparts.split("/"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


class TestSummaries:
    def test_module_level_facts(self, tmp_path):
        summary = _summary(tmp_path, ("mod.py",), (
            '"""Doc."""\n'
            "REGISTRY = {}\n"
            "LIMIT = 3\n"
            "\n"
            "def f():\n"
            "    return LIMIT\n"
            "\n"
            "class Holder:\n"
            "    slots = []\n"
        ))
        assert summary.module == "mod"
        assert summary.mutable_globals == ("REGISTRY",)
        assert summary.defs == {"f": "mod.f", "Holder": "mod.Holder"}
        assert summary.classes["Holder"].mutable_attrs == ("slots",)

    def test_global_write_kinds(self, tmp_path):
        summary = _summary(tmp_path, ("mod.py",), (
            "COUNT = 0\n"
            "CACHE = {}\n"
            "\n"
            "def bump():\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "\n"
            "def reset():\n"
            "    global COUNT\n"
            "    COUNT = 0\n"
            "\n"
            "def stash(k, v):\n"
            "    CACHE[k] = v\n"
        ))
        by_name = {f.name: f for f in summary.functions}
        assert [(w.name, w.kind) for w in by_name["bump"].global_writes] == [
            ("COUNT", "augment")
        ]
        assert [(w.name, w.kind) for w in by_name["reset"].global_writes] == [
            ("COUNT", "rebind")
        ]
        assert [(w.name, w.kind) for w in by_name["stash"].global_writes] == [
            ("CACHE", "mutate")
        ]

    def test_local_shadow_is_not_a_global_write(self, tmp_path):
        summary = _summary(tmp_path, ("mod.py",), (
            "CACHE = {}\n"
            "\n"
            "def pure():\n"
            "    CACHE = {}\n"
            "    CACHE['k'] = 1\n"
            "    return CACHE\n"
        ))
        fn = summary.functions[0]
        assert fn.global_writes == ()

    def test_param_mutations(self, tmp_path):
        summary = _summary(tmp_path, ("mod.py",), (
            "def impure(bucket, block):\n"
            "    bucket.append(1)\n"
            "    block.bips[0] = 0.0\n"
            "    return bucket\n"
        ))
        fn = summary.functions[0]
        assert [(m.name, m.how) for m in fn.param_mutations] == [
            ("block", "item"),
            ("bucket", "method:append"),
        ] or [(m.name, m.how) for m in fn.param_mutations] == [
            ("bucket", "method:append"),
            ("block", "item"),
        ]

    def test_rng_events_and_escapes(self, tmp_path):
        summary = _summary(tmp_path, ("mod.py",), (
            "import numpy as np\n"
            "\n"
            "def factory(seed=None):\n"
            "    return np.random.default_rng(seed)\n"
            "\n"
            "def fixed():\n"
            "    rng = np.random.default_rng(7)\n"
            "    return rng\n"
            "\n"
            "def local_only():\n"
            "    rng = np.random.default_rng(3)\n"
            "    return float(rng.normal())\n"
        ))
        by_name = {f.name: f for f in summary.functions}
        factory_event = by_name["factory"].rng[0]
        assert factory_event.seed == "param:seed"
        assert "return" in factory_event.escapes
        fixed_event = by_name["fixed"].rng[0]
        assert fixed_event.seed == "literal"
        assert "return" in fixed_event.escapes
        assert by_name["local_only"].rng[0].escapes == ()

    def test_nested_functions_get_qualnames(self, tmp_path):
        summary = _summary(tmp_path, ("mod.py",), (
            "def outer(trace):\n"
            "    def build():\n"
            "        return 1\n"
            "    return trace.derived(('k',), build)\n"
        ))
        names = {f.qualname for f in summary.functions}
        assert names == {"mod.outer", "mod.outer.build"}
        outer = next(f for f in summary.functions if f.name == "outer")
        derived_call = next(
            c for c in outer.calls if c.target.endswith("derived")
        )
        refs = [a.ref for a in derived_call.args if a.ref]
        assert refs == ["mod.outer.build"]

    def test_roundtrip_through_dict(self, tmp_path):
        summary = _summary(tmp_path, ("pkg", "mod.py"), (
            "import numpy as np\n"
            "STATE = []\n"
            "\n"
            "def f(seed=None):\n"
            "    STATE.append(seed)\n"
            "    return np.random.default_rng(seed)\n"
        ))
        rebuilt = ModuleSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert rebuilt == summary


class TestGraph:
    def test_resolution_follows_package_reexports(self, tmp_path):
        root = _tree(tmp_path, {
            "pkg/__init__.py": "from .impl import helper\n",
            "pkg/impl.py": "def helper():\n    return 1\n",
            "caller.py": (
                "from pkg import helper\n"
                "\n"
                "def go():\n"
                "    return helper()\n"
            ),
        })
        index = dataflow_index([root], root=root)
        assert index.calls["caller.go"] == ("pkg.impl.helper",)

    def test_chunktask_positional_and_kwarg_entrypoints(self, tmp_path):
        root = _tree(tmp_path, {
            "flow.py": (
                "from tasks import ChunkTask\n"
                "\n"
                "def work(chunk):\n"
                "    return chunk\n"
                "\n"
                "def other(chunk):\n"
                "    return chunk\n"
                "\n"
                "def drive(chunks):\n"
                "    first = [ChunkTask(i, work, (c,)) for i, c in "
                "enumerate(chunks)]\n"
                "    second = [ChunkTask(index=0, fn=other, args=(c,)) "
                "for c in chunks]\n"
                "    return first + second\n"
            ),
            "tasks.py": (
                "class ChunkTask:\n"
                "    def __init__(self, index, fn, args):\n"
                "        self.index = index\n"
                "        self.fn = fn\n"
                "        self.args = args\n"
            ),
        })
        index = dataflow_index([root], root=root)
        assert index.entrypoints == ("flow.other", "flow.work")

    def test_reachability_reports_originating_entrypoint(self, tmp_path):
        root = _tree(tmp_path, {
            "m.py": (
                "def worker(c):\n"
                "    return helper(c)\n"
                "\n"
                "def helper(c):\n"
                "    return deep(c)\n"
                "\n"
                "def deep(c):\n"
                "    return c\n"
                "\n"
                "def unrelated():\n"
                "    return 0\n"
            ),
        })
        index = dataflow_index([root], root=root)
        origin = index.reachable_from(("m.worker",))
        assert origin == {
            "m.worker": "m.worker",
            "m.helper": "m.worker",
            "m.deep": "m.worker",
        }

    def test_graph_json_shape(self, tmp_path):
        root = _tree(tmp_path, {
            "a.py": "def f():\n    return 1\n",
        })
        payload = dataflow_index([root], root=root).to_json()
        assert set(payload) == {
            "modules", "imports", "calls", "entrypoints",
            "rng_factories", "memo_registered",
        }

    def test_rng_factory_fixpoint_follows_forwarders(self):
        root = FIXTURES / "rng_escape"
        index = dataflow_index([root], root=root)
        assert set(index.rng_factories) == {
            "factory.make_rng", "factory.forward_rng",
        }
        forward = index.rng_factories["factory.forward_rng"]
        assert forward.seed_param == "seed"
        assert forward.none_default


class TestSummaryCache:
    def _source(self, tag="v1"):
        return f'"""Doc {tag}."""\n\nVALUE = 1\n'

    def test_cold_then_warm_run(self, tmp_path):
        root = _tree(tmp_path, {"src/a.py": self._source()})
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        assert cold.cache_hits == 0
        warm = analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        assert warm.cache_hits == 1
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_edit_invalidates_only_the_edited_file(self, tmp_path):
        root = _tree(tmp_path, {
            "src/a.py": self._source(),
            "src/b.py": self._source(),
        })
        cache_dir = tmp_path / "cache"
        analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        (root / "src" / "a.py").write_text(self._source("v2"))
        rerun = analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        assert rerun.cache_hits == 1  # b.py only

    def test_rule_selection_changes_the_key(self, tmp_path):
        source = self._source()
        assert cache_key("a.py", source.encode(), ("DET001",)) != cache_key(
            "a.py", source.encode(), ("DET001", "HYG001")
        )
        assert cache_key("a.py", source.encode(), ("DET001",)) != cache_key(
            "b.py", source.encode(), ("DET001",)
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        root = _tree(tmp_path, {"src/a.py": self._source()})
        cache_dir = tmp_path / "cache"
        analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{not json")
        rerun = analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        assert rerun.cache_hits == 0
        # And the corrupt entries were rewritten with good payloads.
        again = analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        assert again.cache_hits == 1

    def test_cached_findings_round_trip_through_baseline(self, tmp_path):
        root = _tree(tmp_path, {
            "src/bad.py": (
                '"""Doc."""\n\nimport numpy as np\n\nnp.random.seed(0)\n'
            ),
        })
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([root / "src"], root=root, cache_dir=cache_dir)
        assert [f.rule for f in cold.findings] == ["DET001"]
        baseline = Baseline.from_findings(cold.findings, reason="accepted")
        warm = analyze_paths(
            [root / "src"], root=root, cache_dir=cache_dir, baseline=baseline
        )
        assert warm.cache_hits == 1
        assert warm.findings == []
        assert len(warm.suppressed) == 1


class TestSinglePass:
    def test_each_module_tree_is_walked_once(self, monkeypatch):
        walked = []
        scope_builds = []
        walk = ast.walk
        build_scopes = ScopeIndex.__init__

        def counting_walk(node):
            if isinstance(node, ast.Module):
                walked.append(node)
            return walk(node)

        def counting_build(self, tree):
            scope_builds.append(tree)
            build_scopes(self, tree)

        monkeypatch.setattr(ast, "walk", counting_walk)
        monkeypatch.setattr(ScopeIndex, "__init__", counting_build)
        report = analyze_paths([FIXTURES], root=FIXTURES)
        files = len(collect_files([FIXTURES]))
        assert report.files_analyzed == files
        assert not [f for f in report.findings if f.rule == "PARSE"]
        assert len(walked) == files
        assert len(scope_builds) == files


class TestCollectFilesUsage:
    def test_explicit_non_python_file_raises_usage_error(self, tmp_path):
        notes = tmp_path / "notes.md"
        notes.write_text("# notes\n")
        with pytest.raises(UsageError):
            collect_files([notes])

    def test_directories_and_py_files_still_collect(self, tmp_path):
        (tmp_path / "a.py").write_text("X = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.py").write_text("Y = 2\n")
        (sub / "data.json").write_text("{}")
        files = collect_files([tmp_path / "a.py", sub])
        assert [f.name for f in files] == ["a.py", "b.py"]


class TestProjectRulesOnRealTree:
    """The new rules' verdict on today's src/ is part of the contract."""

    REPO = Path(__file__).resolve().parents[1]

    def test_src_entrypoints_are_the_known_worker_mains(self):
        # The campaign's chunk worker and the executor's entrypoint
        # that wraps every chunk.
        index = dataflow_index([self.REPO / "src"], root=self.REPO)
        assert index.entrypoints == (
            "repro.harness.campaign._simulate_chunk",
            "repro.harness.resilience._run_chunk",
        )

    def test_isolated_registry_swap_is_reachable_from_workers(self):
        index = dataflow_index([self.REPO / "src"], root=self.REPO)
        origin = index.reachable_from()
        assert "repro.obs.metrics.isolated_registry" in origin
