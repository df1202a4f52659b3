"""Direct tests for ``analysis/scopes.py`` and the context alias maps.

Both feed the dataflow call-graph resolution: the guard-sensitive scope
index keeps the NUM rules quiet on checked code, and the alias maps are
what lets a dotted call target resolve back to its defining module —
including through relative imports and ``import a.b as c`` renames.
"""

import ast
from pathlib import Path

from repro.analysis.context import (
    ModuleContext,
    _collect_aliases,
    _relative_base,
    build_module_context,
    module_name,
)
from repro.analysis.scopes import ScopeIndex


def _ctx(tmp_path, relparts, source):
    path = tmp_path.joinpath(*relparts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    ctx, error = build_module_context(path, tmp_path)
    assert error is None, error
    return ctx


def _nodes(source):
    """A parsed source's nodes, as ``_collect_aliases`` reads them."""
    return ast.walk(ast.parse(source))


class TestAliasMaps:
    def test_plain_and_renamed_imports(self):
        aliases = _collect_aliases(_nodes(
            "import numpy\n"
            "import numpy as np\n"
            "import os.path\n"
            "import xml.etree.ElementTree as ET\n"
        ))
        assert aliases["numpy"] == "numpy"
        assert aliases["np"] == "numpy"
        # Bare ``import a.b`` binds the *root* name a.
        assert aliases["os"] == "os"
        # ``import a.b as c`` binds c to the full dotted target.
        assert aliases["ET"] == "xml.etree.ElementTree"

    def test_from_imports_and_renames(self):
        aliases = _collect_aliases(_nodes(
            "from numpy import random as rnd\n"
            "from os.path import join\n"
        ))
        assert aliases["rnd"] == "numpy.random"
        assert aliases["join"] == "os.path.join"

    def test_star_imports_bind_nothing(self):
        aliases = _collect_aliases(_nodes("from numpy import *\n"))
        assert aliases == {}

    def test_relative_import_in_plain_module(self):
        # repro.harness.widget doing ``from ..obs.metrics import x``.
        aliases = _collect_aliases(
            _nodes("from ..obs.metrics import isolated_registry\n"),
            module="repro.harness.widget",
            is_package=False,
        )
        assert aliases["isolated_registry"] == (
            "repro.obs.metrics.isolated_registry"
        )

    def test_relative_import_in_package_init(self):
        # A package __init__ anchors level 1 at the package itself.
        aliases = _collect_aliases(
            _nodes("from .metrics import counter\n"),
            module="repro.obs",
            is_package=True,
        )
        assert aliases["counter"] == "repro.obs.metrics.counter"

    def test_relative_import_climbing_past_top_is_dropped(self):
        aliases = _collect_aliases(
            _nodes("from ...nowhere import thing\n"),
            module="repro.obs",
            is_package=False,
        )
        assert aliases == {}

    def test_single_dot_sibling_import(self):
        aliases = _collect_aliases(
            _nodes("from . import metrics\n"),
            module="repro.obs.tracing",
            is_package=False,
        )
        assert aliases["metrics"] == "repro.obs.metrics"

    def test_build_module_context_wires_module_and_aliases(self, tmp_path):
        ctx = _ctx(
            tmp_path,
            ("src", "repro", "harness", "widget.py"),
            "from ..obs.metrics import counter\n",
        )
        assert ctx.module == "repro.harness.widget"
        assert ctx.aliases["counter"] == "repro.obs.metrics.counter"

    def test_resolve_through_aliases(self):
        tree = ast.parse("import numpy as np\nnp.random.seed(0)\n")
        ctx = ModuleContext(
            path=Path("m.py"), relpath="m.py", module="m", package="",
            source="", lines=[], tree=tree, is_test=False,
            aliases=_collect_aliases(ast.walk(tree)),
        )
        call = tree.body[1].value
        assert ctx.resolve(call.func) == "numpy.random.seed"
        # A local name that is not imported resolves to nothing.
        other = ast.parse("local.seed(0)").body[0].value
        assert ctx.resolve(other.func) is None

    def test_relative_base_arithmetic(self):
        assert _relative_base("a.b.c", False, 1) == "a.b"
        assert _relative_base("a.b.c", False, 2) == "a"
        assert _relative_base("a.b.c", False, 3) is None
        assert _relative_base("a.b", True, 1) == "a.b"
        assert _relative_base("a.b", True, 2) == "a"
        assert _relative_base("top", False, 1) is None

    def test_module_name_variants(self):
        assert module_name("src/repro/obs/metrics.py") == "repro.obs.metrics"
        assert module_name("src/repro/obs/__init__.py") == "repro.obs"
        assert module_name("harness/state.py") == "harness.state"


class TestScopeIndex:
    def _index(self, source):
        return ScopeIndex(ast.parse(source))

    def _function_scope(self, index, name):
        for scope in index.scopes:
            if getattr(scope.node, "name", None) == name:
                return scope
        raise AssertionError(f"no scope for {name}")

    def test_if_guard_marks_names(self):
        index = self._index(
            "def f(n):\n"
            "    if n > 0:\n"
            "        return 1 / n\n"
            "    return 0.0\n"
        )
        scope = self._function_scope(index, "f")
        assert scope.is_guarded("n")
        assert not scope.is_guarded("m")

    def test_assert_and_comprehension_guards(self):
        index = self._index(
            "def f(xs, d):\n"
            "    assert d != 0\n"
            "    return [x / d for x in xs if x]\n"
        )
        scope = self._function_scope(index, "f")
        assert scope.is_guarded("d")
        assert scope.is_guarded("x")

    def test_clamp_and_validator_calls_guard_arguments(self):
        index = self._index(
            "def f(y, z):\n"
            "    y = max(y, 1e-9)\n"
            "    _check_positive(z)\n"
            "    return y + z\n"
        )
        scope = self._function_scope(index, "f")
        assert scope.is_guarded("y")
        assert scope.is_guarded("z")

    def test_nested_function_inherits_enclosing_guards(self):
        index = self._index(
            "def outer(n):\n"
            "    if n:\n"
            "        def inner(x):\n"
            "            return x / n\n"
            "        return inner\n"
            "    return None\n"
        )
        inner = self._function_scope(index, "inner")
        assert inner.is_guarded("n")
        # The module scope saw no guard on n.
        assert not index.scopes[0].is_guarded("n")

    def test_domain_error_handler_guards_everything(self):
        index = self._index(
            "def f(a, b):\n"
            "    try:\n"
            "        return a / b\n"
            "    except ZeroDivisionError:\n"
            "        return 0.0\n"
        )
        scope = self._function_scope(index, "f")
        assert scope.handles_domain_errors
        assert scope.is_guarded("anything")

    def test_assigned_value_lookup_walks_parents(self):
        index = self._index(
            "EPS = 1e-9\n"
            "def f(x):\n"
            "    y = x + EPS\n"
            "    return y\n"
        )
        scope = self._function_scope(index, "f")
        assert isinstance(scope.assigned_value("y"), ast.BinOp)
        assert isinstance(scope.assigned_value("EPS"), ast.Constant)
        assert scope.assigned_value("nope") is None

    def test_scope_of_maps_nodes_to_nearest_function(self):
        tree = ast.parse(
            "def f():\n"
            "    return 1\n"
        )
        index = ScopeIndex(tree)
        ret = tree.body[0].body[0]
        assert index.scope_of(ret).node is tree.body[0]
