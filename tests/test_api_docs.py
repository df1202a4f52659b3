"""Meta-tests: public API hygiene.

Every public module carries a docstring; everything exported through an
``__all__`` exists and is documented.  These tests keep the library
honest as it grows.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.designspace",
    "repro.workloads",
    "repro.simulator",
    "repro.power",
    "repro.regression",
    "repro.cluster",
    "repro.metrics",
    "repro.obs",
    "repro.studies",
    "repro.harness",
    "repro.baselines",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                yield importlib.import_module(f"{package_name}.{info.name}")


ALL_MODULES = list({module.__name__: module for module in iter_modules()}.values())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize(
    "package_name",
    [name for name in PACKAGES if name != "repro"],
)
def test_all_exports_exist_and_documented(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"
        item = getattr(package, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            assert item.__doc__ and item.__doc__.strip(), (
                f"{package_name}.{name} lacks a docstring"
            )


def test_public_classes_have_documented_public_methods():
    from repro.designspace import DesignSpace
    from repro.regression import FittedModel
    from repro.simulator import MachineConfig, Simulator
    from repro.studies import StudyContext

    for cls in (DesignSpace, Simulator, MachineConfig, FittedModel, StudyContext):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


def test_version_exported():
    assert repro.__version__


def test_import_repro_leaves_the_analyzer_unloaded():
    """``import repro`` and a study context load no part of the static
    analyzer: it serves ``repro analyze`` only, which imports it itself."""
    src = Path(repro.__file__).resolve().parent.parent
    code = (
        "import sys, repro\n"
        "from repro.harness import get_scale\n"
        "from repro.studies import StudyContext\n"
        "StudyContext(scale=get_scale('ci'))\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
