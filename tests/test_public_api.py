"""Meta-tests on the public API surface.

Catches wiring mistakes early: every name in every subpackage's
``__all__`` must resolve, carry a docstring, and re-exports must point
at the same objects.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.generators",
    "repro.datasets",
    "repro.markov",
    "repro.mixing",
    "repro.cores",
    "repro.expansion",
    "repro.sybil",
    "repro.community",
    "repro.digraph",
    "repro.dynamics",
    "repro.dht",
    "repro.anonymity",
    "repro.dtn",
    "repro.analysis",
    "repro.store",
    "repro.pipeline",
    "repro.telemetry",
    "repro.privacy",
    "repro.serve",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_exported_callables_have_docstrings(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{package}.{name} lacks a docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"


def test_top_level_reexports_are_identical_objects():
    import repro
    from repro.cores import core_decomposition
    from repro.datasets import load_dataset
    from repro.graph import Graph
    from repro.mixing import slem

    assert repro.Graph is Graph
    assert repro.load_dataset is load_dataset
    assert repro.slem is slem
    assert repro.core_decomposition is core_decomposition


def test_errors_hierarchy():
    from repro import errors

    subclasses = [
        errors.GraphError,
        errors.NodeNotFoundError,
        errors.EmptyGraphError,
        errors.GeneratorError,
        errors.DatasetError,
        errors.ConvergenceError,
        errors.SybilDefenseError,
        errors.ServeError,
        errors.StoreError,
        errors.PipelineError,
    ]
    for exc in subclasses:
        assert issubclass(exc, errors.ReproError), exc
    # catching the base must catch everything the library raises
    with pytest.raises(errors.ReproError):
        raise errors.NodeNotFoundError(5, 3)


def test_version_matches_pyproject():
    import re
    from pathlib import Path

    import repro

    pyproject = (Path(repro.__file__).parents[2] / "pyproject.toml").read_text()
    declared = re.search(r'version = "([^"]+)"', pyproject).group(1)
    assert repro.__version__ == declared
