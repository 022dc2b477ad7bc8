"""The package's public surface: every exported name resolves, removed names stay gone."""

import importlib

import pytest

MODULES = ("affineflow",) + tuple(
    f"affineflow.{m}" for m in ("cli", "config", "core", "empirical", "flow", "models",
                                "movingframe", "regularity", "verify"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_removed_names_are_gone():
    for name in MODULES:
        module = importlib.import_module(name)
        for removed in ("exp_functional", "in_domain", "as_flow_source"):
            assert not hasattr(module, removed), (name, removed)
