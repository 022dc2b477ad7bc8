"""The benchmark's tracer binds to package names; keep them resolvable.

``perfbench/tracer.py`` wraps every function named in its ``SPANNED`` table
and reads each sampler's ``sample_chunk`` arguments by position.  A rename
or deletion would otherwise surface only when a traced benchmark pass fails.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from affineflow import models

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_resolve(tracer):
    missing = [f"{layer}.{name}" for layer, names in tracer.SPANNED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"affineflow.{layer}"), name, None))]
    assert missing == []


def test_sample_chunk_takes_x0_times_rngs(tracer):
    samplers = [cls for cls in vars(models).values()
                if isinstance(cls, type) and "sample_chunk" in vars(cls)]
    assert set(tracer.SAMPLERS) <= {cls.__name__ for cls in samplers}
    for cls in samplers:
        params = list(inspect.signature(cls.sample_chunk).parameters)
        assert params == ["self", "x0", "times", "rngs"], cls.__name__
