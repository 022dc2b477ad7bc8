"""The benchmark's tracer binds to package names; keep them resolvable.

``perfbench/tracer.py`` wraps every function named in its ``SPANNED`` table,
reads each sampler's ``sample_chunk`` arguments by position and counts flow
solves from ``flow_on_grid``'s arguments and result.  A rename, a moved
argument or a renamed field would otherwise surface only when a traced
benchmark pass fails.  The benchmark's workloads also call a few functions
directly; their call shapes are pinned at the end.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from affineflow import flow, models, movingframe, regularity, verify
from affineflow.core import Dims, Tolerances

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


def test_sample_grid_hands_each_sampler_a_list_of_generators(levy, cir, heston0, control,
                                                            monkeypatch):
    """The tracer counts ``models.streams`` as ``len(rngs)`` for lists and tuples only."""
    monkeypatch.setattr(models, "BLOCK_PATHS", 3)
    monkeypatch.setattr(models, "CHUNK_PATHS", 12)
    for model in (levy, cir, heston0, control):
        seen = []
        sample_chunk = type(model.sampler).sample_chunk

        def recording(self, x0, times, rngs, sample_chunk=sample_chunk, seen=seen):
            seen.append(rngs)
            return sample_chunk(self, x0, times, rngs)

        # replace the class attribute, as the tracer does
        monkeypatch.setattr(type(model.sampler), "sample_chunk", recording)
        models.sample_grid(model, model.x0_default, [0.0, 0.5], 28, seed=3)
        assert [len(r) for r in seen] == [4, 4, 2], model.name
        assert all(type(r) is list and all(type(g) is np.random.Generator for g in r)
                   for r in seen), model.name


def test_transformed_source_hook_and_the_base_sampler_calls(tracer, heston1, monkeypatch):
    """The tracer wraps the returned source; the base sampler sees the fine grid in chunks."""
    frame = movingframe.build_frame(heston1.beta, heston1.dims)
    source = movingframe.transformed_state_source(heston1, frame, internal_dt=0.05)
    record = np.array([0.0, 0.25, 0.5])
    t = tracer.Tracer()
    traced = t._after_transformed_source((heston1, frame), {}, source)
    with t.operation("op"):
        assert np.array_equal(traced([0.3, 0.5], record, 10, 6), source([0.3, 0.5], record, 10, 6))

    monkeypatch.setattr(models, "BLOCK_PATHS", 3)
    monkeypatch.setattr(models, "CHUNK_PATHS", 12)
    seen = []
    sample_chunk = type(heston1.sampler).sample_chunk

    def recording(self, x0, times, rngs):
        seen.append((np.array(times), rngs))
        return sample_chunk(self, x0, times, rngs)

    monkeypatch.setattr(type(heston1.sampler), "sample_chunk", recording)
    source([0.3, 0.5], record, 28, 6)
    assert [len(rngs) for _, rngs in seen] == [4, 4, 2]
    assert all(np.array_equal(times, models.uniform_times(0.5, 0.05)) for times, _ in seen)
    assert all(type(rngs) is list and all(type(g) is np.random.Generator for g in rngs)
               for _, rngs in seen)


def test_flow_on_grid_hook_reads_u_grid_evals_and_errors(tracer):
    assert list(inspect.signature(flow.flow_on_grid).parameters)[3] == "u_grid"

    def F(u):  # lane 0 ordinary, lane 1 exits (F = -1200), lane 2 goes non-finite
        u0 = u[..., 0]
        return np.where(u0.imag > 0.5, np.nan, np.where(u0.real < -1.5, -1200.0, -1.0)) + 0j

    gen = models.GeneratorPair(F=F, R=lambda u: np.zeros(np.shape(u), dtype=np.complex128))
    args = (gen, Dims(1, 0), [0.0, 1.0], [np.array([-1.0]), np.array([-2.0])])
    grid = flow.flow_on_grid(*args)
    t = tracer.Tracer()
    with t.operation("op"):
        assert t._after_flow_on_grid(args, {}, grid) is grid
    assert (t.counters["flow.solves"], t.counters["flow.exits"], t.counters["flow.errors"]) == (2, 1, 0)

    # a failed lane fails the call, and the flow span counts the error it raises
    t._flow_error = flow.FlowIntegrationError  # what install() sets, without wrapping the package
    traced = t.wrap(flow.flow_on_grid, "flow.flow_on_grid", "flow", t._after_flow_on_grid)
    with t.operation("op"), pytest.raises(flow.FlowIntegrationError, match="u index 2"):
        traced(gen, Dims(1, 0), [0.0, 1.0], args[3] + [np.array([-1.0 + 1j])])
    assert t.counters["flow.errors"] == 1 and t.counters["flow.solves"] == 2


# ---------------------------------------------------------------------------
# calls the benchmark's workloads make into the package (perfbench/bench_pass.py)
# and argument positions its tracer reads


def test_pq_recursion_n_is_parameter_4_and_the_tracer_counts_its_steps(tracer, heston1):
    """The tracer reads N at position 4 and counts N - 1 recursion steps per call."""
    assert list(inspect.signature(movingframe.pq_recursion).parameters)[4] == "N"
    frame = movingframe.build_frame(heston1.beta, heston1.dims)
    args = (flow.flow_source_for(heston1), frame, 0.5, [np.array([0.4j, 0.5j])], 8)
    state = movingframe.pq_recursion(*args)
    t = tracer.Tracer()
    with t.operation("op"):
        assert t._after_pq_recursion(args, {}, state) is state
    assert t.counters["movingframe.pq_steps"] == 7


def test_estimate_fr_takes_h_schedule_and_dims(cir):
    source = flow.flow_source_for(cir, prefer_closed=True)
    est = regularity.estimate_FR(source, np.array([-1.0 + 0j]),
                                 h_schedule=(1e-2, 5e-3, 2.5e-3), dims=cir.dims)
    assert abs(est.F_hat - cir.gen.F(est.u)) < 1e-6


def test_probe_samplers_take_dims_count_rng(heston0):
    for sampler in (verify.sample_interior_points, verify.sample_imaginary_points):
        points = sampler(heston0.dims, 3, np.random.default_rng(0))
        assert len(points) == 3 and all(p.shape == (2,) for p in points)


def test_closed_source_and_closed_flow_fields(cir):
    source = flow.flow_source_for(cir, Tolerances(ode_rel=1e-10, ode_abs=1e-12), prefer_closed=True)
    assert callable(source.on_grid)
    ev = cir.closed_flow(0.5, np.array([-1.0 + 0j]))
    assert isinstance(ev.phi, complex) and ev.psi.shape == (1,)
