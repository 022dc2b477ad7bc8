"""Catalog models and samplers: exactness, seeding, windows."""

import math
import types

import numpy as np
import pytest

from affineflow import models
from affineflow.core import Dims
from affineflow.empirical import ecf_from_states
from affineflow.flow import flow_on_grid
from affineflow.models import (
    make_cir,
    make_heston_like,
    make_levy,
    model_from_spec,
    sample_grid,
    simulate,
    uniform_times,
)


def test_uniform_times():
    grid = uniform_times(1.0, 0.25)
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        uniform_times(1.0, 0.3)  # horizon off the grid
    with pytest.raises(ValueError):
        uniform_times(0.0, 0.1)
    with pytest.raises(ValueError):
        uniform_times(1.0, -0.1)


def test_catalog_metadata(levy, cir, heston0, heston1, control):
    assert levy.dims == Dims(0, 2) and np.array_equal(levy.beta, np.zeros((2, 2)))
    assert cir.dims == Dims(1, 0) and cir.beta.shape == (0, 0)
    assert np.allclose(heston0.beta, [[0.0]])
    assert np.allclose(heston1.beta, [[-1.0]])
    assert heston1.closed_flow is None and heston0.closed_flow is not None
    assert cir.sampler_kind == "exact"
    assert heston0.sampler_kind.startswith("euler")
    assert control.gen is None and control.beta is None
    assert control.x0_default == pytest.approx([0.7])


def test_factory_validation():
    with pytest.raises(ValueError):
        make_cir(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_cir(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        make_levy([0.0], [[-1.0]])  # negative "covariance"
    with pytest.raises(ValueError):
        make_levy([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        make_levy([0.0, 0.0], [[1.0]])  # shape mismatch
    with pytest.raises(ValueError):
        make_heston_like(0.4, 0.6, 0.5, 1.5, 0.0)  # |rho| > 1
    with pytest.raises(ValueError):
        make_heston_like(-0.4, 0.6, 0.5, 0.0, 0.0)


def test_model_from_spec():
    model = model_from_spec("cir", {"a": 1.0, "b": 1.0, "sigma": 1.0})
    assert model.name == "cir" and model.params["a"] == 1.0
    assert model_from_spec("nonaffine_control").dims == Dims(0, 1)
    with pytest.raises(ValueError, match="known"):
        model_from_spec("vasicek")


def test_cir_paths_stay_on_halfline(cir):
    times = uniform_times(1.0, 0.1)
    vals = sample_grid(cir, [1.0], times, 10_000, seed=3)
    assert vals.shape == (10_000, 11, 1)
    assert np.min(vals) >= 0.0
    assert np.all(np.isfinite(vals))


def test_seed_determinism(heston0):
    times = uniform_times(0.5, 0.25)
    a = sample_grid(heston0, [0.3, 0.0], times, 16, seed=9)
    b = sample_grid(heston0, [0.3, 0.0], times, 16, seed=9)
    c = sample_grid(heston0, [0.3, 0.0], times, 16, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chunk_size_never_changes_results(levy, monkeypatch):
    monkeypatch.setattr(models, "BLOCK_PATHS", 2)
    times = uniform_times(1.0, 0.5)
    whole = sample_grid(levy, [0.0, 0.0], times, 10, seed=4, path_offset=1)
    monkeypatch.setattr(models, "CHUNK_PATHS", 4)
    chunked = sample_grid(levy, [0.0, 0.0], times, 10, seed=4, path_offset=1)
    assert np.array_equal(chunked, whole)


def test_window_equals_slice_of_full_run(heston0, monkeypatch):
    """A window starting and ending inside blocks, across a chunk boundary, is a slice."""
    monkeypatch.setattr(models, "BLOCK_PATHS", 4)
    monkeypatch.setattr(models, "CHUNK_PATHS", 8)
    times = uniform_times(0.5, 0.25)
    full = sample_grid(heston0, [0.3, 0.0], times, 24, seed=5)
    win = sample_grid(heston0, [0.3, 0.0], times, 14, seed=5, path_offset=5)
    assert np.array_equal(win, full[5:19])


def test_window_validation(levy):
    times = uniform_times(1.0, 0.5)
    with pytest.raises(ValueError):
        sample_grid(levy, [0.0, 0.0], times, 8, seed=1, path_offset=-1)
    with pytest.raises(ValueError):
        sample_grid(levy, [0.0, 0.0], times, 0, seed=1)
    with pytest.raises(ValueError):
        sample_grid(levy, [0.0, 0.0], [0.0], 4, seed=1)  # need two record times
    with pytest.raises(ValueError):
        sample_grid(levy, [0.0, 0.0], [0.1, 0.5], 4, seed=1)  # must start at 0


@pytest.mark.parametrize("name", ["cir", "levy", "heston0", "control"])
def test_block_b_draws_from_spawned_stream_b(name, cir, levy, heston0, control):
    """A window across a block and a ``CHUNK_PATHS`` boundary; block b reads stream b alone."""
    model = {"cir": cir, "levy": levy, "heston0": heston0, "control": control}[name]
    x0, times, seed = model.x0_default, np.array([0.0, 0.1, 0.35]), 20240
    lo, n = models.CHUNK_PATHS - models.BLOCK_PATHS - 5, models.BLOCK_PATHS + 10
    first = lo // models.BLOCK_PATHS
    streams = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
               for b in range(first, first + 3)]
    expected = model.sampler.sample_chunk(x0, times, streams)
    start = lo - first * models.BLOCK_PATHS
    assert np.array_equal(sample_grid(model, x0, times, n, seed, path_offset=lo),
                          expected[start:start + n])


def test_increment_walks_equal_the_start_plus_a_cumsum(levy, control):
    """The Gaussian and control walks sum their increments per step, as np.cumsum does."""
    times = np.array([0.0, 0.1, 0.25, 0.3, 0.5])
    dts = np.diff(times)
    for model, x0 in ((levy, np.array([0.3, -0.2])), (control, np.array([0.7]))):
        xi = np.empty((2, models.BLOCK_PATHS, len(dts), model.dims.d))
        for b, block in enumerate(xi):
            np.random.default_rng(b).standard_normal(out=block)
        xi = xi.reshape(-1, len(dts), model.dims.d)
        if model is levy:
            scaled = xi @ levy.sampler.scale.T
            incr = dts[:, None] * levy.sampler.drift + scaled * np.sqrt(dts)[:, None]
            expected = x0 + np.cumsum(incr, axis=1)
        else:
            expected = x0[0] ** 2 + np.cumsum(xi[..., 0] * np.sqrt(dts), axis=1)[..., None]
        rngs = [np.random.default_rng(b) for b in range(2)]
        walked = np.stack([x.copy() for x in model.sampler.walk(x0, times, rngs)], axis=1)
        assert np.array_equal(walked, expected), model.name


@pytest.mark.parametrize("times, nodes, counts", [
    # 21 one-substep intervals, 42 rows: they cross the noise window
    (np.cumsum(np.r_[0.0, np.tile([0.0005, 0.001, 0.0008], 7)]), range(1, 22), [1] * 21),
    # one-node intervals of several substeps: 52 substeps, 56 rows
    (np.array([0.0, 0.0025, 0.0035, 0.01, 0.05]), range(1, 5), [3, 1, 7, 40]),
    # two substeps per step; 30 xi1 rows, 37 rows in all
    (uniform_times(0.03, 0.002), [4, 5, 9, 15], [2] * 15),
    # one substep per step; zeta1 is row 31, the window's last, and the refill
    # at zeta2 rewrites the whole window
    (uniform_times(0.06, 0.001), [1, 13, 14, 27, 60], [1] * 60),
], ids=["one-substep", "one-node", "two-substeps", "window-edge"])
def test_heston_walk_integrals_equal_the_plain_formula(heston1, times, nodes, counts):
    """Every record interval gives the bits of one conditional-Gaussian formula.

    Each substep reads an xi1 row and steps y without the interval's W2 part
    G.  After the interval's xi1 rows, zeta1 adds G = sqrt(var) zeta1; an
    interval of several steps also leaves the W2 part H out of y's integral
    and reads zeta2 for it.  The integral is the left rule over every step
    of ``times``.
    """
    sampler, x0, nodes = heston1.sampler, np.array([0.02, 0.4]), list(nodes)
    dts, plan = sampler._substep_plan(times)
    assert list(plan) == counts
    spans = np.diff([0] + nodes)
    rows = sum(counts[:nodes[-1]]) + int(np.sum(np.where(spans > 1, 2, 1)))
    assert rows > 32  # the noise window refills within the walk
    streams = [np.random.default_rng(b) for b in range(2)]
    noise = [rng.standard_normal((rows, models.BLOCK_PATHS)) for rng in streams]
    pos = 0

    def row():
        nonlocal pos
        pos += 1
        return np.stack([block[pos - 1] for block in noise])

    shape = (2, models.BLOCK_PATHS)
    v, y = np.full(shape, x0[0]), np.full(shape, x0[1])
    iv, iy = np.zeros(shape), np.zeros(shape)
    expected, i = [], 0
    for node in nodes:
        joint = node - i > 1
        var, cov, var_h = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        for k in range(i, node):
            dt, count = dts[k], counts[k]
            iv = iv + np.maximum(v, 0.0) * dt
            iy = iy + y * dt
            var_h = var_h + 2.0 * dt * cov + dt * dt * var
            cov = cov + dt * var
            eta = dt / count
            decay = 1.0 - sampler.lam * eta
            for _ in range(count):
                vp = np.maximum(v, 0.0)
                dw1 = np.sqrt(vp) * math.sqrt(eta) * row()
                v = v + (sampler.a * eta - (sampler.b * eta) * vp + sampler.sigma * dw1)
                y = y * decay + sampler.rho * dw1
                var = var * (decay * decay) + (sampler.rho_c**2 * eta) * vp
                cov = cov * decay
        sd = np.sqrt(var)
        zeta1 = row()
        y = y + sd * zeta1
        if joint:
            coef = cov / sd
            resid = np.sqrt(np.maximum(var_h - coef * coef, 0.0))
            iy = iy + (coef * zeta1 + resid * row())
        expected.append((np.stack((np.maximum(v, 0.0), y), axis=-1).reshape(-1, 2),
                         np.stack((iv, iy), axis=-1).reshape(-1, 2)))
        i = node
    rngs = [np.random.default_rng(b) for b in range(2)]
    walked = [(x.copy(), a.copy()) for x, a in sampler.walk_integrals(x0, times, nodes, rngs)]
    assert pos == rows and len(walked) == len(expected)
    for (got_x, got_a), (want_x, want_a) in zip(walked, expected):
        assert np.array_equal(got_x, want_x) and np.array_equal(got_a, want_a)


def test_heston_walk_integrals_without_volatility_draw_no_w2_part():
    """At a = 0 from v = 0 no noise enters: G = H = 0 and no NaN, so a long record
    interval gives the bits of one-step intervals, which draw no zeta2 row."""
    sampler = make_heston_like(a=0.0, b=0.6, sigma=0.5, rho=-0.5, lam=1.0).sampler
    x0, times = np.array([0.0, 0.4]), uniform_times(0.05, 0.005)
    with np.errstate(invalid="raise", divide="raise"):
        joint = [(x.copy(), a.copy()) for x, a in
                 sampler.walk_integrals(x0, times, [4, 10], [np.random.default_rng(0)])]
        rngs = [np.random.default_rng(1)]
        steps = [(x.copy(), a.copy()) for x, a in sampler.walk_integrals(x0, times, range(1, 11), rngs)]
    for (x, a), (x_ref, a_ref) in zip(joint, [steps[3], steps[9]]):
        assert np.all(x[:, 0] == 0.0) and np.all(np.isfinite(a))
        assert np.array_equal(x, x_ref) and np.array_equal(a, a_ref)

def test_seed_sequence_root_spawns_its_block_streams(levy):
    root = np.random.SeedSequence(9).spawn(4)[3]
    stream = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(3, 2)))
    expected = levy.sampler.sample_chunk(levy.x0_default, np.array([0.0, 1.0]), [stream])
    offset = 2 * models.BLOCK_PATHS
    got = sample_grid(levy, levy.x0_default, [0.0, 1.0], 4, root, path_offset=offset)
    assert np.array_equal(got, expected[:4])


_ROOTS = [0, 42, 2**70 + 3, [1, 2, 3, 4, 5, 6], np.random.SeedSequence(9).spawn(4)[3], np.uint32(7),
          np.random.SeedSequence(5, pool_size=8)]


class _RecordingSampler:
    """Keeps the block generators ``sample_grid`` hands it; draws nothing."""

    def __init__(self):
        self.rngs = []

    def sample_chunk(self, x0, times, rngs):
        self.rngs.extend(rngs)
        return np.zeros((len(rngs) * models.BLOCK_PATHS, len(times), len(x0)))


@pytest.mark.parametrize("seed", _ROOTS,
                         ids=["0", "42", "2**70+3", "list", "spawned", "uint32", "pool_size8"])
def test_stream_words_equal_spawned_seed_sequences(seed, levy):
    """Block b's generator is seeded by the words of the root's child with spawn key (..., b)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    def streams(first, count):
        sampler = _RecordingSampler()
        recorder = types.SimpleNamespace(dims=levy.dims, sampler=sampler)
        sample_grid(recorder, [0.0, 0.0], [0.0, 1.0], count * models.BLOCK_PATHS, seed,
                    path_offset=first * models.BLOCK_PATHS)
        return sampler.rngs

    per_chunk = models.CHUNK_PATHS // models.BLOCK_PATHS
    blocks = [*range(per_chunk + 3), 2**32 - 1, 2**32 + 5]
    rngs = streams(0, per_chunk + 3) + streams(2**32 - 1, 1) + streams(2**32 + 5, 1)
    assert len(rngs) == len(blocks)
    for b, rng in zip(blocks, rngs):
        child = np.random.SeedSequence(entropy=root.entropy, spawn_key=(*root.spawn_key, b))
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64),
                              child.generate_state(4, np.uint64)), b
        assert rng.bit_generator.state == np.random.PCG64(child).state, b


def test_path_offset_past_two_to_the_32(levy):
    """Block indices are spawn-key words of any size; a far window is a slice of its block."""
    far = 2**32 + 5
    start = far - far % models.BLOCK_PATHS
    win = sample_grid(levy, [0.0, 0.0], [0.0, 1.0], 3, seed=1, path_offset=far)
    block = sample_grid(levy, [0.0, 0.0], [0.0, 1.0], far - start + 3, seed=1, path_offset=start)
    assert np.array_equal(win, block[far - start:])


def test_cir_at_a_zero_absorbs_exactly_at_zero():
    """a = 0: zero is absorbing, and P(X_t = 0) = exp(-2 x0 e^{-bt} / (sigma^2 E(t)))."""
    model = make_cir(0.0, 1.0, 1.0)
    times = uniform_times(3.0, 0.25)
    assert np.all(sample_grid(model, [0.0], times, 600, seed=8) == 0.0)
    vals = sample_grid(model, [1.0], times, 20_000, seed=8)[:, :, 0]
    absorbed = vals == 0.0
    assert np.all(absorbed[:, 1:] >= absorbed[:, :-1])  # no path leaves 0 once there
    t, x0 = times[-1], 1.0
    p0 = math.exp(-2.0 * x0 * math.exp(-t) / (-math.expm1(-t)))
    stderr = math.sqrt(p0 * (1.0 - p0) / len(vals))
    assert abs(np.mean(absorbed[:, -1]) - p0) < 4.0 * stderr


def test_zero_covariance_is_pure_drift():
    model = make_levy([0.5, -0.25], [[0.0, 0.0], [0.0, 0.0]])
    times = uniform_times(2.0, 0.5)
    vals = sample_grid(model, [1.0, 2.0], times, 5, seed=0)
    expected = np.array([1.0, 2.0]) + times[:, None] * np.array([0.5, -0.25])
    assert np.max(np.abs(vals - expected)) < 1e-12


def test_simulate_returns_state_paths(heston0):
    times, values = simulate(heston0, [0.3, 0.0], 1.0, 0.25, 3, seed=2)
    assert np.array_equal(times, uniform_times(1.0, 0.25))
    assert values.shape == (3, 5, 2)
    assert np.array_equal(values, sample_grid(heston0, [0.3, 0.0], times, 3, seed=2))
    assert np.min(values[:, :, 0]) >= 0.0  # cone component stays nonnegative


def _ecf_z(model, x0, t, u, n, seed):
    """z-score of the empirical CF of X_t against the closed-form flow."""
    vals = sample_grid(model, x0, [0.0, t], n, seed=seed)
    samples = np.exp(vals[:, 1, :] @ np.asarray(u))
    ecf = np.mean(samples)
    stderr = np.std(samples) / np.sqrt(n)
    ev = model.closed_flow(t, np.asarray(u))
    target = ev.phi * np.exp(ev.psi @ np.asarray(x0, dtype=float))
    return abs(ecf - target) / stderr


def test_cir_sampler_matches_flow(cir):
    z = _ecf_z(cir, [1.0], 0.5, [-1.0 + 0.0j], 40_000, seed=11)
    assert z < 4.0


def test_heston_sampler_matches_flow(heston0):
    z = _ecf_z(heston0, [0.3, 0.0], 0.4, [-0.5 + 0.2j, 0.3j], 20_000, seed=11)
    assert z < 4.5


def test_heston_sampler_keeps_the_euler_law_on_a_coarse_grid(heston1):
    """Multi-substep intervals draw one W2 row each, and the law stays the flow's.

    On the record grid 0, 0.1, 0.25 every interval spans 100 or more
    substeps, so the conditional variance carries each interval's W2 terms;
    an accumulator without the decay^2 or the rho_c^2 factor fails here.
    """
    x0, times = np.array([0.3, 0.0]), [0.0, 0.1, 0.25]
    us = [np.array(u) for u in ([0.5j, 4j], [-1j, -3j], [0j, 5j])]
    vals = sample_grid(heston1, x0, times, 40_000, seed=3)
    grid = flow_on_grid(heston1.gen, heston1.dims, times[1:], us)
    for i, row in enumerate(grid.evals, start=1):
        for u, ev in zip(us, row):
            est = ecf_from_states(vals[:, i], u)
            assert abs(est.value - ev.phi * np.exp(ev.psi @ x0)) < 4.0 * est.stderr
