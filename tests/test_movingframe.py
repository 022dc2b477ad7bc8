"""Frame transform, its inverse, the p/q recursion, and the certification pipeline."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from affineflow import flow, models, movingframe
from affineflow.core import Dims, Tolerances
from affineflow.empirical import _semihomogeneity, ecf_from_states, semihomogeneity_test
from affineflow.flow import ClosedFlowSource, FlowEvaluation, OdeFlowSource, matrix_exp
from affineflow.models import make_heston_like, sample_grid, uniform_times
from affineflow.movingframe import (
    FrameMatrix,
    FramePipelineError,
    FrameRecursionError,
    PQState,
    _pq_endpoint,
    build_frame,
    frame_pipeline,
    inverse_values,
    pq_extrapolate,
    pq_recursion,
    transform_values,
    transformed_state_source,
)
from affineflow.verify import report_to_json

D11 = Dims(1, 1)


def test_frame_matrix_validation():
    ok = FrameMatrix(np.diag([1.0, -1.0]), D11)
    assert np.array_equal(ok.beta, [[-1.0]])
    with pytest.raises(ValueError, match="2x2"):
        FrameMatrix(np.eye(3), D11)
    with pytest.raises(ValueError, match="identity"):
        FrameMatrix(np.diag([2.0, -1.0]), D11)
    with pytest.raises(ValueError, match="off-diagonal"):
        FrameMatrix(np.array([[1.0, 0.5], [0.0, -1.0]]), D11)


def test_build_frame():
    frame = build_frame([[-1.0]], D11)
    assert np.array_equal(frame.K, np.diag([1.0, -1.0]))
    assert np.array_equal(frame.beta, [[-1.0]])
    with pytest.raises(ValueError, match="1x1"):
        build_frame(np.zeros((2, 2)), D11)


def test_transform_linear_path_oracle():
    """Left-rule transform of x(t) = x0 + v t has the closed form

        z_i = x_i - (x0 t_i + v h^2 i(i-1)/2) K
    """
    frame = FrameMatrix(np.diag([1.0, 2.0]), D11)
    h, n = 0.25, 9
    times = np.arange(n) * h
    x0 = np.array([1.0, -0.5])
    v = np.array([0.3, 1.1])
    x = x0 + times[:, None] * v
    z = transform_values(x[None], times, frame)[0]
    i = np.arange(n)
    integral = x0 * times[:, None] + v * (h**2 * i * (i - 1) / 2.0)[:, None]
    expected = x - integral @ frame.K
    assert np.max(np.abs(z - expected)) < 1e-12
    assert np.array_equal(z[0], x[0])  # time 0 untouched


def test_zero_drift_frame_is_identity():
    frame = build_frame([[0.0]], Dims(0, 1))
    times = np.linspace(0.0, 1.0, 11)
    x = np.sin(times)[None, :, None]
    assert np.array_equal(transform_values(x, times, frame), x)
    assert np.array_equal(inverse_values(x, times, frame), x)


def test_transform_shape_validation():
    frame = build_frame([[-1.0]], D11)
    times = np.array([0.0, 0.5])
    with pytest.raises(ValueError, match="does not match"):
        transform_values(np.zeros((2, 3)), times, frame)  # wrong time count
    with pytest.raises(ValueError, match="start at 0"):
        transform_values(np.zeros((2, 2)), np.array([0.5, 1.0]), frame)
    with pytest.raises(ValueError, match="does not match"):
        inverse_values(np.zeros((2, 1)), times, frame)


def test_inverse_matches_direct_variation_of_constants():
    """The accumulated inverse equals the explicit propagator sum, uneven grid included."""
    frame = FrameMatrix(np.diag([1.0, -0.7]), D11)
    times = np.array([0.0, 0.1, 0.25, 0.5])
    rng = np.random.default_rng(3)
    z = rng.normal(size=(len(times), 2))
    out = inverse_values(z[None], times, frame)[0]
    dt = np.diff(times)
    for i in range(len(times)):
        acc = np.zeros(2)
        for j in range(i):
            acc += dt[j] * z[j] @ matrix_exp(frame.K, times[i] - times[j])
        expected = z[i] + acc @ frame.K
        assert np.max(np.abs(out[i] - expected)) < 1e-12


def test_roundtrip_error_halves_with_the_step():
    """Transforming then inverting a smooth path leaves an O(h) defect."""
    frame = build_frame([[-1.0]], D11)
    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        times = uniform_times(0.5, h)
        x = np.stack([0.3 + 0.1 * np.sin(times), np.cos(times)], axis=-1)
        z = transform_values(x[None], times, frame)
        back = inverse_values(z, times, frame)[0]
        errors.append(float(np.max(np.abs(back - x))))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.3)
    assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.3)


def _contracting_source(rate=1.0):
    """Pure free-part flow psi(t, u) = e^{-rate*t} u, phi = 1."""

    def fn(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        return FlowEvaluation(float(t), u_arr, 1 + 0j, math.exp(-rate * t) * u_arr, 0j)

    return ClosedFlowSource(fn)


def test_pq_recursion_single_step_is_trivial():
    frame = build_frame([[-1.0]], Dims(0, 1))
    state = pq_recursion(_contracting_source(), frame, 0.5, [[0.8j]], N=1)
    assert np.array_equal(state.p, [1 + 0j]) and np.array_equal(state.q, np.array([[0.8j]]))
    assert state.h == 0.5 and state.t == 0.5


def test_pq_recursion_validation():
    frame = build_frame([[-1.0]], Dims(0, 1))
    src = _contracting_source()
    with pytest.raises(ValueError, match="purely imaginary"):
        pq_recursion(src, frame, 0.5, [[0.8j], [-0.1 + 0.8j]], N=4)
    with pytest.raises(ValueError, match="N must be"):
        pq_recursion(src, frame, 0.5, [[0.8j]], N=0)
    with pytest.raises(ValueError, match="t must be"):
        pq_recursion(src, frame, 0.0, [[0.8j]], N=4)
    with pytest.raises(ValueError, match="stack"):
        pq_recursion(src, frame, 0.5, [0.8j], N=4)  # one u is a one-row stack


def test_pq_folded_scheme_closed_form():
    """With psi(h, v) = e^{-h} v and beta = -1 each folded step multiplies q by
    e^{-h}(1+h), so q(N-1) = [e^{-h}(1+h)]^{N-1} u."""
    frame = build_frame([[-1.0]], Dims(0, 1))
    u = np.array([0.8j])
    N = 16
    state = pq_recursion(_contracting_source(), frame, 0.5, [u], N=N)
    h = 0.5 / N
    factor = (math.exp(-h) * (1 + h)) ** (N - 1)
    assert abs(state.q[0, 0] - factor * u[0]) < 1e-12
    assert np.array_equal(state.p, [1 + 0j])


def test_pq_defect_halves_when_n_doubles(heston1):
    """The recursion approaches the free limit u_J at first order in 1/N."""
    frame = build_frame(heston1.beta, heston1.dims)
    src = OdeFlowSource(heston1.gen, heston1.dims)
    u = np.array([0.4j, 0.5j])
    defects = [abs(pq_recursion(src, frame, 0.5, [u], N).q[0, 1] - 0.5j) for N in (32, 64, 128)]
    assert defects[0] / defects[1] == pytest.approx(2.0, abs=0.3)
    assert defects[1] / defects[2] == pytest.approx(2.0, abs=0.3)


def test_pq_extrapolate_cancels_leading_error(heston1):
    frame = build_frame(heston1.beta, heston1.dims)
    src = OdeFlowSource(heston1.gen, heston1.dims)
    u = np.array([0.4j, 0.5j])
    _, q_ext, states = pq_extrapolate(src, frame, 0.5, [u], N_schedule=(32, 64, 128))
    assert len(states) == 3 and all(isinstance(s, PQState) for s in states)
    raw_defect = abs(states[-1].q[0, 1] - 0.5j)
    assert abs(q_ext[0, 1] - 0.5j) < 0.5 * raw_defect
    with pytest.raises(ValueError, match="at least two"):
        pq_extrapolate(src, frame, 0.5, [u], N_schedule=(64,))
    with pytest.raises(ValueError, match="factor of 2"):
        pq_extrapolate(src, frame, 0.5, [u], N_schedule=(64, 96))


def test_pq_recursion_guards_the_halfspace():
    """An intermediate argument pushed off the imaginary axis must abort loudly."""

    def escaping(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        return FlowEvaluation(float(t), u_arr, 1 + 0j, u_arr + 0.5, 0j)

    frame = build_frame(np.zeros((1, 1)), Dims(0, 1))
    with pytest.raises(FrameRecursionError, match="step k=1"):
        pq_recursion(ClosedFlowSource(escaping), frame, 0.5, [[0.2j]], N=4)

    def exiting(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        return FlowEvaluation(float(t), u_arr, np.nan + 0j,
                              np.full_like(u_arr, np.nan), np.nan + 0j, in_Q=False)

    with pytest.raises(FrameRecursionError, match="left its domain"):
        pq_recursion(ClosedFlowSource(exiting), frame, 0.5, [[0.2j]], N=4)


def test_pq_stack_matches_one_row_runs(heston1):
    """Each lane of a stacked recursion is the one-row recursion at its u (shared steps aside)."""
    frame = build_frame(heston1.beta, heston1.dims)
    src = OdeFlowSource(heston1.gen, heston1.dims)
    us = np.array([[0.4j, 0.5j], [-0.7j, 0.9j], [1.0j, -0.3j]])
    stacked = pq_recursion(src, frame, 0.5, us, 32)
    assert stacked.p.shape == (3,) and stacked.q.shape == (3, 2)
    for i, u in enumerate(us):
        single = pq_recursion(src, frame, 0.5, [u], 32)
        assert abs(stacked.p[i] - single.p[0]) <= 1e-10, i
        assert np.max(np.abs(stacked.q[i] - single.q[0])) <= 1e-10, i


def test_pq_recursion_names_the_failing_lane():
    """Only lane 1 escapes the half-space and only lane 2 leaves the domain; each is
    named with its step, and in a lockstep schedule with its N."""

    def escaping(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        shift = 0.5 if u_arr[0].imag > 0.3 else 0.0
        return FlowEvaluation(float(t), u_arr, 1 + 0j, u_arr + shift, 0j)

    def exiting(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        if u_arr[0].imag < 0:
            return FlowEvaluation(float(t), u_arr, np.nan + 0j,
                                  np.full_like(u_arr, np.nan), np.nan + 0j, in_Q=False)
        return FlowEvaluation(float(t), u_arr, 1 + 0j, u_arr, 0j)

    frame = build_frame(np.zeros((1, 1)), Dims(0, 1))
    us = [[0.2j], [0.4j], [-0.1j]]
    with pytest.raises(FrameRecursionError, match="lane 1 left the admissible set at step k=1"):
        pq_recursion(ClosedFlowSource(escaping), frame, 0.5, us, N=4)
    with pytest.raises(FrameRecursionError, match="lane 2 left its domain at step k=0"):
        pq_recursion(ClosedFlowSource(exiting), frame, 0.5, us, N=4)
    with pytest.raises(FrameRecursionError,
                       match="lane 1 left the admissible set at step k=1 of N=8"):
        pq_extrapolate(ClosedFlowSource(escaping), frame, 0.5, us, N_schedule=(4, 8))
    with pytest.raises(FrameRecursionError, match="lane 2 left its domain at step k=0 of N=8"):
        pq_extrapolate(ClosedFlowSource(exiting), frame, 0.5, us, N_schedule=(4, 8))


def test_pq_extrapolate_lockstep_equals_one_run_per_n(heston0, heston1):
    """Stepping the schedule in lockstep gives each N its own run's states: bit for
    bit from a closed flow, within 1e-12 from the ODE, whose lanes share steps."""
    us = np.array([[0.4j, 0.5j], [-0.7j, 0.9j], [1.0j, -0.3j]])
    for model, source, tol in ((heston0, ClosedFlowSource(heston0.closed_flow), 0.0),
                               (heston1, OdeFlowSource(heston1.gen, heston1.dims), 1e-12)):
        frame = build_frame(model.beta, model.dims)
        _, _, states = pq_extrapolate(source, frame, 0.5, us, N_schedule=(16, 8, 8, 32))
        assert [s.N for s in states] == [8, 8, 16, 32]
        for state in states:
            single = pq_recursion(source, frame, 0.5, us, state.N)
            assert state.h == single.h
            assert np.max(np.abs(state.p - single.p)) <= tol, (model.name, state.N)
            assert np.max(np.abs(state.q - single.q)) <= tol, (model.name, state.N)


def test_left_integrals_allow_one_rewritten_buffer():
    """A state source that rewrites one buffer in place integrates as fresh arrays do."""
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((6, 5, 2))
    dt = rng.uniform(0.1, 0.2, 5)

    def rewritten():
        buf = np.empty((5, 2))
        for x in xs:
            buf[:] = x
            yield buf

    fresh = [(x.copy(), i.copy()) for x, i in movingframe._left_integrals(iter(xs), dt)]
    reused = [(x.copy(), i.copy()) for x, i in movingframe._left_integrals(rewritten(), dt)]
    assert len(fresh) == len(reused) == 6
    for (xa, ia), (xb, ib) in zip(fresh, reused):
        assert np.array_equal(xa, xb) and np.array_equal(ia, ib)
    assert np.array_equal(fresh[-1][1], np.cumsum(xs[:-1] * dt[:, None, None], axis=0)[-1])


HESTON_US = np.array([[0.4j, 0.5j], [-0.7j, 0.9j], [1.0j, -0.3j]])
ODE_TOL = Tolerances(ode_rel=1e-11, ode_abs=1e-13)


def _exact_tower_law(source, frame, t, us, N):
    """The tower law with unfolded node factors: q(k+1) = psi(h, q(k)) - hKu, N steps."""
    h = t / N
    p, q = np.ones(len(us), dtype=np.complex128), us.copy()
    for _ in range(N):
        row = source.on_grid([h], q)[0]
        p = p * np.array([ev.phi for ev in row])
        q = np.array([ev.psi for ev in row]) - h * us @ frame.K.T
    return p, q


def test_pq_endpoint_is_the_limit_of_the_exact_tower_law(heston1):
    """Richardson extrapolants 2 v(2N) - v(N) of the exact tower law approach the
    ODE endpoint at O(1/N^2), and the ODE keeps the free components at u_J."""
    frame = build_frame(heston1.beta, heston1.dims)
    src = OdeFlowSource(heston1.gen, heston1.dims, ODE_TOL)
    p, q = _pq_endpoint(heston1.gen, frame, 0.5, HESTON_US, ODE_TOL)
    assert np.array_equal(q[:, 1], HESTON_US[:, 1])
    runs = {N: _exact_tower_law(src, frame, 0.5, HESTON_US, N) for N in (64, 128, 256, 512)}
    gaps = []
    for N in (64, 128, 256):
        (p1, q1), (p2, q2) = runs[N], runs[2 * N]
        gaps.append(max(np.max(np.abs(2 * p2 - p1 - p)), np.max(np.abs(2 * q2 - q1 - q))))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, abs=0.2)
    assert gaps[2] < 1e-7


def test_pq_endpoint_stack_matches_one_row_solves(heston1):
    frame = build_frame(heston1.beta, heston1.dims)
    p, q = _pq_endpoint(heston1.gen, frame, 0.5, HESTON_US, ODE_TOL)
    assert p.shape == (3,) and q.shape == (3, 2)
    for i, u in enumerate(HESTON_US):
        p1, q1 = _pq_endpoint(heston1.gen, frame, 0.5, u[None], ODE_TOL)
        assert abs(p[i] - p1[0]) <= 1e-12, i
        assert np.max(np.abs(q[i] - q1[0])) <= 1e-12, i


def test_pq_endpoint_names_the_exiting_lane():
    """Lane 1's scalar factor vanishes (F = -1200 drives log p below the floor); the
    other lanes finish, and the error names lane 1."""

    def F(u):
        return np.where(u[..., 0].imag < 0, -1200.0, -1.0) + 0j

    gen = models.GeneratorPair(F=F, R=lambda u: np.zeros(np.shape(u), dtype=np.complex128))
    frame = build_frame(np.zeros((1, 1)), Dims(0, 1))
    with pytest.raises(FrameRecursionError, match="lane 1 left its domain"):
        _pq_endpoint(gen, frame, 1.0, np.array([[0.2j], [-0.4j], [0.3j]]), ODE_TOL)
    p, _q = _pq_endpoint(gen, frame, 1.0, np.array([[0.2j], [0.3j]]), ODE_TOL)
    assert np.allclose(p, math.exp(-1.0), rtol=1e-10)


def test_transformed_state_source_identity_for_zero_drift(levy):
    """A zero frame leaves the sampled values untouched, record-time subset included."""
    frame = build_frame(np.zeros((2, 2)), levy.dims)
    src = transformed_state_source(levy, frame, internal_dt=0.05)
    record = np.array([0.0, 0.25, 0.5])
    got = src([0.1, 0.2], record, 10, seed=6)
    fine = uniform_times(0.5, 0.05)
    raw = sample_grid(levy, [0.1, 0.2], fine, 10, seed=6)
    idx = np.searchsorted(fine, record)
    assert np.array_equal(got, raw[:, idx, :])


def test_a_model_is_its_own_state_source(heston1):
    """A model called with ``sample_grid``'s arguments is that call; the transformed
    source is such a model, and a plain callable wrapping it scores the same."""
    times = np.array([0.0, 0.25, 0.5])
    assert np.array_equal(heston1([0.3, 0.5], times, 12, 4, path_offset=7),
                          sample_grid(heston1, [0.3, 0.5], times, 12, 4, path_offset=7))
    frame = build_frame(heston1.beta, heston1.dims)
    src = transformed_state_source(heston1, frame, internal_dt=0.05)
    assert isinstance(src, models.AffineModel)
    assert isinstance(src.sampler, movingframe._FrameSampler)
    assert (src.gen, src.closed_flow, src.beta) == (None, None, None)
    # threshold 0 makes every probe a witness, so the reports carry psi_k and its stderr
    reports = [report_to_json(semihomogeneity_test(s, heston1.dims, 0.5, np.array([0.4j, 0.5j]),
                                                   200, seed=3, threshold=0.0))
               for s in (src, lambda *args: src(*args))]
    assert '"psi_k"' in reports[0]
    assert reports[0] == reports[1]


def test_transformed_state_source_never_depends_on_chunking(heston1, monkeypatch):
    """Cutting the transform loop into chunks of two 2-path blocks changes no row."""
    frame = build_frame(heston1.beta, heston1.dims)
    src = transformed_state_source(heston1, frame, internal_dt=0.05)
    record = np.array([0.0, 0.25, 0.5])
    monkeypatch.setattr(models, "BLOCK_PATHS", 2)
    whole = src([0.3, 0.5], record, 10, seed=6, path_offset=1)
    monkeypatch.setattr(models, "CHUNK_PATHS", 4)
    chunked = src([0.3, 0.5], record, 10, seed=6, path_offset=1)
    assert np.array_equal(chunked, whole)


def test_frame_tiles_never_change_a_row(heston1, levy, monkeypatch):
    """The fused running integral in chunks of 6 gives the whole-array transform bit for bit.

    Heston's frame is diagonal; levy's non-diagonal frame runs the Gaussian
    ``walk`` and an ``@ K`` product that rounds each entry more than once.
    Every node of the fine grid is a record node, so Heston's intervals are
    one step each and draw as ``walk`` does; levy's integral steps every
    node whatever the record times, so its coarse records are columns too.
    """
    monkeypatch.setattr(models, "BLOCK_PATHS", 2)
    monkeypatch.setattr(models, "CHUNK_PATHS", 6)
    record = np.array([0.0, 0.25, 0.5])
    fine = uniform_times(0.5, 0.05)
    idx = np.searchsorted(fine, record)
    for model, frame, x0 in ((heston1, build_frame(heston1.beta, heston1.dims), [0.3, 0.5]),
                             (levy, build_frame([[-0.5, 0.2], [0.1, -0.3]], levy.dims), [0.1, 0.2])):
        src = transformed_state_source(model, frame, internal_dt=0.05)
        whole = transform_values(sample_grid(model, x0, fine, 10, seed=6), fine, frame)
        assert np.array_equal(src(x0, fine, 10, seed=6), whole), model.name
        if model is levy:
            assert np.array_equal(src(x0, record, 10, seed=6), whole[:, idx])


def test_frame_sampler_matches_record_times_to_the_nearest_node(heston1):
    """0.0015 is node 5 of the 3e-4 grid although 5 * 3e-4 lands an ulp below it."""
    assert 5 * 3e-4 < 0.0015
    frame = build_frame(heston1.beta, heston1.dims)
    src = transformed_state_source(heston1, frame, internal_dt=3e-4)
    fine = uniform_times(0.003, 3e-4)
    got = src([0.3, 0.5], np.array([0.0, 0.0015, 0.003]), 4, seed=2)
    assert np.array_equal(got, src([0.3, 0.5], fine[[0, 5, 10]], 4, seed=2))


class _FineRoute(models._Sampler):
    """A sampler's ``walk`` integrated by the default left-rule loop over every node."""

    def __init__(self, base):
        self.base = base

    def walk(self, x0, times, rngs):
        return self.base.walk(x0, times, rngs)


def test_frame_sampler_keeps_the_law_of_the_fine_grid_route():
    """Coarse records draw (G, H) at their nodes and keep the law of the fine-grid route.

    The fine-grid route integrates ``walk`` on every internal node, each node
    a one-step interval with its own zeta1 row.  Record intervals of 20 and 30
    steps at lam = 3 and rho = 0 give G and H a large share of z_y = y + 3
    int y; two independent 20,000-path sets agree in the ECF at three u
    within 4 two-sample standard errors.  Drawing H without its
    covariance term, or without zeta2, fails.
    """
    model = make_heston_like(a=0.4, b=0.6, sigma=0.5, rho=0.0, lam=3.0, euler_dt=0.02)
    frame = build_frame(model.beta, model.dims)
    coarse = transformed_state_source(model, frame, internal_dt=0.02)
    fine = transformed_state_source(dataclasses.replace(model, sampler=_FineRoute(model.sampler)),
                                    frame, internal_dt=0.02)
    x0, record, n = np.array([0.3, 0.0]), np.array([0.0, 0.4, 1.0]), 20_000
    got, want = coarse(x0, record, n, seed=1), fine(x0, record, n, seed=2)
    for k in (1, 2):
        for u in (np.array([0.5j, 1j]), np.array([0.5j, 2j]), np.array([-0.5j, 3j])):
            a, b = ecf_from_states(got[:, k], u), ecf_from_states(want[:, k], u)
            assert abs(a.value - b.value) < 4.0 * math.hypot(a.stderr, b.stderr), (k, u)


def test_frame_sampler_peak_memory_is_a_small_share_of_one_fine_block(heston1):
    """Under tracemalloc a one-block chunk peaks at a quarter of its fine block or less.

    The fine block, a chunk's paths on the internal grid, is never allocated:
    the running integral holds one (paths, d) array.
    """
    frame = build_frame(heston1.beta, heston1.dims)
    sampler = movingframe._FrameSampler(heston1.sampler, frame, 1e-3)
    rngs = [np.random.default_rng(0)]
    x0, times = np.array([0.3, 0.5]), np.array([0.0, 0.5])
    tracemalloc.start()
    try:
        sampler.sample_chunk(x0, times, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fine_block_bytes = models.BLOCK_PATHS * 501 * 2 * 8
    assert peak <= 0.25 * fine_block_bytes, peak / fine_block_bytes


def test_transformed_state_source_validation(heston0):
    frame = build_frame([[0.0]], heston0.dims)
    src = transformed_state_source(heston0, frame, internal_dt=1e-2)
    with pytest.raises(ValueError, match="internal uniform grid"):
        src([0.3, 0.0], np.array([0.0, 0.305, 0.5]), 4, seed=1)
    with pytest.raises(ValueError, match="start at 0"):
        src([0.3, 0.0], np.array([0.1, 0.3]), 4, seed=1)
    with pytest.raises(ValueError, match="positive"):
        transformed_state_source(heston0, frame, internal_dt=0.0)


def test_frame_stages_5_and_6_are_calibrated(heston1):
    """Over fixed seeds, the frame's stage-5 and stage-6 z have mean z^2 in [0.6, 1.5].

    Rule: z is |complex gap| over the stderr of a complex mean, so E z^2 = 1
    when the stderr measures the sampling noise and no bias sits below it.
    Each seed scores what ``frame_pipeline`` scores, without its p/q
    recursion: ``_semihomogeneity`` on the transformed source from
    x0 = (0.3, 0) at one u draws the x0 and x0 + e2 sets (stage 6's z), and
    the x0 set's ECF is scored against the generator ODE's p exp(<q, x0>),
    solved once (stage 5's z).  Heston lam = 1 at t = 0.05, 512 paths (one
    block), K = 200 seeds: each mean has a standard deviation of about 0.1,
    so the band holds a calibrated stage and fails a stderr off by sqrt(2)
    either way.  The seeds are fixed, so the test is deterministic.
    """
    dims, t, k_seeds, n = heston1.dims, 0.05, 200, models.BLOCK_PATHS
    x0, u = np.array([0.3, 0.0]), np.array([0.4j, 0.5j])
    frame = build_frame(heston1.beta, heston1.dims)
    source = transformed_state_source(heston1, frame)
    p, q = _pq_endpoint(heston1.gen, frame, t, u[None], Tolerances())
    predicted = p[0] * np.exp(q[0] @ x0)
    z2 = {"stage 5": [], "stage 6": []}
    for seed in range(k_seeds):
        report, z_end = _semihomogeneity(source, dims, t, u, n, seed, 3.0, base=x0)
        est = ecf_from_states(z_end, u, t)
        z2["stage 5"].append((abs(est.value - predicted) / est.stderr) ** 2)
        z2["stage 6"].append(report.max_violation ** 2)
    means = {stage: float(np.mean(values)) for stage, values in z2.items()}
    assert all(0.6 <= mean <= 1.5 for mean in means.values()), means


def test_frame_pipeline_certifies_mean_reverting_model(heston1):
    result = frame_pipeline(
        heston1, 0.5, [np.array([0.4j, 0.5j])], [0.3, 0.0],
        n_paths=3000, N_schedule=(32, 64, 128), seed=21,
        q_tol=1e-3, internal_dt=2e-3, n_sample_paths=5,
    )
    assert result.report.passed, result.report.max_violation
    assert result.beta_origin == "model"
    assert np.array_equal(result.beta, [[-1.0]])
    assert result.q_defect <= 1e-3
    assert result.ecf_z <= 3.0
    assert result.semihomog.passed
    assert [st.N for st in result.pq_states] == [32, 64, 128]
    assert all(st.q.shape == (1, 2) and st.p.shape == (1,) for st in result.pq_states)
    assert np.array_equal(result.sample_times, uniform_times(0.5, 2e-3))
    assert result.transformed_sample.shape == (5, result.sample_times.size, 2)
    assert np.array_equal(result.transformed_sample[:, 0], np.tile([0.3, 0.0], (5, 1)))
    # free components of the recursion limit return to the input argument
    assert abs(result.q_values[0][1] - 0.5j) <= 1e-3


def test_frame_pipeline_extracts_beta_when_missing(heston1):
    stripped = dataclasses.replace(heston1, beta=None)
    result = frame_pipeline(
        stripped, 0.5, [np.array([0.4j, 0.5j])], [0.3, 0.0],
        n_paths=1500, N_schedule=(32, 64), seed=5,
        q_tol=5e-3, internal_dt=2e-3, n_sample_paths=0,
    )
    assert result.beta_origin == "extracted"
    assert abs(result.beta[0, 0] - (-1.0)) < 1e-5
    assert result.transformed_sample.shape[0] == 0


def test_frame_pipeline_stops_on_a_failed_drift_extraction(heston1):
    """A free rate with a real offset leaves the domain at once; stage 1 says so."""

    def offset_R(u):
        r = np.array(heston1.gen.R(u), dtype=np.complex128)
        r[..., 1] += 1e-6
        return r

    leaving = dataclasses.replace(heston1, beta=None,
                                  gen=models.GeneratorPair(heston1.gen.F, offset_R))
    with pytest.raises(FramePipelineError, match="drift extraction failed") as info:
        frame_pipeline(leaving, 0.5, [np.array([0.4j, 0.5j])], [0.3, 0.0],
                       n_paths=100, N_schedule=(32, 64), seed=5, n_sample_paths=0)
    assert info.value.stage == "frame"
    assert "flow left its domain" in str(info.value)


def test_frame_pipeline_steps_every_u_in_one_flow_call(heston1, monkeypatch):
    """Three u cost the recursion as many flow calls as one: every u is a lane,
    and every N of the schedule steps in the same call."""
    calls = []
    on_grid = flow.flow_on_grid

    def counting(gen, dims, t_grid, u_grid, tol):
        calls.append(len(u_grid))
        return on_grid(gen, dims, t_grid, u_grid, tol)

    monkeypatch.setattr(flow, "flow_on_grid", counting)
    us = [np.array([0.4j, 0.5j]), np.array([-0.7j, 0.9j]), np.array([1.0j, -0.3j])]
    for u_set in (us[:1], us):
        calls.clear()
        frame_pipeline(heston1, 0.5, u_set, [0.3, 0.0], n_paths=200, N_schedule=(8, 16),
                       seed=5, n_sample_paths=0)
        k = len(u_set)
        # 7 steps of N = 8 and 16 together, 8 more of N = 16 alone, then the endpoint ODE
        assert calls == [2 * k] * 7 + [k] * 8 + [k]


def test_frame_pipeline_draws_each_path_set_once(heston1, monkeypatch):
    """Stage 5 scores the x0 set that stage 6's quotient is based at, so heston1
    draws 3 path sets: the sample on its own seed, then x0 and x0 + e_2 at t."""
    draws = []
    sample_grid_ = models.sample_grid

    def counting(model, x0, times, n_paths, seed, path_offset=0):
        draws.append((tuple(x0), len(times), n_paths, seed))
        return sample_grid_(model, x0, times, n_paths, seed, path_offset)

    monkeypatch.setattr(models, "sample_grid", counting)
    result = frame_pipeline(heston1, 0.5, [np.array([0.4j, 0.5j])], [0.3, 0.0], n_paths=300,
                            N_schedule=(8, 16), seed=5, internal_dt=1e-2, n_sample_paths=4)
    seeds = models._sub_seeds(5, 3)
    start_seeds = models._sub_seeds(seeds[1], 3)  # one per start: x0, x0 + e_1, x0 + e_2
    assert draws == [((0.3, 0.0), 51, 4, seeds[0]),
                     ((0.3, 0.0), 2, 300, start_seeds[0]), ((0.3, 1.0), 2, 300, start_seeds[2])]
    assert result.transformed_sample.shape == (4, 51, 2)


def test_frame_pipeline_operational_failures(heston1):
    with pytest.raises(ValueError, match="nonempty"):
        frame_pipeline(heston1, 0.5, [], [0.3, 0.0], n_paths=100)
    with pytest.raises(FramePipelineError) as exc:
        frame_pipeline(heston1, 0.5, [np.array([0.4j, 0.5j])], [0.3, 0.0],
                       n_paths=100, internal_dt=3e-4, n_sample_paths=0)
    assert exc.value.stage == "simulate_transform"
