"""Riccati flow integration: frozen closed-form oracles, halt semantics, grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineflow.core import Q_ZERO_EPS, Dims, Tolerances
from affineflow.flow import (
    ClosedFlowSource,
    FlowEvaluation,
    FlowIntegrationError,
    OdeFlowSource,
    flow_on_grid,
    flow_source_for,
    matrix_exp,
    ode_flow,
)
from affineflow import flow as flow_module
from affineflow.models import GeneratorPair, make_cir, make_heston_like, make_levy


def _gap(a: FlowEvaluation, b: FlowEvaluation) -> float:
    return max(abs(a.phi - b.phi), float(np.max(np.abs(a.psi - b.psi))))


def _column(grid, j: int) -> list:
    """The evaluations of u column j, in time order."""
    return [row[j] for row in grid.evals]


def test_t0_contract_is_exact(cir):
    ev = ode_flow(cir.gen, cir.dims, 0.0, [-1.0 + 0.5j])
    assert ev.phi == 1 + 0j and ev.log_phi == 0j
    assert np.array_equal(ev.psi, np.array([-1.0 + 0.5j]))
    assert ev.in_Q and ev.t == 0.0


def test_flow_evaluation_rejects_negative_time():
    with pytest.raises(ValueError):
        FlowEvaluation(-0.1, np.array([0j]), 1 + 0j, np.array([0j]), 0j)


def test_ode_flow_input_validation(cir):
    with pytest.raises(ValueError):
        ode_flow(cir.gen, cir.dims, -1.0, [-1.0])
    with pytest.raises(ValueError):  # positive real part on the cone component
        ode_flow(cir.gen, cir.dims, 1.0, [0.3 + 1j])


def test_pure_quadratic_fiber_frozen_value():
    """a=0, b=0, sigma^2=2 collapses the fiber ODE to psi' = psi^2.

    The solution through u=-1 is psi(t) = -1/(1+t); at t=0.5 that is -2/3,
    and with a=0 the scalar factor stays pinned at 1.
    """
    model = make_cir(0.0, 0.0, math.sqrt(2.0))
    ev = ode_flow(model.gen, model.dims, 0.5, [-1.0])
    assert abs(ev.psi[0] - (-2.0 / 3.0)) < 1e-9
    assert abs(ev.phi - 1.0) < 1e-12


def test_pure_drift_scalar_frozen_value():
    """Zero covariance and unit drift: the scalar factor is exp(t*u) exactly."""
    model = make_levy([1.0], [[0.0]])
    ev = ode_flow(model.gen, model.dims, 1.0, [1j])
    assert abs(ev.phi - np.exp(1j)) < 1e-10
    assert abs(ev.psi[0] - 1j) < 1e-14  # identity fiber: R == 0


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("u0", [-1.0 + 0j, -0.8 + 0.5j, -0.25 - 0.75j])
def test_ode_matches_closed_form_cir(cir, t, u0):
    ode = ode_flow(cir.gen, cir.dims, t, [u0])
    closed = cir.closed_flow(t, np.array([u0]))
    assert _gap(ode, closed) < 5e-8


@pytest.mark.parametrize("t", [0.5, 1.5])
@pytest.mark.parametrize("u", [(-0.5 + 0.2j, 0.3j), (-1.0 + 0j, -0.6j)])
def test_ode_matches_closed_form_heston(heston0, t, u):
    u_arr = np.array(u)
    ode = ode_flow(heston0.gen, heston0.dims, t, u_arr)
    closed = heston0.closed_flow(t, u_arr)
    assert _gap(ode, closed) < 5e-8


def test_tolerance_controls_accuracy(cir):
    u = np.array([-1.5 + 1.2j])
    ref = cir.closed_flow(2.0, u)
    loose = ode_flow(cir.gen, cir.dims, 2.0, u, Tolerances(ode_rel=1e-5, ode_abs=1e-7))
    tight = ode_flow(cir.gen, cir.dims, 2.0, u, Tolerances(ode_rel=1e-12, ode_abs=1e-14))
    assert _gap(tight, ref) < 1e-10
    assert _gap(loose, ref) > 10.0 * _gap(tight, ref)


def test_domain_exit_when_scalar_vanishes():
    """F = -1200 sends log phi through the vanishing floor at t ~ 0.5756.

    Checkpoints bracket the crossing: the cell before it is in Q, every cell
    after it is ``in_Q=False`` at its own requested t.
    """
    gen = GeneratorPair(
        F=lambda u: -1200.0 + 0j, R=lambda u: np.zeros(1, dtype=np.complex128)
    )
    rows = OdeFlowSource(gen, Dims(1, 0)).on_grid([0.57, 0.58, 1.0], [[-1.0]])
    assert [row[0].in_Q for row in rows] == [True, False, False]
    assert [row[0].t for row in rows] == [0.57, 0.58, 1.0]
    assert math.isnan(rows[-1][0].phi.real) and np.all(np.isnan(rows[-1][0].psi.real))
    ev = ode_flow(gen, Dims(1, 0), 1.0, [-1.0])
    assert not ev.in_Q and ev.t == 1.0


def test_domain_exit_when_fiber_leaves_halfspace():
    """Constant positive fiber drift pushes Re psi across 0 at t = 0.1."""
    gen = GeneratorPair(
        F=lambda u: 0j, R=lambda u: np.array([5.0 + 0j])
    )
    rows = OdeFlowSource(gen, Dims(1, 0)).on_grid([0.09, 0.11, 1.0], [[-0.5]])
    assert [row[0].in_Q for row in rows] == [True, False, False]
    ev = ode_flow(gen, Dims(1, 0), 1.0, [-0.5])
    assert not ev.in_Q and ev.t == 1.0


def test_short_solve_takes_one_step_per_checkpoint(heston1):
    """The first step is sized by psi, the state that has a size, not by log phi
    (which starts at 0): one p/q step of frame_heston is one accepted step."""
    calls = []

    def counted_R(u):
        calls.append(len(u))
        return heston1.gen.R(u)

    gen = GeneratorPair(heston1.gen.F, counted_R)
    for u in ([0.4j, 0.5j], [-0.7j, 0.9j], [1.0j, -0.3j]):
        calls.clear()
        OdeFlowSource(gen, heston1.dims).on_grid([0.5 / 64], [np.array(u)])
        assert len(calls) == 7, (u, len(calls))  # the first rate and six stages, no rejection


def _all_component_step(y, f, rtol, atol):
    """The first step measured on every component, state and rate alike."""
    sc = atol + rtol * np.abs(y)
    return 0.01 * math.sqrt(np.sum((np.abs(y) / sc) ** 2) / np.sum((np.abs(f) / sc) ** 2))


@pytest.mark.parametrize("model", ["heston1", "levy"])
def test_initial_step_measures_the_components_with_a_size(model, request):
    """A lane's rate norm leaves out the components that start at 0; a lane whose
    nonzero components do not move (levy, R = 0) keeps the all-component rule,
    and an all-zero lane proposes nothing."""
    m = request.getfixturevalue(model)
    rtol, atol, d = 1e-9, 1e-11, m.dims.d
    y = np.zeros((2, d + 1), dtype=np.complex128)
    y[0, :d] = [0.4j, 0.5j]
    f = np.zeros_like(y)
    f[:, :d] = m.gen.R(y[:, :d])
    f[:, d] = m.gen.F(y[:, :d])
    h = flow_module._initial_step(y.ravel(), f.ravel(), d + 1, rtol, atol, 1.0)
    if model == "levy":
        assert h == _all_component_step(y[0], f[0], rtol, atol)
    else:
        psi_only = _all_component_step(y[0, :d], f[0, :d], rtol, atol)
        assert h == pytest.approx(psi_only, rel=1e-12)
        assert h > 10 * _all_component_step(y[0], f[0], rtol, atol)
    zero = flow_module._initial_step(y[1], f[1], d + 1, rtol, atol, 0.5)
    assert zero == 1e-6


def test_flow_on_grid_matches_pointwise(heston0):
    ts = [0.0, 0.3, 0.7, 1.2]
    us = [np.array([-0.5 + 0.2j, 0.3j]), np.array([-1.0 + 0j, -0.6j]),
          np.array([-0.3 - 0.4j, 1.1j])]
    grid = flow_on_grid(heston0.gen, heston0.dims, ts, us)
    assert not grid.errors
    for i, t in enumerate(ts):
        for j, u in enumerate(us):
            direct = ode_flow(heston0.gen, heston0.dims, t, u)
            assert _gap(grid.evals[i][j], direct) < 1e-8
    # the t = 0 row is synthesized exactly, not integrated
    assert all(grid.evals[0][j].phi == 1 + 0j for j in range(3))


def test_flow_on_grid_cells_after_exit():
    gen = GeneratorPair(F=lambda u: 0j, R=lambda u: np.array([5.0 + 0j]))
    grid = flow_on_grid(gen, Dims(1, 0), [0.0, 0.05, 0.2, 0.5], [np.array([-0.5])])
    col = _column(grid, 0)
    assert col[0].in_Q and col[0].phi == 1 + 0j
    assert col[1].in_Q and abs(col[1].psi[0] - (-0.25)) < 1e-8
    assert not col[2].in_Q and not col[3].in_Q
    assert np.isnan(col[3].phi.real)
    assert not grid.errors  # a domain exit is an answer, not an error


def test_flow_on_grid_validation(cir):
    with pytest.raises(ValueError):
        flow_on_grid(cir.gen, cir.dims, [], [np.array([-1.0])])
    with pytest.raises(ValueError):
        flow_on_grid(cir.gen, cir.dims, [0.5, 0.2], [np.array([-1.0])])
    with pytest.raises(ValueError):
        flow_on_grid(cir.gen, cir.dims, [-0.1, 0.5], [np.array([-1.0])])
    with pytest.raises(ValueError):
        flow_on_grid(cir.gen, cir.dims, [0.0, 0.5], [np.array([0.2])])


def test_flow_on_grid_hard_error_fails_the_call_naming_the_column():
    """A generator that goes non-finite on one column fails the call and names that column."""

    def F(u):
        return np.where(u[..., 0].imag > 0.5, np.nan, -1.0) + 0j

    gen = GeneratorPair(F=F, R=lambda u: np.zeros(1, dtype=np.complex128))
    us = [np.array([-1.0 + 0j]), np.array([-1.0 + 1j])]
    with pytest.raises(FlowIntegrationError, match=r"^u index 1: generator returned a non-finite"):
        flow_on_grid(gen, Dims(1, 0), [0.0, 0.5, 1.0], us)
    grid = flow_on_grid(gen, Dims(1, 0), [0.0, 0.5, 1.0], us[:1])
    assert not grid.errors
    good = _column(grid, 0)
    assert all(ev.in_Q for ev in good)
    assert abs(good[2].phi - np.exp(-1.0)) < 1e-9


def test_rhs_validates_generator_shape():
    gen = GeneratorPair(F=lambda u: 0j, R=lambda u: np.zeros(2, dtype=np.complex128))
    with pytest.raises(FlowIntegrationError, match=r"^u index 0: .*shape"):
        ode_flow(gen, Dims(1, 0), 1.0, [-1.0])


def test_matrix_exp_frozen_cases():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(nilpotent), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    quarter = matrix_exp(rotation, t=math.pi / 2)
    assert np.allclose(quarter, [[0.0, -1.0], [1.0, 0.0]], atol=1e-13)
    assert matrix_exp(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(ValueError):
        matrix_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.inf]]))


def test_matrix_exp_diagonal_input_is_exact():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))
    diag = np.array([-1.0, 0.25, 2.0])
    assert np.array_equal(matrix_exp(np.diag(diag), t=0.7), np.diag(np.exp(0.7 * diag)))
    assert np.array_equal(matrix_exp(np.array([[-1.0]]), t=0.5), [[np.exp(-0.5)]])
    assert np.array_equal(matrix_exp(np.diag([1j, -2.0])), np.diag(np.exp([1j, -2.0])))


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_matrix_exp_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="finite t"):
        matrix_exp(np.array([[0.0, 1.0], [-1.0, 0.0]]), t)


def test_matrix_exp_rejects_overflowing_product():
    with pytest.raises(ValueError, match="finite entries"):
        matrix_exp(np.array([[1e200, 1.0], [0.0, 1.0]]), t=1e200)


def test_matrix_exp_matches_scipy_reference():
    """Random 1-4-dim real and complex matrices across the scaling threshold."""
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2005)
    for trial in range(400):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        if trial % 2:
            a = a + 1j * rng.standard_normal((n, n))
        t = float(rng.uniform(0.1, 2.0))
        norm = float(rng.uniform(0.01, 12.0))
        a *= norm / (t * np.linalg.norm(a, 1))
        expected = linalg.expm(t * a)
        rel = np.linalg.norm(matrix_exp(a, t) - expected, 1) / np.linalg.norm(expected, 1)
        assert rel <= (1e-12 if norm <= 5 else 1e-11), (trial, n, norm, rel)


def test_flow_sources(cir, heston1, control):
    ode_src = OdeFlowSource(cir.gen, cir.dims)
    direct = ode_flow(cir.gen, cir.dims, 0.5, [-1.0])
    assert _gap(ode_src.on_grid([0.5], [[-1.0]])[0][0], direct) == 0.0

    closed_src = ClosedFlowSource(cir.closed_flow)
    rows = closed_src.on_grid([0.0, 0.5], [np.array([-1.0 + 0j])])
    assert len(rows) == 2 and len(rows[0]) == 1
    assert _gap(rows[1][0], cir.closed_flow(0.5, np.array([-1.0 + 0j]))) == 0.0

    assert isinstance(flow_source_for(heston1), OdeFlowSource)
    assert isinstance(flow_source_for(cir, prefer_closed=True), ClosedFlowSource)
    assert isinstance(flow_source_for(cir), OdeFlowSource)
    with pytest.raises(ValueError):
        flow_source_for(control)


def test_ode_source_on_grid_raises_on_hard_error():
    gen = GeneratorPair(F=lambda u: np.nan + 0j, R=lambda u: np.zeros(1, dtype=np.complex128))
    with pytest.raises(FlowIntegrationError):
        OdeFlowSource(gen, Dims(1, 0)).on_grid([0.0, 1.0], [np.array([-1.0])])


@given(
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=-3.0, max_value=-0.05),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=80, deadline=None)
def test_closed_cir_flow_is_a_semigroup(t, s, re_u, im_u):
    """The closed-form fiber map composes: psi(t+s, u) = psi(t, psi(s, u))."""
    model = make_cir(1.0, 1.0, 1.0)
    u = np.array([complex(re_u, im_u)])
    inner = model.closed_flow(s, u)
    outer = model.closed_flow(t, inner.psi)
    direct = model.closed_flow(t + s, u)
    assert np.all(np.abs(outer.psi - direct.psi) < 1e-12)
    # scalar factors multiply along the composition
    assert abs(inner.phi * outer.phi - direct.phi) < 1e-12


# ---------------------------------------------------------------------------
# the lane engine: every u column of a call is one lane of one solve

_TIGHT = Tolerances(ode_rel=1e-12, ode_abs=1e-14)


def _tagged_gen():
    """psi' = -psi/2 on one cone component; lanes are told apart by Im u.

    |Im u| <= 2 is ordinary; Im u < -5 has F = -1200, so the scalar factor
    vanishes at t ~ 0.576; Im u > 5 turns non-finite once Im psi = Im u e^{-t/2}
    falls to 12, which for Im u = 20 happens at t ~ 1.02.
    """

    def F(u):
        u0 = u[..., 0]
        ordinary = 0.3 * u0 + 0.1 * u0 * u0
        return np.where(u0.imag < -5, -1200.0 + 0j,
                        np.where((u0.imag > 5) & (u0.imag <= 12), np.nan + 0j, ordinary))

    return GeneratorPair(F=F, R=lambda u: -0.5 * u)


def test_mixed_lane_batch_isolates_exits_and_fails_on_a_failed_lane():
    gen, dims = _tagged_gen(), Dims(1, 0)
    times = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
    us = [np.array([-1.0 + 0.5j]), np.array([-0.5 - 20j]), np.array([-0.3 - 1.5j]),
          np.array([-0.5 + 20j]), np.array([-2.0 + 0j])]
    # the non-finite lane fails the call, after the exiting lane has left it
    with pytest.raises(FlowIntegrationError, match=r"^u index 3: generator returned a non-finite"):
        flow_on_grid(gen, dims, times, us, _TIGHT)
    del us[3]
    grid = flow_on_grid(gen, dims, times, us, _TIGHT)
    assert not grid.errors
    # the exiting lane answers in_Q=False from its exit on
    assert [ev.in_Q for ev in _column(grid, 1)] == [True, True, True, False, False, False]
    assert np.isnan(_column(grid, 1)[-1].phi.real)
    # every ordinary lane matches its own one-lane solve
    for j in (0, 2, 3):
        alone = flow_on_grid(gen, dims, times, [us[j]], _TIGHT)
        for ev, ref in zip(_column(grid, j), _column(alone, 0)):
            assert ev.in_Q and _gap(ev, ref) < 1e-10


def test_step_underflow_fails_the_call_naming_the_lane_that_forces_it():
    """psi' = i psi^2 on a free component: u = -i blows up at t = 1, u = 0.5i does not."""
    gen = GeneratorPair(F=lambda u: 0.2 * u[..., 0], R=lambda u: 1j * u * u)
    dims = Dims(0, 1)
    us = [np.array([0.5j]), np.array([-1j]), np.array([0.25j])]
    times = [0.5, 1.5, 2.0]
    with pytest.raises(FlowIntegrationError, match=r"^u index 1: step size underflow") as info:
        flow_on_grid(gen, dims, times, us, _TIGHT)
    assert 0.99 < info.value.s < 1.0  # the blow-up at t = 1
    del us[1]
    grid = flow_on_grid(gen, dims, times, us, _TIGHT)
    for j in (0, 1):
        y0 = us[j][0].imag
        for ev in _column(grid, j):
            assert ev.in_Q and abs(ev.psi[0] - 1j * y0 / (1 + y0 * ev.t)) < 1e-9
        alone = flow_on_grid(gen, dims, times, [us[j]], _TIGHT)
        assert all(_gap(ev, ref) < 1e-10 for ev, ref in zip(_column(grid, j), _column(alone, 0)))


def test_step_budget_exhaustion_is_an_integration_error(cir, monkeypatch):
    """A solve that runs out of step attempts fails the call, naming the lane that sized them."""
    monkeypatch.setattr(flow_module, "_MAX_STEPS", 5)
    with pytest.raises(FlowIntegrationError, match=r"^u index 0: integration exceeded the step"):
        OdeFlowSource(cir.gen, cir.dims, _TIGHT).on_grid([2.0], [np.array([-1.0 + 0.5j])])


def test_catalog_generators_act_on_argument_stacks(catalog):
    """F and R on an (L, d) stack equal their row-by-row values."""
    rng = np.random.default_rng(7)
    for name, model in catalog.items():
        d = model.dims.d
        stack = rng.uniform(-2.0, 0.0, (6, d)) + 1j * rng.uniform(-3.0, 3.0, (6, d))
        f_all, r_all = model.gen.F(stack), model.gen.R(stack)
        assert np.shape(f_all) == (6,) and np.shape(r_all) == (6, d), name
        for j in range(6):
            np.testing.assert_allclose(f_all[j], model.gen.F(stack[j]), rtol=1e-14, atol=0)
            np.testing.assert_allclose(r_all[j], model.gen.R(stack[j]), rtol=1e-14, atol=0)



def _assert_matches_closed(model, times, us):
    grid = flow_on_grid(model.gen, model.dims, times, us, _TIGHT)
    assert not grid.errors
    for i, t in enumerate(times):
        for j, u in enumerate(us):
            ev, ref = grid.evals[i][j], model.closed_flow(t, u)
            if not ev.in_Q:  # the scalar factor fell through the vanishing floor
                assert ref.log_phi.real < math.log(Q_ZERO_EPS) + 50
                continue
            assert abs(ev.log_phi - ref.log_phi) <= 1e-6 * max(1.0, abs(ref.log_phi)), (t, u)
            assert np.all(np.abs(ev.psi - ref.psi) <= 1e-6 * np.maximum(1.0, np.abs(ref.psi))), (t, u)


_T = st.floats(min_value=0.05, max_value=10.0)
_RE = st.floats(min_value=-30.0, max_value=0.0)
_IM = st.floats(min_value=-30.0, max_value=30.0)


@given(st.floats(0.0, 3.0), st.sampled_from([0.0, 0.3, 1.0, 2.5]), st.floats(0.2, 2.0), _T,
       st.lists(st.tuples(_RE, _IM), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_batched_flow_matches_closed_cir(a, b, sigma, t, args):
    model = make_cir(a, b, sigma)
    us = [np.array([complex(re, im)]) for re, im in args]
    _assert_matches_closed(model, [0.0, 0.5 * t, t], us)


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.9, 0.9), _T,
       st.lists(st.tuples(_IM, _IM), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_batched_flow_matches_closed_levy(m1, m2, v, c, t, args):
    cov = 0.8 * np.array([[v, c * v], [c * v, v]]) + 0.05 * np.eye(2)
    model = make_levy([m1, m2], cov)
    us = [np.array([1j * y1, 1j * y2]) for y1, y2 in args]
    _assert_matches_closed(model, [0.0, 0.5 * t, t], us)


@given(st.floats(0.0, 2.0), st.floats(-1.0, 2.0), st.floats(0.2, 1.5),
       st.sampled_from([-1.0, -0.7, 0.0, 0.5, 1.0]), _T,
       st.lists(st.tuples(_RE, _IM, _IM), min_size=1, max_size=3),
       st.sampled_from([0.0, 1e-15, 1e-9, 1e-3]))
@settings(max_examples=40, deadline=None)
def test_batched_flow_matches_closed_heston(a, b, sigma, rho, t, args, eps):
    """Random arguments plus the closed form's special branches.

    With b = 0, u2 = 0 makes the root pair double (and |rho| = 1 makes it
    double for every u2); with b <= 0, u2 = 0 puts the root r+ at 0, so
    u1 = -eps sits on it (eps < 1e-14) or next to it.
    """
    model = make_heston_like(a, b, sigma, rho, lam=0.0)
    us = [np.array([complex(re, im1), 1j * im2]) for re, im1, im2 in args]
    us += [np.array([complex(args[0][0], args[0][1]), 0j]), np.array([-eps + 0j, 0j])]
    _assert_matches_closed(model, [0.0, 0.5 * t, t], us)


def test_closed_heston_double_root_up_to_rounding():
    """b = 0, rho = 1: B^2 - 4AC is zero in exact arithmetic but ~1e-16 |B|^2 in floats."""
    model = make_heston_like(0.29, 0.0, 0.82, 1.0, lam=0.0)
    t, u = 3.98, np.array([-22.9 + 18.2j, 0.87j])
    ode = flow_on_grid(model.gen, model.dims, [t], [u], _TIGHT).evals[0][0]
    closed = model.closed_flow(t, u)
    assert abs(closed.log_phi - ode.log_phi) <= 1e-10 * abs(ode.log_phi)
    assert np.all(np.abs(closed.psi - ode.psi) <= 1e-10 * np.abs(ode.psi))
