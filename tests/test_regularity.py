"""Derivative extraction at t=0 and smoothness diagnostics of the flow."""

import numpy as np
import pytest

from affineflow.core import Dims
from affineflow.empirical import SampledFlowSource
from affineflow.flow import ClosedFlowSource, FlowEvaluation, OdeFlowSource, flow_source_for
from affineflow.regularity import (
    DerivativeEstimate,
    FRExtrapolationError,
    estimate_FR,
    estimate_FR_from_samples,
    riccati_consistency,
    u_jacobian,
)
from affineflow.verify import sample_imaginary_points


def test_derivative_estimate_validation():
    u = np.array([-1.0 + 0j])
    with pytest.raises(ValueError, match="nonnegative"):
        DerivativeEstimate(u, 0j, np.array([0j]), np.array([1e-2, 5e-3]), 1, -1.0)
    with pytest.raises(ValueError, match="finite"):
        DerivativeEstimate(u, complex(np.nan), np.array([0j]), np.array([1e-2, 5e-3]), 1, 0.0)


def test_estimate_fr_cir_frozen_values(cir):
    """At u = -1 the generator gives F = a*u = -1 and R = sigma^2 u^2/2 - b*u = 1.5."""
    est = estimate_FR(ClosedFlowSource(cir.closed_flow), np.array([-1.0 + 0j]))
    assert abs(est.F_hat - (-1.0)) < 1e-6
    assert abs(est.R_hat[0] - 1.5) < 1e-6
    assert est.extrapolation_order == 2

    deep = estimate_FR(ClosedFlowSource(cir.closed_flow), np.array([-1.0 + 0j]),
                       h_schedule=(1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4))
    assert abs(deep.F_hat - (-1.0)) < 1e-9
    assert abs(deep.R_hat[0] - 1.5) < 1e-9
    assert deep.error_estimate < 1e-8


def test_estimate_fr_matches_generator(heston1):
    u = np.array([-0.5 + 0.2j, 0.3j])
    src = OdeFlowSource(heston1.gen, heston1.dims)
    est = estimate_FR(src, u)
    assert abs(est.F_hat - heston1.gen.F(u)) < 1e-6
    assert np.max(np.abs(est.R_hat - heston1.gen.R(u))) < 1e-6


def test_estimate_fr_vanishes_at_origin(cir):
    est = estimate_FR(ClosedFlowSource(cir.closed_flow), np.array([0j]))
    assert abs(est.F_hat) < 1e-10
    assert abs(est.R_hat[0]) < 1e-10


def test_estimate_fr_schedule_validation(cir):
    """One step is the plain forward quotient; an empty or non-halving schedule raises."""
    u = np.array([-1.0 + 0j])
    source = ClosedFlowSource(cir.closed_flow)
    est = estimate_FR(source, u, h_schedule=(1e-2,))
    ev = cir.closed_flow(1e-2, u)
    assert est.F_hat == (ev.phi - 1.0) / 1e-2 and est.R_hat[0] == (ev.psi[0] - u[0]) / 1e-2
    assert est.extrapolation_order == 0 and est.error_estimate == 0.0
    assert est.F_stderr is None and est.R_stderr is None
    with pytest.raises(ValueError, match="at least one step"):
        estimate_FR(source, u, h_schedule=())
    with pytest.raises(ValueError, match="ratio 2"):
        estimate_FR(source, u, h_schedule=(1e-2, 3e-3, 1e-3))


def test_estimate_fr_rejects_nonsmooth_flow():
    """A sqrt(t) kink in the scalar factor defeats first-order extrapolation."""

    def kinked(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        phi = complex(1.0 + np.sqrt(t))
        return FlowEvaluation(float(t), u_arr, phi, u_arr.copy(), complex(np.log(phi)))

    with pytest.raises(FRExtrapolationError, match="stopped decreasing"):
        estimate_FR(ClosedFlowSource(kinked), np.array([-1.0 + 0j]))


def test_estimate_fr_five_steps_accepts_rounding_noise(levy):
    """A 5-step schedule's finest quotients carry ~eps/h rounding noise; a
    smooth flow must not be rejected when the increments stall at that level."""
    source = flow_source_for(levy, prefer_closed=True)
    rng = np.random.default_rng(0)
    schedule = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)
    for _ in range(400):
        u = sample_imaginary_points(levy.dims, 1, rng)[0]
        est = estimate_FR(source, u, h_schedule=schedule)
        assert abs(est.F_hat - levy.gen.F(u)) < 1e-6


def test_estimate_fr_from_samples_cir(cir):
    est = estimate_FR_from_samples(cir, cir.dims, np.array([-1.0 + 0j]),
                                   h=0.01, n_paths=20_000, seed=7)
    assert abs(est.F_hat - (-1.0)) < 5.0 * est.F_stderr
    assert abs(est.R_hat[0] - 1.5) < 5.0 * est.R_stderr[0]
    assert np.array_equal(est.step_schedule, [0.01]) and est.extrapolation_order == 0
    assert 0.0 < max(est.F_stderr, est.R_stderr[0]) <= max(1.0, abs(est.F_hat))


def test_estimate_fr_makes_one_flow_call(heston1):
    """A five-step schedule is one on_grid call with the steps as its ascending t grid."""
    calls = []
    ode = OdeFlowSource(heston1.gen, heston1.dims)

    class Counting:
        def on_grid(self, t_grid, u_list):
            calls.append(list(t_grid))
            return ode.on_grid(t_grid, u_list)

    schedule = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)
    u = np.array([-0.3 + 0.2j, 0.7j])
    est = estimate_FR(Counting(), u, h_schedule=schedule)
    assert calls == [sorted(schedule)]
    assert abs(est.F_hat - heston1.gen.F(u)) < 1e-8
    assert np.max(np.abs(est.R_hat - heston1.gen.R(u))) < 1e-8


def test_estimate_fr_refuses_to_extrapolate_sampled_cells(cir):
    source = SampledFlowSource(cir, cir.dims, 1000, seed=7)
    with pytest.raises(ValueError, match="joint covariance"):
        estimate_FR(source, np.array([-1.0 + 0j]), h_schedule=(1e-2, 5e-3))


def test_estimate_fr_from_samples_refuses_noise_dominated_step(cir):
    with pytest.raises(ValueError, match="noise floor"):
        estimate_FR_from_samples(cir, cir.dims, np.array([-1.0 + 0j]),
                                 h=1e-6, n_paths=100, seed=7)
    with pytest.raises(ValueError, match="positive"):
        estimate_FR_from_samples(cir, cir.dims, np.array([-1.0 + 0j]),
                                 h=0.0, n_paths=100, seed=7)


def test_riccati_consistency_closed_cir(cir):
    src = ClosedFlowSource(cir.closed_flow)
    report = riccati_consistency(src, cir.gen, 0.8, np.array([-1.0 + 0.5j]))
    assert report.passed
    assert report.max_violation < 1e-8


def test_riccati_consistency_ode_heston(heston1):
    src = OdeFlowSource(heston1.gen, heston1.dims)
    report = riccati_consistency(src, heston1.gen, 0.6, np.array([-0.5 + 0.2j, 0.3j]))
    assert report.passed


def test_riccati_consistency_trivial_at_zero(cir):
    src = ClosedFlowSource(cir.closed_flow)
    report = riccati_consistency(src, cir.gen, 0.0, np.array([-1.0 + 0j]))
    assert report.passed and "t=0" in report.grid_spec
    with pytest.raises(ValueError):
        riccati_consistency(src, cir.gen, -0.5, np.array([-1.0 + 0j]))


def test_u_jacobian_frozen_value():
    """psi(t,u) = u/(1-tu) for the drift-free unit-quadratic model: d/du at
    (t=0.5, u=-1) is 1/(1-tu)^2 = 4/9, and the scalar factor is constant."""
    from affineflow.models import make_cir

    model = make_cir(0.0, 0.0, np.sqrt(2.0))
    jac = u_jacobian(ClosedFlowSource(model.closed_flow), model.dims, 0.5, np.array([-1.0 + 0j]))
    assert jac.shape == (2, 1)
    assert abs(jac[0, 0]) < 1e-9  # d phi / du == 0 when a == 0
    assert abs(jac[1, 0] - 4.0 / 9.0) < 1e-8


def test_u_jacobian_empty_for_pure_free_models(levy):
    src = OdeFlowSource(levy.gen, levy.dims)
    jac = u_jacobian(src, levy.dims, 0.5, np.array([0.4j, -0.2j]))
    assert jac.shape == (3, 0)


def test_u_jacobian_validation(cir):
    with pytest.raises(ValueError, match="interior"):
        u_jacobian(ClosedFlowSource(cir.closed_flow), cir.dims, 0.5, np.array([0.0 + 1j]))
    with pytest.raises(ValueError, match="underflow"):
        u_jacobian(ClosedFlowSource(cir.closed_flow), cir.dims, 0.5, np.array([-1.5e-12 + 0j]))
