"""Sample-based transform estimates and the statistical process checks."""

import numpy as np
import pytest

from affineflow.core import Dims
from affineflow.empirical import (
    BranchContinuityError,
    EcfEstimate,
    affine_factorization_test,
    ecf_from_states,
    endpoint_states,
    recover_phi_psi,
    semihomogeneity_test,
)
from affineflow.models import make_heston_like


def test_ecf_estimate_validation():
    u = np.array([1j])
    with pytest.raises(ValueError, match="at least one sample"):
        EcfEstimate(0.0, u, 0.5 + 0j, 0.0, 0)
    with pytest.raises(ValueError, match="stderr"):
        EcfEstimate(0.0, u, 0.5 + 0j, -0.1, 10)
    with pytest.raises(ValueError, match="exceeds 1"):
        EcfEstimate(0.0, u, 1.5 + 0j, 0.01, 100)
    # statistical slack keeps mild overshoot legal
    assert EcfEstimate(0.0, u, 1.0 + 0j, 0.05, 100).value == 1.0 + 0j


def test_ecf_from_states_exact_mean():
    states = np.array([[0.0], [1.0], [2.0]])
    u = np.array([1j])
    est = ecf_from_states(states, u, t=0.25)
    expected = np.mean(np.exp(1j * np.array([0.0, 1.0, 2.0])))
    assert est.value == pytest.approx(expected, abs=1e-15)
    assert est.t == 0.25 and est.n == 3 and est.stderr > 0
    constant = ecf_from_states(np.zeros((4, 1)), u)
    assert constant.value == 1.0 + 0j and constant.stderr == 0.0
    with pytest.raises(ValueError, match="\\(n, d\\)"):
        ecf_from_states(np.zeros(3), u)


def test_endpoint_states(heston0):
    states = endpoint_states(heston0, [0.3, 0.0], 0.5, 64, seed=3)
    assert states.shape == (64, 2)
    at_zero = endpoint_states(heston0, [0.3, 0.0], 0.0, 8, seed=3)
    assert np.allclose(at_zero, [0.3, 0.0])


def test_factorization_accepts_affine_model(cir):
    report = affine_factorization_test(
        cir, cir.dims, 0.5,
        [np.array([-0.8 + 0j]), np.array([-0.3 + 0.5j])],
        x_base=[1.0], x_probe_a=[1.4], x_probe_b=[0.75],
        n_paths=4000, seed=9,
    )
    assert report.passed, report.max_violation


def test_factorization_rejects_control(control):
    """The control's time-t law depends on the start only through its square."""
    report = affine_factorization_test(
        control, control.dims, 0.5,
        [np.array([0.9j]), np.array([0.4j])],
        x_base=[0.7], x_probe_a=[1.2], x_probe_b=[0.2],
        n_paths=4000, seed=9,
    )
    assert not report.passed
    assert report.max_violation > 10.0
    assert report.witnesses


def test_factorization_corner_must_stay_on_cone(cir):
    with pytest.raises(ValueError, match="cone"):
        affine_factorization_test(cir, cir.dims, 0.5, [np.array([-1.0 + 0j])],
                                  x_base=[1.0], x_probe_a=[0.2], x_probe_b=[0.1],
                                  n_paths=100, seed=1)


def test_recover_phi_psi_tracks_closed_flow(cir):
    ts = [0.0, 0.25, 0.5]
    u = np.array([-1.0 + 0j])
    evals = recover_phi_psi(cir, cir.dims, ts, u, n_paths=20_000, seed=5)
    assert len(evals) == 3
    assert evals[0].phi == 1 + 0j and np.array_equal(evals[0].psi, u)
    for ev in evals[1:]:
        ref = cir.closed_flow(ev.t, u)
        # the reference transform differs from phi by the start-state factor:
        # paths from the origin isolate the scalar part directly
        assert abs(ev.phi - ref.phi) < 5.0 * ev.phi_stderr
        assert abs(ev.psi[0] - ref.psi[0]) < 5.0 * ev.psi_stderr[0]
        assert ev.in_Q


def test_recover_phi_psi_validation(cir):
    u = np.array([-1.0 + 0j])
    with pytest.raises(ValueError, match="start at 0"):
        recover_phi_psi(cir, cir.dims, [0.1, 0.5], u, 100, seed=1)
    with pytest.raises(ValueError, match="start at 0"):
        recover_phi_psi(cir, cir.dims, [0.0, 0.5, 0.5], u, 100, seed=1)


def test_recover_phi_psi_branch_tracking_error():
    """A deterministic source whose phase sprints between grid times must refuse."""

    def spinning(x0, times, n_paths, seed):
        out = np.empty((n_paths, len(times), 1))
        out[:, :, 0] = x0[0] + np.asarray(times)
        return out

    with pytest.raises(BranchContinuityError, match="phase jump"):
        recover_phi_psi(spinning, Dims(0, 1), [0.0, 0.5, 1.0], np.array([4j]),
                        n_paths=16, seed=0)


def test_recover_phi_psi_anchors_each_phase_at_its_start(levy):
    """With |Im u_k| > pi each start's phase begins at Im <u, x_start>, not its principal value."""

    def still(x0, times, n_paths, seed):
        return np.broadcast_to(x0, (n_paths, len(times), len(x0))).copy()

    u = np.array([4j, 0.5j])
    exact = recover_phi_psi(still, Dims(0, 2), [0.0, 0.5], u, n_paths=8, seed=0)[-1]
    assert np.allclose(exact.psi, u, rtol=0, atol=1e-12) and abs(exact.log_phi) == 0
    # levy's fiber map is the identity: psi_1 was 4j - 2 pi i before the anchor
    ev = recover_phi_psi(levy, levy.dims, [0.0, 0.1], u, n_paths=2000, seed=3)[-1]
    assert all(abs(ev.psi - u) < 5.0 * ev.psi_stderr), (ev.psi, ev.psi_stderr)


def test_semihomogeneity_pass_and_fail(heston0):
    u = np.array([-0.5 + 0j, 0.8j])
    passing = semihomogeneity_test(heston0, heston0.dims, 0.5, u, n_paths=4000, seed=12)
    assert passing.passed, passing.max_violation

    drifting = make_heston_like(0.4, 0.6, 0.5, -0.5, 0.8)
    failing = semihomogeneity_test(drifting, drifting.dims, 0.5, u, n_paths=4000, seed=12)
    assert not failing.passed
    assert failing.max_violation > 3.0


def test_semihomogeneity_vacuous_without_free_part(cir):
    report = semihomogeneity_test(cir, cir.dims, 0.5, np.array([-1.0 + 0j]),
                                  n_paths=10, seed=0)
    assert report.passed and "vacuous" in report.grid_spec

