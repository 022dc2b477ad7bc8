"""Sample-based transform estimates and the statistical process checks."""

import numpy as np
import pytest

from affineflow import models
from affineflow.core import Dims
from affineflow.empirical import (
    BranchContinuityError,
    EcfEstimate,
    affine_factorization_test,
    ecf_from_states,
    endpoint_states,
    SampledFlowSource,
    recover_phi_psi,
    semihomogeneity_test,
)
from affineflow.flow import flow_on_grid
from affineflow.models import _sub_seeds, make_heston_like


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
    evals = [ev for (ev,) in recover_phi_psi(cir, cir.dims, ts, [u], n_paths=20_000, seed=5)]
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
    """The leading 0 is optional; repeated, decreasing or negative times raise."""
    u = np.array([-1.0 + 0j])
    assert [row[0].t for row in recover_phi_psi(cir, cir.dims, [0.1, 0.5], [u], 100, seed=1)] \
        == [0.1, 0.5]
    for ts in ([0.0, 0.5, 0.5], [0.1, 0.5, 0.5], [0.5, 0.1], [-0.1, 0.5], []):
        with pytest.raises(ValueError, match="strictly increasing and nonnegative"):
            recover_phi_psi(cir, cir.dims, ts, [u], 100, seed=1)


def _same_cell(a, b):
    return (a.t == b.t and a.phi == b.phi and a.log_phi == b.log_phi and a.in_Q == b.in_Q
            and np.array_equal(a.psi, b.psi) and a.phi_stderr == b.phi_stderr
            and np.array_equal(a.psi_stderr, b.psi_stderr))


def test_sampled_source_on_a_u_list_equals_one_u_calls(heston0):
    """Each start's paths are drawn once for every u: a 2-u grid is two 1-u grids bit for bit."""
    source = SampledFlowSource(heston0, heston0.dims, 1000, seed=4)
    us = [np.array([-0.5 + 0.2j, 0.3j]), np.array([0.4j, -0.6j])]
    ts = [0.0, 0.2, 0.5]
    rows = source.on_grid(ts, us)
    assert [len(row) for row in rows] == [2, 2, 2]
    for j, u in enumerate(us):
        alone = source.on_grid(ts, [u])
        assert all(_same_cell(row[j], one[0]) for row, one in zip(rows, alone))
    assert source.on_grid(ts, []) == [[], [], []]


def test_sampled_source_without_a_leading_zero_is_the_tail(heston0):
    """[h] draws the grid [0, h] and drops the 0 row."""
    source = SampledFlowSource(heston0, heston0.dims, 1000, seed=4)
    u = np.array([-0.5 + 0.2j, 0.3j])
    tail = source.on_grid([0.0, 0.01], [u])[1:]
    (row,) = source.on_grid([0.01], [u])
    assert _same_cell(row[0], tail[0][0])


def test_recover_phi_psi_branch_tracking_error():
    """A deterministic source whose phase sprints between grid times must refuse."""

    def spinning(x0, times, n_paths, seed):
        out = np.empty((n_paths, len(times), 1))
        out[:, :, 0] = x0[0] + np.asarray(times)
        return out

    with pytest.raises(BranchContinuityError, match="phase jump"):
        recover_phi_psi(spinning, Dims(0, 1), [0.0, 0.5, 1.0], [np.array([4j])],
                        n_paths=16, seed=0)


def test_recover_phi_psi_anchors_each_phase_at_its_start(levy):
    """With |Im u_k| > pi each start's phase begins at Im <u, x_start>, not its principal value."""

    def still(x0, times, n_paths, seed):
        return np.broadcast_to(x0, (n_paths, len(times), len(x0))).copy()

    u = np.array([4j, 0.5j])
    exact = recover_phi_psi(still, Dims(0, 2), [0.0, 0.5], [u], n_paths=8, seed=0)[-1][0]
    assert np.allclose(exact.psi, u, rtol=0, atol=1e-12) and abs(exact.log_phi) == 0
    # levy's fiber map is the identity: psi_1 was 4j - 2 pi i before the anchor
    ev = recover_phi_psi(levy, levy.dims, [0.0, 0.1], [u], n_paths=2000, seed=3)[-1][0]
    assert all(abs(ev.psi - u) < 5.0 * ev.psi_stderr), (ev.psi, ev.psi_stderr)


def test_semihomogeneity_pass_and_fail(heston0):
    u = np.array([-0.5 + 0j, 0.8j])
    passing = semihomogeneity_test(heston0, heston0.dims, 0.5, u, n_paths=4000, seed=12)
    assert passing.passed, passing.max_violation

    drifting = make_heston_like(0.4, 0.6, 0.5, -0.5, 0.8)
    failing = semihomogeneity_test(drifting, drifting.dims, 0.5, u, n_paths=4000, seed=12)
    assert not failing.passed
    assert failing.max_violation > 3.0


def test_semihomogeneity_draws_only_the_scored_starts(heston1):
    """The origin and the free unit vector are drawn, the cone start is not, and
    each scored number is recover_phi_psi's free component bit for bit."""
    starts = []

    def source(x0, times, n_paths, seed):
        starts.append((tuple(x0), seed))
        return models.sample_grid(heston1, x0, times, n_paths, seed)

    u = np.array([-0.5 + 0.3j, 0.8j])
    # a threshold below every score keeps the witness in the report
    report = semihomogeneity_test(source, heston1.dims, 0.5, u, n_paths=600, seed=21,
                                  threshold=-1.0)
    seeds = _sub_seeds(21, 1 + heston1.dims.d)  # one per start: origin, cone, free
    assert starts == [((0.0, 0.0), seeds[0]), ((0.0, 1.0), seeds[2])]
    ev = recover_phi_psi(heston1, heston1.dims, [0.5], [u], n_paths=600, seed=21)[-1][0]
    (witness,) = report.witnesses
    assert witness["inputs"]["component"] == 1
    assert witness["observed"]["psi_k"] == ev.psi[1]
    assert witness["observed"]["stderr"] == ev.psi_stderr[1]
    assert witness["observed"]["defect"] == abs(ev.psi[1] - u[1])
    assert report.max_violation == abs(ev.psi[1] - u[1]) / ev.psi_stderr[1]
    with pytest.raises(ValueError, match="positive"):
        semihomogeneity_test(source, heston1.dims, 0.0, u, n_paths=600, seed=21)


def test_semihomogeneity_vacuous_without_free_part(cir):
    report = semihomogeneity_test(cir, cir.dims, 0.5, np.array([-1.0 + 0j]),
                                  n_paths=10, seed=0)
    assert report.passed and "vacuous" in report.grid_spec


def test_heston_sampled_gates_are_calibrated(heston1):
    """Over fixed seeds, each sampled gate's single-probe z has mean z^2 in [0.6, 1.5].

    Rule: z is |complex gap| over the stderr of a complex mean, so E z^2 = 1
    when the stderr measures the sampling noise and no bias sits below it.
    The test draws ``affine_factorization_test`` (one u, the CLI's corners)
    and ``recover_phi_psi`` (z of phi and of each psi component against the
    ODE flow) on Heston lam = 1 at t = 0.05, 512 paths, over K = 150 seeds
    each.  Each mean of K values of z^2 has a standard deviation of about
    0.1 (sqrt(2/K) if z^2 is chi-square with one degree of freedom), so the
    band [0.6, 1.5] holds a calibrated gate and fails a stderr off by sqrt(2)
    either way.  The seeds are fixed, so the test is deterministic.
    """
    dims, t, k_seeds, n = heston1.dims, 0.05, 150, models.BLOCK_PATHS
    x0 = np.array([0.3, 0.0])
    xa, xb = x0 + 0.4, x0 + np.array([0.25, -0.25])
    u = np.array([-0.7j, 0.9j])
    ref = flow_on_grid(heston1.gen, dims, [t], [u]).evals[0][0]
    z2 = {"factorization": [], "phi": [], "psi_0": [], "psi_1": []}
    for seed in range(k_seeds):
        report = affine_factorization_test(heston1, dims, t, [u], x0, xa, xb, n, seed)
        z2["factorization"].append(report.max_violation ** 2)
        ((ev,),) = recover_phi_psi(heston1, dims, [t], [u], n, k_seeds + seed)
        z2["phi"].append((abs(ev.phi - ref.phi) / ev.phi_stderr) ** 2)
        for k in range(dims.d):
            z2[f"psi_{k}"].append((abs(ev.psi[k] - ref.psi[k]) / ev.psi_stderr[k]) ** 2)
    means = {name: float(np.mean(values)) for name, values in z2.items()}
    assert all(0.6 <= mean <= 1.5 for mean in means.values()), means
