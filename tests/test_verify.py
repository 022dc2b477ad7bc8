"""Flow-identity checks, drift recovery, linear fits, positive definiteness, decay."""

import json
import math

import numpy as np
import pytest

from affineflow.core import Dims, Region, classify_region, in_domain_interior
from affineflow.flow import ClosedFlowSource, FlowEvaluation, OdeFlowSource, matrix_exp
from affineflow.models import GeneratorPair, make_heston_like
from affineflow import verify
from affineflow.verify import (
    CheckReport,
    check_monotonicity,
    check_property_A,
    check_semiflow,
    extract_beta,
    feller_decay,
    fit_linearity,
    posdef_certificate,
    posdef_points,
    report_to_json,
    sample_imaginary_points,
    sample_interior_points,
)


def test_check_report_contract():
    good = CheckReport("demo", "grid", 0.5, 1.0)
    assert good.passed and good.require() is good
    bad = CheckReport("demo", "grid", 2.0, 1.0, witnesses=[{"inputs": "w"}])
    assert not bad.passed
    with pytest.raises(AssertionError, match="demo"):
        bad.require()


def test_report_json_serializes_numpy_payloads():
    report = CheckReport(
        "demo", "grid", 1e-3, 1e-2,
        witnesses=[{"inputs": {"u": np.array([1j, -2.0 + 0j])},
                    "observed": np.float64(0.25), "expected": (1, 2)}],
    )
    text = report_to_json(report)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["passed"] is True
    assert payload["witnesses"][0]["inputs"]["u"][0] == {"re": 0.0, "im": 1.0}
    assert payload["witnesses"][0]["observed"] == 0.25
    assert "np.float64" not in text


def test_probe_samplers():
    dims = Dims(1, 1)
    pts = sample_interior_points(dims, 7, np.random.default_rng(0))
    assert len(pts) == 7
    assert all(in_domain_interior(u, dims) for u in pts)
    imag = sample_imaginary_points(dims, 5, np.random.default_rng(0))
    assert all(classify_region(u, dims) is Region.PURE_IMAGINARY for u in imag)
    again = sample_interior_points(dims, 7, np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(pts, again))


def test_semiflow_closed_form_passes(cir):
    us = [np.array([-1.0 + 0j]), np.array([-0.4 + 0.7j])]
    report = check_semiflow(ClosedFlowSource(cir.closed_flow), [0.2, 0.5], [0.3, 0.6], us)
    assert report.passed
    assert report.max_violation < 1e-12
    assert "both orders" in report.grid_spec


def test_semiflow_catches_scaling_defect(cir):
    """A 2e-4 multiplicative error on the scalar factor must be flagged."""

    def broken(t, u):
        ev = cir.closed_flow(t, u)
        return FlowEvaluation(ev.t, ev.u, ev.phi * (1 + 2e-4), ev.psi, ev.log_phi)

    report = check_semiflow(ClosedFlowSource(broken), [0.2], [0.3], [np.array([-1.0 + 0j])])
    assert not report.passed
    assert report.max_violation > 1e-5
    assert report.witnesses  # failure must carry witnesses


def test_monotonicity_cir(cir):
    pairs = [
        (np.array([-1.0 + 0.8j]), np.array([-0.5 + 0j])),
        (np.array([-0.7 - 0.3j]), np.array([-0.7 + 0j])),
    ]
    report = check_monotonicity(ClosedFlowSource(cir.closed_flow), [0.3, 1.0], pairs)
    assert report.passed
    with pytest.raises(ValueError, match="Re u <= Re w"):
        check_monotonicity(ClosedFlowSource(cir.closed_flow), [0.3],
                           [(np.array([-0.2 + 0j]), np.array([-0.5 + 0j]))])


def test_monotonicity_reads_a_nan_cell_as_inf(cir):
    """A u lane that left the domain answers NaN; that probe must fail, with a witness."""

    def exiting(t, u):
        if np.any(np.asarray(u).imag != 0):  # the u lanes; the Re w lanes are real
            nan = complex(np.nan, np.nan)
            return FlowEvaluation(float(t), u, nan, np.full(1, nan), nan, in_Q=False)
        return cir.closed_flow(t, u)

    pairs = [(np.array([-1.0 + 0.8j]), np.array([-0.5 + 0j]))]
    report = check_monotonicity(ClosedFlowSource(exiting), [0.3], pairs)
    assert not report.passed
    assert math.isinf(report.max_violation)
    assert len(report.witnesses) == 1
    assert np.array_equal(report.witnesses[0]["inputs"]["u"], pairs[0][0])


def test_property_a_interior_preservation(cir, heston0):
    report = check_property_A(ClosedFlowSource(cir.closed_flow), [0.5, 1.0, 3.0],
                              [np.array([-0.8 + 0.4j]), np.array([-2.0 - 1.0j])],
                              cir.dims)
    assert report.passed
    src = OdeFlowSource(heston0.gen, heston0.dims)
    report2 = check_property_A(src, [0.5, 2.0],
                               [np.array([-0.5 + 0.2j, 0.3j])], heston0.dims)
    assert report2.passed


def test_property_a_rejects_boundary_probe(cir):
    with pytest.raises(ValueError, match="interior"):
        check_property_A(ClosedFlowSource(cir.closed_flow), [0.5], [np.array([0.0 + 1j])], cir.dims)


def test_property_a_flags_domain_exit():
    gen = GeneratorPair(F=lambda u: 0j, R=lambda u: np.array([5.0 + 0j]))
    src = OdeFlowSource(gen, Dims(1, 0))
    report = check_property_A(src, [1.0], [np.array([-0.5 + 0j])], Dims(1, 0))
    assert not report.passed
    assert math.isinf(report.max_violation)


def test_extract_beta_heston_mean_reverting(heston1):
    src = OdeFlowSource(heston1.gen, heston1.dims)
    beta, report = extract_beta(src, heston1.dims)
    assert report.passed
    assert abs(beta[0, 0] - (-1.0)) < 1e-6


def test_extract_beta_identity_fiber(levy):
    src = OdeFlowSource(levy.gen, levy.dims)
    beta, report = extract_beta(src, levy.dims)
    assert report.passed
    assert beta.shape == (2, 2)
    assert np.max(np.abs(beta)) < 1e-12


def test_extract_beta_vacuous_without_free_part(cir):
    beta, report = extract_beta(ClosedFlowSource(cir.closed_flow), cir.dims)
    assert beta.shape == (0, 0)
    assert report.passed and "vacuous" in report.grid_spec


def test_extract_beta_rejects_reflection():
    """A fiber map that negates its argument is not differentiable at t = 0: a failing probe."""

    def reflecting(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        return FlowEvaluation(float(t), u_arr, 1 + 0j, -u_arr, 0j)

    beta, report = extract_beta(ClosedFlowSource(reflecting), Dims(0, 1))
    assert np.all(np.isnan(beta))
    assert not report.passed and math.isinf(report.max_violation)
    assert len(report.witnesses) == 1
    assert report.witnesses[0]["observed"]["column"] == 0
    assert "stopped decreasing" in report.witnesses[0]["observed"]["error"]


@pytest.mark.parametrize("beta_true", [
    [[-0.3, -1.2], [0.8, -0.1]],
    [[-0.1, -8.0], [8.0, -0.1]],  # 4 rad (> pi) by t = 0.5: a principal log misses by 2 pi / 0.5
], ids=["slow", "fast"])
def test_extract_beta_recovers_a_rotating_drift(beta_true):
    """A non-diagonal drift comes back real from the rate columns at t = 0."""
    beta_true = np.array(beta_true)

    def rotating(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        return FlowEvaluation(float(t), u_arr, 1 + 0j, matrix_exp(beta_true, t) @ u_arr, 0j)

    beta, report = extract_beta(ClosedFlowSource(rotating), Dims(0, 2))
    assert np.isrealobj(beta)
    assert np.max(np.abs(beta - beta_true)) < 1e-10
    assert report.passed


def test_extract_beta_recovers_random_drifts():
    """The rate route on closed flows u -> exp(tB) u for random real drifts, n <= 3.

    Drifts are drawn with ||B||_1 <= 10 and max Re of an eigenvalue at most 2.
    The validation probe's error is absolute and exp(tB) amplifies the rate's
    truncation error up to t = 1.4, so strongly explosive drifts (real parts
    above about 5) can fail the report at its default threshold while beta
    itself is still close; they are out of this test's range.
    """
    rng = np.random.default_rng(2003)
    tested = 0
    while tested < 200:
        n = int(rng.integers(1, 4))
        b = rng.standard_normal((n, n))
        b *= float(rng.uniform(0.1, 10.0)) / np.linalg.norm(b, 1)
        if np.max(np.linalg.eigvals(b).real) > 2.0:
            continue
        tested += 1

        def closed(t, u, b=b):
            u_arr = np.asarray(u, dtype=np.complex128)
            return FlowEvaluation(float(t), u_arr, 1 + 0j, matrix_exp(b, t) @ u_arr, 0j)

        beta, report = extract_beta(ClosedFlowSource(closed), Dims(0, n))
        assert np.max(np.abs(beta - b)) <= 1e-9, (b, beta)
        assert report.passed, (b, report.max_violation)


def test_extract_beta_imaginary_leak_fails_with_a_witness():
    """Rate columns with an imaginary part above the threshold are themselves a failing probe."""

    def leaking(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        leak = 1e-6 * t if t <= 0.01 else 0.0  # only at the rate's steps; validation is exact
        return FlowEvaluation(float(t), u_arr, 1 + 0j, math.exp(-t) * u_arr + leak, 0j)

    beta, report = extract_beta(ClosedFlowSource(leaking), Dims(0, 1))
    assert abs(beta[0, 0] + 1.0) < 1e-12
    assert not report.passed
    assert report.max_violation == pytest.approx(1e-6)
    assert len(report.witnesses) == 1
    assert report.witnesses[0]["inputs"]["t"] == 0.0
    assert report.witnesses[0]["observed"]["imag_leak"] == report.max_violation


def test_scored_report_rule():
    """Worst score is the violation, NaN is inf, witnesses are the worst five failures."""
    scores = [0.5, 3.0, 0.1, 2.0, 7.0, 2.0, 1.5, 4.0]
    report = verify._scored_report("demo", "grid", 1.0, [(v, i) for i, v in enumerate(scores)])
    assert report.max_violation == 7.0 and not report.passed
    assert report.witnesses == [4, 7, 1, 3, 5]  # worst first, ties in probe order
    nan_report = verify._scored_report("demo", "grid", 1.0, [(0.2, "a"), (math.nan, "b")])
    assert math.isinf(nan_report.max_violation) and nan_report.witnesses == ["b"]
    empty = verify._scored_report("demo", "grid", 1.0, [])
    assert empty.max_violation == 0.0 and empty.passed and empty.witnesses == []
    # scores may be negative: a certificate with slack to spare
    assert verify._scored_report("demo", "grid", 0.0, [(-0.3, "a")]).max_violation == -0.3
    assert verify._z_score(2.0, 0.5) == 4.0
    assert verify._z_score(0.0, 0.0) == 0.0
    assert math.isinf(verify._z_score(1e-300, 0.0))


def test_fit_linearity_recovers_decay_factor():
    """Free fiber component of the lam=0.6 model contracts by e^{-0.3} at t=0.5."""
    model = make_heston_like(0.4, 0.6, 0.5, -0.5, 0.6)
    src = OdeFlowSource(model.gen, model.dims)
    samples = []
    for y in (0.2, -0.35, 0.5, 0.75, -0.6):
        u = np.array([0j, 1j * y])
        ev = src.on_grid([0.5], [u])[0][0]
        samples.append((np.array([0.0, y]), ev.psi[1]))
    fit = fit_linearity(samples, component=1, k_indices=[1], radius=1.0)
    assert abs(fit.zeta[0] - 0.7408182206817179) < 1e-8
    assert fit.residual < 1e-8


def test_fit_linearity_flags_nonlinear_cone_component(cir):
    samples = []
    for y in (0.2, -0.35, 0.5, 0.75):
        ev = cir.closed_flow(0.5, np.array([1j * y]))
        samples.append((np.array([y]), ev.psi[0]))
    fit = fit_linearity(samples, component=0, k_indices=[0], radius=1.0)
    assert fit.residual > 1e-3


def test_fit_linearity_validation():
    mk = lambda y: (np.array([y, 0.0]), 0.1j)
    with pytest.raises(ValueError, match="at least"):
        fit_linearity([], component=0, k_indices=[0], radius=1.0)
    with pytest.raises(ValueError, match="radius"):
        fit_linearity([mk(1.5)], component=0, k_indices=[0], radius=1.0)
    with pytest.raises(ValueError, match="supported"):
        fit_linearity([(np.array([0.2, 0.3]), 0.1j)], component=0, k_indices=[0], radius=1.0)


def test_posdef_gaussian_characteristic_function():
    theta = lambda y: complex(np.exp(-0.5 * float(y[0]) ** 2))
    rng = np.random.default_rng(17)
    pairs = [(rng.normal(size=1), rng.normal(size=1)) for _ in range(20)]
    report = posdef_certificate(pairs, [theta(y) for y in posdef_points(pairs)])
    assert report.passed


def test_posdef_rejects_quadratic_bump():
    """theta(y) = 1 + y^2 at y = z = 1: the 3x3 probe matrix has eigenvalue -4.

    The product inequality and the determinant are satisfied (-8 and det 8),
    so the minimum-eigenvalue term is the one that must carry the rejection.
    """
    theta = lambda y: complex(1.0 + float(y[0]) ** 2)
    pairs = [(np.array([1.0]), np.array([1.0]))]
    report = posdef_certificate(pairs, [theta(y) for y in posdef_points(pairs)])
    assert not report.passed
    assert report.max_violation == pytest.approx(4.0, abs=1e-9)
    observed = report.witnesses[0]["observed"]
    assert observed["det"] == pytest.approx(8.0, abs=1e-9)
    assert observed["product_inequality"] == pytest.approx(-8.0, abs=1e-9)
    assert observed["min_eigenvalue"] == pytest.approx(-4.0, abs=1e-9)


def test_posdef_validation():
    pairs = [(np.array([1.0]), np.array([1.0]))]
    with pytest.raises(ValueError, match="at least one"):
        posdef_points([])
    with pytest.raises(ValueError, match="at least one"):
        posdef_certificate([], [1.0 + 0j])
    with pytest.raises(ValueError, match="7 posdef_points, got 6"):
        posdef_certificate(pairs, [1.0 + 0j] * 6)
    with pytest.raises(ValueError, match="theta\\(0\\)"):
        posdef_certificate(pairs, [2.0 + 0j] * 7)


def test_test_function_quadrature():
    fn = verify.TestFunction(u_I=np.array([-1.0 + 0j]))
    ys, w = fn.quadrature()
    assert len(ys) == 257 and np.all(np.diff(ys) > 0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="Re < 0"):
        verify.TestFunction(u_I=np.array([0.5 + 0j]))


def test_feller_decay_along_both_rays(heston0):
    fn = verify.TestFunction(u_I=np.array([-1.0 + 0j]))
    src = ClosedFlowSource(heston0.closed_flow)
    free_ray = [np.array([0.3, r]) for r in np.linspace(0.0, 40.0, 30)]
    cone_ray = [np.array([0.3 + r, 0.0]) for r in np.linspace(0.0, 40.0, 30)]
    report = feller_decay(src, heston0, fn, 1.0, [free_ray, cone_ray])
    assert report.passed, report.grid_spec


def test_feller_decay_validation(cir, levy, control):
    fn = verify.TestFunction(u_I=np.array([-1.0 + 0j]))
    ray = [np.array([0.0]), np.array([1.0])]
    with pytest.raises(ValueError, match="free component"):
        feller_decay(ClosedFlowSource(cir.closed_flow), cir, fn, 0.5, [ray])
    with pytest.raises(ValueError, match="free component"):
        feller_decay(ClosedFlowSource(levy.closed_flow), levy,
                     verify.TestFunction(u_I=np.zeros(0, dtype=complex) - 0j), 0.5, [ray])
    with pytest.raises(ValueError, match="drift"):
        feller_decay(None, control, verify.TestFunction(u_I=np.zeros(0)), 0.5, [ray])
