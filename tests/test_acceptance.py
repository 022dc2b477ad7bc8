"""Acceptance suite: one test per advertised guarantee of the package.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers (visible even under ``pytest -q``) and then asserts, so the suite
doubles as a human-readable report.  Tolerances and sample sizes here are
contractual — do not loosen them to make a failure go away.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import affineflow
from affineflow.cli import CHECK_NAMES
from affineflow.core import Tolerances
from affineflow.empirical import (
    affine_factorization_test,
    endpoint_states,
    semihomogeneity_test,
)
from affineflow.flow import flow_source_for, matrix_exp
from affineflow.movingframe import (
    build_frame,
    inverse_values,
    pq_recursion,
    transform_values,
    transformed_state_source,
)
from affineflow.models import uniform_times
from affineflow.regularity import estimate_FR, estimate_FR_from_samples
from affineflow import verify
from affineflow.verify import (
    check_semiflow,
    extract_beta,
    feller_decay,
    posdef_certificate,
    posdef_points,
    sample_imaginary_points,
    sample_interior_points,
)

ODE_TOL = Tolerances(ode_rel=1e-10, ode_abs=1e-12)


def _record(capsys, idx, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {idx}. {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def _u_sample(dims, count, rng, interior=True):
    if interior and dims.m:
        return sample_interior_points(dims, count, rng)
    return sample_imaginary_points(dims, count, rng)


def test_criterion_1_semiflow_composition(catalog, capsys):
    """Composition residual of the integrated flow on a 5 x 5 x 10 grid."""
    t_grid = [0.1, 0.3, 0.5, 0.8, 1.2]
    s_grid = [0.05, 0.2, 0.45, 0.7, 1.0]
    start = time.perf_counter()
    worst = 0.0
    for model in catalog.values():
        rng = np.random.default_rng(3101)
        u_pts = _u_sample(model.dims, 10, rng)
        source = flow_source_for(model, ODE_TOL)  # always the ODE route
        rep = check_semiflow(source, t_grid, s_grid, u_pts, threshold=1e-8)
        worst = max(worst, rep.max_violation)
    elapsed = time.perf_counter() - start
    _record(capsys, 1, "semi-flow composition", worst <= 1e-8 and elapsed < 30.0,
            f"max residual {worst:.2e} (limit 1e-08) over 4 models, "
            f"5x5x10 grid each, {elapsed:.1f}s (limit 30s)")


def test_criterion_2_free_drift_recovery(catalog, capsys):
    """The log-derivative of the free fiber block matches the model drift."""
    beta_err = 0.0
    ident_err = 0.0
    for model in catalog.values():
        source = flow_source_for(model, ODE_TOL, prefer_closed=True)
        beta_hat, rep = extract_beta(source, model.dims, threshold=1e-6)
        beta_hat = np.asarray(beta_hat)
        if beta_hat.size:
            beta_err = max(beta_err, float(np.max(np.abs(beta_hat - model.beta))))
        assert rep.passed
        if model.dims.n == 0:
            continue
        # independent grid: times away from the extraction probe, fresh u draws
        rng = np.random.default_rng(3201)
        J = model.dims.J
        for t in (0.3, 0.7, 1.1, 1.7):
            expected = matrix_exp(model.beta, t)
            for u in sample_imaginary_points(model.dims, 5, rng):
                psi = source.on_grid([t], [u])[0][0].psi
                ident_err = max(ident_err, float(np.max(np.abs(
                    psi[J] - expected @ u[J]))))
    _record(capsys, 2, "free-drift recovery",
            beta_err <= 1e-6 and ident_err <= 1e-8,
            f"max |beta_hat - beta| {beta_err:.2e} (limit 1e-06); free fiber "
            f"vs exp(t beta) {ident_err:.2e} (limit 1e-08) on independent grid")


def test_criterion_3_interior_stays_interior(cir, heston0, heston1, capsys):
    """Strictly negative cone parts of the fiber map at random interior draws."""
    min_margin = np.inf
    for i, model in enumerate((cir, heston0, heston1)):
        source = flow_source_for(model, ODE_TOL, prefer_closed=True)
        rng = np.random.default_rng(3301 + i)
        u_pts = sample_interior_points(model.dims, 100, rng)
        ts = rng.uniform(0.0, 10.0, 100)
        for t, u in zip(ts, u_pts):
            ev = source.on_grid([float(t)], [u])[0][0]
            assert ev.in_Q
            min_margin = min(min_margin, -float(np.max(ev.psi[model.dims.I].real)))
    _record(capsys, 3, "interior preservation", min_margin > 0.0,
            f"min margin -max Re psi_I = {min_margin:.3e} over 100 random "
            "(t, u) per model, t in [0, 10], 3 models")


def test_criterion_4_rate_closed_loop(cir, heston0, heston1, levy, capsys):
    """Extrapolated t=0 derivatives return the generating pair; the empirical
    route agrees within its standard errors."""
    det_err = 0.0
    for model in (cir, heston1, levy):
        source = flow_source_for(model, ODE_TOL, prefer_closed=True)
        rng = np.random.default_rng(3401)
        u_pts = (_u_sample(model.dims, 10, rng)
                 + sample_imaginary_points(model.dims, 10, rng))
        for u in u_pts:
            est = estimate_FR(source, u, dims=model.dims,
                              h_schedule=(1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4))
            det_err = max(det_err,
                          abs(est.F_hat - model.gen.F(u)),
                          float(np.max(np.abs(est.R_hat - model.gen.R(u)))))

    worst_z = 0.0
    for i, model in enumerate((cir, heston0, levy)):
        rng = np.random.default_rng(3410 + i)
        for u in sample_imaginary_points(model.dims, 3, rng):
            est = estimate_FR_from_samples(model, model.dims, u, h=0.005,
                                           n_paths=100_000, seed=3420 + i)
            zf = abs(est.F_hat - model.gen.F(u)) / est.F_stderr
            r_ref = model.gen.R(u)
            zr = max((abs(est.R_hat[k] - r_ref[k]) / est.R_stderr[k]
                      for k in range(model.dims.d)), default=0.0)
            worst_z = max(worst_z, zf, zr)
    _record(capsys, 4, "rate closed loop",
            det_err <= 1e-6 and worst_z <= 5.0,
            f"extrapolated error {det_err:.2e} (limit 1e-06) at 20 u per model; "
            f"sampled route worst z {worst_z:.2f} (limit 5) at 1e5 paths, h=0.005")


def test_criterion_5_moving_frame(heston1, capsys):
    """Frame transform round trip, tower-law defect, and restored invariance."""
    dims = heston1.dims
    frame = build_frame(heston1.beta, dims)

    # (a) transform-then-invert error is O(step): halves when the step halves
    rt_errors = []
    for h in (4e-3, 2e-3, 1e-3):
        times = uniform_times(0.5, h)
        x = np.stack([0.3 + 0.1 * np.sin(times), np.cos(times)], axis=-1)
        back = inverse_values(transform_values(x[None], times, frame), times, frame)[0]
        rt_errors.append(float(np.max(np.abs(back - x))))
    rt_ratios = [rt_errors[i] / rt_errors[i + 1] for i in range(2)]
    rt_ok = all(1.7 <= r <= 2.3 for r in rt_ratios)

    # (b) free-component defect of the discrete tower law is O(1/N)
    source = flow_source_for(heston1, ODE_TOL)
    u = np.array([0.4j, 0.5j])
    defects = []
    for N in (64, 128, 256):
        state = pq_recursion(source, frame, 0.5, [u], N)
        defects.append(float(np.max(np.abs(state.q[0, dims.J] - u[dims.J]))))
    q_ratios = [defects[i] / defects[i + 1] for i in range(2)]
    q_ok = all(1.7 <= r <= 2.3 for r in q_ratios)

    # (c) the transformed process passes the invariance test the raw one fails
    raw = semihomogeneity_test(heston1, dims, 0.5, u, 100_000, 3501)
    transformed_source = transformed_state_source(heston1, frame, internal_dt=1e-3)
    fixed = semihomogeneity_test(transformed_source, dims, 0.5, u, 100_000, 3502)
    invariance_ok = (not raw.passed) and raw.max_violation > 3.0 and fixed.passed

    _record(capsys, 5, "moving frame", rt_ok and q_ok and invariance_ok,
            f"roundtrip ratios {rt_ratios[0]:.2f}/{rt_ratios[1]:.2f}, defect "
            f"ratios {q_ratios[0]:.2f}/{q_ratios[1]:.2f} (want ~2); invariance "
            f"z raw {raw.max_violation:.1f} (>3) vs transformed "
            f"{fixed.max_violation:.2f} (<=3) at 1e5 paths")


def test_criterion_6_affine_factorization(catalog, control, capsys):
    """Start-point factorization of the sampled transform: affine models pass,
    the squared-start control is rejected."""
    worst = 0.0
    for i, model in enumerate(catalog.values()):
        dims = model.dims
        x0 = np.asarray(model.x0_default if model.x0_default is not None
                        else np.zeros(dims.d), dtype=float)
        if dims.m and not x0[dims.I].any():
            x0[dims.I] = 0.5
        xa = x0 + 0.4
        xb = x0.copy()
        if dims.m:
            xb[dims.I] += 0.25
        if dims.n:
            xb[dims.J] -= 0.25
        rng = np.random.default_rng(3601 + i)
        u_list = sample_imaginary_points(dims, 6, rng)
        rep = affine_factorization_test(model, dims, 0.25, u_list, x0, xa, xb,
                                        n_paths=5000, seed=3611 + i)
        assert rep.passed, rep.grid_spec
        worst = max(worst, rep.max_violation)

    rejected = affine_factorization_test(
        control, control.dims, 0.5, [np.array([0.9j]), np.array([0.4j])],
        x_base=[0.7], x_probe_a=[1.2], x_probe_b=[0.2], n_paths=4000, seed=9)
    _record(capsys, 6, "affine factorization",
            worst <= 3.0 and not rejected.passed,
            f"worst z {worst:.2f} over 4 affine models (limit 3 sigma); "
            f"control rejected at z {rejected.max_violation:.1f}")


def test_criterion_7_positive_definiteness(catalog, cir, heston0, capsys):
    """Flow-derived and sampled characteristic functions certify as positive
    definite; a non-characteristic candidate does not."""
    rng = np.random.default_rng(3701)
    worst_flow = 0.0
    for model in catalog.values():
        dims = model.dims
        source = flow_source_for(model, ODE_TOL, prefer_closed=True)
        x0 = np.zeros(dims.d)
        if dims.m:
            x0[dims.I] = 0.5
        pairs = [(rng.normal(0.0, 0.7, dims.d), rng.normal(0.0, 0.7, dims.d))
                 for _ in range(50)]

        def theta(y, source=source, x0=x0):
            ev = source.on_grid([0.5], [1j * np.asarray(y, dtype=float)])[0][0]
            return ev.phi * np.exp(ev.psi @ x0)

        rep = posdef_certificate(pairs, [theta(y) for y in posdef_points(pairs)], threshold=1e-8)
        assert rep.passed, rep.grid_spec
        worst_flow = max(worst_flow, rep.max_violation)

    n = 20_000
    worst_emp = 0.0
    for i, (model, x0) in enumerate(((cir, [1.0]), (heston0, [0.3, 0.0]))):
        states = endpoint_states(model, x0, 0.5, n, seed=3702 + i)
        pairs = [(rng.normal(0.0, 0.7, model.dims.d),
                  rng.normal(0.0, 0.7, model.dims.d)) for _ in range(50)]
        rep = posdef_certificate(
            pairs, [complex(np.mean(np.exp(1j * (states @ np.asarray(y)))))
                    for y in posdef_points(pairs)], threshold=10.0 / np.sqrt(n))
        assert rep.passed, rep.grid_spec
        worst_emp = max(worst_emp, rep.max_violation)

    scalar_pairs = [(rng.normal(0.0, 0.7, 1), rng.normal(0.0, 0.7, 1))
                    for _ in range(50)]
    bad = posdef_certificate(scalar_pairs, [complex(1.0 + float(y @ y))
                                            for y in posdef_points(scalar_pairs)])
    _record(capsys, 7, "positive definiteness", not bad.passed,
            f"flow-derived worst violation {worst_flow:.1e}, sampled worst "
            f"{worst_emp:.2e} (limit {10.0 / np.sqrt(n):.2e}), 50 pairs each; "
            f"1 + y^2 rejected at {bad.max_violation:.1f}")


def test_criterion_8_expectation_decay(heston0, capsys):
    """Propagated test functions die off along rays in either coordinate."""
    tf = verify.TestFunction(u_I=np.array([-1.0]))
    source = flow_source_for(heston0, ODE_TOL, prefer_closed=True)
    x0 = np.array([0.3, 0.0])
    radii = np.linspace(0.0, 40.0, 30)
    worst = -np.inf
    for t in (0.1, 1.0):
        rays = [[x0 + r * direction for r in radii]
                for direction in (np.array([0.0, 1.0]), np.array([1.0, 0.0]))]
        rep = feller_decay(source, heston0, tf, t, rays)
        assert rep.passed, rep.grid_spec
        worst = max(worst, rep.max_violation)
    _record(capsys, 8, "expectation decay", worst <= 0.0,
            f"worst decay slack {worst:.2e} (final ray value below 5% of start, "
            "both coordinate rays, t in {0.1, 1})")


def test_criterion_9_deterministic_artifacts(tmp_path, capsys):
    """Two `verify --all` executions produce byte-identical artifacts; only
    run_metadata.json may differ."""
    cfg = Path(__file__).resolve().parents[1] / "configs" / "determinism.cfg"
    # The children run in tmp_path, where an inherited relative PYTHONPATH
    # (e.g. `src`) resolves to nothing; put the directory holding the package
    # this suite imported first, so they run the same code.
    package_root = str(Path(affineflow.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for run in ("1", "2"):
        out = tmp_path / f"run_{run}"
        env = dict(os.environ, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "affineflow", "verify", "--all",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        outs.append(out)

    expected = {f"{name}.json" for name in CHECK_NAMES} | {
        "summary.json", "run_metadata.json"}
    assert {p.name for p in outs[0].iterdir()} == expected
    assert {p.name for p in outs[1].iterdir()} == expected
    same = [name for name in sorted(expected) if name != "run_metadata.json"
            and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()]
    n_compared = len(expected) - 1
    _record(capsys, 9, "deterministic artifacts", len(same) == n_compared,
            f"{len(same)}/{n_compared} artifacts byte-identical across "
            "two runs with the same seed")
