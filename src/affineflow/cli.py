"""Command-line front end: flow tables, the verification suite, the moving frame.

Three subcommands share one config format (see config.py):

* ``flow``   — tabulate the transform pair over the configured grids.
* ``verify`` — run named analytic/statistical checks, write one JSON report
  per check plus a summary; exit 0 iff everything passed.
* ``frame``  — run the moving-frame pipeline and export transformed paths.

Exit codes: 0 pass, 1 check failure, 2 usage/config error, 3 numerical
failure.  All artifact payloads are byte-deterministic for a fixed config and
seed; wall-clock information is confined to run_metadata.json.  Checks run
one after another in sorted name order, and every check derives its own RNG
seed from (base seed, check name), so a check's report does not depend on
which other checks run with it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .core import Dims, as_state, outside_half_space
from .empirical import (
    BranchContinuityError,
    affine_factorization_test,
    recover_phi_psi,
    semihomogeneity_test,
)
from .flow import FlowIntegrationError, flow_source_for
from .models import uniform_times
from .movingframe import FramePipelineError, FrameRecursionError, frame_pipeline
from .verify import (
    CheckReport,
    MatrixLogError,
    _scored_report,
    _z_score,
    TestFunction,
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

__all__ = ["main", "cmd_flow", "cmd_verify", "cmd_frame", "CHECK_NAMES",
           "EXIT_PASS", "EXIT_CHECK_FAILURE", "EXIT_USAGE", "EXIT_NUMERICAL"]

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PROBE_SEED = 2024  # fixed probe-point stream: tables must not drift with sim.seed

# The package's own numerical failures plus arithmetic errors; any other
# exception is a bug and propagates with its traceback.
_NUMERICAL_ERRORS = (FlowIntegrationError, MatrixLogError, FrameRecursionError,
                     FramePipelineError, BranchContinuityError, np.linalg.LinAlgError,
                     FloatingPointError, ZeroDivisionError, OverflowError)


def _check_seed(base_seed: int, name: str) -> int:
    """Per-check seed: stable under the choice of check subset."""
    return (int(base_seed) + zlib.crc32(name.encode("utf-8"))) % 2**32


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_metadata(out_dir: Path, cfg: RunConfig, command: str, extra: dict) -> None:
    import affineflow

    payload = {
        "command": command,
        "config_path": cfg.source_path,
        "model": cfg.model_name,
        "seed": cfg.sim.seed,
        "package_version": getattr(affineflow, "__version__", "unknown"),
        "numpy_version": np.__version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    payload.update(extra)
    _write_text(out_dir / "run_metadata.json", _json_text(payload))


def _write_paths_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    """Transformed paths in long format: path_id, t, x1..xd, one row per grid point.

    Cells are ``repr`` of the floats and rows end in ``\\r\\n``, byte for byte
    what ``csv.writer`` writes for them (no cell needs quoting).
    """
    header = ",".join(["path_id", "t"] + [f"x{i + 1}" for i in range(values.shape[-1])])
    lines = ["# frame=transformed\n", header + "\r\n"]
    ts = [repr(float(t)) for t in times]
    for pid, rows in enumerate(values.tolist()):
        lines.extend(f"{pid},{t},{','.join(map(repr, row))}\r\n" for t, row in zip(ts, rows))
    _write_text(path, "".join(lines))


# ----------------------------------------------------------------------------
# config resolution helpers


def _resolve_u_points(cfg: RunConfig, dims: Dims, imaginary_only: bool = False,
                      count: int = 6) -> list[np.ndarray]:
    if cfg.u_points is not None:
        pts = []
        for i, p in enumerate(cfg.u_points):
            u = np.asarray(p, dtype=np.complex128)
            if u.shape != (dims.d,):
                raise ConfigError(f"grid.u point {i} has {u.size} components, "
                                  f"model needs {dims.d}", path=cfg.source_path)
            outside = np.flatnonzero(outside_half_space(u, dims))
            if outside.size:
                k = outside[0]
                raise ConfigError(f"grid.u point {i} component {k} (real part {u[k].real:g}) "
                                  "lies outside the admissible half-space", path=cfg.source_path)
            if imaginary_only and np.max(np.abs(u.real)) > 0:
                raise ConfigError(f"grid.u point {i} must be purely imaginary for "
                                  "this command", path=cfg.source_path)
            pts.append(u)
        return pts
    rng = np.random.default_rng(_PROBE_SEED)
    if imaginary_only or dims.m == 0:
        return sample_imaginary_points(dims, count, rng)
    return sample_interior_points(dims, count, rng)


def _resolve_x0(cfg: RunConfig, model) -> np.ndarray:
    dims = model.dims
    if cfg.x0 is not None:
        try:
            return as_state(cfg.x0, dims)
        except ValueError as exc:
            raise ConfigError(f"grid.x0: {exc}", path=cfg.source_path) from exc
    if model.x0_default is not None:
        return np.asarray(model.x0_default, dtype=float)
    x0 = np.zeros(dims.d)
    if dims.m:
        x0[dims.I] = 0.5
    return x0


def _positive_times(cfg: RunConfig) -> list[float]:
    ts = sorted({float(t) for t in cfg.t_grid if t > 0})
    return ts or [0.25, 0.5, 1.0]


# ----------------------------------------------------------------------------
# flow command


def cmd_flow(cfg: RunConfig, json_out: bool = False) -> int:
    """Tabulate the transform pair over the configured (t, u) grids."""
    model = cfg.build_model()
    if model.gen is None and model.closed_flow is None:
        raise ConfigError(f"model {cfg.model_name!r} carries no transform flow",
                          path=cfg.source_path)
    dims = model.dims
    source = flow_source_for(model, cfg.thresholds.tolerances())
    u_pts = _resolve_u_points(cfg, dims)
    t_grid = sorted({0.0} | {float(t) for t in cfg.t_grid})

    rows_by_t = source.on_grid(t_grid, u_pts)
    header = ["t"]
    for k in range(dims.d):
        header += [f"re_u{k + 1}", f"im_u{k + 1}"]
    header += ["re_phi", "im_phi"]
    for k in range(dims.d):
        header += [f"re_psi{k + 1}", f"im_psi{k + 1}"]
    header.append("in_q")

    lines = [",".join(header)]
    records = []
    for j, u in enumerate(u_pts):
        for row in rows_by_t:
            ev = row[j]
            cells = [repr(float(ev.t))]
            for k in range(dims.d):
                cells += [repr(float(u[k].real)), repr(float(u[k].imag))]
            cells += [repr(float(ev.phi.real)), repr(float(ev.phi.imag))]
            for k in range(dims.d):
                cells += [repr(float(ev.psi[k].real)), repr(float(ev.psi[k].imag))]
            cells.append("1" if ev.in_Q else "0")
            lines.append(",".join(cells))
            records.append(dict(zip(header, [float(c) if i < len(header) - 1 else int(c)
                                             for i, c in enumerate(cells)])))

    out_dir = Path(cfg.out_dir)
    _write_text(out_dir / "flow_table.csv", "\n".join(lines) + "\n")
    _write_metadata(out_dir, cfg, "flow", {"rows": len(records)})
    if json_out:
        sys.stdout.write(_json_text({"rows": records}))
    else:
        print(f"flow: wrote {len(records)} rows ({len(u_pts)} u points x "
              f"{len(t_grid)} times) to {out_dir / 'flow_table.csv'}")
    return EXIT_PASS


# ----------------------------------------------------------------------------
# verify command: the check registry


def _chk_semiflow(cfg, model, source, seed):
    u_pts = _resolve_u_points(cfg, model.dims)
    return check_semiflow(source, _positive_times(cfg), cfg.s_grid, u_pts,
                          threshold=cfg.thresholds.flow)


def _chk_monotonicity(cfg, model, source, seed):
    u_pts = _resolve_u_points(cfg, model.dims)
    pairs = [(u, 0.5 * u.real - 0.7j * u.imag) for u in u_pts]
    return check_monotonicity(source, _positive_times(cfg), pairs,
                              threshold=cfg.thresholds.flow)


def _chk_property_a(cfg, model, source, seed):
    dims = model.dims
    rng = np.random.default_rng(seed)
    u_pts = sample_interior_points(dims, 20, rng)
    return check_property_A(source, _positive_times(cfg), u_pts, dims)


def _chk_property_b(cfg, model, source, seed):
    _, report = extract_beta(source, model.dims, threshold=cfg.thresholds.flow)
    return report


def _chk_linearity(cfg, model, source, seed):
    dims = model.dims
    if dims.n == 0:
        return CheckReport("linearity", "no free components (vacuous)", 0.0,
                           cfg.thresholds.flow, [])
    t = max(_positive_times(cfg))
    rng = np.random.default_rng(seed)
    radius = 1.9
    k_idx = list(range(dims.m, dims.d))
    ys = [rng.uniform(-0.9, 0.9, dims.n) for _ in range(max(8, 3 * dims.n))]
    u_list = []
    for y in ys:
        u = np.zeros(dims.d, dtype=np.complex128)
        u[dims.J] = 1j * y
        u_list.append(u)
    evals = source.on_grid([t], u_list)[0]
    scored = []
    for j in k_idx:
        samples = [(u.imag, ev.psi[j]) for u, ev in zip(u_list, evals)]
        fit = fit_linearity(samples, j, k_idx, radius)
        scored.append((fit.residual, {
            "inputs": {"component": j, "t": t},
            "observed": {"residual": fit.residual, "zeta": fit.zeta},
            "expected": f"residual <= {cfg.thresholds.flow}",
        }))
    return _scored_report("linearity", f"t={t}, {len(ys)} probes, components {k_idx}",
                          cfg.thresholds.flow, scored)


def _chk_posdef(cfg, model, source, seed):
    dims = model.dims
    t = max(_positive_times(cfg))
    x0 = _resolve_x0(cfg, model)
    rng = np.random.default_rng(seed)
    pairs = [(rng.normal(0.0, 0.7, dims.d), rng.normal(0.0, 0.7, dims.d))
             for _ in range(50)]
    # theta(y) = E exp(<i y, X_t>) from x0, at every probe point in one flow call
    row = source.on_grid([t], [1j * y for y in posdef_points(pairs)])[0]
    return posdef_certificate(pairs, [ev.phi * np.exp(ev.psi @ x0) for ev in row], 1e-10)


def _chk_factorization(cfg, model, source, seed):
    dims = model.dims
    t = _positive_times(cfg)[0]
    x0 = _resolve_x0(cfg, model)
    xa = x0 + 0.4
    xb = x0.copy()
    if dims.m:
        xb[dims.I] += 0.25
    if dims.n:
        xb[dims.J] -= 0.25
    rng = np.random.default_rng(seed)
    u_list = sample_imaginary_points(dims, 6, rng)
    return affine_factorization_test(model, dims, t, u_list, x0, xa, xb,
                                     cfg.sim.n_paths, seed,
                                     threshold=cfg.thresholds.stat_sigma)


def _chk_recover(cfg, model, source, seed):
    if model.gen is None and model.closed_flow is None:
        return CheckReport("recover", "no reference flow (vacuous)", 0.0,
                           cfg.thresholds.stat_sigma, [])
    dims = model.dims
    ts = _positive_times(cfg)[:2]
    rng = np.random.default_rng(seed)
    u = sample_imaginary_points(dims, 1, rng)[0]
    evals = recover_phi_psi(model, dims, [0.0] + ts, u, cfg.sim.n_paths, seed)
    scored = []
    for ev in evals[1:]:
        ref = source.on_grid([ev.t], [u])[0][0]
        z_phi = _z_score(abs(ev.phi - ref.phi), ev.phi_stderr)
        z_psi = max(_z_score(abs(ev.psi[k] - ref.psi[k]), ev.psi_stderr[k])
                    for k in range(dims.d))
        scored.append((max(z_phi, z_psi), {
            "inputs": {"t": ev.t, "u": u},
            "observed": {"phi_hat": ev.phi, "phi": ref.phi, "z_phi": z_phi,
                         "psi_hat": ev.psi, "psi": ref.psi, "z_psi": z_psi},
            "expected": f"z <= {cfg.thresholds.stat_sigma}",
        }))
    return _scored_report("recover", f"times {ts}, {cfg.sim.n_paths} paths",
                          cfg.thresholds.stat_sigma, scored)


def _chk_semihomogeneity(cfg, model, source, seed):
    dims = model.dims
    rng = np.random.default_rng(seed)
    u = sample_imaginary_points(dims, 1, rng)[0]
    return semihomogeneity_test(model, dims, cfg.frame.t, u, cfg.sim.n_paths, seed,
                                threshold=cfg.thresholds.stat_sigma)


def _chk_feller(cfg, model, source, seed):
    dims = model.dims
    if dims.n != 1 or model.beta is None:
        return CheckReport("feller_decay", "needs exactly one free component and a "
                           "known free drift (vacuous)", 0.0, 0.0, [])
    x0 = _resolve_x0(cfg, model)
    t = max(t for t in _positive_times(cfg) if t <= 1.0) if any(
        t <= 1.0 for t in _positive_times(cfg)) else _positive_times(cfg)[0]
    tf = TestFunction(u_I=np.full(dims.m, -1.0))
    radii = np.linspace(0.0, 40.0, 30)
    rays = []
    free_dir = np.zeros(dims.d)
    free_dir[dims.m] = 1.0
    rays.append([x0 + r * free_dir for r in radii])
    if dims.m:
        cone_dir = np.zeros(dims.d)
        cone_dir[0] = 1.0
        rays.append([x0 + r * cone_dir for r in radii])
    rep = feller_decay(source, model, tf, t, rays)
    # the report reads 0 while every ray decays with slack to spare
    return replace(rep, max_violation=max(0.0, rep.max_violation))


CHECKS = {
    "semiflow": _chk_semiflow,
    "monotonicity": _chk_monotonicity,
    "property_a": _chk_property_a,
    "property_b": _chk_property_b,
    "linearity": _chk_linearity,
    "posdef": _chk_posdef,
    "factorization": _chk_factorization,
    "recover": _chk_recover,
    "semihomogeneity": _chk_semihomogeneity,
    "feller": _chk_feller,
}

CHECK_NAMES = tuple(sorted(CHECKS))


def cmd_verify(cfg: RunConfig, checks=None, json_out: bool = False) -> int:
    """Run the named checks (default: all) and write the report bundle."""
    names = sorted(set(checks)) if checks else list(CHECK_NAMES)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown check name(s): {', '.join(unknown)}; "
                          f"known: {', '.join(CHECK_NAMES)}")
    model = cfg.build_model()
    base_seed = cfg.require_seed("verify")
    if model.gen is not None or model.closed_flow is not None:
        source = flow_source_for(model, cfg.thresholds.tolerances())
    else:
        source = None
        flowless_ok = {"factorization", "recover", "semihomogeneity"}
        bad = [n for n in names if n not in flowless_ok]
        if bad:
            raise ConfigError(f"model {cfg.model_name!r} has no transform flow; "
                              f"checks {', '.join(bad)} need one")

    reports = {name: CHECKS[name](cfg, model, source, _check_seed(base_seed, name))
               for name in names}

    out_dir = Path(cfg.out_dir)
    summary = {"model": cfg.model_name, "seed": base_seed, "checks": {}}
    for name in names:
        rep = reports[name]
        _write_text(out_dir / f"{name}.json", report_to_json(rep))
        summary["checks"][name] = {
            "passed": rep.passed,
            "max_violation": float(rep.max_violation),
            "threshold": float(rep.threshold),
        }
    summary["all_passed"] = all(c["passed"] for c in summary["checks"].values())
    _write_text(out_dir / "summary.json", _json_text(summary))
    _write_metadata(out_dir, cfg, "verify", {"checks": names})

    if json_out:
        sys.stdout.write(_json_text(summary))
    else:
        for name in names:
            rep = reports[name]
            status = "pass" if rep.passed else "FAIL"
            print(f"verify {name}: {status} (max_violation {rep.max_violation:.3g}, "
                  f"threshold {rep.threshold:.3g})")
        print("all checks passed" if summary["all_passed"]
              else "some checks FAILED", f"-> {out_dir}")
    return EXIT_PASS if summary["all_passed"] else EXIT_CHECK_FAILURE


# ----------------------------------------------------------------------------
# frame command


def cmd_frame(cfg: RunConfig, json_out: bool = False) -> int:
    """Run the moving-frame pipeline; write the report and transformed paths."""
    model = cfg.build_model()
    if model.gen is None and model.closed_flow is None:
        raise ConfigError(f"model {cfg.model_name!r} carries no transform flow",
                          path=cfg.source_path)
    base_seed = cfg.require_seed("frame")
    try:
        uniform_times(cfg.frame.t, cfg.frame.internal_dt)
    except ValueError as exc:
        raise ConfigError(f"frame.t and frame.internal_dt: {exc}", path=cfg.source_path) from exc
    dims = model.dims
    u_set = _resolve_u_points(cfg, dims, imaginary_only=True, count=3)
    x0 = _resolve_x0(cfg, model)

    result = frame_pipeline(
        model, cfg.frame.t, u_set, x0, cfg.sim.n_paths,
        N_schedule=cfg.frame.n_schedule, seed=base_seed,
        tol=cfg.thresholds.tolerances(), q_tol=cfg.frame.q_tol,
        stat_sigma=cfg.thresholds.stat_sigma, internal_dt=cfg.frame.internal_dt,
        n_sample_paths=cfg.frame.sample_paths,
    )

    u_free = np.array(u_set)[:, dims.J]
    defects = [np.max(np.abs(st.q[:, dims.J] - u_free), axis=1, initial=0.0).tolist()
               for st in result.pq_states]
    per_n = [[{"N": int(st.N), "q_free_defect": d[i]} for st, d in zip(result.pq_states, defects)]
             for i in range(len(u_set))]
    payload = {
        "report": json.loads(report_to_json(result.report)),
        "beta": [[float(b) for b in row] for row in np.atleast_2d(result.beta)],
        "beta_origin": result.beta_origin,
        "q_defect": float(result.q_defect),
        "ecf_z": float(result.ecf_z),
        "semihomogeneity_z": float(result.semihomog.max_violation),
        "q_free_defect_by_N": per_n,
        "n_schedule": [int(n) for n in cfg.frame.n_schedule],
        "t": float(cfg.frame.t),
    }

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "frame_report.json", _json_text(payload))
    if len(result.transformed_sample):
        _write_paths_csv(out_dir / "transformed_paths.csv", result.sample_times,
                         result.transformed_sample)
    _write_metadata(out_dir, cfg, "frame", {"u_points": len(u_set)})

    if json_out:
        sys.stdout.write(_json_text(payload))
    else:
        status = "pass" if result.report.passed else "FAIL"
        print(f"frame: {status} (beta {result.beta_origin}, q_defect "
              f"{result.q_defect:.3g}, ecf_z {result.ecf_z:.3g}, semihomogeneity_z "
              f"{result.semihomog.max_violation:.3g}) -> {out_dir}")
    return EXIT_PASS if result.report.passed else EXIT_CHECK_FAILURE


# ----------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineflow",
        description="Affine transform flows: tables, verification, moving frame.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "flow": "tabulate the transform pair over the configured grids",
        "verify": "run analytic and statistical checks, write JSON reports",
        "frame": "run the moving-frame pipeline, export transformed paths",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="run configuration file")
        p.add_argument("--out", metavar="DIR", help="output directory "
                       "(overrides out.dir)")
        p.add_argument("--seed", type=int, metavar="N", help="base RNG seed "
                       "(overrides sim.seed)")
        p.add_argument("--json", action="store_true",
                       help="write the report to stdout as JSON")
        if name == "verify":
            p.add_argument("--checks", metavar="a,b,c",
                           help="comma-separated check names (default: all)")
            p.add_argument("--all", action="store_true", dest="all_checks",
                           help="run every known check (the default)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already prints the diagnostic; code 2 on usage
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        if args.out:
            cfg = cfg.with_out_dir(args.out)
        if args.command == "flow":
            return cmd_flow(cfg, json_out=args.json)
        if args.command == "verify":
            if args.checks and args.all_checks:
                raise ConfigError("pass either --checks or --all, not both")
            checks = None
            if args.checks and not args.all_checks:
                checks = [s.strip() for s in args.checks.split(",") if s.strip()]
                if not checks:
                    raise ConfigError("--checks got an empty list")
            return cmd_verify(cfg, checks, json_out=args.json)
        return cmd_frame(cfg, json_out=args.json)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
