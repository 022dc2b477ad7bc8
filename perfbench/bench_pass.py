"""One benchmark pass in a fresh process: set up, run the operations, check each.

run.py starts this file once per pass with the package on an absolute
PYTHONPATH, ``AFFINE_FLOW_THREADS`` unset and the working directory set to the
pass's own scratch directory.  The pass writes ``result.json`` there, plus
``spans.json`` when traced.  Set-up (import, config loading, model building)
is timed from the moment the parent started the process; operations are
timed one by one, and each operation's correctness check runs outside its
timed interval.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# At the bundled seed every verdict must be exactly the expected one.  A
# statistical check of the package rejects at its own threshold
# (stat_sigma = 3) with a small probability even when the program is right,
# so at any other seed an expected pass may flip by chance.  There, and only
# there, such a flip is accepted (and noted) while the statistic stays at or
# below this level; above it, and for every deterministic check, a flipped
# verdict is a failure.
BUNDLED_SEED = 42  # sim.seed of the bundled configs
STAT_GATE_SIGMA = 4.0
STATISTICAL_CHECKS = ("factorization", "recover", "semihomogeneity")

# verify_catalog: (config, expected exit code, checks expected to fail)
VERIFY_CATALOG = (
    ("cir", 0, ()),
    ("levy", 0, ()),
    ("heston_mean_reverting", 1, ("semihomogeneity",)),
)
FLOW_GAP = 1e-8  # flow_dense: table against closed forms
FR_GAP = 1e-6    # flow_dense: estimate_FR against (F(u), R(u))
FR_H_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)
CRITERION_4_PROBE_SEED = 3401  # tests/test_acceptance.py, deterministic half
CATALOG = {  # the test-suite catalog parameters
    "cir": dict(a=1.0, b=1.0, sigma=1.0),
    "heston": dict(a=0.4, b=0.6, sigma=0.5, rho=-0.5, lam=1.0),
    "levy": dict(drift=[0.1, -0.2], cov=[[0.9, 0.2], [0.2, 0.6]]),
}


@dataclass
class Op:
    """One operation: ``run()`` is timed, ``check(value)`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    out_dir: Path | None = None


class Pass:
    def __init__(self, args):
        self.root = Path(args.root)
        self.seed = args.seed
        self.exact = args.seed == BUNDLED_SEED  # no nominal rejections allowed
        self.inputs = Path(args.inputs)
        self.work = Path.cwd()


# ----------------------------------------------------------------------------
# verify_catalog


def _verdict_problems(verdicts: dict, expected_fail: set, statistical, threshold: float):
    """Compare per-check verdicts ``{name: (passed, statistic)}`` with expectations.

    Returns (problems, nominal rejections): an expected pass of a statistical
    check that failed with a statistic in (threshold, STAT_GATE_SIGMA] is a
    nominal rejection, anything else that differs is a problem.
    """
    problems, nominal = [], []
    for name, (passed, stat) in sorted(verdicts.items()):
        expect_pass = name not in expected_fail
        if passed == expect_pass:
            continue
        if expect_pass and name in statistical and threshold < stat <= STAT_GATE_SIGMA:
            nominal.append(f"{name} z={stat:.3g}")
        else:
            problems.append(f"{name}: passed={passed} (stat {stat:.3g}), expected {expect_pass}")
    return problems, nominal


def _verdict(problems: list, nominal: list) -> tuple[bool, str]:
    if problems:
        return False, "; ".join(problems)
    return True, "nominal rejection: " + ", ".join(nominal) if nominal else "ok"


def _exit_problem(code, expected_exit: int, nominal: list) -> list:
    if nominal and expected_exit == 0:
        expected_exit = 1  # a nominal rejection fails the command, by contract
    return [] if code == expected_exit else [f"exit code {code}, expected {expected_exit}"]


def _check_verify(out: Path, expected_exit: int, expected_fail: set, threshold: float,
                  check_names: tuple, statistical: tuple, code):
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    checks = summary["checks"]
    problems = []
    if sorted(checks) != sorted(check_names):
        problems.append(f"checks run {sorted(checks)}, expected {sorted(check_names)}")
    for name in check_names:
        if not (out / f"{name}.json").is_file():
            problems.append(f"missing report {name}.json")
    verdicts = {k: (v["passed"], v["max_violation"]) for k, v in checks.items()}
    bad, nominal = _verdict_problems(verdicts, expected_fail, statistical, threshold)
    problems += bad + _exit_problem(code, expected_exit, nominal)
    return _verdict(problems, nominal)


def setup_verify_catalog(p: Pass) -> list[Op]:
    from affineflow import cli, config

    statistical = () if p.exact else STATISTICAL_CHECKS
    ops = []
    for name, expected_exit, expected_fail in VERIFY_CATALOG:
        path = p.root / "configs" / f"{name}.cfg"
        cfg = config.load_config(path)
        cfg.build_model()
        out = p.work / f"verify_{name}"
        argv = ["verify", "--all", "--config", str(path), "--out", str(out),
                "--seed", str(p.seed)]
        ops.append(Op(
            f"verify:{name}",
            lambda argv=argv: cli.main(argv),
            lambda code, out=out, e=expected_exit, f=set(expected_fail),
            th=cfg.thresholds.stat_sigma: _check_verify(out, e, f, th, cli.CHECK_NAMES,
                                                        statistical, code),
            out,
        ))
    return ops


# ----------------------------------------------------------------------------
# frame_heston


def _check_frame(out: Path, cfg, exact: bool, code):
    payload = json.loads((out / "frame_report.json").read_text(encoding="utf-8"))
    problems = []
    if payload["q_defect"] > cfg.frame.q_tol:
        problems.append(f"q_defect {payload['q_defect']:.3g} > q_tol {cfg.frame.q_tol}")
    th = cfg.thresholds.stat_sigma
    verdicts = {name: (payload[key] <= th, payload[key])
                for name, key in (("ecf_match", "ecf_z"), ("semihomogeneity", "semihomogeneity_z"))}
    bad, nominal = _verdict_problems(verdicts, set(), () if exact else set(verdicts), th)
    problems += bad + _exit_problem(code, 0, nominal)
    stages_pass = payload["q_defect"] <= cfg.frame.q_tol and all(v[0] for v in verdicts.values())
    if payload["report"]["passed"] != stages_pass:
        problems.append(f"report passed={payload['report']['passed']} disagrees with its stages")
    if cfg.frame.sample_paths and not (out / "transformed_paths.csv").is_file():
        problems.append("missing transformed_paths.csv")
    return _verdict(problems, nominal)


def setup_frame_heston(p: Pass) -> list[Op]:
    from affineflow import cli, config

    path = p.inputs / "frame_heston.cfg"
    cfg = config.load_config(path)
    cfg.build_model()
    out = p.work / "frame"
    argv = ["frame", "--config", str(path), "--out", str(out), "--seed", str(p.seed)]
    return [Op("frame:heston_mean_reverting", lambda: cli.main(argv),
               lambda code: _check_frame(out, cfg, p.exact, code), out)]


# ----------------------------------------------------------------------------
# flow_dense


def _read_flow_table(path: Path, d: int):
    import numpy as np

    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rows.append([float(c) for c in line.split(",")])
    cells = np.asarray(rows)
    col = {name: i for i, name in enumerate(header)}

    def cplx(prefix, k):
        return cells[:, col[f"re_{prefix}{k}"]] + 1j * cells[:, col[f"im_{prefix}{k}"]]

    u = np.stack([cplx("u", k + 1) for k in range(d)], axis=1)
    psi = np.stack([cplx("psi", k + 1) for k in range(d)], axis=1)
    phi = cells[:, col["re_phi"]] + 1j * cells[:, col["im_phi"]]
    return cells[:, col["t"]], u, phi, psi, cells[:, col["in_q"]]


def _check_flow(out: Path, cfg, model, reference, code):
    import numpy as np

    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    t, u, phi, psi, in_q = _read_flow_table(out / "flow_table.csv", model.dims.d)
    n_rows = len(cfg.u_points) * len(set(cfg.t_grid) | {0.0})
    if t.size != n_rows:
        problems.append(f"{t.size} rows, expected {n_rows}")
    if np.any(in_q != 1):
        problems.append(f"{int(np.sum(in_q != 1))} rows left the domain")
    gap = reference(t, u, phi, psi)
    if not gap <= FLOW_GAP:
        problems.append(f"gap {gap:.3g} > {FLOW_GAP}")
    return not problems, "; ".join(problems) or f"gap {gap:.2g}"


def _cir_gap(model):
    import numpy as np

    def gap(t, u, phi, psi):
        worst = 0.0
        for i in range(t.size):
            ref = model.closed_flow(float(t[i]), u[i])
            worst = max(worst, abs(phi[i] - ref.phi), float(np.max(np.abs(psi[i] - ref.psi))))
        return worst
    return gap


def _heston_free_gap(model):
    import numpy as np

    free = model.dims.J

    def gap(t, u, phi, psi):
        return float(np.max(np.abs(psi[:, free] - np.exp(-t)[:, None] * u[:, free])))
    return gap


def _estimate_all(regularity, source, model, points):
    return [regularity.estimate_FR(source, u, h_schedule=FR_H_SCHEDULE, dims=model.dims)
            for u in points]


def _check_fr(model, estimates):
    import numpy as np

    worst = 0.0
    for est in estimates:
        worst = max(worst, abs(est.F_hat - model.gen.F(est.u)),
                    float(np.max(np.abs(est.R_hat - model.gen.R(est.u)))))
    ok = worst <= FR_GAP
    return ok, f"max gap {worst:.2g}" + ("" if ok else f" > {FR_GAP}")


def setup_flow_dense(p: Pass) -> list[Op]:
    import numpy as np

    from affineflow import cli, config, core, flow, models, regularity, verify

    ops = []
    for name, reference in (("cir", _cir_gap), ("heston", _heston_free_gap)):
        path = p.inputs / f"flow_{name}.cfg"
        cfg = config.load_config(path)
        model = cfg.build_model()
        out = p.work / f"flow_{name}"
        argv = ["flow", "--config", str(path), "--out", str(out)]
        ops.append(Op(f"flow:{name}", lambda argv=argv: cli.main(argv),
                      lambda code, out=out, cfg=cfg, model=model, ref=reference(model):
                      _check_flow(out, cfg, model, ref, code), out))

    # estimate_FR exactly as acceptance criterion 4's deterministic half: its
    # 20 u per model, its tolerances, closed forms where the model has one
    tol = core.Tolerances(ode_rel=1e-10, ode_abs=1e-12)
    for name, params in CATALOG.items():
        model = models.model_from_spec(name, params)
        source = flow.flow_source_for(model, tol, prefer_closed=True)
        rng = np.random.default_rng(CRITERION_4_PROBE_SEED)
        first = (verify.sample_interior_points if model.dims.m else verify.sample_imaginary_points)
        us = first(model.dims, 10, rng) + verify.sample_imaginary_points(model.dims, 10, rng)
        ops.append(Op(f"estimate_FR:{name}",
                      lambda s=source, m=model, us=us: _estimate_all(regularity, s, m, us),
                      lambda ests, m=model: _check_fr(m, ests)))
    return ops


SETUPS = {
    "verify_catalog": setup_verify_catalog,
    "frame_heston": setup_frame_heston,
    "flow_dense": setup_flow_dense,
}


# ----------------------------------------------------------------------------
# the pass


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True, help="checkout root (absolute)")
    ap.add_argument("--inputs", required=True, help="generated inputs (absolute)")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--wrong-expectation", action="store_true",
                    help="expect exit code 2 from the first operation (smoke test)")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import affineflow

    src = Path(args.root) / "src"
    if Path(affineflow.__file__).resolve().parent.parent != src.resolve():
        print(f"affineflow imported from {affineflow.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    p = Pass(args)
    ops = SETUPS[args.workload](p)
    setup_s = time.monotonic() - args.t0
    if args.wrong_expectation:
        first = ops[0]
        ops[0] = Op(first.name, first.run,
                    lambda code: (code == 2, f"exit code {code}, expected 2 (planted)"),
                    first.out_dir)

    result = {"setup_s": setup_s,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        records, wall, cpu = [], 0.0, 0.0
        for op in ops:
            w0, c0 = time.perf_counter(), _cpu_s()
            error = None
            with tracer.operation(op.name) if tracer else nullcontext():
                try:
                    value = op.run()
                except Exception as exc:  # a failing operation is counted, the pass goes on
                    error = f"{type(exc).__name__}: {exc}"
            op_wall, op_cpu = time.perf_counter() - w0, _cpu_s() - c0
            wall += op_wall
            cpu += op_cpu
            if error is None:
                try:
                    ok, detail = op.check(value)
                except Exception as exc:
                    ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
            else:
                ok, detail = False, error
            if tracer is not None:
                tracer.counters["cli.artifact_bytes"] += _tree_bytes(op.out_dir)
            records.append({"op": op.name, "ok": bool(ok), "detail": detail,
                            "wall_s": op_wall})
        result.update(
            wall_s=wall, cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ops=records)
        if tracer is not None:
            tracer.dump(p.work / "spans.json")
    with open(p.work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
