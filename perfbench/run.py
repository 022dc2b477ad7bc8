#!/usr/bin/env python3
"""affineflow benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload verify_catalog --seed 42 --seconds 40 --trace 0

Run from anywhere; the checkout is located from this file.  Each pass is a
fresh single-threaded Python process (``bench_pass.py``).  An untraced run
(``--trace 0``) starts two processes that only set up (warm-up), runs as
many whole passes as fit in ``--seconds`` (at least one), then tops the
set-up samples up to ten with more set-up-only processes, and reports the
median of each end-to-end metric.  A traced run (``--trace 1``) alternates an untraced and a
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object; the lines before it give the metadata and a
summary with ``failed_ratio``.  ``--workload all`` runs every workload in
turn.  Scratch files live in ``.bench_tmp/`` of the checkout and are removed.
See NOTES.md beside this file for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_pass import BUNDLED_SEED  # noqa: E402
from tracer import layer_metrics  # noqa: E402

WORKLOADS = ("verify_catalog", "frame_heston", "flow_dense")
SETUP_WARMUP = 2      # set-up-only processes before the passes of an untraced run
SETUP_SAMPLES = 10    # set-up times per untraced run, topped up after the passes
RUN_DEADLINE_S = 170  # a run stops its passes and fails past this
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------------
# inputs


def _interior(rng: random.Random, m: int, n: int) -> list[complex]:
    """A transform argument strictly inside the half-space: Re < 0 on the cone."""
    return ([complex(rng.uniform(-2.0, -0.05), rng.uniform(-2.0, 2.0)) for _ in range(m)]
            + [complex(0.0, rng.uniform(-2.0, 2.0)) for _ in range(n)])


def _literal(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


FLOW_T = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0)
FLOW_U = 16
FRAME_PATHS = 5000  # frame_heston: sim.paths of its copy of heston_mean_reverting.cfg
FLOW_MODELS = {  # name -> (model lines, m, n)
    "cir": (("model.name = cir", "model.a = 1.0", "model.b = 1.0", "model.sigma = 1.0"), 1, 0),
    "heston": (("model.name = heston", "model.a = 0.4", "model.b = 0.6", "model.sigma = 0.5",
                "model.rho = -0.5", "model.lam = 1.0"), 1, 1),
}

def make_inputs(workload: str, seed: int, dest: Path) -> None:
    """Write the generated inputs: flow_dense's two configs (from the seed), frame_heston's one."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "frame_heston":
        text = (ROOT / "configs" / "heston_mean_reverting.cfg").read_text(encoding="utf-8")
        lines = text.splitlines()
        at = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == "sim.paths"]
        if len(at) != 1:
            raise BenchError("heston_mean_reverting.cfg: expected one sim.paths line")
        lines[at[0]] = f"sim.paths = {FRAME_PATHS}"
        (dest / "frame_heston.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if workload != "flow_dense":
        return
    for name, (lines, m, n) in FLOW_MODELS.items():
        rng = random.Random(f"{seed}:flow:{name}")
        points = [_interior(rng, m, n) for _ in range(FLOW_U)]
        grid_u = ", ".join("(" + ", ".join(_literal(z) for z in u) + ")" for u in points)
        text = "\n".join(lines + (
            "grid.t = " + ", ".join(repr(t) for t in FLOW_T),
            f"grid.u = {grid_u}",
            "tol.ode = 1e-11",
            "out.dir = flow_out",
        )) + "\n"
        (dest / f"flow_{name}.cfg").write_text(text, encoding="utf-8")


# ----------------------------------------------------------------------------
# passes


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("AFFINE_FLOW_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def run_pass(workload: str, seed: int, scratch: Path, inputs: Path, deadline: float,
             trace: bool = False, setup_only: bool = False,
             wrong_expectation: bool = False) -> dict:
    """Run one pass in a fresh process and return its result (and spans)."""
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        cmd = [sys.executable, str(HERE / "bench_pass.py"), "--workload", workload,
               "--seed", str(seed), "--root", str(ROOT), "--inputs", str(inputs)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        cmd += ["--wrong-expectation"] * wrong_expectation
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{workload}: out of time before a pass could start")
        cmd += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=work, env=_child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"{workload}: pass exceeded the run deadline") from exc
        result_file = work / "result.json"
        if proc.returncode != 0 or not result_file.is_file():
            raise BenchError(f"{workload}: pass exited with {proc.returncode}\n"
                             f"{proc.stderr[-4000:]}")
        result = json.loads(result_file.read_text(encoding="utf-8"))
        if trace:
            result["trace"] = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scratch: Path,
                 wrong_expectation: bool = False) -> tuple[dict, dict, dict]:
    """Run one workload; returns (contract result, summary, versions)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = scratch / f"inputs-{workload}"
    make_inputs(workload, seed, inputs)

    def one(**kw):
        return run_pass(workload, seed, scratch, inputs, deadline,
                        wrong_expectation=wrong_expectation, **kw)

    setups = [] if trace else [one(setup_only=True)["setup_s"] for _ in range(SETUP_WARMUP)]
    plain, traced = [], []
    begin = time.monotonic()
    while True:  # another pass (pair, traced) only if it should end in time
        started = time.monotonic()
        plain.append(one())
        if trace:
            traced.append(one(trace=True))
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            break

    ops = [rec for p in plain + traced for rec in p["ops"]]
    failed = [rec for rec in ops if not rec["ok"]]
    untraced_wall = _median(p["wall_s"] for p in plain)
    if trace:
        per_pass = [layer_metrics(p["trace"]["spans"], p["trace"]["counters"],
                                  p["trace"]["checks"]) for p in traced]
        metrics = {name: {"value": _median(m[name][0] for m in per_pass), "unit": unit}
                   for name, (_v, unit) in per_pass[0].items()}
        overhead = metrics["trace.wall_s"]["value"] / untraced_wall - 1.0
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        setups += [p["setup_s"] for p in plain]
        setups += [one(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
        values = {"wall_s": untraced_wall,
                  "cpu_s": _median(p["cpu_s"] for p in plain),
                  "setup_s": _median(setups),
                  "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    summary = {"workload": workload, "pass_walls": [p["wall_s"] for p in plain],
               "failed_ratio": len(failed) / len(ops),
               "failures": [f"{rec['op']}: {rec['detail']}" for rec in failed],
               "notes": sorted({f"{rec['op']}: {rec['detail']}" for rec in ops
                                if rec["detail"].startswith("nominal rejection")})}
    return result, summary, plain[0]["versions"]


# ----------------------------------------------------------------------------
# metadata and entry point


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_summary(result: dict, summary: dict) -> None:
    parts = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    print(f"{summary['workload']}: " + ", ".join(parts)
          + f", failed_ratio {summary['failed_ratio']:.6g} ratio"
          + f" ({result['failed']}/{result['attempted']} ops; pass wall_s "
          + " ".join(f"{w:.3f}" for w in summary["pass_walls"]) + ")")
    for line in summary["failures"]:
        print(f"  FAILED {line}")
    for line in summary["notes"]:
        print(f"  note {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="affineflow benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=BUNDLED_SEED)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="time to spend on passes (rounded to whole passes, at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-expectation", action="store_true",
                    help="plant a wrong expected exit code (checks the correctness gate)")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (ROOT / "src" / "affineflow" / "__init__.py", ROOT / "configs")
               if not p.exists()]
    if missing:
        print(f"benchmark: not a checkout of affineflow, missing {missing[0]}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         scratch, args.wrong_expectation)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is using it

    versions = next(iter(results.values()))[2]
    meta = {"seed": args.seed, "nproc": os.cpu_count(), **versions,
            "blas_threads": {k: "1" for k in BLAS_ENV},
            "affine_flow_threads": "unset (1)", "git_sha": _git_sha(),
            "seconds": args.seconds, "trace": args.trace}
    print("meta " + json.dumps(meta, sort_keys=True))
    for result, summary, _ in results.values():
        _print_summary(result, summary)
    if len(results) == 1:
        final = next(iter(results.values()))[0]
    else:
        final = {"correct": all(r["correct"] for r, _, _ in results.values()),
                 "attempted": sum(r["attempted"] for r, _, _ in results.values()),
                 "failed": sum(r["failed"] for r, _, _ in results.values()),
                 "metrics": {f"{name}.{k}": v for name, (r, _, _) in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
