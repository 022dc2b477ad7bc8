#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about four minutes on two cores).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, and checks that each
metric named in BENCHMARK.json is printed with its unit, that every operation
passed its correctness check, and that the layers' self times plus the
unattributed time add up to the traced wall time.  Then it plants a wrong
expectation and checks that the failure is counted, and runs the benchmark in
a directory holding only BENCHMARK.json and the benchmark's files, where it
must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIMES = ("flow", "models", "empirical", "movingframe", "verify", "regularity", "cli", "config")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


def result_of(proc, lines) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    return result


def check_metrics(result: dict, specs: list) -> None:
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"metric {spec['name']} missing"
        assert got["unit"] == spec["unit"], (spec["name"], got["unit"], spec["unit"])
        assert math.isfinite(got["value"]), spec["name"]
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    assert not extra, f"metrics not in BENCHMARK.json: {sorted(extra)}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        proc, lines = bench("--workload", workload, "--trace", "0")
        result = result_of(proc, lines)
        assert result["correct"] and result["failed"] == 0, "\n".join(lines)
        check_metrics(result, spec["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values()), result
        assert any("failed_ratio 0 ratio" in line for line in lines), lines

        proc, lines = bench("--workload", workload, "--trace", "1")
        result = result_of(proc, lines)
        assert result["correct"], "\n".join(lines)
        check_metrics(result, spec["per_layer"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(m[f"{layer}.self_s"] for layer in SELF_TIMES) + m["trace.unattributed_s"]
        assert math.isclose(total, m["trace.wall_s"], rel_tol=1e-9), (total, m["trace.wall_s"])
        print(f"ok {workload}: {result['attempted']} ops, traced wall {m['trace.wall_s']:.2f} s, "
              f"overhead {m['trace.overhead']:+.3f}", flush=True)

    proc, lines = bench("--workload", "frame_heston", "--trace", "0", "--wrong-expectation")
    result = result_of(proc, lines)
    assert not result["correct"] and result["failed"] == 1, result
    assert any("failed_ratio 1 ratio" in line for line in lines), lines
    print("ok planted wrong expectation counted in failed_ratio", flush=True)

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = bench("--workload", "frame_heston", "--trace", "0",
                            cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0 and not lines, (proc.returncode, lines)
    finally:
        shutil.rmtree(bare)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print("ok refuses to run without the package", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
