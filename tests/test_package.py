"""The package's public surface: every exported name resolves, removed names stay gone,
and the runtime needs numpy alone."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from affineflow.cli import EXIT_PASS, main

MODULES = ("affineflow",) + tuple(
    f"affineflow.{m}" for m in ("cli", "config", "core", "empirical", "flow", "models",
                                "movingframe", "regularity", "verify"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_removed_names_are_gone():
    for name in MODULES:
        module = importlib.import_module(name)
        for removed in ("exp_functional", "in_domain", "as_flow_source",
                        "EmpiricalDerivativeEstimate"):
            assert not hasattr(module, removed), (name, removed)


def _package_env():
    """Environment whose PYTHONPATH puts the package this suite imported first."""
    import affineflow

    package_root = str(Path(affineflow.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath)


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, affineflow.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_runs_with_scipy_blocked(tmp_path):
    """numpy alone runs `verify --all` and writes the artifacts of an unblocked run."""
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "determinism.cfg")
    blocked, unblocked = tmp_path / "blocked", tmp_path / "unblocked"
    script = ("import sys; sys.modules['scipy'] = None; from affineflow.cli import main; "
              f"sys.exit(main(['verify', '--all', '--config', {cfg!r}, '--out', {str(blocked)!r}]))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_package_env(), cwd=str(tmp_path))
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert main(["verify", "--all", "--config", cfg, "--out", str(unblocked)]) == EXIT_PASS
    names = sorted(p.name for p in unblocked.iterdir() if p.name != "run_metadata.json")
    assert names == sorted(p.name for p in blocked.iterdir() if p.name != "run_metadata.json")
    for name in names:
        assert (blocked / name).read_bytes() == (unblocked / name).read_bytes(), name
