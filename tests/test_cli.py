"""End-to-end tests of the command-line front end.

Everything here drives ``affineflow.cli.main`` in process with small inline
configs and tmp output directories, so the suite stays fast.  One subprocess
smoke test covers the ``python -m affineflow`` entry point.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from affineflow.cli import (
    CHECK_NAMES,
    EXIT_CHECK_FAILURE,
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    _write_paths_csv,
    main,
)

CIR_FAST = """\
model.name = cir
model.a = 1.0
model.b = 1.0
model.sigma = 1.0
grid.t = 0.0, 0.25, 0.5
grid.s = 0.1, 0.3
grid.u = (-1.0), (-0.5+0.4j)
grid.x0 = 1.0
sim.paths = 800
sim.seed = 5
"""

# lam = 1 makes the raw free coordinate drift, so the semihomogeneity check
# is expected to FAIL here (that is the point of the moving frame).
HESTON_DRIFTY = """\
model.name = heston
model.a = 0.4
model.b = 0.6
model.sigma = 0.5
model.rho = -0.5
model.lam = 1.0
grid.t = 0.0, 0.25, 0.6
grid.u = (0.4j, 0.5j)
grid.x0 = 0.3, 0.0
sim.paths = 6000
sim.seed = 42
frame.t = 0.6
"""

FRAME_CFG = """\
model.name = heston
model.a = 0.4
model.b = 0.6
model.sigma = 0.5
model.rho = -0.5
model.lam = 1.0
grid.u = (0.4j, 0.5j)
grid.x0 = 0.3, 0.0
sim.paths = 3000
sim.seed = 21
frame.t = 0.5
frame.n_schedule = 32, 64, 128
frame.q_tol = 1e-3
frame.internal_dt = 2e-3
frame.sample_paths = 5
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# argument parsing and usage errors


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_PASS
    out = capsys.readouterr().out
    for sub in ("flow", "verify", "frame"):
        assert sub in out


def test_missing_config_flag_is_usage_error(capsys):
    assert main(["flow"]) == EXIT_USAGE
    assert "--config" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["tabulate"]) == EXIT_USAGE


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_missing_config_file(tmp_path, capsys):
    code = main(["flow", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "cannot read" in err


def test_malformed_config_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model.name = cir\nbogus line\n")
    assert main(["flow", "--config", cfg]) == EXIT_USAGE
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "model.bogus = 2",    # no such factory argument
    "model.name = cirr",  # no such model
    "model.a = -1",       # the factory rejects the value
    "model.a = 1.0, 2.0",  # a list where the factory takes a real number
])
def test_bad_model_spec_is_config_error(tmp_path, capsys, line):
    key = line.split("=")[0].strip()
    text = "".join(row + "\n" for row in CIR_FAST.splitlines() if not row.startswith(key + " "))
    cfg = write_cfg(tmp_path, text + line + "\n")
    code = main(["flow", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error:")


def test_u_point_with_wrong_dimension(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST.replace(
        "grid.u = (-1.0), (-0.5+0.4j)", "grid.u = (-1.0, 0.5j)"))
    code = main(["flow", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "components" in capsys.readouterr().err


@pytest.mark.parametrize("point, component", [("(0.3)", 0), ("(1e-13+0.5j)", None)])
def test_u_point_outside_the_half_space_names_the_component(tmp_path, capsys, point, component):
    """A positive cone real part is a config error; one inside the REGION_EPS band is not."""
    cfg = write_cfg(tmp_path, CIR_FAST.replace("grid.u = (-1.0), (-0.5+0.4j)",
                                               f"grid.u = (-1.0), {point}"))
    code = main(["flow", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if component is None:
        assert code == EXIT_PASS, err
    else:
        assert code == EXIT_USAGE
        assert f"grid.u point 1 component {component} (real part 0.3) lies outside" in err


def test_unknown_check_name_lists_known_ones(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST)
    code = main(["verify", "--config", cfg, "--checks", "semiflow,warp",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown check name" in err and "warp" in err
    for name in CHECK_NAMES:
        assert name in err


def test_checks_and_all_conflict(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST)
    code = main(["verify", "--config", cfg, "--checks", "semiflow", "--all"])
    assert code == EXIT_USAGE
    assert "not both" in capsys.readouterr().err


def test_empty_checks_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST)
    code = main(["verify", "--config", cfg, "--checks", " , "])
    assert code == EXIT_USAGE
    assert "empty" in capsys.readouterr().err


def test_verify_without_seed_demands_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST.replace("sim.seed = 5\n", ""))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--checks", "semiflow",
                 "--out", out]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    # the command-line override supplies the missing seed
    assert main(["verify", "--config", cfg, "--checks", "semiflow",
                 "--out", out, "--seed", "11"]) == EXIT_PASS
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 11


# ---------------------------------------------------------------------------
# flow subcommand


@pytest.mark.parametrize("command", ["frame", "verify"])
def test_negative_seed_flag_is_config_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_flow_writes_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST)
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    assert "wrote" in capsys.readouterr().out

    lines = (out / "flow_table.csv").read_text().splitlines()
    assert lines[0] == "t,re_u1,im_u1,re_phi,im_phi,re_psi1,im_psi1,in_q"
    # two u points x three times (0 is always included)
    assert len(lines) == 1 + 2 * 3

    rows = [line.split(",") for line in lines[1:]]
    t0 = [r for r in rows if float(r[0]) == 0.0]
    assert len(t0) == 2
    for r in t0:
        # at t=0 the transform pair is the identity: phi = 1, psi = u
        assert float(r[3]) == 1.0 and float(r[4]) == 0.0
        assert float(r[5]) == float(r[1]) and float(r[6]) == float(r[2])
        assert r[7] == "1"
    # every cell is a plain decimal repr, no numpy types leaked
    assert "np.float64" not in "\n".join(lines)

    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["command"] == "flow"
    assert meta["model"] == "cir"
    assert meta["rows"] == 6


def test_flow_json_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST)
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out), "--json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 6
    row0 = payload["rows"][0]
    assert set(row0) == {"t", "re_u1", "im_u1", "re_phi", "im_phi",
                         "re_psi1", "im_psi1", "in_q"}
    assert row0["t"] == 0.0 and row0["re_phi"] == 1.0 and row0["in_q"] == 1


def test_flow_on_control_model_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model.name = nonaffine_control\nsim.seed = 1\n")
    assert main(["flow", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "no transform flow" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_subset_writes_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST)
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--checks", "semiflow,property_b",
                 "--out", str(out), "--json"])
    assert code == EXIT_PASS

    summary = json.loads((out / "summary.json").read_text())
    assert summary["model"] == "cir"
    assert summary["seed"] == 5
    assert sorted(summary["checks"]) == ["property_b", "semiflow"]
    assert summary["all_passed"] is True
    for entry in summary["checks"].values():
        assert entry["passed"] is True
        assert entry["max_violation"] <= entry["threshold"]

    # --json mirrors the summary artifact exactly
    assert json.loads(capsys.readouterr().out) == summary

    for name in ("semiflow", "property_b"):
        report = json.loads((out / f"{name}.json").read_text())
        assert report["check_name"] == name
        assert report["passed"] is True
        assert report["witnesses"] == []
    # only the requested checks are written
    assert not (out / "posdef.json").exists()

    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["command"] == "verify"
    assert meta["checks"] == ["property_b", "semiflow"]
    assert "timestamp_utc" in meta


def test_verify_designed_failure_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, HESTON_DRIFTY)
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--checks", "semihomogeneity",
                 "--out", str(out)])
    assert code == EXIT_CHECK_FAILURE
    assert "FAIL" in capsys.readouterr().out

    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] is False
    assert summary["checks"]["semihomogeneity"]["passed"] is False
    report = json.loads((out / "semihomogeneity.json").read_text())
    assert report["witnesses"]  # at least one concrete witness recorded


def test_verify_check_subset_writes_the_reports_of_a_full_run(tmp_path):
    """Each check seeds from (base seed, check name), not from its place in the run."""
    cfg = write_cfg(tmp_path, CIR_FAST)
    subset, full = tmp_path / "subset", tmp_path / "all"
    assert main(["verify", "--config", cfg, "--checks", "factorization,recover",
                 "--out", str(subset)]) == EXIT_PASS
    assert main(["verify", "--config", cfg, "--all", "--out", str(full)]) == EXIT_PASS
    for artifact in ("factorization.json", "recover.json"):
        assert (subset / artifact).read_bytes() == (full / artifact).read_bytes(), artifact


def test_recover_at_zero_stderr_fails_like_factorization(tmp_path, capsys):
    """One path per start has zero standard error: any gap is inf sigmas, in both checks."""
    cfg = write_cfg(tmp_path, CIR_FAST.replace("sim.paths = 800", "sim.paths = 1"))
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--checks", "recover,factorization",
                 "--out", str(out)])
    assert code == EXIT_CHECK_FAILURE
    summary = json.loads((out / "summary.json").read_text())
    for name in ("factorization", "recover"):
        assert summary["checks"][name]["passed"] is False
        assert summary["checks"][name]["max_violation"] == float("inf")
        assert json.loads((out / f"{name}.json").read_text())["witnesses"]


def test_verify_runs_a_repeated_check_name_once(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CIR_FAST)
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--checks", "semiflow,semiflow", "--out", str(out)])
    assert code == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("verify semiflow:") for line in lines) == 1
    assert json.loads((out / "run_metadata.json").read_text())["checks"] == ["semiflow"]


# ---------------------------------------------------------------------------
# frame subcommand


def test_frame_writes_report_and_paths(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "out"
    assert main(["frame", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    assert "frame: pass" in capsys.readouterr().out

    payload = json.loads((out / "frame_report.json").read_text())
    assert payload["report"]["passed"] is True
    assert payload["beta_origin"] == "model"
    assert np.allclose(payload["beta"], [[-1.0]])
    assert payload["q_defect"] <= 1e-3
    assert payload["n_schedule"] == [32, 64, 128]
    assert payload["t"] == 0.5
    assert payload["ecf_z"] < 3.0

    defects = payload["q_free_defect_by_N"]
    assert len(defects) == 1  # one u point in the config
    ns = [entry["N"] for entry in defects[0]]
    assert ns == [32, 64, 128]
    vals = [entry["q_free_defect"] for entry in defects[0]]
    assert vals[0] > vals[1] > vals[2]

    text = (out / "transformed_paths.csv").read_text().splitlines()
    assert text[0] == "# frame=transformed"
    assert text[1] == "path_id,t,x1,x2"
    rows = [line.split(",") for line in text[2:]]
    assert len(rows) == 5 * 251  # sample_paths x grid points of 0.5 / 2e-3
    assert sorted({int(r[0]) for r in rows}) == [0, 1, 2, 3, 4]
    starts = [r[2:] for r in rows if r[1] == "0.0"]
    assert starts == [["0.3", "0.0"]] * 5  # the transform leaves x0 unchanged
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["command"] == "frame" and meta["u_points"] == 1


def test_frame_artifacts_are_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG.replace("sim.paths = 3000", "sim.paths = 500"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        main(["frame", "--config", cfg, "--out", str(out)])
    for artifact in ("frame_report.json", "transformed_paths.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact


def test_paths_csv_matches_csv_writer(tmp_path):
    """The joined-lines writer gives csv.writer's bytes, signed zero and extreme floats included."""
    times = np.array([0.0, 1e-300, 0.5])
    values = np.array([[[-0.0, 5e-324], [1e-300, 1e300], [-1e300, 0.1]],
                       [[0.3, -5e-324], [2.0, -0.0], [1.0 / 3.0, -1e-300]]])
    got = tmp_path / "got.csv"
    _write_paths_csv(got, times, values)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        fh.write("# frame=transformed\n")
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "x1", "x2"])
        for pid, rows in enumerate(values):
            for t, row in zip(times, rows):
                writer.writerow([pid, repr(float(t))] + [repr(float(v)) for v in row])
    assert got.read_bytes() == ref.read_bytes()


def test_frame_with_off_grid_internal_dt_is_config_error(tmp_path, capsys):
    # 0.5 is not a multiple of 3e-4: a config mistake, caught before the pipeline runs
    cfg = write_cfg(tmp_path, FRAME_CFG.replace(
        "frame.internal_dt = 2e-3", "frame.internal_dt = 3e-4"))
    code = main(["frame", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not a multiple of grid_step 0.0003" in err
    assert not (tmp_path / "out").exists()


def test_programming_error_in_a_check_is_not_a_numerical_failure(tmp_path, monkeypatch):
    """Only the package's numerical error types map to exit 3; a bug keeps its traceback."""
    from affineflow import cli

    def broken(cfg, model, source, seed):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(cli.CHECKS, "semiflow", broken)
    cfg = write_cfg(tmp_path, CIR_FAST)
    with pytest.raises(ValueError, match="broadcast"):
        main(["verify", "--config", cfg, "--checks", "semiflow", "--out", str(tmp_path / "out")])


def test_frame_rejects_non_imaginary_u(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FRAME_CFG.replace(
        "grid.u = (0.4j, 0.5j)", "grid.u = (-0.2+0.4j, 0.5j)"))
    code = main(["frame", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "purely imaginary" in capsys.readouterr().err


@pytest.mark.parametrize("re_part, message", [
    ("1e-13", None),
    ("1e-11", "outside the admissible half-space"),
    ("-1e-11", "purely imaginary"),
])
def test_frame_takes_real_parts_inside_the_region_band(tmp_path, capsys, re_part, message):
    """`frame` reads |Re u| <= REGION_EPS as purely imaginary, as pq_recursion does."""
    cfg = write_cfg(tmp_path, FRAME_CFG.replace(
        "grid.u = (0.4j, 0.5j)", f"grid.u = ({re_part}+0.4j, 0.5j)").replace(
        "sim.paths = 3000", "sim.paths = 2000"))
    code = main(["frame", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if message is None:
        assert code == EXIT_PASS, err
    else:
        assert code == EXIT_USAGE and message in err


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "affineflow", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "affineflow" in proc.stdout
