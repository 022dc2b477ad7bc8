"""The line-oriented run-config format: grammar, whitelist, diagnostics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineflow.config import (
    ConfigError,
    FrameBlock,
    RunConfig,
    SimBlock,
    Thresholds,
    load_config,
    parse_config,
)

FULL = """\
# demo configuration
model.name = heston
model.a = 0.4
model.b = 0.6
model.sigma = 0.5
model.rho = -0.5
model.lam = 1     # mean reversion on

grid.t = 0.0, 0.25, 0.5, 1.0
grid.s = 0.1, 0.3
grid.u = (-0.5+0.2j, 0.3j), (-1.0, -0.6j)
grid.x0 = 0.3, 0.0

sim.paths = 5000
sim.seed = 42

tol.flow = 1e-8
tol.ode = 1e-11
tol.stat_sigma = 3.0

frame.t = 0.5
frame.n_schedule = 64, 128, 256
frame.q_tol = 1e-4
frame.internal_dt = 0.001
frame.sample_paths = 10

out.dir = runs/demo
"""


def test_full_config():
    cfg = parse_config(FULL, path="demo.cfg")
    assert cfg.model_name == "heston"
    assert cfg.model_params == {"a": 0.4, "b": 0.6, "sigma": 0.5, "rho": -0.5, "lam": 1}
    assert cfg.t_grid == (0.0, 0.25, 0.5, 1.0)
    assert cfg.s_grid == (0.1, 0.3)
    assert cfg.u_points == ((-0.5 + 0.2j, 0.3j), (-1.0 + 0j, -0.6j))
    assert cfg.x0 == (0.3, 0.0)
    assert cfg.sim == SimBlock(n_paths=5000, seed=42)
    assert cfg.thresholds == Thresholds(flow=1e-8, ode=1e-11, stat_sigma=3.0)
    assert cfg.frame == FrameBlock(t=0.5, n_schedule=(64, 128, 256), q_tol=1e-4,
                                   internal_dt=0.001, sample_paths=10)
    assert cfg.out_dir == "runs/demo"
    assert cfg.source_path == "demo.cfg"


def test_minimal_config_uses_defaults():
    cfg = parse_config("model.name = cir\n")
    assert cfg.model_name == "cir" and cfg.model_params == {}
    assert cfg.sim == SimBlock() and cfg.sim.seed is None
    assert cfg.u_points is None and cfg.x0 is None
    assert cfg.out_dir == "runs"


def test_scalar_u_point_becomes_one_component():
    cfg = parse_config("model.name = cir\ngrid.u = -1.0, (-0.5+0.2j)\n")
    assert cfg.u_points == ((-1.0 + 0j,), (-0.5 + 0.2j,))


def test_build_model_from_config(cir):
    cfg = parse_config("model.name = cir\nmodel.a = 1.0\nmodel.b = 1.0\nmodel.sigma = 1.0\n")
    model = cfg.build_model()
    assert model.name == "cir" and model.params == cir.params


@pytest.mark.parametrize("text,fragment,line", [
    ("model.name = cir\nno equals here\n", "key = value", 2),
    ("model.name = cir\n= 5\n", "missing key", 2),
    ("model.name = cir\nsim.seed =\n", "missing value", 2),
    ("model.name = cir\nsim.seed = 1\nsim.seed = 2\n", "duplicate", 3),
    ("model.name = cir\nmodel.a = 1\nmodel.a = 2\n", "duplicate", 3),
    ("model.name = cir\nbogus.key = 1\n", "unknown key", 2),
    ("model.name = cir\nsim.seed = @@\n", "cannot parse", 2),
    ("model.name = cir\ngrid.u = ((1,2))\n", "nested", 2),
    ("model.name = cir\ngrid.u = (1, 2\n", "unbalanced '('", 2),
    ("model.name = cir\ngrid.u = 1, 2)\n", "unbalanced ')'", 2),
    ("model.name = cir\ngrid.t = 1,, 2\n", "stray comma", 2),
    ("model.name = cir\nmodel.mix = 1, (2, 3)\n", "mix", 2),
    ("model.name = cir\ngrid.u = (a, 2j)\n", "must be numbers", 2),
    ("model.name = cir\nmodel.Bad = 1\n", "parameter name", 2),
    ("model.name = cir\ntol.ode = 0\n", "must be positive", 2),
    ("model.name = cir\nsim.paths = 0\n", "at least 1", 2),
    ("model.name = cir\nsim.seed = -3\n", "nonnegative", 2),
    ("model.name = cir\ngrid.t = -0.5, 1.0\n", "nonnegative", 2),
    ("model.name = cir\nframe.n_schedule = 64, 0\n", "must be positive", 2),
    ("model.name = cir\nframe.n_schedule = 64, 96\n", "ratio 2", 2),
    ("model.name = cir\nframe.n_schedule = 64\n", "at least two", 2),
    ("model.name = cir\nframe.n_schedule = 64, 64\n", "ratio 2", 2),
    ("model.name = cir\nframe.sample_paths = -1\n", "nonnegative", 2),
    ("model.name = cir\nsim.paths = 2.5\n", "an integer", 2),
    ("model.name = cir\nsim.antithetic = true\n", "unknown key", 2),
    ("model.name = cir\ntol.flow = true\n", "real number", 2),
    ("model.name = cir\nmodel.a = true\n", "real numbers", 2),
    ("model.name = cir\nmodel.a = fast\n", "real numbers", 2),
])
def test_config_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ConfigError) as exc:
        parse_config(text, path="bad.cfg")
    assert fragment in str(exc.value)
    assert exc.value.line == line
    assert "bad.cfg" in str(exc.value)


def test_unknown_key_column_is_exact():
    with pytest.raises(ConfigError) as exc:
        parse_config("model.name = cir\n  bogus = 1\n")
    assert exc.value.line == 2 and exc.value.col == 3


def test_model_name_required():
    with pytest.raises(ConfigError, match="model.name is required"):
        parse_config("sim.seed = 1\n")


def test_with_seed_and_out_dir():
    cfg = parse_config("model.name = cir\n")
    seeded = cfg.with_seed(7)
    assert seeded.sim.seed == 7 and cfg.sim.seed is None
    moved = cfg.with_out_dir("elsewhere")
    assert moved.out_dir == "elsewhere"


def test_require_seed():
    cfg = parse_config("model.name = cir\n")
    with pytest.raises(ConfigError, match="--seed"):
        cfg.require_seed("verify")
    assert cfg.with_seed(3).require_seed("verify") == 3
    with pytest.raises(ConfigError, match="nonnegative"):
        cfg.with_seed(-1)


def test_thresholds_to_tolerances():
    tol = Thresholds(ode=1e-11).tolerances()
    assert tol.ode_rel == 1e-11
    assert tol.ode_abs == pytest.approx(1e-13)


def test_load_config(tmp_path):
    target = tmp_path / "run.cfg"
    target.write_text("model.name = levy\nmodel.drift = 0.1, -0.2\n")
    cfg = load_config(target)
    assert cfg.model_name == "levy"
    assert cfg.model_params == {"drift": (0.1, -0.2)}
    assert cfg.source_path == str(target)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_real_values_roundtrip_through_repr(v):
    cfg = parse_config(f"model.name = cir\ngrid.t = {v!r}\n")
    assert cfg.t_grid == (float(v),)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_seeds_roundtrip(v):
    cfg = parse_config(f"model.name = cir\nsim.seed = {v}\n")
    assert cfg.sim.seed == v
