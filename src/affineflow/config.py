"""Run configuration: a line-oriented ``key = value`` format with dotted sections.

The format is deliberately minimal so a config diff reads like prose: one
assignment per line, ``#`` comments, sections spelled in the key itself
(``model.name``, ``sim.seed``).  Values are scalars (ints, reals, complex
numbers, bare words or quoted strings), comma-separated lists of scalars, or
comma-separated lists of parenthesized tuples; ``model.*`` parameters take
real numbers only.  Unknown keys and duplicate assignments are hard errors
with a line/column diagnostic; the point of a whitelist is that a typo cannot
silently become a default.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from dataclasses import dataclass, field

from .core import Tolerances

__all__ = [
    "ConfigError",
    "SimBlock",
    "Thresholds",
    "FrameBlock",
    "RunConfig",
    "parse_config",
    "load_config",
]


class ConfigError(ValueError):
    """Invalid configuration; carries 1-based source line and column."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None,
                 path: str | None = None):
        loc = path or ""
        if line is not None:
            loc += f":{line}" if loc else f"line {line}"
            if col is not None:
                loc += f":{col}" if path else f", column {col}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.line = line
        self.col = col
        self.path = path


@dataclass(frozen=True)
class SimBlock:
    """Simulation parameters; ``seed`` stays None until a config or flag sets it."""

    n_paths: int = 20_000
    seed: int | None = None


@dataclass(frozen=True)
class Thresholds:
    """Numerical and statistical acceptance thresholds for the check suite."""

    flow: float = 1e-8
    ode: float = 1e-10
    stat_sigma: float = 3.0

    def tolerances(self) -> Tolerances:
        return Tolerances(ode_rel=self.ode, ode_abs=self.ode * 1e-2)


@dataclass(frozen=True)
class FrameBlock:
    """Moving-frame pipeline parameters."""

    t: float = 0.5
    n_schedule: tuple = (64, 128, 256)
    q_tol: float = 1e-4
    internal_dt: float = 1e-3
    sample_paths: int = 50


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model, grids, tolerances, simulation, output."""

    model_name: str
    model_params: dict = field(default_factory=dict)
    t_grid: tuple = (0.0, 0.1, 0.25, 0.5, 1.0)
    s_grid: tuple = (0.05, 0.2, 0.4)
    u_points: tuple | None = None
    x0: tuple | None = None
    sim: SimBlock = SimBlock()
    thresholds: Thresholds = Thresholds()
    frame: FrameBlock = FrameBlock()
    out_dir: str = "runs"
    source_path: str = "<config>"

    def build_model(self):
        """Build the catalog model; an unknown name, a bad key or a bad value is a ConfigError."""
        from .models import MODEL_FACTORIES, model_from_spec

        factory = MODEL_FACTORIES.get(self.model_name)
        if factory is None:
            raise ConfigError(f"unknown model {self.model_name!r}; known: "
                              f"{sorted(MODEL_FACTORIES)}", path=self.source_path)
        signature = inspect.signature(factory, eval_str=True)
        try:
            signature.bind(**self.model_params)
        except TypeError as exc:
            raise ConfigError(f"model {self.model_name!r}: {exc}",
                              path=self.source_path) from exc
        for name, value in self.model_params.items():
            if signature.parameters[name].annotation is float and not isinstance(value, (int, float)):
                raise ConfigError(f"model {self.model_name!r}: parameter {name!r} must be a "
                                  f"real number, got {value!r}", path=self.source_path)
        try:
            return model_from_spec(self.model_name, dict(self.model_params))
        except ValueError as exc:
            raise ConfigError(f"model {self.model_name!r}: {exc}",
                              path=self.source_path) from exc

    def with_seed(self, seed: int) -> "RunConfig":
        if seed < 0:
            raise ConfigError(f"sim.seed must be nonnegative, got {seed}")
        return dataclasses.replace(self, sim=dataclasses.replace(self.sim, seed=int(seed)))

    def with_out_dir(self, out_dir: str) -> "RunConfig":
        return dataclasses.replace(self, out_dir=str(out_dir))

    def require_seed(self, command: str) -> int:
        if self.sim.seed is None:
            raise ConfigError(
                f"sim.seed is required for the stochastic command {command!r} "
                "(set it in the config or pass --seed)", path=self.source_path)
        return self.sim.seed


# ----------------------------------------------------------------------------
# value grammar


_BARE_WORD = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_./+-]*$")


def _parse_scalar(tok: str, line: int, col: int, path: str):
    text = tok.strip()
    if not text:
        raise ConfigError("empty value item", line, col, path)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    if _BARE_WORD.match(text):
        return text
    raise ConfigError(f"cannot parse value {text!r}", line, col, path)


def _split_top(raw: str, line: int, base_col: int, path: str):
    """Split on top-level commas, honoring one level of parentheses."""
    segs = []
    depth = 0
    start = 0
    for i, ch in enumerate(raw):
        if ch == "(":
            depth += 1
            if depth > 1:
                raise ConfigError("nested parentheses are not supported",
                                  line, base_col + i, path)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError("unbalanced ')'", line, base_col + i, path)
        elif ch == "," and depth == 0:
            segs.append((raw[start:i], base_col + start))
            start = i + 1
    if depth != 0:
        raise ConfigError("unbalanced '('", line, base_col + len(raw), path)
    segs.append((raw[start:], base_col + start))
    return segs


def _parse_items(raw: str, line: int, base_col: int, path: str):
    """Parse a value into a list of ('scalar', v) / ('group', tuple) items."""
    items = []
    for seg, col in _split_top(raw, line, base_col, path):
        text = seg.strip()
        col += len(seg) - len(seg.lstrip())
        if not text:
            raise ConfigError("empty value item (stray comma?)", line, col, path)
        if text.startswith("("):
            if not text.endswith(")"):
                raise ConfigError("tuple item must end with ')'", line, col, path)
            inner = text[1:-1]
            parts = []
            for sub, sub_col in _split_top(inner, line, col + 1, path):
                sub_text = sub.strip()
                if not sub_text and not parts and not inner.strip():
                    raise ConfigError("empty tuple", line, col, path)
                if not sub_text:
                    raise ConfigError("empty tuple item", line, sub_col, path)
                parts.append(_parse_scalar(sub_text, line, sub_col, path))
            items.append(("group", tuple(parts)))
        else:
            items.append(("scalar", _parse_scalar(text, line, col, path)))
    return items


def _one_scalar(items, line, col, path, kinds, what):
    if len(items) != 1 or items[0][0] != "scalar":
        raise ConfigError(f"expected a single {what}", line, col, path)
    v = items[0][1]
    if not isinstance(v, kinds):
        raise ConfigError(f"expected {what}, got {v!r}", line, col, path)
    return v


def _real(items, line, col, path):
    v = _one_scalar(items, line, col, path, (int, float), "a real number")
    return float(v)


def _integer(items, line, col, path):
    return int(_one_scalar(items, line, col, path, int, "an integer"))


def _word(items, line, col, path):
    v = _one_scalar(items, line, col, path, str, "a word or quoted string")
    return str(v)


def _real_list(items, line, col, path):
    out = []
    for kind, v in items:
        if kind != "scalar" or not isinstance(v, (int, float)):
            raise ConfigError("expected a comma-separated list of real numbers",
                              line, col, path)
        out.append(float(v))
    return tuple(out)


def _int_list(items, line, col, path):
    out = []
    for kind, v in items:
        if kind != "scalar" or not isinstance(v, int):
            raise ConfigError("expected a comma-separated list of integers",
                              line, col, path)
        out.append(int(v))
    return tuple(out)


def _point_list(items, line, col, path):
    """Transform-argument points: scalars become 1-component points."""
    points = []
    for kind, v in items:
        comps = v if kind == "group" else (v,)
        point = []
        for c in comps:
            if isinstance(c, str):
                raise ConfigError(f"point components must be numbers, got {c!r}",
                                  line, col, path)
            point.append(complex(c))
        points.append(tuple(point))
    return tuple(points)


def _model_param(items, line, col, path):
    """A real number, a list of reals, or a list of tuples of reals."""
    for kind, v in items:
        for c in (v if kind == "group" else (v,)):
            if not isinstance(c, (int, float)):
                raise ConfigError(f"model parameters must be real numbers, got {c!r}",
                                  line, col, path)
    if all(kind == "scalar" for kind, _ in items):
        vals = [v for _, v in items]
        return vals[0] if len(vals) == 1 else tuple(vals)
    if all(kind == "group" for kind, _ in items):
        return tuple(v for _, v in items)
    raise ConfigError("cannot mix scalars and tuples in one value", line, col, path)


# key -> (target slot, normalizer).  model.* is handled separately.
_KEYS = {
    "grid.t": ("t_grid", _real_list),
    "grid.s": ("s_grid", _real_list),
    "grid.u": ("u_points", _point_list),
    "grid.x0": ("x0", _real_list),
    "sim.paths": ("sim.n_paths", _integer),
    "sim.seed": ("sim.seed", _integer),
    "tol.flow": ("thresholds.flow", _real),
    "tol.ode": ("thresholds.ode", _real),
    "tol.stat_sigma": ("thresholds.stat_sigma", _real),
    "frame.t": ("frame.t", _real),
    "frame.n_schedule": ("frame.n_schedule", _int_list),
    "frame.q_tol": ("frame.q_tol", _real),
    "frame.internal_dt": ("frame.internal_dt", _real),
    "frame.sample_paths": ("frame.sample_paths", _integer),
    "out.dir": ("out_dir", _word),
}

_POSITIVE = {"tol.flow", "tol.ode", "tol.stat_sigma", "frame.t", "frame.q_tol",
             "frame.internal_dt"}

_MODEL_PARAM_NAME = re.compile(r"^[a-z_][a-z0-9_]*$")


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Parse config text into a RunConfig; any defect raises ConfigError."""
    assigned: dict[str, tuple] = {}
    model_name = None
    model_params: dict = {}

    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigError("expected 'key = value'", lineno, col, path)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        key_col = len(key_part) - len(key_part.lstrip()) + 1
        if not key:
            raise ConfigError("missing key before '='", lineno, 1, path)
        value_col = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        if not value_part.strip():
            raise ConfigError(f"missing value for {key!r}", lineno, value_col, path)
        if key in assigned or (key == "model.name" and model_name is not None) or (
                key.startswith("model.") and key[6:] in model_params):
            raise ConfigError(f"duplicate key {key!r}", lineno, key_col, path)
        items = _parse_items(value_part.rstrip(), lineno, value_col, path)

        if key == "model.name":
            model_name = _word(items, lineno, value_col, path)
        elif key.startswith("model."):
            param = key[6:]
            if not _MODEL_PARAM_NAME.match(param):
                raise ConfigError(f"invalid model parameter name {param!r}",
                                  lineno, key_col, path)
            model_params[param] = _model_param(items, lineno, value_col, path)
        elif key in _KEYS:
            slot, normalize = _KEYS[key]
            value = normalize(items, lineno, value_col, path)
            if key in _POSITIVE and value <= 0:
                raise ConfigError(f"{key} must be positive", lineno, value_col, path)
            if key == "sim.paths" and value < 1:
                raise ConfigError("sim.paths must be at least 1", lineno, value_col, path)
            if key == "sim.seed" and value < 0:
                raise ConfigError("sim.seed must be nonnegative", lineno, value_col, path)
            if key == "frame.sample_paths" and value < 0:
                raise ConfigError("frame.sample_paths must be nonnegative",
                                  lineno, value_col, path)
            if key == "grid.t" and any(t < 0 for t in value):
                raise ConfigError("grid.t entries must be nonnegative",
                                  lineno, value_col, path)
            if key in ("grid.s", "frame.n_schedule") and any(v <= 0 for v in value):
                raise ConfigError(f"{key} entries must be positive",
                                  lineno, value_col, path)
            if key == "frame.n_schedule" and (len(value) < 2
                                              or max(value) != 2 * sorted(value)[-2]):
                raise ConfigError("frame.n_schedule needs at least two entries, the two largest "
                                  "in ratio 2 (the p/q limit extrapolates from them)",
                                  lineno, value_col, path)
            assigned[key] = (slot, value)
        else:
            raise ConfigError(f"unknown key {key!r}", lineno, key_col, path)

    if model_name is None:
        raise ConfigError("model.name is required", path=path)

    top: dict = {"model_name": model_name, "model_params": model_params,
                 "source_path": path}
    blocks: dict[str, dict] = {"sim": {}, "thresholds": {}, "frame": {}}
    for slot, value in assigned.values():
        if "." in slot:
            block, attr = slot.split(".", 1)
            blocks[block][attr] = value
        else:
            top[slot] = value
    return RunConfig(
        sim=SimBlock(**blocks["sim"]),
        thresholds=Thresholds(**blocks["thresholds"]),
        frame=FrameBlock(**blocks["frame"]),
        **top,
    )


def load_config(path) -> RunConfig:
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from exc
    return parse_config(text, path=str(path))
