"""Spans and counters around the calls into each affineflow module.

The benchmark installs these wrappers in a traced pass only; untraced passes
run the package untouched.  Every public function listed in ``SPANNED`` is
replaced wherever its name is bound inside the package (``movingframe``
imports ``sample_grid`` and ``matrix_exp`` into its own namespace, ``cli``
imports the ``check_*`` functions, and so on), so a call is seen whichever
module looks it up.  Each call records one span

    (name, layer, start, end, parent span index, operation id)

kept in memory and written out when the pass ends.  Counters are taken at
the same boundaries.  Generator ``R`` calls and ``classify_region`` calls are
far too frequent for spans, so they are counted only.

``layer_metrics`` turns one pass's spans and counters into the per-layer
metrics; the parent process applies it to the span files.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions wrapped in each layer.  A name missing from its module
# fails the traced pass, so a rename cannot quietly zero a metric.
SPANNED = {
    "flow": ("ode_flow", "flow_on_grid", "matrix_exp"),
    "models": ("model_from_spec", "sample_grid", "simulate"),
    "empirical": ("ecf_from_states", "endpoint_states", "affine_factorization_test",
                  "recover_phi_psi", "semihomogeneity_test"),
    "movingframe": ("frame_pipeline", "pq_extrapolate", "pq_recursion",
                    "transform_values", "inverse_values", "transformed_state_source"),
    "verify": ("check_semiflow", "check_monotonicity", "check_property_A",
               "extract_beta", "posdef_certificate", "feller_decay"),
    "regularity": ("estimate_FR", "estimate_FR_from_samples", "riccati_consistency",
                   "u_jacobian"),
    "cli": ("main", "cmd_flow", "cmd_verify", "cmd_frame"),
    "config": ("load_config",),
}

# Sampler classes the workloads run, each with its own cost per path-step.
SAMPLERS = {"CirExactSampler": "cir", "HestonEulerSampler": "heston",
            "GaussianIncrementSampler": "gaussian"}

BENCH_LAYER = "bench"  # the benchmark's own operation spans


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """In-memory span and counter store for one single-threaded pass."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._flow_error: type = Exception  # set by install()
        self.check_names: list[str] = []    # cli.CHECKS, set by install()

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, after=None):
        """Return ``fn`` recording a span per call.

        ``after(args, kwargs, result)`` runs inside the span, may count, and
        returns the result handed back to the caller.  A flow integration
        error leaving a flow span is counted as ``flow.errors``.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(args, kwargs, result)
                return result
            except Exception as exc:
                if layer == "flow" and isinstance(exc, self._flow_error):
                    self.count("flow.errors")
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.op)

        return traced

    def counting(self, fn, key: str):
        """Return ``fn`` counting its calls made inside an operation."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def count(self, key: str, amount=1) -> None:
        if self.op is not None:
            self.counters[key] += amount

    @contextmanager
    def operation(self, op_id: str):
        """Root span of one benchmark operation; every layer span nests in one."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (op_id, BENCH_LAYER, start, end, -1, op_id)
            self.op = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "checks": self.check_names}, fh)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions, generators, samplers and checks."""
        import affineflow.cli as cli
        import affineflow.core as core
        import affineflow.flow as flow
        import affineflow.models as models

        self._flow_error = flow.FlowIntegrationError

        hooks = {
            "ode_flow": self._after_ode_flow,
            "flow_on_grid": self._after_flow_on_grid,
            "sample_grid": self._after_sample_grid,
            "ecf_from_states": self._after_ecf,
            "pq_recursion": self._after_pq_recursion,
            "transform_values": self._after_transform_values,
            "transformed_state_source": self._after_transformed_source,
            "estimate_FR": self._after_estimate,
            "estimate_FR_from_samples": self._after_estimate,
        }
        for layer, names in SPANNED.items():
            module = sys.modules[f"affineflow.{layer}"]
            for name in names:
                orig = getattr(module, name)
                _rebind(orig, self.wrap(orig, f"{layer}.{name}", layer, hooks.get(name)))

        _rebind(core.classify_region, self.counting(core.classify_region, "core.classify_calls"))

        self.check_names = sorted(cli.CHECKS)
        for name, fn in list(cli.CHECKS.items()):
            cli.CHECKS[name] = self.wrap(fn, f"cli.check.{name}", "cli")

        for cls in [c for c in vars(models).values() if isinstance(c, type)]:
            if "sample_chunk" in vars(cls):
                cls.sample_chunk = self.wrap(cls.sample_chunk, f"models.{cls.__name__}.sample_chunk",
                                             "models", self._after_chunk)

        tracer = self
        base = models.GeneratorPair

        class CountingPair(base):
            """GeneratorPair whose R counts its calls (models built after install)."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                object.__setattr__(self, "R", tracer.counting(self.R, "flow.rhs_evals"))

        _rebind(base, CountingPair)

    # -- counters at span boundaries ----------------------------------------

    def _after_ode_flow(self, args, kwargs, ev):
        self.count("flow.solves")
        if not getattr(ev, "in_Q", True):
            self.count("flow.exits")
        return ev

    def _after_flow_on_grid(self, args, kwargs, grid):
        u_grid = _arg(args, kwargs, 3, "u_grid", ())
        self.count("flow.solves", len(u_grid))
        exits = sum(1 for row in grid.evals for ev in row
                    if ev is not None and not ev.in_Q)
        self.count("flow.exits", exits)
        self.count("flow.errors", len({j for _i, j, _msg in grid.errors}))
        return grid

    def _after_chunk(self, args, kwargs, out):
        sampler = args[0]
        times = np.asarray(_arg(args, kwargs, 2, "times"), dtype=float)
        rngs = _arg(args, kwargs, 3, "rngs")
        self.count("models.streams", len(rngs) if isinstance(rngs, (list, tuple)) else 1)
        plan = getattr(sampler, "_substep_plan", None)
        if plan is not None:  # Euler samplers refine each record interval internally
            steps = int(plan(times)[1].sum())
        else:
            steps = times.size - 1
        path_steps = int(out.shape[0]) * steps
        self.count("models.path_steps", path_steps)
        self.count(f"models.path_steps:{type(sampler).__name__}", path_steps)
        return out

    def _after_sample_grid(self, args, kwargs, out):
        self.count("models.bytes_out", int(out.nbytes))
        return out

    def _after_ecf(self, args, kwargs, est):
        states = _arg(args, kwargs, 0, "states")
        n_u = math.prod(np.shape(_arg(args, kwargs, 1, "u"))[:-1])  # 1 for a single u
        self.count("empirical.samples", len(states) * n_u)
        return est

    def _after_pq_recursion(self, args, kwargs, state):
        n = int(_arg(args, kwargs, 4, "N"))
        scheme = _arg(args, kwargs, 7, "scheme", "folded")
        self.count("movingframe.pq_steps", n - 1 if scheme == "folded" else n)
        return state

    def _after_transform_values(self, args, kwargs, out):
        values = _arg(args, kwargs, 0, "values")
        self.count("movingframe.transform_bytes", int(getattr(values, "nbytes", 0)))
        return out

    def _after_transformed_source(self, args, kwargs, source):
        return self.wrap(source, "movingframe.transformed_source", "movingframe")

    def _after_estimate(self, args, kwargs, est):
        self.count("regularity.estimates")
        return est


def _rebind(orig, replacement) -> None:
    """Point every name bound to ``orig`` inside the package at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "affineflow" and not mod_name.startswith("affineflow."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


# ----------------------------------------------------------------------------
# aggregation (plain Python)


def _per_call(total_s: float, count: float, scale: float) -> float:
    return total_s * scale / count if count else 0.0


def layer_metrics(spans: list, counters: dict, check_names: list) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counters.

    ``check_names`` are the entries of ``cli.CHECKS``, one
    ``cli.check.<name>_s`` metric each.

    Self time is a span's duration minus the durations of its direct
    children; summed over the spans inside operations it partitions the
    traced wall time exactly, with the operation spans' own self time being
    the time no layer accounts for.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_layer: Counter = Counter()
    incl_by_name: Counter = Counter()
    self_by_name: Counter = Counter()
    load_s = 0.0
    wall = 0.0
    for i, (name, layer, start, end, parent, op) in enumerate(spans):
        dur = end - start
        if layer == "config":
            load_s += dur
        if op is None:
            continue  # set-up spans: only config.load_s counts them
        if layer == BENCH_LAYER:
            wall += dur
        self_by_layer[layer] += dur - child[i]
        self_by_name[name] += dur - child[i]
        incl_by_name[name] += dur

    c = Counter(counters)
    chunk_s = sum(v for k, v in incl_by_name.items() if k.endswith(".sample_chunk"))
    estimate_s = incl_by_name["regularity.estimate_FR"] + incl_by_name["regularity.estimate_FR_from_samples"]
    m = {
        "flow.solves": (c["flow.solves"], "count"),
        "flow.rhs_evals": (c["flow.rhs_evals"], "count"),
        "flow.rhs_per_solve": (_per_call(c["flow.rhs_evals"], c["flow.solves"], 1.0), "evals/solve"),
        "flow.us_per_rhs": (_per_call(self_by_layer["flow"], c["flow.rhs_evals"], 1e6), "us"),
        "flow.ms_per_solve": (_per_call(self_by_layer["flow"], c["flow.solves"], 1e3), "ms"),
        "flow.exits": (c["flow.exits"], "count"),
        "flow.errors": (c["flow.errors"], "count"),
        "flow.self_s": (self_by_layer["flow"], "s"),
        "models.streams": (c["models.streams"], "count"),
        "models.path_steps": (c["models.path_steps"], "count"),
        "models.us_per_stream": (_per_call(self_by_name["models.sample_grid"], c["models.streams"], 1e6), "us"),
        "models.ns_per_path_step": (_per_call(chunk_s, c["models.path_steps"], 1e9), "ns"),
        **{f"models.{short}.ns_per_path_step": (
            _per_call(incl_by_name[f"models.{cls}.sample_chunk"], c[f"models.path_steps:{cls}"], 1e9), "ns")
           for cls, short in SAMPLERS.items()},
        "models.bytes_out": (c["models.bytes_out"], "bytes"),
        "models.self_s": (self_by_layer["models"], "s"),
        "empirical.samples": (c["empirical.samples"], "count"),
        "empirical.ns_per_sample": (_per_call(incl_by_name["empirical.ecf_from_states"],
                                              c["empirical.samples"], 1e9), "ns"),
        "empirical.self_s": (self_by_layer["empirical"], "s"),
        "movingframe.pq_steps": (c["movingframe.pq_steps"], "count"),
        "movingframe.us_per_pq_step": (_per_call(incl_by_name["movingframe.pq_recursion"],
                                                 c["movingframe.pq_steps"], 1e6), "us"),
        "movingframe.transform_bytes": (c["movingframe.transform_bytes"], "bytes"),
        "movingframe.transform_s": (incl_by_name["movingframe.transform_values"], "s"),
        "movingframe.self_s": (self_by_layer["movingframe"], "s"),
        "verify.self_s": (self_by_layer["verify"], "s"),
        "regularity.estimates": (c["regularity.estimates"], "count"),
        "regularity.ms_per_estimate": (_per_call(estimate_s, c["regularity.estimates"], 1e3), "ms"),
        "regularity.self_s": (self_by_layer["regularity"], "s"),
    }
    for check in check_names:
        m[f"cli.check.{check}_s"] = (incl_by_name[f"cli.check.{check}"], "s")
    m["cli.self_s"] = (self_by_layer["cli"], "s")
    m["cli.artifact_bytes"] = (c["cli.artifact_bytes"], "bytes")
    m["config.load_s"] = (load_s, "s")
    m["config.self_s"] = (self_by_layer["config"], "s")
    m["core.classify_calls"] = (c["core.classify_calls"], "count")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (self_by_layer[BENCH_LAYER], "s")
    return m
