"""Transform-pair flows: adaptive integration of the generalized Riccati system.

The scalar factor phi and the fiber map psi of the exponential-affine
transform solve

    d/dt psi = R(psi),     psi(0, u) = u
    d/dt phi = F(psi),     phi(0, u) = 0        (phi here is log of the factor)

Integrating the log of the scalar factor keeps its branch continuous in t for
free.  The stepper is an embedded Dormand-Prince 5(4) pair with PI step-size
control, operating directly on complex state vectors, landing exactly on every
requested checkpoint, and watching for exits from the admissible half-space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .core import Dims, Region, Tolerances, as_point, classify_region

__all__ = [
    "FlowEvaluation",
    "FlowIntegrationError",
    "FlowGrid",
    "ode_flow",
    "flow_on_grid",
    "matrix_exp",
    "OdeFlowSource",
    "ClosedFlowSource",
    "as_flow_source",
    "flow_source_for",
]


class FlowIntegrationError(RuntimeError):
    """Raised when the Riccati integrator cannot honor its error contract."""

    def __init__(self, message: str, s: float | None = None):
        super().__init__(message if s is None else f"{message} (at integration time s={s:.6g})")
        self.s = s


@dataclass(frozen=True)
class FlowEvaluation:
    """One evaluation of the transform pair at (t, u).

    ``log_phi`` is the branch-continuous logarithm of ``phi`` along the
    integration in t.  ``in_Q`` records whether the scalar factor is still
    bounded away from zero and psi still inside the admissible half-space;
    beyond a domain exit the numeric fields are NaN.
    """

    t: float
    u: np.ndarray
    phi: complex
    psi: np.ndarray
    log_phi: complex
    in_Q: bool = True
    phi_stderr: float | None = None
    psi_stderr: np.ndarray | None = None

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("flow evaluations live on t >= 0")
        if self.t == 0 and self.in_Q:
            object.__setattr__(self, "phi", 1 + 0j)
            object.__setattr__(self, "log_phi", 0j)
            object.__setattr__(self, "psi", np.array(self.u, dtype=np.complex128))


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the first of the next step).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_A_ROWS = tuple(np.array(row) for row in _DP_A)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _dp45(rhs, y0, checkpoints, rtol, atol, guard=None, max_steps=200_000):
    """Integrate y' = rhs(s, y) from s=0 over the ascending ``checkpoints``.

    Returns ``(records, halt)`` where ``records`` maps checkpoint -> state for
    every checkpoint reached, and ``halt`` is ``None`` or ``(s, reason)`` when
    the guard stopped the integration early.
    """
    y = np.array(y0, dtype=np.complex128)
    s = 0.0
    records: dict[float, np.ndarray] = {}
    targets = list(checkpoints)
    ti = 0
    while ti < len(targets) and targets[ti] <= s:
        records[targets[ti]] = y.copy()
        ti += 1
    if ti >= len(targets):
        return records, None

    f = rhs(s, y)
    t_end = targets[-1]
    sc = atol + rtol * np.abs(y)
    d0 = _scaled_norm(y, sc)
    d1 = _scaled_norm(f, sc)
    h = min(0.01 * d0 / d1 if d1 > 0 and d0 > 0 else 1e-6 * max(t_end, 1.0), t_end)
    h = max(h, 1e-12 * max(t_end, 1.0))

    err_prev = 1.0
    k = np.empty((7, y.size), dtype=np.complex128)
    for _ in range(max_steps):
        clipped = False
        if s + h >= targets[ti] - 1e-14 * max(1.0, targets[ti]):
            h_step = targets[ti] - s
            clipped = True
        else:
            h_step = h
        if h_step <= 1e-14 * max(1.0, s):
            raise FlowIntegrationError(
                "step size underflow: system too stiff for the error contract", s
            )

        k[0] = f
        for i in range(1, 7):
            yi = y + h_step * (_DP_A_ROWS[i] @ k[:i])
            k[i] = rhs(s + _DP_C[i] * h_step, yi)
        y_new = y + h_step * (_DP_B5 @ k)
        err_vec = h_step * (_DP_ERR @ k)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _scaled_norm(err_vec, sc)

        if err <= 1.0:
            s = s + h_step
            y = y_new
            f = k[6]  # FSAL
            if guard is not None:
                reason = guard(s, y)
                if reason is not None:
                    return records, (s, reason)
            while ti < len(targets) and s >= targets[ti] - 1e-14 * max(1.0, targets[ti]):
                records[targets[ti]] = y.copy()
                ti += 1
            if ti >= len(targets):
                return records, None
            if clipped:
                # A step shortened to land on a checkpoint reports an
                # artificially tiny error; feeding it to the controller would
                # inflate the next step to the acceptance edge and leak error
                # at every landing.  Keep the cruise proposal and history.
                continue
            # PI controller on the accepted-step error history.
            fac = 0.9 * (err + 1e-16) ** -0.14 * (err_prev + 1e-16) ** 0.08
            err_prev = max(err, 1e-16)
            h = h_step * min(5.0, max(0.2, fac))
        else:
            h = h_step * max(0.2, 0.9 * err ** -0.2)
    raise FlowIntegrationError("integration exceeded the step budget", s)


def _scaled_norm(v, sc) -> float:
    return float(np.sqrt(np.mean(np.abs(v / sc) ** 2)))


def _make_rhs(gen, dims: Dims):
    d = dims.d

    def rhs(s, y):
        psi = y[:d]
        r_val = np.atleast_1d(np.asarray(gen.R(psi), dtype=np.complex128))
        f_val = complex(gen.F(psi))
        if r_val.shape != (d,):
            raise FlowIntegrationError(f"generator R returned shape {r_val.shape}, expected ({d},)")
        if not (np.all(np.isfinite(r_val.view(np.float64))) and math.isfinite(f_val.real) and math.isfinite(f_val.imag)):
            raise FlowIntegrationError("generator returned a non-finite value", s)
        out = np.empty(d + 1, dtype=np.complex128)
        out[:d] = r_val
        out[d] = f_val
        return out

    return rhs


def _make_guard(dims: Dims, tol: Tolerances):
    d = dims.d
    log_floor = math.log(tol.q_zero_eps)
    eps = tol.region_eps

    def guard(s, y):
        if y[d].real < log_floor:
            return "scalar factor vanished"
        re = y[:d].real
        if dims.m and np.max(re[dims.I]) > eps:
            return "psi left the half-space (cone component)"
        if dims.n and np.max(np.abs(re[dims.J])) > eps:
            return "psi left the half-space (free component)"
        return None

    return guard


def _exited(t: float, u_arr: np.ndarray, dims: Dims) -> FlowEvaluation:
    nan_psi = np.full(dims.d, np.nan + 0j)
    return FlowEvaluation(t, u_arr, np.nan + 0j, nan_psi, np.nan + 0j, in_Q=False)


def _flow_column(gen, dims: Dims, u_arr: np.ndarray, times: list, tol: Tolerances):
    """Integrate one argument through the ascending, nonnegative ``times``.

    Returns one evaluation per time plus the integrator's halt (``None``, or
    ``(s, reason)`` after a domain exit); times the integration did not reach
    get NaN evaluations with ``in_Q=False``.
    """
    checkpoints = [t for t in times if t > 0]
    records, halt = {}, None
    if checkpoints:
        y0 = np.concatenate([u_arr, [0j]])
        records, halt = _dp45(_make_rhs(gen, dims), y0, checkpoints, tol.ode_rel, tol.ode_abs,
                              _make_guard(dims, tol))
    evals = []
    for t in times:
        if t == 0:
            evals.append(FlowEvaluation(0.0, u_arr, 1 + 0j, u_arr.copy(), 0j))
        elif t in records:
            y = records[t]
            log_phi = complex(y[dims.d])
            evals.append(FlowEvaluation(t, u_arr, complex(np.exp(log_phi)), y[: dims.d], log_phi))
        else:
            evals.append(_exited(t, u_arr, dims))
    return evals, halt


def ode_flow(gen, dims: Dims, t: float, u, tol: Tolerances = Tolerances()) -> FlowEvaluation:
    """Evaluate the transform pair at a single (t, u) by Riccati integration.

    ``u`` must lie in the admissible half-space; arguments outside it are
    rejected rather than extended.  A domain exit before t is reported through
    ``in_Q=False`` with the evaluation frozen at the exit time.
    """
    u_arr = as_point(u, dims)
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if classify_region(u_arr, dims, tol) is Region.OUTSIDE:
        raise ValueError(f"transform argument {u_arr} lies outside the admissible half-space")
    (ev,), halt = _flow_column(gen, dims, u_arr, [float(t)], tol)
    return ev if halt is None else _exited(float(halt[0]), u_arr, dims)


@dataclass
class FlowGrid:
    """Dense flow evaluations on a (t, u) product grid, row-major in t.

    ``evals[i][j]`` is the evaluation at ``(t_grid[i], u_grid[j])`` or ``None``
    when that column failed with a hard integration error; failures are listed
    in ``errors`` as ``(t_index, u_index, message)`` without touching other
    columns.
    """

    t_grid: np.ndarray
    u_grid: list
    evals: list
    errors: list = field(default_factory=list)

    def column(self, j: int) -> list:
        return [row[j] for row in self.evals]


def flow_on_grid(gen, dims: Dims, t_grid, u_grid, tol: Tolerances = Tolerances()) -> FlowGrid:
    """Evaluate the flow on a product grid, one integration per u column.

    Each column integrates once through the sorted t checkpoints, so results
    agree with pointwise :func:`ode_flow` to within the integration tolerance
    while costing a single pass.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise ValueError("t_grid must be strictly increasing and nonnegative")
    points = [as_point(u, dims) for u in u_grid]

    rows = [[None] * len(points) for _ in ts]
    errors: list[tuple[int, int, str]] = []
    times = [float(t) for t in ts]
    for j, u_arr in enumerate(points):
        if classify_region(u_arr, dims, tol) is Region.OUTSIDE:
            raise ValueError(f"u_grid[{j}] lies outside the admissible half-space")
        try:
            column, _halt = _flow_column(gen, dims, u_arr, times, tol)
        except FlowIntegrationError as exc:
            errors.extend((i, j, str(exc)) for i in range(len(times)))
            continue
        for i, ev in enumerate(column):
            rows[i][j] = ev
    return FlowGrid(ts, points, rows, errors)


def matrix_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t*a) for a square real or complex matrix.

    Thin wrapper over scipy's scaling-and-squaring implementation, which meets
    the <= 1e-12 relative accuracy contract for the small well-conditioned
    matrices used here; the 0x0 case is the empty matrix.
    """
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix_exp needs a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        return np.zeros_like(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix_exp needs finite entries")
    return scipy.linalg.expm(t * arr)


class OdeFlowSource:
    """Flow source backed by the adaptive Riccati integrator."""

    def __init__(self, gen, dims: Dims, tol: Tolerances = Tolerances()):
        self.gen = gen
        self.dims = dims
        self.tol = tol

    def at(self, t: float, u) -> FlowEvaluation:
        return ode_flow(self.gen, self.dims, t, u, self.tol)

    def on_grid(self, t_grid, u_list) -> list:
        grid = flow_on_grid(self.gen, self.dims, t_grid, u_list, self.tol)
        if grid.errors:
            i, j, msg = grid.errors[0]
            raise FlowIntegrationError(f"grid cell (t={grid.t_grid[i]}, u index {j}) failed: {msg}")
        return grid.evals


class ClosedFlowSource:
    """Flow source wrapping a closed-form evaluation function (t, u) -> FlowEvaluation."""

    def __init__(self, fn: Callable[[float, np.ndarray], FlowEvaluation]):
        self.fn = fn

    def at(self, t: float, u) -> FlowEvaluation:
        return self.fn(t, u)

    def on_grid(self, t_grid, u_list) -> list:
        return [[self.fn(float(t), u) for u in u_list] for t in t_grid]


def as_flow_source(source):
    """Accept a flow source object or a bare (t, u) -> FlowEvaluation callable."""
    if hasattr(source, "at") and hasattr(source, "on_grid"):
        return source
    if callable(source):
        return ClosedFlowSource(source)
    raise TypeError(f"cannot interpret {source!r} as a flow source")


def flow_source_for(model, tol: Tolerances = Tolerances(), prefer_closed: bool = False):
    """Build the natural flow source for a model (closed form only on request)."""
    if prefer_closed and model.closed_flow is not None:
        return ClosedFlowSource(model.closed_flow)
    if model.gen is None:
        raise ValueError(f"model {model.name!r} carries no generator pair")
    return OdeFlowSource(model.gen, model.dims, tol)
