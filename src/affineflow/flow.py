"""Transform-pair flows: adaptive integration of the generalized Riccati system.

The scalar factor phi and the fiber map psi of the exponential-affine
transform solve

    d/dt psi = R(psi),     psi(0, u) = u
    d/dt phi = F(psi),     phi(0, u) = 0        (phi here is log of the factor)

Integrating the log of the scalar factor keeps its branch continuous in t for
free.  The stepper is an embedded Dormand-Prince 5(4) pair with PI step-size
control over a lane axis: every transform argument of a call is one lane of a
single solve on complex states, all lanes share the step sequence, land
exactly on every requested checkpoint, and leave the active set on their own
when they exit the admissible half-space; a lane that fails numerically
fails the call.

Consumers read flows through a flow source, an object whose one method
``on_grid(t_grid, u_list)`` returns the evaluations row-major in t:
:class:`OdeFlowSource` or :class:`ClosedFlowSource`.  A single (t, u) is the
one-cell grid ``on_grid([t], [u])[0][0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Q_ZERO_EPS, Dims, Tolerances, as_point, half_space_bounds, outside_half_space

__all__ = [
    "FlowEvaluation",
    "FlowIntegrationError",
    "FlowGrid",
    "ode_flow",
    "flow_on_grid",
    "matrix_exp",
    "OdeFlowSource",
    "ClosedFlowSource",
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
# The weights are stored complex so that their products with the complex
# stages run on numpy's complex loop without a cast; their values are real.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_A_ROWS = tuple(np.array(row, dtype=np.complex128) for row in _DP_A)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
                  dtype=np.complex128)
_DP_ERR = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40],
    dtype=np.complex128,
)

_MAX_STEPS = 200_000  # step attempts per _dp45 call before the call fails


def _dp45(rhs, y0, checkpoints, rtol, atol, guard):
    """Integrate the lanes of y' = rhs(s, y) from s=0 over the ascending ``checkpoints``.

    ``y0`` is (L, n): L independent systems (lanes) that share one step-size
    sequence.  Each step is sized by the worst lane's scaled RMS error, so
    every lane meets ``rtol``/``atol``.  The active states are stored flat,
    (k*n,), and the stages as (7, k*n), so each stage combination is one
    matmul.  ``rhs(s, y, out)`` writes the derivatives of the (k, n) states
    ``y`` into ``out``; ``guard(s, y)`` takes the (k, n) states after an
    accepted step and returns ``None`` or the (k,) mask of lanes that left
    the domain; an exited lane never holds up the others.

    Returns ``records``, (len(checkpoints), L, n), NaN where a lane exited
    before a checkpoint.  A failed lane fails the call: a non-finite
    derivative, a step underflow, an exhausted step budget or a generator
    output of the wrong shape raises :class:`FlowIntegrationError` naming the
    lane's u index, its index in ``y0``.
    """
    n_lanes, n = y0.shape
    records = np.full((len(checkpoints), n_lanes, n), np.nan, dtype=np.complex128)
    lanes = np.arange(n_lanes)  # original index of each active lane
    y = y0.reshape(-1)
    f = np.empty_like(y)
    k = np.empty((7, y.size), dtype=np.complex128)
    s = 0.0
    targets = list(checkpoints)
    t_end = targets[-1]
    ti = 0
    while ti < len(targets) and targets[ti] <= s:
        records[ti] = y0
        ti += 1
    if ti == len(targets) or not n_lanes:
        return records
    lane_sq = None  # per-lane squared scaled error of the last attempted step

    def drop(out):
        """Take the active lanes flagged in ``out`` (they exited) out of the solve."""
        nonlocal lanes, y, f, k, lane_sq
        keep = ~out
        lanes, lane_sq = lanes[keep], lane_sq[keep]
        y = y.reshape(-1, n)[keep].ravel()
        f = f.reshape(-1, n)[keep].ravel()
        k = np.empty((7, y.size), dtype=np.complex128)

    def fail(message, bad=None):
        """Raise for active lane ``bad``, by default the one whose error sized the last step."""
        if bad is None:
            bad = 0 if lane_sq is None else int(np.argmax(lane_sq))
        raise FlowIntegrationError(f"u index {lanes[bad]}: {message}", s) from None

    try:
        rhs(s, y.reshape(-1, n), f.reshape(-1, n))
    except FlowIntegrationError as exc:  # a wrong output shape fails every lane
        fail(str(exc), 0)
    if not np.isfinite(f).all():
        fail("generator returned a non-finite value", int(np.argmin(np.isfinite(f))) // n)
    h = _initial_step(y, f, n, rtol, atol, t_end)
    err_prev = 1.0
    for _ in range(_MAX_STEPS):
        clipped = s + h >= targets[ti] - 1e-14 * max(1.0, targets[ti])
        h_step = targets[ti] - s if clipped else h
        if h_step <= 1e-14 * max(1.0, s):
            fail("step size underflow: system too stiff for the error contract")

        hc = np.array(complex(h_step))
        k[0] = f
        try:
            for i in range(1, 7):
                rhs(s + _DP_C[i] * h_step, (y + hc * (_DP_A_ROWS[i] @ k[:i])).reshape(-1, n),
                    k[i].reshape(-1, n))
        except FlowIntegrationError as exc:
            fail(str(exc), 0)
        if not np.isfinite(k).all():
            fail("generator returned a non-finite value",
                 int(np.argmin(np.isfinite(k).all(axis=0))) // n)
        y_new = y + hc * (_DP_B5 @ k)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        lane_sq = ((np.abs(hc * (_DP_ERR @ k)) / sc) ** 2).reshape(-1, n).sum(axis=1)
        err = math.sqrt(float(lane_sq.max()) / n)

        if err <= 1.0:
            s = s + h_step
            y = y_new
            f = k[6]  # FSAL
            exited = guard(s, y.reshape(-1, n))
            if exited is not None:
                drop(exited)
                if not lanes.size:
                    return records
            while ti < len(targets) and s >= targets[ti] - 1e-14 * max(1.0, targets[ti]):
                records[ti, lanes] = y.reshape(-1, n)
                ti += 1
            if ti >= len(targets):
                return records
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
    fail("integration exceeded the step budget")


def _initial_step(y, f, n, rtol, atol, span):
    """Smallest of the per-lane starting-step proposals over the remaining ``span``.

    A lane proposes 0.01 times the ratio of its scaled state and derivative
    norms; a lane whose state or derivative vanishes proposes nothing, and
    with no proposal at all the step is 1e-6 of the span (at least of 1).
    """
    abs_y = np.abs(y)
    sc = atol + rtol * abs_y
    sq0 = ((abs_y / sc) ** 2).reshape(-1, n).sum(axis=1)
    sq1 = ((np.abs(f) / sc) ** 2).reshape(-1, n).sum(axis=1)
    ok = (sq0 > 0) & (sq1 > 0)
    h = 0.01 * math.sqrt(float((sq0[ok] / sq1[ok]).min())) if ok.any() else 1e-6 * max(span, 1.0)
    return max(min(h, span), 1e-12 * max(span, 1.0))


def _make_rhs(gen, dims: Dims):
    """The Riccati right-hand side on (k, d+1) lane states: R(psi), then F(psi)."""
    d = dims.d

    def rhs(s, y, out):
        psi = y[:, :d]
        r_val = gen.R(psi)
        f_val = gen.F(psi)
        try:
            out[:, :d] = r_val
            out[:, d] = f_val
        except ValueError:
            raise FlowIntegrationError(
                f"generator returned R of shape {np.shape(r_val)} and F of shape "
                f"{np.shape(f_val)}, expected ({len(y)}, {d}) and ({len(y)},)") from None

    return rhs


def _make_guard(dims: Dims):
    """Mask of the lanes whose scalar factor vanished or whose psi left the half-space."""
    # Bounds on the real parts of (psi, log phi): the half-space's on psi,
    # log phi above the vanishing floor.
    lo, hi = half_space_bounds(dims)
    lo = np.concatenate((lo, [math.log(Q_ZERO_EPS)]))
    hi = np.concatenate((hi, [np.inf]))

    def guard(s, y):
        re = y.real
        out = (re > hi) | (re < lo)
        return out.any(axis=1) if out.any() else None

    return guard


def _flow_lanes(gen, dims: Dims, points: list, times: list, tol: Tolerances):
    """Integrate the L arguments ``points`` through the ascending, nonnegative ``times``.

    Returns :func:`_dp45`'s ``records``; a record holds psi followed by log phi.
    """
    y0 = np.zeros((len(points), dims.d + 1), dtype=np.complex128)
    if points:  # an empty list does not broadcast into the (0, d) block
        y0[:, : dims.d] = points
    # A lane that goes non-finite fails the call with its u index, so numpy's
    # warnings about its values would only repeat that.
    with np.errstate(invalid="ignore", over="ignore"):
        return _dp45(_make_rhs(gen, dims), y0, times, tol.ode_rel, tol.ode_abs,
                     _make_guard(dims))


def _evaluation(t: float, u_arr: np.ndarray, state: np.ndarray, dims: Dims) -> FlowEvaluation:
    """The cell at (t, u) from its record; a lane that exited before t is ``in_Q=False`` at t."""
    if t == 0:
        return FlowEvaluation(0.0, u_arr, 1 + 0j, u_arr.copy(), 0j)
    log_phi = complex(state[dims.d])
    if math.isnan(log_phi.real):
        nan_psi = np.full(dims.d, np.nan + 0j)
        return FlowEvaluation(t, u_arr, np.nan + 0j, nan_psi, np.nan + 0j, in_Q=False)
    return FlowEvaluation(t, u_arr, complex(np.exp(log_phi)), state[: dims.d].copy(), log_phi)


def ode_flow(gen, dims: Dims, t: float, u, tol: Tolerances = Tolerances()) -> FlowEvaluation:
    """Evaluate the transform pair at a single (t, u) by Riccati integration.

    The one-cell case of :func:`flow_on_grid`, read through
    :meth:`OdeFlowSource.on_grid`: the same validation, a numerical failure
    raises :class:`FlowIntegrationError`, and a domain exit before t is the
    evaluation at t with ``in_Q=False``.
    """
    return OdeFlowSource(gen, dims, tol).on_grid([t], [u])[0][0]


@dataclass
class FlowGrid:
    """Dense flow evaluations on a (t, u) product grid, row-major in t.

    ``evals[i][j]`` is the evaluation at ``(t_grid[i], u_grid[j])``.  A failed
    lane fails the whole call, so ``errors`` is always empty; it stays because
    the benchmark tracer reads it.
    """

    t_grid: np.ndarray
    u_grid: list
    evals: list
    errors: list = field(default_factory=list)

    def column(self, j: int) -> list:
        return [row[j] for row in self.evals]


def flow_on_grid(gen, dims: Dims, t_grid, u_grid, tol: Tolerances = Tolerances()) -> FlowGrid:
    """Evaluate the flow on a product grid in one integration over all u columns.

    Every u column is a lane of one Dormand-Prince solve through the sorted
    t checkpoints.  A column that exits the domain drops out without holding
    up the others; its cells from the exit on are ``in_Q=False`` at their own
    t.  A failed column fails the call (:class:`FlowIntegrationError` naming
    its u index).  Results agree with one-column calls within tolerance.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    times = ts.tolist()
    # Python comparisons: cheaper than np.diff on the one-cell grids of the p/q recursion
    if times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("t_grid must be strictly increasing and nonnegative")
    points = [as_point(u, dims) for u in u_grid]
    outside = outside_half_space(np.array(points).reshape(-1, dims.d), dims)
    if outside.any():
        j, c = np.argwhere(outside)[0]
        raise ValueError(f"u_grid[{j}] lies outside the admissible half-space (component {c})")

    states = _flow_lanes(gen, dims, points, times, tol)
    rows = [[_evaluation(t, u_arr, states[i, j], dims) for j, u_arr in enumerate(points)]
            for i, t in enumerate(times)]
    return FlowGrid(ts, points, rows)


# Padé [13/13] coefficients b_0..b_13 and the largest 1-norm at which the
# unscaled approximant meets double precision (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def matrix_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t*a) for a square real or complex matrix.

    Scaling and squaring with the Padé [13/13] approximant (Higham, "The
    scaling and squaring method for the matrix exponential revisited", SIAM J.
    Matrix Anal. Appl. 26(4), 2005): scale t*a by 2^-s into 1-norm theta_13,
    solve the approximant, square s times.  Diagonal input (the zero matrix,
    every 1x1 matrix) is exact: ``np.exp`` of the diagonal.  The 0x0 case is
    the empty matrix; a non-finite ``t`` or ``t*a`` raises ValueError.
    """
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix_exp needs a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        return np.zeros_like(arr)
    if not np.isfinite(t):
        raise ValueError(f"matrix_exp needs a finite t, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        ta = t * arr
    if not np.all(np.isfinite(ta)):
        raise ValueError("matrix_exp needs finite entries of t*a")
    diag = np.diagonal(ta)
    if not np.any(ta - np.diag(diag)):
        return np.diag(np.exp(diag))
    s = max(0, math.ceil(math.log2(np.linalg.norm(ta, 1) / _THETA13)))
    x = ta * 0.5**s
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    b = _PADE13
    ident = np.eye(len(x))
    odd = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
               + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    even = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
            + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    result = np.linalg.solve(even - odd, even + odd)
    for _ in range(s):
        result = result @ result
    return result


class OdeFlowSource:
    """Flow source backed by the adaptive Riccati integrator."""

    def __init__(self, gen, dims: Dims, tol: Tolerances = Tolerances()):
        self.gen = gen
        self.dims = dims
        self.tol = tol

    def on_grid(self, t_grid, u_list) -> list:
        return flow_on_grid(self.gen, self.dims, t_grid, u_list, self.tol).evals


class ClosedFlowSource:
    """Flow source wrapping a closed-form evaluation function (t, u) -> FlowEvaluation."""

    def __init__(self, fn: Callable[[float, np.ndarray], FlowEvaluation]):
        self.fn = fn

    def on_grid(self, t_grid, u_list) -> list:
        return [[self.fn(float(t), u) for u in u_list] for t in t_grid]


def flow_source_for(model, tol: Tolerances = Tolerances(), prefer_closed: bool = False):
    """Build the natural flow source for a model (closed form only on request)."""
    if prefer_closed and model.closed_flow is not None:
        return ClosedFlowSource(model.closed_flow)
    if model.gen is None:
        raise ValueError(f"model {model.name!r} carries no generator pair")
    return OdeFlowSource(model.gen, model.dims, tol)
