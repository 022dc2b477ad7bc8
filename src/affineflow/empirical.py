"""Empirical transform estimation from simulated paths.

Estimates the exponential transform from Monte Carlo samples, recovers the
scalar-factor/fiber-map pair from states started at probe points, and runs
the sample-based structural tests (affinity of the log-transform in the start
state, and invariance of the free components), each drawing from a state
source: a model, or any callable with a model's call signature.  Statistical
reports measure violations in units of the propagated standard error with a
3-sigma default threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dims, as_state
from .flow import FlowEvaluation
from .models import AffineModel, _sub_seeds
from .verify import CheckReport, _scored_report, _z_score

__all__ = [
    "EcfEstimate",
    "BranchContinuityError",
    "ecf_from_states",
    "endpoint_states",
    "affine_factorization_test",
    "recover_phi_psi",
    "SampledFlowSource",
    "semihomogeneity_test",
]

STAT_SIGMA = 3.0


class BranchContinuityError(RuntimeError):
    """Raised when the phase of the empirical transform cannot be tracked in t."""


@dataclass(frozen=True)
class EcfEstimate:
    """Monte Carlo estimate of the exponential transform at one (t, u).

    ``stderr`` is the scalar standard error of the complex mean,
    sqrt(sum |z_i - mean|^2 / (n-1)) / sqrt(n).  For admissible arguments the
    summands have modulus at most one, so the estimate obeys |value| <= 1 up
    to rounding; construction enforces it with three-sigma slack.
    """

    t: float
    u: np.ndarray
    value: complex
    stderr: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("an estimate needs at least one sample")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if abs(self.value) > 1.0 + 3.0 * self.stderr + 1e-12:
            raise ValueError(
                f"|estimate| = {abs(self.value):.6f} exceeds 1 beyond statistical slack; "
                "the transform argument is likely inadmissible"
            )


def ecf_from_states(states: np.ndarray, u, t: float = 0.0) -> EcfEstimate:
    """Average the exponential functional over rows of a state array."""
    x = np.asarray(states, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"states must be (n, d), got shape {x.shape}")
    u_arr = np.asarray(u, dtype=np.complex128)
    z = np.exp(x @ u_arr)
    mean = complex(np.mean(z))
    n = x.shape[0]
    stderr = 0.0 if n == 1 else float(
        np.sqrt(np.sum(np.abs(z - mean) ** 2) / (n - 1)) / math.sqrt(n)
    )
    return EcfEstimate(float(t), u_arr, mean, stderr, n)


def endpoint_states(model: AffineModel, x0, t: float, n_paths: int, seed: int) -> np.ndarray:
    """States at a single horizon, shape (n_paths, d); t=0 is the start replicated."""
    if t < 0:
        raise ValueError("the horizon must be nonnegative")
    if t == 0:
        return np.tile(as_state(x0, model.dims), (n_paths, 1))
    values = model(x0, np.array([0.0, float(t)]), n_paths, seed)
    return values[:, -1, :]


def affine_factorization_test(source, dims: Dims, t: float, u_list, x_base, x_probe_a,
                              x_probe_b, n_paths: int, seed: int,
                              threshold: float = STAT_SIGMA) -> CheckReport:
    """Parallelogram test of log-affinity of the transform in the start state.

    If the transform is exponentially affine, g(x) = E_x[exp <u, X_t>] obeys
    g(x_a) g(x_b) = g(x_base) g(x_a + x_b - x_base) for any admissible
    parallelogram of starts.  Each corner uses an independent path set; the
    defect is normalized by its delta-method standard error, so the violation
    is a z-score.
    """
    x0 = np.asarray(x_base, dtype=float)
    xa = np.asarray(x_probe_a, dtype=float)
    xb = np.asarray(x_probe_b, dtype=float)
    xc = xa + xb - x0
    if dims.m and np.min(xc[dims.I]) < 0:
        raise ValueError(f"fourth corner {xc} leaves the state cone; move the probes")
    corners = [x0, xa, xb, xc]
    seeds = _sub_seeds(seed, 4)
    times = np.array([0.0, float(t)])
    states = [source(c, times, n_paths, s)[:, -1, :] for c, s in zip(corners, seeds)]

    scored = []
    for u in u_list:
        g = [ecf_from_states(st, u, t) for st in states]
        defect = g[1].value * g[2].value - g[0].value * g[3].value
        var = (
            (abs(g[2].value) * g[1].stderr) ** 2
            + (abs(g[1].value) * g[2].stderr) ** 2
            + (abs(g[3].value) * g[0].stderr) ** 2
            + (abs(g[0].value) * g[3].stderr) ** 2
        )
        sigma = math.sqrt(var)
        z = _z_score(abs(defect), sigma)
        scored.append((z, {
            "inputs": {"t": t, "u": np.asarray(u), "corners": [c.tolist() for c in corners]},
            "observed": {"defect": defect, "sigma": sigma, "z": z},
            "expected": f"z <= {threshold}",
        }))
    return _scored_report("affine_factorization",
                          f"t={t}, {len(list(u_list))} u points, {n_paths} paths per corner",
                          threshold, scored)


def _log_track(series, u_arr, x0) -> np.ndarray:
    """Branch-continuous log of one start's transform estimates along the grid from t = 0."""
    vals = np.array([e.value for e in series])
    if np.any(vals == 0):
        raise BranchContinuityError("empirical transform hit zero; cannot take its log")
    phases = np.unwrap(np.angle(vals))
    turns = round((float(np.imag(u_arr @ x0)) - phases[0]) / (2 * math.pi))
    if turns:  # shifting by zero could flip the sign of a zero phase
        phases = phases + 2 * math.pi * turns
    jumps = np.abs(np.diff(phases))
    if jumps.size and np.max(jumps) > 0.5 * math.pi:
        raise BranchContinuityError(
            f"phase jump of {np.max(jumps):.3f} rad between grid times; refine the grid"
        )
    return np.log(np.abs(vals)) + 1j * phases


def _start_logs(source, dims: Dims, ts: np.ndarray, u_arrs: list, n_paths: int, seed: int,
                starts, base=None) -> tuple[list, list, np.ndarray | None]:
    """Transform estimates and their branch-continuous logs at the starts ``starts``.

    Start 0 is ``base`` (the origin by default) and start 1 + k is ``base``
    plus the k-th coordinate unit vector.  Start j draws one path set for
    every t of ``ts`` (which begins at 0) and every u, from seed
    ``_sub_seeds(seed, 1 + d)[j]`` whichever other starts are drawn, so a
    start's numbers do not depend on which others are.  Returns
    ``estimates[u][s][i]`` (:class:`EcfEstimate` at ``ts[i]``),
    ``logs[u][s]`` (:func:`_log_track`), s running over ``starts`` in order,
    and the base start's states at ``ts[-1]`` (None if start 0 is not drawn).
    """
    x_base = np.zeros(dims.d) if base is None else np.asarray(base, dtype=float)
    points = [x_base, *(x_base + e for e in np.eye(dims.d))]
    seeds = _sub_seeds(seed, len(points))
    by_u = [[] for _ in u_arrs]
    base_end = None
    for j in starts:
        values = source(points[j], ts, n_paths, seeds[j])
        if j == 0:
            base_end = values[:, -1, :]
        for estimates, u_arr in zip(by_u, u_arrs):
            estimates.append([ecf_from_states(values[:, i, :], u_arr, t) for i, t in enumerate(ts)])
    logs = [[_log_track(series, u_arr, points[j]) for series, j in zip(estimates, starts)]
            for u_arr, estimates in zip(u_arrs, by_u)]
    return by_u, logs, base_end


def _log_quotients(estimates, logs, i: int) -> tuple[np.ndarray, np.ndarray]:
    """log g(x_s) - log g(x_0) at ``ts[i]`` for each start s after the base, and its stderr.

    ``estimates`` and ``logs`` are one u's from :func:`_start_logs`; the stderr
    is sqrt(rel_0^2 + rel_s^2) from the two estimates' relative errors.
    """
    rel = [series[i].stderr / abs(series[i].value) for series in estimates]
    psi = np.array([lg[i] - logs[0][i] for lg in logs[1:]])
    return psi, np.array([math.sqrt(rel[0]**2 + r**2) for r in rel[1:]])


def recover_phi_psi(source, dims: Dims, t_grid, u_list, n_paths: int, seed: int) -> list:
    """Recover the transform pair on a (t, u) grid from simulated samples, row-major in t.

    Starts paths at the origin and at each coordinate unit vector, each
    start's paths drawn once for every t and u; because the log-transform is
    affine in the start, the difference quotient recovers each fiber-map
    component without discretization bias, and the origin start gives the
    scalar factor directly.  The log phase is unwrapped along the grid from
    t = 0, where the transform is known exactly: each start's phase is
    anchored there at ``Im <u, x_start>``, not at its principal value.  A
    grid without a leading 0 is drawn with one and its 0 row is dropped.  A
    post-unwrap jump above pi/2 means the grid is too coarse to track the
    branch and raises :class:`BranchContinuityError`.  Entries where the
    scalar factor is indistinguishable from zero (below five standard errors)
    are marked ``in_Q=False``.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or ts[0] < 0.0 or np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be strictly increasing and nonnegative")
    anchored = ts[0] == 0.0
    if not anchored:
        ts = np.concatenate(([0.0], ts))
    u_arrs = [np.asarray(u, dtype=np.complex128) for u in u_list]
    by_u, logs_by_u, _ = _start_logs(source, dims, ts, u_arrs, n_paths, seed, range(1 + dims.d))

    rows = [[] for _ in ts]
    for u_arr, estimates, logs in zip(u_arrs, by_u, logs_by_u):
        for i, t in enumerate(ts):
            g0 = estimates[0][i]
            psi, psi_stderr = _log_quotients(estimates, logs, i)
            in_q = abs(g0.value) >= 5.0 * g0.stderr
            rows[i].append(FlowEvaluation(
                float(t), u_arr, g0.value, psi, complex(logs[0][i]), in_Q=in_q,
                phi_stderr=g0.stderr, psi_stderr=psi_stderr,
            ))
    return rows if anchored else rows[1:]


class SampledFlowSource:
    """Flow source recovering the transform pair from simulated paths.

    ``on_grid`` is :func:`recover_phi_psi` on its state source; its cells
    carry ``phi_stderr`` and ``psi_stderr``.
    """

    def __init__(self, source, dims: Dims, n_paths: int, seed: int):
        self.source = source
        self.dims = dims
        self.n_paths = n_paths
        self.seed = seed

    def on_grid(self, t_grid, u_list) -> list:
        return recover_phi_psi(self.source, self.dims, t_grid, u_list, self.n_paths, self.seed)


def semihomogeneity_test(source, dims: Dims, t: float, u, n_paths: int, seed: int,
                         threshold: float = STAT_SIGMA) -> CheckReport:
    """Sample-based test that the free components of the fiber map are unmoved.

    Recovers the free fiber-map components from difference quotients of the
    empirical log-transform and scores their defect from the input argument in
    standard errors.  Passing means the dynamics are consistent with a flow
    that leaves free arguments fixed (zero free drift); a confident failure
    means the free components genuinely rotate or contract.  Only the starts
    it scores are drawn, the origin and the n free unit vectors, each with
    the path set :func:`recover_phi_psi` draws for it, so every number
    equals that function's free components at ``t``.
    """
    if dims.n == 0:  # nothing to score, and nothing is drawn
        return _vacuous_semihomogeneity(threshold)
    return _semihomogeneity(source, dims, t, u, n_paths, seed, threshold)[0]


def _vacuous_semihomogeneity(threshold: float) -> CheckReport:
    return CheckReport("semihomogeneity", "no free components (n=0), vacuous", 0.0, threshold)


def _semihomogeneity(source, dims: Dims, t: float, u, n_paths: int, seed: int,
                     threshold: float, base=None) -> tuple[CheckReport, np.ndarray]:
    """:func:`semihomogeneity_test` on starts shifted by ``base``, and the base start's states at t.

    The log-transform is affine in the start, so the quotient
    log g(base + e_k) - log g(base) is psi_k from any base in the state
    space.  The base start is drawn even when n = 0, where the report is
    vacuous, so a caller can read its states.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    u_arr = np.asarray(u, dtype=np.complex128)
    free = range(dims.m, dims.d)
    u_arrs = [u_arr] if dims.n else []  # at n = 0 only the base is drawn
    by_u, logs_by_u, base_end = _start_logs(source, dims, np.array([0.0, float(t)]), u_arrs,
                                            n_paths, seed, [0, *(1 + k for k in free)], base)
    if not dims.n:
        return _vacuous_semihomogeneity(threshold), base_end
    psi, psi_stderr = _log_quotients(by_u[0], logs_by_u[0], -1)
    scored = []
    for s, k in enumerate(free):
        defect = abs(psi[s] - u_arr[k])
        scored.append((_z_score(defect, psi_stderr[s]), {
            "inputs": {"t": float(t), "u": u_arr, "component": k},
            "observed": {"psi_k": psi[s], "defect": defect, "stderr": psi_stderr[s]},
            "expected": f"psi_k == u_k within {threshold} sigma",
        }))
    report = _scored_report("semihomogeneity",
                            f"t={t}, {n_paths} paths per start, probe scale 1.0",
                            threshold, scored)
    return report, base_end
