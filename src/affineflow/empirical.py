"""Empirical transform estimation from simulated paths.

Estimates the exponential transform from Monte Carlo samples, recovers the
scalar-factor/fiber-map pair from states started at probe points, and runs
the sample-based structural tests (affinity of the log-transform in the start
state, and invariance of the free components).  Statistical reports measure
violations in units of the propagated standard error with a 3-sigma default
threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Dims, as_state
from .flow import FlowEvaluation
from .models import AffineModel, _sub_seeds, sample_grid
from .verify import CheckReport, _scored_report, _z_score

__all__ = [
    "EcfEstimate",
    "BranchContinuityError",
    "ecf_from_states",
    "endpoint_states",
    "affine_factorization_test",
    "recover_phi_psi",
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
    values = sample_grid(model, x0, np.array([0.0, float(t)]), n_paths, seed)
    return values[:, -1, :]


def _as_state_source(source):
    """A model or a state source as a ``(x0, record_times, n_paths, seed) -> values`` callable."""
    if isinstance(source, AffineModel):
        return functools.partial(sample_grid, source)
    if callable(source):
        return source
    raise TypeError(f"cannot interpret {source!r} as a model or state source")


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
    src = _as_state_source(source)
    x0 = np.asarray(x_base, dtype=float)
    xa = np.asarray(x_probe_a, dtype=float)
    xb = np.asarray(x_probe_b, dtype=float)
    xc = xa + xb - x0
    if dims.m and np.min(xc[dims.I]) < 0:
        raise ValueError(f"fourth corner {xc} leaves the state cone; move the probes")
    corners = [x0, xa, xb, xc]
    seeds = _sub_seeds(seed, 4)
    times = np.array([0.0, float(t)])
    states = [src(c, times, n_paths, s)[:, -1, :] for c, s in zip(corners, seeds)]

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


def recover_phi_psi(source, dims: Dims, t_grid, u, n_paths: int, seed: int) -> list[FlowEvaluation]:
    """Recover the transform pair on a time grid from simulated samples.

    Starts paths at the origin and at each coordinate unit vector; because
    the log-transform is affine in the start, the difference quotient
    recovers each fiber-map component without discretization bias, and the
    origin start gives the scalar factor directly.  The log phase is
    unwrapped along the grid, which must begin at 0, where the transform is
    known exactly: each start's phase is anchored there at ``Im <u, x_start>``,
    not at its principal value.  A post-unwrap jump above pi/2 means the grid
    is too coarse to track the branch and raises :class:`BranchContinuityError`.
    Entries where the scalar factor is indistinguishable from zero (below
    five standard errors) are marked ``in_Q=False``.
    """
    src = _as_state_source(source)
    u_arr = np.asarray(u, dtype=np.complex128)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be increasing and start at 0 to anchor the branch")

    starts = [np.zeros(dims.d), *np.eye(dims.d)]
    seeds = _sub_seeds(seed, len(starts))
    estimates = []  # [start][time] -> EcfEstimate
    for x0, s in zip(starts, seeds):
        values = src(x0, ts, n_paths, s)
        estimates.append([ecf_from_states(values[:, i, :], u_arr, t) for i, t in enumerate(ts)])

    def _log_track(series, x0):
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

    logs = [_log_track(series, x0) for series, x0 in zip(estimates, starts)]
    out = []
    for i, t in enumerate(ts):
        g0 = estimates[0][i]
        log_phi = complex(logs[0][i])
        psi = np.array([logs[1 + k][i] - logs[0][i] for k in range(dims.d)])
        rel0 = g0.stderr / abs(g0.value)
        psi_stderr = np.array([
            math.sqrt(rel0**2 + (estimates[1 + k][i].stderr / abs(estimates[1 + k][i].value)) ** 2)
            for k in range(dims.d)
        ])
        in_q = abs(g0.value) >= 5.0 * g0.stderr
        out.append(FlowEvaluation(
            float(t), u_arr, g0.value, psi, log_phi, in_Q=in_q,
            phi_stderr=g0.stderr, psi_stderr=psi_stderr,
        ))
    return out


def semihomogeneity_test(source, dims: Dims, t: float, u, n_paths: int, seed: int,
                         threshold: float = STAT_SIGMA) -> CheckReport:
    """Sample-based test that the free components of the fiber map are unmoved.

    Recovers the free fiber-map components from difference quotients of the
    empirical log-transform and scores their defect from the input argument in
    standard errors.  Passing means the dynamics are consistent with a flow
    that leaves free arguments fixed (zero free drift); a confident failure
    means the free components genuinely rotate or contract.
    """
    if dims.n == 0:
        return CheckReport("semihomogeneity", "no free components (n=0), vacuous", 0.0, threshold)
    evals = recover_phi_psi(source, dims, [0.0, float(t)], u, n_paths, seed)
    ev = evals[-1]
    u_arr = ev.u
    scored = []
    for k in range(dims.m, dims.d):
        defect = abs(ev.psi[k] - u_arr[k])
        scored.append((_z_score(defect, ev.psi_stderr[k]), {
            "inputs": {"t": float(t), "u": u_arr, "component": k},
            "observed": {"psi_k": ev.psi[k], "defect": defect, "stderr": ev.psi_stderr[k]},
            "expected": f"psi_k == u_k within {threshold} sigma",
        }))
    return _scored_report("semihomogeneity", f"t={t}, {n_paths} paths per start, probe scale 1.0",
                          threshold, scored)

