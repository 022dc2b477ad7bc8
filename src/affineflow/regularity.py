"""Time-derivative extraction at t=0 and smoothness checks of the flow.

The derivative pair (scalar-factor rate, fiber-map rate) at t=0 is what the
generator supplies; recovering it from the flow alone — by one-sided finite
differences, since t=0 is a boundary — and matching it against the generator
closes the loop numerically.  The integral form of the Riccati system and
finite-difference u-derivatives on the open half-space round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dims, as_point, in_domain_interior
from .empirical import SampledFlowSource
from .verify import CheckReport, _scored_report

__all__ = [
    "DerivativeEstimate",
    "FRExtrapolationError",
    "estimate_FR",
    "estimate_FR_from_samples",
    "riccati_consistency",
    "u_jacobian",
]


class FRExtrapolationError(RuntimeError):
    """Raised when the Richardson tableau stops converging."""


@dataclass(frozen=True)
class DerivativeEstimate:
    """Extrapolated t=0 derivatives of the transform pair at one argument.

    ``error_estimate`` is the last extrapolation increment — the observed
    change from adding the finest step — and bounds the remaining truncation
    error for smooth flows; a one-step schedule is the plain forward quotient
    and reads 0.  ``F_stderr`` and ``R_stderr`` are the standard errors of a
    quotient of sampled cells (the cells' stderrs over the step), else None.
    """

    u: np.ndarray
    F_hat: complex
    R_hat: np.ndarray
    step_schedule: np.ndarray
    extrapolation_order: int
    error_estimate: float
    F_stderr: float | None = None
    R_stderr: np.ndarray | None = None

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if not (np.isfinite(self.F_hat.real) and np.isfinite(self.F_hat.imag)
                and np.all(np.isfinite(self.R_hat.view(np.float64)))):
            raise ValueError("derivative estimates must be finite")


def _richardson(rows: np.ndarray, scale: float, rounding: float):
    """Neville tableau for a first-order one-sided difference with step ratio 2.

    ``rows`` holds D(h_i) per schedule entry (coarse to fine), each a flat
    complex vector.  Returns the extrapolant and the sequence of top-row
    increments; increments must decrease strictly until they hit the
    rounding floor, else the sequence is declared non-convergent.  The floor
    is at least ``rounding``, the rounding noise of the finest quotient.
    """
    tableau = [rows]
    while len(tableau[-1]) > 1:
        prev = tableau[-1]
        j = len(tableau)
        fac = 2.0**j
        tableau.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                        for i in range(len(prev) - 1)])
    tops = [level[0] for level in tableau]
    increments = [float(np.max(np.abs(tops[j + 1] - tops[j]))) for j in range(len(tops) - 1)]
    floor = max(1e-13 * max(1.0, scale), rounding)
    for j in range(1, len(increments)):
        if increments[j] >= increments[j - 1] and increments[j] > floor:
            raise FRExtrapolationError(
                f"extrapolation increments stopped decreasing "
                f"({increments[j - 1]:.3e} -> {increments[j]:.3e}); "
                "the flow is not smooth enough at this argument or the steps are too coarse"
            )
    return tops[-1], (increments[-1] if increments else 0.0)


def estimate_FR(source, u, h_schedule=(1e-2, 5e-3, 2.5e-3),
                dims: Dims | None = None) -> DerivativeEstimate:
    """Estimate the t=0 rates of the transform pair by one-sided differences.

    Forward quotients (Phi(h,u) - 1)/h and (psi(h,u) - u)/h over a step-halving
    schedule, Richardson-extrapolated; t=0 being a boundary rules out central
    differences, and a one-step schedule is the plain quotient.  Raises
    :class:`FRExtrapolationError` when the increments do not shrink.  ``dims``
    is accepted for callers that pass it and is not used.  The whole schedule
    is one ``source.on_grid`` call with the steps, ascending, as its t grid,
    so an integrating source steps one solve through all of them.

    Sampled cells (with standard errors, from a :class:`SampledFlowSource`)
    take a one-step schedule only: extrapolating them would need the joint
    covariance of the cells, which per-cell standard errors do not carry.  The
    step trades O(h) truncation bias against an O(1/(h sqrt(n))) noise term;
    a step whose quotient standard error exceeds the estimates themselves is
    refused instead of being silently adjusted.
    """
    hs = np.asarray(sorted(h_schedule, reverse=True), dtype=float)
    if hs.size < 1:
        raise ValueError("need at least one step")
    if np.any(hs <= 0) or np.any(np.abs(hs[:-1] / hs[1:] - 2.0) > 1e-9):
        raise ValueError("step schedule must be positive with ratio 2")
    u_arr = np.asarray(u, dtype=np.complex128)
    # one call: the steps ascend as its t grid, so a solve passes through them all
    cells = [row[0] for row in source.on_grid(hs[::-1].tolist(), [u_arr])][::-1]
    if cells[0].phi_stderr is not None and hs.size > 1:
        raise ValueError(
            "sampled cells take a one-step schedule: extrapolating them needs "
            "the joint covariance of the cells, which their standard errors do not carry"
        )
    rows = []
    for h, ev in zip(hs, cells):
        if not ev.in_Q:
            raise FRExtrapolationError(f"flow left its domain at step h={h}")
        rows.append(np.concatenate([[(ev.phi - 1.0) / h], (ev.psi - u_arr) / h]))
    scale = float(np.max(np.abs(rows[-1])))
    f_se = r_se = None
    if ev.phi_stderr is not None:
        f_se, r_se = float(ev.phi_stderr / h), ev.psi_stderr / h
        noise = max(f_se, float(np.max(r_se, initial=0.0)))
        if noise > max(1.0, scale):
            raise ValueError(
                f"step {h} is below the noise floor of the sampled cells: the quotient "
                f"standard error {noise:.3g} exceeds the estimate scale {max(1.0, scale):.3g}; "
                "increase the step or the path count"
            )
    # (Phi(h) - 1)/h and (psi(h) - u)/h cancel O(max(1, |u|)) terms, so the
    # finest quotient carries rounding noise of about eps * max(1, |u|) / h.
    magnitude = float(np.max(np.abs(u_arr), initial=1.0))
    rounding = 16.0 * np.finfo(float).eps * magnitude / hs[-1]
    ext, err = _richardson(rows, scale, rounding)
    return DerivativeEstimate(
        u=u_arr,
        F_hat=complex(ext[0]),
        R_hat=np.asarray(ext[1:]),
        step_schedule=hs,
        extrapolation_order=hs.size - 1,
        error_estimate=err,
        F_stderr=f_se,
        R_stderr=r_se,
    )


def estimate_FR_from_samples(source, dims: Dims, u, h: float, n_paths: int,
                             seed: int) -> DerivativeEstimate:
    """The one-step :func:`estimate_FR` on the flow recovered from ``n_paths`` per start."""
    return estimate_FR(SampledFlowSource(source, dims, n_paths, seed), u, (h,))


_QUAD_NODES = 12       # Gauss-Legendre nodes per panel in riccati_consistency
_MAX_REFINEMENTS = 8   # panel doublings before riccati_consistency gives up
_FD_STEP = 1e-6        # u_jacobian's central-difference step, before the boundary shrink


def riccati_consistency(source, gen, t: float, u, threshold: float = 1e-8) -> CheckReport:
    """Integral form of the Riccati system along the flow.

    Checks that the generator integrated along the fiber map reproduces the
    flow itself: the integral of R(psi(s,u)) over [0,t] must equal
    psi(t,u) - u, and the integral of F(psi(s,u)) must equal the continuous
    logarithm of the scalar factor.  Composite Gauss-Legendre quadrature is
    refined (panel doubling) until the integrals settle to a tenth of the
    threshold; failure to settle is a quadrature error, not a check failure.
    """
    u_arr = np.asarray(u, dtype=np.complex128)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return CheckReport("riccati_consistency", "t=0, both sides vanish", 0.0, threshold)
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)

    def integrate(n_panels: int):
        edges = np.linspace(0.0, t, n_panels + 1)
        ss, ws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            ss.append(half * nodes + 0.5 * (a + b))
            ws.append(half * weights)
        ss = np.concatenate(ss)
        ws = np.concatenate(ws)
        order = np.argsort(ss)
        evals = source.on_grid(ss[order].tolist(), [u_arr])
        psi_at = np.empty((ss.size, u_arr.size), dtype=np.complex128)
        for rank, idx in enumerate(order):
            psi_at[idx] = evals[rank][0].psi
        r_vals = np.broadcast_to(gen.R(psi_at), psi_at.shape)
        f_vals = np.broadcast_to(gen.F(psi_at), psi_at.shape[:1])
        return ws @ r_vals, complex(ws @ f_vals)

    n_panels = 1
    int_r, int_f = integrate(n_panels)
    for _ in range(_MAX_REFINEMENTS):
        n_panels *= 2
        r_new, f_new = integrate(n_panels)
        delta = max(float(np.max(np.abs(r_new - int_r))), abs(f_new - int_f))
        int_r, int_f = r_new, f_new
        if delta <= 0.1 * threshold:
            break
    else:
        raise RuntimeError(
            f"quadrature did not settle below {0.1 * threshold:.1e} "
            f"after {_MAX_REFINEMENTS} refinements"
        )

    ev = source.on_grid([float(t)], [u_arr])[0][0]
    res_r = float(np.max(np.abs(int_r - (ev.psi - u_arr))))
    res_f = abs(int_f - ev.log_phi)
    return _scored_report(
        "riccati_consistency", f"t={t}, {_QUAD_NODES}-node Gauss-Legendre x {n_panels} panels",
        threshold, [(max(res_r, res_f), {
            "inputs": {"t": t, "u": u_arr},
            "observed": {"fiber_residual": res_r, "scalar_residual": res_f, "panels": n_panels},
            "expected": f"<= {threshold}",
        })])


def u_jacobian(source, dims: Dims, t: float, u) -> np.ndarray:
    """Central-difference derivatives of the transform pair in the cone arguments.

    Returns a (1 + d) x m complex matrix: row 0 holds the scalar-factor
    derivatives, rows 1..d the fiber-map derivatives, one column per cone
    component.  The argument must be strictly interior; steps shrink to half
    the distance to the boundary and underflow raises.
    """
    u_arr = as_point(u, dims)
    if not in_domain_interior(u_arr, dims):
        raise ValueError("u-derivatives need a strictly interior argument")
    out = np.empty((1 + dims.d, dims.m), dtype=np.complex128)
    for col, i in enumerate(range(dims.m)):
        delta = min(_FD_STEP, abs(u_arr[i].real) / 2.0)
        if delta < 1e-12:
            raise ValueError(
                f"finite-difference step underflowed at component {i}: "
                f"argument too close to the boundary (Re u_i = {u_arr[i].real:.3e})"
            )
        e = np.zeros(dims.d, dtype=np.complex128)
        e[i] = delta
        hi = source.on_grid([float(t)], [u_arr + e])[0][0]
        lo = source.on_grid([float(t)], [u_arr - e])[0][0]
        out[0, col] = (hi.phi - lo.phi) / (2 * delta)
        out[1:, col] = (hi.psi - lo.psi) / (2 * delta)
    return out
