"""Structural checks on transform flows.

Every check returns a :class:`CheckReport` with a scalar violation measure and
a pinned threshold; statistical checks report the violation in units of the
propagated standard error.  Witnesses record the worst offending probes so a
failure can be replayed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import REGION_EPS, Dims, in_domain_interior
from .flow import matrix_exp

__all__ = [
    "CheckReport",
    "LinearFitResult",
    "TestFunction",
    "check_semiflow",
    "check_monotonicity",
    "check_property_A",
    "extract_beta",
    "fit_linearity",
    "posdef_points",
    "posdef_certificate",
    "feller_decay",
    "sample_interior_points",
    "sample_imaginary_points",
    "report_to_json",
]


@dataclass
class CheckReport:
    """Outcome of one verification check.

    ``passed`` is always ``max_violation <= threshold``; witnesses are
    (inputs, observed, expected) triples.  Checks build their reports with
    :func:`_scored_report`, so a failure always carries a witness: the probe
    whose score is the violation is above the threshold.
    """

    check_name: str
    grid_spec: str
    max_violation: float
    threshold: float
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.max_violation <= self.threshold)

    def require(self) -> "CheckReport":
        if not self.passed:
            raise AssertionError(
                f"check {self.check_name} failed: violation {self.max_violation:.3e} "
                f"> threshold {self.threshold:.3e}; witnesses {self.witnesses[:3]}"
            )
        return self


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()] if obj.dtype.kind == "c" else obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def report_to_json(report: CheckReport) -> str:
    payload = {
        "check_name": report.check_name,
        "passed": report.passed,
        "max_violation": report.max_violation,
        "threshold": report.threshold,
        "grid_spec": report.grid_spec,
        "witnesses": _jsonable(report.witnesses),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _scored_report(name: str, grid_spec: str, threshold: float, scored) -> CheckReport:
    """The report of a check from one ``(violation, witness)`` pair per probe.

    A NaN violation counts as inf, and no probe at all scores 0.  The
    report's violation is the worst score; its witnesses are those of the
    five worst scores above ``threshold``, worst first (ties in probe order).
    """
    scored = [(math.inf if math.isnan(v) else v, w) for v, w in scored]
    failing = sorted((e for e in scored if e[0] > threshold), key=lambda e: -e[0])
    return CheckReport(name, grid_spec, max((v for v, _ in scored), default=0.0), threshold,
                       [w for _, w in failing[:5]])


def _z_score(gap: float, stderr: float) -> float:
    """``gap`` in standard errors; at zero stderr, 0 for no gap and inf otherwise."""
    return gap / stderr if stderr > 0 else (0.0 if gap == 0 else math.inf)


# ----------------------------------------------------------------------------
# probe construction


def sample_interior_points(dims: Dims, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random transform arguments strictly inside the half-space.

    Cone components have real part in (-2, -0.05); every imaginary part is in (-2, 2).
    """
    out = []
    for _ in range(count):
        u = np.zeros(dims.d, dtype=np.complex128)
        if dims.m:
            u[dims.I] = rng.uniform(-2.0, -0.05, dims.m) + 1j * rng.uniform(-2.0, 2.0, dims.m)
        if dims.n:
            u[dims.J] = 1j * rng.uniform(-2.0, 2.0, dims.n)
        out.append(u)
    return out


def sample_imaginary_points(dims: Dims, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random purely imaginary transform arguments, imaginary parts in (-2, 2)."""
    return [1j * rng.uniform(-2.0, 2.0, dims.d) + 0j for _ in range(count)]


# ----------------------------------------------------------------------------
# flow-identity checks


def check_semiflow(source, t_grid, s_grid, u_set, threshold: float = 1e-8) -> CheckReport:
    """Composition identity of the transform pair over a (t, s, u) grid.

    Both composition orders are exercised: evolving by t then s must match the
    direct evaluation at t+s in the scalar factor and the fiber map, and
    symmetrically with the roles of t and s swapped.
    """
    ts = sorted({float(t) for t in t_grid})
    ss = sorted({float(s) for s in s_grid})
    u_set = list(u_set)
    sums = sorted({t + s for t in ts for s in ss})
    base_times = sorted(set(ts) | set(ss) | set(sums))
    inner_times = sorted(set(ts) | set(ss))
    base = source.on_grid(base_times, u_set)
    columns = [{t: row[j] for t, row in zip(base_times, base)} for j in range(len(u_set))]
    # one inner call: u j's lanes start at j * width, lane a at psi(t_a, u),
    # lane len(ts) + b at psi(s_b, u)
    width = len(ts) + len(ss)
    starts = [column[r].psi for column in columns for r in (*ts, *ss)]
    inner = dict(zip(inner_times, source.on_grid(inner_times, starts)))
    scored = []
    for j, (u, column) in enumerate(zip(u_set, columns)):
        for i_t, t in enumerate(ts):
            for i_s, s in enumerate(ss):
                direct = column[t + s]
                stepped = inner[s][j * width + i_t]
                v_phi = abs(direct.phi - column[t].phi * stepped.phi)
                v_psi = float(np.max(np.abs(direct.psi - stepped.psi)))
                mirrored = inner[t][j * width + len(ts) + i_s]
                v_phi_m = abs(direct.phi - column[s].phi * mirrored.phi)
                v_psi_m = float(np.max(np.abs(direct.psi - mirrored.psi)))
                scored.append((max(v_phi, v_psi, v_phi_m, v_psi_m), {
                    "inputs": {"t": t, "s": s, "u": u},
                    "observed": {"phi_gap": v_phi, "psi_gap": v_psi,
                                 "phi_gap_mirrored": v_phi_m, "psi_gap_mirrored": v_psi_m},
                    "expected": f"<= {threshold}",
                }))
    return _scored_report("semiflow", f"t_grid={ts}, s_grid={ss}, {len(u_set)} u points, "
                          "both orders", threshold, scored)


def check_monotonicity(source, t_grid, pairs, threshold: float = 1e-8) -> CheckReport:
    """Domination of the flow by its evaluation at the real upper argument.

    For pairs (u, w) with Re u <= Re w componentwise (both admissible) the
    modulus of the scalar factor at u is bounded by its value at Re w, and the
    real part of the fiber map at u by the fiber map at Re w; the evaluations
    at the real argument must themselves be real, which is asserted as part of
    the same violation measure.
    """
    pairs = [(np.asarray(u, dtype=np.complex128), np.asarray(w, dtype=np.complex128))
             for u, w in pairs]
    for u_arr, w_arr in pairs:
        if np.any(u_arr.real > w_arr.real + 1e-14):
            raise ValueError(f"pair ({u_arr}, {w_arr}) violates Re u <= Re w")
    t_list = [float(t) for t in t_grid]
    times = sorted(set(t_list))
    # lane p is u of pair p, lane len(pairs) + p the real upper argument Re w
    rows = source.on_grid(times, [u for u, _ in pairs] +
                          [w.real.astype(np.complex128) for _, w in pairs])
    scored = []
    for p, (u_arr, w_arr) in enumerate(pairs):
        for t in t_list:
            row = rows[times.index(t)]
            ev_u, ev_w = row[p], row[len(pairs) + p]
            realness = max(abs(ev_w.phi.imag), float(np.max(np.abs(ev_w.psi.imag), initial=0.0)))
            v_phi = abs(ev_u.phi) - ev_w.phi.real
            v_psi = float(np.max(ev_u.psi.real - ev_w.psi.real, initial=-np.inf))
            scored.append((max(v_phi, v_psi, realness), {
                "inputs": {"t": t, "u": u_arr, "w": w_arr},
                "observed": {"phi_excess": v_phi, "psi_excess": v_psi, "imag_leak": realness},
                "expected": f"<= {threshold}",
            }))
    return _scored_report("monotonicity", f"{len(t_list)} times x {len(pairs)} pairs",
                          threshold, scored)


def check_property_A(source, t_grid, u_set, dims: Dims) -> CheckReport:
    """The fiber map keeps strictly interior arguments strictly interior.

    Probes must be strictly interior themselves (boundary probes are
    rejected); the violation is the worst excursion of the cone components'
    real part above ``-REGION_EPS`` over the whole grid.
    """
    for u in u_set:
        if not in_domain_interior(u, dims):
            raise ValueError(f"probe {np.asarray(u)} is not strictly interior")
    scored = []
    times = sorted(float(t) for t in t_grid if t > 0)
    rows = source.on_grid(times, u_set) if times else []
    for j, u in enumerate(u_set):
        for row in rows:
            ev = row[j]
            v = 0.0
            if not ev.in_Q:
                v = math.inf
            else:
                if dims.m:
                    v = max(0.0, float(np.max(ev.psi.real[dims.I])) + REGION_EPS)
                if dims.n:
                    free_leak = float(np.max(np.abs(ev.psi.real[dims.J])))
                    v = max(v, free_leak - REGION_EPS)
            scored.append((v, {
                "inputs": {"t": ev.t, "u": np.asarray(u)},
                "observed": {"re_psi_cone": ev.psi.real[dims.I], "re_psi_free": ev.psi.real[dims.J]},
                "expected": f"cone real parts < -{REGION_EPS}, free real parts within {REGION_EPS}",
            }))
    return _scored_report("property_a", f"{len(list(u_set))} interior points x {len(times)} times",
                          0.0, scored)


# ----------------------------------------------------------------------------
# linear structure on the free components


# extract_beta's rate steps (criterion 4's schedule), its validation times and the
# seed of its validation points
_BETA_H_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)
_BETA_CHECK_TIMES = (0.3, 0.7, 1.4)
_BETA_CHECK_SEED = 1234


def extract_beta(source, dims: Dims, threshold: float = 1e-8) -> tuple[np.ndarray, CheckReport]:
    """Recover the drift matrix of the free components from the flow's rate at t = 0.

    On the free block the fiber map's rate is ``R_J(u) = beta u_J``, so column
    j of beta is the rate :func:`~affineflow.regularity.estimate_FR` extrapolates
    at ``i e_j`` over a five-step schedule, divided by i.  The rate columns'
    imaginary leak is one scored probe, and the error of the exponential action
    at each point of an independent (t, u) validation grid is another.  A flow
    with no rate at 0 (the tableau does not converge, or the flow leaves its
    domain) is not regular there: each such column is an infinite probe whose
    witness carries the estimator's message, and beta is NaN.  For n=0 the
    matrix is empty and the report is vacuously passing.

    The validation error is absolute, so the rate's truncation error, amplified
    by ``exp(t beta)`` up to t = 1.4, fails strongly explosive drifts (max Re of
    an eigenvalue above about 5) at the default threshold.
    """
    # regularity imports this module for CheckReport, so the import is deferred
    from .regularity import FRExtrapolationError, estimate_FR

    n = dims.n
    if n == 0:
        beta = np.zeros((0, 0))
        return beta, CheckReport("property_b", "no free components (n=0), vacuous", 0.0, threshold)
    grid_spec = (f"rate at t=0 over steps {list(_BETA_H_SCHEDULE)}, "
                 f"validation times {list(_BETA_CHECK_TIMES)} x 3 imaginary points")

    cols, failed = [], []
    for j in range(n):
        e = np.zeros(dims.d, dtype=np.complex128)
        e[dims.m + j] = 1j
        try:
            cols.append(estimate_FR(source, e, _BETA_H_SCHEDULE).R_hat[dims.J] / 1j)
        except FRExtrapolationError as exc:
            failed.append((math.inf, {
                "inputs": {"t": 0.0, "u": e},
                "observed": {"column": j, "error": str(exc)},
                "expected": "a rate at t = 0",
            }))
    if failed:
        return np.full((n, n), np.nan), _scored_report("property_b", grid_spec, threshold, failed)
    rate = np.column_stack(cols)
    beta = rate.real

    imag_leak = float(np.max(np.abs(rate.imag)))
    scored = [(imag_leak, {
        "inputs": {"t": 0.0, "u": "i e_j for each free component j"},
        "observed": {"rate_matrix": rate, "imag_leak": imag_leak},
        "expected": f"imaginary parts <= {threshold}",
    })]
    # one solve: lane 3i + k is point k of time i, drawn in that order
    rng = np.random.default_rng(_BETA_CHECK_SEED)
    points = [u for _ in _BETA_CHECK_TIMES for u in sample_imaginary_points(dims, 3, rng)]
    rows = source.on_grid(list(_BETA_CHECK_TIMES), points)
    for i, (t, row) in enumerate(zip(_BETA_CHECK_TIMES, rows)):
        e_tb = matrix_exp(beta, float(t))
        for u, ev in zip(points[3 * i:3 * i + 3], row[3 * i:3 * i + 3]):
            predicted = e_tb @ u[dims.J]
            scored.append((float(np.max(np.abs(ev.psi[dims.J] - predicted), initial=0.0)), {
                "inputs": {"t": float(t), "u": u},
                "observed": ev.psi[dims.J],
                "expected": predicted,
            }))
    return beta, _scored_report("property_b", grid_spec, threshold, scored)


@dataclass(frozen=True)
class LinearFitResult:
    """Least-squares linear coefficients of one fiber-map component.

    ``zeta`` is constrained real; any real part of the samples (which a
    genuinely linear imaginary-argument component cannot have) is folded into
    the residual rather than the coefficients.
    """

    component: int
    zeta: np.ndarray
    residual: float
    sample_radius: float


def fit_linearity(samples: Sequence[tuple[np.ndarray, complex]], component: int,
                  k_indices: Sequence[int], radius: float) -> LinearFitResult:
    """Fit psi_component(t, iy) ~ <zeta, i y_K> over real probe vectors y.

    ``samples`` are (y, value) pairs with y supported on ``k_indices`` and
    |y| < radius.  Needs at least as many samples as coefficients.
    """
    k_idx = list(k_indices)
    if len(samples) < len(k_idx):
        raise ValueError(f"need at least {len(k_idx)} samples, got {len(samples)}")
    ys = np.array([np.asarray(y, dtype=float) for y, _ in samples])
    vals = np.array([complex(v) for _, v in samples])
    norms = np.linalg.norm(ys, axis=1)
    if np.any(norms >= radius):
        raise ValueError("samples must lie strictly inside the stated radius")
    off_support = np.delete(ys, k_idx, axis=1)
    if off_support.size and np.max(np.abs(off_support)) > 0:
        raise ValueError("samples must be supported on the fitted index set")
    design = ys[:, k_idx]
    zeta, *_ = np.linalg.lstsq(design, vals.imag, rcond=None)
    fitted = design @ zeta
    residual = float(np.sqrt(np.mean(vals.real**2 + (vals.imag - fitted) ** 2)))
    return LinearFitResult(component, zeta, residual, radius)


# ----------------------------------------------------------------------------
# positive definiteness


def posdef_points(probe_pairs) -> list[np.ndarray]:
    """Where :func:`posdef_certificate` needs theta: 0, then y, z, y+z, -y, -z, -y-z per pair."""
    if not probe_pairs:
        raise ValueError("need at least one probe pair")
    points = [np.zeros_like(np.asarray(probe_pairs[0][0], dtype=float))]
    for y, z in probe_pairs:
        y_arr = np.asarray(y, dtype=float)
        z_arr = np.asarray(z, dtype=float)
        points += [y_arr, z_arr, y_arr + z_arr, -y_arr, -z_arr, -y_arr - z_arr]
    return points


def posdef_certificate(probe_pairs, values, threshold: float = 1e-10) -> CheckReport:
    """Certificate that a candidate characteristic function is positive definite.

    ``values`` holds theta at :func:`posdef_points` of ``probe_pairs``, in that
    order.  For each probe pair (y, z) the 3x3 matrix with entries
    theta(t_i - t_j) over the points {0, y, -z} must be positive
    semidefinite.  The violation combines the product inequality
    |theta(y+z) - theta(y)theta(z)|^2 <= (1-|theta(y)|^2)(1-|theta(z)|^2),
    the determinant sign, the Hermitian-symmetry defect, and the smallest
    eigenvalue of the (symmetrized) matrix; the eigenvalue term is the one
    that rejects candidates whose modulus exceeds 1, which slip through the
    first two.
    """
    probe_pairs = list(probe_pairs)
    if not probe_pairs or len(values) != 1 + 6 * len(probe_pairs):
        raise ValueError(f"need at least one probe pair and theta at its "
                         f"{1 + 6 * len(probe_pairs)} posdef_points, got {len(values)} values")
    th0 = complex(values[0])
    if abs(th0 - 1.0) > 1e-12:
        raise ValueError(f"theta(0) must equal 1 (got {th0})")
    scored = []
    for i, (y, z) in enumerate(probe_pairs):
        ty, tz, tyz, t_my, t_mz, t_myz = (complex(v) for v in values[1 + 6 * i: 7 + 6 * i])
        # points t = (0, y, -z); entry (i, j) is theta(t_i - t_j)
        m = np.array([
            [th0, t_my, tz],
            [ty, th0, tyz],
            [t_mz, t_myz, th0],
        ])
        ineq = abs(tyz - ty * tz) ** 2 - (1 - abs(ty) ** 2) * (1 - abs(tz) ** 2)
        det = float(np.linalg.det(m).real)
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
        scored.append((max(ineq, -det, -min_eig, herm_defect), {
            "inputs": {"y": np.asarray(y, dtype=float), "z": np.asarray(z, dtype=float)},
            "observed": {"product_inequality": ineq, "det": det,
                         "min_eigenvalue": min_eig, "hermitian_defect": herm_defect},
            "expected": f"all tests >= -{threshold} (defect <= {threshold})",
        }))
    return _scored_report("posdef", f"{len(probe_pairs)} probe pairs", threshold, scored)


# ----------------------------------------------------------------------------
# Feller decay


_SUPPORT = (-2.0, 2.0)  # the test function's window in the free coordinate
_N_NODES = 257          # trapezoid nodes on the window
_DECAY_RATIO = 0.05     # feller_decay: final over initial value along a ray must stay below this


@dataclass(frozen=True)
class TestFunction:
    """Separable test function: exponential in the cone, windowed Fourier in the free part.

    ``u_I`` must have strictly negative real parts; the window is the smooth
    bump exp(-1 / (1 - s^2)) stretched over (-2, 2), discretized on a
    257-node trapezoid grid (the integrand vanishes smoothly at the window
    edge, so the trapezoid rule converges superalgebraically).
    """

    u_I: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u_I, dtype=np.complex128))
        object.__setattr__(self, "u_I", u)
        if u.size and np.max(u.real) >= 0:
            raise ValueError("cone arguments of a test function need Re < 0")

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the normalized bump density on the window."""
        lo, hi = _SUPPORT
        ys = np.linspace(lo, hi, _N_NODES)
        s = ys / hi
        g = np.where(np.abs(s) < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - s**2)), 0.0)
        w = np.full(_N_NODES, (hi - lo) / (_N_NODES - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        mass = float(np.sum(w * g))
        return ys, w * g / mass


def feller_decay(source, model, test_fn: TestFunction, t: float, rays) -> CheckReport:
    """Decay of the propagated test function along rays to infinity.

    The time-t expectation of the test function is assembled from ``source``
    by Fourier quadrature over the window, with one flow call for all
    quadrature columns; along each ray of states the modulus must decay
    below 5% of its initial value, and its envelope over consecutive thirds
    of the ray must be nonincreasing (the pointwise values oscillate along
    free-component rays, so monotonicity is asserted for the envelope, not
    per sample).  The violation is the worst over the rays; witnesses are the
    decaying-too-slowly rays, worst first.
    """
    dims = model.dims
    if dims.n != 1:
        raise ValueError("the decay probe is implemented for exactly one free component")
    if model.beta is None:
        raise ValueError("model must carry its free-component drift matrix")

    ys, gw = test_fn.quadrature()
    u_list = []
    for y in ys:
        u = np.zeros(dims.d, dtype=np.complex128)
        u[dims.I] = test_fn.u_I
        u[dims.m] = 1j * y
        u_list.append(u)
    evals = source.on_grid([float(t)], u_list)[0]
    phis = np.array([ev.phi for ev in evals])
    psis = np.stack([ev.psi for ev in evals])
    scale = float(matrix_exp(model.beta, float(t))[0, 0])

    specs, scored = [], []
    for ray in rays:
        ray_pts = [np.asarray(x, dtype=float) for x in ray]
        values = np.empty(len(ray_pts))
        for i, x in enumerate(ray_pts):
            cone_part = np.exp(psis[:, dims.I] @ x[dims.I]) if dims.m else 1.0
            free_phase = np.exp(1j * ys * scale * x[dims.m])
            integrand = phis * np.ravel(cone_part) * free_phase * gw
            values[i] = abs(np.sum(integrand))

        initial = values[0]
        if initial <= 0:
            raise ValueError("test function vanished at the ray start")
        final_ratio = values[-1] / initial
        third = max(1, len(values) // 3)
        env = [float(np.max(values[i * third: (i + 1) * third if i < 2 else len(values)]))
               for i in range(3)]
        env_violation = max(env[1] / env[0] - 1.0, env[2] / env[1] - 1.0)
        specs.append(f"t={t}, {len(ray_pts)} ray points, window=bump on {_SUPPORT}")
        scored.append((max(final_ratio - _DECAY_RATIO, env_violation), {
            "inputs": {"t": float(t), "ray_start": ray_pts[0], "ray_end": ray_pts[-1]},
            "observed": {"final_ratio": final_ratio, "envelope": env},
            "expected": f"final ratio < {_DECAY_RATIO}, nonincreasing envelope",
        }))
    return _scored_report("feller_decay", " | ".join(specs), 0.0, scored)
