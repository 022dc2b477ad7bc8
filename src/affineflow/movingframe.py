"""Moving-frame path transformation and the discrete tower-law recursion.

The frame matrix K (identity on the cone block, free-component drift matrix on
the free block) turns a general affine process into one whose fiber map leaves
free arguments fixed, via Z_t = X_t - K^T \\int_0^t X_s ds.  This module builds
K, applies and inverts the transform with left-endpoint quadrature, runs the
flow-only p/q tower-law recursion, solves the generator ODE that predicts the
transformed process's transform pair, and bundles everything into a
simulate-transform-certify pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import REGION_EPS, Dims, Tolerances, as_point, outside_half_space
from .flow import FlowIntegrationError, OdeFlowSource, flow_source_for, matrix_exp
from .models import AffineModel, GeneratorPair, _sub_seeds, sample_grid, uniform_times
from .verify import CheckReport, _scored_report, _z_score, extract_beta

__all__ = [
    "FrameMatrix",
    "PQState",
    "FrameRecursionError",
    "FramePipelineError",
    "FramePipelineResult",
    "build_frame",
    "transform_values",
    "inverse_values",
    "pq_recursion",
    "pq_extrapolate",
    "transformed_state_source",
    "frame_pipeline",
]


@dataclass(frozen=True)
class FrameMatrix:
    """Real d x d frame matrix: identity on the cone block, drift matrix on the free block."""

    K: np.ndarray
    dims: Dims

    def __post_init__(self):
        k = np.asarray(self.K, dtype=float)
        d, m = self.dims.d, self.dims.m
        if k.shape != (d, d):
            raise ValueError(f"frame matrix must be {d}x{d}, got {k.shape}")
        if not np.array_equal(k[:m, :m], np.eye(m)):
            raise ValueError("cone block of the frame matrix must be the identity")
        if np.any(k[:m, m:] != 0) or np.any(k[m:, :m] != 0):
            raise ValueError("off-diagonal blocks of the frame matrix must vanish")
        object.__setattr__(self, "K", k)

    @property
    def beta(self) -> np.ndarray:
        return self.K[self.dims.m:, self.dims.m:]


def build_frame(beta, dims: Dims) -> FrameMatrix:
    """Assemble the frame matrix from the free-component drift matrix."""
    b = np.asarray(beta, dtype=float)
    if b.shape != (dims.n, dims.n):
        raise ValueError(f"drift matrix must be {dims.n}x{dims.n}, got {b.shape}")
    k = np.zeros((dims.d, dims.d))
    k[:dims.m, :dims.m] = np.eye(dims.m)
    k[dims.m:, dims.m:] = b
    return FrameMatrix(k, dims)


# ----------------------------------------------------------------------------
# path transform and its inverse


def _left_weights(times: np.ndarray) -> np.ndarray:
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a nonempty time grid")
    if times[0] != 0 or np.any(np.diff(times) <= 0):
        raise ValueError("time grid must start at 0 and increase strictly")
    return np.diff(times)


def transform_values(values: np.ndarray, times: np.ndarray, frame: FrameMatrix) -> np.ndarray:
    """Apply the frame transform to an array of paths (..., n_times, d).

    The running integral uses the left-endpoint rule, matching piecewise
    constant interpolation of the recorded values; the value at time 0 is
    unchanged.
    """
    x = np.asarray(values, dtype=float)
    ts = np.asarray(times, dtype=float)
    dt = _left_weights(ts)
    if x.shape[-2] != ts.size or x.shape[-1] != frame.dims.d:
        raise ValueError(f"values shape {x.shape} does not match grid/dims")
    integral = np.zeros_like(x)
    np.cumsum(x[..., :-1, :] * dt[:, None], axis=-2, out=integral[..., 1:, :])
    # subtract into the product's buffer: one full-size temporary fewer at the peak
    out = integral @ frame.K
    return np.subtract(x, out, out=out)


def inverse_values(values: np.ndarray, times: np.ndarray, frame: FrameMatrix) -> np.ndarray:
    """Invert the frame transform by variation of constants (left rule).

    Reconstructs X(t_i) = Z(t_i) + K^T sum_{j<i} exp((t_i - s_j) K^T) Z(s_j) ds_j,
    evaluated with the accumulated form A_i = exp(dt K^T)(A_{i-1} + dt Z_{i-1})
    (the two agree exactly because exponentials of the same matrix multiply by
    adding their times); uniform grids then need a single matrix exponential.
    """
    z = np.asarray(values, dtype=float)
    ts = np.asarray(times, dtype=float)
    dt = _left_weights(ts)
    if z.shape[-2] != ts.size or z.shape[-1] != frame.dims.d:
        raise ValueError(f"values shape {z.shape} does not match grid/dims")
    propagators: dict[float, np.ndarray] = {}
    acc = np.zeros(z.shape[:-2] + (frame.dims.d,))
    out = np.array(z)
    for i in range(1, ts.size):
        h = float(dt[i - 1])
        e_row = propagators.get(h)
        if e_row is None:
            # row-vector convention: a exp(h K^T)^T = a exp(h K)
            e_row = propagators.setdefault(h, matrix_exp(frame.K, h))
        acc = (acc + h * z[..., i - 1, :]) @ e_row
        out[..., i, :] += acc @ frame.K
    return out


# ----------------------------------------------------------------------------
# p/q recursion


class FrameRecursionError(RuntimeError):
    """Raised when an intermediate recursion argument leaves the admissible set."""


@dataclass(frozen=True)
class PQState:
    """Final state of the tower-law recursion with step h = t/N, one lane per argument.

    ``p`` (k,) starts at 1 and ``q`` (k, d) at the stack of arguments u; the
    recursion applies N-1 updates, so the stored values are p(N-1), q(N-1).
    """

    N: int
    h: float
    p: np.ndarray
    q: np.ndarray

    @property
    def t(self) -> float:
        return self.N * self.h


def pq_recursion(source, frame: FrameMatrix, t: float, u, N: int) -> PQState:
    """Run the flow-only tower-law iteration for the transformed transform pair.

    q(k+1) = psi(h, (id - hK) q(k)), p(k+1) = Phi(h, (id - hK) q(k)) p(k) for
    k = 0 .. N-2 folds each Riemann node factor into the flow argument, so it
    needs no regularity; it converges at O(1/N), its free components to u_J.
    ``u`` is a (k, d) stack of purely imaginary arguments, one lane each;
    each step evaluates all k lanes in one ``source.on_grid([h], ...)`` call.
    Every intermediate argument must stay in the admissible half-space (within
    ``REGION_EPS``; NaN is outside) and every flow value in its domain; a
    violation names the lane, the step and, for the half-space, the component.
    """
    dims = frame.dims
    u_arr = np.asarray(u, dtype=np.complex128)
    if u_arr.ndim != 2 or u_arr.shape[1] != dims.d:
        raise ValueError(f"u must be a (k, {dims.d}) stack of arguments, got shape {u_arr.shape}")
    if np.max(np.abs(u_arr.real), initial=0.0) > REGION_EPS:
        raise ValueError("the recursion is defined for purely imaginary arguments")
    if N < 1:
        raise ValueError("N must be at least 1")
    if t <= 0:
        raise ValueError("t must be positive")
    h = t / N
    shrink_rows = (np.eye(dims.d) - h * frame.K).T  # q @ shrink_rows is (id - hK) q per lane

    p = np.ones(len(u_arr), dtype=np.complex128)
    q = u_arr.copy()
    for k in range(N - 1):
        v = q @ shrink_rows
        outside = outside_half_space(v, dims)
        if outside.any():
            lane, bad = np.argwhere(outside)[0]
            raise FrameRecursionError(
                f"intermediate argument of lane {lane} left the admissible set at step "
                f"k={k}, component {bad} (value {v[lane, bad]})")
        row = source.on_grid([h], v)[0]
        for lane, ev in enumerate(row):
            if not ev.in_Q:
                raise FrameRecursionError(f"flow of lane {lane} left its domain at step k={k}")
        p = np.array([ev.phi for ev in row]) * p
        q = np.array([ev.psi for ev in row])
    return PQState(N, h, p, q)


def pq_extrapolate(source, frame: FrameMatrix, t: float, u,
                   N_schedule: Sequence[int] = (64, 128, 256),
                   ) -> tuple[np.ndarray, np.ndarray, list[PQState]]:
    """Recursion limit by two-point Richardson extrapolation in 1/N.

    ``u`` is the (k, d) stack of :func:`pq_recursion`, which runs once per
    schedule entry on all k lanes.  The recursion converges at first order in
    1/N, so the extrapolant 2 v(2N) - v(N) from the two largest schedule
    entries cancels the leading error term.  Returns p (k,), q (k, d) and the
    states in ascending N.
    """
    ns = sorted(int(n) for n in N_schedule)
    if len(ns) < 2:
        raise ValueError("need at least two N values to extrapolate")
    if ns[-1] != 2 * ns[-2]:
        raise ValueError("the two largest N values must differ by a factor of 2")
    states = [pq_recursion(source, frame, t, u, n) for n in ns]
    return 2 * states[-1].p - states[-2].p, 2 * states[-1].q - states[-2].q, states


def _pq_endpoint(gen, frame: FrameMatrix, t: float, u: np.ndarray,
                 tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Transform pair p (k,), q (k, d) of the transformed process at t, for the (k, d) stack u.

    One solve of q' = R(q) - Ku, (log p)' = F(q), q(0) = u: for a regular
    process, the limit of the tower law q(k+1) = psi(h, q(k)) - hKu,
    p(k+1) = Phi(h, q(k)) p(k) (Duffie, Filipovic and Schachermayer 2003).
    A lane's state is (q, u) on Dims(m, n + d); the u columns are constant
    imaginary free components, so an exiting lane takes its own shift out of
    the active set.  A lane that leaves the domain raises FrameRecursionError.
    """
    dims, d = frame.dims, frame.dims.d

    def shifted_R(y):  # u @ K^T is Ku per lane
        out = np.zeros_like(y)
        out[:, :d] = gen.R(y[:, :d]) - y[:, d:] @ frame.K.T
        return out

    pair = GeneratorPair(F=lambda y: gen.F(y[:, :d]), R=shifted_R)
    row = OdeFlowSource(pair, Dims(dims.m, dims.n + d), tol).on_grid([t], np.hstack([u, u]))[0]
    for lane, ev in enumerate(row):
        if not ev.in_Q:
            raise FrameRecursionError(f"generator ODE of lane {lane} left its domain before t={t}")
    return np.array([ev.phi for ev in row]), np.array([ev.psi[:d] for ev in row])


# ----------------------------------------------------------------------------
# transformed sampling and the certification pipeline


# Paths per ``transform_values`` call in ``_FrameSampler.sample_chunk``: rows
# transform independently, so tiling the fine block shrinks the transform's
# block-sized temporaries (products, integral, ``integral @ K``) to tile size
# without changing a bit.
TILE_PATHS = 128


class _FrameSampler:
    """Sampler of the frame-transformed process, for :func:`models.sample_grid`.

    ``sample_chunk`` runs the base sampler on the uniform grid of step
    ``internal_dt`` up to the last record time, with the same generators, so
    the running integral of the transform is resolved.  It transforms that
    fine block ``TILE_PATHS`` rows at a time and keeps each tile's
    record-time columns, so at its peak a chunk holds the fine block and one
    tile's temporaries.  Record times must lie on the internal grid.
    """

    def __init__(self, base, frame: FrameMatrix, internal_dt: float):
        self.base = base
        self.frame = frame
        self.internal_dt = internal_dt

    def sample_chunk(self, x0, times, rngs):
        fine = uniform_times(float(times[-1]), self.internal_dt)
        idx = np.minimum(np.searchsorted(fine, times), fine.size - 1)
        if np.max(np.abs(fine[idx] - times)) > 1e-9:
            raise ValueError("record times must lie on the internal uniform grid")
        block = self.base.sample_chunk(x0, fine, rngs)
        out = np.empty((block.shape[0], idx.size, block.shape[-1]))
        for lo in range(0, block.shape[0], TILE_PATHS):
            tile = block[lo:lo + TILE_PATHS]
            out[lo:lo + TILE_PATHS] = transform_values(tile, fine, self.frame)[:, idx, :]
        return out


def transformed_state_source(model: AffineModel, frame: FrameMatrix,
                             internal_dt: float = 1e-3):
    """State source for the frame-transformed process.

    Returns a callable with the (x0, record_times, n_paths, seed) -> values
    signature the empirical tests accept in place of a model: ``sample_grid``
    on a copy of ``model`` whose sampler is :class:`_FrameSampler`, so row p
    is path p of ``sample_grid`` on the same seed, transformed.  The copy
    carries no flow, so nothing reads the base model's flow as the
    transformed one's.  ``sample_grid`` chunks the paths and the sampler
    transforms each chunk in path tiles, so at the peak the one
    full-resolution array is a chunk's fine block.
    """
    if internal_dt <= 0:
        raise ValueError("internal_dt must be positive")
    sampler = _FrameSampler(model.sampler, frame, internal_dt)
    transformed = replace(model, sampler=sampler, gen=None, closed_flow=None, beta=None)
    return functools.partial(sample_grid, transformed)


class FramePipelineError(RuntimeError):
    """A pipeline stage failed operationally; ``stage`` names the culprit."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage {stage}] {message}")
        self.stage = stage


@dataclass
class FramePipelineResult:
    """Everything the frame pipeline produced, plus the composite report.

    ``report`` normalizes each certified stage by its own threshold, so the
    composite threshold is 1.  Entry i of ``p_values`` (k,) and row i of
    ``q_values`` (k, d) are the extrapolated p/q recursion limit at the i-th
    u, ``p_endpoint``/``q_endpoint`` the pair the generator's ODE predicts,
    and ``pq_states`` the recursion states over the ascending N schedule.
    ``transformed_sample`` holds the first few transformed paths, shape
    (paths, len(sample_times), d), on the internal grid ``sample_times``.
    """

    beta: np.ndarray
    frame: FrameMatrix
    beta_origin: str
    p_values: np.ndarray
    q_values: np.ndarray
    p_endpoint: np.ndarray
    q_endpoint: np.ndarray
    pq_states: list
    q_defect: float
    ecf_z: float
    semihomog: CheckReport
    report: CheckReport
    sample_times: np.ndarray
    transformed_sample: np.ndarray


def frame_pipeline(model: AffineModel, t: float, u_set, x0, n_paths: int,
                   N_schedule: Sequence[int] = (64, 128, 256), seed: int = 0,
                   tol: Tolerances = Tolerances(), q_tol: float = 1e-4,
                   stat_sigma: float = 3.0, internal_dt: float = 1e-3,
                   n_sample_paths: int = 50) -> FramePipelineResult:
    """Simulate, transform, and certify semi-homogeneity of the transformed process.

    Stages: (1) obtain the free-drift matrix (from the model if it carries
    one, otherwise by probing the flow) and build the frame; (2) simulate and
    transform paths; (3) run the p/q recursion over the N schedule and
    extrapolate, every u a lane of one :func:`pq_extrapolate` call, and solve
    the generator's ODE for the endpoint pair; (4) check the free components
    of q returned to the input argument within ``q_tol``; (5) check the
    empirical transform of the transformed endpoint against p exp(<q, x0>)
    within ``stat_sigma`` errors; (6) run the sample-based free-component
    invariance test on the transformed source.  Operational failures abort
    with a stage tag; certification failures produce a failing composite
    report.
    """
    from .empirical import ecf_from_states, semihomogeneity_test

    dims = model.dims
    x0_arr = np.asarray(x0, dtype=float)
    u_stack = np.array([as_point(u, dims) for u in u_set])
    if not len(u_stack):
        raise ValueError("u_set must be nonempty")
    seeds = _sub_seeds(seed, 3)

    # stage 1: frame
    try:
        flow_src = flow_source_for(model, tol)
        if model.beta is not None:
            beta, beta_origin = np.asarray(model.beta, dtype=float), "model"
        else:
            beta, _rep = extract_beta(flow_src, dims)
            beta_origin = "extracted"
        frame = build_frame(beta, dims)
    except (ValueError, FlowIntegrationError) as exc:
        raise FramePipelineError("frame", str(exc)) from exc

    # stage 2: simulate + transform
    try:
        z_source = transformed_state_source(model, frame, internal_dt=internal_dt)
        record = np.array([0.0, float(t)])
        z_end = z_source(x0_arr, record, n_paths, seeds[0])[:, -1, :]
        fine = uniform_times(float(t), internal_dt)
        n_sample = min(n_sample_paths, n_paths)
        sample = (z_source(x0_arr, fine, n_sample, seeds[0]) if n_sample
                  else np.empty((0, fine.size, dims.d)))
    except (ValueError, FlowIntegrationError) as exc:
        raise FramePipelineError("simulate_transform", str(exc)) from exc

    # stage 3: the flow-only p/q recursion, and the generator's endpoint pair for stage 5
    try:
        p_values, q_values, pq_states = pq_extrapolate(flow_src, frame, t, u_stack, N_schedule)
        p_endpoint, q_endpoint = _pq_endpoint(model.gen, frame, t, u_stack, tol)
    except (FrameRecursionError, FlowIntegrationError) as exc:
        raise FramePipelineError("pq_recursion", str(exc)) from exc

    # every stage-4 to -6 probe is scored in units of its own threshold
    scored = []
    # stage 4: free components of q return to u
    defects = np.max(np.abs(q_values[:, dims.J] - u_stack[:, dims.J]), axis=1, initial=0.0)
    q_defect = float(np.max(defects, initial=0.0))
    for u, q, defect in zip(u_stack, q_values, defects.tolist()):
        scored.append((defect / q_tol, {
            "inputs": {"stage": "q_invariance", "u": u},
            "observed": {"q_free": q[dims.J], "defect": defect},
            "expected": f"|q_J - u_J| <= {q_tol}",
        }))

    # stage 5: empirical transform of Z_t vs p exp(<q, x0>) from the generator ODE
    ecf_z = 0.0
    for u, p_ext, q_ext in zip(u_stack, p_endpoint, q_endpoint):
        est = ecf_from_states(z_end, u, t)
        predicted = p_ext * np.exp(q_ext @ x0_arr)
        z = _z_score(abs(est.value - predicted), est.stderr)
        ecf_z = max(ecf_z, z)
        scored.append((z / stat_sigma, {
            "inputs": {"stage": "ecf_match", "u": u, "t": t},
            "observed": {"ecf": est.value, "predicted": predicted, "z": z},
            "expected": f"agreement within {stat_sigma} standard errors",
        }))

    # stage 6: free-component invariance of the transformed process
    semihomog = semihomogeneity_test(z_source, dims, t, u_stack[0], n_paths, seeds[1],
                                     threshold=stat_sigma)
    scored.append((semihomog.max_violation / stat_sigma, {
        "inputs": {"stage": "semihomogeneity", "u": u_stack[0]},
        "observed": {"z": semihomog.max_violation},
        "expected": f"z <= {stat_sigma}",
    }))

    report = _scored_report(
        "frame_pipeline",
        (f"t={t}, {len(u_stack)} u points, {n_paths} paths, N schedule {sorted(N_schedule)}, "
         f"beta {beta_origin}"),
        1.0, scored)
    return FramePipelineResult(
        beta=beta, frame=frame, beta_origin=beta_origin, p_values=p_values, q_values=q_values,
        p_endpoint=p_endpoint, q_endpoint=q_endpoint, pq_states=pq_states, q_defect=q_defect,
        ecf_z=ecf_z, semihomog=semihomog, report=report, sample_times=fine,
        transformed_sample=sample)
