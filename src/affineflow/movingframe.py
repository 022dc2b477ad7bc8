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

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import models
from .core import REGION_EPS, Dims, Tolerances, as_point, outside_half_space
from .empirical import _semihomogeneity, ecf_from_states
from .flow import FlowIntegrationError, OdeFlowSource, flow_source_for, matrix_exp
from .models import AffineModel, GeneratorPair, _left_integrals, _sub_seeds, uniform_times
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
    unchanged.  It is the running sum the frame sampler keeps while it
    steps, so both give the same bits.
    """
    x = np.asarray(values, dtype=float)
    ts = np.asarray(times, dtype=float)
    dt = _left_weights(ts)
    if x.shape[-2] != ts.size or x.shape[-1] != frame.dims.d:
        raise ValueError(f"values shape {x.shape} does not match grid/dims")
    out = np.empty_like(x)
    columns = (x[..., i, :] for i in range(ts.size))
    for i, (xi, integral) in enumerate(_left_integrals(columns, dt)):
        out[..., i, :] = xi - integral @ frame.K
    return out


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
    return _pq_lockstep(source, frame, t, u, [N])[0]


def _pq_lockstep(source, frame: FrameMatrix, t: float, u, ns: Sequence[int]) -> list[PQState]:
    """:func:`pq_recursion` at every N of ``ns`` in lockstep: one flow call per step.

    At step k every entry with k < N - 1 shrinks its own q by (id - h_N K),
    and one ``source.on_grid`` call evaluates all of them, its t grid the
    ascending step sizes h_N and its lanes the entries' stacks one after
    another; each entry reads its own row and lanes.  From a closed flow
    each entry's states equal its own run's bit for bit; an integrating
    source shares its steps across lanes, so there they agree to rounding.
    Returns the states in the order of ``ns``.
    """
    dims = frame.dims
    u_arr = np.asarray(u, dtype=np.complex128)
    if u_arr.ndim != 2 or u_arr.shape[1] != dims.d:
        raise ValueError(f"u must be a (k, {dims.d}) stack of arguments, got shape {u_arr.shape}")
    if np.max(np.abs(u_arr.real), initial=0.0) > REGION_EPS:
        raise ValueError("the recursion is defined for purely imaginary arguments")
    if min(ns) < 1:
        raise ValueError("N must be at least 1")
    if t <= 0:
        raise ValueError("t must be positive")
    # one entry per distinct N, in descending N: its h = t / N then ascends
    entries = sorted(set(ns), reverse=True)
    hs = [t / n for n in entries]
    shrinks = [(np.eye(dims.d) - h * frame.K).T for h in hs]  # q @ shrink is (id - hK) q per lane
    lanes = len(u_arr)
    ps = [np.ones(lanes, dtype=np.complex128) for _ in entries]
    qs = [u_arr.copy() for _ in entries]
    for k in range(entries[0] - 1):
        active = [e for e, n in enumerate(entries) if k < n - 1]
        vs = [qs[e] @ shrinks[e] for e in active]
        for e, v in zip(active, vs):
            outside = outside_half_space(v, dims)
            if outside.any():
                lane, bad = np.argwhere(outside)[0]
                raise FrameRecursionError(
                    f"intermediate argument of lane {lane} left the admissible set at step "
                    f"k={k} of N={entries[e]}, component {bad} (value {v[lane, bad]})")
        rows = source.on_grid([hs[e] for e in active], np.concatenate(vs))
        for r, (e, row) in enumerate(zip(active, rows)):
            cells = row[r * lanes:(r + 1) * lanes]
            for lane, ev in enumerate(cells):
                if not ev.in_Q:
                    raise FrameRecursionError(
                        f"flow of lane {lane} left its domain at step k={k} of N={entries[e]}")
            ps[e] = np.array([ev.phi for ev in cells]) * ps[e]
            qs[e] = np.array([ev.psi for ev in cells])
    states = {n: PQState(n, h, p, q) for n, h, p, q in zip(entries, hs, ps, qs)}
    return [states[n] for n in ns]


def pq_extrapolate(source, frame: FrameMatrix, t: float, u,
                   N_schedule: Sequence[int] = (64, 128, 256),
                   ) -> tuple[np.ndarray, np.ndarray, list[PQState]]:
    """Recursion limit by two-point Richardson extrapolation in 1/N.

    ``u`` is the (k, d) stack of :func:`pq_recursion`.  Every schedule entry
    runs on all k lanes in lockstep, so step k costs one ``source.on_grid``
    call for all the entries still running (the largest N takes N - 1
    calls in all).  The recursion converges at first order in 1/N, so the
    extrapolant 2 v(2N) - v(N) from the two largest schedule entries cancels
    the leading error term.  Returns p (k,), q (k, d) and the states in
    ascending N.
    """
    ns = sorted(int(n) for n in N_schedule)
    if len(ns) < 2:
        raise ValueError("need at least two N values to extrapolate")
    if ns[-1] != 2 * ns[-2]:
        raise ValueError("the two largest N values must differ by a factor of 2")
    states = _pq_lockstep(source, frame, t, u, ns)
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


class _FrameSampler:
    """Sampler of the frame-transformed process, for :func:`models.sample_grid`.

    ``sample_chunk`` asks the base sampler's ``walk_integrals`` for the state
    and its left-rule integral over the uniform grid of step ``internal_dt``
    up to the last record time, at the record nodes only, with the same
    generators, so the running integral of the transform is resolved.  It
    stores ``x - integral @ K`` at the record times, so it keeps no array
    over the internal grid.  Record times must lie on that grid.
    """

    def __init__(self, base, frame: FrameMatrix, internal_dt: float):
        self.base = base
        self.frame = frame
        self.internal_dt = internal_dt

    def sample_chunk(self, x0, times, rngs):
        fine = uniform_times(float(times[-1]), self.internal_dt)
        # nearest node: a node's float may sit an ulp on either side of its time
        idx = np.rint(times / self.internal_dt).astype(int)
        if np.max(np.abs(fine[idx] - times)) > 1e-9:
            raise ValueError("record times must lie on the internal uniform grid")
        nodes, cols = np.unique(idx, return_inverse=True)  # nodes[0] is 0, the start
        out = np.empty((len(rngs) * models.BLOCK_PATHS, idx.size, len(x0)))
        out[:, cols == 0] = x0
        pairs = self.base.walk_integrals(x0, fine, nodes[1:], rngs)
        for k, (x, integral) in enumerate(pairs, start=1):
            out[:, cols == k] = (x - integral @ self.frame.K)[:, None]
        return out


def transformed_state_source(model: AffineModel, frame: FrameMatrix,
                             internal_dt: float = 1e-3) -> AffineModel:
    """State source for the frame-transformed process.

    Returns a copy of ``model`` whose sampler is :class:`_FrameSampler`; like
    every model it is a state source, so row p of its draw is path p of
    ``model``'s draw on the same seed, transformed.  The copy carries no
    generator, flow or drift matrix, so nothing reads the base model's flow
    as the transformed one's.  ``sample_grid`` chunks the paths and the
    base sampler integrates each chunk as it steps, so beyond its working
    arrays a chunk holds its record-time output and a few (paths, d)
    arrays.  A Heston record interval of several internal nodes draws the
    W2 parts of y and of its integral at its end, so only the law of a
    record, not its draws, matches the fine-grid walk.
    """
    if internal_dt <= 0:
        raise ValueError("internal_dt must be positive")
    sampler = _FrameSampler(model.sampler, frame, internal_dt)
    return replace(model, sampler=sampler, gen=None, closed_flow=None, beta=None)


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
    transform the path sets: one from x0 and one from x0 + e_k per free
    component k, which stages 5 and 6 share, and the first
    ``n_sample_paths`` paths from x0 on the internal grid, drawn on their own
    seed; (3) run the p/q recursion over the N schedule and extrapolate,
    every u a lane of one :func:`pq_extrapolate` call, and solve the
    generator's ODE for the endpoint pair; (4) check the free components of
    q returned to the input argument within ``q_tol``; (5) check the
    empirical transform of the x0 set's endpoint against p exp(<q, x0>)
    within ``stat_sigma`` errors; (6) score the free-component invariance of
    the transformed process, the quotients log g(x0 + e_k) - log g(x0) of
    the stage-2 sets (the log-transform is affine in the start, so any base
    gives psi_k).  Operational failures abort with a stage tag;
    certification failures produce a failing composite report.
    """
    dims = model.dims
    x0_arr = np.asarray(x0, dtype=float)
    u_stack = np.array([as_point(u, dims) for u in u_set])
    if not len(u_stack):
        raise ValueError("u_set must be nonempty")
    seeds = _sub_seeds(seed, 2)

    # stage 1: frame
    try:
        flow_src = flow_source_for(model, tol)
        if model.beta is not None:
            beta, beta_origin = np.asarray(model.beta, dtype=float), "model"
        else:
            beta, beta_report = extract_beta(flow_src, dims)
            if not beta_report.passed:
                raise FramePipelineError(
                    "frame", f"drift extraction failed: violation {beta_report.max_violation:.3e} "
                    f"> threshold {beta_report.threshold:.3e}; witness {beta_report.witnesses[0]}")
            beta_origin = "extracted"
        frame = build_frame(beta, dims)
    except (ValueError, FlowIntegrationError) as exc:
        raise FramePipelineError("frame", str(exc)) from exc

    # stage 2: simulate + transform; stage 6's report is scored from its sets here
    try:
        z_source = transformed_state_source(model, frame, internal_dt=internal_dt)
        fine = uniform_times(float(t), internal_dt)
        n_sample = min(n_sample_paths, n_paths)
        sample = (z_source(x0_arr, fine, n_sample, seeds[0]) if n_sample
                  else np.empty((0, fine.size, dims.d)))
        # after the sample: its whole-block chunk then peaks on a smaller heap
        semihomog, z_end = _semihomogeneity(z_source, dims, t, u_stack[0], n_paths, seeds[1],
                                            stat_sigma, base=x0_arr)
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
