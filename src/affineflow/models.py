"""Model catalog: generator pairs, closed-form flows and path samplers.

Three affine families cover the state-space shapes (pure free part, pure cone,
mixed), plus a deliberately non-affine control process used to falsify the
statistical checks.  ``sample_grid`` is the one way to draw paths; calling a
model with its arguments is that call, so a model is a state source.  Paths come
in blocks of ``BLOCK_PATHS``: block b (paths ``b * BLOCK_PATHS`` onwards)
draws from the PCG64 stream of ``SeedSequence(entropy=seed, spawn_key=(b,))``,
and every sampler makes its draws per block, vectorised over the block's
paths.  The sampler runs on chunks of ``CHUNK_PATHS`` paths, a whole number of
blocks, so results are bit-for-bit reproducible and independent of chunking
and of the window of paths a call asks for.  Each sampler steps in one loop,
``walk(x0, times, rngs)``, which yields the (paths, d) state after each
interval of ``times``, valid until the next one is drawn; its
``sample_chunk`` stores those states.  The frame sampler of ``movingframe``
reads ``walk_integrals(x0, times, nodes, rngs)``, the state and its left-rule
integral at the given nodes only: by default the running sum over ``walk``.
The Heston sampler draws W2 by one rule: given v's path, y's W2 part over a
record interval is one Gaussian, drawn from one normal at the interval's end,
and over an interval of several nodes a second normal draws its integral's
W2 part, which keeps the Euler law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .core import Dims, as_state
from .flow import FlowEvaluation

__all__ = [
    "GeneratorPair",
    "AffineModel",
    "make_levy",
    "make_cir",
    "make_heston_like",
    "make_nonaffine_control",
    "model_from_spec",
    "MODEL_FACTORIES",
    "simulate",
    "sample_grid",
    "BLOCK_PATHS",
    "CHUNK_PATHS",
    "uniform_times",
]


@dataclass(frozen=True)
class GeneratorPair:
    """The derivative pair of the transform flow at t=0.

    Both act on a stack of transform arguments, an array of shape (..., d):
    ``F`` returns the complex scalars, shape (...), and ``R`` the complex
    vectors, shape (..., d), so ``u[..., 0]`` is the first component of every
    argument.  The integrator calls them once per stage on all its lanes.
    Both must be finite on the admissible half-space and satisfy F(0) = 0,
    R(0) = 0.
    """

    F: Callable[[np.ndarray], complex]
    R: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AffineModel:
    """A catalog entry: dimensions, generator, optional closed flow, sampler.

    ``beta`` is the linear-drift matrix acting on the free components (the
    flow restricted to those components is u_J -> exp(t*beta) u_J).
    ``sampler_kind`` flags whether transitions are sampled exactly or by an
    Euler scheme with full truncation on the cone.
    """

    name: str
    dims: Dims
    gen: GeneratorPair | None
    sampler: object
    sampler_kind: str
    closed_flow: Callable[[float, np.ndarray], FlowEvaluation] | None = None
    beta: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    x0_default: np.ndarray | None = None

    def __call__(self, x0, record_times, n_paths: int, seed, path_offset: int = 0) -> np.ndarray:
        """:func:`sample_grid` on this model: a model is its own state source."""
        return sample_grid(self, x0, record_times, n_paths, seed, path_offset)


# ----------------------------------------------------------------------------
# samplers


# Paths per generator, part of the stream contract: block b of a run (paths
# b * BLOCK_PATHS onwards) draws from the stream of spawn key (seed, b), and a
# sampler given k block generators returns k * BLOCK_PATHS rows, block b's rows
# drawn from ``rngs[b]`` alone.  Changing it changes every seeded draw.
BLOCK_PATHS = 512

# Rows of Heston noise drawn per block and call (an xi1 row per substep, a
# zeta1 row per record interval and a zeta2 row per interval of several
# nodes): it bounds the noise window and changes no value, since each block
# reads its stream in order.
_NOISE_ROWS = 32


def _fill_normals(rngs, out) -> np.ndarray:
    """Fill ``out[b]`` with standard normals from block generator ``rngs[b]``, one draw each."""
    for rng, block in zip(rngs, out):
        rng.standard_normal(out=block)
    return out


def _recorded(walk, x0, times, rngs) -> np.ndarray:
    """Store ``x0`` and the states a sampler's ``walk`` yields: (paths, len(times), d)."""
    out = np.empty((len(rngs) * BLOCK_PATHS, len(times), len(x0)))
    out[:, 0] = x0
    for k, state in enumerate(walk, start=1):
        out[:, k] = state
    return out


def _left_integrals(states, dt):
    """Pair each state x_i of ``states`` with its left-rule integral sum_{j<i} x_j dt_j.

    ``states`` yields x_0, x_1, ... (arrays of one shape) and ``dt`` holds
    the steps between them.  The terms add in order and the first sum is the
    first term itself, as in ``np.cumsum``.  Each x_j dt_j is taken before
    the next state is drawn, so ``states`` may rewrite one buffer in place.
    A yielded integral is valid until the next state is drawn, since later
    sums add into it.
    """
    states = iter(states)
    x = next(states)
    integral = np.zeros(x.shape)  # C order: zeros_like would copy a broadcast x0's order
    term = np.empty_like(integral)
    yield x, integral
    for i, h in enumerate(dt):
        if i == 0:
            np.multiply(x, h, out=integral)
        else:
            integral += np.multiply(x, h, out=term)
        x = next(states, None)
        if x is None:
            return
        yield x, integral


class _Sampler:
    """Base of the catalog samplers: the default ``walk_integrals``."""

    def walk_integrals(self, x0, times, nodes, rngs):
        """Yield x_i and sum_{j<i} x_j dt_j over ``times`` at each node i of ``nodes``.

        ``nodes`` ascend from 1; the pairs are :func:`_left_integrals` over
        every state of ``walk``, each valid until the next is drawn.
        """
        start = np.broadcast_to(x0, (len(rngs) * BLOCK_PATHS, len(x0)))
        pairs = _left_integrals(chain([start], self.walk(x0, times, rngs)), np.diff(times))
        todo = iter(nodes)
        node = next(todo, None)
        for i, pair in enumerate(pairs):
            if i == node:
                yield pair
                node = next(todo, None)
                if node is None:
                    return


class GaussianIncrementSampler(_Sampler):
    """Exact transitions for the homogeneous Gaussian model (pure free part)."""

    def __init__(self, drift: np.ndarray, scale: np.ndarray):
        self.drift = drift
        self.scale = scale  # matrix square root of the covariance

    def walk(self, x0, times, rngs):
        """Yield ``x0`` plus the running sum of the increments after each interval.

        The normals are drawn once per block and scaled in one product; each
        increment and the sum are taken step by step, so a yielded state is
        a fresh array.
        """
        dts = np.diff(times)
        sqdt = np.sqrt(dts)
        d = len(x0)
        xi = _fill_normals(rngs, np.empty((len(rngs), BLOCK_PATHS, len(dts), d)))
        noise = xi.reshape(-1, len(dts), d) @ self.scale.T
        del xi  # free the normals: only their product spans the grid while stepping
        # the running sum adds the increments in order, as np.cumsum does
        total = None
        for k in range(len(dts)):
            incr = dts[k] * self.drift + noise[:, k] * sqdt[k]
            total = incr if total is None else np.add(total, incr, out=total)
            yield x0 + total

    def sample_chunk(self, x0, times, rngs):
        return _recorded(self.walk(x0, times, rngs), x0, times, rngs)


class CirExactSampler(_Sampler):
    """Exact square-root-diffusion transitions via the Poisson-gamma mixture.

    Each step draws N ~ Poisson(nc/2) and then a gamma variate of shape
    df/2 + N, which together realize the scaled noncentral chi-square
    transition law; shape 0 degenerates to the point mass at 0, so the
    absorbing a=0 case is exact as well.
    """

    def __init__(self, a: float, b: float, sigma: float):
        self.a = a
        self.b = b
        self.sigma = sigma

    def walk(self, x0, times, rngs):
        dts = np.diff(times)
        ebd = np.exp(-self.b * dts)
        # E(dt) = (1 - e^{-b dt})/b, continuous at b=0
        if self.b == 0.0:
            e_fac = dts.copy()
        else:
            e_fac = -np.expm1(-self.b * dts) / self.b
        c = 0.25 * self.sigma**2 * e_fac
        df2 = 2.0 * self.a / self.sigma**2  # df/2
        x = np.full((len(rngs), BLOCK_PATHS), x0[0])
        for k in range(len(dts)):
            # step-major over the blocks: each block still reads its own stream in order
            nxt = np.empty_like(x)
            for rng, rows, new in zip(rngs, x, nxt):
                n_mix = rng.poisson(rows * ebd[k] / (2.0 * c[k]))
                new[:] = 2.0 * c[k] * rng.standard_gamma(df2 + n_mix)
            x = nxt
            yield x.reshape(-1, 1)

    def sample_chunk(self, x0, times, rngs):
        return _recorded(self.walk(x0, times, rngs), x0, times, rngs)


class HestonEulerSampler(_Sampler):
    """Euler scheme with full truncation on the cone component.

    The record grid is refined internally to substeps no longer than
    ``max_dt``; the signed internal volatility state may dip below zero but
    only its positive part enters drift and diffusion, and recorded values
    are clamped onto the state space.
    """

    def __init__(self, a, b, sigma, rho, lam, max_dt=1e-3):
        self.a = a
        self.b = b
        self.sigma = sigma
        self.rho = rho
        self.rho_c = math.sqrt(max(0.0, 1.0 - rho**2))
        self.lam = lam
        self.max_dt = max_dt

    def _substep_plan(self, times):
        dts = np.diff(times)
        counts = np.maximum(1, np.ceil(dts / self.max_dt - 1e-12).astype(int))
        return dts, counts

    def walk(self, x0, times, rngs):
        """Yield ``(max(v, 0), y)`` after each interval of ``times``, as :meth:`walk_integrals`."""
        return (state for state, _ in self.walk_integrals(x0, times, range(1, len(times)), rngs))

    def walk_integrals(self, x0, times, nodes, rngs):
        """Yield ``(max(v, 0), y)`` and its left-rule integral over ``times`` at each of ``nodes``.

        Each substep draws an ``xi1`` row and steps y without its W2 part G
        over the record interval (node to node), a Gaussian given v's path
        whose variance ``var`` accumulates as it steps.  After the interval's
        ``xi1`` rows a row zeta1 adds G = sqrt(var) zeta1 to y.  An interval
        of several steps also steps y's integral without its W2 part H, whose
        variance ``var_h`` and covariance ``cov`` with G accumulate too; a
        row zeta2 then draws H = cov / sqrt(var) zeta1 + sqrt(var_h - cov^2 /
        var) zeta2, 0 where var is.  The yielded pair is two buffers
        rewritten per node.
        """
        nodes = [int(k) for k in nodes]
        if not nodes:
            return
        dts, counts = self._substep_plan(times)
        spans = np.diff([0] + nodes)
        rows = int(np.sum(counts[:nodes[-1]])) + int(np.sum(np.where(spans > 1, 2, 1)))
        shape = (len(rngs), BLOCK_PATHS)
        # row-major noise, (rows, BLOCK_PATHS) per block: every row a substep
        # reads is contiguous within its block
        noise = np.empty((len(rngs), _NOISE_ROWS, BLOCK_PATHS))
        # the yielded state and integral, rewritten at every node
        state, area = np.empty(shape + (2,)), np.empty(shape + (2,))

        v = np.full(shape, x0[0])
        y = np.full(shape, x0[1])
        vp = np.maximum(v, 0.0)
        iv, iy = np.zeros(shape), np.zeros(shape)  # the integrals of v+ and y
        sq, dw1, drift, diffusion, var, cov, var_h = (np.empty(shape) for _ in range(7))
        pos = 0

        def next_row():
            nonlocal pos
            w = pos % _NOISE_ROWS
            if w == 0:
                _fill_normals(rngs, noise[:, :rows - pos])
            pos += 1
            return noise[:, w]

        i = 0
        for node in nodes:
            joint = node - i > 1  # G and H are drawn at the node
            for acc in (var, cov, var_h):
                acc.fill(0.0)
            for i in range(i, node):
                dt, count = dts[i], counts[i]
                iv += np.multiply(vp, dt, out=drift)
                iy += np.multiply(y, dt, out=drift)
                if joint:  # H += dt G, with var and cov at this node
                    var_h += np.multiply(2.0 * dt, cov, out=drift)
                    var_h += np.multiply(dt * dt, var, out=drift)
                    cov += np.multiply(dt, var, out=drift)
                eta = dt / count
                se = math.sqrt(eta)
                a_eta, b_eta, decay = self.a * eta, self.b * eta, 1.0 - self.lam * eta
                for _ in range(count):
                    np.sqrt(vp, out=sq)
                    sq *= se  # sqrt(v+ eta)
                    np.multiply(sq, next_row(), out=dw1)
                    # v += a eta - (b eta) v+ + sigma dw1
                    np.multiply(b_eta, vp, out=drift)
                    np.subtract(a_eta, drift, out=drift)
                    drift += np.multiply(self.sigma, dw1, out=diffusion)
                    v += drift
                    # y += rho dw1 after y *= 1 - lam eta; var = var decay^2 + rho_c^2 eta v+
                    y *= decay
                    dw1 *= self.rho
                    var *= decay * decay
                    var += np.multiply(self.rho_c**2 * eta, vp, out=diffusion)
                    if joint:
                        cov *= decay
                    y += dw1
                    np.maximum(v, 0.0, out=vp)
            i = node
            np.sqrt(var, out=sq)
            zeta1 = next_row()  # read before zeta2 is drawn: a refill rewrites the window
            y += np.multiply(sq, zeta1, out=drift)
            if joint:
                np.divide(cov, sq, out=cov, where=sq > 0.0)  # cov and var_h vanish with var
                var_h -= np.multiply(cov, cov, out=drift)
                np.sqrt(np.maximum(var_h, 0.0, out=var_h), out=var_h)
                cov *= zeta1
                var_h *= next_row()
                iy += np.add(cov, var_h, out=drift)
            state[..., 0] = vp
            state[..., 1] = y
            area[..., 0] = iv
            area[..., 1] = iy
            yield state.reshape(-1, 2), area.reshape(-1, 2)

    def sample_chunk(self, x0, times, rngs):
        return _recorded(self.walk(x0, times, rngs), x0, times, rngs)


class SquaredStartBrownianSampler(GaussianIncrementSampler):
    """Control process X_t = x0^2 + W_t for t > 0: Markov in name only.

    Its time-t law depends on the start through x0^2, which breaks the affine
    factorization of the exponential functional.  It is the standard Gaussian
    walk started at x0^2, so the square map is applied once per path; the
    recorded t = 0 column still holds x0.
    """

    def __init__(self):
        super().__init__(np.zeros(1), np.eye(1))

    def walk(self, x0, times, rngs):
        return super().walk(x0 ** 2, times, rngs)


# ----------------------------------------------------------------------------
# factories
#
# Generator coefficients are stored complex: a generator multiplies them into
# complex argument stacks once per integrator stage, and with both operands
# complex numpy skips a per-call cast that dominates the cost on one lane.


def _psd_scale(cov: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD covariance (tolerant eigenvalue clip)."""
    w, v = np.linalg.eigh(cov)
    if np.min(w) < -1e-10 * max(1.0, np.max(np.abs(w))):
        raise ValueError(f"covariance is not positive semidefinite (eigenvalues {w})")
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def make_levy(drift, cov) -> AffineModel:
    """Homogeneous Gaussian model on a pure free part (m=0).

    The fiber map is the identity, the scalar factor exp(t*kappa(u)) with
    kappa(u) = <drift, u> + u' cov u / 2, and transitions are sampled exactly.
    """
    drift = np.atleast_1d(np.asarray(drift, dtype=float))
    n = len(drift)
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (n, n):
        raise ValueError(f"covariance must be {n}x{n}, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    scale = _psd_scale(cov)
    dims = Dims(0, n)
    drift_c, cov_c = drift.astype(np.complex128), cov.astype(np.complex128)

    def F(u):
        return u @ drift_c + 0.5 * ((u @ cov_c) * u).sum(axis=-1)

    def R(u):
        return np.zeros(np.shape(u), dtype=np.complex128)

    def closed(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        log_phi = t * complex(F(u_arr))
        return FlowEvaluation(float(t), u_arr, complex(np.exp(log_phi)), u_arr.copy(), log_phi)

    return AffineModel(
        name="levy",
        dims=dims,
        gen=GeneratorPair(F, R),
        sampler=GaussianIncrementSampler(drift, scale),
        sampler_kind="exact",
        closed_flow=closed,
        beta=np.zeros((n, n)),
        params={"drift": drift.tolist(), "cov": cov.tolist()},
        x0_default=np.zeros(n),
    )


def make_cir(a: float, b: float, sigma: float) -> AffineModel:
    """Square-root diffusion on the half-line (m=1, n=0).

    Flow in closed form: with E(t) = (1 - e^{-bt})/b,

        psi(t, u) = u e^{-bt} / (1 - sigma^2 u E(t)/2)
        log phi(t, u) = -(2a/sigma^2) log(1 - sigma^2 u E(t)/2)

    For Re u <= 0 the log argument stays in the right half-plane, so the
    principal branch is already the continuous one.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    dims = Dims(1, 0)
    sig2 = sigma**2
    a_c, half_sig2, b_c = (np.array(complex(c)) for c in (a, 0.5 * sig2, b))

    def F(u):
        return a_c * u[..., 0]

    def R(u):
        return half_sig2 * u**2 - b_c * u

    def closed(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        uu = u_arr[0]
        e_fac = t if b == 0.0 else -math.expm1(-b * t) / b
        w = 1.0 - 0.5 * sig2 * uu * e_fac
        psi = np.array([uu * np.exp(-b * t) / w])
        log_phi = -(2.0 * a / sig2) * np.log(w)
        return FlowEvaluation(float(t), u_arr, complex(np.exp(log_phi)), psi, complex(log_phi))

    return AffineModel(
        name="cir",
        dims=dims,
        gen=GeneratorPair(F, R),
        sampler=CirExactSampler(a, b, sigma),
        sampler_kind="exact",
        closed_flow=closed,
        beta=np.zeros((0, 0)),
        params={"a": a, "b": b, "sigma": sigma},
        x0_default=np.array([1.0]),
    )


def _heston_closed_factory(a, b, sigma, rho):
    """Closed flow for the mixed model without free-component drift (lam=0).

    Solves the scalar Riccati A x^2 + B x + C with A = sigma^2/2,
    B = rho sigma u2 - b, C = u2^2/2 along the branch-stable root convention
    (Re d >= 0, decaying exponentials only), so the principal logarithm is the
    continuous one on the half-space.
    """
    A = 0.5 * sigma**2

    def closed(t, u):
        u_arr = np.asarray(u, dtype=np.complex128)
        u1, u2 = u_arr
        B = rho * sigma * u2 - b
        C = 0.5 * u2 * u2
        disc = B * B - 4.0 * A * C
        d = np.sqrt(disc)
        if d.real < 0:
            d = -d
        if abs(disc) <= 64.0 * np.finfo(float).eps * max(1.0, abs(B)) ** 2:
            # double root up to rounding: the flow is even in d, so d = 0 errs
            # by O(d^2 t^2) where the general branch would cancel digits away
            r = -B / (2.0 * A)
            denom = 1.0 - A * (u1 - r) * t
            psi1 = r + (u1 - r) / denom
            log_phi = a * (r * t - (2.0 / sigma**2) * np.log(denom))
        else:
            rp = (-B + d) / (2.0 * A)
            rm = (-B - d) / (2.0 * A)
            if abs(u1 - rp) < 1e-14 * max(1.0, abs(rp)):
                psi1 = rp
                log_phi = a * rp * t
            else:
                kt = (u1 - rm) / (u1 - rp)
                e = np.exp(-d * t)
                psi1 = (rm - rp * kt * e) / (1.0 - kt * e)
                log_phi = a * (rm * t - (2.0 / sigma**2) * np.log((1.0 - kt * e) / (1.0 - kt)))
        psi = np.array([psi1, u2])
        return FlowEvaluation(float(t), u_arr, complex(np.exp(log_phi)), psi, complex(log_phi))

    return closed


def make_heston_like(a: float, b: float, sigma: float, rho: float, lam: float,
                     euler_dt: float = 1e-3) -> AffineModel:
    """Stochastic-volatility pair (m=1, n=1): cone factor v, free factor y.

        dv = (a - b v) dt + sigma sqrt(v) dW1
        dy = -lam y dt + sqrt(v) (rho dW1 + sqrt(1-rho^2) dW2)

    lam = 0 makes the free component drift-free in the flow (semi-homogeneous
    case, closed flow available); lam != 0 gives the 1x1 drift matrix (-lam).
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if abs(rho) > 1:
        raise ValueError("rho must lie in [-1, 1]")
    dims = Dims(1, 1)
    sig2 = sigma**2
    a_c = np.array(complex(a))
    # R(u) = (u'Qu - b u1, -lam u2) in matrix products: ``@ to_first`` sums
    # the quadratic form u'Qu = sig2/2 u1^2 + rho sigma u1 u2 + u2^2/2 into
    # the first component.
    quad = np.array([[0.5 * sig2, 0.0], [rho * sigma, 0.5]], dtype=np.complex128)
    to_first = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
    lin = np.array([[-b, 0.0], [0.0, -lam]], dtype=np.complex128)

    def F(u):
        return a_c * u[..., 0]

    def R(u):
        return ((u @ quad) * u) @ to_first + u @ lin

    return AffineModel(
        name="heston",
        dims=dims,
        gen=GeneratorPair(F, R),
        sampler=HestonEulerSampler(a, b, sigma, rho, lam, max_dt=euler_dt),
        sampler_kind="euler-full-truncation",
        closed_flow=_heston_closed_factory(a, b, sigma, rho) if lam == 0.0 else None,
        beta=np.array([[-lam]]),
        params={"a": a, "b": b, "sigma": sigma, "rho": rho, "lam": lam, "euler_dt": euler_dt},
        x0_default=np.array([0.3, 0.5]),
    )


def make_nonaffine_control() -> AffineModel:
    """Non-affine control process on the line: X_t = x0^2 + W_t for t > 0.

    Carries no generator or flow; it exists so the statistical checks have a
    process that must fail the affine factorization.
    """
    return AffineModel(
        name="nonaffine_control",
        dims=Dims(0, 1),
        gen=None,
        sampler=SquaredStartBrownianSampler(),
        sampler_kind="exact",
        closed_flow=None,
        beta=None,
        params={},
        x0_default=np.array([0.7]),
    )


MODEL_FACTORIES: dict[str, Callable[..., AffineModel]] = {
    "levy": make_levy,
    "cir": make_cir,
    "heston": make_heston_like,
    "nonaffine_control": make_nonaffine_control,
}


def model_from_spec(name: str, params: dict | None = None) -> AffineModel:
    """Build a catalog model from a name and parameter map; unknown names fail hard."""
    if name not in MODEL_FACTORIES:
        raise ValueError(f"unknown model {name!r}; known: {sorted(MODEL_FACTORIES)}")
    return MODEL_FACTORIES[name](**(params or {}))


# ----------------------------------------------------------------------------
# simulation


def uniform_times(horizon: float, grid_step: float) -> np.ndarray:
    """The uniform grid 0, h, 2h, ..., horizon (horizon must sit on the grid)."""
    if horizon <= 0 or grid_step <= 0:
        raise ValueError("horizon and grid_step must be positive")
    n_steps = int(round(horizon / grid_step))
    if n_steps < 1 or abs(n_steps * grid_step - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not a multiple of grid_step {grid_step}")
    return np.arange(n_steps + 1) * grid_step


# Paths per sampler call in ``sample_grid``, a multiple of ``BLOCK_PATHS``; it
# bounds the samplers' working arrays and changes no value.  At a chunk's peak
# these are the sampler's output on the record times and, for Heston, a noise
# window of ``_NOISE_ROWS`` rows.  The frame sampler adds only a few
# (paths, d) arrays, the running integral among them; of the base samplers,
# only the Gaussian ones hold arrays over the grid: their normals and, for
# the Gaussian model, the normals' product with the scale.
CHUNK_PATHS = 4096


def _sub_seeds(seed, count: int) -> list[int]:
    """``count`` independent integer seeds derived from ``seed`` (one per start or stage)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint32)]


def sample_grid(model: AffineModel, x0, record_times, n_paths: int, seed,
                path_offset: int = 0) -> np.ndarray:
    """Sample path values on ``record_times`` for ``n_paths`` paths.

    Returns an array of shape (n_paths, len(record_times), d).  Row p is path
    ``path_offset + p``; the sampler runs on whole blocks, chunk by chunk,
    from the block holding the first requested path, and only the requested
    rows are kept.  Since each block draws from its own stream, the result
    equals rows [offset, offset+n) of a run from offset 0 bit for bit, and
    neither ``CHUNK_PATHS`` nor slicing a big ensemble changes any value.
    """
    times = np.asarray(record_times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("record_times must be strictly increasing and start at 0")
    x0_arr = as_state(x0, model.dims)
    if n_paths < 1:
        raise ValueError("need at least one path")
    if path_offset < 0:
        raise ValueError("path_offset must be nonnegative")

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    end = path_offset + n_paths
    last_block, per_chunk = -(-end // BLOCK_PATHS), CHUNK_PATHS // BLOCK_PATHS
    out = np.empty((n_paths, len(times), model.dims.d))
    for first in range(path_offset // BLOCK_PATHS, last_block, per_chunk):
        blocks = range(first, min(first + per_chunk, last_block))
        rngs = [np.random.default_rng(np.random.SeedSequence(
                    entropy=root.entropy, spawn_key=(*root.spawn_key, b))) for b in blocks]
        chunk = model.sampler.sample_chunk(x0_arr, times, rngs)
        start = first * BLOCK_PATHS
        lo, hi = max(start, path_offset), min(start + len(chunk), end)
        out[lo - path_offset:hi - path_offset] = chunk[lo - start:hi - start]
    return out


def simulate(model: AffineModel, x0, horizon: float, grid_step: float, n_paths: int,
             seed) -> tuple[np.ndarray, np.ndarray]:
    """Sample paths on the uniform grid 0, grid_step, ..., horizon.

    Returns ``(times, values)`` with ``values`` as ``sample_grid`` returns it.
    """
    times = uniform_times(horizon, grid_step)
    return times, sample_grid(model, x0, times, n_paths, seed)
