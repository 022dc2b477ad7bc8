"""State-space geometry shared by every other module.

The state space is the product of an m-dimensional nonnegative cone and an
n-dimensional free real part.  Transform arguments u live in the complex
half-space ``{Re u <= 0 on the cone components, Re u = 0 on the free ones}``;
everything downstream (flow integration, verification probes, the moving
frame) speaks in terms of the classification implemented here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dims",
    "Region",
    "Tolerances",
    "classify_region",
    "half_space_bounds",
    "outside_half_space",
    "in_domain_interior",
    "as_point",
    "as_state",
]


@dataclass(frozen=True)
class Dims:
    """Shape of the state space: m cone components followed by n real ones."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError(f"component counts must be nonnegative, got m={self.m}, n={self.n}")
        if self.m + self.n < 1:
            raise ValueError("state space needs at least one component")

    @property
    def d(self) -> int:
        return self.m + self.n

    @property
    def I(self) -> slice:
        """Slice selecting the nonnegative (cone) components."""
        return slice(0, self.m)

    @property
    def J(self) -> slice:
        """Slice selecting the unconstrained real components."""
        return slice(self.m, self.m + self.n)


class Region(enum.Enum):
    """Where a transform argument sits relative to the admissible half-space."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    PURE_IMAGINARY = "pure_imaginary"
    OUTSIDE = "outside"


REGION_EPS = 1e-12   # band width for region classification and domain-exit tests
Q_ZERO_EPS = 1e-300  # |phi| level treated as a vanishing transform (domain exit)


@dataclass(frozen=True)
class Tolerances:
    """Local error targets of the adaptive flow integrator.

    ode_rel      relative local error target
    ode_abs      absolute local error target
    """

    ode_rel: float = 1e-10
    ode_abs: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("ode_rel", "ode_abs"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"tolerance {name} must be strictly positive")


def as_point(u, dims: Dims) -> np.ndarray:
    """Coerce ``u`` to a complex vector of length ``dims.d``."""
    arr = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    if arr.shape != (dims.d,):
        raise ValueError(f"expected a point of dimension {dims.d}, got shape {arr.shape}")
    return arr


def as_state(x, dims: Dims) -> np.ndarray:
    """Coerce ``x`` to a real state vector, enforcing cone nonnegativity."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.shape != (dims.d,):
        raise ValueError(f"expected a state of dimension {dims.d}, got shape {arr.shape}")
    if dims.m and np.min(arr[dims.I]) < 0:
        raise ValueError(f"cone components must be nonnegative, got {arr[dims.I]}")
    return arr


def half_space_bounds(dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``(lo, hi)``, shape (d,), on the real parts of an admissible argument.

    A cone component has real part at most ``REGION_EPS``; a free component
    lies within ``REGION_EPS`` of 0.
    """
    lo = np.array([-np.inf] * dims.m + [-REGION_EPS] * dims.n)
    return lo, np.array([REGION_EPS] * dims.d)


def outside_half_space(u, dims: Dims) -> np.ndarray:
    """Mask of the components of the ``(..., d)`` stack ``u`` outside the half-space.

    A component is outside when its real part breaks :func:`half_space_bounds`;
    a NaN real part is outside.
    """
    lo, hi = half_space_bounds(dims)
    re = np.real(u)
    return ~((re >= lo) & (re <= hi))


def classify_region(u, dims: Dims) -> Region:
    """Classify a transform argument against the admissible half-space.

    Purely imaginary points are reported as such even though for m >= 1 they
    also sit on the boundary of the half-space; interiority requires every
    cone component to have real part below ``-REGION_EPS`` while the real
    parts of the free components stay inside the tolerance band.
    """
    arr = as_point(u, dims)
    if outside_half_space(arr, dims).any():
        return Region.OUTSIDE
    re = arr.real
    if np.max(np.abs(re)) <= REGION_EPS:
        return Region.PURE_IMAGINARY
    # some cone component has real part below -REGION_EPS
    return Region.INTERIOR if np.max(re[dims.I]) < -REGION_EPS else Region.BOUNDARY


def in_domain_interior(u, dims: Dims) -> bool:
    """True when u is admissible and every cone component is strictly inside (vacuous for m=0)."""
    return classify_region(u, dims) is (Region.INTERIOR if dims.m else Region.PURE_IMAGINARY)
