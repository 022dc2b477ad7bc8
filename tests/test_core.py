"""State-space geometry: dims and region classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineflow.core import (
    REGION_EPS,
    Dims,
    Region,
    Tolerances,
    as_point,
    as_state,
    classify_region,
    in_domain_interior,
    outside_half_space,
)

D21 = Dims(2, 1)
D11 = Dims(1, 1)


def test_dims_basic():
    assert D21.d == 3
    assert D21.I == slice(0, 2)
    assert D21.J == slice(2, 3)
    with pytest.raises(ValueError):
        Dims(-1, 2)
    with pytest.raises(ValueError):
        Dims(0, 0)


def test_dims_slices_partition():
    x = np.arange(5.0)
    dims = Dims(3, 2)
    assert np.array_equal(np.concatenate([x[dims.I], x[dims.J]]), x)


def test_tolerances_positive():
    with pytest.raises(ValueError):
        Tolerances(ode_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(ode_abs=-1e-9)


def test_as_point_shape():
    u = as_point(-1.0, Dims(1, 0))
    assert u.shape == (1,) and u.dtype == np.complex128
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], Dims(1, 0))


def test_as_state_cone():
    x = as_state([0.5, -3.0], D11)
    assert x.dtype == np.float64 and x[0] == 0.5
    with pytest.raises(ValueError):
        as_state([-0.5, 0.0], D11)


def test_classify_region_frozen_points():
    assert classify_region([-1.0 + 2j, 0.5j], D11) is Region.INTERIOR
    assert classify_region([0.0 + 1j, -2.0j], D11) is Region.PURE_IMAGINARY
    assert classify_region([1e-13 + 1j, 0.0j], D11) is Region.PURE_IMAGINARY
    assert classify_region([0.1, 0.0], D11) is Region.OUTSIDE
    assert classify_region([-1.0, 0.3], D11) is Region.OUTSIDE  # free real part
    # boundary: cone real part pinned at 0 but another one strictly negative
    assert classify_region([-1.0, 0.0, 1j], Dims(2, 1)) is Region.BOUNDARY


def test_in_domain_interior_vs_in_domain():
    assert classify_region([0.0, 1j], D11) is not Region.OUTSIDE
    assert not in_domain_interior([0.0, 1j], D11)
    assert in_domain_interior([-0.2, 1j], D11)
    # m = 0: every imaginary point is "interior"
    assert in_domain_interior([2.5j], Dims(0, 1))
    assert not in_domain_interior([0.1 + 2.5j], Dims(0, 1))


cone_part = st.floats(min_value=-8.0, max_value=0.0, allow_nan=False)
imag_part = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@st.composite
def admissible_point(draw):
    """A point u of the half-space, dims (2, 1)."""
    return np.array(
        [
            complex(draw(cone_part), draw(imag_part)),
            complex(draw(cone_part), draw(imag_part)),
            complex(0.0, draw(imag_part)),
        ]
    )


@given(admissible_point())
@settings(max_examples=100, deadline=None)
def test_classification_consistency(u):
    """classify_region agrees with the boolean helper on admissible points."""
    region = classify_region(u, D21)
    assert region is not Region.OUTSIDE
    if in_domain_interior(u, D21):
        assert region in (Region.INTERIOR,)


# real parts on both sides of every bound of the half-space, plus NaN and the infinities
real_part = st.sampled_from([0.0, -0.0, REGION_EPS, -REGION_EPS, 2 * REGION_EPS,
                             -2 * REGION_EPS, 1e-13, -1e-13, 0.5, -0.5, np.inf, -np.inf, np.nan])


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_outside_half_space_agrees_with_classify_region(m, n, rows, data):
    """The vectorised mask flags the rows that classify_region calls OUTSIDE, per component."""
    if m + n == 0:
        n = 1
    dims = Dims(m, n)
    re = np.array(data.draw(st.lists(real_part, min_size=rows * dims.d, max_size=rows * dims.d)))
    stack = (re + 1j).reshape(rows, dims.d)
    mask = outside_half_space(stack, dims)
    assert mask.shape == stack.shape
    for row, flags in zip(stack, mask):
        cone, free = row.real[dims.I], row.real[dims.J]
        expected = np.concatenate([~(cone <= REGION_EPS), ~(np.abs(free) <= REGION_EPS)])
        assert np.array_equal(flags, expected)
        assert (classify_region(row, dims) is Region.OUTSIDE) == flags.any()
