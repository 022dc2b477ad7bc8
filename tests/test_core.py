"""State-space geometry: dims and region classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineflow.core import (
    Dims,
    Region,
    Tolerances,
    as_point,
    as_state,
    classify_region,
    in_domain_interior,
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
