import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastowave import mesh as msh
from elastowave import solver
from elastowave.errors import (
    InvalidExtent,
    InvalidReflectionCoefficient,
    PointOutsideDomain,
)
from elastowave.operators import build_operators
from elastowave.physics import material_from_lame, material_from_speeds

MAT = material_from_lame(1.0, 1.0, 1.0)


def spec2d(**kw):
    """build_mesh's arguments for a 2x2 grid on [0, 10]^2, updated by kw."""
    base = dict(mins=(0.0, 0.0), maxs=(10.0, 10.0), counts=(2, 2),
                materials=(MAT,))
    base.update(kw)
    return base


def test_strip_geometry():
    # 120 km x 50 km box at 5 km spacing: 24 x 10 elements
    s = spec2d(mins=(-60e3, 0.0), maxs=(60e3, 50e3), counts=(24, 10))
    m = msh.build_mesh(**s)
    assert m.spacings == (5e3, 5e3)
    assert m.counts == (24, 10)


def test_unit_box_jacobian():
    m = msh.build_mesh((0, 0, 0), (1, 1, 1), (1, 1, 1), (MAT,))
    assert m.dim == 3
    assert m.jacobian == pytest.approx(1 / 8)


def test_loh1_element_count():
    m = msh.build_mesh((0.0, -2.287e3, -2.287e3),
                       (16.333e3, 14.046e3, 14.046e3), (25, 25, 25), (MAT,))
    assert m.counts == (25, 25, 25)


def test_extent_validation():
    with pytest.raises(InvalidExtent):
        msh.build_mesh(**spec2d(maxs=(0.0, 10.0)))
    with pytest.raises(InvalidExtent):
        msh.build_mesh(**spec2d(counts=(0, 2)))


@pytest.mark.parametrize("mins, maxs, counts", [
    ((0.0, 0.0), (1.0, 1.0, 1.0), (1, 1, 1)),
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1, 1)),
    ((0.0,) * 4, (1.0,) * 4, (1,) * 4)])
def test_dimension_is_read_from_mins(mins, maxs, counts):
    with pytest.raises(InvalidExtent):
        msh.build_mesh(mins, maxs, counts, (MAT,))


@pytest.mark.parametrize("axis", ["q", "z"])
def test_region_axis_must_be_a_mesh_axis(axis):
    with pytest.raises(InvalidExtent, match=f"'{axis}'"):
        msh.build_mesh(**spec2d(materials=(MAT, MAT), region=(axis, 5.0, 1)))


def test_region_needs_a_threshold():
    with pytest.raises(InvalidExtent, match="region_threshold"):
        msh.build_mesh(**spec2d(materials=(MAT, MAT),
                                region=("x", None, 1)))


def test_gamma_validation():
    with pytest.raises(InvalidReflectionCoefficient):
        msh.build_mesh(**spec2d(gamma={("x", -1): 1.5}))
    m = msh.build_mesh(**spec2d(gamma={("y", -1): 1.0, ("x", 1): (1.0, -1.0)}))
    assert (m.gamma[("y", -1)] == 1.0).all()
    assert tuple(m.gamma[("x", 1)]) == (1.0, -1.0)
    assert (m.gamma[("y", 1)] == 0.0).all()  # absorbing default


@pytest.mark.parametrize("gamma", [float("nan"), (0.5, float("nan"))])
def test_gamma_validation_rejects_nan(gamma):
    # a NaN reflection coefficient used to pass as [nan nan]
    with pytest.raises(InvalidReflectionCoefficient):
        msh.build_mesh(**spec2d(gamma={("x", 1): gamma}))


def to_physical(m, elem, ref):
    """Affine map through the solver's node coordinates: at degree 1 the
    GLL nodes of an element are its corners."""
    corners = solver.nodal_coordinates(
        solver.discretize(m, build_operators(1, "GLL")))
    out = []
    for a, x in enumerate(corners):
        lo = x[elem + (0,) * m.dim]
        hi = x[elem + tuple(1 if k == a else 0 for k in range(m.dim))]
        out.append(lo + 0.5 * (ref[a] + 1.0) * (hi - lo))
    return tuple(out)


def test_to_physical_edges():
    m = msh.build_mesh(**spec2d())
    assert to_physical(m, (0, 0), (-1.0, -1.0)) == (0.0, 0.0)
    assert to_physical(m, (0, 0), (1.0, 1.0)) == (5.0, 5.0)
    assert to_physical(m, (1, 1), (0.0, 0.0)) == (7.5, 7.5)


def test_locate_point_examples():
    m = msh.build_mesh(**spec2d())
    elem, ref = msh.locate_point(m, (2.5, 2.5))
    assert elem == (0, 0) and ref == (0.0, 0.0)
    # point exactly on the internal edge goes to the lower element
    elem, ref = msh.locate_point(m, (5.0, 2.5))
    assert elem == (0, 0) and ref == (1.0, 0.0)
    elem, ref = msh.locate_point(m, (10.0, 10.0))
    assert elem == (1, 1) and ref == (1.0, 1.0)
    with pytest.raises(PointOutsideDomain):
        msh.locate_point(m, (10.1, 5.0))
    # within snapping tolerance
    elem, ref = msh.locate_point(m, (10.0 + 1e-9, 5.0))
    assert elem[0] == 1 and ref[0] == 1.0


@pytest.mark.parametrize("point,axis", [((np.nan, 5.0), 0),
                                        ((5.0, np.nan), 1)])
def test_locate_point_rejects_nan(point, axis):
    # NaN passed both range tests and failed in int(): a bare ValueError
    m = msh.build_mesh(**spec2d())
    with pytest.raises(PointOutsideDomain, match=f"on axis {axis}$"):
        msh.locate_point(m, point)


def test_locate_roundtrip_loh1_source():
    m = msh.build_mesh((0.0, -2.287e3, -2.287e3),
                       (16.333e3, 14.046e3, 14.046e3), (25, 25, 25), (MAT,))
    pt = (2e3, 0.0, 0.0)
    elem, ref = msh.locate_point(m, pt)
    back = to_physical(m, elem, ref)
    assert np.abs(np.subtract(back, pt)).max() <= 1e-12 * 16.333e3


@given(st.floats(0.001, 9.999), st.floats(0.001, 9.999))
@settings(max_examples=80, deadline=None)
def test_locate_roundtrip_property(x, y):
    m = msh.build_mesh(**spec2d(counts=(3, 4)))
    elem, ref = msh.locate_point(m, (x, y))
    back = to_physical(m, elem, ref)
    assert abs(back[0] - x) <= 1e-12 * 10
    assert abs(back[1] - y) <= 1e-12 * 10
    assert all(-1.0 <= r <= 1.0 for r in ref)


def test_material_region_by_centroid():
    soft = material_from_speeds(2600.0, 4000.0, 2000.0)
    hard = material_from_speeds(2700.0, 6000.0, 3464.0)
    m = msh.build_mesh((0.0, -2.287e3, -2.287e3),
                       (16.333e3, 14.046e3, 14.046e3), (25, 25, 25),
                       (hard, soft), region=("x", 1e3, 1))
    dx = m.spacings[0]
    for i in range(25):
        want = 1 if (i + 0.5) * dx < 1e3 else 0
        assert (m.material_ids[i] == want).all()
    # slab boundary inside element 1: centroid decides
    assert m.material_ids[0, 0, 0] == 1
    assert m.material_ids[1, 0, 0] == 1
    assert m.material_ids[2, 0, 0] == 0
