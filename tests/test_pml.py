import numpy as np
import pytest

from elastowave import pml
from elastowave.errors import InvalidExtent, InvalidTol
from elastowave.mesh import build_mesh
from elastowave.operators import build_operators
from elastowave.physics import material_from_speeds


def test_profile_zero_inside_and_at_interface():
    x = np.linspace(-50.0, 50.0, 201)
    d = pml.damping_at(x, -50.0, 50.0, 10.0, 10.0, 16.58)
    assert not d.any()


def test_profile_monotone_and_clamped():
    x = np.linspace(50.0, 75.0, 500)
    d = pml.damping_at(x, -50.0, 50.0, 10.0, 10.0, 2.0)
    assert (np.diff(d) >= 0).all()
    assert d[0] == 0.0
    # saturates at the peak past the nominal width
    assert d[-1] == pytest.approx(2.0)
    assert pml.damping_at(61.0, -50.0, 50.0, 10.0, 10.0, 2.0) == pytest.approx(2.0)


def test_profile_cubic_shape():
    # halfway through the layer: (1/2)^3 of the peak
    d = pml.damping_at(-55.0, -50.0, 50.0, 10.0, 10.0, 8.0)
    assert d == pytest.approx(1.0)


def test_one_sided_layer():
    d = pml.damping_at(np.array([-59.0, 59.0]), -50.0, 50.0, 10.0, 0.0, 1.0)
    assert d[0] > 0.0 and d[1] == 0.0


def test_d0_benchmark_value():
    # 6 km/s over a 10 km layer at 1e-6 amplitude tolerance
    d0 = pml.d0_from_tol(6.0, 10.0, 1e-6)
    assert d0 == pytest.approx(16.58, abs=5e-3)
    # unit system drops out of cp/delta
    assert pml.d0_from_tol(6000.0, 10000.0, 1e-6) == pytest.approx(d0)


def test_d0_tol_guards():
    for bad in (0.0, -1e-3, 1.0 + 1e-9, 2.0):
        with pytest.raises(InvalidTol):
            pml.d0_from_tol(6.0, 10.0, bad)
    assert pml.d0_from_tol(6.0, 10.0, 1.0) == 0.0
    with pytest.raises(InvalidTol):
        pml.d0_from_tol(6.0, 0.0, 0.5)


def test_resolve_tol_values():
    assert pml.resolve_tol(5, 5.0, 50.0) == pytest.approx(60.0 ** -6)
    assert pml.resolve_tol(2, 10.0, 50.0) == pytest.approx(15.0 ** -3)
    with pytest.raises(InvalidTol):
        pml.resolve_tol(0, 5.0, 50.0)
    with pytest.raises(InvalidTol):
        pml.resolve_tol(5, -1.0, 50.0)


def strip_mesh():
    m = material_from_speeds(2700.0, 6000.0, 3464.0)
    return build_mesh((-60.0, 0.0), (60.0, 50.0), (24, 10), (m,),
                      {("y", -1): 1.0, ("y", 1): 1.0})


def test_interior_box():
    mesh = strip_mesh()
    lo, hi = pml.interior_box(mesh, {"x": (10.0, 10.0)})
    assert lo == pytest.approx([-50.0, 0.0])
    assert hi == pytest.approx([50.0, 50.0])
    with pytest.raises(InvalidExtent):
        pml.interior_box(mesh, {"x": (70.0, 70.0)})


def test_build_damping_membership():
    mesh = strip_mesh()
    ops = build_operators(5, "GLL")
    tables = pml.build_damping(mesh, ops, {"x": (10.0, 10.0)}, 16.58, 0.15)
    assert len(tables) == 1
    tab = tables[0]
    assert tab.axis == "x" and tab.axis_index == 0
    # two columns per side (elements 0, 1, 22, 23), full y extent
    assert (tab.lo, tab.hi) == (2, 2)
    assert tab.damp.shape == (4, 6)
    # interior-facing edges of the inner columns carry zero damping
    assert tab.damp[1, -1] == pytest.approx(0.0)
    assert tab.damp[2, 0] == pytest.approx(0.0)
    # outer edges saturate at the peak
    assert tab.damp[0, 0] == pytest.approx(16.58)
    assert tab.damp[3, -1] == pytest.approx(16.58)
    assert (tab.damp >= 0).all()
    assert tab.alpha == 0.15


def test_build_damping_nodal_values():
    mesh = strip_mesh()
    ops = build_operators(1, "GLL")
    tables = pml.build_damping(mesh, ops, {"x": (10.0, 10.0)}, 2.0, 0.0)
    tab = tables[0]
    row = tab.damp[0]
    # nodes at x = -60 and -55: penetration 10 and 5 km
    assert row == pytest.approx([2.0, 2.0 * 0.125])


@pytest.mark.parametrize("dim", [2, 3])
def test_build_damping_resolves_peak_and_shift(dim):
    # the fastest P speed sets each axis's peak over its wider layer;
    # alpha defaults to 0.15 1/s in 2D and cp/(10 w) in 3D
    slow = material_from_speeds(2700.0, 4000.0, 2000.0)
    fast = material_from_speeds(2700.0, 6000.0, 3464.0)
    mesh = build_mesh((0.0,) * dim, (80.0,) * dim, (8,) * dim,
                      (slow, fast), region=("x", 40.0, 1))
    ops = build_operators(2, "GLL")
    widths = {"x": (10.0, 20.0), "y": (0.0, 30.0)}
    tables = pml.build_damping(mesh, ops, widths, tol=1e-3)
    assert [t.axis for t in tables] == ["x", "y"]
    assert [t.d0 for t in tables] == [pml.d0_from_tol(6000.0, w, 1e-3)
                                      for w in (20.0, 30.0)]
    for tab in tables:
        assert tab.damp.max() == pytest.approx(tab.d0)
        assert tab.alpha == (0.15 if dim == 2 else 6000.0 / 300.0)
    explicit = pml.build_damping(mesh, ops, widths, 3.0, 0.7, tol=1e-3)
    assert [(t.d0, t.alpha) for t in explicit] == [(3.0, 0.7)] * 2
    with pytest.raises(InvalidTol, match="d0 or a tolerance"):
        pml.build_damping(mesh, ops, widths)


def test_build_damping_disabled():
    mesh = strip_mesh()
    ops = build_operators(3, "GLL")
    assert pml.build_damping(mesh, ops, {}, 1.0, 0.0) == []
    assert pml.build_damping(mesh, ops, {"x": (0.0, 0.0)}, 1.0, 0.0) == []


@pytest.mark.parametrize("widths,match", [
    ({"z": (2.5, 2.5)}, "'z'"),
    ({"X": (2.5, 2.5)}, "'X'"),
    ({"x": (-2.5, 2.5)}, "-2.5"),
    ({"y": (1.0, float("nan"))}, "nan"),
])
def test_build_damping_names_bad_layers(widths, match):
    # a 2D mesh has no z layer, axis names are lower case, and a width
    # is not negative; each used to pass without an error
    mesh = strip_mesh()
    ops = build_operators(3, "GLL")
    with pytest.raises(InvalidExtent, match=match):
        pml.build_damping(mesh, ops, widths, 1.0, 0.0)


def test_interior_box_rejects_negative_width():
    with pytest.raises(InvalidExtent, match="-10.0, 10.0 on x"):
        pml.interior_box(strip_mesh(), {"x": (-10.0, 10.0)})
