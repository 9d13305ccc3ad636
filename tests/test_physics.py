import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastowave import physics as ph
from elastowave.errors import InvalidLame, NotSPD


def test_isotropic_stiffness_examples():
    C = ph.isotropic_stiffness(1.0, 1.0)
    assert (np.diag(C)[:3] == 3.0).all()
    assert C[0, 1] == C[0, 2] == C[1, 2] == 1.0
    assert (np.diag(C)[3:] == 1.0).all()
    assert not C[:3, 3:].any()
    C0 = ph.isotropic_stiffness(0.0, 1.0)
    np.testing.assert_array_equal(C0, np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 1.0]))


def test_voigt_symmetrizes_and_checks_shape():
    M = np.array([[1.0, 2.0, 4.0], [0.0, 5.0, 6.0], [2.0, 8.0, 9.0]])
    np.testing.assert_array_equal(ph.voigt(M, 3), [1.0, 5.0, 9.0, 1.0, 3.0, 7.0])
    np.testing.assert_array_equal(ph.voigt(M[:2, :2], 2), [1.0, 5.0, 1.0])
    with pytest.raises(ValueError, match="tensor must be 2x2"):
        ph.voigt(M, 2)


def test_isotropic_stiffness_from_benchmark_speeds():
    m = ph.material_from_speeds(2.7e3, 6000.0, 3464.0)
    assert m.mu == pytest.approx(3.2398e10, rel=1e-4)
    assert m.lam == pytest.approx(3.2404e10, rel=1e-4)
    assert m.cp == pytest.approx(6000.0, rel=1e-9)
    assert m.cs == pytest.approx(3464.0, rel=1e-9)


def test_lame_preconditions():
    with pytest.raises(InvalidLame):
        ph.isotropic_stiffness(1.0, 0.0)
    with pytest.raises(InvalidLame):
        ph.isotropic_stiffness(-2.0, 1.0)
    # lambda in (-mu, -2mu/3] passes the precondition but is indefinite
    with pytest.raises(NotSPD):
        ph.isotropic_stiffness(-0.7, 1.0)
    with pytest.raises(InvalidLame):
        ph.material_from_lame(0.0, 1.0, 1.0)


@given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.1, 10))
@settings(max_examples=50, deadline=None)
def test_stiffness_spectrum(rho, lam, mu):
    C = ph.isotropic_stiffness(lam, mu)
    ev = np.sort(np.linalg.eigvalsh(C))
    want = np.sort([3 * lam + 2 * mu, 2 * mu, 2 * mu, mu, mu, mu])
    np.testing.assert_allclose(ev, want, rtol=1e-10, atol=1e-12)


def test_wave_speeds_simple():
    m = ph.material_from_lame(1.0, 1.0, 1.0)
    assert m.cp == pytest.approx(np.sqrt(3.0))
    assert m.cs == pytest.approx(1.0)
    m2 = ph.material_from_speeds(2600.0, 4000.0, 2000.0)
    assert (m2.cp, m2.cs) == (pytest.approx(4000.0), pytest.approx(2000.0))


def test_coefficient_matrices_symmetric_binary():
    for dim, axes in ((3, "xyz"), (2, "xy")):
        for ax in axes:
            A = ph.coefficient_matrix(ax, dim)
            assert (A == A.T).all()
            assert set(np.unique(A)) <= {0.0, 1.0}


def test_eigen_spectrum_benchmark_materials():
    for rho, cp, cs in ((2700.0, 6000.0, 3464.0), (2600.0, 4000.0, 2000.0)):
        m = ph.material_from_speeds(rho, cp, cs)
        want = np.sort([cp, -cp, cs, cs, -cs, -cs, 0.0, 0.0, 0.0])
        for ax in "xyz":
            got = ph.eigen_spectrum(m, ax)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * cp)


def test_eigen_spectrum_unit_material():
    m = ph.material_from_lame(1.0, 1.0, 1.0)
    s3 = np.sqrt(3.0)
    want = np.sort([s3, -s3, 1, 1, -1, -1, 0, 0, 0])
    np.testing.assert_allclose(ph.eigen_spectrum(m, "y"), want, atol=1e-12)


def test_2d_restriction_of_coefficients():
    keep = [0, 1, 3, 4, 6]  # vx, vy, xx, yy, xy slots of the 9-component state
    for ax in "xy":
        A3 = ph.coefficient_matrix(ax, 3)[np.ix_(keep, keep)]
        np.testing.assert_array_equal(A3, ph.coefficient_matrix(ax, 2))
    # closure of the in-plane subsystem under z-invariance with vz = 0: the
    # in-plane velocity rows read only in-plane stress slots, equivalently
    # the dropped strain slots (zz, xz, yz) are fed only by vz
    for ax in "xy":
        a = ph.a_block(ax, 3)
        assert not a[np.ix_([0, 1], [2, 4, 5])].any()
    # retained stress rows read no shear strains beyond gamma_xy; the ezz
    # column is harmless because ezz itself stays zero
    C = ph.isotropic_stiffness(2.0, 3.0)
    assert not C[np.ix_([0, 1, 3], [4, 5])].any()
    assert C[3, 2] == 0.0


def test_stiffness_restriction():
    m = ph.material_from_lame(1.0, 2.0, 3.0)
    np.testing.assert_array_equal(
        m.stiffness(2),
        np.array([[8.0, 2.0, 0.0], [2.0, 8.0, 0.0], [0.0, 0.0, 3.0]]))
    np.testing.assert_array_equal(m.stiffness(2),
                                  m.C[np.ix_((0, 1, 3), (0, 1, 3))])
    np.testing.assert_array_equal(m.stiffness(3), m.C)


def test_state_layout_literal():
    assert ph.components(3) == ("vx", "vy", "vz", "sxx", "syy", "szz",
                                "sxy", "sxz", "syz")
    assert ph.components(2) == ("vx", "vy", "sxx", "syy", "sxy")
    assert ph.axes_of(3) == ("x", "y", "z") and ph.axes_of(2) == ("x", "y")
    assert [ph.n_components(d) for d in (2, 3)] == [5, 9]
    slots = {d: {ax: ph.sig_slots(ax, d) for ax in ph.axes_of(d)}
             for d in (2, 3)}
    assert slots[3] == {"x": (3, 6, 7), "y": (6, 4, 8), "z": (7, 8, 5)}
    assert slots[2] == {"x": (2, 4), "y": (4, 3)}
    # the 2D state is the z-free restriction of the 3D one
    assert [ph.COMPONENTS.index(c) for c in ph.components(2)] \
        == [0, 1, 3, 4, 6]
    np.testing.assert_array_equal(
        ph.a_block("y", 3), [[0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0],
                             [0, 0, 0, 0, 0, 1]])
    np.testing.assert_array_equal(ph.a_block("x", 2), [[1, 0, 0], [0, 0, 1]])


def test_sig_slots_match_a_blocks():
    # the slot tables are the nonzero pattern of a_xi^T embedded in the state
    for dim in (2, 3):
        nv = dim
        for ax in ph.axes_of(dim):
            a = ph.a_block(ax, dim)
            slots = ph.sig_slots(ax, dim)
            for fam in range(nv):
                cols = np.nonzero(a[fam])[0]
                assert len(cols) == 1
                assert slots[fam] == nv + cols[0]
