import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastowave import flux as fl
from elastowave.errors import InvalidReflectionCoefficient

finite = st.floats(-10, 10)
zpos = st.floats(0.5, 50)
gammas = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
sides = st.sampled_from([-1, 1])


def outgoing(v, T, Z, side):
    return 0.5 * (Z * v - side * T)


def ingoing(v, T, Z, side):
    return 0.5 * (Z * v + side * T)


def test_free_surface_hat():
    vh, th = fl.hat_boundary(0.3, -2.0, 4.0, 1.0, +1)
    assert th == 0.0
    assert outgoing(vh, th, 4.0, +1) == pytest.approx(outgoing(0.3, -2.0, 4.0, +1))


def test_clamped_hat():
    vh, th = fl.hat_boundary(0.3, -2.0, 4.0, -1.0, -1)
    assert vh == 0.0
    assert outgoing(vh, th, 4.0, -1) == pytest.approx(outgoing(0.3, -2.0, 4.0, -1))


def test_absorbing_hat():
    for side in (-1, 1):
        vh, th = fl.hat_boundary(0.7, 1.3, 2.0, 0.0, side)
        assert ingoing(vh, th, 2.0, side) == pytest.approx(0.0, abs=1e-15)


def test_gamma_guard():
    with pytest.raises(InvalidReflectionCoefficient):
        fl.hat_boundary(0.0, 0.0, 1.0, 1.5, +1)


@pytest.mark.parametrize("gamma", [np.nan, [0.5, np.nan]])
def test_gamma_guard_rejects_nan(gamma):
    with pytest.raises(InvalidReflectionCoefficient):
        fl.hat_boundary(0.3, -2.0, 4.0, gamma, 1)


@given(finite, finite, zpos, gammas, sides)
@settings(max_examples=300, deadline=None)
def test_boundary_condition_residual(v, T, Z, gamma, side):
    """The hat state satisfies Z(1-g)vhat/2 + side (1+g)That/2 = 0 and
    preserves the outgoing characteristic."""
    vh, th = fl.hat_boundary(v, T, Z, gamma, side)
    scale = max(1.0, Z * abs(v), abs(T))
    bc = 0.5 * Z * (1 - gamma) * vh + side * 0.5 * (1 + gamma) * th
    assert abs(bc) <= 1e-12 * scale
    assert abs(outgoing(vh, th, Z, side) - outgoing(v, T, Z, side)) <= 1e-12 * scale
    # reflection relation: ingoing = gamma * outgoing
    assert abs(ingoing(vh, th, Z, side) - gamma * outgoing(v, T, Z, side)) \
        <= 1e-12 * scale
    # sign condition vhat * That: side -1 gives >= 0, side +1 gives <= 0
    assert -side * vh * th >= -1e-12 * scale ** 2 / Z


def test_interface_consistency():
    vh, th = fl.hat_interface(0.4, -1.1, 3.0, 0.4, -1.1, 3.0)
    assert vh == pytest.approx(0.4) and th == pytest.approx(-1.1)


def test_interface_riemann_example():
    # v-=1, v+=0, zero traction, equal impedance: half velocity transmitted,
    # compressive traction -Z/2 (left block pushes right)
    Z = 6.0
    vh, th = fl.hat_interface(1.0, 0.0, Z, 0.0, 0.0, Z)
    assert vh == pytest.approx(0.5)
    assert th == pytest.approx(-Z / 2)


@given(finite, finite, zpos, finite, finite, zpos)
@settings(max_examples=300, deadline=None)
def test_interface_preserves_outgoing(vm, Tm, Zm, vp, Tp, Zp):
    vh, th = fl.hat_interface(vm, Tm, Zm, vp, Tp, Zp)
    scale = max(1.0, Zm * abs(vm), Zp * abs(vp), abs(Tm), abs(Tp))
    # minus side sits at its +1 face, plus side at its -1 face
    assert abs(outgoing(vh, th, Zm, +1) - outgoing(vm, Tm, Zm, +1)) <= 1e-12 * scale
    assert abs(outgoing(vh, th, Zp, -1) - outgoing(vp, Tp, Zp, -1)) <= 1e-12 * scale


def test_fluctuation_examples():
    assert fl.fluctuation(0.5, 1.0, 0.5, 1.0, 2.0, +1) == 0.0
    assert fl.fluctuation(1.0, 0.0, 0.0, 0.0, 2.0, +1) == 1.0
    assert fl.fluctuation(0.0, 2.0, 0.0, 0.0, 2.0, -1) == -1.0


@given(finite, finite, zpos, gammas, sides)
@settings(max_examples=200, deadline=None)
def test_fluctuation_is_ingoing_mismatch(v, T, Z, gamma, side):
    vh, th = fl.hat_boundary(v, T, Z, gamma, side)
    g = fl.fluctuation(v, T, vh, th, Z, side)
    want = ingoing(v, T, Z, side) - ingoing(vh, th, Z, side)
    assert abs(g - want) <= 1e-12 * max(1.0, abs(g))


@given(finite, finite, zpos, gammas, sides)
@settings(max_examples=300, deadline=None)
def test_energy_identity_boundary(v, T, Z, gamma, side):
    """Termwise face-energy identity: the face term equals |G|^2/Z plus the
    hat boundary flux, per family."""
    vh, th = fl.hat_boundary(v, T, Z, gamma, side)
    g = fl.fluctuation(v, T, vh, th, Z, side)
    lhs = v * g + side * T * g / Z - side * v * T
    rhs = g * g / Z - side * th * vh
    scale = max(1.0, abs(lhs), abs(rhs), Z * v * v, T * T / Z)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(finite, finite, zpos, finite, finite, zpos)
@settings(max_examples=300, deadline=None)
def test_energy_identity_interface(vm, Tm, Zm, vp, Tp, Zp):
    vh, th = fl.hat_interface(vm, Tm, Zm, vp, Tp, Zp)
    gm = fl.fluctuation(vm, Tm, vh, th, Zm, +1)
    gp = fl.fluctuation(vp, Tp, vh, th, Zp, -1)
    scale = max(1.0, Zm * abs(vm), Zp * abs(vp), abs(Tm), abs(Tp)) ** 2
    lhs_m = vm * gm + Tm * gm / Zm - vm * Tm
    rhs_m = gm * gm / Zm - th * vh
    assert abs(lhs_m - rhs_m) <= 1e-12 * max(1.0, scale)
    lhs_p = vp * gp - Tp * gp / Zp + vp * Tp
    rhs_p = gp * gp / Zp + th * vh
    assert abs(lhs_p - rhs_p) <= 1e-12 * max(1.0, scale)
