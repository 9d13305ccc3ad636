import numpy as np
import pytest

from elastowave import solver, sources
from elastowave.errors import UnsupportedOrder
from elastowave.mesh import build_mesh
from elastowave.operators import build_operators
from elastowave.physics import material_from_speeds

from test_solver import fresh_rhs

trapz = getattr(np, "trapezoid", None) or np.trapz


def test_gaussian_peak_value():
    stf = sources.GaussianSTF(sigma=0.1149, t0=0.7)
    assert stf.eval(0.7) == pytest.approx(3.4723, abs=5e-4)
    assert stf.eval(0.7) == pytest.approx(1.0 / (0.1149 * np.sqrt(2 * np.pi)))


def test_gaussian_unit_integral():
    stf = sources.GaussianSTF(sigma=0.3, t0=1.0)
    t = np.linspace(1.0 - 12 * 0.3, 1.0 + 12 * 0.3, 20001)
    vals = np.array([stf.eval(x) for x in t])
    assert trapz(vals, t) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gaussian_derivatives_match_finite_differences(k):
    stf = sources.GaussianSTF(sigma=0.25, t0=0.6)
    h = 1e-3
    for t in (0.3, 0.6, 0.9):
        lo = stf.eval(t - h, k - 1)
        hi = stf.eval(t + h, k - 1)
        fd = (hi - lo) / (2 * h)
        assert stf.eval(t, k) == pytest.approx(fd, rel=5e-5, abs=1e-8)


def test_ramp_values():
    stf = sources.RampSTF(T=0.1)
    assert stf.eval(0.1) == pytest.approx(np.exp(-1.0) / 0.1)
    assert stf.eval(0.1) == pytest.approx(3.6788, abs=5e-4)
    assert stf.eval(0.0) == 0.0
    assert stf.eval(-0.5) == 0.0
    assert stf.eval(-0.5, 3) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ramp_derivatives_match_finite_differences(k):
    stf = sources.RampSTF(T=0.2)
    h = 1e-4
    for t in (0.15, 0.4, 1.0):
        fd = (stf.eval(t + h, k - 1) - stf.eval(t - h, k - 1)) / (2 * h)
        # abs floor covers central-difference truncation near zero crossings
        assert stf.eval(t, k) == pytest.approx(fd, rel=1e-5, abs=1e-4)


def test_stf_order_cap():
    stf = sources.GaussianSTF(sigma=0.1)
    stf.eval(0.0, sources.MAX_STF_ORDER)
    with pytest.raises(UnsupportedOrder):
        stf.eval(0.0, sources.MAX_STF_ORDER + 1)
    with pytest.raises(UnsupportedOrder):
        sources.RampSTF(T=0.1).eval(0.5, 21)


def node_point(disc, elem, node):
    """Physical coordinates of one node of one element."""
    return tuple(float(x[elem + node]) for x in solver.nodal_coordinates(disc))


def at_time(state, t):
    return solver.SimulationState(disc=state.disc, t=t, Q=state.Q, w=state.w)


def make_setup(dim=2, degree=3):
    m = material_from_speeds(2.0, 2.0, 1.0)
    mesh = build_mesh((0.0,) * dim, (8.0,) * dim, (4,) * dim, (m,))
    ops = build_operators(degree, "GLL")
    return mesh, ops, solver.discretize(mesh, ops)


def quad_integral(mesh, ops, field):
    # integral of a nodal scalar field over one element
    w = ops.rule.weights
    wgt = w
    for _ in range(mesh.dim - 1):
        wgt = np.multiply.outer(wgt, w)
    return mesh.jacobian * (wgt * field).sum()


def test_injection_integral_consistency():
    mesh, ops, disc = make_setup()
    M = np.array([[2.0e3, 0.5e3], [0.5e3, -1.0e3]])
    stf = sources.GaussianSTF(sigma=0.2, t0=0.5)
    src = sources.MomentTensorSource(mesh, ops, (3.1, 4.7), M, stf)
    dq = np.zeros_like(solver.setup_state(disc).Q)
    src.inject(dq, 0.45)
    g = stf.eval(0.45)
    want = np.array([M[0, 0], M[1, 1], M[0, 1]]) * g
    for i, slot in enumerate((2, 3, 4)):
        got = quad_integral(mesh, ops, dq[(slot,) + src.elem])
        assert got == pytest.approx(want[i], rel=1e-12)
        # nothing leaks into other elements
        assert np.abs(dq[slot]).sum() == pytest.approx(
            np.abs(dq[(slot,) + src.elem]).sum())


def test_injection_at_node_is_cardinal():
    mesh, ops, disc = make_setup()
    elem = (1, 2)
    a, b = 2, 3
    loc = node_point(disc, elem, (a, b))
    stf = sources.RampSTF(T=0.1)
    with pytest.warns(UserWarning):  # node b is an element endpoint
        src = sources.MomentTensorSource(mesh, ops, loc, np.eye(2), stf)
    dq = np.zeros_like(solver.setup_state(disc).Q)
    t = 0.3
    src.inject(dq, t)
    w = ops.rule.weights
    expect = stf.eval(t) / (mesh.jacobian * w[a] * w[b])
    field = dq[(2,) + src.elem]
    assert field[a, b] == pytest.approx(expect, rel=1e-13)
    field[a, b] = 0.0
    assert not field.any()


def test_injection_symmetry_and_superposition():
    mesh, ops, disc = make_setup(dim=3, degree=2)
    stf = sources.GaussianSTF(sigma=0.2, t0=0.0)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    loc = (3.3, 2.2, 5.5)

    def injected(M):
        dq = np.zeros_like(solver.setup_state(disc).Q)
        sources.MomentTensorSource(mesh, ops, loc, M, stf).inject(dq, 0.1)
        return dq

    assert np.array_equal(injected(A), injected(A.T))
    both = injected(A) + injected(B)
    combined = injected(A + B)
    assert np.abs(both - combined).max() <= 1e-13 * np.abs(both).max()


def test_zero_amplitude_leaves_rhs_untouched():
    mesh, ops, disc = make_setup()
    src = sources.MomentTensorSource(mesh, ops, (3.0, 3.0), np.eye(2),
                                     sources.RampSTF(T=0.1))
    st = solver.setup_state(disc)
    dq, _ = fresh_rhs(st.Q, st.w, disc)
    src.inject(dq, 0.0)
    assert not dq.any()


def test_boundary_source_warns():
    mesh, ops, _ = make_setup()
    with pytest.warns(UserWarning):
        sources.MomentTensorSource(mesh, ops, (2.0, 3.0), np.eye(2),
                                   sources.RampSTF(T=0.1))


def test_receiver_at_node_and_constant_field():
    mesh, ops, disc = make_setup()
    elem = (0, 1)
    loc = node_point(disc, elem, (1, 2))
    rec = sources.Receiver(mesh, ops, loc)
    st = solver.setup_state(disc)
    rng = np.random.default_rng(0)
    st.Q[...] = rng.standard_normal(st.Q.shape)
    rec(st)
    assert rec.samples[0][0] == pytest.approx(st.Q[(0,) + elem][1, 2], rel=1e-14)
    assert rec.samples[0][1] == pytest.approx(st.Q[(1,) + elem][1, 2], rel=1e-14)

    st.Q[0] = 4.25
    rec2 = sources.Receiver(mesh, ops, (1.234, 6.831))
    rec2(at_time(st, 1.0))
    assert rec2.samples[0][0] == pytest.approx(4.25, rel=1e-13)


def test_receiver_interval_and_monotonicity():
    mesh, ops, disc = make_setup()
    rec = sources.Receiver(mesh, ops, (3.0, 3.0), interval=0.25)
    st = solver.setup_state(disc)
    for t in np.arange(0.0, 1.01, 0.05):
        rec(at_time(st, float(t)))
    times = rec.series()[0]
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    # duplicate timestamps are dropped, series stays strictly increasing
    rec(at_time(st, 1.0))
    assert len(rec.times) == 5
    # without an interval every advancing call records, repeats do not
    rec = sources.Receiver(mesh, ops, (3.0, 3.0))
    for t in (0.0, 0.1, 0.1, 0.05, 0.2):
        rec(at_time(st, t))
    assert rec.series()[0] == pytest.approx([0.0, 0.1, 0.2])


def test_receiver_samples_once_per_tick():
    # a step that does not divide the interval must not stretch it: the
    # first state at or after each tick k * interval is recorded
    mesh, ops, disc = make_setup()
    rec = sources.Receiver(mesh, ops, (3.0, 3.0), interval=0.1)
    st = solver.setup_state(disc)
    dt = 0.059
    steps = int(np.ceil(2.0 / dt))
    for k in range(steps + 1):
        rec(at_time(st, min(k * dt, 2.0)))
    times = rec.series()[0]
    assert len(times) == 21  # ticks 0, 0.1, ..., 2.0
    ticks = np.arange(21) * 0.1
    assert (times >= ticks - 1e-9).all() and (times < ticks + dt).all()


def _tick_walk(interval, times):
    """Per call, whether it is the first at or after a tick k interval,
    the next tick walked forward one interval at a time."""
    tick, fired = 0.0, []
    for t in times:
        fired.append(t >= tick - 1e-9)
        while fired[-1] and tick <= t + 1e-9:
            tick += interval
    return fired


@pytest.mark.parametrize("interval", [0.05, 0.1, 0.3, 0.5, 0.059 / 3,
                                      1e-3])
def test_interval_gate_fires_on_the_calls_of_the_tick_walk(interval):
    # steps of 0.059 s to 200 s, the last cut short, with a repeated call
    dt, t_end = 0.059, 200.0
    times = [min(k * dt, t_end) for k in range(int(t_end / dt) + 2)]
    times.insert(10, times[9])
    gate = sources.IntervalGate(interval)
    assert [gate(t) for t in times] == _tick_walk(interval, times)


def test_interval_gate_crosses_a_short_interval_at_once():
    # a 1e-12 s gate crosses t = 1 s in one call, not one per tick
    gate = sources.IntervalGate(1e-12)
    times = [0.0, 0.5, 0.5, 1.0, 1.0 + 5e-13, 1.0 + 2e-9]
    assert [gate(t) for t in times] == [True, True, False, True, False,
                                        True]
    # the next tick is the first past the last call's t + 1e-9
    assert 1.0 + 3e-9 < gate.next <= 1.0 + 3e-9 + 2e-12


@pytest.mark.parametrize("interval", [0.0, -0.1, float("nan"),
                                      float("inf")])
def test_interval_gate_rejects_bad_interval(interval):
    # zero or a negative interval never advanced the next tick: the
    # first call looped forever
    with pytest.raises(ValueError, match="interval must be positive"):
        sources.IntervalGate(interval)

