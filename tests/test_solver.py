import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from elastowave import solver
from elastowave.errors import DivergenceDetected, UnsupportedDegree
from elastowave.mesh import MeshSpec, build_mesh
from elastowave.operators import build_operators
from elastowave.physics import material_from_speeds
from elastowave.pml import build_damping

import rhs_oracle


def make_disc(dim=2, counts=(4, 4), degree=3, gamma=None, theta=1.0,
              widths=None, d0=1.0, alpha=0.1, extent=10.0, layered=False):
    # layered: a second, stiffer material below x = extent / 2;
    # "mixed": one of four materials drawn per element, so impedances
    # jump across every axis
    mats = (material_from_speeds(2.0, 2.0, 1.0),)
    if layered:
        mats += (material_from_speeds(3.0, 4.0, 2.1),)
    spec = MeshSpec(dim=dim, mins=(0.0,) * dim, maxs=(extent,) * dim,
                    counts=counts, materials=mats, gamma=gamma or {},
                    region_axis="x" if layered else None,
                    region_threshold=extent / 2 if layered else None)
    mesh = build_mesh(spec)
    if layered == "mixed":
        mats += (material_from_speeds(1.5, 3.0, 1.2),
                 material_from_speeds(2.5, 5.0, 3.0))
        ids = np.random.default_rng(counts).integers(len(mats), size=counts)
        mesh = replace(mesh, materials=mats, material_ids=ids)
    ops = build_operators(degree, "GLL")
    damping = ()
    if widths:
        damping = build_damping(mesh, ops, widths, d0, alpha)
    return solver.discretize(mesh, ops, theta=theta, damping=damping)


def random_state(disc, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    st = solver.setup_state(disc)
    st.Q[...] = scale * rng.standard_normal(st.Q.shape)
    st = solver.SimulationState(
        disc=disc, t=st.t, Q=st.Q,
        w=tuple(scale * rng.standard_normal(wi.shape) for wi in st.w))
    return st


def energy(state):
    disc = state.disc
    mesh, ops = disc.mesh, disc.ops
    dim = mesh.dim
    mat = mesh.materials
    S = [np.linalg.inv(m.stiffness(dim)) for m in mat]
    wq = ops.rule.weights
    wgt = wq
    for _ in range(dim - 1):
        wgt = np.multiply.outer(wgt, wq)
    total = 0.0
    for idx in np.ndindex(*mesh.counts):
        m = mat[mesh.material_ids[idx]]
        q = state.Q[(slice(None),) + idx]
        v, sig = q[:dim], q[dim:]
        dens = 0.5 * m.rho * (v ** 2).sum(axis=0)
        dens = dens + 0.5 * np.einsum("i...,ij,j...->...", sig, S[mesh.material_ids[idx]], sig)
        total += (wgt * dens).sum()
    return mesh.jacobian * total


def test_zero_state_zero_rhs():
    disc = make_disc(widths={"x": (2.5, 2.5)})
    st = solver.setup_state(disc)
    dq, dw = solver._rhs(st.Q, st.w, disc)
    assert not dq.any()
    assert all(not d.any() for d in dw)


def test_constant_velocity_interior_rhs():
    disc = make_disc(counts=(4, 4), gamma={("x", -1): 1.0, ("x", 1): 1.0,
                                           ("y", -1): 1.0, ("y", 1): 1.0})
    st = solver.setup_state(disc)
    st.Q[0] = 0.7
    st.Q[1] = -0.3
    dq, _ = solver._rhs(st.Q, st.w, disc)
    # interior elements see vanishing derivatives and zero fluctuations
    inner = dq[:, 1:-1, 1:-1]
    assert np.abs(inner).max() <= 1e-13


def test_rhs_linearity():
    disc = make_disc(counts=(3, 3), widths={"x": (2.5, 0.0)}, theta=1.0)
    u = random_state(disc, seed=1)
    v = random_state(disc, seed=2)
    a, b = 1.7, -0.4
    comb = solver.SimulationState(
        disc=disc, t=0.0, Q=a * u.Q + b * v.Q,
        w=tuple(a * x + b * y for x, y in zip(u.w, v.w)))
    ru, rv, rc = (solver._rhs(s.Q, s.w, disc) for s in (u, v, comb))
    want = a * ru[0] + b * rv[0]
    assert np.abs(rc[0] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    for duw, dvw, dcw in zip(ru[1], rv[1], rc[1]):
        wantw = a * duw + b * dvw
        assert np.abs(dcw - wantw).max() <= 1e-12 * max(1.0, np.abs(wantw).max())


GAMMA_2D = {("x", -1): (1.0, 0.3), ("x", 1): 0.25, ("y", 1): -1.0}
GAMMA_3D = {("x", -1): (1.0, 0.3, -0.5), ("y", 1): -1.0,
            ("z", -1): (0.0, 1.0, 0.6)}
# a reflection coefficient per wave family on every face
GAMMA_ALL_2D = {("x", -1): (1.0, 0.3), ("x", 1): (-0.4, 0.25),
                ("y", -1): (0.0, -1.0), ("y", 1): (0.7, -0.2)}
GAMMA_ALL_3D = {("x", -1): (1.0, 0.3, -0.5), ("x", 1): (0.2, -1.0, 0.8),
                ("y", -1): (-0.6, 0.0, 1.0), ("y", 1): (0.4, 0.9, -0.3),
                ("z", -1): (0.0, 1.0, 0.6), ("z", 1): (-1.0, -0.7, 0.1)}


@pytest.mark.parametrize("dim,counts,widths,theta,gamma,layered,degree", [
    (2, (4, 3), {"x": (3.0, 3.0)}, 1.0, GAMMA_2D, True, 3),
    (2, (1, 4), {"y": (0.0, 3.0)}, 0.5, GAMMA_2D, False, 3),
    (2, (3, 3), {"x": (3.0, 3.0), "y": (3.0, 0.0)}, 0.0, None, True, 3),
    (3, (3, 3, 3), {"x": (3.0, 3.0), "y": (0.0, 3.0), "z": (3.0, 3.0)},
     0.5, GAMMA_3D, True, 3),
    (3, (1, 3, 2), {"y": (3.0, 3.0)}, 1.0, GAMMA_3D, False, 3),
    (3, (4, 2, 1), {"x": (3.0, 0.0), "y": (0.0, 6.0)}, 0.0, None, True, 3),
    (3, (3, 2, 3), None, 1.0, GAMMA_3D, True, 3),
    # the matmul shapes change with the node count; 5 is the strip degree
    (2, (4, 3), {"x": (3.0, 3.0), "y": (0.0, 3.0)}, 0.5, GAMMA_2D, True, 1),
    (3, (3, 2, 3), {"x": (3.0, 3.0), "z": (3.0, 0.0)}, 1.0, GAMMA_3D, True,
     1),
    (2, (3, 4), {"y": (3.0, 3.0)}, 1.0, GAMMA_2D, False, 2),
    (3, (2, 3, 3), {"y": (3.0, 0.0), "z": (0.0, 3.0)}, 0.5, None, True, 2),
    (2, (4, 3), {"x": (3.0, 3.0)}, 0.0, GAMMA_2D, True, 5),
    (3, (3, 2, 2), {"x": (0.0, 3.0), "y": (3.0, 3.0)}, 1.0, GAMMA_3D, False,
     5),
    (2, (4, 4), {"x": (3.0, 3.0), "y": (0.0, 3.0)}, 0.5, GAMMA_ALL_2D,
     "mixed", 3),
    (3, (3, 3, 3), {"x": (3.0, 3.0), "y": (3.0, 0.0), "z": (0.0, 3.0)},
     1.0, GAMMA_ALL_3D, "mixed", 2),
])
def test_rhs_matches_frozen_oracle(dim, counts, widths, theta, gamma, layered,
                                   degree):
    # the oracle reads the earlier tables (a nonzero-style element index,
    # damp per damped element) and auxiliary fields with all nc rows
    disc = make_disc(dim=dim, counts=counts, degree=degree, gamma=gamma,
                     theta=theta, widths=widths, d0=1.3, alpha=0.2,
                     layered=layered)
    assert len(disc.damping) == len(widths or ())
    st = random_state(disc, seed=sum(counts))
    dq, dw = solver._rhs(st.Q, st.w, disc)
    legacy, full_w, kept = [], [], []
    for tab, wi in zip(disc.damping, st.w):
        ax, count = tab.axis_index, disc.mesh.counts[tab.axis_index]
        elems = np.r_[:tab.lo, count - tab.hi:count]
        member = np.zeros(count, dtype=bool)
        member[elems] = True
        shape = [1] * dim
        shape[ax] = count
        index = np.nonzero(np.broadcast_to(member.reshape(shape),
                                           disc.mesh.counts))
        damp = tab.damp[np.searchsorted(elems, index[ax])]
        legacy.append(SimpleNamespace(axis_index=ax, index=index, damp=damp,
                                      alpha=tab.alpha))
        rows = list(range(dim)) + list(disc.slots[ax])
        full = np.zeros((len(st.Q), len(index[0])) + wi.shape[1 + dim:])
        full[rows] = wi.reshape((len(rows), -1) + wi.shape[1 + dim:])
        full_w.append(full)
        kept.append(rows)
    ref_q, ref_w = rhs_oracle.rhs(st.Q, tuple(full_w),
                                  replace(disc, damping=legacy))
    assert len(dw) == len(ref_w)
    assert dq.shape == ref_q.shape
    assert np.abs(dq - ref_q).max() <= 1e-13 * np.abs(ref_q).max()
    for got, want, rows in zip(dw, ref_w, kept):
        want_kept = want[rows].reshape(got.shape)
        assert np.abs(got - want_kept).max() <= 1e-13 * np.abs(want_kept).max()
        # the rows w no longer stores stay exactly zero in the oracle
        assert not np.delete(want, rows, axis=0).any()


def _peak_states(fn, st):
    """Peak bytes one call of fn allocates, in units of the state size."""
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / st.Q.nbytes


PEAK_WIDTHS = (None, {"x": (2.5, 2.5), "z": (0.0, 2.5)})


@pytest.mark.parametrize("widths,bound", zip(PEAK_WIDTHS, (2.2, 2.7)))
def test_rhs_peak_allocation(widths, bound):
    # the result, one axis's traction gather, derivative and face planes
    # measure 1.9 states, plus the auxiliary rates (w's size, 0.33 states
    # here) with layers.  Full-size derivative and lift scratch arrays
    # took 4.4 / 4.7, a full-size face scratch (rhs_oracle) 5.6 / 6.1
    disc = make_disc(dim=3, counts=(6, 6, 6), degree=3, widths=widths)
    st = random_state(disc)
    assert _peak_states(lambda: solver._rhs(st.Q, st.w, disc), st) <= bound


@pytest.mark.parametrize("widths,bound", zip(PEAK_WIDTHS, (4.2, 5.3)))
def test_step_peak_allocation(widths, bound):
    # the sum and the previous term (each 1 + 0.33 states with layers)
    # plus one RHS: 3.9 / 5.0 states; all nc rows in w (0.5 states)
    # measured 5.4, a state-sized coef * term per stage on top of the
    # RHS above 6.4 / 7.7
    disc = make_disc(dim=3, counts=(6, 6, 6), degree=3, widths=widths)
    st = random_state(disc)
    assert _peak_states(lambda: solver.ader_step(st, 1e-3), st) <= bound


def test_nodal_coordinates_match_affine_map():
    disc = make_disc(counts=(3, 2), degree=2, extent=6.0)
    xs, ys = solver.nodal_coordinates(disc)
    nodes = disc.ops.rule.nodes
    h = disc.mesh.spacings
    for elem in ((0, 0), (2, 1)):
        for a in range(len(nodes)):
            for b in range(len(nodes)):
                px = h[0] * (elem[0] + 0.5 * (nodes[a] + 1.0))
                py = h[1] * (elem[1] + 0.5 * (nodes[b] + 1.0))
                assert xs[elem + (a, b)] == pytest.approx(px, abs=1e-13)
                assert ys[elem + (a, b)] == pytest.approx(py, abs=1e-13)


def test_face_impedances():
    # Z = rho c per wave family: cp for the family normal to the face
    m = material_from_speeds(2700.0, 6000.0, 3464.0)
    spec = MeshSpec(dim=3, mins=(0.0,) * 3, maxs=(1.0,) * 3, counts=(1, 1, 1),
                    materials=(m,))
    disc = solver.discretize(build_mesh(spec), build_operators(1, "GLL"))
    for ax in range(3):
        for fam in range(3):
            want = 1.62e7 if fam == ax else 2700.0 * 3464.0
            assert disc.z[ax][fam].ravel()[0] == pytest.approx(want)


@pytest.mark.parametrize("kind", ["GL", "GLR"])
def test_discretize_needs_gll_nodes(kind):
    mesh = make_disc(counts=(2, 2), degree=2).mesh
    with pytest.raises(UnsupportedDegree, match=rf"got {kind}$"):
        solver.discretize(mesh, build_operators(2, kind))


@pytest.mark.parametrize("dim,counts,widths,ends,shapes", [
    (2, (4, 3), {"x": (2.5, 2.5), "y": (0.0, 2.5)}, [(1, 1), (0, 1)],
     [(4, 2, 3, 3, 3), (4, 4, 1, 3, 3)]),
    (3, (4, 3, 4), {"x": (2.5, 0.0), "z": (2.5, 2.5)}, [(1, 0), (1, 1)],
     [(6, 1, 3, 4, 3, 3, 3), (6, 4, 3, 2, 3, 3, 3)]),
])
def test_setup_state_auxiliary_shapes(dim, counts, widths, ends, shapes):
    # 2 dim rows (velocities, then the axis's traction slots) on the
    # layer's slab: lo + hi elements along its axis, the others whole
    disc = make_disc(dim=dim, counts=counts, degree=2, widths=widths)
    assert [(tab.lo, tab.hi) for tab in disc.damping] == ends
    assert [wi.shape for wi in solver.setup_state(disc).w] == shapes


def test_stable_dt_benchmark():
    m = material_from_speeds(2700.0, 6.0, 3.464)
    spec = MeshSpec(dim=2, mins=(0.0, 0.0), maxs=(120.0, 50.0),
                    counts=(24, 10), materials=(m,))
    mesh = build_mesh(spec)
    dt = solver.stable_dt(mesh, mesh.materials, 5, 0.9)
    assert dt == pytest.approx(0.05905, abs=5e-5)
    assert solver.stable_dt(mesh, mesh.materials, 5, 0.45) == pytest.approx(dt / 2)
    with pytest.raises(UnsupportedDegree):
        solver.stable_dt(mesh, mesh.materials, 0, 0.9)
    with pytest.raises(ValueError):
        solver.stable_dt(mesh, mesh.materials, 5, 1.5)


def flatten_state(st):
    parts = [st.Q.ravel()] + [wi.ravel() for wi in st.w]
    return np.concatenate(parts)


def unflatten_state(disc, vec):
    st = solver.setup_state(disc)
    k = st.Q.size
    Q = vec[:k].reshape(st.Q.shape).copy()
    ws = []
    for wi in st.w:
        ws.append(vec[k:k + wi.size].reshape(wi.shape).copy())
        k += wi.size
    return solver.SimulationState(disc=disc, t=0.0, Q=Q, w=tuple(ws))


def test_ader_matches_truncated_matrix_exponential():
    # probe the semi-discrete operator into a dense matrix, then compare a
    # step against the truncated Taylor series of expm
    disc = make_disc(counts=(2, 2), degree=1, extent=2.0,
                     widths={"x": (0.5, 0.5)}, d0=2.0, alpha=0.3)
    zero = solver.setup_state(disc)
    nq = flatten_state(zero).size
    L = np.empty((nq, nq))
    for j in range(nq):
        e = np.zeros(nq)
        e[j] = 1.0
        st = unflatten_state(disc, e)
        dq, dw = solver._rhs(st.Q, st.w, disc)
        L[:, j] = flatten_state(
            solver.SimulationState(disc=disc, t=0.0, Q=dq, w=dw))
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal(nq)
    dt = 0.01
    expect = u0.copy()
    term = u0.copy()
    coef = 1.0
    for k in range(1, disc.ops.degree + 2):
        term = L @ term
        coef *= dt / k
        expect += coef * term
    got = flatten_state(solver.ader_step(unflatten_state(disc, u0), dt))
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_damping_off_trajectories_bitwise_equal():
    base = make_disc(counts=(3, 3))
    with_tables_0 = make_disc(counts=(3, 3), widths={"x": (2.5, 2.5)},
                              d0=0.0, alpha=0.0, theta=0.0)
    with_tables_1 = make_disc(counts=(3, 3), widths={"x": (2.5, 2.5)},
                              d0=0.0, alpha=0.0, theta=1.0)
    dt = solver.stable_dt(base.mesh, base.mesh.materials, 3, 0.5)
    rng = np.random.default_rng(7)
    q0 = rng.standard_normal(solver.setup_state(base).Q.shape)
    results = []
    for disc in (base, with_tables_0, with_tables_1):
        st = solver.setup_state(disc)
        st.Q[...] = q0
        for _ in range(5):
            st = solver.ader_step(st, dt)
        results.append(st.Q)
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


@pytest.mark.parametrize("dim,counts", [(2, (4, 4)), (3, (2, 2, 2))])
def test_energy_nonincreasing(dim, counts):
    gamma = {("x", -1): 1.0, ("x", 1): 0.0}
    if dim == 3:
        gamma[("z", -1)] = -1.0
    disc = make_disc(dim=dim, counts=counts, degree=2, gamma=gamma)
    st = random_state(disc, seed=11)
    dt = solver.stable_dt(disc.mesh, disc.mesh.materials, 2, 0.5)
    e_prev = energy(st)
    for _ in range(60):
        st = solver.ader_step(st, dt)
        e = energy(st)
        assert e <= e_prev * (1.0 + 1e-10)
        e_prev = e


def test_run_step_accounting():
    disc = make_disc(counts=(2, 2), degree=1)
    st = solver.setup_state(disc)
    seen = []
    out = solver.run(st, 0.0, 0.1, callbacks=[lambda s: seen.append(s.t)])
    assert seen == [0.0] and out.t == 0.0
    seen.clear()
    out = solver.run(st, 1.05, 0.1, callbacks=[lambda s: seen.append(s.t)])
    assert len(seen) == 12  # initial sample + 10 whole + 1 truncated step
    assert out.t == pytest.approx(1.05, abs=1e-14)
    assert all(b > a for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("t_end", [float("inf"), float("nan")])
def test_run_rejects_non_finite_t_end(t_end):
    disc = make_disc(counts=(2, 2), degree=1)
    st = solver.setup_state(disc)
    calls = []

    def bounded(state):
        calls.append(state.t)
        if len(calls) > 3:
            raise RuntimeError("run kept stepping towards a non-finite t_end")

    with pytest.raises(ValueError, match="t_end"):
        solver.run(st, t_end, 0.1, callbacks=[bounded])


def test_divergence_detected():
    disc = make_disc(counts=(2, 2), degree=1)
    st = solver.setup_state(disc)
    st.Q[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(DivergenceDetected):
        solver.ader_step(st, 0.01)


def test_plane_strain_embedding_matches_2d():
    # a z-invariant state with vz = sig_xz = sig_yz = 0 must evolve exactly
    # like its 2D restriction on the shared components
    m = material_from_speeds(2.0, 2.0, 1.0)
    gamma2 = {("x", -1): 1.0, ("x", 1): 0.0, ("y", -1): 0.0, ("y", 1): 1.0}
    spec2 = MeshSpec(dim=2, mins=(0.0, 0.0), maxs=(6.0, 4.0), counts=(3, 2),
                     materials=(m,), gamma=gamma2)
    gamma3 = dict(gamma2)
    gamma3[("z", -1)] = (1.0, 1.0, -1.0)
    gamma3[("z", 1)] = (1.0, 1.0, -1.0)
    spec3 = MeshSpec(dim=3, mins=(0.0, 0.0, 0.0), maxs=(6.0, 4.0, 4.0),
                     counts=(3, 2, 2), materials=(m,), gamma=gamma3)
    ops = build_operators(2, "GLL")
    d2 = solver.discretize(build_mesh(spec2), ops)
    d3 = solver.discretize(build_mesh(spec3), ops)

    rng = np.random.default_rng(5)
    s2 = solver.setup_state(d2)
    s2.Q[...] = rng.standard_normal(s2.Q.shape)
    s3 = solver.setup_state(d3)
    comp_map = [(0, 0), (1, 1), (2, 3), (3, 4), (4, 6)]
    for c2, c3 in comp_map:
        s3.Q[c3] = s2.Q[c2][:, :, None, :, :, None]

    dt = solver.stable_dt(d2.mesh, d2.mesh.materials, 2, 0.5)
    for _ in range(10):
        s2 = solver.ader_step(s2, dt)
        s3 = solver.ader_step(s3, dt)
    scale = np.abs(s2.Q).max()
    for c2, c3 in comp_map:
        diff = s3.Q[c3] - s2.Q[c2][:, :, None, :, :, None]
        assert np.abs(diff).max() <= 1e-10 * scale
    # out-of-plane couplings stay silent
    assert np.abs(s3.Q[2]).max() <= 1e-12 * scale
    assert np.abs(s3.Q[7]).max() <= 1e-12 * scale
    assert np.abs(s3.Q[8]).max() <= 1e-12 * scale
