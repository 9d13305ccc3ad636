import warnings

import numpy as np
import pytest

from elastowave import diagnostics as dg
from elastowave import solver
from elastowave.errors import DegenerateError, GeometryInsufficient
from elastowave.mesh import build_mesh
from elastowave.operators import build_operators
from elastowave.physics import (
    coefficient_matrix,
    material_from_lame,
    material_from_speeds,
    material_matrix,
)

import test_solver
from test_solver import _peak_states, _slab_rows, fresh_rhs, random_state


def make_disc(dim=2, counts=(4, 4), degree=3, extent=8.0, material=None):
    m = material or material_from_speeds(2.0, 2.0, 1.0)
    mesh = build_mesh((0.0,) * dim, (extent,) * dim, counts, (m,))
    return solver.discretize(mesh, build_operators(degree, "GLL"))


def test_energy_zero_and_single_node():
    m = material_from_lame(2.0, 1.0, 1.0)
    mesh = build_mesh((0.0, 0.0), (2.0, 2.0), (1, 1), (m,))
    disc = solver.discretize(mesh, build_operators(1, "GLL"))
    st = solver.setup_state(disc)
    assert dg.discrete_energy(st).E == 0.0
    st.Q[0, 0, 0, 0, 0] = 1.0  # unit vx, J = 1, node weight 1x1, rho = 2
    assert dg.discrete_energy(st).E == pytest.approx(1.0, rel=1e-14)


def test_energy_scaling_and_positivity():
    disc = make_disc()
    st = solver.setup_state(disc)
    rng = np.random.default_rng(4)
    st.Q[...] = rng.standard_normal(st.Q.shape)
    e1 = dg.discrete_energy(st).E
    assert e1 > 0.0
    st.Q *= 2.0
    assert dg.discrete_energy(st).E == pytest.approx(4.0 * e1, rel=1e-12)


def test_energy_matches_elementwise_reference():
    # one material, then a second, stiffer one in the first element
    # column, where the material tables vary along x only
    m = material_from_speeds(2700.0, 6.0, 3.464)
    layered = dict(materials=(m, material_from_speeds(3000.0, 8.0, 4.5)),
                   region=("x", 3.0, 1))
    for extra in ({"materials": (m,)}, layered):
        mesh = build_mesh((0.0, 0.0), (10.0, 10.0), (3, 2), **extra)
        disc = solver.discretize(mesh, build_operators(2, "GLL"))
        st = solver.setup_state(disc)
        rng = np.random.default_rng(8)
        st.Q[...] = rng.standard_normal(st.Q.shape)
        mesh, ops = disc.mesh, disc.ops
        wq = ops.rule.weights
        total = 0.0
        for idx in np.ndindex(*mesh.counts):
            mat = mesh.materials[mesh.material_ids[idx]]
            # the compliance of the stresses xx, yy, xy
            S = np.linalg.inv(mat.C[np.ix_([0, 1, 3], [0, 1, 3])])
            for a in range(ops.n_nodes):
                for b in range(ops.n_nodes):
                    q = st.Q[(slice(None),) + idx + (a, b)]
                    total += wq[a] * wq[b] * (
                        0.5 * mat.rho * (q[:2] ** 2).sum()
                        + 0.5 * q[2:] @ S @ q[2:])
        total *= mesh.jacobian
        assert dg.discrete_energy(st).E == pytest.approx(total, rel=1e-12)


def test_linf():
    disc = make_disc()
    st = solver.setup_state(disc)
    assert dg.linf_series(st) == 0.0
    st.Q[0, 1, 2, 0, 3] = 3.0
    st.Q[1, 1, 2, 0, 3] = 4.0
    st.Q[0, 0, 0, 1, 1] = 2.0
    assert dg.linf_series(st) == pytest.approx(5.0)


@pytest.mark.parametrize("dim,counts", [(2, (4, 4)), (3, (3, 2, 3))])
def test_linf_equals_max_of_magnitudes(dim, counts):
    # the largest magnitude, each rooted (v ** 2 summed over the
    # components), bit for bit
    st = solver.setup_state(make_disc(dim=dim, counts=counts))
    st.Q[...] = np.random.default_rng(dim).standard_normal(st.Q.shape)
    v = st.Q[:dim]
    assert dg.linf_series(st) == float(np.sqrt((v ** 2).sum(axis=0)).max())


def _reductions(st):
    return dg.discrete_energy(st).E, dg.linf_series(st)


def test_reductions_slab_count_bitwise(monkeypatch):
    # the L-inf's slab-by-slab sums give the bits of one pass over the
    # grid, and the energy, which reads the whole state, does not move
    # with the slabs: on four materials drawn per element, in one to eight
    # slabs
    disc = test_solver.make_disc(dim=3, counts=(8, 3, 4), degree=3,
                                 layered="mixed")
    st = random_state(disc, seed=3)
    whole = _reductions(st)
    assert len(solver._slab_bounds(disc)) == 2
    for rows in (1, 3):
        _slab_rows(monkeypatch, disc, rows)
        assert len(solver._slab_bounds(disc)) == 1 + -(-8 // rows)
        assert np.array_equal(_reductions(st), whole)


def test_reductions_allocate_one_slab_at_a_time(monkeypatch):
    # in four slabs of two element rows, the energy holds a few values per
    # element and no node-sized temporary (0.97 slab shares of a row of
    # Q), the L-inf the squares of one slab (1.05); with the trace of one
    # slab and one term of the squares they held 1.42 and 2.04, over the
    # whole grid at once 4.97 and 8.02
    disc = test_solver.make_disc(dim=3, counts=(8, 8, 8), degree=3,
                                 layered="mixed")
    _slab_rows(monkeypatch, disc, 2)
    assert len(solver._slab_bounds(disc)) == 5
    st = random_state(disc)
    share = st.Q[0].size / st.Q.size / 4     # in states, as _peak_states
    assert _peak_states(lambda: dg.discrete_energy(st), st) < 1.0 * share
    assert _peak_states(lambda: dg.linf_series(st), st) < 1.1 * share


def _slab_walk_energy(state):
    """discrete_energy as it summed one slab of element rows at a time,
    with a node-sized trace per slab: the reference of the contraction
    over the whole state."""
    disc = state.disc
    mesh, weights = disc.mesh, disc.ops.rule.weights
    dim = mesh.dim
    wgt = weights
    for _ in range(dim - 1):
        wgt = np.multiply.outer(wgt, weights)
    wgt = wgt.ravel()
    grid = mesh.counts + (1,) * dim
    tables = [np.broadcast_to(a, grid)
              for a in (disc.rho_e, disc.lam_e, disc.mu_e)]
    dens = np.empty(mesh.material_ids.size)
    per = dens.size // mesh.counts[0]
    bounds = solver._slab_bounds(disc)
    tallest = max(b - a for a, b in zip(bounds, bounds[1:]))
    trace = np.empty((tallest * per, wgt.size))
    for start, stop in zip(bounds, bounds[1:]):
        q = state.Q[:, start:stop].reshape(len(state.Q), -1, wgt.size)
        sq = np.einsum("cen,cen,n->ce", q, q, wgt)
        tr = np.sum(q[dim:2 * dim], axis=0, out=trace[:len(q[0])])
        sq_tr = np.einsum("en,en,n->e", tr, tr, wgt)
        rho, lam, mu = (a[start:stop].ravel() for a in tables)
        dens[start * per:stop * per] = (
            rho * sq[:dim].sum(0)
            + (sq[dim:2 * dim].sum(0) - lam / (dim * lam + 2 * mu) * sq_tr)
            / (2 * mu)
            + sq[2 * dim:].sum(0) / mu)
    return mesh.jacobian * 0.5 * float(dens.sum())


@pytest.mark.parametrize("dim,counts", [(2, (8, 5)), (3, (8, 3, 4))])
def test_energy_equals_the_slab_walk(monkeypatch, dim, counts):
    # tr^2 from the normal stresses' squares and pairwise products gives
    # the energy of the trace summed per slab, to rounding, on four
    # materials drawn per element and in one to eight slabs
    disc = test_solver.make_disc(dim=dim, counts=counts, degree=3,
                                 layered="mixed")
    for seed, rows in enumerate((8, 4, 3, 2, 1)):
        _slab_rows(monkeypatch, disc, rows)
        assert len(solver._slab_bounds(disc)) == 1 + -(-8 // rows)
        st = random_state(disc, seed=seed)
        assert dg.discrete_energy(st).E == pytest.approx(
            _slab_walk_energy(st), rel=1e-14, abs=0.0)


def test_linf_of_a_finite_state_is_finite(monkeypatch):
    # the squares of 3e200 and 4e200 overflow: that slab is summed again
    # from its values over their largest magnitude, the other slabs not
    disc = make_disc(dim=3, counts=(4, 2, 3))
    _slab_rows(monkeypatch, disc, 1)
    st = solver.setup_state(disc)
    st.Q[:3, 2, 1, 0, 1, 0, 2] = (3e200, 4e200, 0.0)
    st.Q[0, 0, 0, 0, 0, 0, 0] = 7.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dg.linf_series(st) == pytest.approx(5e200, rel=1e-15)
        st.Q[0, 2, 1, 0, 1, 0, 2] = np.inf
        assert dg.linf_series(st) == np.inf
        st.Q[1, 0, 0, 0, 0, 0, 0] = np.nan
        assert np.isnan(dg.linf_series(st))


def test_convergence_rate_oracles():
    rates = dg.convergence_rates([8.2513e-4, 1.3602e-5], [10.0, 5.0])
    assert rates[0] == pytest.approx(5.9228, abs=1e-3)
    rates = dg.convergence_rates([1.1745e-7, 3.7712e-9], [2.5, 1.25])
    assert rates[0] == pytest.approx(4.9608, abs=1e-3)
    h = np.array([8.0, 4.0, 2.0])
    rates = dg.convergence_rates(h ** 6, h)
    assert rates == pytest.approx([6.0, 6.0])


def test_convergence_rate_guards():
    with pytest.raises(DegenerateError):
        dg.convergence_rates([1e-3, 0.0], [2.0, 1.0])
    with pytest.raises(DegenerateError):
        dg.convergence_rates([1e-3], [2.0])
    with pytest.raises(DegenerateError):
        dg.convergence_rates([1e-3, 1e-4], [1.0, 2.0])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mode", ["P", "S"])
def test_plane_wave_satisfies_continuous_system(dim, mode):
    m = material_from_speeds(2700.0, 6.0, 3.464)
    rng = np.random.default_rng(dim * 7 + (mode == "S"))
    for _ in range(5):
        n = rng.standard_normal(dim)
        pw = dg.PlaneWaveSpec(n=tuple(n), mode=mode)
        q0, c, n_hat = dg.plane_wave_polarization(pw, m, dim)
        names = "xyz"[:dim]
        A = sum(n_hat[i] * coefficient_matrix(names[i], dim)
                for i in range(dim))
        resid = c * q0 + material_matrix(m, dim) @ A @ q0
        assert np.abs(resid).max() <= 1e-12 * np.abs(q0).max() * c


@pytest.mark.parametrize("n", [(0.0, 0.0), (float("nan"), 1.0),
                               (float("inf"), 0.0)])
def test_plane_wave_rejects_a_direction_of_no_length(n):
    # (0, 0) gave NaN amplitudes and a RuntimeWarning
    m = material_from_speeds(2700.0, 6.0, 3.464)
    with pytest.raises(ValueError, match="must be finite and nonzero"):
        dg.plane_wave_polarization(dg.PlaneWaveSpec(n=n), m, 2)


@pytest.mark.parametrize("spec, cause", [
    (dg.PlaneWaveSpec(n=(1.0, 0.0, 0.0)), "direction must have 2 components"),
    (dg.PlaneWaveSpec(n=(1.0, 0.0), mode="X"), "unknown mode 'X'"),
], ids=["direction-length", "mode"])
def test_plane_wave_rejects_a_bad_spec(spec, cause):
    m = material_from_speeds(2700.0, 6.0, 3.464)
    with pytest.raises(ValueError, match=f"^{cause}$"):
        dg.plane_wave_polarization(spec, m, 2)


def test_plane_wave_px_structure():
    m = material_from_speeds(2700.0, 6.0, 3.464)
    pw = dg.PlaneWaveSpec(n=(1.0, 0.0, 0.0), mode="P")
    q0, c, _ = dg.plane_wave_polarization(pw, m, 3)
    assert c == pytest.approx(6.0)
    assert q0[1] == 0.0 and q0[2] == 0.0          # vy, vz
    assert not q0[[6, 7, 8]].any()                 # shear stresses
    assert q0[4] != 0.0                            # syy carries lambda


def test_plane_wave_nodal_sampling():
    disc = make_disc(counts=(5, 4), degree=2, extent=10.0)
    pw = dg.PlaneWaveSpec(n=(1.0, 0.0), mode="P", center=5.0, width=2.0)
    q = dg.plane_wave_state(pw, disc, 0.0)
    xs, _ = solver.nodal_coordinates(disc)
    q0, c, _ = dg.plane_wave_polarization(pw, disc.mesh.materials[0], 2)
    u = (xs - 5.0) / 2.0
    expect = np.where(np.abs(u) < 1, (1 - u ** 2) ** 6, 0.0)
    assert np.abs(q[0] - q0[0] * expect).max() <= 1e-14
    assert np.abs(q[2] - q0[2] * expect).max() <= 1e-13 * abs(q0[2])
    q_late = dg.plane_wave_state(pw, disc, 1.0)
    # the profile moved by c * t
    u2 = (xs - c * 1.0 - 5.0) / 2.0
    expect2 = np.where(np.abs(u2) < 1, (1 - u2 ** 2) ** 6, 0.0)
    assert np.abs(q_late[0] - q0[0] * expect2).max() <= 1e-14


def test_plane_wave_needs_homogeneous_medium():
    m1 = material_from_speeds(2.0, 2.0, 1.0)
    m2 = material_from_speeds(2.5, 3.0, 1.5)
    mesh = build_mesh((0.0, 0.0), (8.0, 8.0), (4, 4), (m1, m2),
                      region=("x", 4.0, 1))
    disc = solver.discretize(mesh, build_operators(2, "GLL"))
    pw = dg.PlaneWaveSpec(n=(1.0, 0.0), mode="P", center=4.0, width=2.0)
    with pytest.raises(ValueError, match="needs a homogeneous medium"):
        dg.plane_wave_state(pw, disc, 0.0)


def test_rhs_matches_analytic_plane_wave_derivative():
    # volume + flux assembly against the exact time derivative of a
    # traveling mode.  Pointwise truncation of the nodal scheme decays at
    # order P (the solution itself gains the extra order, covered by the
    # time-stepped convergence checks).  The mode is constant along y, so
    # the y-faces need the reflection pair that keeps it an exact
    # solution: free for the tangential family, clamped for the normal.
    m = material_from_speeds(2.0, 2.0, 1.0)
    gam = {("y", -1): (1.0, -1.0), ("y", 1): (1.0, -1.0)}
    degree = 3
    errs = []
    for k in (16, 32):
        mesh = build_mesh((0.0, 0.0), (10.0, 10.0), (k, k), (m,), gam)
        disc = solver.discretize(mesh, build_operators(degree, "GLL"))
        pw = dg.PlaneWaveSpec(n=(1.0, 0.0), mode="P", center=5.0, width=2.0)
        st = solver.setup_state(disc)
        st.Q[...] = dg.plane_wave_state(pw, disc, 0.0)
        dq, _ = fresh_rhs(st.Q, st.w, disc)
        q0, c, _ = dg.plane_wave_polarization(pw, m, 2)
        xs, _ = solver.nodal_coordinates(disc)
        u = (xs - 5.0) / 2.0
        dphi = np.where(np.abs(u) < 1, -12.0 * u * (1 - u ** 2) ** 5, 0.0) / 2.0
        want = -c * q0.reshape(-1, 1, 1, 1, 1) * dphi
        errs.append(float(np.abs(dq - want).max()))
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] >= 2.0 ** (degree - 0.5)


class FakeResult:
    def __init__(self, disc, snap_times, snapshots, interior, sources,
                 t_end):
        self.disc = disc
        self.snap_times = snap_times
        self.snapshots = snapshots
        self.interior = interior
        self.source_locations = sources
        self.t_end = t_end


def fake_run(counts, extent, interior, seed=0, t_end=0.5, mins=None):
    m = material_from_speeds(2.0, 2.0, 1.0)
    mins = mins or (0.0, 0.0)
    maxs = (mins[0] + extent[0], mins[1] + extent[1])
    mesh = build_mesh(mins, maxs, counts, (m,))
    disc = solver.discretize(mesh, build_operators(2, "GLL"))
    rng = np.random.default_rng(seed)
    snaps = [rng.standard_normal((2,) + disc.mesh.counts + (3, 3))
             for _ in range(3)]
    return FakeResult(disc, [0.0, 0.25, 0.5], snaps, interior,
                      ((mins[0] + extent[0] / 2, mins[1] + extent[1] / 2),),
                      t_end)


def test_reflection_bound_mirror_path():
    t = dg.reflection_arrival_bound(((-170.0, 0.0), (170.0, 50.0)),
                                    ((-50.0, 0.0), (50.0, 50.0)),
                                    (0.0, 25.0), 6.0,
                                    faces=[(0, -1), (0, 1)])
    assert t == pytest.approx(290.0 / 6.0)
    # all faces include the nearby physical boundary
    t_all = dg.reflection_arrival_bound(((-170.0, 0.0), (170.0, 50.0)),
                                        ((-50.0, 0.0), (50.0, 50.0)),
                                        (0.0, 25.0), 6.0,
                                        faces=[(0, -1), (0, 1),
                                               (1, -1), (1, 1)])
    assert t_all == pytest.approx(25.0 / 6.0)
    assert dg.reflection_arrival_bound(((0.0, 0.0), (1.0, 1.0)),
                                       ((0.0, 0.0), (1.0, 1.0)),
                                       (0.5, 0.5), 1.0, faces=[]) == np.inf


def test_pml_error_identical_runs_and_guards():
    interior = ((2.0, 0.0), (6.0, 8.0))
    a = fake_run((4, 4), (8.0, 8.0), interior, seed=1)
    b = fake_run((4, 4), (8.0, 8.0), interior, seed=1)
    assert dg.pml_error(a, b) == 0.0
    b.snapshots[1][0, 2, 2, 1, 1] += 1e-3
    err = dg.pml_error(a, b)
    assert err == pytest.approx(1e-3)
    assert dg.pml_error(b, a) == pytest.approx(err)  # symmetric
    c = fake_run((4, 4), (8.0, 8.0), interior, seed=1)
    c.snap_times = [0.0, 0.3, 0.5]
    with pytest.raises(GeometryInsufficient):
        dg.pml_error(a, c)
    c = fake_run((4, 4), (8.0, 8.0), interior, seed=1)
    c.disc = solver.discretize(c.disc.mesh, build_operators(3, "GLL"))
    with pytest.raises(GeometryInsufficient, match="different element deg"):
        dg.pml_error(a, c)
    finer = fake_run((8, 8), (8.0, 8.0), interior, seed=1)
    with pytest.raises(GeometryInsufficient, match="different element siz"):
        dg.pml_error(a, finer)
    shifted = fake_run((4, 4), (8.0, 8.0), interior, seed=1, mins=(0.5, 0.0))
    with pytest.raises(GeometryInsufficient, match="not element-aligned"):
        dg.pml_error(a, shifted)


def test_pml_error_causality_guard():
    interior = ((2.0, 0.0), (6.0, 8.0))
    run = fake_run((4, 4), (8.0, 8.0), interior, seed=2, t_end=50.0)
    # reference enlarged by one element each side on x: far too small for
    # t_end = 50 at speed 2
    ref = fake_run((6, 4), (12.0, 8.0), None, seed=2, t_end=50.0,
                   mins=(-2.0, 0.0))
    with pytest.raises(GeometryInsufficient):
        dg.pml_error(run, ref)


def test_pml_error_causality_guard_takes_every_source():
    # the reference is padded 10 on each x side; from the centre source
    # the first mirror path reaches the interior at 22 / 2 = 11 s, after
    # t_end, from a second source at x = 15 at 11 / 2 = 5.5 s, before it.
    # The guard used the first source alone and passed
    interior = ((2.0, 0.0), (6.0, 8.0))
    run = fake_run((4, 4), (8.0, 8.0), interior, seed=2, t_end=8.0)
    ref = fake_run((12, 4), (24.0, 8.0), None, seed=2, t_end=8.0,
                   mins=(-8.0, 0.0))
    assert dg.pml_error(run, ref) >= 0.0
    ref.source_locations += ((15.0, 4.0),)
    with pytest.raises(GeometryInsufficient, match="t = 5.500 s"):
        dg.pml_error(run, ref)


def test_pml_error_reference_must_hold_the_interior():
    interior = ((2.0, 0.0), (6.0, 8.0))
    run = fake_run((4, 4), (8.0, 8.0), interior, seed=2)
    # shifted one element on x, but only two elements tall on y
    ref = fake_run((6, 2), (12.0, 4.0), None, seed=2, mins=(-2.0, 0.0))
    with pytest.raises(GeometryInsufficient, match="misses the interior"):
        dg.pml_error(run, ref)


def test_pml_error_takes_the_layered_run_first():
    # the arguments were swapped to put the run with an interior first
    interior = ((2.0, 0.0), (6.0, 8.0))
    run = fake_run((4, 4), (8.0, 8.0), interior, seed=2)
    ref = fake_run((8, 4), (16.0, 8.0), None, seed=2, mins=(-4.0, 0.0))
    dg.pml_error(run, ref)
    with pytest.raises(GeometryInsufficient,
                       match="the first argument, declares no interior"):
        dg.pml_error(ref, run)


def test_pml_error_compares_the_interior_nodes_only():
    # layers of one element on both x ends (elements 0 and 3 of 4, interior
    # x in [2, 6]) and none on y; the reference is padded by two elements
    # on each x side and equals the run on its elements.  A difference on
    # a damped element, or on a node of the truncation interfaces x = 2
    # and x = 6, is not counted; one on any other node is
    interior = ((2.0, 0.0), (6.0, 8.0))
    run = fake_run((4, 4), (8.0, 8.0), interior, seed=3)
    ref = fake_run((8, 4), (16.0, 8.0), None, seed=4, mins=(-4.0, 0.0))
    for snap_r, snap_f in zip(run.snapshots, ref.snapshots):
        snap_f[:, 2:6] = snap_r
    assert dg.pml_error(run, ref) == 0.0
    snap = ref.snapshots[1]
    for ex, ey, nx, ny in np.ndindex(4, 4, 3, 3):
        at = (0, ex + 2, ey, nx, ny)
        kept = snap[at]
        snap[at] += 1.0
        counted = ex in (1, 2) and (ex, nx) not in ((1, 0), (2, 2))
        assert dg.pml_error(run, ref) == pytest.approx(float(counted)), at
        snap[at] = kept


def seismogram_misfit(times_a, vals_a, times_b, vals_b):
    """Relative L2 misfit between two series; b is interpolated onto the
    sample times of a."""
    vals_a = np.atleast_2d(np.asarray(vals_a, dtype=float).T).T
    vals_b = np.atleast_2d(np.asarray(vals_b, dtype=float).T).T
    interp = np.column_stack([
        np.interp(times_a, times_b, vals_b[:, k])
        for k in range(vals_b.shape[1])])
    num = np.sqrt(((vals_a - interp) ** 2).sum())
    den = np.sqrt((interp ** 2).sum())
    if den == 0.0:
        raise DegenerateError("reference seismogram is identically zero")
    return float(num / den)


def test_misfit():
    t = np.linspace(0.0, 1.0, 50)
    a = np.column_stack([np.sin(4 * t), np.cos(4 * t)])
    assert seismogram_misfit(t, a, t, a) == 0.0
    assert seismogram_misfit(t, a, t, 2 * a) == pytest.approx(0.5)
    with pytest.raises(DegenerateError):
        seismogram_misfit(t, a, t, 0 * a)

