import os
import re
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from elastowave import solver
from elastowave.errors import DivergenceDetected, UnsupportedDegree
from elastowave.harness import experiments as xp
from elastowave.harness import presets as ps
from elastowave.harness.config import finalize
from elastowave.mesh import build_mesh
from elastowave.operators import build_operators
from elastowave.physics import material_from_speeds
from elastowave.pml import build_damping
from elastowave.sources import GaussianSTF, MomentTensorSource, Receiver

import rhs_oracle
from test_operators import _thread_cpu_ticks


def make_disc(dim=2, counts=(4, 4), degree=3, gamma=None, theta=1.0,
              widths=None, d0=1.0, alpha=0.1, extent=10.0, layered=False):
    # layered: a second, stiffer material below x = extent / 2;
    # "mixed": one of four materials drawn per element, so impedances
    # jump across every axis
    mats = (material_from_speeds(2.0, 2.0, 1.0),)
    if layered:
        mats += (material_from_speeds(3.0, 4.0, 2.1),)
    mesh = build_mesh((0.0,) * dim, (extent,) * dim, counts, mats, gamma,
                      ("x", extent / 2, 1) if layered else None)
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


def copy_state(st):
    """A state with its own copies of st's fields, for stepping apart."""
    return solver.SimulationState(disc=st.disc, t=st.t, Q=st.Q.copy(),
                                  w=tuple(wi.copy() for wi in st.w))


def new_fields(Q, w):
    """New arrays of the shapes of Q and its auxiliary fields w."""
    return np.empty(Q.shape), tuple(np.empty(wi.shape) for wi in w)


def fresh_rhs(Q, w, disc):
    """The rates of (Q, w) in new arrays, through a new Workspace."""
    return solver._rhs(Q, w, disc, new_fields(Q, w), solver.Workspace(disc),
                       1.0)


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
    dq, dw = fresh_rhs(st.Q, st.w, disc)
    assert not dq.any()
    assert all(not d.any() for d in dw)


def test_constant_velocity_interior_rhs():
    disc = make_disc(counts=(4, 4), gamma={("x", -1): 1.0, ("x", 1): 1.0,
                                           ("y", -1): 1.0, ("y", 1): 1.0})
    st = solver.setup_state(disc)
    st.Q[0] = 0.7
    st.Q[1] = -0.3
    dq, _ = fresh_rhs(st.Q, st.w, disc)
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
    ru, rv, rc = (fresh_rhs(s.Q, s.w, disc) for s in (u, v, comb))
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
    # damp per damped element, full-grid materials and impedances) and
    # auxiliary fields with all nc rows
    disc = make_disc(dim=dim, counts=counts, degree=degree, gamma=gamma,
                     theta=theta, widths=widths, d0=1.3, alpha=0.2,
                     layered=layered)
    assert len(disc.damping) == len(widths or ())
    st = random_state(disc, seed=sum(counts))
    dq, dw = fresh_rhs(st.Q, st.w, disc)
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
    # the oracle slices z per element: it takes the compact tables
    # broadcast back to the element grid
    elems = disc.mesh.counts
    grid = {name: np.broadcast_to(getattr(disc, name), elems + (1,) * dim)
            for name in ("rho_e", "lam_e", "mu_e")}
    z = tuple(np.broadcast_to(za, (dim,) + elems + (1,) * (dim - 1))
              for za in disc.z)
    ref_q, ref_w = rhs_oracle.rhs(st.Q, tuple(full_w),
                                  replace(disc, damping=legacy, z=z, **grid))
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


@pytest.mark.parametrize("widths", PEAK_WIDTHS)
def test_rhs_peak_allocation(widths):
    # the result and the scratch are the workspace's, so an RHS allocates
    # numpy's ufunc buffers, three of solver._BUFSIZE doubles (0.010
    # states here), and element-sized factors: 0.014 / 0.015 states, far
    # below a state row (0.111 states).  Under numpy's default buffers
    # of 8192 doubles it took 0.086 / 0.087.  On a mesh whose rows are
    # smaller than those buffers (6^3) a row-sized temporary hid beneath
    # them.  A fresh result and scratch per RHS took 1.95 / 2.29 states
    # on 6^3, full-size derivative and lift scratch arrays 4.4 / 4.7, a
    # full-size face scratch (rhs_oracle) 5.6 / 6.1
    disc = make_disc(dim=3, counts=(8, 8, 8), degree=3, widths=widths)
    st = random_state(disc)
    bound = 3 * solver._BUFSIZE * st.Q.itemsize + (32 << 10)
    assert bound < st.Q[0].nbytes
    ws = solver.Workspace(disc)
    out = new_fields(st.Q, st.w)
    peak = _peak_states(
        lambda: solver._rhs(st.Q, st.w, disc, out, ws, 1e-3), st)
    assert peak * st.Q.nbytes <= bound


# the ids name the bounds the test was written with; they have since
# tightened
@pytest.mark.parametrize("widths,bound,rows", [
    pytest.param(PEAK_WIDTHS[0], 2.9, None, id="None-3.1"),
    pytest.param(PEAK_WIDTHS[1], 3.45, None, id="widths1-3.7"),
    pytest.param(PEAK_WIDTHS[1], 1.6, 1, id="widths1-1.95-slabs"),
    pytest.param(PEAK_WIDTHS[0], 1.2, 1, id="None-1.3-slabs")])
def test_step_peak_allocation(monkeypatch, widths, bound, rows):
    # a new workspace and one step through it: as one slab, the ring of
    # one buffer per field (1 + 0.33 states with layers), the slab's
    # result of Q's rates (1 state), whose bools the finiteness check
    # borrows, the RHS scratch (the traction gather and derivative, 1/3
    # state each, one face plane and -d*w) and the ufunc buffers measure
    # 2.88 / 3.44 states, 3.05 / 3.61 under numpy's default ufunc
    # buffers of 8192 doubles.  A state-sized stage result and three halo
    # planes measured 3.08 / 3.64, the auxiliary rates in the slab result,
    # a bool buffer of its own and the x layer tables copied per slab
    # 3.21 / 3.95, two ping-pong stage results 3.21 / 3.87, a new state
    # for the sum 4.16 / 5.16, all nc rows in w (0.5 states) on top of it
    # 5.4, and a state-sized coef * term per stage on top of a fresh RHS
    # 6.4 / 7.7.  In slabs of one element row, more slabs (6) than P+1,
    # the ring holds the terms of four slabs (0.96 states with layers, of
    # which the x layer's 0.22, its field of one damped row per end), and
    # a slab's result and scratch: 1.59 / 1.17 states (1.66 / 1.24 under
    # the default ufunc buffers).  Four buffers of each field's largest
    # slab (the x layer's 0.44, twice its field) measured 1.88 / 1.24, a
    # state-sized stage result 1.94 / 1.49
    disc = make_disc(dim=3, counts=(6, 6, 6), degree=3, widths=widths)
    if rows:
        _slab_rows(monkeypatch, disc, rows)
        assert len(solver.Workspace(disc).slabs) == 6
    st = random_state(disc)
    peak = _peak_states(
        lambda: solver.ader_step(st, 1e-3, (), solver.Workspace(disc)), st)
    assert peak <= bound


def _every_axis(dim):
    return {ax: (2.5, 2.5) for ax in "xyz"[:dim]}


def _assert_bitwise(got, want):
    assert got.t == want.t
    for a, b in zip((got.Q, *got.w), (want.Q, *want.w), strict=True):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def _poison(ws):
    """Every workspace buffer filled with NaN, the bool one with False.
    The slab records are skipped: their scratch and results are views of
    these buffers, and their tables are the discretization's."""
    stack = list(vars(ws).values())
    while stack:
        a = stack.pop()
        if isinstance(a, tuple):
            stack.extend(a)
        elif isinstance(a, np.ndarray):
            a.fill(False if a.dtype == bool else np.nan)


@pytest.mark.parametrize("dim,counts,widths,rows", [
    (2, (5, 4), _every_axis(2), None), (3, (4, 3, 4), _every_axis(3), None),
    # layers on y only: the first axis writes its result rows with no
    # layer terms, y writes the stress rows new to it, then adds its
    # layer's terms
    (3, (4, 3, 4), {"y": (2.5, 2.5)}, None),
    # one-row slabs: the ring of four slabs wraps, and the halo planes
    # carry every stage's slab faces
    (3, (6, 3, 4), _every_axis(3), 1),
], ids=["2-counts0", "3-counts1", "3-y-only", "3-one-row-slabs"])
def test_workspace_reuse_bitwise(monkeypatch, dim, counts, widths, rows):
    # steps through one workspace match steps each through a new one; a
    # step through a poisoned one matches too, so no buffer is read
    # before the step writes it
    disc = make_disc(dim=dim, counts=counts, degree=3, theta=0.5,
                     widths=widths, d0=1.3, alpha=0.2,
                     gamma=GAMMA_ALL_2D if dim == 2 else GAMMA_ALL_3D)
    if rows:
        _slab_rows(monkeypatch, disc, rows)
        assert len(solver.Workspace(disc).ring[0]) == 4
    moment = np.eye(dim) + 0.3 * (1 - np.eye(dim))
    src = MomentTensorSource(disc.mesh, disc.ops, (4.1,) * dim, moment,
                             GaussianSTF(sigma=0.05, t0=0.08))
    dt = 0.02
    fresh = random_state(disc, seed=6)
    shared = copy_state(fresh)
    ws = solver.Workspace(disc)
    for _ in range(5):
        solver.ader_step(fresh, dt, [src], solver.Workspace(disc))
        solver.ader_step(shared, dt, [src], ws)
        _assert_bitwise(shared, fresh)
    _poison(ws)
    poisoned = copy_state(fresh)
    _assert_bitwise(solver.ader_step(poisoned, dt, [src], ws),
                    solver.ader_step(fresh, dt, [src], solver.Workspace(disc)))


def _slab_rows(monkeypatch, disc, rows, cores=1):
    """Sets the slab size so that disc's slabs are at most `rows` element
    rows high, and as few as that allows, and the cores to `cores`, so
    that a grid of two or more slabs runs them in groups of that many."""
    q, w = solver._field_shapes(disc)
    doubles = sum(int(np.prod(s)) for s in (q, *w))
    monkeypatch.setattr(solver, "_CORES", cores)
    monkeypatch.setattr(solver, "_GROUP_VALUES", 0)
    monkeypatch.setattr(solver, "_SLAB_BYTES",
                        -(-rows * 8 * doubles // disc.mesh.counts[0]))


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("dim,counts,cores", [
    (2, (5, 4), 1), (3, (5, 3, 4), 1), (3, (5, 3, 4), 2), (3, (5, 3, 4), 3)],
    ids=["2d", "3d", "3d-pairs", "3d-triples"])
def test_rhs_slab_count_bitwise(monkeypatch, dim, counts, cores, theta,
                                rows):
    # layers on every axis (x damps rows 0 and 4), a reflection coefficient
    # per wave family on every face and impedances that jump across every
    # face: one slab and slabs of `rows` rows, each through the same slab
    # loop, give the same bits, into a separate result and in place.  So
    # do the slabs in groups of 2 or 3, one per thread, the last group
    # short but for 2-row slabs in triples
    disc = make_disc(dim=dim, counts=counts, degree=3, theta=theta,
                     widths=_every_axis(dim), d0=1.3, alpha=0.2,
                     gamma=GAMMA_ALL_2D if dim == 2 else GAMMA_ALL_3D,
                     layered="mixed")
    assert [(t.lo, t.hi) for t in disc.damping][0] == (1, 1)
    st = random_state(disc, seed=11)
    one = solver.Workspace(disc)
    _slab_rows(monkeypatch, disc, rows, cores)
    ws = solver.Workspace(disc)
    assert len(one.slabs) == 1 and len(ws.slabs) == -(-5 // rows)
    assert max(s.stop - s.start for s in ws.slabs) == rows
    assert one.group == 1 and ws.group == cores
    want, got = new_fields(st.Q, st.w), new_fields(st.Q, st.w)
    assert solver._rhs(st.Q, st.w, disc, want, one, 0.3) is want
    assert solver._rhs(st.Q, st.w, disc, got, ws, 0.3) is got
    results = [got]
    for work in (one, ws):
        in_place = copy_state(st)
        solver._rhs(in_place.Q, in_place.w, disc,
                    (in_place.Q, in_place.w), work, 0.3)
        results.append((in_place.Q, in_place.w))
    for q, w in results:
        _assert_bitwise(solver.SimulationState(disc, 0.0, q, w),
                        solver.SimulationState(disc, 0.0, *want))


@pytest.mark.filterwarnings("ignore:source sits on an element boundary")
def test_benchmark_grids_split_into_slabs(monkeypatch):
    # on 2 cores: hws3d at 8 elements has 14 element rows with layers on
    # every axis, whose one-row slabs (112,896 values of Q) run one at a
    # time; the 3D plane wave 12 rows without layers, in pairs of 3-row
    # slabs (248,832 values of Q each); the strip 24 x 10 in 2D, one slab
    from elastowave.harness import experiments, presets
    monkeypatch.setattr(solver, "_CORES", 2)
    for cfg, heights, group in (
            (presets.preset("hws3d", elements=8, degree=3), [1] * 14, 1),
            (presets.planewave_config(dim=3, elements=12, degree=3),
             [3] * 4, 2),
            (presets.preset("strip2d"), [24], 1)):
        disc = experiments.build_problem(cfg)[0]
        assert np.diff(solver._slab_bounds(disc)).tolist() == heights
        assert solver._slab_group(disc) == group


def _ring_sizes(ws):
    """Per field, the values of each ring buffer and the values of the
    largest slab s with s = k mod len for each buffer k."""
    length = len(ws.ring[0])
    for field, bufs in enumerate(ws.ring):
        sizes = [s.term[field].size for s in ws.slabs]
        yield ([b.size for b in bufs],
               [max(sizes[k::length]) for k in range(length)])


def test_slab_workspace_holds_one_term(monkeypatch):
    # a ring of min(P+1, slabs) buffers per field, in which every stage
    # of a slab rewrites the slab's term, each buffer of the largest slab
    # that maps to it, and one slab's result and scratch: as one slab the
    # ring is the state's size, in one-row slabs (8 rows, P+1 = 4) no
    # array of the workspace is as large as Q, and all of them less than
    # the state (the stage result alone was one state)
    disc = make_disc(dim=3, counts=(8, 4, 4), degree=3,
                     widths=_every_axis(3))
    st = solver.setup_state(disc)
    state = sum(a.nbytes for a in (st.Q, *st.w))

    def held(ws):
        arrays = (*(b for bufs in ws.ring for b in bufs),
                  ws.buf, ws.result, ws.halo)
        assert len(ws.ring[0]) == min(4, len(ws.slabs))
        for got, want in _ring_sizes(ws):
            assert got == want
        return sum(a.nbytes for a in arrays), max(a.size for a in arrays)

    nbytes, _ = held(solver.Workspace(disc))
    assert nbytes > 2 * state
    _slab_rows(monkeypatch, disc, 1)
    ws = solver.Workspace(disc)
    assert len(ws.slabs) == 8
    nbytes, largest = held(ws)
    assert largest < st.Q.size
    assert nbytes < 0.85 * state


def test_ring_holds_the_x_layer_once(monkeypatch):
    # in one-row slabs (8 rows, P+1 = 4) the x layer damps rows 0 and 7,
    # slabs 0 and 7, which map to buffers 0 and 3: the ring of the x
    # layer's field holds its two rows, and buffers 1 and 2 are empty,
    # where four buffers of the largest slab held twice the field
    disc = make_disc(dim=3, counts=(8, 4, 4), degree=3,
                     widths={"x": (1.25, 1.25), "y": (2.5, 2.5)})
    _slab_rows(monkeypatch, disc, 1)
    ws = solver.Workspace(disc)
    pos = [t.axis_index for t in disc.damping].index(0)
    field = solver.setup_state(disc).w[pos]
    assert field.shape[1] == 2
    bufs = ws.ring[1 + pos]
    assert [b.size for b in bufs] == [field.size // 2, 0, 0, field.size // 2]
    for got, want in _ring_sizes(ws):
        assert got == want


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_layer_tables_do_not_grow_with_the_cross_section(axis):
    # d varies along the layer's axis only: its tables hold lo + hi
    # element blocks of n^3 nodes on 6^3 elements and on a grid of twice
    # the elements along the other axes.  Materialized over the element
    # axes after the layer's, the x tables held 4 times as many on the
    # second grid and the y tables twice as many
    name = "xyz"[axis]
    tables = []
    for other in (6, 12):
        counts = tuple(6 if ax == axis else other for ax in range(3))
        disc = make_disc(dim=3, counts=counts, degree=3,
                         widths={"x": (2.5, 2.5), "y": (2.5, 0.0),
                                 "z": (0.0, 2.5)})
        pos = [t.axis for t in disc.damping].index(name)
        tab = disc.damping[pos]
        tables.append(disc.layers[pos][1][:2])
        for t in tables[-1]:
            assert t.nbytes == 8 * (tab.lo + tab.hi) * 4 ** 3
    for small, large in zip(*tables):
        assert np.array_equal(small, large)


def test_slabs_view_the_grids_layer_tables(monkeypatch):
    # a slab's x layer tables -d and -(d + alpha) are views of the rows
    # of the grid's tables that its damped rows take, equal to them, on
    # one slab and on one-row slabs through both layer ends
    disc = make_disc(dim=3, counts=(5, 3, 4), degree=3,
                     widths=_every_axis(3))
    pos = [t.axis_index for t in disc.damping].index(0)
    grid = disc.layers[pos][1][:2]
    for rows in (None, 1):
        if rows:
            _slab_rows(monkeypatch, disc, rows)
        slabs = solver.Workspace(disc).slabs
        damped = [s for s in slabs if s.disc.layers[pos][0][1]]
        assert len(damped) == (1 if rows is None else 2)
        for slab in damped:
            i = slab.index[1 + pos]
            for mine, theirs in zip(slab.disc.layers[pos][1][:2], grid):
                assert np.shares_memory(mine, theirs)
                assert np.array_equal(mine, theirs[i])


def test_run_slab_count_bitwise(monkeypatch):
    # a layered run with a source and a receiver, through one slab and
    # through one-row slabs
    disc = make_disc(dim=3, counts=(5, 3, 4), degree=3, theta=0.5,
                     widths=_every_axis(3), d0=1.3, alpha=0.2,
                     gamma=GAMMA_ALL_3D, layered="mixed")
    moment = np.eye(3) + 0.3 * (1 - np.eye(3))
    src = MomentTensorSource(disc.mesh, disc.ops, (4.1,) * 3, moment,
                             GaussianSTF(sigma=0.05, t0=0.08))
    runs = []
    for rows in (None, 1):
        if rows:
            _slab_rows(monkeypatch, disc, rows)
            assert len(solver.Workspace(disc).slabs) == 5
        st = random_state(disc, seed=12, scale=1e-3)
        rec = Receiver(disc.mesh, disc.ops, (6.3, 2.2, 7.7))
        solver.run(st, 0.1, 0.02, sources=[src], callbacks=[rec])
        monkeypatch.undo()
        runs.append((st, rec))
    (st1, rec1), (st2, rec2) = runs
    _assert_bitwise(st2, st1)
    assert len(rec1.samples) == 6
    assert np.array_equal(np.array(rec2.samples), np.array(rec1.samples))


@pytest.mark.filterwarnings("ignore:source sits on an element boundary")
@pytest.mark.parametrize("degree,rows,cores", [
    pytest.param(degree, rows, cores, id=f"{degree}-{rows}"
                 + ("", "", "-pairs", "-triples")[cores])
    for degree in (1, 3) for rows in (1, 2) for cores in (1, 2, 3)])
def test_sweep_slab_count_bitwise(monkeypatch, degree, rows, cores):
    # a layered run through one slab and through slabs of `rows` rows,
    # 10 or 5 of them, so the ring of P+1 slab terms wraps (2 buffers at
    # degree 1, 4 at degree 3), or run in groups of 2 or 3 slabs, one per
    # thread, whose last group is short but for one-row pairs:
    # theta = 0.5, layers on every axis, one source in row 3 (the second
    # row of a 2-row slab) and one in row 6 (the first row of a slab
    # either way), one in each slab of the first group and one on the
    # face of its first cut, and a receiver
    disc = make_disc(dim=3, counts=(10, 3, 4), degree=degree, theta=0.5,
                     widths=_every_axis(3), d0=1.3, alpha=0.2,
                     gamma=GAMMA_ALL_3D, layered="mixed")
    _slab_rows(monkeypatch, disc, rows, cores)
    ws = solver.Workspace(disc)
    assert len(ws.slabs) == 10 // rows and ws.group == cores
    groups = -(-len(ws.slabs) // cores)
    assert len(ws.ring[0]) == cores * min(degree + 1, groups)
    first = ws.slabs[:cores]
    xs = [3.5, 6.5, float(first[0].stop)] + [s.start + 0.5 for s in first]
    monkeypatch.undo()
    moment = np.eye(3) + 0.3 * (1 - np.eye(3))
    srcs = [MomentTensorSource(disc.mesh, disc.ops, (x, 4.1, 4.1), moment,
                               GaussianSTF(sigma=0.05, t0=0.08))
            for x in xs]
    assert [s.elem[0] for s in srcs[:2]] == [3, 6]
    runs = []
    for slab_rows in (None, rows):
        if slab_rows:
            _slab_rows(monkeypatch, disc, slab_rows, cores)
        st = random_state(disc, seed=13, scale=1e-3)
        rec = Receiver(disc.mesh, disc.ops, (6.3, 2.2, 7.7))
        solver.run(st, 0.1, 0.02, sources=srcs, callbacks=[rec])
        monkeypatch.undo()
        runs.append((st, np.array(rec.samples)))
    (st1, rec1), (st2, rec2) = runs
    _assert_bitwise(st2, st1)
    assert np.array_equal(rec2, rec1)
    assert np.array_equal(np.signbit(rec2), np.signbit(rec1))


def test_step_forms_no_kron(monkeypatch):
    # the derivative matrices come from discretize in the shape _diff
    # applies them, kron(D, I) on the short rows of the 3D middle node
    # axis at degree 3, so a step in slabs forms none
    disc = make_disc(dim=3, counts=(6, 4, 4), degree=3,
                     widths=_every_axis(3))
    _slab_rows(monkeypatch, disc, 2)
    st, ws = random_state(disc), solver.Workspace(disc)
    calls = []
    kron = np.kron

    def counted(*args):
        calls.append(args)
        return kron(*args)

    monkeypatch.setattr(np, "kron", counted)
    solver.ader_step(st, 1e-3, (), ws)
    assert calls == []
    assert solver._diff_matrix(disc.ops.D, 4).shape == (16, 16)


@pytest.mark.parametrize("dim", [2, 3])
def test_step_with_source_matches_taylor_sum(dim):
    # the stage terms carry dt/k through the RHS and c_k = dt^k/k! through
    # the source; the reference sums c_k u^(k), u^(k) = L u^(k-1) +
    # f^(k-1)(t), each formed unscaled
    disc = make_disc(dim=dim, counts=(3,) * dim, degree=3, theta=0.5,
                     widths=_every_axis(dim), d0=1.3, alpha=0.2,
                     gamma=GAMMA_ALL_2D if dim == 2 else GAMMA_ALL_3D)
    moment = np.eye(dim) + 0.3 * (1 - np.eye(dim))
    src = MomentTensorSource(disc.mesh, disc.ops, (4.1,) * dim, moment,
                             GaussianSTF(sigma=0.05, t0=0.08))
    st = random_state(disc, seed=8)
    st.t, dt = 0.06, 0.02
    want = [st.Q.copy(), *(wi.copy() for wi in st.w)]
    term, coef = (st.Q, st.w), 1.0
    for k in range(1, disc.ops.degree + 2):
        term = fresh_rhs(*term, disc)
        src.inject(term[0], st.t, k - 1)
        coef *= dt / k
        for acc, part in zip(want, (term[0], *term[1])):
            acc += coef * part
    t_next = st.t + dt
    got = solver.ader_step(st, dt, [src], solver.Workspace(disc))
    assert got.t == t_next
    for a, b in zip((got.Q, *got.w), want, strict=True):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


@pytest.mark.parametrize("dim,counts", [(2, (64, 64)), (3, (10, 10, 10))])
def test_step_through_workspace_allocates_only_the_result(dim, counts):
    # the second step through one workspace adds into the state it is
    # given and allocates no state row: numpy's ufunc buffers (up to
    # three of solver._BUFSIZE doubles) and element-sized factors, 44 /
    # 49 KB, stay below a quarter of one face plane of the grid, which is
    # smaller than a row here (215 / 217 KB under numpy's default
    # buffers of 8192 doubles).  A new state for the sum took 1.04 /
    # 1.02 states on top
    disc = make_disc(dim=dim, counts=counts, degree=3, theta=0.5,
                     widths=_every_axis(dim))
    st = random_state(disc)
    ws = solver.Workspace(disc)
    plane = st.Q[:dim, ..., 0].nbytes
    bound = 3 * solver._BUFSIZE * st.Q.itemsize + (32 << 10)
    assert 4 * bound < plane < st.Q[0].nbytes
    peak = _peak_states(lambda: solver.ader_step(st, 1e-3, (), ws), st)
    assert peak * st.Q.nbytes <= bound


def test_step_advances_the_given_state():
    # the step adds its terms into the state's own arrays and returns it
    disc = make_disc(counts=(3, 3), widths=_every_axis(2))
    st = random_state(disc, seed=4)
    q, w, before = st.Q, st.w, copy_state(st)
    got = solver.ader_step(st, 0.01, (), solver.Workspace(disc))
    assert got is st and got.t == 0.01
    assert got.Q is q and all(a is b for a, b in zip(got.w, w, strict=True))
    assert not np.array_equal(got.Q, before.Q)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="per-thread CPU times need /proc")
def test_step_runs_on_calling_thread():
    # every product of a step, the out= ones included, stays below the
    # BLAS library's threading threshold (see test_diff_runs_on_calling_
    # thread), so other threads take no CPU time while it steps
    disc = make_disc(dim=3, counts=(12, 12, 12), degree=3,
                     widths=_every_axis(3))
    st = random_state(disc)
    ws = solver.Workspace(disc)
    main = str(threading.get_native_id())
    before = _thread_cpu_ticks()
    for _ in range(20):
        st = solver.ader_step(st, 1e-3, (), ws)
    after = _thread_cpu_ticks()
    own = after[main] - before.get(main, 0)
    others = sum(t - before.get(tid, 0) for tid, t in after.items()
                 if tid != main)
    assert others <= 0.1 * own + 2, (own, others)


@pytest.fixture
def own_bufsize():
    """The calling thread's ufunc buffers at a size neither numpy's
    default nor solver._BUFSIZE for the test, and at their size before
    it after."""
    size = 2 * solver._BUFSIZE
    assert size != np.getbufsize()
    before = np.setbufsize(size)
    yield size
    np.setbufsize(before)


def test_grouped_rhs_under_fast_thread_switching(monkeypatch, own_bufsize):
    # four slabs at once, more threads than the cores of a desk machine,
    # with the interpreter switching threads every microsecond: the rates
    # are bitwise those of one slab, five times over, and the caller's
    # ufunc buffers are its own again after each
    disc = make_disc(dim=3, counts=(9, 3, 4), degree=2, theta=0.5,
                     widths=_every_axis(3), d0=1.3, alpha=0.2,
                     gamma=GAMMA_ALL_3D, layered="mixed")
    st = random_state(disc, seed=5)
    want = fresh_rhs(st.Q, st.w, disc)
    _slab_rows(monkeypatch, disc, 1, cores=4)
    ws = solver.Workspace(disc)
    assert len(ws.slabs) == 9 and ws.group == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = solver._rhs(st.Q, st.w, disc, new_fields(st.Q, st.w), ws,
                              1.0)
            _assert_bitwise(solver.SimulationState(disc, 0.0, *got),
                            solver.SimulationState(disc, 0.0, *want))
            assert np.getbufsize() == own_bufsize
    finally:
        sys.setswitchinterval(interval)


def _process_cpu_ticks():
    """CPU ticks of the whole process, its ended threads' among them."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])     # utime + stime


def _solver_threads():
    return [t for t in threading.enumerate()
            if t.name == solver._THREAD_NAME]


def _grouped_disc(monkeypatch, cores=2):
    """12^3 elements at degree 3 with layers on every axis, in 2-row
    slabs run in groups of `cores`."""
    disc = make_disc(dim=3, counts=(12, 12, 12), degree=3, theta=0.5,
                     widths=_every_axis(3))
    _slab_rows(monkeypatch, disc, 2, cores)
    assert solver.Workspace(disc).group == cores
    return disc


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="per-thread CPU times need /proc")
def test_grouped_step_runs_on_its_workers(monkeypatch):
    # in pairs of slabs the worker, which has ended when the step returns,
    # takes CPU ticks (the process's, less those of the threads still
    # alive; it takes as many as the caller on an idle machine), and the
    # BLAS library's threads stay idle as in one slab at a time (see
    # test_step_runs_on_calling_thread)
    disc = _grouped_disc(monkeypatch)
    st = random_state(disc)
    ws = solver.Workspace(disc)
    main = str(threading.get_native_id())
    before, total = _thread_cpu_ticks(), _process_cpu_ticks()
    for _ in range(20):
        st = solver.ader_step(st, 1e-3, (), ws)
    after, total = _thread_cpu_ticks(), _process_cpu_ticks() - total
    own = after[main] - before.get(main, 0)
    others = sum(t - before.get(tid, 0) for tid, t in after.items()
                 if tid != main)
    assert total - own - others > 0.1 * own + 2, (own, others, total)
    assert others <= 0.1 * own + 2, (own, others)


class _Probe:
    """A point source in element elem that records the threads it is
    injected on and the ufunc buffer sizes it sees there.  With a
    partner, it waits (at most 10 s) until the partner has been
    injected: in the first slab of a group, which the calling thread
    runs, it holds that thread there until a worker has run the
    partner's slab.  With an error, it raises it."""

    def __init__(self, elem, partner=None, error=None):
        self.elem, self.partner, self.error = elem, partner, error
        self.threads, self.injected = set(), threading.Event()
        self.bufsizes = set()

    def inject(self, dq, t, k=0, scale=1.0, start=0):
        self.threads.add(threading.current_thread().name)
        self.bufsizes.add(np.getbufsize())
        self.injected.set()
        if self.partner is not None:
            assert self.partner.injected.wait(10)
        if self.error is not None:
            raise self.error


def _on_a_worker(elem, error=None):
    """A probe in elem, which lies in the second or a later slab of the
    first group, and a probe in row 0 that holds the calling thread until
    a worker has run the first: the sources of a run."""
    probe = _Probe(elem, error=error)
    return probe, [_Probe((0, 0, 0), partner=probe), probe]


@pytest.mark.parametrize("error", [None, ZeroDivisionError("slab")],
                         ids=["returns", "raises"])
def test_grouped_step_shuts_its_pool_down(monkeypatch, own_bufsize, error):
    # the thread pool a grouped step enters is shut down, and its
    # workers joined, once the step returns or raises a worker's
    # exception, while the test still holds the pool; both slabs' sources
    # ran with ufunc buffers of solver._BUFSIZE, on the caller and on a
    # worker, and the caller's own size is back after the step
    disc = _grouped_disc(monkeypatch)
    pools, workers = [], []
    pool, start = solver._pool, solver._start_worker

    @contextmanager
    def held(size):
        with pool(size) as executor:
            pools.append(executor)
            yield executor

    def started(*args):
        workers.append(threading.current_thread())
        start(*args)

    monkeypatch.setattr(solver, "_pool", held)
    monkeypatch.setattr(solver, "_start_worker", started)
    probe, sources = _on_a_worker((3, 0, 0), error=error)
    st, ws = random_state(disc, scale=1e-3), solver.Workspace(disc)
    if error is None:
        solver.ader_step(st, 1e-3, sources, ws)
    else:
        with pytest.raises(ZeroDivisionError) as raised:
            solver.ader_step(st, 1e-3, sources, ws)
        assert raised.value is error
    assert probe.threads == {solver._THREAD_NAME}
    assert len(pools) == 1 and len(workers) == 1
    with pytest.raises(RuntimeError, match="shutdown"):
        pools[0].submit(print)
    assert not workers[0].is_alive()
    for src in sources:
        assert src.bufsizes == {solver._BUFSIZE}
    assert np.getbufsize() == own_bufsize


def test_no_solver_thread_outlives_run(monkeypatch):
    # a worker runs the second slab of the first pair, and no worker is
    # alive after run returns, after it raises DivergenceDetected or after
    # a callback raises
    disc = _grouped_disc(monkeypatch)
    probe, sources = _on_a_worker((3, 0, 0))
    st = random_state(disc, scale=1e-3)
    solver.run(st, 2e-3, 1e-3, sources=sources)
    assert solver._THREAD_NAME in probe.threads
    assert _solver_threads() == []

    st.Q[0, 5, 0, 0, 0, 0, 0] = np.inf
    with pytest.raises(DivergenceDetected):
        solver.run(st, st.t + 1e-3, 1e-3)
    assert _solver_threads() == []

    def fails(state):
        if state.t > 0:
            raise KeyError("callback")

    with pytest.raises(KeyError, match="callback"):
        solver.run(random_state(disc), 2e-3, 1e-3, callbacks=[fails])
    assert _solver_threads() == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grouped_divergence_detected(monkeypatch, own_bufsize):
    # an element of row 3, in the second slab of the first pair, at 1e308
    # overflows on a worker in the first stage of a step of 10 s; under
    # the caller's np.errstate the worker warns nothing, and the step
    # names the first element that is not finite in C order.  The slabs
    # ran with ufunc buffers of solver._BUFSIZE on the caller and the
    # worker, and the caller's own size is back after the raise
    disc = _grouped_disc(monkeypatch)
    probe, sources = _on_a_worker((3, 0, 0))
    st = random_state(disc, scale=1e-3)
    st.Q[:, 3, 2, 1] = 1e308
    with pytest.raises(DivergenceDetected) as err:
        solver.run(st, 10.0, 10.0, sources=sources)
    assert solver._THREAD_NAME in probe.threads
    first = np.unravel_index(np.argmin(np.isfinite(st.Q)), st.Q.shape)
    elem = tuple(int(e) for e in first[1:4])
    assert str(err.value).startswith(
        f"non-finite Q in the step from t = 0 to 10 s, in element {elem} (")
    assert _solver_threads() == []
    for src in sources:
        assert src.bufsizes == {solver._BUFSIZE}
    assert np.getbufsize() == own_bufsize


@pytest.mark.parametrize("cores,caller", [
    pytest.param(2, False, id="2"), pytest.param(3, False, id="3"),
    pytest.param(2, True, id="2-caller"), pytest.param(3, True, id="3-caller"),
    pytest.param(1, False, id="1-serial")])
def test_worker_exception_reaches_the_caller(monkeypatch, cores, caller):
    # a source in the last slab of the first group raises on a worker;
    # the step raises it, after the workers are joined.  Where the
    # source in the caller's slab (row 0) raises too, once a worker has
    # run the last slab, the step raises the caller's exception.  One
    # slab at a time (cores = 1, six slabs) no worker starts: the
    # source in the grid's last slab raises on the calling thread
    disc = _grouped_disc(monkeypatch, cores)
    error = ZeroDivisionError("slab")
    if cores == 1:
        probe = _Probe((disc.mesh.counts[0] - 1, 0, 0), error=error)
        sources, threads = [probe], {threading.current_thread().name}
    else:
        probe, sources = _on_a_worker((2 * cores - 1, 0, 0), error=error)
        threads = {solver._THREAD_NAME}
    if caller:
        sources[0].error = error = KeyError("caller")
    with pytest.raises(type(error)) as raised:
        solver.run(random_state(disc), 1e-3, 1e-3, sources=sources)
    assert raised.value is error
    assert probe.threads == threads
    assert _solver_threads() == []


@pytest.mark.parametrize("cores", [2, 3])
def test_grouped_step_allocates_only_ufunc_buffers(monkeypatch, cores):
    # the second step through one workspace, its slabs in groups of 2 or
    # 3, allocates per thread numpy's ufunc buffers (three of
    # solver._BUFSIZE doubles), element-sized factors and the threads'
    # own objects, and no state row: 0.009 / 0.013 states (0.053 / 0.054
    # under numpy's default buffers of 8192 doubles)
    disc = _grouped_disc(monkeypatch, cores)
    st = random_state(disc)
    ws = solver.Workspace(disc)
    bufs = 3 * solver._BUFSIZE * st.Q.itemsize
    assert cores * (bufs + (32 << 10)) < st.Q[0].nbytes
    peak = _peak_states(lambda: solver.ader_step(st, 1e-3, (), ws), st)
    assert peak * st.Q.nbytes <= cores * (bufs + (32 << 10))


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
    mesh = build_mesh((0.0,) * 3, (1.0,) * 3, (1, 1, 1), (m,))
    disc = solver.discretize(mesh, build_operators(1, "GLL"))
    for ax in range(3):
        for fam in range(3):
            want = 1.62e7 if fam == ax else 2700.0 * 3464.0
            assert disc.z[ax][fam].ravel()[0] == pytest.approx(want)


@pytest.mark.parametrize("dim,layered", [(3, False), (2, True), (3, True)])
def test_discretize_compacts_element_tables(dim, layered):
    # a table keeps only the element axes it varies along: none on one
    # material, x on a layered mesh; broadcast back to the element grid,
    # each equals the per-element table built from material_ids
    counts = (4, 3, 2)[:dim]
    gamma = GAMMA_ALL_2D if dim == 2 else GAMMA_ALL_3D
    disc = make_disc(dim=dim, counts=counts, gamma=gamma, layered=layered)
    mesh, grid = disc.mesh, counts + (1,) * dim
    kept = (counts[0] if layered else 1,) + (1,) * (dim - 1)
    per_elem = {}
    for name in ("rho", "lam", "mu"):
        table = getattr(disc, name + "_e")
        assert table.shape == kept + (1,) * dim
        per_elem[name] = np.array(
            [getattr(m, name) for m in mesh.materials])[mesh.material_ids]
        assert np.array_equal(np.broadcast_to(table, grid).reshape(counts),
                              per_elem[name])
    rho, lam, mu = (per_elem[k] for k in ("rho", "lam", "mu"))
    zp, zs = rho * np.sqrt((2 * mu + lam) / rho), rho * np.sqrt(mu / rho)
    for ax, name in enumerate("xyz"[:dim]):
        full = np.stack([zp if f == ax else zs for f in range(dim)]).reshape(
            (dim,) + counts + (1,) * (dim - 1))
        assert disc.z[ax].shape == (dim,) + kept + (1,) * (dim - 1)
        assert np.array_equal(np.broadcast_to(disc.z[ax], full.shape), full)
        want = solver._face_coefficients(full, ax, mesh.gamma[(name, -1)],
                                          mesh.gamma[(name, 1)])
        for got, table in zip(disc.faces[ax], want, strict=True):
            assert got.ndim == table.ndim
            assert np.array_equal(np.broadcast_to(got, table.shape), table)


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
    mesh = build_mesh((0.0, 0.0), (120.0, 50.0), (24, 10), (m,))
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
        dq, dw = fresh_rhs(st.Q, st.w, disc)
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
    got = flatten_state(solver.ader_step(unflatten_state(disc, u0), dt, (),
                                         solver.Workspace(disc)))
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
        ws = solver.Workspace(disc)
        for _ in range(5):
            st = solver.ader_step(st, dt, (), ws)
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
    ws = solver.Workspace(disc)
    for _ in range(60):
        st = solver.ader_step(st, dt, (), ws)
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


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("t_end, dt, name", [
    pytest.param(INF, 0.1, "t_end", id="t_end-inf"),
    pytest.param(NAN, 0.1, "t_end", id="t_end-nan"),
    # a NaN or infinite step returned the initial state without a word,
    # a negative one marched backwards until the fields blew up
    pytest.param(1.0, NAN, "dt", id="dt-nan"),
    pytest.param(1.0, -0.1, "dt", id="dt-negative"),
    pytest.param(1.0, INF, "dt", id="dt-inf"),
])
def test_run_rejects_bad_times(t_end, dt, name):
    disc = make_disc(counts=(2, 2), degree=1)
    st = solver.setup_state(disc)
    calls = []

    def bounded(state):
        calls.append(state.t)
        if len(calls) > 3:
            raise RuntimeError(f"run kept stepping with a bad {name}")

    with pytest.raises(ValueError, match=f"^{name} must be"):
        solver.run(st, t_end, dt, callbacks=[bounded])


def test_divergence_detected():
    # element (0, 0) lies in no layer, in the layer of x, or in those of
    # x and y; within the step the inf spreads to neighbouring elements,
    # all of them after (0, 0) in C order
    for widths, region in ((None, "interior"),
                           ({"x": (0.0, 2.5), "y": (0.0, 2.5)}, "interior"),
                           ({"x": (2.5, 0.0)}, "layer"),
                           ({"x": (2.5, 0.0), "y": (2.5, 2.5)}, "corner")):
        disc = make_disc(counts=(4, 4), degree=1, widths=widths)
        st = solver.setup_state(disc)
        st.Q[0, 0, 0, 0, 0] = np.inf
        with pytest.raises(DivergenceDetected, match=re.escape(
                "non-finite Q in the step from t = 0 to 0.01 s, in element"
                f" (0, 0) ({region})")):
            solver.ader_step(st, 0.01, (), solver.Workspace(disc))


@pytest.mark.parametrize("x, y_slab, elem, region", [
    (1, 0, (1, 0), "layer"), (1, 1, (1, 3), "layer"),
    (3, 0, (3, 0), "corner")], ids=["x1-y0", "x1-y3", "x3-y0"])
def test_divergence_names_auxiliary_element(x, y_slab, elem, region):
    # the slab of the y layer holds y = 0, then y = 3; x = 1 is interior,
    # x = 3 in the layer of x.  A later non-finite value, in row 3, is
    # not the first
    disc = make_disc(counts=(4, 4), degree=1,
                     widths={"x": (2.5, 2.5), "y": (2.5, 2.5)})
    st = solver.setup_state(disc)
    w_y = st.w[1]
    w_y[0, x, y_slab, 1] = np.nan
    w_y[3, 0, 0, 0] = np.inf
    st.t = 0.25
    assert solver._blow_up(st, 0.125, w_y, disc.damping[1]) == (
        "non-finite auxiliary field of axis y in the step from t = 0.125 to"
        f" 0.25 s, in element {elem} ({region})")


@pytest.mark.parametrize("theta", [0.0])
def test_layered_strip_has_no_growing_mode(theta):
    # power iteration on the step map of the strip cut to 12x2 elements
    # at degree 5, two of them in each layer: seeded random Q and w, run
    # in 40 s chunks and renormalized together after each; the first
    # chunk is the transient of the random start.  The theta = 1 scheme
    # grows here at +0.02 to +0.05/s (ROADMAP item 2)
    cfg = finalize(replace(
        ps.preset("strip2d", theta=theta),
        box=((-30e3, 30e3), (0.0, 10e3)), initial=None, receivers=()))
    disc, state, _, _ = xp.build_problem(cfg)
    assert disc.mesh.counts == (12, 2)
    dt = solver.stable_dt(disc.mesh, cfg.materials, cfg.degree, cfg.cfl,
                          damping_rate=max(t.d0 + t.alpha
                                           for t in disc.damping))
    rng = np.random.default_rng(7)
    for field in (state.Q,) + state.w:
        field[...] = rng.standard_normal(field.shape)
    chunk, rates = 40.0, []
    for _ in range(10):
        solver.run(state, state.t + chunk, dt)
        norm = np.sqrt(sum(np.vdot(f, f) for f in (state.Q,) + state.w))
        for field in (state.Q,) + state.w:
            field /= norm
        rates.append(np.log(norm) / chunk)
    assert max(rates[1:]) <= 1e-3, rates


def test_plane_strain_embedding_matches_2d():
    # a z-invariant state with vz = sig_xz = sig_yz = 0 must evolve exactly
    # like its 2D restriction on the shared components
    m = material_from_speeds(2.0, 2.0, 1.0)
    gamma2 = {("x", -1): 1.0, ("x", 1): 0.0, ("y", -1): 0.0, ("y", 1): 1.0}
    mesh2 = build_mesh((0.0, 0.0), (6.0, 4.0), (3, 2), (m,), gamma2)
    gamma3 = dict(gamma2)
    gamma3[("z", -1)] = (1.0, 1.0, -1.0)
    gamma3[("z", 1)] = (1.0, 1.0, -1.0)
    mesh3 = build_mesh((0.0, 0.0, 0.0), (6.0, 4.0, 4.0), (3, 2, 2), (m,),
                       gamma3)
    ops = build_operators(2, "GLL")
    d2 = solver.discretize(mesh2, ops)
    d3 = solver.discretize(mesh3, ops)

    rng = np.random.default_rng(5)
    s2 = solver.setup_state(d2)
    s2.Q[...] = rng.standard_normal(s2.Q.shape)
    s3 = solver.setup_state(d3)
    comp_map = [(0, 0), (1, 1), (2, 3), (3, 4), (4, 6)]
    for c2, c3 in comp_map:
        s3.Q[c3] = s2.Q[c2][:, :, None, :, :, None]

    dt = solver.stable_dt(d2.mesh, d2.mesh.materials, 2, 0.5)
    ws2, ws3 = solver.Workspace(d2), solver.Workspace(d3)
    for _ in range(10):
        s2 = solver.ader_step(s2, dt, (), ws2)
        s3 = solver.ader_step(s3, dt, (), ws3)
    scale = np.abs(s2.Q).max()
    for c2, c3 in comp_map:
        diff = s3.Q[c3] - s2.Q[c2][:, :, None, :, :, None]
        assert np.abs(diff).max() <= 1e-10 * scale
    # out-of-plane couplings stay silent
    assert np.abs(s3.Q[2]).max() <= 1e-12 * scale
    assert np.abs(s3.Q[7]).max() <= 1e-12 * scale
    assert np.abs(s3.Q[8]).max() <= 1e-12 * scale
