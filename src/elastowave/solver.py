"""Semi-discrete update and ADER time integration.

Field layout: Q has shape (nc, E_x, E_y[, E_z], n, n[, n]) with the
component axis first, element axes next, node axes last; the first dim
components are velocities, the rest Voigt stresses.  The auxiliary
field of a layer on axis xi lives only on its damped elements, the part
of the element grid whose axis xi holds the layer's low and high end,
and only in the rows its equation touches: the velocities, then the
traction slots of xi, shape (2 dim, E_x, .., lo + hi, .., n, n[, n]).

The update makes one pass per axis.  On GLL nodes the faces of an
element along the axis are its node planes 0 and n-1, one basic slice
of step n-1: `_face_pair` views both faces of every element as one
array, the face axis first, and the face statements below act on such
pairs, the left faces then the right.  First
`fluctuation` forms the fluctuations of every element's two faces from
one formula.  At face side s (-1 left, +1 right) the outgoing
characteristic is out = (Z v - s T)/2 and the incoming one
inc = (Z v + s T)/2; the fluctuation is G = inc - r out - tau out_nb,
where out_nb is the neighbour's outgoing wave across the face.  At an
interface r = (Z - Z_nb)/(Z + Z_nb) and tau = 2 Z/(Z + Z_nb); at an
outer face r is the mesh's gamma and tau = 0.  These are the upwind hat
states of `flux`.  As inc = Z v - out, and (1 + r)/2 = tau/2 at an
interface, G = Z v - c (2 out + 2 out_nb) with one coefficient per
face, built once in discretize as one face-pair table per axis:
c = Z/(Z + Z_nb) at an interface, whose two faces share the sum of
their outgoing waves, and (1 + gamma)/2 with out_nb = 0 at an outer
face.  Then the derivative A dQ/dxi is one matmul per source (traction
into the velocity rows, velocity into the traction slots) on a
(pre, n, post) view, with 2/h folded into D: batched D @ (n, post)
blocks, or where the rows n post are short (the last node axis, and
the middle one up to degree 3) 2-D row blocks times kron(D, I_post).T.
The fluctuation pair, scaled by one lift scalar, goes onto the face
pair of each derivative piece in one in-place add.  A row of the
result that no earlier axis has written takes its derivative straight
(every row of the first axis, then the stress rows new to an axis), so
no row is zero-filled; the others take it from scratch in contiguous
adds.  The damped elements of an axis are a prefix and a suffix of
that element axis: the decay -(d + alpha) w and -d w are one product
each over the whole auxiliary field, and the adds of -d w into Q and
every scatter are basic-slice views per layer end.  The auxiliary
equations take the same derivative with its face terms, one slice add
each, and for theta != 1 (theta - 1) times the face terms on their
face pairs.  The material map (1/rho on velocities, stiffness on stress
rates) is applied once at the end, as it writes Q's rates.  The
per-element tables are compact, so their products with face planes and
rows run long inner loops.

An RHS takes a scale, which rides the derivative matrix, the lift
scalar and the layer tables, so an ADER stage forms its Taylor term
dt^k/k! u^(k) in one pass and the step adds each term once into the
state it advances.

The RHS runs one slab of element rows along the first element axis at a
time, 2 MiB of Q and w each on every grid (_SLAB_BYTES).  The y and z
faces, the layer terms and the material map stay inside a slab; an x
face between two slabs takes the neighbour row's outgoing wave, so the
result is bitwise the same for any slab count.  On a grid of large slabs
a stage runs a group of G slabs at once, one per core the process may
use (_CORES), the first on the calling thread and the others on worker
threads, which numpy lets run in parallel as it releases the GIL inside
its loops; a slab no worker has taken when the calling thread is free
runs there.  A group holds the bytes of G slabs.  An ADER step is one
sweep over the groups: at sweep j, stage k = 1..P+1 forms the Taylor
term T_k on group j - k + 1, over T_(k-1) in each slab's buffer of a
ring of G min(P+1, groups) slab buffers per field, injects the sources
in each slab and adds the term into the state's rows of the slab.
T_(k-1) on the next group was formed earlier in the same sweep; the
outgoing wave of the previous group's last row was saved per stage
before that group was overwritten, at stage 1 before the state's rows
took T_1, and those on both sides of each face inside the group are
formed before any of its slabs writes.  So each slab sees the inputs a
whole-grid stage would give it, and the terms are bitwise the same for
any grouping.  `run` builds one Workspace and hands it to every
`ader_step`; it dies when run returns.  It holds per place in a group
the RHS scratch of the largest slab and a slab result of Q's rates,
whose bools the finiteness check borrows (slab s uses those of place
s mod G, whichever thread runs it), and the ring.  Every kernel writes
into buffers its caller passes, so a step allocates nothing
state-sized.  A run holds the state, the ring and the slab results: on
a grid of more groups than P+1, one state-sized array and at most P+2
groups; on a grid of at most P+1 groups the ring holds the whole grid,
a second state's worth, and on a grid of one slab the result a Q-sized
third.  A step starts its workers and joins them before it returns, so
no thread outlives it.  Its ufunc calls, on the calling thread and the
workers, run with buffers of _BUFSIZE doubles, which fit the L1 cache.
"""

import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from itertools import accumulate
from math import prod
from operator import mul

import numpy as np

from .errors import DivergenceDetected, UnsupportedDegree
# The face pass calls neither; benchmarks/job.py wraps them here by
# name for its per-layer trace, so they stay importable from solver.
from .flux import hat_boundary, hat_interface  # noqa: F401
from .mesh import node_coordinates
from .physics import axes_of, n_components, sig_slots


@dataclass(frozen=True)
class Discretization:
    """Shared immutable tables: mesh, operators, materials per element,
    per-axis derivatives and impedances, face lift scalars, damping.

    The state has mesh.dim velocity and n_components(mesh.dim) total
    components.  Per axis, faces holds the coefficients c of the face
    fluctuations as one face-pair table, the left faces then the right
    (see _face_coefficients and _face_pair), and lift scales the
    fluctuation pair onto node planes 0 and n-1; the GLL weights are
    symmetric, so one scalar serves both faces.  layers holds, per
    damping table, the auxiliary field's shape, its decay tables and its
    element slices per layer end (see _layer_tables).

    The per-element tables (rho_e, lam_e, mu_e, z, faces) are compact:
    every element axis along which one is constant has length 1 (see
    _compact), so they broadcast to, but need not equal, the shapes
    noted below.  So are the decay tables of a layer: length 1 along
    every element axis but the layer's own, whose damped elements they
    hold."""

    mesh: object
    ops: object
    theta: float
    damping: tuple
    rho_e: np.ndarray   # counts + (1,)*dim
    lam_e: np.ndarray
    mu_e: np.ndarray
    dmat: tuple     # per axis: the nodal derivative D scaled by 2 / h, in
                    # the shape _diff applies it, transposed where it
                    # multiplies from the right (see _diff_matrix)
    z: tuple        # per axis: (dim,) + counts + (1,)*(dim-1)
    faces: tuple    # per axis: (2, dim) + counts + (1,)*(dim-1), c on
                    # the left then the right faces
    lift: tuple     # per axis: 2 / (h * w_0)
    slots: tuple    # per axis traction component slots in the state vector
    layers: tuple   # parallel to damping: see _layer_tables


def _layer_tables(tab, counts, n):
    """The damped elements of one axis as basic slices: the first tab.lo
    and the last tab.hi elements along it, every other element axis whole.
    Returns the shape of the auxiliary field and the tables -d and
    -(d + alpha) on all of its elements, both layer ends, with per
    nonempty end (element slice of Q, element slice of w).  d varies along
    the layer's axis only: the tables have length 1 along every other
    element axis and are materialized over the node axes, so each holds
    lo + hi element blocks whatever the grid's cross-section, and the RHS
    multiplies w by them, times its scale, as they are."""
    ax, dim = tab.axis_index, len(counts)
    k = tab.lo + tab.hi
    d = tab.damp.reshape((k,) + (1,) * ax + (n,) + (1,) * (dim - 1 - ax))
    d = np.ascontiguousarray(np.broadcast_to(d, (k,) + (n,) * dim))
    d = d.reshape((1,) * (1 + ax) + (k,) + (1,) * (dim - 1 - ax) + d.shape[1:])
    return (2 * dim,) + counts[:ax] + (k,) + counts[ax + 1:] + (n,) * dim, (
        -d, -(d + tab.alpha), _layer_ends(tab.lo, tab.hi, counts[ax], ax))


def _layer_ends(lo, hi, count, ax):
    """Per nonempty end of a layer holding the first lo and the last hi
    of count elements along axis ax: (element slice of Q, element slice
    of w)."""
    ends = []
    high = slice(count - hi, count)
    for q_el, w_el in ((slice(0, lo),) * 2, (high, slice(lo, lo + hi))):
        if w_el.stop > w_el.start:
            ends.append((_at(q_el, 1 + ax), _at(w_el, 1 + ax)))
    return tuple(ends)


def _face_coefficients(z, ax, gamma_lo, gamma_hi):
    """c of G = Z v - c (2 out + 2 out_nb) (see the module docstring) on
    face pairs of (2,) plus z's shape, at every element's left and right
    face: Z / (Z + Z_nb) at the interfaces, (1 + gamma) / 2 per wave
    family at the outer faces."""
    lo, hi = _at(slice(None, -1), 1 + ax), _at(slice(1, None), 1 + ax)
    den = z[lo] + z[hi]
    c_l, c_r = c = np.empty((2,) + z.shape)
    c_l[hi] = z[hi] / den
    c_r[lo] = z[lo] / den
    fam = (len(z),) + (1,) * (z.ndim - 1)
    c_l[_at(slice(0, 1), 1 + ax)] = (1.0 + gamma_lo.reshape(fam)) / 2
    c_r[_at(slice(-1, None), 1 + ax)] = (1.0 + gamma_hi.reshape(fam)) / 2
    return c


def _compact(table, axes):
    """table cut to length 1 along each of axes on which it is constant:
    the smallest shape that broadcasts back to it.  numpy then runs its
    inner loops over the whole run of stride-0 axes and the node axes
    after them, not over one element's face or node block."""
    for k in axes:
        first = table[_at(slice(0, 1), k)]
        if table.shape[k] > 1 and (table == first).all():
            table = first
    return np.ascontiguousarray(table)


def discretize(mesh, ops, theta=1.0, damping=()):
    """GLL nodes only: the end nodes are the element faces, so each face
    trace is a node plane and each lift a scalar times that plane."""
    if ops.rule.kind != "GLL":
        raise UnsupportedDegree(
            f"time stepping needs GLL nodes, got {ops.rule.kind}")
    dim = mesh.dim
    rho = np.array([m.rho for m in mesh.materials])[mesh.material_ids]
    lam = np.array([m.lam for m in mesh.materials])[mesh.material_ids]
    mu = np.array([m.mu for m in mesh.materials])[mesh.material_ids]
    zp = rho * np.sqrt((2 * mu + lam) / rho)
    zs = rho * np.sqrt(mu / rho)
    tail, elems = (1,) * dim, range(1, 1 + dim)
    z, faces, lift, slot_list, dmat = [], [], [], [], []
    for ax, name in enumerate(axes_of(dim)):
        zax = np.stack([zp if f == ax else zs for f in range(dim)])
        zax = zax.reshape((dim,) + mesh.counts + (1,) * (dim - 1))
        faces.append(_compact(_face_coefficients(
            zax, ax, mesh.gamma[(name, -1)], mesh.gamma[(name, 1)]),
            range(2, 2 + dim)))
        z.append(_compact(zax, elems))
        lift.append(2.0 / mesh.spacings[ax] / ops.rule.weights[0])
        dmat.append(_diff_matrix(ops.D * (2.0 / mesh.spacings[ax]),
                                 ops.n_nodes ** (dim - 1 - ax)))
        slot_list.append(np.array(sig_slots(name, dim)))
    damping = tuple(damping)
    rho_e, lam_e, mu_e = (_compact(a.reshape(mesh.counts + tail), range(dim))
                          for a in (rho, lam, mu))
    return Discretization(
        mesh=mesh, ops=ops, theta=float(theta), damping=damping,
        rho_e=rho_e, lam_e=lam_e, mu_e=mu_e,
        dmat=tuple(dmat),
        z=tuple(z), faces=tuple(faces), lift=tuple(lift),
        slots=tuple(slot_list),
        layers=tuple(_layer_tables(tab, mesh.counts, ops.n_nodes)
                     for tab in damping))


@dataclass
class SimulationState:
    disc: Discretization
    t: float
    Q: np.ndarray
    w: tuple  # parallel to disc.damping


def _field_shapes(disc):
    """The shapes of Q and of the auxiliary fields, for disc."""
    mesh, n = disc.mesh, disc.ops.n_nodes
    return ((n_components(mesh.dim),) + mesh.counts + (n,) * mesh.dim,
            tuple(s for s, _ in disc.layers))


def setup_state(disc):
    q, w = _field_shapes(disc)
    return SimulationState(disc=disc, t=0.0, Q=np.zeros(q),
                           w=tuple(np.zeros(s) for s in w))


# Bytes of Q and its auxiliary fields per slab, on every grid: a stage
# forms the rates one slab of element rows along axis 0 at a time, and
# the Workspace holds the Taylor terms of min(P+1, groups) slabs per
# place in a group (see ader_step).  2 MiB takes one row per slab on 14^3
# elements at degree 3 with layers on every axis (a workspace of 10.5
# MiB, 18.7 in 2-row slabs), 3 rows on 12^3 without, and keeps a 2D strip
# of 24x10 elements one slab.  Medians of 30 serial steps, alternated (2
# cores): on the first grid one slab 154.5 ms, 2-row slabs 132.5 ms and
# one-row slabs 135.2 ms (2% over 2-row slabs, where it was 12% before
# the contiguous right-hand matrices of _diff and the L1-sized ufunc
# buffers); on the second one slab 65.9 ms, 3-row slabs 56.9 ms, 6-row
# slabs 61.1 ms.  Every slab adds the numpy calls of one RHS.
_SLAB_BYTES = 2 << 20
# The cores this process may run on, and so the slabs of a group.
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
# Values of Q in the smallest slab of a grid that runs its slabs in
# groups, one thread per slab.  A step in pairs of slabs on two threads
# against the same slabs one at a time, medians of 5 runs (2 cores): on
# 12^3 elements at degree 3 without layers (82,944 values of Q per row),
# 1-row slabs 67.5 against 72.3 ms (1.07x), 2-row slabs 41.8 against
# 53.1 ms (1.27x), 3-row slabs 36.9 against 56.5 ms (1.53x); on the 14^3
# of hws3d at 8 elements (112,896 per row), 1-row slabs 123.1 against
# 128.9 ms (1.05x), and 133.8 against 125.3 ms (0.94x) with a CPU-bound
# process on the other core.  Every slab adds the numpy calls of one RHS
# and a hand-over between threads.
_GROUP_VALUES = 3 << 16
# The name of the worker threads of a group's slabs.
_THREAD_NAME = "elastowave-slab"
# Doubles in each of numpy's ufunc buffers while a step runs (see
# _ufunc_buffers).  numpy copies an operand that is strided, as the
# element-axis slices of the face and layer adds are, through three
# buffers of that many doubles: at numpy's default 8192 (64 KiB each)
# they overflow a 48 KiB L1 data cache.  Medians of steps alternated
# between 8192 and 1024 doubles (2 cores): hws3d at 8 elements 147.2
# against 134.5 ms (1.09x), the 12^3 plane wave 44.6 against 44.2 ms, the
# canonical 2D strip 3.4 against 3.1 ms.
_BUFSIZE = 1024


def _slab_bounds(disc):
    """The element rows of axis 0 where the step's slabs start and stop:
    as few slabs as hold _SLAB_BYTES of Q and w each at the mean bytes per
    row, at least one row each, their heights within one row of each
    other."""
    rows = disc.mesh.counts[0]
    q, w = _field_shapes(disc)
    doubles = sum(prod(s) for s in (q, *w))
    per = max(1, _SLAB_BYTES * rows // (8 * doubles))
    count = -(-rows // per)
    return [rows * i // count for i in range(count + 1)]


def _slab_group(disc):
    """How many slabs a stage runs at once, one per thread: _CORES on a
    grid of two or more slabs (see _slab_bounds), each of at least
    _GROUP_VALUES values of Q, else 1."""
    count = len(_slab_bounds(disc)) - 1
    rows = disc.mesh.counts[0]
    per_row = prod(_field_shapes(disc)[0]) // rows
    if count > 1 and rows // count * per_row >= _GROUP_VALUES:
        return _CORES
    return 1


def _restrict(disc, start, stop):
    """disc on the element rows start:stop of axis 0, and per field (Q,
    then the auxiliary fields) the index of those rows.  The per-element
    tables are cut to the rows.  A layer of axis 0 damps the rows of its
    ends among them: its tables are views of those rows of the grid's,
    and its ends lie in the slab.  The mesh stays the whole grid's."""
    count = disc.mesh.counts[0]
    rows, layers = [slice(start, stop)], []
    for tab, (shape, tables) in zip(disc.damping, disc.layers):
        if tab.axis_index:
            rows.append(slice(start, stop))
            layers.append((shape[:1] + (stop - start,) + shape[2:], tables))
            continue
        # the damped rows among them: how many the low and the high end
        # hold, and the first of them in the auxiliary field
        lo = max(min(stop, tab.lo) - start, 0)
        hi = max(stop - max(start, count - tab.hi), 0)
        first = min(start, tab.lo) + max(start - count + tab.hi, 0)
        rows.append(slice(first, first + lo + hi))
        layers.append((shape[:1] + (lo + hi,) + shape[2:], (
            *(t[_at(rows[-1], 1)] for t in tables[:2]),
            _layer_ends(lo, hi, stop - start, 0))))

    def cut(table, axis):
        if table.shape[axis] == 1:
            return table
        return table[_at(slice(start, stop), axis)]

    return replace(
        disc, rho_e=cut(disc.rho_e, 0), lam_e=cut(disc.lam_e, 0),
        mu_e=cut(disc.mu_e, 0), z=tuple(cut(z, 1) for z in disc.z),
        faces=tuple(cut(c, 2) for c in disc.faces),
        layers=tuple(layers)), tuple(_at(r, 1) for r in rows)


@dataclass(frozen=True)
class _Slab:
    """The element rows start:stop of axis 0 and what a stage needs to
    form their rates: per field (Q, then the auxiliary fields) the index of
    the rows, disc's tables on them (see _restrict), the result of Q's
    rates on them and the RHS scratch shaped for them, both of the slab's
    place in its group, neg_dw the part after the axis terms' scratch,
    and per field the slab's Taylor term, its buffer of Workspace.ring."""

    start: int
    stop: int
    index: tuple
    disc: Discretization
    out: np.ndarray
    gather: np.ndarray
    planes: np.ndarray
    der: np.ndarray
    neg_dw: np.ndarray
    term: tuple


class Workspace:
    """The buffers of one run, built by `run` and handed to every
    ader_step; they die when run returns.

    A stage forms the rates one slab of element rows along axis 0 at a
    time (slabs of _SLAB_BYTES each, see _slab_bounds), or on a grid of
    large slabs a group of `group` such slabs at once, on as many
    threads, of which any may run any slab of the group.  Each place in
    a group has its own RHS scratch and slab result, sized to the
    largest slab: slab s uses those of place s mod group, whichever
    thread runs it.  The RHS scratch is one buffer: the traction gather,
    dim rows of the slab; the fluctuation pair G, one (2, dim, rows, ..)
    face-pair array of the left and the right faces (see _face_pair);
    the derivative, dim rows again.  planes is the two face-pair arrays
    `fluctuation` takes, G and the pair of outgoing waves 2 out, which
    lies over the derivative, not formed yet when it is.  Around each
    damped axis -d*w lies behind the axis terms' scratch: 2 dim rows on
    the layer's damped elements of the slab.  buf holds the scratch of
    every place, result their slab results.

    ring holds per field group * min(P+1, groups) flat buffers: slab s
    keeps its Taylor terms in buffer s mod len, each stage after the
    first rewriting the last in place (see _sweep), so buffer k holds
    the largest of that field's slabs s with s = k mod len.  The x
    layer's field has rows only in the slabs at both ends of the grid,
    and a buffer no such slab maps to is empty.
    A slab's result is where a stage forms the rates of Q on the slab
    before the material map writes them into the slab's term.  halo
    holds face planes of one row of elements, the outgoing waves across
    slab faces on axis 0: per stage those of the last rows of the two
    latest groups, then those of the slabs on both sides of each face
    from a group's first slab to the next group's first.  Between steps
    result is idle, and the finiteness check, slab by slab, writes its
    bools there: no field's slab holds more values than Q's."""

    def __init__(self, disc):
        dim, n = disc.mesh.dim, disc.ops.n_nodes
        bounds, self.group = _slab_bounds(disc), _slab_group(disc)
        q_shape, _ = _field_shapes(disc)
        face = disc.mesh.counts[1:] + (n,) * (dim - 1)
        parts, scratch = [], []
        for start, stop in zip(bounds, bounds[1:]):
            sub, index = _restrict(disc, start, stop)
            plane = (dim, stop - start) + face
            terms = 2 * (n + 1) * prod(plane)
            shapes = [q_shape[:1] + (stop - start,) + q_shape[2:]]
            shapes += [shape for shape, _ in sub.layers]
            parts.append((start, stop, index, sub, plane, terms, shapes))
            scratch += [terms] + [terms + prod(s) for s in shapes[1:]]
        each = max(scratch)
        self.buf = np.empty(self.group * each)
        # per field, the values of each slab; buffer k of a field holds the
        # largest slab s with s = k mod length
        values = list(zip(*([prod(s) for s in p[-1]] for p in parts)))
        groups = -(-len(parts) // self.group)
        length = self.group * min(disc.ops.degree + 1, groups)
        self.ring = tuple(tuple(np.empty(max(v[k::length], default=0))
                                for k in range(length)) for v in values)
        rates = max(values[0])
        self.result = np.empty(self.group * rates)
        # per stage two planes, then two per face inside a group and one
        # for the next group's: none on a grid of one slab
        planes = 2 * disc.ops.degree + 1 + 2 * self.group
        self.halo = np.empty((planes if len(parts) > 1 else 0, dim, 1) + face)
        slabs = []
        for s, (start, stop, index, sub, plane, terms, shapes) in \
                enumerate(parts):
            own = s % self.group
            buf = self.buf[own * each:(own + 1) * each]
            size = prod(plane)
            rows = n * size
            slabs.append(_Slab(
                start, stop, index, sub,
                _view(self.result[own * rates:], shapes[0]),
                buf[:rows].reshape(plane + (n,)),
                buf[rows:rows + 4 * size].reshape((2, 2) + plane),
                buf[rows + 2 * size:terms].reshape(plane + (n,)),
                buf[terms:],
                tuple(_view(r[s % len(r)], shape)
                      for r, shape in zip(self.ring, shapes))))
        self.slabs = tuple(slabs)


def _view(buf, shape):
    """The first prod(shape) entries of a contiguous buffer, as shape."""
    return buf.reshape(-1)[:prod(shape)].reshape(shape)


def nodal_coordinates(disc):
    """Physical node coordinates, one read-only broadcast array per axis,
    each shaped like a scalar field (counts + node dims)."""
    mesh, nodes = disc.mesh, disc.ops.rule.nodes
    full = mesh.counts + nodes.shape * mesh.dim
    return [np.broadcast_to(node_coordinates(mesh, ax, nodes), full)
            for ax in range(mesh.dim)]


# Entries (rows * m * m) of one product in _diff: small enough that the
# BLAS library computes it on the calling thread.
_GEMM_BLOCK = 1 << 16
# Longest row n * post that _diff multiplies by kron(D, I_post): on a 3D
# middle node axis, (rows, 16) @ (16, 16) blocks beat the batched
# (4, 4) @ (4, 4) items 1.3-2x at degree 3; at degree 5, (36, 36) blocks
# gain nothing over the batched (6, 6) @ (6, 6) ones or lose to them.
_KRON_ROW = 16


def _diff_matrix(D, post):
    """D as _diff applies it along a node axis with post values per node
    after it: D for the batched product from the left; on short rows (see
    _diff) and on the last node axis, which multiply from the right, the
    contiguous transpose of kron(D, I_post) or of D, so the BLAS library
    runs its kernel for an untransposed right operand."""
    if post > 1 and len(D) * post > _KRON_ROW:
        return D
    return np.ascontiguousarray(np.kron(D, np.eye(post)).T)


def _diff(arr, node_ax, D, out):
    """D along axis node_ax of a C-contiguous array, into out, a
    C-contiguous array of arr's shape, seen as (pre, n, post) with n the
    node axis.  D is the nodal derivative in the shape _diff_matrix(D,
    post) gives it, and that shape picks the product: an n x n D with
    the node axis not last takes one batched matmul, D @ (n, post)
    blocks; a stored kron(D, I_post).T takes (rows, n post) @ it, and on
    the last node axis (post = 1) (rows, n) blocks take D.T the same way.

    Every product stays small.  One large product would be spread over
    the BLAS library's threads, whose workers then spin between calls
    and stall each call on whatever else holds the other cores, for no
    gain on these bandwidth-bound products."""
    shape = arr.shape
    n, post = shape[node_ax], prod(shape[node_ax + 1:])
    if post > 1 and len(D) == n:
        blocks = (prod(shape[:node_ax]), n, post)
        np.matmul(D, arr.reshape(blocks), out=out.reshape(blocks))
        return out
    m = n * post
    rows, k = 1, node_ax
    while k > 0 and rows * shape[k - 1] * m * m <= _GEMM_BLOCK:
        k -= 1
        rows *= shape[k]
    blocks = (-1, rows, m)
    np.matmul(arr.reshape(blocks), D, out=out.reshape(blocks))
    return out


def _at(k, axis):
    """Index k along `axis`, every earlier axis whole (a basic slice)."""
    return (slice(None),) * axis + (k,)


def _rhs(Q, w, disc, out, ws, scale):
    """scale times the rates (dQ, dw) of the state (Q, w), the one-stage
    sweep (see _sweep) over the whole grid.  They overwrite out, a Q and
    its auxiliary fields, which is returned and may be (Q, w) itself; the
    scratch comes from ws, a Workspace for disc."""
    _sweep(ws, disc, (Q, *w), (scale,), (out[0], *out[1]), np.copyto)
    return out


def _add(dst, term):
    dst += term


def _sweep(ws, disc, fields, scales, into, take, sources=(), t=0.0):
    """Stage k = 1..len(scales) forms T_k = scales[k-1] L T_(k-1) + c_k
    f^(k-1)(t) from T_0 = fields, a Q and its auxiliary fields, with c_k
    the product of the first k scales and f the sources; each term, slab
    by slab, goes to the same rows of into through take(rows, term).

    One sweep over the groups of ws.group slabs (see Workspace): at sweep
    j, stage k forms T_k on group j - k + 1, each slab in its buffer of
    ws.ring, over T_(k-1).  Its rates read T_(k-1) on the group, on the
    first row of the next group, formed earlier in the same sweep, and
    the outgoing wave of the previous group's last row, saved in ws.halo
    before that group's input was overwritten.  The outgoing waves on
    both sides of every face between two slabs of the group, and of the
    next group's first row, are formed before any slab of the group
    writes.  Then the group's slabs run at once, the first on the
    calling thread and each other on a worker of the sweep's thread
    pool, or on the calling thread if no worker has started it (see
    _run_group): each forms its rates, injects its sources and takes its
    term; take comes after the save, so into may be fields.  The pool
    is opened only for groups of two or more slabs and joins its
    workers before the sweep returns or raises.  The sweep runs with
    ufunc buffers of _BUFSIZE on every thread, and gives the caller its
    own size back.  An x face between two slabs takes the neighbour
    row's outgoing wave, so the terms are bitwise the same for any slabs
    and groups.  The factor rides the derivative matrix (a scalar times
    it, so contiguous as stored), the lift scalar and the layer tables."""
    slabs, size, stages = ws.slabs, ws.group, len(scales)
    count = -(-len(slabs) // size)
    terms = [[(scale * d, scale * h) for d, h in zip(disc.dmat, disc.lift)]
             for scale in scales]
    coefs = list(accumulate(scales, mul))
    inside = [[src for src in sources if slab.start <= src.elem[0] < slab.stop]
              for slab in slabs]

    def given(k, slab):
        """T_(k-1) on slab's rows."""
        if k > 1:
            return slab.term
        return tuple(a[i] for a, i in zip(fields, slab.index))

    def stage(k, s, halo):
        """Stage k on slab s, halo its outgoing waves (see _slab_rhs)."""
        slab = slabs[s]
        q, *w = given(k, slab)
        dq, *dw = slab.term
        _slab_rhs(q, w, slab, scales[k - 1], terms[k - 1], halo, dq, dw)
        for src in inside[s]:
            src.inject(dq, t, k - 1, coefs[k - 1], slab.start)
        for a, i, term in zip(into, slab.index, slab.term):
            take(a[i], term)

    with _ufunc_buffers(), _pool(size) as pool:
        for j in range(count + stages - 1):
            for k in range(max(1, j + 2 - count), min(j + 1, stages) + 1):
                g = j - k + 1
                group = range(g * size, min(g * size + size, len(slabs)))
                saved = ws.halo[2 * k - 2:2 * k]
                spare = iter(ws.halo[2 * stages:])
                # the outgoing waves across each face from the group's first
                # slab to the next group's, from T_(k-1), before any slab of
                # the group writes; the group's last row's is saved for the
                # next group
                halos = [[None, None] for _ in group]
                if g:
                    halos[0][0] = saved[(g - 1) % 2]
                for i, s in enumerate(group):
                    if s + 1 == len(slabs):
                        break
                    slab, ahead = slabs[s], slabs[s + 1]
                    halos[i][1] = _outgoing(given(k, ahead)[0], ahead.disc,
                                            0, 0, next(spare))
                    last = s == group[-1]
                    wave = _outgoing(given(k, slab)[0], slab.disc,
                                     slab.stop - slab.start - 1, -1,
                                     saved[g % 2] if last else next(spare))
                    if not last:
                        halos[i + 1][0] = wave
                _run_group(pool, stage,
                           [(k, s, h) for s, h in zip(group, halos)])


@contextmanager
def _ufunc_buffers():
    """numpy's ufunc buffers, which numpy keeps per thread, at _BUFSIZE
    doubles; the caller's size back on exit."""
    caller = np.setbufsize(_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(caller)


def _pool(size):
    """size - 1 worker threads named _THREAD_NAME, each under the
    caller's np.errstate and with ufunc buffers of _BUFSIZE, both of
    which numpy keeps per thread; a null context, no pool, for a size of
    1.  On exit the pool joins its workers."""
    if size == 1:
        return nullcontext()
    # imported here: it loads logging, which serial grids need not hold
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(size - 1, initializer=_start_worker,
                              initargs=(np.geterr(),))


def _start_worker(errstate):
    threading.current_thread().name = _THREAD_NAME
    np.seterr(**errstate)
    np.setbufsize(_BUFSIZE)


def _run_group(pool, fn, calls):
    """fn(*args) for each args of calls, the first on the calling thread
    and each other on a worker of pool (None for a single call), or on
    the calling thread once it is free if no worker has started it.
    Returns when all are done, raising the caller's exception, else the
    first a worker raised."""
    futures = [pool.submit(fn, *args) for args in calls[1:]]
    try:
        fn(*calls[0])
        for future, args in zip(futures, calls[1:]):
            if future.cancel():
                fn(*args)
    finally:
        # drop the calls no worker has started, wait for the others
        errors = [f.exception() for f in futures if not f.cancel()]
    for error in errors:
        if error is not None:
            raise error


def _outgoing(Q, disc, row, node, out):
    """2 out, the outgoing wave of element row `row` of axis 0 of Q, the
    rows of a slab and disc its tables, across its face at node plane
    node (0 left, -1 right) of axis 0, as `fluctuation` forms it: Z v + T
    on the left, Z v - T on the right; into out."""
    dim = disc.mesh.dim
    face = (slice(row, row + 1),) + (slice(None),) * (dim - 1) + (node,)
    z = disc.z[0]
    if z.shape[1] > 1:
        z = z[:, row:row + 1]
    np.multiply(z, Q[(slice(0, dim),) + face], out=out)
    z_v_t = np.add if node == 0 else np.subtract
    for o, slot in zip(out, disc.slots[0]):
        z_v_t(o, Q[(slot,) + face], out=o)
    return out


def _slab_rhs(Q, w, slab, scale, terms, halo, dest, dw):
    """The rates of one stage on one slab: Q and w its rows, slab its _Slab,
    terms per axis the derivative matrix and the lift scalar times scale.
    halo holds the outgoing waves across its faces on axis 0 (see
    fluctuation), None where the face is the grid's.  The rates of w go
    into dw, its rows of the result, which may be w itself; the material
    map writes the rates of Q from the slab's result into dest."""
    disc, total = slab.disc, slab.out
    dim = disc.mesh.dim
    layers = {tab.axis_index: pos for pos, tab in enumerate(disc.damping)}
    for ax, (dmat, lift) in enumerate(terms):
        edges = halo if ax == 0 else (None, None)
        pos = layers.get(ax)
        if pos is None:
            _axis_terms(Q, ax, slab, dmat, lift, edges)
            continue
        wpos, dws = w[pos], dw[pos]
        neg_d, decay, ends = disc.layers[pos][1]
        # -d*w and the decay of w over the whole layer, both read before
        # dws, which in place is w, is written; then the terms of the axis
        neg_dw = np.multiply(neg_d * scale, wpos,
                             out=_view(slab.neg_dw, wpos.shape))
        np.multiply(decay * scale, wpos, out=dws)
        _axis_terms(Q, ax, slab, dmat, lift, edges, dws, ends)
        # -d*w, added on the same elements of Q once the axis has written
        # or added its terms there; the slots one row each on basic
        # slices, where a fancy index would copy, add and write back
        for q_el, w_el in ends:
            rates, src = total[q_el], neg_dw[w_el]
            rates[:dim] += src[:dim]
            for r, x in zip(disc.slots[ax], src[dim:]):
                rates[r] += x

    np.divide(total[:dim], disc.rho_e, out=dest[:dim])
    s = total[dim:]
    tr = np.sum(s[:dim], axis=0, out=slab.gather[0])
    tr *= disc.lam_e
    s[:dim] *= 2 * disc.mu_e
    np.add(s[:dim], tr, out=dest[dim:2 * dim])
    np.multiply(s[dim:], disc.mu_e, out=dest[2 * dim:])


def _axis_terms(Q, ax, slab, dmat, lift, halo, dws=None, ends=()):
    """The terms of axis ax on one slab, derivative matrix dmat and lift
    scalar lift, into the slab's result, and added to the layer ends of
    dws (damped elements, see _layer_tables) with the face terms scaled
    by theta: the velocity rows into dws[:dim], the traction slots into
    dws[dim:].  Each row of the result that no earlier axis has written
    (every row, on the first axis) takes its derivative straight, the
    others add it from the scratch; the velocity rows go as one block,
    the slots one row at a time.  The gather, derivative and face pairs
    are the slab's scratch, which the next axis overwrites; halo goes to
    `fluctuation`."""
    disc, total = slab.disc, slab.out
    dim = disc.mesh.dim
    node_ax = 1 + dim + ax
    v, t = Q[:dim], slab.gather
    for row, slot in zip(t, disc.slots[ax]):
        row[...] = Q[slot]
    # -H^-1 e F with F = (G; side a^T G / Z), side -1 on the left face:
    # -lift G onto the velocity rows, -side lift G / Z onto the slots.
    # g holds the face terms of the rows at hand, left then right: -lift
    # G, then for the slots lift G / Z and -lift G / Z.
    g = fluctuation(v, t, ax, disc, slab.planes, halo)
    g *= -lift
    # A dQ/dxi with the face terms added on its face pair.  Each piece
    # is m rows from row i of src, g and the half w_rows of dws, and
    # from row r of total, with whether an earlier axis has written them:
    # the first axis writes the velocity rows, and slot i of axis ax, the
    # stress of axes ax and i, is written first by axis min(ax, i).
    for src, w_rows in ((t, slice(0, dim)), (v, slice(dim, None))):
        if src is t:
            pieces = ((0, 0, dim, ax > 0),)
        else:               # the velocity rows are done with G
            g /= disc.z[ax]
            np.negative(g[0], out=g[0])
            pieces = tuple((i, r, 1, i < ax)
                           for i, r in enumerate(disc.slots[ax]))
        for i, r, m, added in pieces:
            dest = total[r:r + m]
            der = _view(slab.der, dest.shape) if added else dest
            _diff(src[i:i + m], node_ax, dmat, der)
            faces = _face_pair(der, node_ax)
            faces += g[:, i:i + m]
            if added:
                dest += der
            w = w_rows.start + i
            for q_el, w_el in ends:
                dws[w:w + m][w_el] += der[q_el]
        if not ends or disc.theta == 1.0:
            continue
        # the auxiliary fields take theta times the face terms: add
        # (theta - 1) times them, formed in the spent traction gather
        f = np.multiply(g, disc.theta - 1.0, out=_view(slab.gather, g.shape))
        for q_el, w_el in ends:
            faces = _face_pair(dws[w_el], node_ax)
            faces[:, w_rows] += f[(slice(None),) + q_el]


def _face_pair(a, axis):
    """Node planes 0 and n-1 of axis `axis` of a, the two faces of every
    element on GLL nodes, as one view with that axis first: (2,) plus
    a's other axes."""
    n = a.shape[axis]
    return a[_at(slice(0, n, n - 1), axis)].transpose(_FIRST[a.ndim, axis])


# Per rank up to 7, that of Q on a 3D grid, and axis: the axes of an
# array of that rank with that axis first, the others in order.  Looked
# up, as building the tuple on each call of _face_pair costs 4x more.
_FIRST = {(rank, ax): (ax, *range(ax), *range(ax + 1, rank))
          for rank in range(8) for ax in range(rank)}


def fluctuation(v, t, ax, disc, planes, halo):
    """The face pass of axis ax: G = Z v - c (2 out + 2 out_nb) on the
    face pair (see _face_pair) of every element, left then right, with
    out_nb = 0 at the outer faces, from the velocities v and the
    tractions t of that axis.  planes holds two face-pair buffers: G,
    which is returned, then 2 out, a temporary that may lie over any
    scratch the caller has not filled yet (the derivative, in
    _axis_terms).  The coefficient table broadcasts over the face nodes
    (see _compact).  On axis 0, v and t may be a slab of element rows.
    halo holds 2 out of the neighbour rows across the left and right
    faces of axis 0, None where the face is the grid's, as on every
    other axis (see _outgoing)."""
    node_ax = 1 + disc.mesh.dim + ax
    g, out = planes
    np.multiply(disc.z[ax], _face_pair(v, node_ax), out=g)
    # 2 out = Z v - side T: Z v + T on the left, Z v - T on the right
    (t_l, t_r), (out_l, out_r) = _face_pair(t, node_ax), out
    np.add(g[0], t_l, out=out_l)
    np.subtract(g[1], t_r, out=out_r)
    # both faces of an interface take the sum of its two outgoing waves
    lo, hi = _at(slice(None, -1), 1 + ax), _at(slice(1, None), 1 + ax)
    prev, nxt = halo
    out_l[hi] += out_r[lo]
    if prev is not None:
        out_l[:, :1] += prev
    out_r[lo] = out_l[hi]
    if nxt is not None:
        out_r[:, -1:] += nxt
    g -= np.multiply(disc.faces[ax], out, out=out)
    return g


# Truncated-Taylor stepping is only conditionally stable against stiff
# damping: measured blow-up thresholds for the damped system sit near
# d*dt in [2.3, 2.9] across degrees, so cap d*dt at 2 with margin.
_DAMPING_COURANT = 2.0


def stable_dt(mesh, materials, degree, cfl, damping_rate=0.0):
    """CFL-limited step: cfl * min spacing / (max sqrt(cp^2+cs^2) * (2P+1)).

    damping_rate is the largest zero-order decay rate in the system
    (peak layer profile plus frequency shift); it adds the stiffness
    cap dt <= 2 / rate on top of the advective limit.
    """
    if degree < 1:
        raise UnsupportedDegree(f"degree must be at least 1, got {degree}")
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"CFL must lie in (0, 1], got {cfl}")
    speed = max(np.sqrt(m.cp ** 2 + m.cs ** 2) for m in materials)
    dt = cfl * min(mesh.spacings) / (speed * (2 * degree + 1))
    if damping_rate > 0.0:
        dt = min(dt, _DAMPING_COURANT / damping_rate)
    return dt


def ader_step(state, dt, sources, ws):
    """Taylor step of order P+1, in place: u += sum_k T_k with
    T_k = dt^k/k! u^(k) and u^(k+1) = L u^(k) + f^(k)(t_n).

    Each stage forms its term whole, T_k = (dt/k) L T_(k-1) + c_k
    f^(k-1) with c_k = dt^k/k!: the RHS takes the factor dt/k and the
    sources inject c_k f^(k-1).  ws is a Workspace for state.disc.  The
    step is one sweep over the groups of slabs (see _sweep): each stage
    of a slab writes its term over the last in the slab's ring buffer,
    and adds it into the slab's rows of state.Q and state.w, after stage
    1 has read them and saved the outgoing waves the neighbour slabs
    need, so the step allocates nothing state-sized.  On a grid whose
    slabs run in groups, the sweep runs each group's slabs on the
    calling thread and the workers of a thread pool, all under this
    step's np.errstate, and joins the workers before the finiteness
    check; their exceptions are raised here.  Returns state, advanced by
    dt; after DivergenceDetected its fields are not finite."""
    disc, fields = state.disc, (state.Q,) + state.w
    start = state.t
    scales = [dt / k for k in range(1, disc.ops.degree + 2)]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        _sweep(ws, disc, fields, scales, fields, _add, sources, start)
    state.t += dt
    for pos, (a, tab) in enumerate(zip(fields, (None,) + disc.damping)):
        for slab in ws.slabs:
            part = a[slab.index[pos]]
            finite = _view(ws.result.view(bool), part.shape)
            if not np.isfinite(part, out=finite).all():
                raise DivergenceDetected(_blow_up(state, start, a, tab))
    return state


def _blow_up(state, start, field, tab):
    """Where field (Q, or the auxiliary field of table tab) is first not
    finite in C order after the step from t = start to state.t: the
    element, and its region by its layers."""
    counts, damping = state.disc.mesh.counts, state.disc.damping
    first = np.unravel_index(np.argmin(np.isfinite(field)), field.shape)
    elem = [int(e) for e in first[1:1 + len(counts)]]
    name = "Q" if tab is None else f"auxiliary field of axis {tab.axis}"
    if tab is not None and elem[tab.axis_index] >= tab.lo:  # the high end
        elem[tab.axis_index] += counts[tab.axis_index] - tab.lo - tab.hi
    layers = sum(not t.lo <= elem[t.axis_index] < counts[t.axis_index] - t.hi
                 for t in damping)
    return (f"non-finite {name} in the step from t = {start:.6g} to"
            f" {state.t:.6g} s, in element {tuple(elem)}"
            f" ({('interior', 'layer', 'corner')[min(layers, 2)]})")


def run(state, t_end, dt, sources=(), callbacks=()):
    """March state in place to t_end in steps of dt, the last truncated
    to land on t_end exactly; returns state.  Callbacks see this one state
    at the start and after every step: one that keeps fields must copy.
    Each step joins the worker threads it starts (see ader_step), so no
    thread of the run is alive when it returns or raises."""
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not 0.0 < dt < np.inf:      # NaN fails too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if t_end < state.t:
        raise ValueError(f"t_end {t_end} before current time {state.t}")
    for cb in callbacks:
        cb(state)
    ws = Workspace(state.disc)
    eps = 1e-12 * max(dt, 1.0)
    while state.t < t_end - eps:
        step = min(dt, t_end - state.t)
        ader_step(state, step, sources, ws)
        for cb in callbacks:
            cb(state)
    return state
