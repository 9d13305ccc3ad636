"""Semi-discrete update and ADER time integration.

Field layout: Q has shape (nc, E_x, E_y[, E_z], n, n[, n]) with the
component axis first, element axes next, node axes last; the first dim
components are velocities, the rest Voigt stresses.  The auxiliary
field of a layer on axis xi lives only on its damped elements, the part
of the element grid whose axis xi holds the layer's low and high end,
and only in the rows its equation touches: the velocities, then the
traction slots of xi, shape (2 dim, E_x, .., lo + hi, .., n, n[, n]).

The update makes one pass per axis.  First `fluctuation` forms the
fluctuations of every element's two faces from one formula.  At face
side s (-1 left, +1 right) the outgoing characteristic is
out = (Z v - s T)/2 and the incoming one inc = (Z v + s T)/2; the
fluctuation is G = inc - r out - tau out_nb, where out_nb is the
neighbour's outgoing wave across the face.  At an interface
r = (Z - Z_nb)/(Z + Z_nb) and tau = 2 Z/(Z + Z_nb); at an outer face r
is the mesh's gamma and tau = 0.  These are the upwind hat states of
`flux`.  As inc = Z v - out, and (1 + r)/2 = tau/2 at an interface,
G = Z v - c (2 out + 2 out_nb) with one coefficient per face, built
once in discretize: c = Z/(Z + Z_nb) at an interface, whose two faces
share the sum of their outgoing waves, and (1 + gamma)/2 with
out_nb = 0 at an outer face.  Then the derivative A dQ/dxi is one
matmul per source (traction into the velocity rows, velocity into the
traction slots) on a (pre, n, post) view, with 2/h folded into D:
batched D @ (n, post) blocks, or where the rows n post are short (the
last node axis, and the middle one up to degree 3) 2-D row blocks times
kron(D, I_post).T.  On GLL nodes the faces are node planes 0 and n-1,
so each fluctuation plane, scaled by one lift scalar, is added onto its
node plane of the derivative.  A row of the result that no earlier axis
has written takes its derivative straight (every row of the first
axis, then the stress rows new to an axis), so no row is zero-filled;
the others take it from scratch in contiguous adds.  The damped
elements of an axis are a prefix and a suffix of that element axis:
the decay -(d + alpha) w and -d w are one product each over the whole
auxiliary field, and the adds of -d w into Q and every scatter are
basic-slice views per layer end.  The auxiliary equations take the
same derivative with its face terms, one slice add each, and for
theta != 1 (theta - 1) times the face terms on their face planes.  The
material map (1/rho on velocities, stiffness on stress rates) is
applied once at the end, as it writes Q's rates.  The per-element
tables are compact, so their products with face planes and rows run
long inner loops.

An RHS takes a scale, which rides the derivative matrix, the lift
scalar and the layer tables, so an ADER stage forms its Taylor term
dt^k/k! u^(k) in one pass and the step adds each term once into the
state it advances.

The RHS runs one slab of element rows along the first element axis at a
time, a few MiB of Q and w each (_SLAB_BYTES).  The y and z faces, the
layer terms and the material map stay inside a slab; an x face between
two slabs takes the neighbour row's outgoing wave, read from the input
before either slab's rows are written, so the result is bitwise the same
for any slab count.  `run` builds one Workspace and hands it to every
`ader_step`; it dies when run returns.  It holds the RHS scratch of the
largest slab (traction gather, fluctuation planes, derivative, scaled
layer tables, -d*w) and a slab-sized bool buffer for the finiteness
check.  A grid of one slab takes two ping-pong stage results; a grid of
several takes one, which each stage after the first overwrites in place
slab by slab, and one slab's result.  Every kernel writes into buffers
its caller passes, so a step allocates nothing state-sized, and a run of
several slabs holds two state-sized arrays: the state and one term.
"""

from dataclasses import dataclass, replace
from math import prod

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
    fluctuations on the left and the right faces (see
    _face_coefficients), and lift scales a fluctuation plane onto node
    plane 0 or n-1; the GLL weights are symmetric, so one scalar serves
    both faces.  layers
    holds, per damping table, the auxiliary field's shape, its decay
    tables and its element slices per layer end (see _layer_tables).

    The per-element tables (rho_e, lam_e, mu_e, z, faces) are compact:
    every element axis along which one is constant has length 1 (see
    _compact), so they broadcast to, but need not equal, the shapes
    noted below."""

    mesh: object
    ops: object
    theta: float
    damping: tuple
    rho_e: np.ndarray   # counts + (1,)*dim
    lam_e: np.ndarray
    mu_e: np.ndarray
    dmat: tuple     # per axis: the nodal derivative D scaled by 2 / h
    z: tuple        # per axis: (dim,) + counts + (1,)*(dim-1)
    faces: tuple    # per axis: (c left, c right)
    lift: tuple     # per axis: 2 / (h * w_0)
    slots: tuple    # per axis traction component slots in the state vector
    layers: tuple   # parallel to damping: see _layer_tables


def _layer_tables(tab, counts, n):
    """The damped elements of one axis as basic slices: the first tab.lo
    and the last tab.hi elements along it, every other element axis whole.
    Returns the shape of the auxiliary field and the tables -d and
    -(d + alpha) over all of its elements, both layer ends, with per
    nonempty end (element slice of Q, element slice of w).  d is
    materialized over every axis after the element axis, so numpy's inner
    loops run over contiguous runs rather than single node rows."""
    ax, dim = tab.axis_index, len(counts)
    k = tab.lo + tab.hi
    tail = counts[ax + 1:] + (n,) * dim
    d = tab.damp.reshape((k,) + (1,) * (dim - 1) + (n,)
                         + (1,) * (dim - 1 - ax))
    d = np.ascontiguousarray(np.broadcast_to(d, (k,) + tail))
    d = d.reshape((1,) * (1 + ax) + d.shape)
    ends = []
    high = slice(counts[ax] - tab.hi, counts[ax])
    for q_el, w_el in ((slice(0, tab.lo),) * 2, (high, slice(tab.lo, k))):
        if w_el.stop > w_el.start:
            ends.append((_at(q_el, 1 + ax), _at(w_el, 1 + ax)))
    return (2 * dim,) + counts[:ax] + (k,) + tail, (-d, -(d + tab.alpha),
                                                    tuple(ends))


def _face_coefficients(z, ax, gamma_lo, gamma_hi):
    """c of G = Z v - c (2 out + 2 out_nb) (see the module docstring) on
    face planes of z's shape, at every element's left and right face:
    Z / (Z + Z_nb) at the interfaces, (1 + gamma) / 2 per wave family at
    the outer faces."""
    lo, hi = _at(slice(None, -1), 1 + ax), _at(slice(1, None), 1 + ax)
    den = z[lo] + z[hi]
    c_l, c_r = np.empty(z.shape), np.empty(z.shape)
    c_l[hi] = z[hi] / den
    c_r[lo] = z[lo] / den
    fam = (len(z),) + (1,) * (z.ndim - 1)
    c_l[_at(slice(0, 1), 1 + ax)] = (1.0 + gamma_lo.reshape(fam)) / 2
    c_r[_at(slice(-1, None), 1 + ax)] = (1.0 + gamma_hi.reshape(fam)) / 2
    return c_l, c_r


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
    z, faces, lift, slot_list = [], [], [], []
    for ax, name in enumerate(axes_of(dim)):
        zax = np.stack([zp if f == ax else zs for f in range(dim)])
        zax = zax.reshape((dim,) + mesh.counts + (1,) * (dim - 1))
        faces.append(tuple(
            _compact(c, elems) for c in _face_coefficients(
                zax, ax, mesh.gamma[(name, -1)], mesh.gamma[(name, 1)])))
        z.append(_compact(zax, elems))
        lift.append(2.0 / mesh.spacings[ax] / ops.rule.weights[0])
        slot_list.append(np.array(sig_slots(name, dim)))
    damping = tuple(damping)
    rho_e, lam_e, mu_e = (_compact(a.reshape(mesh.counts + tail), range(dim))
                          for a in (rho, lam, mu))
    return Discretization(
        mesh=mesh, ops=ops, theta=float(theta), damping=damping,
        rho_e=rho_e, lam_e=lam_e, mu_e=mu_e,
        dmat=tuple(ops.D * (2.0 / h) for h in mesh.spacings),
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


def _zero_fields(disc):
    """A zero Q and zero auxiliary fields, shaped for disc."""
    q, w = _field_shapes(disc)
    return np.zeros(q), tuple(np.zeros(s) for s in w)


def setup_state(disc):
    Q, w = _zero_fields(disc)
    return SimulationState(disc=disc, t=0.0, Q=Q, w=w)


# Bytes of Q and its auxiliary fields per slab: _rhs forms the rates one
# slab of element rows along axis 0 at a time (see Workspace).  4 MiB
# takes 2 rows per slab on 14^3 elements at degree 3 with layers on every
# axis, 6 on 12^3 without, and keeps a 2D strip of 24x10 elements one
# slab.  Against one slab, a step took 3% longer in 2-row slabs and 16%
# in one-row slabs on the first grid, and no longer in 6-row slabs on
# the second (2 cores); every slab adds the numpy calls of one RHS.
_SLAB_BYTES = 4 << 20


def _slab_bounds(disc):
    """The element rows of axis 0 where the slabs start and stop: as few
    slabs as hold _SLAB_BYTES of Q and w at the mean bytes per row, at
    least one row each, their heights within one row of each other."""
    rows = disc.mesh.counts[0]
    q, w = _field_shapes(disc)
    doubles = sum(prod(s) for s in (q, *w))
    per = max(1, _SLAB_BYTES * rows // (8 * doubles))
    count = -(-rows // per)
    return [rows * i // count for i in range(count + 1)]


def _restrict(disc, start, stop):
    """disc on the element rows start:stop of axis 0, and per field (Q,
    then the auxiliary fields) the index of those rows.  The per-element
    tables are cut to the rows, and each layer's tables are those of the
    rows' grid, on which a layer of axis 0 damps the rows of its ends
    among them.  The mesh stays the whole grid's."""
    count, n = disc.mesh.counts[0], disc.ops.n_nodes
    counts = (stop - start,) + disc.mesh.counts[1:]
    rows, layers = [slice(start, stop)], []
    for tab, (shape, tables) in zip(disc.damping, disc.layers):
        if tab.axis_index:
            rows.append(slice(start, stop))
            layers.append((shape[:1] + counts[:1] + shape[2:], tables))
            continue
        # the damped rows among them: how many the low and the high end
        # hold, and the first of them in the auxiliary field
        lo = max(min(stop, tab.lo) - start, 0)
        hi = max(stop - max(start, count - tab.hi), 0)
        first = min(start, tab.lo) + max(start - count + tab.hi, 0)
        rows.append(slice(first, first + lo + hi))
        layers.append(_layer_tables(
            replace(tab, lo=lo, hi=hi, damp=tab.damp[rows[-1]]), counts, n))

    def cut(table, axis):
        if table.shape[axis] == 1:
            return table
        return table[_at(slice(start, stop), axis)]

    return replace(
        disc, rho_e=cut(disc.rho_e, 0), lam_e=cut(disc.lam_e, 0),
        mu_e=cut(disc.mu_e, 0), z=tuple(cut(z, 1) for z in disc.z),
        faces=tuple(tuple(cut(c, 1) for c in f) for f in disc.faces),
        layers=tuple(layers)), tuple(_at(r, 1) for r in rows)


@dataclass(frozen=True)
class _Slab:
    """The element rows start:stop of axis 0 and what _rhs needs to form
    their rates: per field (Q, then the auxiliary fields) the index of
    the rows, disc's tables on them (see _restrict), their result in
    Workspace.result (None for a grid of one slab, whose result is
    written straight), and the RHS scratch shaped for them."""

    start: int
    stop: int
    index: tuple
    disc: Discretization
    out: tuple
    buf: np.ndarray
    gather: np.ndarray
    planes: np.ndarray
    der: np.ndarray


def _lay_out(buf, shapes):
    """Arrays of shapes laid end to end from the start of buf."""
    views, at = [], 0
    for shape in shapes:
        views.append(buf[at:at + prod(shape)].reshape(shape))
        at += prod(shape)
    return views


class Workspace:
    """The buffers of one run, built by `run` and handed to every
    ader_step; they die when run returns.

    _rhs forms the rates one slab of element rows along axis 0 at a time
    (slabs, see _slab_bounds), so its scratch is sized to the largest
    slab.  The RHS scratch is one buffer: the traction gather, dim rows
    of the slab; the two fluctuation planes G left and right; the
    derivative, dim rows again.  planes is the four face planes
    `fluctuation` takes, from G left on: its two temporaries lie over
    the derivative, which is not formed yet when they are.  Around each
    damped axis the start of the buffer holds one layer table scaled by
    the stage factor, and after the axis's terms -d*w behind it: 2 dim
    rows on the layer's damped elements of the slab.

    A grid of one slab takes two ping-pong stage results, each a Q and
    its auxiliary fields, which _rhs writes straight.  A grid of several
    takes one stage result, which every stage after the first rewrites
    in place, and result, where _rhs forms each slab's rates before they
    go into their rows; halo holds three face planes of one row of
    elements, the outgoing waves across slab faces on axis 0.
    finite is a bool buffer for the finiteness check, slab by slab."""

    def __init__(self, disc):
        dim, n = disc.mesh.dim, disc.ops.n_nodes
        bounds = _slab_bounds(disc)
        one = len(bounds) == 2
        q_shape, w_shapes = _field_shapes(disc)
        face = disc.mesh.counts[1:] + (n,) * (dim - 1)
        parts, scratch = [], []
        for start, stop in zip(bounds, bounds[1:]):
            if one:
                sub, index = disc, (_at(slice(None), 1),) * (1 + len(w_shapes))
            else:
                sub, index = _restrict(disc, start, stop)
            fields = [q_shape[:1] + (stop - start,) + q_shape[2:]]
            fields += [s for s, _ in sub.layers]
            plane = (dim, stop - start) + face
            parts.append((start, stop, index, sub, fields, plane))
            scratch += [2 * (n + 1) * prod(plane)] + [
                neg_d.size + prod(s) for s, (neg_d, *_) in sub.layers]
        sizes = [[prod(s) for s in part[4]] for part in parts]
        self.buf = np.empty(max(scratch))
        self.finite = np.empty(max(map(max, sizes)), dtype=bool)
        self.stages = tuple(_zero_fields(disc) for _ in range(2 if one else 1))
        self.result = np.empty(0 if one else max(map(sum, sizes)))
        self.halo = np.empty((3, dim, 1) + face)
        slabs = []
        for start, stop, index, sub, fields, plane in parts:
            size = prod(plane)
            rows = n * size
            out = None
            if not one:
                q, *w = _lay_out(self.result, fields)
                out = (q, tuple(w))
            slabs.append(_Slab(
                start, stop, index, sub, out, self.buf,
                self.buf[:rows].reshape(plane + (n,)),
                self.buf[rows:rows + 4 * size].reshape((4,) + plane),
                self.buf[rows + 2 * size:2 * rows + 2 * size].reshape(
                    plane + (n,))))
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


def _diff(arr, node_ax, D, out):
    """D along axis node_ax of a C-contiguous array, into out, a
    C-contiguous array of arr's shape, seen as (pre, n, post) with n the
    node axis.  Long rows (n post > _KRON_ROW, the node axis not last)
    take one batched matmul, D @ (n, post) blocks.  Short rows take
    (rows, n post) @ kron(D, I_post).T blocks, the last node axis
    (post = 1) (rows, n) @ D.T.

    Every product stays small.  One large product would be spread over
    the BLAS library's threads, whose workers then spin between calls
    and stall each call on whatever else holds the other cores, for no
    gain on these bandwidth-bound products."""
    shape = arr.shape
    n, post = shape[node_ax], prod(shape[node_ax + 1:])
    if post > 1 and n * post > _KRON_ROW:
        blocks = (prod(shape[:node_ax]), n, post)
        np.matmul(D, arr.reshape(blocks), out=out.reshape(blocks))
        return out
    m = n * post
    op = D if post == 1 else np.kron(D, np.eye(post))
    rows, k = 1, node_ax
    while k > 0 and rows * shape[k - 1] * m * m <= _GEMM_BLOCK:
        k -= 1
        rows *= shape[k]
    blocks = (-1, rows, m)
    np.matmul(arr.reshape(blocks), op.T, out=out.reshape(blocks))
    return out


def _at(k, axis):
    """Index k along `axis`, every earlier axis whole (a basic slice)."""
    return (slice(None),) * axis + (k,)


def _rhs(Q, w, disc, out, ws, scale):
    """scale times the rates (dQ, dw) of the state (Q, w); on a Taylor
    term with scale dt/k, the next term but its source.  They overwrite
    out, a Q and its auxiliary fields, which is returned; the RHS scratch
    comes from ws, a Workspace for disc.  The factor rides the derivative
    matrix, the lift scalar and the layer tables.

    The rates are formed slab by slab (see Workspace).  A grid of several
    slabs forms each in ws.result; its material map writes Q's rows of
    out, and then its auxiliary rates are copied into theirs, so out may
    be (Q, w) itself.  A face between two slabs takes each side's
    outgoing wave into ws.halo from the rows before the slab writes
    them."""
    slabs = ws.slabs
    if len(slabs) == 1:
        return _slab_rhs(Q, w, slabs[0].disc, out, slabs[0], scale,
                         (None, None), out[0])
    total, dw = out
    prev, nxt, save = ws.halo
    for slab in slabs:
        last = slab is slabs[-1]
        if not last:
            _outgoing(Q, disc, slab.stop, 0, nxt)
            _outgoing(Q, disc, slab.stop - 1, -1, save)
        q, *w_rows = (a[i] for a, i in zip((Q, *w), slab.index))
        _slab_rhs(q, w_rows, slab.disc, slab.out, slab, scale,
                  (None if slab.start == 0 else prev, None if last else nxt),
                  total[slab.index[0]])
        for a, i, part in zip(dw, slab.index[1:], slab.out[1]):
            a[i] = part
        prev, save = save, prev
    return out


def _outgoing(Q, disc, row, node, out):
    """2 out, the outgoing wave of element row `row` of axis 0 across its
    face at node plane node (0 left, -1 right) of axis 0, as `fluctuation`
    forms it: Z v + T on the left, Z v - T on the right; into out."""
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


def _slab_rhs(Q, w, disc, out, scratch, scale, halo, dest):
    """The rates of `_rhs` on one slab: Q and w its rows, disc's tables
    on them, out its result, scratch a _Slab holding its RHS scratch.
    halo holds the outgoing waves across its faces on axis 0 (see
    fluctuation), None where the face is the grid's.  The material map
    writes the rates of Q from out[0] into dest, which may be out[0]."""
    dim = disc.mesh.dim
    total, dw = out
    layers = {tab.axis_index: pos for pos, tab in enumerate(disc.damping)}
    for ax in range(dim):
        dmat, lift = scale * disc.dmat[ax], scale * disc.lift[ax]
        edges = halo if ax == 0 else (None, None)
        pos = layers.get(ax)
        if pos is None:
            _axis_terms(Q, ax, disc, total, scratch, dmat, lift, edges)
            continue
        wpos, dws = w[pos], dw[pos]
        neg_d, decay, ends = disc.layers[pos][1]
        # the decay of w over the whole layer, then the terms of the axis
        np.multiply(_scaled(decay, scale, scratch), wpos, out=dws)
        _axis_terms(Q, ax, disc, total, scratch, dmat, lift, edges, dws,
                    ends)
        # -d*w, added on the same elements of Q once the axis has written
        # or added its terms there; the slots one row each on basic
        # slices, where a fancy index would copy, add and write back
        tab = _scaled(neg_d, scale, scratch)
        neg_dw = np.multiply(tab, wpos, out=_view(scratch.buf[tab.size:],
                                                  wpos.shape))
        for q_el, w_el in ends:
            rates, src = total[q_el], neg_dw[w_el]
            rates[:dim] += src[:dim]
            for r, x in zip(disc.slots[ax], src[dim:]):
                rates[r] += x

    np.divide(total[:dim], disc.rho_e, out=dest[:dim])
    s = total[dim:]
    tr = np.sum(s[:dim], axis=0, out=scratch.gather[0])
    tr *= disc.lam_e
    s[:dim] *= 2 * disc.mu_e
    np.add(s[:dim], tr, out=dest[dim:2 * dim])
    np.multiply(s[dim:], disc.mu_e, out=dest[2 * dim:])
    return out


def _scaled(table, scale, scratch):
    """scale * table, at the start of the RHS scratch."""
    return np.multiply(table, scale, out=_view(scratch.buf, table.shape))


def _axis_terms(Q, ax, disc, total, scratch, dmat, lift, halo, dws=None,
                ends=()):
    """The terms of axis ax, derivative matrix dmat and lift scalar lift,
    into total, and added to the layer ends of dws (damped elements, see
    _layer_tables) with the face terms scaled by theta: the velocity rows into
    dws[:dim], the traction slots into dws[dim:].  Each row of total
    that no earlier axis has written (every row, on the first axis) takes
    its derivative straight, the others add it from the scratch; the
    velocity rows go as one block, the slots one row at a time.  The
    gather, derivative and face planes are those of scratch, which the
    next axis overwrites; halo goes to `fluctuation`."""
    dim = disc.mesh.dim
    node_ax = 1 + dim + ax
    v, t = Q[:dim], scratch.gather
    for row, slot in zip(t, disc.slots[ax]):
        row[...] = Q[slot]
    # -H^-1 e F with F = (G; side a^T G / Z), side -1 on the left face:
    # -lift G onto the velocity rows, -side lift G / Z onto the slots.
    # g holds the face terms of the rows at hand: -lift G, then for the
    # slots lift G / Z on the left and -lift G / Z on the right.
    g_l, g_r = fluctuation(v, t, ax, disc, scratch.planes, halo)
    g_l *= -lift
    g_r *= -lift
    left, right = _at(0, node_ax), _at(-1, node_ax)
    # A dQ/dxi with the face terms added on its node planes 0 and n-1:
    # traction into the velocity rows, velocity into the slots.  Each
    # piece is m rows from row i of src, g and the half w_rows of dws, and
    # from row r of total, with whether an earlier axis has written them:
    # the first axis writes the velocity rows, and slot i of axis ax, the
    # stress of axes ax and i, is written first by axis min(ax, i).
    for src, w_rows in ((t, slice(0, dim)), (v, slice(dim, None))):
        if src is t:
            pieces = ((0, 0, dim, ax > 0),)
        else:               # the velocity rows are done with G
            g_l /= -disc.z[ax]
            g_r /= disc.z[ax]
            pieces = tuple((i, r, 1, i < ax)
                           for i, r in enumerate(disc.slots[ax]))
        for i, r, m, added in pieces:
            dest = total[r:r + m]
            der = _view(scratch.der, dest.shape) if added else dest
            _diff(src[i:i + m], node_ax, dmat, der)
            der[left] += g_l[i:i + m]
            der[right] += g_r[i:i + m]
            if added:
                dest += der
            w = w_rows.start + i
            for q_el, w_el in ends:
                dws[w:w + m][w_el] += der[q_el]
        if not ends or disc.theta == 1.0:
            continue
        # the auxiliary fields take theta times the face terms: add
        # (theta - 1) times them, formed in the spent traction gather
        for node, g in ((left, g_l), (right, g_r)):
            for q_el, w_el in ends:
                f = np.multiply(g[q_el], disc.theta - 1.0,
                                out=_view(scratch.gather, g[q_el].shape))
                dws[w_el][node][w_rows] += f


def fluctuation(v, t, ax, disc, planes, halo=(None, None)):
    """The face pass of axis ax: G = Z v - c (2 out + 2 out_nb) on the
    left (node 0) and right (node n-1) face planes of every element, with
    out_nb = 0 at the outer faces, from the velocities v and the tractions
    t of that axis.  planes holds four face-plane buffers: G left and
    right, then 2 out left and right, temporaries that may lie over any
    scratch the caller has not filled yet (the derivative, in
    _axis_terms); the two G planes are returned.  The coefficient tables
    broadcast over the face nodes (see _compact).  On axis 0, v and t may
    be a slab of element rows; halo then holds 2 out of the neighbour rows
    across its left and right faces, None where the face is the grid's
    (see _outgoing)."""
    node_ax = 1 + disc.mesh.dim + ax
    g_l, g_r, out_l, out_r = planes
    # 2 out = Z v - side T: Z v + T on the left, Z v - T on the right
    for node, g, out, z_v_t in ((0, g_l, out_l, np.add),
                                (-1, g_r, out_r, np.subtract)):
        face = _at(node, node_ax)
        np.multiply(disc.z[ax], v[face], out=g)
        z_v_t(g, t[face], out=out)
    # both faces of an interface take the sum of its two outgoing waves
    lo, hi = _at(slice(None, -1), 1 + ax), _at(slice(1, None), 1 + ax)
    prev, nxt = halo
    out_l[hi] += out_r[lo]
    if prev is not None:
        out_l[:, :1] += prev
    out_r[lo] = out_l[hi]
    if nxt is not None:
        out_r[:, -1:] += nxt
    for g, c, out in zip((g_l, g_r), disc.faces[ax], (out_l, out_r)):
        g -= np.multiply(c, out, out=out)
    return g_l, g_r


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
    sources inject c_k f^(k-1).  ws is a Workspace for state.disc.  On a
    grid of one slab stage k writes T_k into ws.stages[k % 2], over
    T_(k-2); on a grid of several, into ws.stages[0], over T_(k-1) (see
    _rhs).  Each term is added into state.Q and state.w, which stage 1
    reads first, so the step allocates nothing state-sized.  Returns
    state, advanced by dt; after DivergenceDetected its fields are not
    finite."""
    disc, fields = state.disc, (state.Q,) + state.w
    term_q, term_w = state.Q, state.w
    coef, start = 1.0, state.t
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(1, disc.ops.degree + 2):
            coef *= dt / k
            term_q, term_w = _rhs(term_q, term_w, disc,
                                  ws.stages[k % len(ws.stages)], ws, dt / k)
            for src in sources:
                src.inject(term_q, state.t, k - 1, coef)
            for a, term in zip(fields, (term_q,) + term_w):
                a += term
    state.t += dt
    for pos, (a, tab) in enumerate(zip(fields, (None,) + disc.damping)):
        for slab in ws.slabs:
            part = a[slab.index[pos]]
            if not np.isfinite(part, out=_view(ws.finite, part.shape)).all():
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
    at the start and after every step: one that keeps fields must copy."""
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
