"""Semi-discrete update and ADER time integration.

Field layout: Q has shape (nc, E_x, E_y[, E_z], n, n[, n]) with the
component axis first, element axes next, node axes last; the first dim
components are velocities, the rest Voigt stresses.  The auxiliary
field of a layer on axis xi lives only on its damped elements, the slab
of the element grid whose axis xi holds the layer's low and high end,
and only in the rows its equation touches: the velocities, then the
traction slots of xi, shape (2 dim, E_x, .., lo + hi, .., n, n[, n]).

The update makes one pass per axis.  The derivative A dQ/dxi is one
batched matmul per source (traction into the velocity rows, velocity
into the traction slots) on a (pre, n, post) view, with 2/h folded into
D.  Then `fluctuation` forms the fluctuations of every element's two
faces from one formula.  At face side s (-1 left, +1 right) the
outgoing characteristic is out = (Z v - s T)/2 and the incoming one
inc = (Z v + s T)/2; the fluctuation is G = inc - r out - tau out_nb,
where out_nb is the neighbour's outgoing wave across the face.  At an
interface r = (Z - Z_nb)/(Z + Z_nb) and tau = 2 Z/(Z + Z_nb); at an
outer face r is the mesh's gamma and tau = 0.  These are the upwind
hat states of `flux`, folded into per-face coefficients once in
discretize.  On GLL nodes the faces are node planes 0 and n-1, so each
fluctuation plane is lifted by one scalar straight onto its node plane
of the result.  The damped elements of an axis are a prefix and a suffix
of that element axis, so every auxiliary gather, decay (d*w) and scatter
is a basic-slice view; the auxiliary equations see the same derivative
and face terms, the face terms scaled by theta, each one slice add.  The
material map (1/rho on velocities, stiffness on stress rates) is applied
once at the end, in place.
"""

from dataclasses import dataclass
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
    """Shared immutable tables: mesh, operators, materials broadcast to
    element grids, per-axis derivatives and impedances, face lift
    scalars, damping.

    The state has mesh.dim velocity and n_components(mesh.dim) total
    components.  Per axis, faces holds the reflection and transmission
    coefficients of the face fluctuations (see _face_coefficients), and
    lift scales a fluctuation plane onto node plane 0 or n-1; the GLL
    weights are symmetric, so one scalar serves both faces.  slabs
    holds, per damping table, the auxiliary field's shape and its
    element slices (see _slabs)."""

    mesh: object
    ops: object
    theta: float
    damping: tuple
    rho_e: np.ndarray
    lam_e: np.ndarray
    mu_e: np.ndarray
    dmat: tuple     # per axis: the nodal derivative D scaled by 2 / h
    z: tuple        # per axis: (dim,) + counts + (1,)*(dim-1)
    faces: tuple    # per axis: (r left, r right, tau left, tau right)
    lift: tuple     # per axis: 2 / (h * w_0)
    slots: tuple    # per axis traction component slots in the state vector
    slabs: tuple    # parallel to damping: see _slabs


def _slabs(tab, counts, n):
    """The damped elements of one axis as basic slices: the first tab.lo
    and the last tab.hi elements along it, every other element axis whole.
    Returns the shape of the auxiliary field and, per nonempty end,
    (element slice of Q, element slice of w, -d, -(d + alpha)).
    d is materialized over every axis after the element axis, so numpy's
    inner loops run over contiguous runs rather than single node rows."""
    ax, dim = tab.axis_index, len(counts)
    k = tab.lo + tab.hi
    tail = counts[ax + 1:] + (n,) * dim
    d = tab.damp.reshape((k,) + (1,) * (dim - 1) + (n,)
                         + (1,) * (dim - 1 - ax))
    d = np.ascontiguousarray(np.broadcast_to(d, (k,) + tail))
    d = d.reshape((1,) * (1 + ax) + d.shape)
    parts = []
    high = slice(counts[ax] - tab.hi, counts[ax])
    for q_el, w_el in ((slice(0, tab.lo),) * 2, (high, slice(tab.lo, k))):
        if w_el.stop > w_el.start:
            q_el, w_el = _at(q_el, 1 + ax), _at(w_el, 1 + ax)
            parts.append((q_el, w_el, -d[w_el], -(d[w_el] + tab.alpha)))
    return (2 * dim,) + counts[:ax] + (k,) + tail, tuple(parts)


def _face_coefficients(z, ax, gamma_lo, gamma_hi):
    """r and tau of G = inc - r out - tau out_nb (see the module
    docstring) on face planes of z's shape: r at every element's left and
    right face, the outer ones gamma per wave family; tau on the left
    faces of all elements but the first and the right faces of all but
    the last, the interfaces."""
    lo, hi = _at(slice(None, -1), 1 + ax), _at(slice(1, None), 1 + ax)
    den = z[lo] + z[hi]
    r_l, r_r = np.empty(z.shape), np.empty(z.shape)
    r_l[hi] = (z[hi] - z[lo]) / den
    r_r[lo] = -r_l[hi]
    fam = (len(z),) + (1,) * (z.ndim - 1)
    r_l[_at(slice(0, 1), 1 + ax)] = gamma_lo.reshape(fam)
    r_r[_at(slice(-1, None), 1 + ax)] = gamma_hi.reshape(fam)
    return r_l, r_r, 2 * z[hi] / den, 2 * z[lo] / den


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
    tail = (1,) * dim
    z, faces, lift, slot_list = [], [], [], []
    for ax, name in enumerate(axes_of(dim)):
        zax = np.stack([zp if f == ax else zs for f in range(dim)])
        z.append(zax.reshape((dim,) + mesh.counts + (1,) * (dim - 1)))
        faces.append(_face_coefficients(z[-1], ax, mesh.gamma[(name, -1)],
                                        mesh.gamma[(name, 1)]))
        lift.append(2.0 / mesh.spacings[ax] / ops.rule.weights[0])
        slot_list.append(np.array(sig_slots(name, dim)))
    damping = tuple(damping)
    return Discretization(
        mesh=mesh, ops=ops, theta=float(theta), damping=damping,
        rho_e=rho.reshape(mesh.counts + tail),
        lam_e=lam.reshape(mesh.counts + tail),
        mu_e=mu.reshape(mesh.counts + tail),
        dmat=tuple(ops.D * (2.0 / h) for h in mesh.spacings),
        z=tuple(z), faces=tuple(faces), lift=tuple(lift),
        slots=tuple(slot_list),
        slabs=tuple(_slabs(tab, mesh.counts, ops.n_nodes)
                    for tab in damping))


@dataclass
class SimulationState:
    disc: Discretization
    t: float
    Q: np.ndarray
    w: tuple  # parallel to disc.damping


def setup_state(disc):
    mesh, n = disc.mesh, disc.ops.n_nodes
    shape = (n_components(mesh.dim),) + mesh.counts + (n,) * mesh.dim
    return SimulationState(disc=disc, t=0.0, Q=np.zeros(shape),
                           w=tuple(np.zeros(s) for s, _ in disc.slabs))


def nodal_coordinates(disc):
    """Physical node coordinates, one read-only broadcast array per axis,
    each shaped like a scalar field (counts + node dims)."""
    mesh, nodes = disc.mesh, disc.ops.rule.nodes
    full = mesh.counts + nodes.shape * mesh.dim
    return [np.broadcast_to(node_coordinates(mesh, ax, nodes), full)
            for ax in range(mesh.dim)]


# Entries (rows * n * n) of one product in _diff: small enough that the
# BLAS library computes it on the calling thread.
_GEMM_BLOCK = 1 << 16


def _diff(arr, node_ax, D):
    """D along axis node_ax of a C-contiguous array: one batched matmul,
    D @ (n, post) blocks of a (pre, n, post) view, or (rows, n) @ D.T
    blocks when the node axis is last.

    Every product stays small.  One large product would be spread over
    the BLAS library's threads, whose workers then spin between calls
    and stall each call on whatever else holds the other cores, for no
    gain on these bandwidth-bound products."""
    shape = arr.shape
    n = shape[node_ax]
    if node_ax < arr.ndim - 1:
        return np.matmul(D, arr.reshape(prod(shape[:node_ax]), n, -1)
                         ).reshape(shape)
    rows, k = 1, node_ax
    while k > 0 and rows * shape[k - 1] * n * n <= _GEMM_BLOCK:
        k -= 1
        rows *= shape[k]
    return np.matmul(arr.reshape(-1, rows, n), D.T).reshape(shape)


def _at(k, axis):
    """Index k along `axis`, every earlier axis whole (a basic slice)."""
    return (slice(None),) * axis + (k,)


def _add_rows(out, rows, val):
    """out[rows] += val one component row at a time: in-place adds on
    basic slices, where a fancy index would copy, add and write back."""
    for r, x in zip(rows, val):
        out[r] += x


def _rhs(Q, w, disc):
    dim = disc.mesh.dim
    total = np.zeros(Q.shape)
    dw = [None] * len(disc.damping)
    layers = {tab.axis_index: pos for pos, tab in enumerate(disc.damping)}
    for ax in range(dim):
        pos = layers.get(ax)
        if pos is None:
            _axis_terms(Q, ax, disc, total)
        else:
            ws, parts = w[pos], disc.slabs[pos][1]
            dws = dw[pos] = np.empty(ws.shape)
            # the decay of w, and -d*w on the same elements of Q
            rows = (*range(dim), *disc.slots[ax])
            for q_el, w_el, neg_d, decay in parts:
                np.multiply(decay, ws[w_el], out=dws[w_el])
                _add_rows(total[q_el], rows, neg_d * ws[w_el])
            _axis_terms(Q, ax, disc, total, dws, parts)

    total[:dim] /= disc.rho_e
    s = total[dim:]
    tr = s[:dim].sum(0)
    tr *= disc.lam_e
    s[:dim] *= 2 * disc.mu_e
    s[:dim] += tr
    s[dim:] *= disc.mu_e
    return total, tuple(dw)


def _axis_terms(Q, ax, disc, total, dws=None, parts=()):
    """Adds the terms of axis ax to total, and to the slab parts of dws
    (damped elements, see _slabs) the same terms with the face terms
    scaled by theta: the velocity rows into dws[:dim], the traction
    slots into dws[dim:].  Its temporaries die with the call, so they
    never overlap those of the next axis."""
    dim = disc.mesh.dim
    node_ax = 1 + dim + ax
    slots, z = disc.slots[ax], disc.z[ax]
    halves = ((range(dim), slice(None, dim)), (slots, slice(dim, None)))
    v, t = Q[:dim], Q[slots]

    # A dQ/dxi: traction into the velocity rows, velocity into the slots
    for (rows, w_rows), src in zip(halves, (t, v)):
        der = _diff(src, node_ax, disc.dmat[ax])
        _add_rows(total, rows, der)
        for q_el, w_el, *_ in parts:
            dws[w_el][w_rows] += der[q_el]
        del der     # freed before the next derivative is allocated

    g_l, g_r = fluctuation(v, t, ax, disc)
    for side, node, g in ((-1, 0, g_l), (1, -1, g_r)):
        # -H^-1 e F with F = (G; side * a^T G/Z), added straight onto
        # the face plane; the auxiliary fields take theta times it
        face = _at(node, node_ax)
        fl = -disc.lift[ax] * g
        for (rows, w_rows), f in zip(halves, (fl, fl / (side * z))):
            _add_rows(total[face], rows, f)
            if parts:
                f = disc.theta * f
            for q_el, w_el, *_ in parts:
                dws[w_el][face][w_rows] += f[q_el]


def fluctuation(v, t, ax, disc):
    """The face pass of axis ax: G = inc - r out on the left (node 0) and
    right (node n-1) face planes of every element, minus tau times the
    neighbour's out on the interfaces, from the velocities v and the
    tractions t of that axis."""
    node_ax = 1 + disc.mesh.dim + ax
    r_l, r_r, tau_l, tau_r = disc.faces[ax]
    waves = []
    for side, node, r in ((-1, 0, r_l), (1, -1, r_r)):
        face = _at(node, node_ax)
        g = disc.z[ax] * v[face]
        out = t[face] * -side
        out += g
        out *= 0.5      # (Z v - side T) / 2
        g -= out        # the incoming wave, (Z v + side T) / 2
        g -= r * out
        waves.append((g, out))
    (g_l, out_l), (g_r, out_r) = waves
    lo, hi = _at(slice(None, -1), 1 + ax), _at(slice(1, None), 1 + ax)
    g_l[hi] -= tau_l * out_r[lo]
    g_r[lo] -= tau_r * out_l[hi]
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


def ader_step(state, dt, sources=()):
    """Taylor step of order P+1: u += sum_k dt^k/k! u^(k) with
    u^(k+1) = L u^(k) + f^(k)(t_n).

    Each term is scaled in place and added once the next stage has read
    it, so the sum allocates nothing state-sized of its own."""
    disc = state.disc
    acc = [state.Q.copy()] + [wi.copy() for wi in state.w]
    term_q, term_w = state.Q, state.w
    coef = 1.0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(1, disc.ops.degree + 2):
            prev = (term_q,) + term_w if k > 1 else ()
            term_q, term_w = _rhs(term_q, term_w, disc)
            _add_scaled(acc, prev, coef)
            for src in sources:
                src.inject(term_q, state.t, k - 1)
            coef *= dt / k
        _add_scaled(acc, (term_q,) + term_w, coef)
    if any(not np.isfinite(a).all() for a in acc):
        raise DivergenceDetected(f"non-finite field at t = {state.t + dt}")
    return SimulationState(disc=disc, t=state.t + dt, Q=acc[0],
                           w=tuple(acc[1:]))


def _add_scaled(acc, terms, coef):
    """acc += coef * terms, array by array, overwriting the terms."""
    for a, term in zip(acc, terms):
        term *= coef
        a += term


def run(state, t_end, dt, sources=(), callbacks=()):
    """Fixed-step march to t_end with a final truncated step landing on it
    exactly.  Callbacks fire on the initial state and after every step."""
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < state.t:
        raise ValueError(f"t_end {t_end} before current time {state.t}")
    for cb in callbacks:
        cb(state)
    eps = 1e-12 * max(dt, 1.0)
    while state.t < t_end - eps:
        step = min(dt, t_end - state.t)
        state = ader_step(state, step, sources)
        for cb in callbacks:
            cb(state)
    return state
