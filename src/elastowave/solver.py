"""Semi-discrete update and ADER time integration.

Field layout: Q has shape (nc, E_x, E_y[, E_z], n, n[, n]) with the
component axis first, element axes next, node axes last.  Auxiliary
fields live only on damped elements, compacted to (nc, n_damped,
n, n[, n]) in the order given by the damping table's element index.

The update per axis is A dQ/dxi minus the face lift of the flux
fluctuations; damped elements additionally lose d*w and feed the
auxiliary equations with the same face terms scaled by theta.  The
material map (1/rho on velocities, stiffness on stress rates) is
applied once at the end.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, UnsupportedDegree
from .flux import fluctuation, hat_boundary, hat_interface
from .physics import axes_of, n_components, sig_slots


@dataclass(frozen=True)
class Discretization:
    """Shared immutable tables: mesh, operators, materials broadcast to
    element grids, per-axis impedances, face lift scalars, damping."""

    mesh: object
    ops: object
    theta: float
    damping: tuple
    nv: int
    nc: int
    rho_e: np.ndarray
    lam_e: np.ndarray
    mu_e: np.ndarray
    z: tuple        # per axis: (nv,) + counts + (1,)*(dim-1)
    lift_l: tuple   # per axis: 2 / (h * w_0)
    lift_r: tuple   # per axis: 2 / (h * w_{n-1})
    slots: tuple    # per axis traction component slots in the state vector


def discretize(mesh, ops, theta=1.0, damping=()):
    """GLL nodes only: the end nodes are the element faces, so each face
    trace is a node plane and each lift a scalar times that plane."""
    if ops.rule.kind != "GLL":
        raise UnsupportedDegree(
            f"time stepping needs GLL nodes, got {ops.rule.kind}")
    dim = mesh.dim
    nv = dim
    rho = np.array([m.rho for m in mesh.materials])[mesh.material_ids]
    lam = np.array([m.lam for m in mesh.materials])[mesh.material_ids]
    mu = np.array([m.mu for m in mesh.materials])[mesh.material_ids]
    zp = rho * np.sqrt((2 * mu + lam) / rho)
    zs = rho * np.sqrt(mu / rho)
    tail = (1,) * dim
    z = []
    lift_l, lift_r, slot_list = [], [], []
    for ax, name in enumerate(axes_of(dim)):
        zax = np.stack([zp if f == ax else zs for f in range(nv)])
        z.append(zax.reshape((nv,) + mesh.counts + (1,) * (dim - 1)))
        scale = 2.0 / mesh.spacings[ax]
        lift_l.append(scale / ops.rule.weights[0])
        lift_r.append(scale / ops.rule.weights[-1])
        slot_list.append(np.array(sig_slots(name, dim)))
    return Discretization(
        mesh=mesh, ops=ops, theta=float(theta), damping=tuple(damping),
        nv=nv, nc=n_components(dim),
        rho_e=rho.reshape(mesh.counts + tail),
        lam_e=lam.reshape(mesh.counts + tail),
        mu_e=mu.reshape(mesh.counts + tail),
        z=tuple(z), lift_l=tuple(lift_l), lift_r=tuple(lift_r),
        slots=tuple(slot_list))


@dataclass
class SimulationState:
    disc: Discretization
    t: float
    Q: np.ndarray
    w: tuple  # parallel to disc.damping


def setup_state(disc):
    mesh, n = disc.mesh, disc.ops.n_nodes
    shape = (disc.nc,) + mesh.counts + (n,) * mesh.dim
    w = tuple(np.zeros((disc.nc, len(tab.index[0])) + (n,) * mesh.dim)
              for tab in disc.damping)
    return SimulationState(disc=disc, t=0.0, Q=np.zeros(shape), w=w)


def nodal_coordinates(disc):
    """Physical node coordinates, one read-only broadcast array per axis,
    each shaped like a scalar field (counts + node dims)."""
    mesh, ops = disc.mesh, disc.ops
    dim, n = mesh.dim, ops.n_nodes
    full = mesh.counts + (n,) * dim
    out = []
    for ax in range(dim):
        e = np.arange(mesh.counts[ax])
        x = mesh.mins[ax] + (e[:, None] + (ops.rule.nodes[None, :] + 1) / 2) \
            * mesh.spacings[ax]
        shape = [1] * (2 * dim)
        shape[ax] = mesh.counts[ax]
        shape[dim + ax] = n
        out.append(np.broadcast_to(x.reshape(shape), full))
    return out


def _diff(arr, node_ax, D, scale):
    out = np.tensordot(arr, D, axes=(node_ax, 1))
    return np.moveaxis(out, -1, node_ax) * scale


def _scatter(fc, node_ax, comp_sel, elem_sel, vals, lift, node):
    fcm = np.moveaxis(fc, node_ax, -1)
    fcm[(comp_sel,) + elem_sel + (Ellipsis, node)] += lift * vals


def _add_face(fc, node_ax, elem_sel, G, Z, slots, side, lift, node, nv):
    # -H^-1 e F with F = (G; side * a^T G/Z)
    _scatter(fc, node_ax, slice(0, nv), elem_sel, -G, lift, node)
    _scatter(fc, node_ax, slots, elem_sel, (-side) * G / Z, lift, node)


def _rhs(Q, w, disc):
    mesh, ops = disc.mesh, disc.ops
    dim, nv = mesh.dim, disc.nv
    n = ops.n_nodes
    names = axes_of(dim)
    total = np.zeros_like(Q)
    tabs = {tab.axis_index: (pos, tab) for pos, tab in enumerate(disc.damping)}
    dw = [None] * len(disc.damping)
    for ax in range(dim):
        node_ax = 1 + dim + ax
        h = mesh.spacings[ax]
        slots = disc.slots[ax]
        der_v = _diff(Q[:nv], node_ax, ops.D, 2.0 / h)
        der_t = _diff(Q[slots], node_ax, ops.D, 2.0 / h)
        br = np.zeros_like(Q)
        br[:nv] = der_t
        br[slots] = der_v
        fc = np.zeros_like(Q)

        zax = disc.z[ax]
        ll, lr = disc.lift_l[ax], disc.lift_r[ax]
        ul, ur = 0, n - 1
        v_l = np.take(Q[:nv], ul, axis=node_ax)
        v_r = np.take(Q[:nv], ur, axis=node_ax)
        t_l = np.take(Q[slots], ul, axis=node_ax)
        t_r = np.take(Q[slots], ur, axis=node_ax)

        def esel(s):
            return tuple(s if k == ax else slice(None) for k in range(dim))

        if mesh.counts[ax] > 1:
            lo, hi = esel(slice(None, -1)), esel(slice(1, None))
            vm, tm, zm = v_r[(slice(None),) + lo], t_r[(slice(None),) + lo], \
                zax[(slice(None),) + lo]
            vp, tp, zp = v_l[(slice(None),) + hi], t_l[(slice(None),) + hi], \
                zax[(slice(None),) + hi]
            vhat, that = hat_interface(vm, tm, zm, vp, tp, zp)
            gm = fluctuation(vm, tm, vhat, that, zm, +1)
            gp = fluctuation(vp, tp, vhat, that, zp, -1)
            _add_face(fc, node_ax, lo, gm, zm, slots, +1, lr, ur, nv)
            _add_face(fc, node_ax, hi, gp, zp, slots, -1, ll, ul, nv)

        for side, v_f, t_f, lift, node in ((-1, v_l, t_l, ll, ul),
                                           (1, v_r, t_r, lr, ur)):
            bidx = 0 if side == -1 else mesh.counts[ax] - 1
            sel = esel(bidx)
            vb = v_f[(slice(None),) + sel]
            tb = t_f[(slice(None),) + sel]
            zb = zax[(slice(None),) + sel]
            gam = mesh.gamma[(names[ax], side)].reshape((nv,) + (1,) * (vb.ndim - 1))
            vhat, that = hat_boundary(vb, tb, zb, gam, side)
            g = fluctuation(vb, tb, vhat, that, zb, side)
            _add_face(fc, node_ax, sel, g, zb, slots, side, lift, node, nv)

        total += br
        total += fc
        if ax in tabs:
            pos, tab = tabs[ax]
            sel = (slice(None),) + tab.index
            dval = tab.damp.reshape(
                (1, tab.damp.shape[0]) + (1,) * ax + (n,) + (1,) * (dim - 1 - ax))
            wi = w[pos]
            dw[pos] = br[sel] + disc.theta * fc[sel] - (dval + tab.alpha) * wi
            total[sel] -= dval * wi

    out = np.empty_like(Q)
    out[:nv] = total[:nv] / disc.rho_e
    s = total[nv:]
    lam, mu = disc.lam_e, disc.mu_e
    if dim == 3:
        tr = s[0] + s[1] + s[2]
        for i in range(3):
            out[nv + i] = 2 * mu * s[i] + lam * tr
        for i in range(3, 6):
            out[nv + i] = mu * s[i]
    else:
        tr = s[0] + s[1]
        out[2] = 2 * mu * s[0] + lam * tr
        out[3] = 2 * mu * s[1] + lam * tr
        out[4] = mu * s[2]
    return out, tuple(dw)


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
    u^(k+1) = L u^(k) + f^(k)(t_n)."""
    disc = state.disc
    acc_q = state.Q.copy()
    acc_w = [wi.copy() for wi in state.w]
    term_q, term_w = state.Q, state.w
    coef = 1.0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(1, disc.ops.degree + 2):
            term_q, term_w = _rhs(term_q, term_w, disc)
            for src in sources:
                src.inject(term_q, state.t, k - 1)
            coef *= dt / k
            acc_q += coef * term_q
            for acc_i, term_i in zip(acc_w, term_w):
                acc_i += coef * term_i
    if not np.isfinite(acc_q).all() \
            or any(not np.isfinite(wi).all() for wi in acc_w):
        raise DivergenceDetected(f"non-finite field at t = {state.t + dt}")
    return SimulationState(disc=disc, t=state.t + dt, Q=acc_q, w=tuple(acc_w))


def run(state, t_end, dt, sources=(), callbacks=()):
    """Fixed-step march to t_end with a final truncated step landing on it
    exactly.  Callbacks fire on the initial state and after every step."""
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
