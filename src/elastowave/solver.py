"""Semi-discrete update and ADER time integration.

Field layout: Q has shape (nc, E_x, E_y[, E_z], n, n[, n]) with the
component axis first, element axes next, node axes last; the first dim
components are velocities, the rest Voigt stresses.  Auxiliary fields
live only on damped elements, compacted to (nc, n_damped, n, n[, n]) in
the order given by the damping table's element index.

The update makes one pass per axis: A dQ/dxi, then the flux
fluctuations of every element's left and right face.  On GLL nodes
those faces are node planes 0 and n-1, so each fluctuation plane is
lifted by one scalar straight onto its node plane.  Damped elements
additionally lose d*w and feed the auxiliary equations with the same
face terms scaled by theta.  The material map (1/rho on velocities,
stiffness on stress rates) is applied once at the end, in place.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, UnsupportedDegree
from .flux import fluctuation, hat_boundary, hat_interface
from .physics import axes_of, n_components, sig_slots


@dataclass(frozen=True)
class Discretization:
    """Shared immutable tables: mesh, operators, materials broadcast to
    element grids, per-axis impedances, face lift scalars, damping.

    The state has mesh.dim velocity and n_components(mesh.dim) total
    components.  Per axis, lift scales a fluctuation plane onto node
    plane 0 or n-1; the GLL weights are symmetric, so one scalar serves
    both faces."""

    mesh: object
    ops: object
    theta: float
    damping: tuple
    rho_e: np.ndarray
    lam_e: np.ndarray
    mu_e: np.ndarray
    z: tuple        # per axis: (dim,) + counts + (1,)*(dim-1)
    lift: tuple     # per axis: 2 / (h * w_0)
    slots: tuple    # per axis traction component slots in the state vector


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
    z, lift, slot_list = [], [], []
    for ax, name in enumerate(axes_of(dim)):
        zax = np.stack([zp if f == ax else zs for f in range(dim)])
        z.append(zax.reshape((dim,) + mesh.counts + (1,) * (dim - 1)))
        lift.append(2.0 / mesh.spacings[ax] / ops.rule.weights[0])
        slot_list.append(np.array(sig_slots(name, dim)))
    return Discretization(
        mesh=mesh, ops=ops, theta=float(theta), damping=tuple(damping),
        rho_e=rho.reshape(mesh.counts + tail),
        lam_e=lam.reshape(mesh.counts + tail),
        mu_e=mu.reshape(mesh.counts + tail),
        z=tuple(z), lift=tuple(lift), slots=tuple(slot_list))


@dataclass
class SimulationState:
    disc: Discretization
    t: float
    Q: np.ndarray
    w: tuple  # parallel to disc.damping


def setup_state(disc):
    mesh, n = disc.mesh, disc.ops.n_nodes
    nc = n_components(mesh.dim)
    shape = (nc,) + mesh.counts + (n,) * mesh.dim
    w = tuple(np.zeros((nc, len(tab.index[0])) + (n,) * mesh.dim)
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


def _at(k, axis):
    """Index k along `axis`, every earlier axis whole (a basic slice)."""
    return (slice(None),) * axis + (k,)


def _rhs(Q, w, disc):
    mesh, ops = disc.mesh, disc.ops
    dim, n = mesh.dim, ops.n_nodes
    names = axes_of(dim)
    total = np.zeros_like(Q)
    tabs = {tab.axis_index: (pos, tab) for pos, tab in enumerate(disc.damping)}
    dw = [None] * len(disc.damping)
    for ax in range(dim):
        node_ax = 1 + dim + ax
        scale = 2.0 / mesh.spacings[ax]
        slots, z = disc.slots[ax], disc.z[ax]
        v, t = Q[:dim], Q[slots]
        br = np.zeros_like(Q)
        br[:dim] = _diff(t, node_ax, ops.D, scale)
        br[slots] = _diff(v, node_ax, ops.D, scale)
        total += br

        # fluctuations on the left (node 0) and right (node n-1) face of
        # every element; element slabs index axis 1 + ax of the planes
        v_l, v_r = v[_at(0, node_ax)], v[_at(n - 1, node_ax)]
        t_l, t_r = t[_at(0, node_ax)], t[_at(n - 1, node_ax)]
        g_l, g_r = np.empty_like(v_l), np.empty_like(v_r)
        lo, hi = _at(slice(None, -1), 1 + ax), _at(slice(1, None), 1 + ax)
        vhat, that = hat_interface(v_r[lo], t_r[lo], z[lo],
                                   v_l[hi], t_l[hi], z[hi])
        g_r[lo] = fluctuation(v_r[lo], t_r[lo], vhat, that, z[lo], +1)
        g_l[hi] = fluctuation(v_l[hi], t_l[hi], vhat, that, z[hi], -1)
        lifted = []
        for side, node, g, vf, tf in ((-1, 0, g_l, v_l, t_l),
                                      (1, n - 1, g_r, v_r, t_r)):
            b = _at(slice(0, 1) if side < 0 else slice(-1, None), 1 + ax)
            gam = mesh.gamma[(names[ax], side)].reshape((dim,) + (1,) * (2 * dim - 1))
            vhat, that = hat_boundary(vf[b], tf[b], z[b], gam, side)
            g[b] = fluctuation(vf[b], tf[b], vhat, that, z[b], side)
            # -H^-1 e F with F = (G; side * a^T G/Z), lifted onto the face plane
            f = np.zeros((len(Q),) + g.shape[1:])
            f[:dim] = disc.lift[ax] * -g
            f[slots] = disc.lift[ax] * (-side * g / z)
            total[_at(node, node_ax)] += f
            lifted.append((node, f))

        if ax in tabs:
            pos, tab = tabs[ax]
            sel = (slice(None),) + tab.index
            dwi = br[sel]
            for node, f in lifted:
                dwi[_at(node, 2 + ax)] += disc.theta * f[sel]
            dval = tab.damp.reshape(
                (1, tab.damp.shape[0]) + (1,) * ax + (n,) + (1,) * (dim - 1 - ax))
            dwi -= (dval + tab.alpha) * w[pos]
            dw[pos] = dwi
            total[sel] -= dval * w[pos]

    total[:dim] /= disc.rho_e
    s = total[dim:]
    tr = s[:dim].sum(0)
    s[:dim] = 2 * disc.mu_e * s[:dim] + disc.lam_e * tr
    s[dim:] *= disc.mu_e
    return total, tuple(dw)


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
