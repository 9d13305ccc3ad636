"""Reference right-hand side for the equivalence test of `solver._rhs`.

A frozen copy of the derivative and face assembly that scattered every fluctuation into
a full-size face array (`_scatter`, `_add_face`) and applied the material
map through a second full-size array.  It differs from that code only in
reading the velocity count from the mesh and computing its face lift
scalars from the quadrature weights, fields the discretization no longer
carries.  Keep it as it is: it is the oracle, not a second solver.
"""

import numpy as np

from elastowave.flux import fluctuation, hat_boundary, hat_interface
from elastowave.physics import axes_of


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


def rhs(Q, w, disc):
    mesh, ops = disc.mesh, disc.ops
    dim, nv = mesh.dim, mesh.dim
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
        ll = 2.0 / h / ops.rule.weights[0]
        lr = 2.0 / h / ops.rule.weights[-1]
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
