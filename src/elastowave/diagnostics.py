"""Energy and norm reductions, manufactured plane waves, error measures.

The plane-wave factory builds exact traveling eigenmodes of the
continuous system; they serve as manufactured solutions for accuracy
checks.  The layer-error measure compares a truncated run against an
enlarged-domain reference that is provably uncontaminated by its own
boundaries (mirror-path causality bound).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, GeometryInsufficient
from .mesh import node_coordinates
from .physics import voigt
from .pml import interior_elements
from .solver import _slab_bounds, nodal_coordinates


@dataclass(frozen=True)
class EnergySample:
    t: float
    E: float


def discrete_energy(state):
    """Quadrature-weighted energy 1/2 (rho |v|^2 + sigma : C^-1 sigma).

    The isotropic compliance form is written out, per element:
    sigma : C^-1 sigma = (sum_i s_ii^2 - lam tr^2 / (dim lam + 2 mu)) / (2 mu)
    + sum of the shear s_ij^2 / mu, with tr the sum of the normal
    stresses.  One contraction of the whole state gives each component's
    quadrature sum of squares per element, and tr^2 is the normal
    stresses' own squares plus twice their pairwise products, one
    contraction per pair: no temporary is larger than a few values per
    element, and no node-sized trace is formed."""
    disc = state.disc
    mesh, weights = disc.mesh, disc.ops.rule.weights
    dim = mesh.dim
    wgt = weights
    for _ in range(dim - 1):
        wgt = np.multiply.outer(wgt, weights)
    wgt = wgt.ravel()
    q = state.Q.reshape(len(state.Q), -1, wgt.size)
    sq = np.einsum("cen,cen,n->ce", q, q, wgt)
    normal = q[dim:2 * dim]
    sq_tr = sq[dim:2 * dim].sum(0) + 2 * sum(
        np.einsum("en,en,n->e", a, b, wgt)
        for i, a in enumerate(normal) for b in normal[i + 1:])
    grid = mesh.counts + (1,) * dim     # the tables are compact
    rho, lam, mu = (np.broadcast_to(a, grid).ravel()
                    for a in (disc.rho_e, disc.lam_e, disc.mu_e))
    dens = (rho * sq[:dim].sum(0)
            + (sq[dim:2 * dim].sum(0) - lam / (dim * lam + 2 * mu) * sq_tr)
            / (2 * mu)
            + sq[2 * dim:].sum(0) / mu)
    return EnergySample(t=state.t, E=mesh.jacobian * 0.5 * float(dens.sum()))


def linf_series(state):
    """Max over nodes of the velocity vector magnitude, over one slab of
    element rows at a time, the step's slabs (solver._slab_bounds).  One
    contraction sums a slab's squares over the components into one
    buffer, in the order of a sum over the component axis, and only
    their maximum is rooted: sqrt is monotone and correctly rounded, so
    this is the max of the magnitudes.  A slab whose squares overflow
    while its values are finite is summed again from its values divided
    by their largest magnitude, and the root of that maximum scaled
    back, so a finite state reads a finite L-inf up to a magnitude of
    about 1.8e308."""
    v = state.Q[: state.disc.mesh.dim]
    bounds = _slab_bounds(state.disc)
    rows = max(b - a for a, b in zip(bounds, bounds[1:]))
    buf = np.empty((rows,) + v.shape[2:])
    top = 0.0
    for start, stop in zip(bounds, bounds[1:]):
        part, sq = v[:, start:stop], buf[:stop - start]
        scale = 1.0
        with np.errstate(over="ignore"):
            peak = np.einsum("c...,c...->...", part, part, out=sq).max()
            if peak == np.inf:
                scale = np.abs(part).max()
                if scale < np.inf:
                    part = part / scale
                    peak = np.einsum("c...,c...->...", part, part,
                                     out=sq).max()
            top = np.maximum(top, np.sqrt(peak) * scale)    # NaN stays
    return float(top)


def check_levels(spacings, errors=None):
    """Raises DegenerateError unless the levels give convergence rates:
    at least 2 of them, one positive error each, positive and decreasing
    spacings.  Without errors (before the runs) each level counts as
    giving one."""
    h = np.asarray(spacings, dtype=float)
    e = np.ones(h.size) if errors is None else np.asarray(errors, float)
    if e.size < 2 or e.size != h.size:
        raise DegenerateError("need matching errors/spacings with >= 2 levels")
    if (e <= 0).any():
        raise DegenerateError("zero or negative error leaves the rate undefined")
    if (h <= 0).any() or (np.diff(h) >= 0).any():
        raise DegenerateError("spacings must be positive and decreasing")


def convergence_rates(errors, spacings):
    """log(e_i/e_{i+1}) / log(h_i/h_{i+1}) for each adjacent level pair."""
    check_levels(spacings, errors)
    e, h = np.asarray(errors, float), np.asarray(spacings, float)
    return list(np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:]))


def _bump(u):
    # compactly supported C^5 profile
    out = np.zeros_like(np.asarray(u, dtype=float))
    inside = np.abs(u) < 1.0
    out[inside] = (1.0 - np.asarray(u)[inside] ** 2) ** 6
    return out


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Traveling eigenmode Q(x,t) = Q0 * phi(n.x - c t).

    n: propagation direction (length dim, normalized when used); mode
    "P" or "S", the S mode polarized along a unit vector orthogonal to n
    that follows from n (see plane_wave_polarization); center/width
    parametrize the compact profile phi((s - center)/width).
    """

    n: tuple
    mode: str = "P"
    center: float = 0.0
    width: float = 1.0


def plane_wave_polarization(pw, material, dim):
    """Exact state-vector amplitude Q0 and speed c of the traveling mode.
    An S mode is polarized in the plane in 2D, (-n_y, n_x), and in 3D
    along n x e, e the unit axis of n's smallest component."""
    n = np.asarray(pw.n, dtype=float)
    if n.size != dim:
        raise ValueError(f"direction must have {dim} components")
    norm = np.linalg.norm(n)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"direction {pw.n} must be finite and nonzero")
    n = n / norm
    lam, mu = material.lam, material.mu
    if pw.mode == "P":
        c = material.cp
        v = n
        tau = lam * np.eye(dim) + 2.0 * mu * np.outer(n, n)
        sig = -voigt(tau, dim) / c
    elif pw.mode == "S":
        c = material.cs
        if dim == 2:
            m = np.array([-n[1], n[0]])
        else:
            probe = np.zeros(3)
            probe[int(np.argmin(np.abs(n)))] = 1.0
            m = np.cross(n, probe)
        m = m / np.linalg.norm(m)
        v = m
        tau = mu * (np.outer(n, m) + np.outer(m, n))
        sig = -voigt(tau, dim) / c
    else:
        raise ValueError(f"unknown mode {pw.mode!r}")
    return np.concatenate([v, sig]), float(c), n


def plane_wave_state(pw, disc, t):
    """Sample the exact mode on the mesh nodes at time t."""
    mesh = disc.mesh
    ids = mesh.material_ids
    if not (ids == ids.flat[0]).all():
        raise ValueError("plane-wave sampling needs a homogeneous medium,"
                         f" got {len(mesh.materials)} materials")
    mat = mesh.materials[int(ids.flat[0])]
    q0, c, n = plane_wave_polarization(pw, mat, mesh.dim)
    coords = nodal_coordinates(disc)
    phase = sum(ni * xi for ni, xi in zip(n, coords)) - c * t
    phi = _bump((phase - pw.center) / pw.width)
    return q0.reshape((-1,) + (1,) * (2 * mesh.dim)) * phi


def reflection_arrival_bound(ref_box, interior, source, speed, faces):
    """Earliest time a wave from `source` can bounce off one of the faces
    of ref_box, given as (axis, side) pairs, and re-enter the interior
    box: mirror-path distance / speed.  No faces (no artificial ones)
    return inf.
    """
    lo_r, hi_r = (np.asarray(a, dtype=float) for a in ref_box)
    lo_i, hi_i = (np.asarray(a, dtype=float) for a in interior)
    src = np.asarray(source, dtype=float)
    best = np.inf
    for ax, side in faces:
        plane = lo_r[ax] if side == -1 else hi_r[ax]
        mirror = src.copy()
        mirror[ax] = 2.0 * plane - src[ax]
        gap = np.maximum(0.0, np.maximum(lo_i - mirror, mirror - hi_i))
        best = min(best, float(np.linalg.norm(gap)))
    return best / speed


def pml_error(run, reference):
    """Max over snapshot times and interior nodes of the velocity-vector
    difference between a layer-truncated run and an enlarged reference.

    Both arguments are run results (harness RunResult or equivalent) with
    .disc, .snap_times, .snapshots (velocity fields), .source_locations
    (every point a wave starts from) and .t_end; the run, the first, also
    gives its .interior box.
    """
    if run.interior is None:
        raise GeometryInsufficient("the layered run, the first argument,"
                                   " declares no interior box")
    mesh_r, mesh_f = run.disc.mesh, reference.disc.mesh
    if run.disc.ops.degree != reference.disc.ops.degree:
        raise GeometryInsufficient("runs use different element degrees")
    if not np.allclose(mesh_r.spacings, mesh_f.spacings, rtol=1e-12):
        raise GeometryInsufficient("runs use different element sizes")
    lo_i, hi_i = run.interior
    t_end = max(run.t_end, reference.t_end)
    speed = max(m.cp for m in mesh_f.materials)
    # only faces the reference moved outward are artificial; shared
    # physical boundaries reflect identically in both runs
    moved = []
    for ax in range(mesh_r.dim):
        if mesh_f.mins[ax] < mesh_r.mins[ax] - 1e-9 * mesh_r.extent(ax):
            moved.append((ax, -1))
        if mesh_f.maxs[ax] > mesh_r.maxs[ax] + 1e-9 * mesh_r.extent(ax):
            moved.append((ax, 1))
    bound = min(reflection_arrival_bound(
        (mesh_f.mins, mesh_f.maxs), (lo_i, hi_i), source, speed,
        faces=moved) for source in reference.source_locations)
    if bound <= t_end:
        raise GeometryInsufficient(
            f"reference boundary reflections reach the interior at "
            f"t = {bound:.3f} s, before t_end = {t_end} s")
    times_r = np.asarray(run.snap_times)
    times_f = np.asarray(reference.snap_times)
    if times_r.size != times_f.size \
            or not np.allclose(times_r, times_f, atol=1e-9):
        raise GeometryInsufficient("snapshot times do not match")

    # interior elements of the run grid by centroid, by the rule its
    # layers are built with, and the same run in the reference grid.  Nodes
    # sitting exactly on a truncation interface carry the double-valued
    # DG trace and are not interior points; drop them on axes where a
    # layer was stripped, keep shared physical faces
    sel_r, sel_f, keep = [], [], True
    for ax in range(mesh_r.dim):
        h = mesh_r.spacings[ax]
        shift = (mesh_r.mins[ax] - mesh_f.mins[ax]) / h
        k = int(round(shift))
        if abs(shift - k) > 1e-9 or k < 0:
            raise GeometryInsufficient("grids are not element-aligned")
        inner = interior_elements(mesh_r, run.interior, ax)
        if inner.stop + k > mesh_f.counts[ax]:
            raise GeometryInsufficient("reference grid misses the interior")
        sel_r.append(inner)
        sel_f.append(slice(inner.start + k, inner.stop + k))
        x = node_coordinates(mesh_r, ax, run.disc.ops.rule.nodes, sel_r[-1])
        if mesh_r.mins[ax] < lo_i[ax] - 1e-6 * h:
            keep = keep & (x > lo_i[ax] + 1e-6 * h)
        if mesh_r.maxs[ax] > hi_i[ax] + 1e-6 * h:
            keep = keep & (x < hi_i[ax] - 1e-6 * h)

    worst = 0.0
    for snap_r, snap_f in zip(run.snapshots, reference.snapshots):
        diff = snap_r[(slice(None), *sel_r)] - snap_f[(slice(None), *sel_f)]
        mag = np.sqrt((diff ** 2).sum(axis=0))
        worst = max(worst, float(np.where(keep, mag, 0.0).max()))
    return worst
