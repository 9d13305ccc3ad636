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
from .mesh import element_centers, node_coordinates
from .physics import voigt
from .solver import nodal_coordinates


@dataclass(frozen=True)
class EnergySample:
    t: float
    E: float


def discrete_energy(state):
    """Quadrature-weighted energy 1/2 (rho |v|^2 + sigma : C^-1 sigma).

    The isotropic compliance form is written out, per element:
    sigma : C^-1 sigma = (sum_i s_ii^2 - lam tr^2 / (dim lam + 2 mu)) / (2 mu)
    + sum of the shear s_ij^2 / mu, with tr the sum of the normal
    stresses.  The quadrature sums of each component's square are taken
    per element straight from Q and weighted by the element's material."""
    disc = state.disc
    mesh, weights = disc.mesh, disc.ops.rule.weights
    dim = mesh.dim
    wgt = weights
    for _ in range(dim - 1):
        wgt = np.multiply.outer(wgt, weights)
    wgt = wgt.ravel()
    q = state.Q.reshape(len(state.Q), mesh.material_ids.size, wgt.size)
    sq = np.einsum("cen,cen,n->ce", q, q, wgt)
    tr = q[dim:2 * dim].sum(0)
    sq_tr = np.einsum("en,en,n->e", tr, tr, wgt)
    grid = mesh.counts + (1,) * dim     # the tables are compact
    rho, lam, mu = (np.broadcast_to(a, grid).ravel()
                    for a in (disc.rho_e, disc.lam_e, disc.mu_e))
    dens = (rho * sq[:dim].sum(0)
            + (sq[dim:2 * dim].sum(0) - lam / (dim * lam + 2 * mu) * sq_tr)
            / (2 * mu)
            + sq[2 * dim:].sum(0) / mu)
    return EnergySample(t=state.t, E=mesh.jacobian * 0.5 * float(dens.sum()))


def linf_series(state):
    """Max over nodes of the velocity vector magnitude.  The squares are
    summed row by row into one buffer, in the order of a sum over the
    component axis, and only their maximum is rooted: sqrt is monotone
    and correctly rounded, so this is the max of the magnitudes."""
    v = state.Q[: state.disc.mesh.dim]
    sq = np.square(v[0])
    row = np.empty_like(sq)
    for vi in v[1:]:
        sq += np.square(vi, out=row)
    return float(np.sqrt(sq.max()))


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

    n: unit propagation direction (length dim); mode "P" or "S";
    polarization: shear polarization unit vector (S mode, 3D; optional in
    2D where the in-plane choice is unique); center/width parametrize the
    compact profile phi((s - center)/width).
    """

    n: tuple
    mode: str = "P"
    center: float = 0.0
    width: float = 1.0
    polarization: tuple = None


def plane_wave_polarization(pw, material, dim):
    """Exact state-vector amplitude Q0 and speed c of the traveling mode."""
    n = np.asarray(pw.n, dtype=float)
    if n.size != dim:
        raise ValueError(f"direction must have {dim} components")
    n = n / np.linalg.norm(n)
    lam, mu = material.lam, material.mu
    if pw.mode == "P":
        c = material.cp
        v = n
        tau = lam * np.eye(dim) + 2.0 * mu * np.outer(n, n)
        sig = -voigt(tau, dim) / c
    elif pw.mode == "S":
        c = material.cs
        if pw.polarization is not None:
            m = np.asarray(pw.polarization, dtype=float)
        elif dim == 2:
            m = np.array([-n[1], n[0]])
        else:
            probe = np.zeros(3)
            probe[int(np.argmin(np.abs(n)))] = 1.0
            m = np.cross(n, probe)
        m = m / np.linalg.norm(m)
        if abs(float(m @ n)) > 1e-12:
            raise ValueError("shear polarization must be orthogonal to n")
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


def reflection_arrival_bound(ref_box, interior, source, speed, faces=None):
    """Earliest time a wave from `source` can bounce off a face of ref_box
    and re-enter the interior box: mirror-path distance / speed.

    faces limits the check to (axis, side) pairs; None means every face.
    An empty list (no artificial faces) returns inf.
    """
    lo_r, hi_r = (np.asarray(a, dtype=float) for a in ref_box)
    lo_i, hi_i = (np.asarray(a, dtype=float) for a in interior)
    src = np.asarray(source, dtype=float)
    if faces is None:
        faces = [(ax, s) for ax in range(src.size) for s in (-1, 1)]
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
    .disc, .snap_times, .snapshots (velocity fields), .interior box,
    .source_location and .t_end.  Symmetric in its arguments.
    """
    if run.interior is None and reference.interior is None:
        raise GeometryInsufficient("neither run declares an interior box")
    if run.interior is None:
        run, reference = reference, run
    mesh_r, mesh_f = run.disc.mesh, reference.disc.mesh
    if mesh_f.extent(0) < mesh_r.extent(0):
        # reference is the larger domain; swap if called the other way
        run, reference = reference, run
        mesh_r, mesh_f = run.disc.mesh, reference.disc.mesh
    if run.disc.ops.degree != reference.disc.ops.degree \
            or run.disc.ops.rule.kind != reference.disc.ops.rule.kind:
        raise GeometryInsufficient("runs use different element operators")
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
    bound = reflection_arrival_bound(
        (mesh_f.mins, mesh_f.maxs), (lo_i, hi_i),
        reference.source_location, speed, faces=moved)
    if bound <= t_end:
        raise GeometryInsufficient(
            f"reference boundary reflections reach the interior at "
            f"t = {bound:.3f} s, before t_end = {t_end} s")
    times_r = np.asarray(run.snap_times)
    times_f = np.asarray(reference.snap_times)
    if times_r.size != times_f.size \
            or not np.allclose(times_r, times_f, atol=1e-9):
        raise GeometryInsufficient("snapshot times do not match")

    # interior elements of the run grid by centroid, a contiguous run on
    # a uniform grid, and the same run in the reference grid.  Nodes
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
        centers = element_centers(mesh_r, ax)
        first = int((centers <= lo_i[ax]).sum())
        stop = int((centers < hi_i[ax]).sum())
        if stop + k > mesh_f.counts[ax]:
            raise GeometryInsufficient("reference grid misses the interior")
        sel_r.append(slice(first, stop))
        sel_f.append(slice(first + k, stop + k))
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


def write_series(path, times, values):
    """CSV series `t,value` with full-precision floats."""
    with open(path, "w") as f:
        f.write("t,value\n")
        for t, v in zip(times, values):
            f.write(f"{t:.16e},{v:.16e}\n")


def write_convergence(path, spacings, errors, rates):
    """CSV report `h,error,rate`; the first level has no rate."""
    with open(path, "w") as f:
        f.write("h,error,rate\n")
        for i, (h, e) in enumerate(zip(spacings, errors)):
            rate = "" if i == 0 else f"{rates[i - 1]:.4f}"
            f.write(f"{h:.16e},{e:.16e},{rate}\n")
