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
from .physics import voigt
from .solver import nodal_coordinates


@dataclass(frozen=True)
class EnergySample:
    t: float
    E: float


def discrete_energy(state):
    """Quadrature-weighted energy 1/2 (rho |v|^2 + sigma : C^-1 sigma)."""
    disc = state.disc
    mesh, ops = disc.mesh, disc.ops
    dim = mesh.dim
    wgt = ops.rule.weights
    for _ in range(dim - 1):
        wgt = np.multiply.outer(wgt, ops.rule.weights)
    total = 0.0
    for mid, mat in enumerate(mesh.materials):
        sel = np.nonzero(mesh.material_ids == mid)
        if sel[0].size == 0:
            continue
        q = state.Q[(slice(None),) + sel]    # (nc, nsel, nodes...)
        v, sig = q[:dim], q[dim:]
        S = np.linalg.inv(mat.stiffness(dim))
        dens = 0.5 * mat.rho * (v ** 2).sum(axis=0)
        dens = dens + 0.5 * np.einsum("i...,ij,j...->...", sig, S, sig)
        total += float((dens * wgt).sum())
    return EnergySample(t=state.t, E=mesh.jacobian * total)


def linf_series(state):
    """Max over nodes of the velocity vector magnitude."""
    v = state.Q[: state.disc.mesh.dim]
    return float(np.sqrt((v ** 2).sum(axis=0)).max())


def convergence_rates(errors, spacings):
    """log(e_i/e_{i+1}) / log(h_i/h_{i+1}) for each adjacent level pair."""
    errors = np.asarray(errors, dtype=float)
    spacings = np.asarray(spacings, dtype=float)
    if errors.size < 2 or errors.size != spacings.size:
        raise DegenerateError("need matching errors/spacings with >= 2 levels")
    if (errors <= 0).any():
        raise DegenerateError("zero or negative error leaves the rate undefined")
    if (spacings <= 0).any() or (np.diff(spacings) >= 0).any():
        raise DegenerateError("spacings must be positive and decreasing")
    return list(np.log(errors[:-1] / errors[1:])
                / np.log(spacings[:-1] / spacings[1:]))


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

    dim = mesh_r.dim
    # element offsets of the small grid inside the large one
    off = []
    for ax in range(dim):
        shift = (mesh_r.mins[ax] - mesh_f.mins[ax]) / mesh_r.spacings[ax]
        k = int(round(shift))
        if abs(shift - k) > 1e-9 or k < 0:
            raise GeometryInsufficient("grids are not element-aligned")
        off.append(k)
    # interior elements of the run grid, by centroid
    masks = []
    for ax in range(dim):
        centers = mesh_r.mins[ax] \
            + (np.arange(mesh_r.counts[ax]) + 0.5) * mesh_r.spacings[ax]
        masks.append((centers > lo_i[ax]) & (centers < hi_i[ax]))
    sel_r = tuple(np.nonzero(m)[0] for m in masks)
    sel_f = tuple(np.nonzero(m)[0] + off[ax] for ax, m in enumerate(masks))

    def pick(snap, sel):
        out = snap
        for ax, ids in enumerate(sel):
            out = np.take(out, ids, axis=1 + ax)
        return out

    # nodes sitting exactly on a truncation interface carry the
    # double-valued DG trace and are not interior points; drop them on
    # axes where a layer was stripped, keep shared physical faces
    nodes1d = (np.asarray(run.disc.ops.rule.nodes) + 1.0) / 2.0
    keep = None
    for ax in range(dim):
        h = mesh_r.spacings[ax]
        x = mesh_r.mins[ax] \
            + (sel_r[ax][:, None] + nodes1d[None, :]) * h
        good = np.ones_like(x, dtype=bool)
        if mesh_r.mins[ax] < lo_i[ax] - 1e-6 * h:
            good &= x > lo_i[ax] + 1e-6 * h
        if mesh_r.maxs[ax] > hi_i[ax] + 1e-6 * h:
            good &= x < hi_i[ax] - 1e-6 * h
        shape = [1] * (2 * dim)
        shape[ax], shape[dim + ax] = x.shape
        g = good.reshape(shape)
        keep = g if keep is None else keep & g

    worst = 0.0
    for snap_r, snap_f in zip(run.snapshots, reference.snapshots):
        diff = pick(snap_r, sel_r) - pick(snap_f, sel_f)
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
