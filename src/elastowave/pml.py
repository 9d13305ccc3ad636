"""Absorbing layers that damp outgoing waves near selected boundaries.

A layer occupies a slab of the computational box next to a flagged face.
Inside the slab the damping coefficient rises from zero with a cubic
ramp; the interior keeps d = 0 exactly, so the physical equations are
untouched there.  Element membership is decided by the element centroid:
an element whose centroid lies outside the interior box is damped as a
whole, everything else carries no auxiliary variables at all.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExtent, InvalidTol
from .mesh import CartesianMesh
from .operators import ElementOperators
from .physics import axes_of

PROFILE_POWER = 3


def damping_at(x, lo, hi, delta_lo, delta_hi, d0):
    """Damping coefficient at coordinates x for interior box [lo, hi].

    delta_lo / delta_hi are the layer widths below lo and above hi; a
    zero width disables that side.  The ramp is cubic in the penetration
    depth and saturates at d0 past the nominal width.
    """
    x = np.asarray(x, dtype=float)
    d = np.zeros_like(x)
    if delta_lo > 0.0:
        t = np.clip((lo - x) / delta_lo, 0.0, 1.0)
        d += d0 * t ** PROFILE_POWER
    if delta_hi > 0.0:
        t = np.clip((x - hi) / delta_hi, 0.0, 1.0)
        d += d0 * t ** PROFILE_POWER
    return d


def d0_from_tol(cp, delta, tol):
    """Peak damping that attenuates a two-way transit of the cubic ramp
    down to the requested amplitude tolerance."""
    if not 0.0 < tol <= 1.0:
        raise InvalidTol(f"tolerance must lie in (0, 1], got {tol}")
    if delta <= 0.0:
        raise InvalidTol(f"layer width must be positive, got {delta}")
    return 4.0 * cp / (2.0 * delta) * np.log(1.0 / tol)


def resolve_tol(degree, dx, width):
    """Smallest reflection tolerance worth asking of a grid that covers
    an interior of the given width with spacing dx at this degree.

    Discretization error decays like the inverse of the nodes-per-width
    count raised to degree + 1; pushing the layer tolerance below that
    floor buys nothing.
    """
    if degree < 1:
        raise InvalidTol(f"degree must be at least 1, got {degree}")
    if dx <= 0.0 or width <= 0.0:
        raise InvalidTol("dx and width must be positive")
    return float((width * (degree + 1) / dx) ** -(degree + 1))


@dataclass(frozen=True)
class AxisDamping:
    """Damping tables for one coordinate axis.

    index selects the damped elements in the element grid (nonzero-style
    tuple, one array per mesh dimension); damp holds the nodal damping of
    each damped element along the axis, shape (n_damped, n_nodes).
    """

    axis: str
    axis_index: int
    index: tuple
    damp: np.ndarray
    alpha: float


def interior_box(mesh: CartesianMesh, widths):
    """Interior bounds after stripping the layers; widths maps axis name
    to a (low, high) pair of physical widths."""
    lo = np.array(mesh.mins, dtype=float)
    hi = np.array(mesh.maxs, dtype=float)
    for ax, name in enumerate(axes_of(mesh.dim)):
        w_lo, w_hi = widths.get(name, (0.0, 0.0))
        lo[ax] += w_lo
        hi[ax] -= w_hi
        if lo[ax] >= hi[ax]:
            raise InvalidExtent(
                f"layers of width {w_lo}+{w_hi} leave no interior on {name}"
            )
    return lo, hi


def build_damping(mesh: CartesianMesh, ops: ElementOperators, widths,
                  d0, alpha):
    """Per-axis damping tables for a mesh.

    widths: dict axis name -> (low, high) layer widths, zero to disable.
    d0: peak damping, scalar or dict per axis name.
    Returns a list of AxisDamping, one entry per axis that has damped
    elements; an empty list means the layers are disabled everywhere.
    """
    lo, hi = interior_box(mesh, widths)
    tables = []
    for ax, name in enumerate(axes_of(mesh.dim)):
        w_lo, w_hi = widths.get(name, (0.0, 0.0))
        if w_lo <= 0.0 and w_hi <= 0.0:
            continue
        h = mesh.spacings[ax]
        centers = mesh.mins[ax] + (np.arange(mesh.counts[ax]) + 0.5) * h
        member = (centers < lo[ax]) | (centers > hi[ax])
        if not member.any():
            continue
        shape = [1] * mesh.dim
        shape[ax] = mesh.counts[ax]
        mask = np.broadcast_to(member.reshape(shape), mesh.counts)
        index = np.nonzero(mask)
        peak = d0[name] if isinstance(d0, dict) else float(d0)
        elems = index[ax]
        nodes = mesh.mins[ax] + (elems[:, None] + (ops.rule.nodes[None, :] + 1) / 2) * h
        damp = damping_at(nodes, lo[ax], hi[ax], w_lo, w_hi, peak)
        tables.append(AxisDamping(name, ax, index, damp, float(alpha)))
    return tables
