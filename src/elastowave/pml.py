"""Absorbing layers that damp outgoing waves near selected boundaries.

A layer occupies a slab of the computational box next to a flagged face.
Inside the slab the damping coefficient rises from zero with a cubic
ramp; the interior keeps d = 0 exactly, so the physical equations are
untouched there.  Element membership is decided by the element centroid:
an element whose centroid lies outside the interior box is damped as a
whole, everything else carries no auxiliary variables at all.  Along each
axis those elements are a prefix and a suffix, so a table keeps their counts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExtent, InvalidTol
from .mesh import CartesianMesh, element_centers, node_coordinates
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

    The layer damps the first lo and the last hi elements along the axis,
    every other element axis whole.  damp holds the nodal damping of
    each damped element along the axis, low end first, shape
    (lo + hi, n_nodes).
    """

    axis: str
    axis_index: int
    lo: int
    hi: int
    damp: np.ndarray
    alpha: float


def interior_box(mesh: CartesianMesh, widths):
    """Interior bounds after stripping the layers; widths maps axis name
    to a (low, high) pair of non-negative physical widths."""
    axes = axes_of(mesh.dim)
    for name in widths:
        if name not in axes:
            raise InvalidExtent(
                f"layer axis {name!r} is not an axis of the {mesh.dim}D mesh")
    lo = np.array(mesh.mins, dtype=float)
    hi = np.array(mesh.maxs, dtype=float)
    for ax, name in enumerate(axes):
        w_lo, w_hi = widths.get(name, (0.0, 0.0))
        if not (w_lo >= 0.0 and w_hi >= 0.0):
            raise InvalidExtent(
                f"layer widths {w_lo}, {w_hi} on {name} must not be negative")
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
        centers = element_centers(mesh, ax)
        k_lo = int((centers < lo[ax]).sum())
        k_hi = int((centers > hi[ax]).sum())
        if k_lo + k_hi == 0:
            continue
        peak = d0[name] if isinstance(d0, dict) else float(d0)
        count = mesh.counts[ax]
        x = node_coordinates(mesh, ax, ops.rule.nodes,
                             np.r_[:k_lo, count - k_hi:count])
        damp = damping_at(x.reshape(k_lo + k_hi, -1), lo[ax], hi[ax],
                          w_lo, w_hi, peak)
        tables.append(AxisDamping(name, ax, k_lo, k_hi, damp, float(alpha)))
    return tables
