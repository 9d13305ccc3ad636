"""Absorbing layers that damp outgoing waves near selected boundaries.

A layer occupies a slab of the computational box next to a flagged face.
Inside the slab the damping coefficient rises from zero with a ramp of
power PROFILE_POWER (cubic); the interior keeps d = 0 exactly, so the
physical equations are untouched there.  Element membership is decided
by the element centroid (interior_elements): an element whose centroid
lies outside the interior box is damped as a whole, everything else
carries no auxiliary variables at all.  Along each axis those elements
are a prefix and a suffix, so a table keeps their counts.
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
    zero width disables that side.  The ramp is the penetration depth's
    share of the width to the power PROFILE_POWER, saturating at d0 past
    the nominal width, and each side's ramp covers its own side only: the
    low one where x <= lo, the high one where x >= hi.
    """
    x = np.asarray(x, dtype=float)
    d = np.zeros_like(x)
    for width, depth in ((delta_lo, lo - x), (delta_hi, x - hi)):
        if width > 0.0:
            ramp = d0 * np.clip(depth / width, 0.0, 1.0) ** PROFILE_POWER
            d += np.where(depth >= 0.0, ramp, 0.0)
    return d


def d0_from_tol(cp, delta, tol):
    """Peak damping that attenuates a two-way transit of the ramp down to
    the requested amplitude tolerance: exp(-(2/cp) int d dx) = tol across
    a layer of width delta, whose ramp integrates to d0 delta over the
    power plus one."""
    if not 0.0 < tol <= 1.0:
        raise InvalidTol(f"tolerance must lie in (0, 1], got {tol}")
    if delta <= 0.0:
        raise InvalidTol(f"layer width must be positive, got {delta}")
    return (PROFILE_POWER + 1) * cp / (2.0 * delta) * np.log(1.0 / tol)


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
    (lo + hi, n_nodes); d0 is the peak of its profile and alpha the
    frequency shift of the auxiliary equations.
    """

    axis: str
    axis_index: int
    lo: int
    hi: int
    damp: np.ndarray
    d0: float
    alpha: float


def interior_box(mins, maxs, widths):
    """Bounds (lo, hi) of the box mins..maxs after stripping the layers;
    widths maps axis name to a (low, high) pair of non-negative physical
    widths."""
    dim = len(mins)
    axes = axes_of(dim)
    for name in widths:
        if name not in axes:
            raise InvalidExtent(
                f"layer axis {name!r} is not an axis of the {dim}D mesh")
    lo = np.array(mins, dtype=float)
    hi = np.array(maxs, dtype=float)
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


def interior_elements(mesh: CartesianMesh, box, ax):
    """The elements along axis ax whose centroids lie inside the interior
    box (lo, hi), bounds included, as a slice; the elements before and
    after it are those a layer on ax damps."""
    lo, hi = box
    centers = element_centers(mesh, ax)
    return slice(int((centers < lo[ax]).sum()),
                 int((centers <= hi[ax]).sum()))


def build_damping(mesh: CartesianMesh, ops: ElementOperators, widths,
                  d0=None, alpha=None, tol=None):
    """Per-axis damping tables for a mesh.

    widths: dict axis name -> (low, high) layer widths, zero to disable.
    d0: peak damping; None derives each axis's peak from the reflection
    tolerance tol at the fastest P speed over the wider of its layers.
    alpha: frequency shift; None means 0.15 1/s in 2D and cp/(10 w) in
    3D, w being the widest layer.
    Returns a list of AxisDamping, one entry per axis that has damped
    elements; an empty list means the layers are disabled everywhere.
    """
    lo, hi = box = interior_box(mesh.mins, mesh.maxs, widths)
    widest = max((max(w) for w in widths.values()), default=0.0)
    if widest == 0.0:
        return []
    if d0 is None and tol is None:
        raise InvalidTol("layers need a peak damping d0 or a tolerance tol")
    cp = max(m.cp for m in mesh.materials)
    if alpha is None:
        alpha = 0.15 if mesh.dim == 2 else cp / (10.0 * widest)
    tables = []
    for ax, name in enumerate(axes_of(mesh.dim)):
        w_lo, w_hi = widths.get(name, (0.0, 0.0))
        count, inner = mesh.counts[ax], interior_elements(mesh, box, ax)
        k_lo, k_hi = inner.start, count - inner.stop
        if k_lo + k_hi == 0:
            continue
        peak = float(d0_from_tol(cp, max(w_lo, w_hi), tol)
                     if d0 is None else d0)
        x = node_coordinates(mesh, ax, ops.rule.nodes,
                             np.r_[:k_lo, count - k_hi:count])
        damp = damping_at(x.reshape(k_lo + k_hi, -1), lo[ax], hi[ax],
                          w_lo, w_hi, peak)
        tables.append(AxisDamping(name, ax, k_lo, k_hi, damp, peak,
                                  float(alpha)))
    return tables
