"""Structured Cartesian multi-element grid with affine reference mapping."""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidExtent,
    InvalidReflectionCoefficient,
    PointOutsideDomain,
)
from .physics import axes_of

_LOCATE_TOL = 1e-9


@dataclass(frozen=True)
class CartesianMesh:
    dim: int
    mins: tuple
    maxs: tuple
    counts: tuple
    spacings: tuple
    materials: tuple
    material_ids: np.ndarray
    gamma: dict

    @property
    def jacobian(self):
        out = 1.0
        for h in self.spacings:
            out *= 0.5 * h
        return out

    def extent(self, axis_idx):
        return self.maxs[axis_idx] - self.mins[axis_idx]


def _normalize_gamma(value, dim):
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(dim, arr[0])
    if arr.size != dim:
        raise InvalidReflectionCoefficient(
            f"need 1 or {dim} reflection coefficients, got {arr.size}")
    if not (np.abs(arr) <= 1.0).all():     # NaN fails too
        raise InvalidReflectionCoefficient(
            f"|gamma| must not exceed 1, got {arr}")
    arr.setflags(write=False)
    return arr


def build_mesh(mins, maxs, counts, materials, gamma=None, region=None):
    """Validate a box and derive spacings, material ids, face tags.

    The dimension is len(mins).  gamma maps (axis, side) to reflection
    coefficients, absorbing where a face is absent.  region is an
    optional (axis, threshold, material index) triple: the elements
    whose centroid lies below the threshold on that axis take the
    indexed material, the others material 0."""
    d = len(mins)
    if d not in (2, 3):
        raise InvalidExtent(f"dimension must be 2 or 3, got {d}")
    if len(maxs) != d or len(counts) != d:
        raise InvalidExtent("mins/maxs/counts must match the dimension")
    for lo, hi, n in zip(mins, maxs, counts):
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise InvalidExtent(f"box side [{lo}, {hi}] is empty")
        if int(n) < 1:
            raise InvalidExtent(f"element count {n} must be >= 1")
    spacings = tuple((hi - lo) / n for lo, hi, n in zip(mins, maxs, counts))

    axes = axes_of(d)
    given = gamma or {}
    gamma = {(ax, side): _normalize_gamma(given.get((ax, side), 0.0), d)
             for ax in axes for side in (-1, 1)}

    mesh = CartesianMesh(dim=d, mins=tuple(map(float, mins)),
                         maxs=tuple(map(float, maxs)),
                         counts=tuple(map(int, counts)),
                         spacings=spacings, materials=tuple(materials),
                         material_ids=np.zeros(counts, dtype=np.intp),
                         gamma=gamma)
    if region is not None:
        axis, threshold, index = region
        if axis not in axes or threshold is None:
            raise InvalidExtent(
                f"region needs a {d}D mesh axis and a region_threshold,"
                f" got {axis!r} and {threshold}")
        if index not in range(len(materials)):
            raise InvalidExtent(f"region material id {index} out of range")
        ai = axes.index(axis)
        below = element_centers(mesh, ai) < threshold
        np.moveaxis(mesh.material_ids, ai, 0)[below] = index
    return mesh


def element_centers(mesh, ax):
    """Centroids of the elements along axis ax."""
    return mesh.mins[ax] + (np.arange(mesh.counts[ax]) + 0.5) * mesh.spacings[ax]


def node_coordinates(mesh, ax, nodes, elems=slice(None)):
    """The affine map along axis ax: physical coordinates of the
    reference nodes (in [-1, 1]) of the elements elems (a slice or
    index array of that element axis), shaped to broadcast against a
    scalar field (element axes, then node axes)."""
    e = np.arange(mesh.counts[ax])[elems]
    x = mesh.mins[ax] + (e[:, None] + (nodes[None, :] + 1) / 2) \
        * mesh.spacings[ax]
    shape = [1] * (2 * mesh.dim)
    shape[ax], shape[mesh.dim + ax] = x.shape
    return x.reshape(shape)


def locate_point(mesh, point):
    """Inverse affine map; ties on element edges go to the lower element."""
    if len(point) != mesh.dim:
        raise PointOutsideDomain(f"point {point} is not {mesh.dim}-D")
    elem = []
    ref = []
    for a in range(mesh.dim):
        lo, hi = mesh.mins[a], mesh.maxs[a]
        tol = _LOCATE_TOL * mesh.extent(a)
        x = float(point[a])
        if not lo - tol <= x <= hi + tol:      # NaN fails too
            raise PointOutsideDomain(
                f"coordinate {x} outside [{lo}, {hi}] on axis {a}")
        x = min(max(x, lo), hi)
        t = (x - lo) / mesh.spacings[a]
        k = min(int(np.floor(t)), mesh.counts[a] - 1)
        r = 2.0 * (t - k) - 1.0
        if r == -1.0 and k > 0:
            k -= 1
            r = 1.0
        elem.append(k)
        ref.append(r)
    return tuple(elem), tuple(ref)
