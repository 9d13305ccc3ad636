"""Structured Cartesian multi-element grid with affine reference mapping."""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidExtent,
    InvalidReflectionCoefficient,
    PointOutsideDomain,
)
from .physics import axes_of

_LOCATE_TOL = 1e-9


@dataclass(frozen=True)
class MeshSpec:
    dim: int
    mins: tuple
    maxs: tuple
    counts: tuple
    materials: tuple
    gamma: dict = field(default_factory=dict)
    # optional slab of a second material: ids by element centroid
    region_axis: str = None
    region_threshold: float = None
    region_material: int = 1


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


def build_mesh(spec):
    """Validate a MeshSpec and derive spacings, material ids, face tags."""
    d = spec.dim
    if d not in (2, 3):
        raise InvalidExtent(f"dimension must be 2 or 3, got {d}")
    if len(spec.mins) != d or len(spec.maxs) != d or len(spec.counts) != d:
        raise InvalidExtent("mins/maxs/counts must match the dimension")
    for lo, hi, n in zip(spec.mins, spec.maxs, spec.counts):
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise InvalidExtent(f"box side [{lo}, {hi}] is empty")
        if int(n) < 1:
            raise InvalidExtent(f"element count {n} must be >= 1")
    spacings = tuple((hi - lo) / n for lo, hi, n in
                     zip(spec.mins, spec.maxs, spec.counts))

    axes = axes_of(d)
    gamma = {}
    for ax in axes:
        for side in (-1, 1):
            raw = spec.gamma.get((ax, side), 0.0)  # absorbing by default
            gamma[(ax, side)] = _normalize_gamma(raw, d)

    mesh = CartesianMesh(dim=d, mins=tuple(map(float, spec.mins)),
                         maxs=tuple(map(float, spec.maxs)),
                         counts=tuple(map(int, spec.counts)),
                         spacings=spacings, materials=tuple(spec.materials),
                         material_ids=np.zeros(spec.counts, dtype=np.intp),
                         gamma=gamma)
    if spec.region_axis is not None:
        if spec.region_axis not in axes or spec.region_threshold is None:
            raise InvalidExtent(
                f"region needs a {d}D mesh axis and a region_threshold,"
                f" got {spec.region_axis!r} and {spec.region_threshold}")
        ai = axes.index(spec.region_axis)
        if not 0 <= spec.region_material < len(spec.materials):
            raise InvalidExtent(
                f"region material id {spec.region_material} out of range")
        below = element_centers(mesh, ai) < spec.region_threshold
        np.moveaxis(mesh.material_ids, ai, 0)[below] = spec.region_material
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
        if x < lo - tol or x > hi + tol:
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
