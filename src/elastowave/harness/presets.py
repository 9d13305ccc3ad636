"""Canned experiment configurations.

Each preset is one builder of n, the number of elements across its
interior, whose default is the canonical size; it encodes one benchmark
setup with its defining parameters: domain, medium, source, receivers,
layer widths and tolerances.  The `elements`, `degree`, `theta` and
`tend` overrides rescale a preset for desk-size runs (`elements` rebuilds
it at that count); every deviation from the canonical values is recorded
in the config notes so run metadata shows exactly what changed.
"""

import numbers
from dataclasses import replace
from functools import partial

from ..physics import material_from_speeds
from .config import (InitialSpec, OutputSpec, PmlSpec, ReceiverSpec,
                     RunConfig, SourceSpec, _real, _report, finalize)
from ..errors import UnknownPreset

KM = 1000.0

# hard rock used by the 2D strip/half-plane tests and the 3D half-space
# and deeper layer problems
_ROCK = dict(rho=2700.0, cp=6000.0, cs=3464.0)
# whole-space medium (slightly lighter)
_WHOLE = dict(rho=2670.0, cp=6000.0, cs=3464.0)
# soft upper layer of the layered benchmark
_SOFT = dict(rho=2600.0, cp=4000.0, cs=2000.0)

# moment tensors of the 3D sources, N*m: an explosion, and a double
# couple that loads only the yz component
_M0 = 1e18
_EXPLOSIVE = ((_M0, 0.0, 0.0), (0.0, _M0, 0.0), (0.0, 0.0, _M0))
_SHEAR = ((0.0, 0.0, 0.0), (0.0, 0.0, _M0), (0.0, _M0, 0.0))

# note of every 3D preset, whose benchmark leaves the frequency shift open
_DEFAULT_ALPHA = ("layer alpha is not part of the 3D benchmark definitions;"
                  " the built-in default cp/(10*layer width) applies")

# free-surface positions of the nine half-space/layered receivers,
# (y, z) offsets from the epicenter in km
_SURFACE_RECEIVERS = (
    (0.0, 0.693), (0.0, 5.542), (0.0, 10.392),
    (0.490, 0.490), (3.919, 3.919), (7.348, 7.348),
    (0.577, 0.384), (4.612, 3.075), (8.647, 5.764),
)


def _strip2d(n=20):
    # vertical-layer stability/accuracy test: interior |x| <= 50 km,
    # 0 <= y <= 50 km, n elements across its width, layers of width
    # 10 km on both x sides, free surface on top (y = 0), plain
    # absorbing wall at the bottom
    delta = 10.0 * KM
    return RunConfig(
        dimension=2,
        box=((-50.0 * KM - delta, 50.0 * KM + delta), (0.0, 50.0 * KM)),
        spacing=100.0 * KM / n, degree=5, cfl=0.9, t_end=100.0,
        materials=(material_from_speeds(**_ROCK),),
        boundary=(("x", -1, 0.0), ("x", 1, 0.0),
                  ("y", -1, 1.0), ("y", 1, 0.0)),
        pml=PmlSpec(widths=(("x", delta, delta),),
                    tol=1e-6, alpha=0.15, theta=1.0),
        initial=InitialSpec("velocity-gaussian", (
            ("amplitude", 1.0), ("center", (0.0, 25.0 * KM)),
            ("components", ("vx", "vy")), ("halfwidth", 3.0 * KM))),
        receivers=(ReceiverSpec("probe", (25.0 * KM, 25.0 * KM), 0.1),),
        output=OutputSpec(),
        notes=("probe receiver at (25, 25) km added for output checks"
               " (the benchmark itself defines none)",))


def _halfplane2d(n=20):
    # same medium and initial data, but the bottom truncation also
    # carries a 10 km layer, so vertical/horizontal layers meet in corners
    cfg = _strip2d(n)
    return replace(
        cfg, box=(cfg.box[0], (0.0, 60.0 * KM)),
        pml=replace(cfg.pml,
                    widths=cfg.pml.widths + (("y", 0.0, 10.0 * KM),)),
        notes=cfg.notes + ("bottom truncation carries a layer; corner"
                           " regions are active",))


def _hws3d(n=25):
    # whole-space explosion: interior cube [0, 10 km]^3 with layers of
    # 3 elements on all six sides
    dx = 10.0 * KM / n
    w = 3.0 * dx
    box = ((-w, 10.0 * KM + w),) * 3
    return RunConfig(
        dimension=3, box=box, spacing=dx, degree=5, cfl=0.9, t_end=3.0,
        materials=(material_from_speeds(**_WHOLE),),
        boundary=tuple((ax, s, 0.0) for ax in "xyz" for s in (-1, 1)),
        pml=PmlSpec(widths=(("x", w, w), ("y", w, w), ("z", w, w)),
                    tol=1e-3, theta=1.0),
        sources=(SourceSpec(
            "explosion", (3.4 * KM, 5.0 * KM, 5.0 * KM), _EXPLOSIVE,
            "gaussian", (("sigma", 0.1149), ("t0", 0.7))),),
        receivers=(ReceiverSpec("r1", (4.4 * KM, 5.0 * KM, 5.0 * KM)),
                   ReceiverSpec("r2", (8.4 * KM, 5.0 * KM, 5.0 * KM))),
        output=OutputSpec(),
        notes=(_DEFAULT_ALPHA,))


def _hhs3d(n=25):
    # half-space double couple in a bounded cube, n elements across; the
    # stated box already contains the layers of 3 elements on five
    # sides, the free surface at x = 0 extends into them
    lo, hi = -2.287 * KM, 14.046 * KM
    dx = 16.333 * KM / n
    w = 3.0 * dx
    return RunConfig(
        dimension=3, box=((0.0, 16.333 * KM), (lo, hi), (lo, hi)),
        spacing=dx, degree=5, cfl=0.9, t_end=5.0,
        materials=(material_from_speeds(**_ROCK),),
        boundary=(("x", -1, 1.0), ("x", 1, 0.0), ("y", -1, 0.0),
                  ("y", 1, 0.0), ("z", -1, 0.0), ("z", 1, 0.0)),
        pml=PmlSpec(widths=(("x", 0.0, w), ("y", w, w), ("z", w, w)),
                    tol=1e-3, theta=1.0),
        sources=(SourceSpec("couple", (0.693 * KM, 0.0, 0.0), _SHEAR,
                            "ramp", (("T", 0.1),)),),
        receivers=tuple(
            ReceiverSpec(f"r{i + 1}", (0.0, y * KM, z * KM))
            for i, (y, z) in enumerate(_SURFACE_RECEIVERS)),
        output=OutputSpec(),
        notes=(_DEFAULT_ALPHA,))


def _loh1(n=25):
    # layer over half-space: the half-space cube with a soft layer down
    # to 1 km depth and the source below it
    cfg = _hhs3d(n)
    return replace(
        cfg, t_end=9.0,
        materials=cfg.materials + (material_from_speeds(**_SOFT),),
        region=("x", 1.0 * KM, 1),
        sources=(replace(cfg.sources[0], location=(2.0 * KM, 0.0, 0.0)),),
        notes=cfg.notes + (
            "1 km layer boundary falls inside an element row; the"
            " centroid rule moves it to the nearest element face",))


def planewave_config(dim=2, elements=16, degree=3):
    """Manufactured traveling-mode problem with a known exact solution.

    A compactly supported mode moves along +x inside a box it never
    touches; the transverse faces carry the per-family reflection pair
    (free tangential, clamped normal) that keeps the mode exact.
    """
    lateral = {"y": (1.0, -1.0, 1.0), "z": (1.0, 1.0, -1.0)} \
        if dim == 3 else {"y": (1.0, -1.0)}
    boundary = [("x", -1, 0.0), ("x", 1, 0.0)]
    for ax, g in lateral.items():
        boundary += [(ax, -1, g), (ax, 1, g)]
    return finalize(RunConfig(
        dimension=dim, box=((0.0, 10.0),) * dim, spacing=10.0 / elements,
        degree=degree, cfl=0.5, t_end=0.5,
        materials=(material_from_speeds(1.0, 2.0, 1.0),),
        boundary=tuple(boundary),
        initial=InitialSpec("plane-wave", (
            ("center", 3.0), ("mode", "P"),
            ("n", (1.0,) + (0.0,) * (dim - 1)), ("width", 2.0))),
        output=OutputSpec(),
        notes=("manufactured accuracy problem, dimensionless scale",)))


# name -> (builder of the element count across the interior, whether a
# size or degree override is noted); the plane wave's size and degree
# are parameters of an accuracy study, not deviations from a benchmark
_PRESETS = {
    "strip2d": (_strip2d, True),
    "halfplane2d": (_halfplane2d, True),
    "hws3d": (_hws3d, True),
    "hhs3d": (_hhs3d, True),
    "loh1": (_loh1, True),
    "planewave": (partial(planewave_config, 2), False),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name, elements=None, degree=None, theta=None, tend=None):
    """Named configuration with optional desk-scale overrides."""
    if name not in _PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}; choose from"
            f" {', '.join(PRESET_NAMES)}")
    # overrides no preset can be built from, named before one is built
    rows = (("elements", elements, "at least 1 and an integer",
             lambda x: isinstance(x, numbers.Integral) and x >= 1),
            ("theta", theta, "a number", _real),
            ("tend", tend, "a number", _real))
    _report([f"{label} must be {phrase}, got {x!r}"
             for label, x, phrase, ok in rows if x is not None and not ok(x)])
    build, noted = _PRESETS[name]
    cfg = canonical = build()
    notes = []
    if elements is not None:
        cfg = build(elements)
        notes.append(f"element size set to {cfg.spacing / KM:g} km"
                     f" (canonical {canonical.spacing / KM:g} km)")
    if degree is not None:
        cfg = replace(cfg, degree=degree)
        notes.append(f"degree set to {degree} (canonical {canonical.degree})")
    if not noted:
        notes.clear()
    if theta is not None:
        cfg = replace(cfg, pml=replace(cfg.pml, theta=float(theta)))
        notes.append(f"theta set to {theta:g}")
    if tend is not None:
        cfg = replace(cfg, t_end=float(tend))
        notes.append(f"tend set to {tend:g} s (canonical"
                     f" {canonical.t_end:g} s)")
    return finalize(replace(cfg, notes=cfg.notes + tuple(notes)))
