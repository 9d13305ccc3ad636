"""Run configuration: the file format, its reader, and the rules a run
configuration must meet.

The format is sectioned plain text.  A section header is `[name]` or
`[name.sub]`, a setting is `key = value`, and `#` starts a comment.
Dimensional values carry a unit tag after the number (`5 km`,
`2.7 g/cm3`); bare numbers are taken as SI.  The dimensionless keys
(`dimension`, `degree`, `cfl`, `tol`, `theta`, `nx`/`ny`/`nz` and the
reflection values) take bare numbers only.  Everything is stored
internally in SI base units (m, s, kg, Pa, N*m).

Two jobs, kept apart:

- `parse_config` reads text into a RunConfig.  Bad syntax, a unit it
  does not know or a key does not take, and a non-finite number raise
  ParseError with the line number.  Unknown sections and keys are
  findings.  A missing required section or key, or a material section
  that gives no valid material, is reported once, with the other
  findings, and no RunConfig is built.  A missing dimension, or one
  other than 2 or 3, stops the reader where it is read: every extent
  and point has one entry per axis.
- `validate` is the one rulebook for values.  `parse_config` runs it on
  what it read and `finalize` on a config built in code, so both meet
  the same rules.  All findings are raised as one ValidationError that
  names each cause once.
"""

import dataclasses
import math
import numbers
import re
from dataclasses import dataclass, field

from ..errors import ParseError, ValidationError
from ..operators import MAX_DEGREE
from ..physics import (AXES, axes_of, material_from_lame,
                       material_from_speeds, stress_name, stress_names,
                       velocity_names)
from ..sources import STF_KINDS

_UNITS = {
    "m": 1.0,
    "km": 1000.0,
    "s": 1.0,
    "kg/m3": 1.0,
    "g/cm3": 1000.0,
    "m/s": 1.0,
    "km/s": 1000.0,
    "Pa": 1.0,
    "GPa": 1e9,
    "N*m": 1.0,
    "1/s": 1.0,
    "m2": 1.0,
    "km2": 1e6,
}
_LENGTHS = {"m": 1.0, "km": 1000.0}
_BARE = {}                 # dimensionless: no unit tag
_REQUIRED = dataclasses.MISSING    # default of a key that must be given

_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_AXIS_RE = "(" + "|".join(AXES) + ")"
_GAMMA_WORDS = {"free": 1.0, "absorbing": 0.0, "clamped": -1.0}
_SECTIONS = ("mesh", "boundary", "pml", "time", "initial", "output")
_NAMED_SECTIONS = ("material", "source", "receiver")   # also [head.NAME]
_REQUIRED_SECTIONS = ("mesh", "material", "time")


@dataclass(frozen=True)
class SourceSpec:
    sid: str
    location: tuple
    moment: tuple          # rows of the symmetric moment tensor, N*m
    stf: str               # "gaussian" | "ramp"
    stf_params: tuple      # sorted (key, value) pairs


@dataclass(frozen=True)
class ReceiverSpec:
    rid: str
    location: tuple
    components: str = "velocity"
    interval: float = None


@dataclass(frozen=True)
class InitialSpec:
    kind: str              # "velocity-gaussian" | "plane-wave"
    params: tuple          # sorted (key, value) pairs

    def get(self, key, default=None):
        return dict(self.params).get(key, default)


@dataclass(frozen=True)
class PmlSpec:
    widths: tuple = ()     # ((axis, lo_width, hi_width), ...)
    tol: float = None
    d0: float = None
    alpha: float = None    # None = default (0.15 in 2D, cp/(10w) in 3D)
    theta: float = 1.0

    @property
    def enabled(self):
        return any(lo > 0.0 or hi > 0.0 for _, lo, hi in self.widths)

    def width_map(self):
        return {ax: (lo, hi) for ax, lo, hi in self.widths}


@dataclass(frozen=True)
class OutputSpec:
    seismogram_interval: float = None
    series_interval: float = None
    snapshot_interval: float = None
    snapshot_format: str = "binary"


@dataclass(frozen=True)
class RunConfig:
    dimension: int
    box: tuple             # ((lo, hi), ...) per axis, m; includes layers
    spacing: float         # uniform element size, m
    degree: int
    cfl: float
    t_end: float
    materials: tuple       # MaterialModel instances, index 0 = base
    region: tuple = None   # (axis, threshold, material_index) or None
    boundary: tuple = ()   # ((axis, side, gamma), ...); gamma scalar/tuple
    pml: PmlSpec = field(default_factory=PmlSpec)
    sources: tuple = ()
    receivers: tuple = ()
    initial: InitialSpec = None
    output: OutputSpec = field(default_factory=OutputSpec)
    notes: tuple = ()      # applied defaults, desk-scale deviations

    def boundary_map(self):
        return {(ax, side): g for ax, side, g in self.boundary}

    def counts(self):
        out = []
        for lo, hi in self.box:
            out.append(int(round((hi - lo) / self.spacing)))
        return tuple(out)

    def interior(self):
        """Box bounds with the absorbing layers stripped off."""
        wid = self.pml.width_map()
        lo = [b[0] + wid.get(ax, (0.0, 0.0))[0]
              for ax, b in zip(AXES, self.box)]
        hi = [b[1] - wid.get(ax, (0.0, 0.0))[1]
              for ax, b in zip(AXES, self.box)]
        return tuple(lo), tuple(hi)


def _quantity(raw, where, units=_UNITS):
    """The number in raw, scaled to SI by its unit tag, which must be
    one of `units` (none at all for _BARE); `where` leads each error."""
    parts = raw.split()
    if not (len(parts) in (1, 2) and _NUM_RE.match(parts[0])):
        raise ParseError(f"{where}: expected `number [unit]`, got {raw!r}")
    unit = parts[1] if len(parts) == 2 else None
    if unit is not None and unit not in units:
        raise ParseError(f"{where}: unknown unit {unit!r}" if units else
                         f"{where}: expected a bare number, got {raw!r}")
    value = float(parts[0]) * units.get(unit, 1.0)
    if not math.isfinite(value):
        raise ParseError(f"{where}: {raw!r} must be finite")
    return value


def parse_length(token):
    """A length written `2500` or `2.5 km`, in m."""
    return _quantity(token, f"bad length {token!r} (write `2500` or"
                            f" `2.5 km`)", _LENGTHS)


def _tokenize(text):
    """text -> ordered {section: {key: (raw_value, lineno)}}"""
    sections = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            if not body.endswith("]") or len(body) < 3:
                raise ParseError(f"line {lineno}: malformed section header")
            name = body[1:-1].strip()
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
                raise ParseError(
                    f"line {lineno}: bad section name {name!r}")
            if name in sections:
                raise ParseError(
                    f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in body:
            raise ParseError(
                f"line {lineno}: expected `key = value`, got {body!r}")
        if current is None:
            raise ParseError(
                f"line {lineno}: setting appears before any section")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"line {lineno}: empty key or value")
        if key in sections[current]:
            raise ParseError(
                f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


class _Section:
    """One section's raw entries; records the keys read, so leftover
    ones can be reported, and appends each absent required key to
    `missing`."""

    def __init__(self, name, entries, missing):
        self.name = name
        self.entries = entries
        self.missing = missing
        self.seen = set()

    def get(self, key, units=_UNITS, default=None):
        """The value of key: a number in SI units, or its text with
        units=None.  An absent key gives default; with _REQUIRED it is
        reported missing and gives None."""
        self.seen.add(key)
        if key not in self.entries:
            if default is _REQUIRED:
                self.missing.append(f"[{self.name}]: missing {key}")
                return None
            return default
        raw, lineno = self.entries[key]
        if units is None:
            return raw
        return _quantity(raw, f"line {lineno}", units)

    def unknown_keys(self):
        return [k for k in self.entries if k not in self.seen]


def _gamma_value(raw, lineno):
    if raw in _GAMMA_WORDS:
        return _GAMMA_WORDS[raw]
    where = (f"line {lineno}: reflection value must be"
             f" {', '.join(_GAMMA_WORDS)} or numeric")
    vals = tuple(_quantity(p, where, _BARE) for p in raw.split(","))
    return vals[0] if len(vals) == 1 else vals


def _whole(value):
    """A whole-numbered float as an int; anything else unchanged."""
    return int(value) if isinstance(value, float) and value.is_integer() \
        else value


def _point(sec, dim):
    return tuple(sec.get(a, default=_REQUIRED) for a in axes_of(dim))


def _build_material(sec):
    """The section's MaterialModel, or None with the cause reported."""
    rho = sec.get("rho", default=_REQUIRED)
    cp, cs, lam, mu = (sec.get(k) for k in ("cp", "cs", "lam", "mu"))
    speeds = cp is not None or cs is not None
    lame = lam is not None or mu is not None
    if rho is None:
        return None
    if speeds and lame:
        cause = "give cp/cs or lam/mu, not both"
    elif speeds and (cp is None or cs is None):
        cause = "needs both cp and cs"
    elif lame and (lam is None or mu is None):
        cause = "needs both lam and mu"
    elif not (speeds or lame):
        cause = "needs cp/cs or lam/mu"
    else:
        try:
            return (material_from_speeds(rho, cp, cs) if speeds
                    else material_from_lame(rho, lam, mu))
        except Exception as exc:  # invalid parameter combinations
            cause = str(exc)
    sec.missing.append(f"[{sec.name}]: {cause}")
    return None


def _report(findings):
    if findings:
        raise ValidationError("\n".join(findings))


def parse_config(text):
    """Read configuration text into a RunConfig and validate it."""
    missing = []     # what leaves the RunConfig unbuildable
    faults = []      # the reader's other findings
    notes = []
    secs = {}
    for name, entries in _tokenize(text).items():
        head, dot, _ = name.partition(".")
        if head in _NAMED_SECTIONS or head in _SECTIONS and not dot:
            secs[name] = _Section(name, entries, missing)
        else:
            faults.append(f"unknown section [{name}]")
    missing += [f"missing [{name}] section" for name in _REQUIRED_SECTIONS
                if name not in secs]

    def section(name):
        # the absence of a required section is its one cause, so an
        # absent section reports no missing keys
        return secs.get(name) or _Section(name, {}, [])

    def named(head):
        return [s for s in secs if s.partition(".")[0] == head]

    # mesh
    mesh = section("mesh")
    dim = _whole(mesh.get("dimension", _BARE, _REQUIRED))
    bad_dim = [] if dim is None else _dimension_faults(dim)
    if dim is None or bad_dim:
        # every extent and point has one entry per axis: read no further
        _report(missing + bad_dim + faults)
    axes = axes_of(dim)
    box = tuple((mesh.get(a + "min", default=_REQUIRED),
                 mesh.get(a + "max", default=_REQUIRED)) for a in axes)
    spacing = mesh.get("dx", default=_REQUIRED)
    degree = _whole(mesh.get("degree", _BARE, _REQUIRED))

    # materials
    materials = []
    region = None
    for name in sorted(named("material"), key=lambda s: (s != "material", s)):
        sec = secs[name]
        materials.append(_build_material(sec))
        if name != "material":
            axis, below = sec.get("axis", None), sec.get("below")
            if axis is None or below is None:
                missing.append(
                    f"[{name}]: secondary material needs axis and below")
            elif region is not None:
                faults.append("only one secondary material region"
                              " is supported")
            else:
                region = (axis, below, len(materials) - 1)

    # boundary
    boundary = []
    bsec = section("boundary")
    for key, (raw, lineno) in bsec.entries.items():
        mm = re.fullmatch(_AXIS_RE + r"\.(lo|hi)", key)
        if mm:
            bsec.seen.add(key)
            side = -1 if mm.group(2) == "lo" else 1
            boundary.append((mm.group(1), side, _gamma_value(raw, lineno)))

    # pml; a key that is neither a width nor read below is unknown
    psec = section("pml")
    widths = {}
    for key in psec.entries:
        mm = re.fullmatch(_AXIS_RE + r"(\.(lo|hi))?", key)
        if not mm:
            continue
        w = psec.get(key)
        ax, side = mm.group(1), mm.group(3)
        lo, hi = widths.get(ax, (0.0, 0.0))
        if side is None and (ax + ".lo" in psec.entries
                             or ax + ".hi" in psec.entries):
            faults.append(f"[pml]: give {ax} or {ax}.lo/{ax}.hi, not both")
        widths[ax] = (lo if side == "hi" else w, hi if side == "lo" else w)
    pml = PmlSpec(
        widths=tuple((ax, lo, hi) for ax, (lo, hi) in sorted(widths.items())),
        tol=psec.get("tol", _BARE), d0=psec.get("d0"),
        alpha=psec.get("alpha"), theta=psec.get("theta", _BARE, 1.0))
    if pml.enabled and "alpha" not in psec.entries:
        notes.append("pml alpha defaulted to 0.15 1/s" if dim == 2
                     else "pml alpha defaulted to cp/(10*layer width)")
    if pml.enabled and "theta" not in psec.entries:
        notes.append("pml theta defaulted to 1")

    # time
    tsec = section("time")
    t_end = tsec.get("tend", default=_REQUIRED)
    cfl = tsec.get("cfl", _BARE, 0.9)
    if "cfl" not in tsec.entries:
        notes.append("cfl defaulted to 0.9")

    # sources
    sources = []
    for name in named("source"):
        sec = secs[name]
        # keys mxx, myy, ..., one per stress component
        vals = {s: sec.get("m" + s[1:], default=0.0)
                for s in stress_names(dim)}
        moment = tuple(tuple(vals[stress_name(a, b)] for b in axes)
                       for a in axes)
        stf = sec.get("stf", None, _REQUIRED)
        if stf in STF_KINDS:
            params = {f.name: sec.get(f.name, default=f.default)
                      for f in dataclasses.fields(STF_KINDS[stf])}
        else:   # report the unknown kind alone, not its parameters
            params = {}
            sec.seen.update(sec.entries)
        sources.append(SourceSpec(
            name.partition(".")[2] or "source", _point(sec, dim), moment,
            stf, tuple(sorted(params.items()))))

    # receivers
    receivers = [
        ReceiverSpec(name.partition(".")[2] or "receiver",
                     _point(secs[name], dim),
                     secs[name].get("components", None, "velocity"),
                     secs[name].get("interval"))
        for name in named("receiver")]

    # initial condition
    initial = None
    if "initial" in secs:
        sec = secs["initial"]
        kind = sec.get("type", None, _REQUIRED)
        params = {}
        if kind == "velocity-gaussian":
            comps = sec.get("components", None)
            params = {"center": _point(sec, dim),
                      "halfwidth": sec.get("halfwidth", default=_REQUIRED),
                      "amplitude": sec.get("amplitude", default=1.0),
                      "components": tuple(c.strip()
                                          for c in comps.split(","))
                      if comps else None}
        elif kind == "plane-wave":
            params = {"n": tuple(sec.get("n" + a, _BARE, 0.0) for a in axes),
                      "mode": sec.get("mode", None, "P"),
                      "center": sec.get("center", default=0.0),
                      "width": sec.get("width", default=1.0)}
        else:   # report the unknown kind alone, not its parameters
            sec.seen.update(sec.entries)
        initial = InitialSpec(kind, tuple(sorted(params.items())))

    # output
    osec = section("output")
    output = OutputSpec(
        seismogram_interval=osec.get("seismogram_interval"),
        series_interval=osec.get("series_interval"),
        snapshot_interval=osec.get("snapshot_interval"),
        snapshot_format=osec.get("snapshot_format", None, "binary"))

    for name, sec in secs.items():
        faults += [f"[{name}]: unknown key {k!r}" for k in sec.unknown_keys()]
    if missing:
        _report(missing + faults)

    cfg = RunConfig(
        dimension=dim, box=box, spacing=spacing, degree=degree,
        cfl=cfl, t_end=t_end, materials=tuple(materials), region=region,
        boundary=tuple(boundary), pml=pml, sources=tuple(sources),
        receivers=tuple(receivers), initial=initial, output=output,
        notes=tuple(notes))
    _report(faults + validate(cfg))
    return cfg


def _inside(point, box):
    return all(lo <= c <= hi for c, (lo, hi) in zip(point, box))


def _non_finite(value, path):
    """(path, number) of each non-finite number in a config value:
    dataclass fields by name, (key, value) pairs by key, other tuples
    by index."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _non_finite(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, tuple):
        for i, x in enumerate(value):
            if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], str):
                yield from _non_finite(x[1], f"{path}.{x[0]}")
            else:
                yield from _non_finite(x, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path, value


def _dimension_faults(dim):
    return [] if dim in (2, 3) else [f"dimension must be 2 or 3, got {dim}"]


def _off_grid(what, length, spacing):
    """The finding if length is not a whole number of elements."""
    n = length / spacing
    if abs(n - round(n)) > 1e-6 * max(1.0, n) or round(n) < 1:
        yield (f"{what} {length} is not a whole number of elements of"
               f" size {spacing}")


def _point_faults(what, point, cfg):
    """The finding if point lacks one entry per axis or lies outside
    the box."""
    if len(point or ()) != cfg.dimension:
        yield f"{what} is not {cfg.dimension}-dimensional"
    elif not _inside(point, cfg.box):
        yield f"{what} {point} outside the box"


def validate(cfg):
    """All invariant violations for a config, as a list of messages."""
    v = [f"{path} must be finite, got {x}" for f in dataclasses.fields(cfg)
         for path, x in _non_finite(getattr(cfg, f.name), f.name)]
    bad_dim = _dimension_faults(cfg.dimension)
    if bad_dim:
        return v + bad_dim  # nothing downstream is meaningful
    if len(cfg.box) != cfg.dimension:
        v.append(f"box has {len(cfg.box)} axes for dimension"
                 f" {cfg.dimension}")
        return v
    if not cfg.spacing > 0.0:
        v.append(f"dx must be positive, got {cfg.spacing}")
        return v
    axes = axes_of(cfg.dimension)
    for ax, (lo, hi) in zip(axes, cfg.box):
        if not math.isfinite(hi - lo):
            continue    # reported as non-finite above
        if hi <= lo:
            v.append(f"{ax} extent [{lo}, {hi}] is empty")
            continue
        v += _off_grid(f"{ax} extent", hi - lo, cfg.spacing)
    if not isinstance(cfg.degree, numbers.Integral):
        v.append(f"degree must be an integer, got {cfg.degree!r}")
    elif cfg.degree not in range(1, MAX_DEGREE + 1):
        v.append(f"degree must lie in [1, {MAX_DEGREE}], got {cfg.degree}")
    if not 0.0 < cfg.cfl <= 1.0:
        v.append(f"cfl must lie in (0, 1], got {cfg.cfl}")
    if not math.isfinite(cfg.t_end) or cfg.t_end <= 0.0:
        v.append(f"tend must be positive and finite, got {cfg.t_end}")
    if not cfg.materials:
        v.append("no materials defined")
    if len(cfg.materials) > 1 and cfg.region is None:
        v.append("secondary material defined without a region rule")
    if cfg.region is not None:
        axis, threshold, idx = cfg.region
        if axis not in axes:
            v.append(f"region axis {axis!r} not valid in"
                     f" {cfg.dimension}D")
        if not isinstance(threshold, numbers.Real):
            v.append(f"region threshold must be a finite number,"
                     f" got {threshold!r}")
        elif axis in axes and math.isfinite(threshold):
            lo = cfg.box[axes.index(axis)][0]
            if threshold <= lo + 0.5 * cfg.spacing:
                v.append("region threshold selects no elements")
        if not (isinstance(idx, numbers.Integral)
                and 0 <= idx < len(cfg.materials)):
            v.append(f"region material index must be an integer in"
                     f" [0, {len(cfg.materials)}), got {idx!r}")

    for ax, side, g in cfg.boundary:
        vals = g if isinstance(g, tuple) else (g,)
        if isinstance(g, tuple) and len(g) not in (1, cfg.dimension):
            v.append(f"boundary {ax}.{'lo' if side < 0 else 'hi'}:"
                     f" need 1 or {cfg.dimension} values")
        if not all(abs(x) <= 1.0 for x in vals):     # NaN fails too
            v.append(f"boundary {ax}.{'lo' if side < 0 else 'hi'}:"
                     f" |gamma| must not exceed 1, got {g}")
        if ax not in axes:
            v.append(f"boundary face {ax} not valid in {cfg.dimension}D")

    pml = cfg.pml
    for ax, lo, hi in pml.widths:
        if ax not in axes:
            v.append(f"pml axis {ax} not valid in {cfg.dimension}D")
            continue
        for w, label in ((lo, "lo"), (hi, "hi")):
            if w < 0.0:
                v.append(f"pml {ax}.{label} width is negative")
            elif 0.0 < w < math.inf:
                v += _off_grid(f"pml {ax}.{label} width", w, cfg.spacing)
        blo, bhi = cfg.box[axes.index(ax)]
        if blo + lo >= bhi - hi:
            v.append(f"pml layers on {ax} leave no interior")
    if pml.enabled:
        if pml.tol is None and pml.d0 is None:
            v.append("pml enabled but neither tol nor d0 given")
        if pml.tol is not None and pml.d0 is not None:
            v.append("pml tol and d0 are both set; give exactly one")
        if pml.tol is not None and not 0.0 < pml.tol < 1.0:
            v.append(f"pml tol must lie in (0, 1), got {pml.tol}")
        if pml.d0 is not None and pml.d0 < 0.0:
            v.append(f"pml d0 must be nonnegative, got {pml.d0}")
        if pml.alpha is not None and pml.alpha < 0.0:
            v.append(f"pml alpha must be nonnegative, got {pml.alpha}")
        if not 0.0 <= pml.theta <= 1.0:
            v.append(f"pml theta must lie in [0, 1], got {pml.theta}")

    for s in cfg.sources:
        v += _point_faults(f"source {s.sid}: location", s.location, cfg)
        params = dict(s.stf_params)
        if s.stf not in STF_KINDS:
            v.append(f"source {s.sid}: stf must be"
                     f" {' or '.join(STF_KINDS)}, got {s.stf!r}")
            continue
        keys = [f.name for f in dataclasses.fields(STF_KINDS[s.stf])]
        v += [f"source {s.sid}: {s.stf} stf needs {key}"
              for key in keys if key not in params]
        width = keys[0]
        if params.get(width, 1.0) <= 0.0:
            v.append(f"source {s.sid}: {s.stf} {width} must be positive")

    rids = [r.rid for r in cfg.receivers]
    for rid in dict.fromkeys(r for r in rids if rids.count(r) > 1):
        v.append(f"receiver {rid}: name given to {rids.count(rid)}"
                 f" receivers; names must be unique")
    for r in cfg.receivers:
        v += _point_faults(f"receiver {r.rid}: location", r.location, cfg)
        if r.components not in ("velocity", "all"):
            v.append(f"receiver {r.rid}: components must be velocity"
                     f" or all")
        if r.interval is not None and not 0.0 < r.interval < math.inf:
            v.append(f"receiver {r.rid}: interval must be positive"
                     f" and finite")

    ini = cfg.initial
    if ini is not None and ini.kind not in ("velocity-gaussian",
                                            "plane-wave"):
        v.append(f"initial type must be velocity-gaussian or plane-wave,"
                 f" got {ini.kind!r}")
    if ini is not None and ini.kind == "velocity-gaussian":
        v += _point_faults("initial center", ini.get("center"), cfg)
        if (ini.get("halfwidth") or 0.0) <= 0.0:
            v.append("initial halfwidth must be positive")
        names = velocity_names(cfg.dimension)
        for c in ini.get("components") or ():
            if c not in names:
                v.append(f"initial component {c!r} not valid in"
                         f" {cfg.dimension}D (expected one of"
                         f" {', '.join(names)})")
    if ini is not None and ini.kind == "plane-wave":
        n = ini.get("n") or ()
        if len(n) != cfg.dimension:
            v.append(f"initial plane-wave direction n has {len(n)}"
                     f" entries in {cfg.dimension}D")
        elif not any(x != 0.0 for x in n):
            v.append("initial plane-wave direction is zero")
        if ini.get("mode") not in ("P", "S"):
            v.append(f"initial plane-wave mode must be P or S,"
                     f" got {ini.get('mode')!r}")
        if (ini.get("width") or 0.0) <= 0.0:
            v.append("initial plane-wave width must be positive")
        if len(cfg.materials) > 1:
            v.append("initial plane-wave needs a homogeneous medium;"
                     " drop the secondary material")

    out = cfg.output
    for label, val in (("seismogram_interval", out.seismogram_interval),
                       ("series_interval", out.series_interval),
                       ("snapshot_interval", out.snapshot_interval)):
        if val is not None and not 0.0 < val < math.inf:
            v.append(f"output {label} must be positive and finite")
    if out.snapshot_format not in ("binary", "csv"):
        v.append(f"output snapshot_format must be binary or csv,"
                 f" got {out.snapshot_format!r}")
    return v


def finalize(cfg):
    """Validate a programmatically built config; raises ValidationError."""
    _report(validate(cfg))
    return cfg
