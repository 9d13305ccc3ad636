"""Run configuration: the file format, its reader, and the rules a run
configuration must meet.

The format is sectioned plain text.  A section header is `[name]` or
`[name.sub]`, a setting is `key = value`, and `#` starts a comment.
A dimensional key reads its value as one quantity (see _UNITS): a
length, time, speed, density, stress, moment or rate, with an optional
unit tag of that quantity after the number (`5 km`, `2.7 g/cm3`); bare
numbers are taken as SI.  The dimensionless keys (`dimension`,
`degree`, `cfl`, `tol`, `theta`, `nx`/`ny`/`nz` and the reflection
values) take bare numbers only.  Everything is stored internally in SI
base units (m, s, kg, Pa, N*m).

Two jobs, kept apart:

- `parse_config` reads text into a RunConfig.  Bad syntax, a unit tag
  of another quantity than the key's, and a non-finite number raise
  ParseError with the line number.  Unknown sections and keys are
  findings.  A missing required section or key, or a material section
  that gives no valid material, is reported once, with the other
  findings, and no RunConfig is built.  A missing dimension, or one
  other than 2 or 3, stops the reader where it is read: every extent
  and point has one entry per axis.
- `validate` is the one rulebook for values.  `parse_config` runs it on
  what it read and `finalize` on a config built in code, so both meet
  the same rules.  Beside the structural and grid rules, each number is
  a row of one table, and one loop reports a value that is not a
  finite real number or fails its row's test as "{label} must {phrase},
  got {value!r}"; it skips a non-finite float, which the finiteness
  rule names.  All findings are raised as one ValidationError that
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

# the unit tags of each quantity a key reads, with their SI factors
_UNITS = {
    "length": {"m": 1.0, "km": 1000.0},
    "time": {"s": 1.0},
    "speed": {"m/s": 1.0, "km/s": 1000.0},
    "density": {"kg/m3": 1.0, "g/cm3": 1000.0},
    "stress": {"Pa": 1.0, "GPa": 1e9},
    "moment": {"N*m": 1.0},
    "rate": {"1/s": 1.0},
    "number": {},          # dimensionless: no unit tag
}
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


def _quantity(raw, where, quantity):
    """The number in raw, scaled to SI by its unit tag, which must be
    one of the quantity's (none at all for a number); `where` leads each
    error."""
    parts = raw.split()
    if not (len(parts) in (1, 2) and _NUM_RE.match(parts[0])):
        raise ParseError(f"{where}: expected `number [unit]`, got {raw!r}")
    unit = parts[1] if len(parts) == 2 else None
    units = _UNITS[quantity]
    if unit is not None and unit not in units:
        raise ParseError(f"{where}: {unit!r} is not a unit of {quantity}"
                         f" (use {' or '.join(units)})" if units else
                         f"{where}: expected a bare number, got {raw!r}")
    value = float(parts[0]) * units.get(unit, 1.0)
    if not math.isfinite(value):
        raise ParseError(f"{where}: {raw!r} must be finite")
    return value


def parse_length(token):
    """A length written `2500` or `2.5 km`, in m."""
    return _quantity(token, f"bad length {token!r} (write `2500` or"
                            f" `2.5 km`)", "length")


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

    def get(self, key, quantity, default=None):
        """The value of key: a number of the quantity in SI units, or its
        text with quantity None.  An absent key gives default; with
        _REQUIRED it is reported missing and gives None."""
        self.seen.add(key)
        if key not in self.entries:
            if default is _REQUIRED:
                self.missing.append(f"[{self.name}]: missing {key}")
                return None
            return default
        raw, lineno = self.entries[key]
        if quantity is None:
            return raw
        return _quantity(raw, f"line {lineno}", quantity)

    def unknown_keys(self):
        return [k for k in self.entries if k not in self.seen]


def _gamma_value(raw, lineno):
    if raw in _GAMMA_WORDS:
        return _GAMMA_WORDS[raw]
    where = (f"line {lineno}: reflection value must be"
             f" {', '.join(_GAMMA_WORDS)} or numeric")
    vals = tuple(_quantity(p, where, "number") for p in raw.split(","))
    return vals[0] if len(vals) == 1 else vals


def _whole(value):
    """A whole-numbered float as an int; anything else unchanged."""
    return int(value) if isinstance(value, float) and value.is_integer() \
        else value


def _point(sec, dim):
    return tuple(sec.get(a, "length", _REQUIRED) for a in axes_of(dim))


def _build_material(sec):
    """The section's MaterialModel, or None with the cause reported."""
    rho = sec.get("rho", "density", _REQUIRED)
    cp, cs = sec.get("cp", "speed"), sec.get("cs", "speed")
    lam, mu = sec.get("lam", "stress"), sec.get("mu", "stress")
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
    dim = _whole(mesh.get("dimension", "number", _REQUIRED))
    bad_dim = [] if dim is None else _dimension_faults(dim)
    if dim is None or bad_dim:
        # every extent and point has one entry per axis: read no further
        _report(missing + bad_dim + faults)
    axes = axes_of(dim)
    box = tuple((mesh.get(a + "min", "length", _REQUIRED),
                 mesh.get(a + "max", "length", _REQUIRED)) for a in axes)
    spacing = mesh.get("dx", "length", _REQUIRED)
    degree = _whole(mesh.get("degree", "number", _REQUIRED))

    # materials
    materials = []
    region = None
    for name in sorted(named("material"), key=lambda s: (s != "material", s)):
        sec = secs[name]
        materials.append(_build_material(sec))
        if name != "material":
            axis, below = sec.get("axis", None), sec.get("below", "length")
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
        w = psec.get(key, "length")
        ax, side = mm.group(1), mm.group(3)
        lo, hi = widths.get(ax, (0.0, 0.0))
        if side is None and (ax + ".lo" in psec.entries
                             or ax + ".hi" in psec.entries):
            faults.append(f"[pml]: give {ax} or {ax}.lo/{ax}.hi, not both")
        widths[ax] = (lo if side == "hi" else w, hi if side == "lo" else w)
    pml = PmlSpec(
        widths=tuple((ax, lo, hi) for ax, (lo, hi) in sorted(widths.items())),
        tol=psec.get("tol", "number"), d0=psec.get("d0", "rate"),
        alpha=psec.get("alpha", "rate"),
        theta=psec.get("theta", "number", 1.0))
    if pml.enabled and "alpha" not in psec.entries:
        notes.append("pml alpha defaulted to 0.15 1/s" if dim == 2
                     else "pml alpha defaulted to cp/(10*layer width)")
    if pml.enabled and "theta" not in psec.entries:
        notes.append("pml theta defaulted to 1")

    # time
    tsec = section("time")
    t_end = tsec.get("tend", "time", _REQUIRED)
    cfl = tsec.get("cfl", "number", 0.9)
    if "cfl" not in tsec.entries:
        notes.append("cfl defaulted to 0.9")

    # sources
    sources = []
    for name in named("source"):
        sec = secs[name]
        # keys mxx, myy, ..., one per stress component
        vals = {s: sec.get("m" + s[1:], "moment", 0.0)
                for s in stress_names(dim)}
        moment = tuple(tuple(vals[stress_name(a, b)] for b in axes)
                       for a in axes)
        stf = sec.get("stf", None, _REQUIRED)
        if stf in STF_KINDS:    # every parameter is a time
            params = {f.name: sec.get(f.name, "time", f.default)
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
                     secs[name].get("interval", "time"))
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
                      "halfwidth": sec.get("halfwidth", "length",
                                           _REQUIRED),
                      "amplitude": sec.get("amplitude", "speed", 1.0),
                      "components": tuple(c.strip()
                                          for c in comps.split(","))
                      if comps else None}
        elif kind == "plane-wave":
            params = {"n": tuple(sec.get("n" + a, "number", 0.0)
                                 for a in axes),
                      "mode": sec.get("mode", None, "P"),
                      "center": sec.get("center", "length", 0.0),
                      "width": sec.get("width", "length", 1.0)}
        else:   # report the unknown kind alone, not its parameters
            sec.seen.update(sec.entries)
        initial = InitialSpec(kind, tuple(sorted(params.items())))

    # output
    osec = section("output")
    output = OutputSpec(
        seismogram_interval=osec.get("seismogram_interval", "time"),
        series_interval=osec.get("series_interval", "time"),
        snapshot_interval=osec.get("snapshot_interval", "time"),
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
    elif _named(value):
        yield path, value


def _entries(what, entries, fits, form, v):
    """The entries of a tuple that fit; each other one is reported in v
    as `what[i] must be form`, and a value that is no tuple as such."""
    if not isinstance(entries, tuple):
        v.append(f"{what} must be a tuple, got {entries!r}")
        return []
    good = []
    for i, entry in enumerate(entries):
        if fits(entry):
            good.append(entry)
        else:
            v.append(f"{what}[{i}] must be {form}, got {entry!r}")
    return good


def _well_formed(what, entries, form, v):
    """The entries that are tuples of as many items as form names."""
    n = len(form.split(","))
    return _entries(what, entries,
                    lambda e: isinstance(e, tuple) and len(e) == n,
                    f"({form})", v)


def _pairs(what, params, v):
    """params, (key, value) pairs with text keys, as a dict; None if
    they are not, which is reported in v."""
    good = _entries(what, params, lambda p: isinstance(p, tuple)
                    and len(p) == 2 and isinstance(p[0], str),
                    "a (key, value) pair", v)
    whole = isinstance(params, tuple) and len(good) == len(params)
    return dict(good) if whole else None


def _real(x):
    return isinstance(x, numbers.Real)


def _finite(x):
    return _real(x) and -math.inf < x < math.inf


def _named(x):
    """Whether x is a non-finite float: validate's finiteness rule names
    it (see _non_finite), and its table of numbers skips it."""
    return isinstance(x, float) and not math.isfinite(x)


# the tests of validate's table of numbers, each with the phrase that
# completes "{label} must ..."; every number must also be finite
_FINITE = (lambda x: True, "be a finite number")
_POSITIVE = (lambda x: x > 0.0, "be positive and finite")
_NONNEGATIVE = (lambda x: x >= 0.0, "be nonnegative")


def _dimension_faults(dim):
    if not isinstance(dim, numbers.Integral):
        return [f"dimension must be an integer, got {dim!r}"]
    return [] if dim in (2, 3) else [f"dimension must be 2 or 3, got {dim}"]


def _off_grid(what, length, spacing):
    """The finding if length is not a whole number of elements."""
    n = length / spacing
    if abs(n - round(n)) > 1e-6 * max(1.0, n) or round(n) < 1:
        yield (f"{what} {length} is not a whole number of elements of"
               f" size {spacing}")


def validate(cfg):
    """All invariant violations for a config, as a list of messages.

    Beside the finiteness rule and the structural and grid rules, every
    number is a row (label, value, test, phrase) of one table; one loop
    reports a value that is not a finite real number or fails its test
    as "{label} must {phrase}, got {value!r}", and skips what the
    finiteness rule named.  An optional value of None gets no row."""
    v = [f"{path} must be finite, got {x}" for f in dataclasses.fields(cfg)
         for path, x in _non_finite(getattr(cfg, f.name), f.name)]
    bad_dim = _dimension_faults(cfg.dimension)
    if bad_dim:
        return v + bad_dim  # nothing downstream is meaningful
    # a field of a record type holds one; a field that defaults to None
    # may also be None
    faults = [f"{f.name} must be of type {f.type.__name__}, got {x!r}"
              for f in dataclasses.fields(cfg)
              if dataclasses.is_dataclass(f.type)
              and not isinstance(x := getattr(cfg, f.name), f.type)
              and not (x is None and f.default is None)]
    if faults:
        return v + faults
    if not isinstance(cfg.box, tuple):
        return v + [f"box must be a tuple of (lo, hi) per axis, got"
                    f" {cfg.box!r}"]
    if len(cfg.box) != cfg.dimension:
        v.append(f"box has {len(cfg.box)} axes for dimension"
                 f" {cfg.dimension}")
        return v
    if len(_well_formed("box", cfg.box, "lo, hi", v)) < cfg.dimension:
        return v
    faults = [f"box[{i}] must be numbers (lo, hi), got {side!r}"
              for i, side in enumerate(cfg.box) if not all(map(_real, side))]
    if faults:
        return v + faults
    if _named(cfg.spacing):
        return v    # named above; every grid rule would follow from it
    if not (_real(cfg.spacing) and cfg.spacing > 0.0):
        v.append(f"dx must be positive, got {cfg.spacing!r}")
        return v
    axes = axes_of(cfg.dimension)
    for ax, (lo, hi) in zip(axes, cfg.box):
        if not _finite(hi - lo):
            continue    # reported as non-finite above
        if hi <= lo:
            v.append(f"{ax} extent [{lo}, {hi}] is empty")
            continue
        v += _off_grid(f"{ax} extent", hi - lo, cfg.spacing)
    if not isinstance(cfg.degree, numbers.Integral):
        v.append(f"degree must be an integer, got {cfg.degree!r}")
    elif cfg.degree not in range(1, MAX_DEGREE + 1):
        v.append(f"degree must lie in [1, {MAX_DEGREE}], got {cfg.degree}")
    pml, out = cfg.pml, cfg.output
    rows = [("cfl", cfg.cfl, lambda x: 0.0 < x <= 1.0, "lie in (0, 1]"),
            ("tend", cfg.t_end) + _POSITIVE,
            ("pml theta", pml.theta, lambda x: 0.0 <= x <= 1.0,
             "lie in [0, 1]")]
    rows += [row for row in (
        ("pml tol", pml.tol, lambda x: 0.0 < x < 1.0, "lie in (0, 1)"),
        ("pml d0", pml.d0) + _NONNEGATIVE,
        ("pml alpha", pml.alpha) + _NONNEGATIVE,
        ("output seismogram_interval", out.seismogram_interval) + _POSITIVE,
        ("output series_interval", out.series_interval) + _POSITIVE,
        ("output snapshot_interval", out.snapshot_interval) + _POSITIVE)
        if row[1] is not None]
    if not cfg.materials:
        v.append("no materials defined")
    if len(cfg.materials) > 1 and cfg.region is None:
        v.append("secondary material defined without a region rule")
    if cfg.region is not None and not (isinstance(cfg.region, tuple)
                                       and len(cfg.region) == 3):
        v.append("region must be (axis, threshold, material index),"
                 f" got {cfg.region!r}")
    elif cfg.region is not None:
        axis, threshold, idx = cfg.region
        rows.append(("region threshold", threshold) + _FINITE)
        if axis not in axes:
            v.append(f"region axis {axis!r} not valid in"
                     f" {cfg.dimension}D")
        elif _finite(threshold) and threshold <= (
                cfg.box[axes.index(axis)][0] + 0.5 * cfg.spacing):
            v.append("region threshold selects no elements")
        if not (isinstance(idx, numbers.Integral)
                and 0 <= idx < len(cfg.materials)):
            v.append(f"region material index must be an integer in"
                     f" [0, {len(cfg.materials)}), got {idx!r}")

    boundary = _well_formed("boundary", cfg.boundary, "axis, side, gamma", v)
    rows += [(f"boundary {ax} side", side, lambda x: x in (-1, 1),
              "be -1 or 1") for ax, side, _ in boundary]
    # the faces of a valid side; the others are reported by the table
    boundary = [e for e in boundary if _real(e[1]) and e[1] in (-1, 1)]
    faces = [f"{ax}.{'lo' if side < 0 else 'hi'}" for ax, side, _ in boundary]
    for face in dict.fromkeys(f for f in faces if faces.count(f) > 1):
        v.append(f"boundary {face}: given {faces.count(face)} times; give"
                 f" each face once")
    for face, (ax, _, g) in zip(faces, boundary):
        vals = g if isinstance(g, tuple) else (g,)
        if isinstance(g, tuple) and len(g) not in (1, cfg.dimension):
            v.append(f"boundary {face}: need 1 or {cfg.dimension} values")
        rows += [(f"boundary {face}: |gamma|", x, lambda x: abs(x) <= 1.0,
                  "not exceed 1") for x in vals]
        if ax not in axes:
            v.append(f"boundary face {ax} not valid in {cfg.dimension}D")

    widths = _well_formed("pml.widths", pml.widths, "axis, lo, hi", v)
    named = [ax for ax, _, _ in widths]
    for ax in dict.fromkeys(a for a in named if named.count(a) > 1):
        v.append(f"pml axis {ax}: given {named.count(ax)} times;"
                 f" give each axis once")
    for ax, lo, hi in widths:
        sides = (("lo", lo), ("hi", hi))
        rows += [(f"pml {ax}.{s} width", w) + _NONNEGATIVE for s, w in sides]
        if ax not in axes:
            v.append(f"pml axis {ax} not valid in {cfg.dimension}D")
            continue
        for s, w in sides:
            if _finite(w) and w > 0.0:
                v += _off_grid(f"pml {ax}.{s} width", w, cfg.spacing)
        blo, bhi = cfg.box[axes.index(ax)]
        if all(map(_finite, (lo, hi, blo, bhi))) and blo + lo >= bhi - hi:
            v.append(f"pml layers on {ax} leave no interior")
    # the layers of numeric widths; the others are reported by the table
    pml = dataclasses.replace(pml, widths=tuple(
        e for e in widths if all(map(_real, e[1:]))))
    if pml.enabled and pml.tol is None and pml.d0 is None:
        v.append("pml enabled but neither tol nor d0 given")
    if pml.enabled and pml.tol is not None and pml.d0 is not None:
        v.append("pml tol and d0 are both set; give exactly one")

    sources = _entries("sources", cfg.sources,
                       lambda e: isinstance(e, SourceSpec),
                       "of type SourceSpec", v)
    receivers = _entries("receivers", cfg.receivers,
                         lambda e: isinstance(e, ReceiverSpec),
                         "of type ReceiverSpec", v)
    points = [(f"source {s.sid}: location", s.location) for s in sources]
    points += [(f"receiver {r.rid}: location", r.location)
               for r in receivers]
    for s in sources:
        m, dim = s.moment, cfg.dimension
        if isinstance(m, tuple) and len(m) == dim and all(
                isinstance(r, tuple) and len(r) == dim for r in m):
            rows += [(f"source {s.sid}: moment[{i}][{j}]", x) + _FINITE
                     for i, r in enumerate(m) for j, x in enumerate(r)]
        else:
            v.append(f"source {s.sid}: moment must be {dim} rows of {dim}"
                     f" numbers, got {m!r}")
        if not (isinstance(s.stf, str) and s.stf in STF_KINDS):
            v.append(f"source {s.sid}: stf must be"
                     f" {' or '.join(STF_KINDS)}, got {s.stf!r}")
            continue
        params = _pairs(f"source {s.sid}: stf_params", s.stf_params, v)
        if params is None:
            continue
        keys = [f.name for f in dataclasses.fields(STF_KINDS[s.stf])]
        v += [f"source {s.sid}: {s.stf} stf needs {key}"
              for key in keys if key not in params]
        # the first parameter is the width
        rows += [(f"source {s.sid}: {s.stf} {key}", params[key])
                 + (_POSITIVE if key == keys[0] else _FINITE)
                 for key in keys if key in params]

    # a receiver's name is part of its seismogram's file name
    rids = [r.rid for r in receivers]
    v += [f"receiver name must be nonempty text without '/' or NUL, got"
          f" {rid!r}" for rid in rids if not (
              isinstance(rid, str) and rid and "/" not in rid
              and "\0" not in rid)]
    rids = [rid for rid in rids if isinstance(rid, str)]
    for rid in dict.fromkeys(r for r in rids if rids.count(r) > 1):
        v.append(f"receiver {rid}: name given to {rids.count(rid)}"
                 f" receivers; names must be unique")
    rows += [(f"receiver {r.rid}: interval", r.interval) + _POSITIVE
             for r in receivers if r.interval is not None]

    ini = cfg.initial
    if ini is not None and _pairs("initial params", ini.params, v) is None:
        ini = None    # no parameter can be looked up
    if ini is not None and ini.kind not in ("velocity-gaussian", "plane-wave"):
        v.append(f"initial type must be velocity-gaussian or plane-wave,"
                 f" got {ini.kind!r}")
    if ini is not None and ini.kind == "velocity-gaussian":
        points.append(("initial center", ini.get("center")))
        rows += [("initial halfwidth", ini.get("halfwidth")) + _POSITIVE,
                 ("initial amplitude", ini.get("amplitude", 1.0)) + _FINITE]
        names = velocity_names(cfg.dimension)
        comps = ini.get("components") or ()
        if not isinstance(comps, tuple):
            v.append(f"initial components must be a tuple of velocity"
                     f" names, got {comps!r}")
            comps = ()
        v += [f"initial component {c!r} not valid in {cfg.dimension}D"
              f" (expected one of {', '.join(names)})"
              for c in comps if c not in names]
    if ini is not None and ini.kind == "plane-wave":
        n = ini.get("n") if isinstance(ini.get("n"), tuple) else ()
        rows += [(f"initial plane-wave direction n{ax}", x) + _FINITE
                 for ax, x in zip(AXES, n)]
        if len(n) != cfg.dimension:
            v.append(f"initial plane-wave direction n has {len(n)}"
                     f" entries in {cfg.dimension}D")
        elif all(map(_finite, n)) and not any(n):
            v.append("initial plane-wave direction is zero")
        if ini.get("mode") not in ("P", "S"):
            v.append(f"initial plane-wave mode must be P or S,"
                     f" got {ini.get('mode')!r}")
        rows += [("initial plane-wave width", ini.get("width")) + _POSITIVE,
                 ("initial plane-wave center", ini.get("center")) + _FINITE]
        if len(cfg.materials) > 1:
            v.append("initial plane-wave needs a homogeneous medium;"
                     " drop the secondary material")

    # a point is held to the box only once every coordinate is a number
    for what, point in points:
        point = point if isinstance(point, tuple) else ()
        rows += [(f"{what} {ax}", x) + _FINITE for ax, x in zip(AXES, point)]
        if len(point) != cfg.dimension:
            v.append(f"{what} is not {cfg.dimension}-dimensional")
        elif all(map(_finite, (*point, *sum(cfg.box, ())))) and not all(
                lo <= c <= hi for c, (lo, hi) in zip(point, cfg.box)):
            v.append(f"{what} {point} outside the box")

    if out.snapshot_format not in ("binary", "csv"):
        v.append(f"output snapshot_format must be binary or csv,"
                 f" got {out.snapshot_format!r}")
    v += [f"{label} must {phrase}, got {x!r}" for label, x, test, phrase
          in rows if not (_named(x) or _finite(x) and test(x))]
    return v


def finalize(cfg):
    """Validate a programmatically built config; raises ValidationError."""
    _report(validate(cfg))
    return cfg
