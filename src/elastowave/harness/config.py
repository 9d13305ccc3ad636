"""Run configuration: file format, unit handling, validation.

The format is sectioned plain text.  A section header is `[name]` or
`[name.sub]`, a setting is `key = value`, and `#` starts a comment.
Dimensional values carry a unit tag after the number (`5 km`,
`2.7 g/cm3`); bare numbers are taken as SI or dimensionless.  Everything
is stored internally in SI base units (m, s, kg, Pa, N*m).

Parsing failures (bad syntax, unknown units) raise ParseError with the
offending line number.  Semantic problems are collected and raised as a
single ValidationError that lists every violation, not just the first.
"""

import dataclasses
import math
import re
from dataclasses import dataclass, field

from ..errors import ParseError, ValidationError
from ..operators import MAX_DEGREE
from ..physics import (AXES, axes_of, material_from_lame,
                       material_from_speeds, stress_name, stress_names,
                       velocity_names)

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

_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_AXIS_RE = "(" + "|".join(AXES) + ")"
_GAMMA_WORDS = {"free": 1.0, "absorbing": 0.0, "clamped": -1.0}
_SECTIONS = ("mesh", "boundary", "pml", "time", "initial", "output")
_NAMED_SECTIONS = ("material", "source", "receiver")   # also [head.NAME]


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


def _quantity(raw, lineno):
    parts = raw.split()
    if not (len(parts) in (1, 2) and _NUM_RE.match(parts[0])):
        raise ParseError(
            f"line {lineno}: expected `number [unit]`, got {raw!r}")
    unit = parts[1] if len(parts) == 2 else None
    if unit is not None and unit not in _UNITS:
        raise ParseError(f"line {lineno}: unknown unit {unit!r}")
    value = float(parts[0]) * _UNITS.get(unit, 1.0)
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: {raw!r} must be finite")
    return value


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
    """Typed getters over one section's raw entries; tracks consumption
    so leftover keys can be reported."""

    def __init__(self, name, entries):
        self.name = name
        self.entries = entries
        self.seen = set()

    def has(self, key):
        return key in self.entries

    def raw(self, key, default=None):
        self.seen.add(key)
        if key not in self.entries:
            return default
        return self.entries[key][0]

    def num(self, key, default=None):
        self.seen.add(key)
        if key not in self.entries:
            return default
        raw, lineno = self.entries[key]
        return _quantity(raw, lineno)

    def word(self, key, default=None):
        self.seen.add(key)
        if key not in self.entries:
            return default
        raw, lineno = self.entries[key]
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]*", raw):
            raise ParseError(f"line {lineno}: expected a word, got {raw!r}")
        return raw

    def integer(self, key, default=None):
        self.seen.add(key)
        if key not in self.entries:
            return default
        raw, lineno = self.entries[key]
        v = _quantity(raw, lineno)
        if v != int(v):
            raise ParseError(f"line {lineno}: {key} must be an integer")
        return int(v)

    def unknown_keys(self):
        return [k for k in self.entries if k not in self.seen]


def _gamma_value(raw, lineno):
    if raw in _GAMMA_WORDS:
        return _GAMMA_WORDS[raw]
    vals = []
    for p in raw.split(","):
        if not _NUM_RE.match(p.strip()):
            raise ParseError(
                f"line {lineno}: reflection value must be"
                f" {', '.join(_GAMMA_WORDS)} or numeric, got {raw!r}")
        vals.append(float(p))
    return vals[0] if len(vals) == 1 else tuple(vals)


def _point(sec, dim, violations, what):
    coords = []
    missing = []
    for name in axes_of(dim):
        v = sec.num(name)
        if v is None:
            missing.append(name)
        else:
            coords.append(v)
    if missing:
        violations.append(
            f"[{sec.name}]: {what} needs coordinates {', '.join(missing)}")
        return None
    return tuple(coords)


def _build_material(sec, violations):
    rho = sec.num("rho")
    cp, cs, lam, mu = (sec.num(k) for k in ("cp", "cs", "lam", "mu"))
    if rho is None:
        violations.append(f"[{sec.name}]: missing rho")
        return None
    speeds = cp is not None or cs is not None
    lame = lam is not None or mu is not None
    if speeds and lame:
        violations.append(f"[{sec.name}]: give cp/cs or lam/mu, not both")
        return None
    try:
        if speeds:
            if cp is None or cs is None:
                violations.append(f"[{sec.name}]: needs both cp and cs")
                return None
            return material_from_speeds(rho, cp, cs)
        if lame:
            if lam is None or mu is None:
                violations.append(f"[{sec.name}]: needs both lam and mu")
                return None
            return material_from_lame(rho, lam, mu)
    except Exception as exc:  # invalid parameter combinations
        violations.append(f"[{sec.name}]: {exc}")
        return None
    violations.append(f"[{sec.name}]: needs cp/cs or lam/mu")
    return None


def parse_config(text):
    """Parse and validate configuration text into a RunConfig."""
    violations = []
    notes = []
    secs = {}
    for name, entries in _tokenize(text).items():
        head, dot, _ = name.partition(".")
        if head in _NAMED_SECTIONS or head in _SECTIONS and not dot:
            secs[name] = _Section(name, entries)
        else:
            violations.append(f"unknown section [{name}]")

    def get_sec(name):
        return secs.get(name) or _Section(name, {})

    # mesh
    if "mesh" not in secs:
        violations.append("missing [mesh] section")
    mesh = get_sec("mesh")
    dim = mesh.integer("dimension", 0)
    box = []
    for name in axes_of(max(dim, 2)):
        lo, hi = mesh.num(name + "min"), mesh.num(name + "max")
        if lo is None or hi is None:
            if "mesh" in secs and dim:
                violations.append(f"[mesh]: missing {name}min/{name}max")
            box.append((0.0, 1.0))
        else:
            box.append((lo, hi))
    spacing = mesh.num("dx", 0.0)
    degree = mesh.integer("degree", 0) or 0
    if "mesh" in secs:
        if not mesh.has("dx"):
            violations.append("[mesh]: missing dx")
        if not mesh.has("degree"):
            violations.append("[mesh]: missing degree")

    # materials
    mat_secs = [s for s in secs if s == "material"
                or s.startswith("material.")]
    materials = []
    region = None
    for name in sorted(mat_secs, key=lambda s: (s != "material", s)):
        sec = secs[name]
        m = _build_material(sec, violations)
        if name != "material":
            axis = sec.word("axis")
            below = sec.num("below")
            if axis is None or below is None:
                violations.append(
                    f"[{name}]: secondary material needs axis and below")
            elif region is not None:
                violations.append("only one secondary material region"
                                  " is supported")
            else:
                region = (axis, below, len(materials))
        if m is not None:
            materials.append(m)
    if "material" not in secs:
        violations.append("missing [material] section")

    # boundary
    boundary = []
    bsec = get_sec("boundary")
    for key in list(bsec.entries):
        raw, lineno = bsec.entries[key]
        bsec.seen.add(key)
        mm = re.fullmatch(_AXIS_RE + r"\.(lo|hi)", key)
        if not mm:
            violations.append(f"[boundary]: unknown face {key!r}")
            continue
        side = -1 if mm.group(2) == "lo" else 1
        boundary.append((mm.group(1), side, _gamma_value(raw, lineno)))

    # pml
    psec = get_sec("pml")
    widths = {}
    for key in list(psec.entries):
        if key in ("tol", "d0", "alpha", "theta"):
            continue
        raw, lineno = psec.entries[key]
        psec.seen.add(key)
        mm = re.fullmatch(_AXIS_RE + r"(\.(lo|hi))?", key)
        if not mm:
            violations.append(f"[pml]: unknown key {key!r}")
            continue
        w = _quantity(raw, lineno)
        ax = mm.group(1)
        lo, hi = widths.get(ax, (0.0, 0.0))
        if mm.group(3) == "lo":
            lo = w
        elif mm.group(3) == "hi":
            hi = w
        else:
            lo = hi = w
        widths[ax] = (lo, hi)
    pml = PmlSpec(
        widths=tuple((ax, lo, hi) for ax, (lo, hi) in sorted(widths.items())),
        tol=psec.num("tol"), d0=psec.num("d0"),
        alpha=psec.num("alpha"), theta=psec.num("theta", 1.0))
    if pml.enabled and not psec.has("alpha"):
        notes.append("pml alpha defaulted to 0.15 1/s" if dim == 2
                     else "pml alpha defaulted to cp/(10*layer width)")
    if pml.enabled and not psec.has("theta"):
        notes.append("pml theta defaulted to 1")

    # time
    if "time" not in secs:
        violations.append("missing [time] section")
    tsec = get_sec("time")
    t_end = tsec.num("tend", 0.0)
    if "time" in secs and not tsec.has("tend"):
        violations.append("[time]: missing tend")
    cfl = tsec.num("cfl", 0.9)
    if "time" in secs and not tsec.has("cfl"):
        notes.append("cfl defaulted to 0.9")

    # sources
    sources = []
    for name in [s for s in secs if s == "source"
                 or s.startswith("source.")]:
        sec = secs[name]
        loc = _point(sec, dim or 2, violations, "source")
        # keys mxx, myy, ..., one per stress component
        vals = {s: sec.num("m" + s[1:], 0.0) for s in stress_names(dim or 2)}
        axes = axes_of(dim or 2)
        moment = tuple(tuple(vals[stress_name(a, b)] for b in axes)
                       for a in axes)
        stf = sec.word("stf", "")
        params = {}
        if stf == "gaussian":
            params["sigma"] = sec.num("sigma", 0.0)
            params["t0"] = sec.num("t0", 0.0)
        elif stf == "ramp":
            params["T"] = sec.num("T", 0.0)
        else:
            violations.append(
                f"[{name}]: stf must be gaussian or ramp, got {stf!r}")
        sid = name.partition(".")[2] or "source"
        if loc is not None:
            sources.append(SourceSpec(sid, loc, moment, stf,
                                      tuple(sorted(params.items()))))

    # receivers
    receivers = []
    for name in [s for s in secs if s == "receiver"
                 or s.startswith("receiver.")]:
        sec = secs[name]
        loc = _point(sec, dim or 2, violations, "receiver")
        comps = sec.word("components", "velocity")
        interval = sec.num("interval")
        rid = name.partition(".")[2] or "receiver"
        if loc is not None:
            receivers.append(ReceiverSpec(rid, loc, comps, interval))

    # initial condition
    initial = None
    if "initial" in secs:
        sec = secs["initial"]
        kind = sec.word("type", "")
        params = {}
        if kind == "velocity-gaussian":
            loc = _point(sec, dim or 2, violations, "initial center")
            params["center"] = loc
            params["halfwidth"] = sec.num("halfwidth", 0.0)
            params["amplitude"] = sec.num("amplitude", 1.0)
            comps = sec.raw("components")
            params["components"] = tuple(
                c.strip() for c in comps.split(",")) if comps else None
        elif kind == "plane-wave":
            n = tuple(sec.num("n" + a, 0.0) for a in axes_of(dim or 2))
            params["n"] = n
            params["mode"] = sec.word("mode", "P")
            params["center"] = sec.num("center", 0.0)
            params["width"] = sec.num("width", 1.0)
        else:
            violations.append(
                f"[initial]: type must be velocity-gaussian or plane-wave,"
                f" got {kind!r}")
        initial = InitialSpec(kind, tuple(sorted(params.items())))

    # output
    osec = get_sec("output")
    output = OutputSpec(
        seismogram_interval=osec.num("seismogram_interval"),
        series_interval=osec.num("series_interval"),
        snapshot_interval=osec.num("snapshot_interval"),
        snapshot_format=osec.word("snapshot_format", "binary"))

    for name, sec in secs.items():
        for k in sec.unknown_keys():
            violations.append(f"[{name}]: unknown key {k!r}")

    cfg = RunConfig(
        dimension=dim, box=tuple(box), spacing=spacing, degree=degree,
        cfl=cfl, t_end=t_end, materials=tuple(materials), region=region,
        boundary=tuple(boundary), pml=pml, sources=tuple(sources),
        receivers=tuple(receivers), initial=initial, output=output,
        notes=tuple(notes))
    violations.extend(validate(cfg))
    if violations:
        raise ValidationError("\n".join(dict.fromkeys(violations)))
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


def validate(cfg):
    """All invariant violations for a config, as a list of messages."""
    v = [f"{path} must be finite, got {x}" for f in dataclasses.fields(cfg)
         for path, x in _non_finite(getattr(cfg, f.name), f.name)]
    if cfg.dimension not in (2, 3):
        v.append(f"dimension must be 2 or 3, got {cfg.dimension}")
        return v  # nothing downstream is meaningful
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
        n = (hi - lo) / cfg.spacing
        if abs(n - round(n)) > 1e-6 * max(1.0, n) or round(n) < 1:
            v.append(f"{ax} extent {hi - lo} is not a whole number"
                     f" of elements of size {cfg.spacing}")
    if not 1 <= cfg.degree <= MAX_DEGREE:
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
        elif not (idx < len(cfg.materials)):
            v.append(f"region material index {idx} out of range")
        else:
            lo, hi = cfg.box[axes.index(axis)]
            if threshold <= lo + 0.5 * cfg.spacing:
                v.append("region threshold selects no elements")

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
                k = w / cfg.spacing
                if abs(k - round(k)) > 1e-6 * max(1.0, k) or round(k) < 1:
                    v.append(f"pml {ax}.{label} width {w} is not a whole"
                             f" number of elements of size {cfg.spacing}")
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
        if len(s.location) != cfg.dimension:
            v.append(f"source {s.sid}: location is not"
                     f" {cfg.dimension}-dimensional")
        elif not _inside(s.location, cfg.box):
            v.append(f"source {s.sid}: location {s.location} outside"
                     f" the box")
        params = dict(s.stf_params)
        if s.stf == "gaussian" and params.get("sigma", 0.0) <= 0.0:
            v.append(f"source {s.sid}: gaussian sigma must be positive")
        if s.stf == "ramp" and params.get("T", 0.0) <= 0.0:
            v.append(f"source {s.sid}: ramp T must be positive")

    for r in cfg.receivers:
        if len(r.location) != cfg.dimension:
            v.append(f"receiver {r.rid}: location is not"
                     f" {cfg.dimension}-dimensional")
        elif not _inside(r.location, cfg.box):
            v.append(f"receiver {r.rid}: location {r.location} outside"
                     f" the box")
        if r.components not in ("velocity", "all"):
            v.append(f"receiver {r.rid}: components must be velocity"
                     f" or all")
        if r.interval is not None and not 0.0 < r.interval < math.inf:
            v.append(f"receiver {r.rid}: interval must be positive"
                     f" and finite")

    ini = cfg.initial
    if ini is not None and ini.kind == "velocity-gaussian":
        center = ini.get("center")
        if center is not None and not _inside(center, cfg.box):
            v.append(f"initial center {center} outside the box")
        if (ini.get("halfwidth") or 0.0) <= 0.0:
            v.append("initial halfwidth must be positive")
        names = velocity_names(cfg.dimension)
        for c in ini.get("components") or ():
            if c not in names:
                v.append(f"initial component {c!r} not valid in"
                         f" {cfg.dimension}D (expected one of"
                         f" {', '.join(names)})")
    if ini is not None and ini.kind == "plane-wave":
        n = ini.get("n", ())
        if not any(x != 0.0 for x in n):
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
    violations = validate(cfg)
    if violations:
        raise ValidationError("\n".join(violations))
    return cfg
