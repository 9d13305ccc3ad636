"""Config parsing, presets, experiment drivers, CLI."""

import copy
import gc
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import elastowave
from elastowave.errors import (
    DegenerateError,
    ParseError,
    UnknownPreset,
    ValidationError,
)
from elastowave.harness import cli
from elastowave.harness import config as cf
from elastowave.harness import experiments as xp
from elastowave.harness import presets as ps
from elastowave.harness.config import OutputSpec, finalize, parse_config
from elastowave.mesh import build_mesh
from elastowave.operators import build_operators
from elastowave.physics import material_from_lame
from elastowave.pml import build_damping, interior_box

KM = 1000.0

STRIP_TEXT = """\
# vertical strip with side layers
[mesh]
dimension = 2
xmin = -60 km
xmax = 60 km
ymin = 0 km
ymax = 50 km
dx = 5 km
degree = 5

[material]
rho = 2.7 g/cm3
cp = 6 km/s
cs = 3.464 km/s

[boundary]
x.lo = absorbing
x.hi = absorbing
y.lo = free
y.hi = absorbing

[pml]
x = 10 km
tol = 1e-6
alpha = 0.15
theta = 1

[time]
tend = 100
cfl = 0.9

[initial]
type = velocity-gaussian
x = 0
y = 25 km
halfwidth = 3 km

[receiver.probe]
x = 25 km
y = 25 km
interval = 0.1
"""

TINY_TEXT = """\
[mesh]
dimension = 2
xmin = -12 km
xmax = 12 km
ymin = 0
ymax = 10 km
dx = 2 km
degree = 2

[material]
rho = 2.7 g/cm3
cp = 6 km/s
cs = 3.464 km/s

[boundary]
x.lo = absorbing
x.hi = absorbing
y.lo = free
y.hi = absorbing

[pml]
x = 4 km
tol = 1e-4

[time]
tend = 0.5

[initial]
type = velocity-gaussian
x = 0
y = 5 km
halfwidth = 1.5 km

[receiver.mid]
x = 2 km
y = 5 km
interval = 0.1
"""


def _interior(cfg):
    """cfg's box without its layers, as the layers are built: [lo, hi]."""
    return [b.tolist() for b in interior_box(*zip(*cfg.box),
                                             cfg.pml.width_map())]


# ---------------------------------------------------------------- parsing

def test_parse_strip_text():
    cfg = parse_config(STRIP_TEXT)
    assert cfg.dimension == 2
    assert cfg.box == ((-60 * KM, 60 * KM), (0.0, 50 * KM))
    assert cfg.spacing == 5 * KM
    assert cfg.degree == 5
    assert cfg.counts() == (24, 10)
    mat = cfg.materials[0]
    assert mat.rho == 2700.0
    assert mat.cp == pytest.approx(6000.0)
    assert mat.cs == pytest.approx(3464.0)
    assert cfg.boundary_map() == {("x", -1): 0.0, ("x", 1): 0.0,
                                  ("y", -1): 1.0, ("y", 1): 0.0}
    assert cfg.pml.width_map() == {"x": (10 * KM, 10 * KM)}
    assert cfg.pml.tol == 1e-6
    assert cfg.pml.alpha == 0.15
    assert cfg.pml.theta == 1.0
    assert _interior(cfg) == [[-50 * KM, 0.0], [50 * KM, 50 * KM]]
    assert cfg.t_end == 100.0 and cfg.cfl == 0.9
    assert cfg.receivers[0].rid == "probe"
    assert cfg.receivers[0].location == (25 * KM, 25 * KM)
    assert cfg.receivers[0].interval == 0.1
    ini = cfg.initial
    assert ini.kind == "velocity-gaussian"
    assert ini.get("center") == (0.0, 25 * KM)
    assert ini.get("halfwidth") == 3 * KM
    assert [key for key, _ in ini.params] == ["center", "halfwidth"]
    assert cfg.notes == ()  # everything was given explicitly


SPEEDS = "cp = 6 km/s\ncs = 3.464 km/s\n"


def test_parse_lame_material():
    cfg = parse_config(STRIP_TEXT.replace(SPEEDS,
                                          "lam = 32.4 GPa\nmu = 32.4 GPa\n"))
    assert cfg.materials == (material_from_lame(2700.0, 32.4e9, 32.4e9),)
    assert cfg.materials[0].cp == pytest.approx(6000.0, rel=1e-15)


def test_parsed_text_matches_preset():
    # the text above and the canned strip configuration agree
    cfg = parse_config(STRIP_TEXT)
    pre = ps.preset("strip2d")
    assert cfg.box == pre.box
    assert cfg.spacing == pre.spacing
    assert cfg.degree == pre.degree
    assert (cfg.cfl, cfg.t_end) == (pre.cfl, pre.t_end)
    assert cfg.boundary_map() == pre.boundary_map()
    assert cfg.pml == pre.pml
    assert cfg.materials[0].rho == pre.materials[0].rho
    assert cfg.materials[0].lam == pytest.approx(pre.materials[0].lam)
    assert cfg.initial == pre.initial
    assert cfg.receivers == pre.receivers


PLANE_WAVE_TEXT = STRIP_TEXT.replace(
    "type = velocity-gaussian\nx = 0\ny = 25 km\nhalfwidth = 3 km",
    "type = plane-wave\nnx = 1\nny = 0\nmode = P\ncenter = 3 km\n"
    "width = 2 km")


def test_parse_plane_wave_initial():
    cfg = parse_config(PLANE_WAVE_TEXT)
    ini = cfg.initial
    assert ini.kind == "plane-wave"
    assert ini.get("n") == (1.0, 0.0)
    assert ini.get("mode") == "P"
    assert ini.get("center") == 3 * KM
    assert ini.get("width") == 2 * KM


def test_plane_wave_initial_rejects_layered_medium():
    text = PLANE_WAVE_TEXT.replace(
        "[boundary]",
        "[material.soft]\nrho = 2.6 g/cm3\ncp = 4 km/s\ncs = 2 km/s\n"
        "axis = y\nbelow = 20 km\n\n[boundary]")
    with pytest.raises(ValidationError, match="plane-wave needs a homogeneous"):
        parse_config(text)


def test_unit_table():
    assert cf._quantity("2.7 g/cm3", 1, "density") == 2700.0
    assert cf._quantity("32.4 GPa", 1, "stress") == 32.4e9
    assert cf._quantity("3.464 km/s", 1, "speed") == 3464.0
    assert cf._quantity("-1.5e-2", 1, "length") == -0.015


SOURCE_TEXT = ("\n[source.s]\nx = 0\ny = 25 km\nmxx = 1\nstf = gaussian\n"
               "sigma = 0.1\nt0 = 0.5\n")


@pytest.mark.parametrize("old, new, quantity", [
    ("dx = 5 km", "dx = 5 s", "length"),
    ("halfwidth = 3 km", "halfwidth = 3 km2", "length"),
    ("tend = 100", "tend = 100 km", "time"),
    ("interval = 0.1", "interval = 0.1 km", "time"),
    ("cp = 6 km/s", "cp = 6 km", "speed"),
    ("rho = 2.7 g/cm3", "rho = 2.7 GPa", "density"),
    ("cs = 3.464 km/s", "mu = 32 km/s", "stress"),
    ("mxx = 1", "mxx = 1 GPa", "moment"),
    ("alpha = 0.15", "alpha = 0.15 s", "rate"),
], ids=["length", "area", "time", "interval", "speed", "density", "stress",
        "moment", "rate"])
def test_keys_take_units_of_their_quantity(old, new, quantity):
    # any known tag was taken on any key: tend = 100 km read as 100,000 s,
    # rho = 2.7 GPa as 2.7e9 kg/m3, and halfwidth = 3 km2 as 3e6 m
    text = (STRIP_TEXT + SOURCE_TEXT).replace(old, new)
    line = text.splitlines().index(new) + 1
    with pytest.raises(ParseError, match=f"line {line}: '.+' is not a unit"
                                         f" of {quantity}"):
        parse_config(text)


def test_parse_error_unknown_unit():
    with pytest.raises(ParseError, match="line 3.*parsec"):
        parse_config("[mesh]\ndimension = 2\ndx = 5 parsec\n")


def test_parse_error_duplicate_key():
    with pytest.raises(ParseError, match="line 3.*duplicate key"):
        parse_config("[time]\ntend = 1\ntend = 2\n")


def test_parse_error_duplicate_section():
    with pytest.raises(ParseError, match="line 2.*duplicate section"):
        parse_config("[mesh]\n[mesh]\n")


def test_parse_error_malformed_header():
    with pytest.raises(ParseError, match="line 1.*malformed"):
        parse_config("[mesh\ndimension = 2\n")


def test_parse_error_key_before_section():
    with pytest.raises(ParseError, match="line 1.*before any section"):
        parse_config("tend = 1\n")


def test_parse_error_missing_equals():
    with pytest.raises(ParseError, match="line 2.*key = value"):
        parse_config("[mesh]\ndimension\n")


@pytest.mark.parametrize("old, new, cause", [
    ("[mesh]", "[mesh!]", "line 2: bad section name 'mesh!'"),
    ("degree = 5", "degree =", "line 9: empty key or value"),
], ids=["section-name", "empty-value"])
def test_parse_error_in_a_line(old, new, cause):
    with pytest.raises(ParseError, match=f"^{re.escape(cause)}$"):
        parse_config(STRIP_TEXT.replace(old, new))


def test_parse_error_non_numeric():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("[mesh]\ndimension = two\n")


@pytest.mark.parametrize("old, new, line", [
    ("dimension = 2", "dimension = 1e999", 3),
    ("xmax = 60 km", "xmax = 1e999", 5),
    ("rho = 2.7 g/cm3", "rho = 1e306 g/cm3", 12),
])
def test_parse_error_non_finite(old, new, line):
    with pytest.raises(ParseError, match=f"line {line}: .* must be finite"):
        parse_config(STRIP_TEXT.replace(old, new))


def test_validation_region_axis_is_an_axis_name():
    text = STRIP_TEXT + ("\n[material.lower]\nrho = 2.6 g/cm3\ncp = 4 km/s\n"
                         "cs = 2 km/s\naxis = xy\nbelow = 10 km\n")
    with pytest.raises(ValidationError,
                       match="region axis 'xy' not valid in 2D"):
        parse_config(text)


def test_boundary_words():
    cfg = parse_config(STRIP_TEXT.replace("y.hi = absorbing",
                                          "y.hi = clamped"))
    assert cfg.boundary_map()[("y", 1)] == -1.0
    with pytest.raises(ParseError,
                       match="must be free, absorbing, clamped or numeric"):
        parse_config(STRIP_TEXT.replace("y.hi = absorbing", "y.hi = rigid"))


def test_validation_lists_every_violation():
    bad = (STRIP_TEXT
           .replace("degree = 5", "degree = 99")
           .replace("y.lo = free", "y.lo = 1.5")
           .replace("tol = 1e-6", "tol = 1.5"))
    with pytest.raises(ValidationError) as ei:
        parse_config(bad)
    msg = str(ei.value)
    assert "degree must lie in [1, 16]" in msg
    assert "|gamma| must not exceed 1" in msg
    assert "tol must lie in (0, 1)" in msg


def test_validation_pml_without_damping():
    bad = STRIP_TEXT.replace("tol = 1e-6\n", "")
    with pytest.raises(ValidationError, match="neither tol nor d0"):
        parse_config(bad)


def test_validation_tol_and_d0_exclusive():
    bad = STRIP_TEXT.replace("tol = 1e-6", "tol = 1e-6\nd0 = 16.58")
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(bad)


def test_validation_ragged_box():
    bad = STRIP_TEXT.replace("xmax = 60 km", "xmax = 61 km")
    with pytest.raises(ValidationError, match="whole number of elements"):
        parse_config(bad)


def test_validation_receiver_outside():
    bad = STRIP_TEXT.replace("x = 25 km\ny = 25 km", "x = 25 km\ny = 95 km")
    with pytest.raises(ValidationError, match="probe.*outside"):
        parse_config(bad)


def test_validation_rejects_nan_in_programmatic_configs():
    # the parser rejects non-finite numbers; a config built in code skips it
    nan = float("nan")
    cfg = ps.preset("strip2d")
    bad = replace(
        cfg, boundary=cfg.boundary[:-1] + (("y", 1, (0.0, nan)),),
        receivers=(replace(cfg.receivers[0], interval=nan),),
        output=replace(cfg.output, snapshot_interval=nan))
    msg = "\n".join(cf.validate(bad))
    assert "boundary[3][2][1] must be finite, got nan" in msg
    assert "receivers[0].interval must be finite, got nan" in msg
    assert "output.snapshot_interval must be finite, got nan" in msg


def test_unknown_section_and_key():
    bad = STRIP_TEXT + "\n[magic]\nx = 1\n"
    with pytest.raises(ValidationError, match=r"unknown section \[magic\]"):
        parse_config(bad)
    bad = STRIP_TEXT.replace("degree = 5", "degree = 5\nfrobnicate = 1")
    with pytest.raises(ValidationError, match="unknown key 'frobnicate'"):
        parse_config(bad)


def _replace_param(params, key, value):
    return tuple((k, value if k == key else x) for k, x in params)


def _non_finite_cases():
    nan, inf = float("nan"), float("inf")
    strip, wave = ps.preset("strip2d"), ps.preset("planewave")
    hws = ps.preset("hws3d", elements=10)
    src, pml = hws.sources[0], strip.pml
    yield "pml.alpha", replace(strip, pml=replace(pml, alpha=nan))
    yield "pml.alpha", replace(strip, pml=replace(pml, alpha=inf))
    yield "pml.d0", replace(strip, pml=replace(pml, tol=None, d0=nan))
    yield "pml.d0", replace(strip, pml=replace(pml, tol=None, d0=inf))
    yield "pml.widths[0][2]", replace(strip,
                                      pml=replace(pml, widths=(("x", 0, inf),)))
    for key in ("sigma", "t0"):
        yield f"sources[0].stf_params.{key}", replace(hws, sources=(replace(
            src, stf_params=_replace_param(src.stf_params, key, nan)),))
    yield "sources[0].moment[1][1]", replace(hws, sources=(replace(
        src, moment=(src.moment[0], (0.0, nan, 0.0), src.moment[2])),))
    yield "initial.params.halfwidth", replace(strip, initial=replace(
        strip.initial,
        params=_replace_param(strip.initial.params, "halfwidth", nan)))
    for key in ("width", "center"):
        yield f"initial.params.{key}", replace(wave, initial=replace(
            wave.initial, params=_replace_param(wave.initial.params, key, nan)))
    yield "spacing", replace(strip, spacing=nan)
    yield "box[0][1]", replace(strip, box=((-60 * KM, nan), strip.box[1]))
    yield "box[1][0]", replace(strip, box=(strip.box[0], (-inf, 50 * KM)))


@pytest.mark.parametrize("field, cfg", list(_non_finite_cases()))
def test_validation_names_non_finite_fields(field, cfg):
    # one rule for every number of a config built in code
    with pytest.raises(ValidationError, match=re.escape(field)
                       + " must be finite, got (nan|-?inf)"):
        finalize(cfg)


@pytest.mark.parametrize("dx", [float("inf"), float("nan")])
def test_non_finite_spacing_is_one_finding(dx):
    # inf also failed every grid rule on the strip, "x extent 120000.0 is
    # not a whole number of elements of size inf" and three more; nan
    # was also "dx must be positive"
    with pytest.raises(ValidationError) as ei:
        finalize(replace(ps.preset("strip2d"), spacing=dx))
    assert str(ei.value) == f"spacing must be finite, got {dx}"


def _float_leaves(value, rebuild, path):
    """(path, float, rebuild) for each float in a config value:
    rebuild(x) is the config with x in its place.  Paths follow
    validate's finiteness rule but for (key, value) pairs, which go by
    index."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _float_leaves(
                getattr(value, f.name),
                lambda x, f=f: rebuild(replace(value, **{f.name: x})),
                f"{path}.{f.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _float_leaves(
                item, lambda x, i=i: rebuild(value[:i] + (x,) + value[i + 1:]),
                f"{path}[{i}]")
    elif isinstance(value, float):
        yield path, value, rebuild


def _every_number(name):
    """The preset, and for the strip every optional number set too:
    d0 in place of tol and the snapshot interval."""
    cfg = ps.preset(name)
    if name == "strip2d":
        cfg = replace(cfg, pml=replace(cfg.pml, tol=None, d0=0.05),
                      output=replace(cfg.output, snapshot_interval=0.5))
    return cfg


@pytest.mark.parametrize("name", ["strip2d", "hws3d", "planewave"])
def test_every_non_finite_number_is_one_finding(name):
    # each float of a preset (the strip with its snapshot interval set
    # and d0 in place of tol) set to nan, inf and -inf in turn: the
    # finiteness rule names it and no range rule does.  t_end = inf also
    # gave "tend must be positive and finite", cfl = nan "cfl must lie in
    # (0, 1]", a NaN gamma "|gamma| must not exceed 1", a non-finite box
    # side "pml layers on x leave no interior" and "location ... outside
    # the box" for every point, and the same held for theta, tol, d0,
    # alpha, the intervals, the widths and the source and initial widths
    twice = []
    for path, _, rebuild in _float_leaves(_every_number(name), lambda c: c,
                                          "cfg"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            found = cf.validate(rebuild(bad))
            if len(found) != 1 or "must be finite, got" not in found[0]:
                twice.append((path, bad, found))
    assert not twice


@pytest.mark.parametrize("name", ["strip2d", "hws3d", "planewave"])
def test_every_text_number_is_one_finding(name):
    # each float of a preset (as above) outside its materials, given as
    # text: exactly one finding, which names the text.  A text halfwidth,
    # source sigma, plane-wave width or coordinate made validate itself
    # raise TypeError, and a text t0, moment entry, direction entry or
    # plane-wave centre passed
    wrong = []
    for path, x, rebuild in _float_leaves(_every_number(name), lambda c: c,
                                          "cfg"):
        if not path.startswith("cfg.materials"):
            found = cf.validate(rebuild(str(x)))
            if len(found) != 1 or repr(str(x)) not in found[0]:
                wrong.append((path, found))
    assert not wrong


SOFT_TEXT = ("\n[material.soft]\nrho = 2.6 g/cm3\ncp = 4 km/s\ncs = 2 km/s\n"
             "axis = y\nbelow = 10 km\n")


@pytest.mark.parametrize("text, messages", [
    (STRIP_TEXT.replace("[material]\n",
                        "[material]\nfrobnicate = 3\ncp_typo = 3\n"),
     ["[material]: unknown key 'frobnicate'",
      "[material]: unknown key 'cp_typo'"]),
    (STRIP_TEXT + SOFT_TEXT + "bogus = 7\n",
     ["[material.soft]: unknown key 'bogus'"]),
    (STRIP_TEXT + "\n[mesh.extra]\n", ["unknown section [mesh.extra]"]),
    (STRIP_TEXT + "components = velocity\n",
     ["[receiver.probe]: unknown key 'components'"]),
    # settings of earlier versions, each read nowhere
    (STRIP_TEXT + "\n[output]\nsnapshot_format = csv\n"
     "seismogram_interval = 0.1\nseries_interval = 0.5\n",
     ["[output]: unknown key 'snapshot_format'",
      "[output]: unknown key 'seismogram_interval'",
      "[output]: unknown key 'series_interval'"]),
    (STRIP_TEXT.replace("halfwidth = 3 km\n", "halfwidth = 3 km\n"
                        "components = vx, vy\namplitude = 2 m/s\n"),
     ["[initial]: unknown key 'components'",
      "[initial]: unknown key 'amplitude'"]),
], ids=["material", "material.soft", "mesh.extra", "receiver.probe",
        "output-removed", "initial-removed"])
def test_unknown_keys_in_every_section(text, messages):
    with pytest.raises(ValidationError) as ei:
        parse_config(text)
    for line in messages:
        assert line in str(ei.value)


def test_material_rejects_lame_pair_beside_speeds():
    text = STRIP_TEXT.replace("[material]\n", "[material]\nlam = 5\nmu = 1\n")
    with pytest.raises(ValidationError,
                       match=r"\[material\]: give cp/cs or lam/mu, not both"):
        parse_config(text)


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_pml_rejects_axis_given_whole_and_by_side(side):
    # the later key used to win: x.lo = 5 km then x = 10 km gave (10, 10)
    text = STRIP_TEXT.replace("[pml]\nx = 10 km\n",
                              f"[pml]\nx.{side} = 5 km\nx = 10 km\n")
    with pytest.raises(ValidationError,
                       match=r"\[pml\]: give x or x.lo/x.hi, not both"):
        parse_config(text)


def test_default_notes_recorded():
    text = TINY_TEXT  # has no cfl, no alpha
    cfg = parse_config(text)
    assert any("cfl defaulted to 0.9" in n for n in cfg.notes)
    assert any("alpha defaulted to 0.15" in n for n in cfg.notes)
    # in 3D the default follows from the layer's width
    text3d = (text.replace("dimension = 2", "dimension = 3")
              .replace("ymax = 10 km\n", "ymax = 10 km\nzmin = 0\n"
                       "zmax = 10 km\n")
              .replace("y = 5 km\n", "y = 5 km\nz = 5 km\n"))
    cfg = parse_config(text3d)
    assert cfg.pml.alpha is None
    assert "pml alpha defaulted to cp/(10*layer width)" in cfg.notes


def _without_section(text, name):
    return re.sub(r"\[" + re.escape(name) + r"\]\n(.+\n)+", "", text)


@pytest.mark.parametrize("text, cause", [
    (STRIP_TEXT.replace("dx = 5 km\n", ""), "[mesh]: missing dx"),
    (STRIP_TEXT.replace("degree = 5\n", ""), "[mesh]: missing degree"),
    (STRIP_TEXT.replace("tend = 100\n", ""), "[time]: missing tend"),
    (_without_section(STRIP_TEXT, "time"), "missing [time] section"),
    (_without_section(STRIP_TEXT, "mesh"), "missing [mesh] section"),
    (_without_section(STRIP_TEXT, "material"), "missing [material] section"),
    (STRIP_TEXT.replace("rho = 2.7 g/cm3\n", ""), "[material]: missing rho"),
    (STRIP_TEXT.replace("xmax = 60 km\n", ""), "[mesh]: missing xmax"),
    (STRIP_TEXT.replace("dimension = 2", "dimension = 4"),
     "dimension must be 2 or 3, got 4"),
    (STRIP_TEXT + "\n[material.b]\nrho = 2.6 g/cm3\ncp = 4 km/s\n"
     "cs = 2 km/s\n",
     "[material.b]: secondary material needs axis and below"),
    # an unknown kind's parameters were each an "unknown key" as well
    (STRIP_TEXT + "\n[source.s]\nx = 0\ny = 25 km\nmxx = 1\n"
     "stf = boxcar\nsigma = 0.1\nt0 = 0.5\n",
     "source s: stf must be gaussian or ramp, got 'boxcar'"),
    (STRIP_TEXT.replace("type = velocity-gaussian", "type = spike"),
     "initial type must be velocity-gaussian or plane-wave, got 'spike'"),
    (STRIP_TEXT.replace("cs = 3.464 km/s\n", ""),
     "[material]: needs both cp and cs"),
    (STRIP_TEXT.replace(SPEEDS, "lam = 32.4 GPa\n"),
     "[material]: needs both lam and mu"),
    (STRIP_TEXT.replace(SPEEDS, ""), "[material]: needs cp/cs or lam/mu"),
    (STRIP_TEXT.replace("cs = 3.464 km/s", "cs = 7 km/s"),
     "[material]: need mu > 0 and lambda > -mu, got lambda=-167400000000.0,"
     " mu=132300000000.0"),
    (STRIP_TEXT + SOFT_TEXT + SOFT_TEXT.replace("soft", "softer"),
     "only one secondary material region is supported"),
], ids=["dx", "degree", "tend", "time", "mesh", "material", "rho", "xmax",
        "dimension", "material.b", "stf", "initial-type", "cp-alone",
        "lam-alone", "no-moduli", "cs-above-cp", "two-secondary"])
def test_each_cause_reported_once(text, cause):
    # each came with 1-3 follow-on findings, most about stand-in values
    with pytest.raises(ValidationError) as ei:
        parse_config(text)
    assert str(ei.value) == cause


@pytest.mark.parametrize("old, new, line", [
    ("degree = 5", "degree = 5 s", 9),
    ("dimension = 2", "dimension = 2 km", 3),
    ("tol = 1e-6", "tol = 1e-9 km", 24),
    ("theta = 1", "theta = 1 s", 26),
    ("cfl = 0.9", "cfl = 0.9 s", 30),
])
def test_dimensionless_keys_take_bare_numbers(old, new, line):
    # degree = 5 s read as 5, dimension = 2 km as 2000
    with pytest.raises(ParseError,
                       match=f"line {line}: expected a bare number"):
        parse_config(STRIP_TEXT.replace(old, new))
    cfg = parse_config(STRIP_TEXT.replace("interval = 0.1",
                                          "interval = 0.1 s"))
    assert cfg.spacing == 5 * KM and cfg.receivers[0].interval == 0.1


def _code_built_cases():
    """(id, cause, config) for each config built in code that broke a
    rule of the config file and was let through or crashed validate."""
    strip, hws = ps.preset("strip2d"), ps.preset("hws3d", elements=4)
    wave = ps.planewave_config(dim=3, elements=4, degree=1)
    yield "stf", "stf must be gaussian or ramp, got 'boxcar'", replace(
        hws, sources=(replace(hws.sources[0], stf="boxcar"),))
    yield "initial-type", ("initial type must be velocity-gaussian or"
                           " plane-wave, got 'spike'"), replace(
        strip, initial=cf.InitialSpec("spike", ()))
    yield "plane-wave-n", "plane-wave direction n has 2 entries in 3D", \
        replace(wave, initial=replace(wave.initial, params=_replace_param(
            wave.initial.params, "n", (1.0, 0.0))))
    yield "gaussian-center", "initial center is not 3-dimensional", replace(
        hws, initial=cf.InitialSpec("velocity-gaussian", (
            ("center", (5 * KM, 5 * KM)), ("halfwidth", 1 * KM))))
    src = hws.sources[0]
    yield "stf-params", f"source {src.sid}: gaussian stf needs t0", replace(
        hws, sources=(replace(src, stf_params=(("sigma", 0.1),)),))
    yield "degree", "degree must be an integer, got 2.0", replace(
        strip, degree=2.0)
    yield "dimension", "dimension must be an integer, got 2.0", replace(
        strip, dimension=2.0)
    loh = ps.preset("loh1", elements=9, degree=1, tend=0.1)
    yield "region-threshold", ("region threshold must be a finite number,"
                               " got None"), replace(
        loh, region=("x", None, 1))
    for key, idx in (("negative", -1), ("fractional", 1.5)):
        yield f"region-{key}-index", ("region material index must be an"
                                      f" integer in [0, 2), got {idx}"), \
            replace(loh, region=("x", 1000.0, idx))
    for key, region in (("pair", ("x", 1000.0)),
                        ("quadruple", ("x", 1000.0, 1, 2)), ("string", "x")):
        yield f"region-{key}", ("region must be (axis, threshold, material"
                                f" index), got {region!r}"), replace(
            loh, region=region)
    yield "pml-axis-twice", "pml axis x: given 2 times; give each axis once", \
        replace(strip, pml=replace(strip.pml, widths=strip.pml.widths + (
            ("x", 20 * KM, 20 * KM),)))
    yield "boundary-face-twice", ("boundary y.lo: given 2 times; give each"
                                  " face once"), replace(
        strip, boundary=strip.boundary + (("y", -1, 0.0),))
    small = ps.preset("strip2d", elements=10, degree=2, tend=1)
    yield "boundary-pair", ("boundary[0] must be (axis, side, gamma), got"
                            " ('x', -1)"), replace(
        small, boundary=(("x", -1),) + small.boundary[1:])
    yield "pml-width-pair", ("pml.widths[0] must be (axis, lo, hi), got"
                             " ('x', 10000.0)"), replace(
        small, pml=replace(small.pml, widths=(("x", 1e4),)))
    yield "box-side", "box[1] must be (lo, hi), got (0.0,)", replace(
        small, box=(small.box[0], (0.0,)))
    yield "spacing-text", "dx must be positive, got '5'", replace(
        small, spacing="5")
    yield "tend-none", "tend must be positive and finite, got None", replace(
        small, t_end=None)
    yield "cfl-none", "cfl must lie in (0, 1], got None", replace(
        small, cfl=None)
    yield "theta-none", "pml theta must lie in [0, 1], got None", replace(
        small, pml=replace(small.pml, theta=None))
    yield "gamma-word", ("boundary y.lo: |gamma| must not exceed 1, got"
                         " 'free'"), replace(small, boundary=tuple(
            (ax, side, "free" if (ax, side) == ("y", -1) else g)
            for ax, side, g in small.boundary))
    yield "tol-text", "pml tol must lie in (0, 1), got '1e-6'", replace(
        small, pml=replace(small.pml, tol="1e-6"))
    yield "pml-width-text", ("pml x.lo width must be nonnegative, got"
                             " '10 km'"), replace(small, pml=replace(
        small.pml, widths=(("x", "10 km", 1e4),)))
    yield "box-text", ("box[0] must be numbers (lo, hi), got ('0',"
                       " 50000.0)"), replace(small, box=(("0", 5e4),
                                                         small.box[1]))
    yield "d0-text", "pml d0 must be nonnegative, got '16'", replace(
        small, pml=replace(small.pml, tol=None, d0="16"))
    yield "receiver-interval-text", ("receiver probe: interval must be"
                                     " positive and finite"), replace(
        small, receivers=(replace(small.receivers[0], interval="0.5"),))
    yield "halfwidth-text", ("initial halfwidth must be positive and finite,"
                             " got '3 km'"), replace(
        small, initial=replace(small.initial, params=_replace_param(
            small.initial.params, "halfwidth", "3 km")))
    yield "receiver-location-text", ("receiver probe: location y must be a"
                                     " finite number, got '25 km'"), replace(
        small, receivers=(replace(small.receivers[0],
                                  location=(25 * KM, "25 km")),))
    yield "source-location-text", (f"source {src.sid}: location x must be a"
                                   " finite number, got '3 km'"), replace(
        hws, sources=(replace(src, location=("3 km",) + src.location[1:]),))
    yield "moment-text", (f"source {src.sid}: moment[0][0] must be a finite"
                          " number, got '1e18'"), replace(
        hws, sources=(replace(src, moment=(("1e18",) + src.moment[0][1:],)
                              + src.moment[1:]),))
    for key, text in (("sigma", "0.1"), ("t0", "0.7")):
        phrase = "be positive and finite" if key == "sigma" else \
            "be a finite number"
        yield f"{key}-text", (f"source {src.sid}: gaussian {key} must"
                              f" {phrase}, got {text!r}"), replace(
            hws, sources=(replace(src, stf_params=_replace_param(
                src.stf_params, key, text)),))
    yield "plane-wave-width-text", ("initial plane-wave width must be"
                                    " positive and finite, got '2'"), replace(
        wave, initial=replace(wave.initial, params=_replace_param(
            wave.initial.params, "width", "2")))
    yield "moment-flat", (f"source {src.sid}: moment must be 3 rows of 3"
                          " numbers, got (1e+18, 0.0, 0.0)"), replace(
        hws, sources=(replace(src, moment=src.moment[0]),))
    yield "boundary-side-text", "boundary y side must be -1 or 1, got 'lo'", \
        replace(small, boundary=small.boundary[:2] + (("y", "lo", 1.0),)
                + small.boundary[3:])
    flat = ps.preset("planewave")
    yield "plane-wave-n-text", ("initial plane-wave direction nx must be a"
                                " finite number, got '0'"), replace(
        flat, initial=replace(flat.initial, params=_replace_param(
            flat.initial.params, "n", ("0", "0"))))
    yield "sources-text", "sources must be a tuple, got 'text'", replace(
        small, sources="text")
    yield "receivers-number", ("receivers[0] must be of type ReceiverSpec,"
                               " got 1.0"), replace(small, receivers=(1.0,))
    yield "box-none", ("box must be a tuple of (lo, hi) per axis, got"
                       " None"), replace(small, box=None)
    yield "boundary-none", "boundary must be a tuple, got None", replace(
        small, boundary=None)
    yield "initial-params-dict", ("initial params must be a tuple, got"
                                  " {'halfwidth': 3000.0}"), replace(
        small, initial=replace(small.initial, params={"halfwidth": 3e3}))
    yield "initial-params-flat", ("initial params[0] must be a (key, value)"
                                  " pair, got 'halfwidth'"), replace(
        small, initial=replace(small.initial, params=("halfwidth",)))
    yield "receiver-name-path", ("receiver name must be nonempty text"
                                 " without '/' or NUL, got '../escape'"), \
        replace(small, receivers=(replace(small.receivers[0],
                                          rid="../escape"),))
    yield "pml-none", "pml must be of type PmlSpec, got None", replace(
        small, pml=None)
    yield "output-text", ("output must be of type OutputSpec, got"
                          " 'csv'"), replace(small, output="csv")
    yield "initial-number", ("initial must be of type InitialSpec, got"
                             " 1.0"), replace(small, initial=1.0)
    yield "stf-list", ("stf must be gaussian or ramp, got ['gaussian']"), \
        replace(hws, sources=(replace(src, stf=["gaussian"]),))
    yield "box-axes", "box has 3 axes for dimension 2", replace(
        small, box=small.box + ((0.0, 5e4),))
    yield "extent-empty", "y extent [50000.0, 0.0] is empty", replace(
        small, box=(small.box[0], (5e4, 0.0)))
    yield "no-materials", "no materials defined", replace(
        small, materials=())
    yield "region-none", ("secondary material defined without a region"
                          " rule"), replace(loh, region=None)
    yield "region-empty", "region threshold selects no elements", replace(
        loh, region=("x", 0.0, 1))
    yield "gamma-triple", "boundary x.lo: need 1 or 2 values", replace(
        small, boundary=(("x", -1, (0.0, 0.0, 0.0)),) + small.boundary[1:])
    yield "boundary-axis", "boundary face z not valid in 2D", replace(
        small, boundary=small.boundary + (("z", -1, 0.0),))
    yield "pml-axis", "pml axis z not valid in 2D", replace(
        small, pml=replace(small.pml, widths=small.pml.widths + (
            ("z", 1e4, 1e4),)))
    yield "pml-no-interior", "pml layers on x leave no interior", replace(
        small, pml=replace(small.pml, widths=(("x", 6e4, 6e4),)))
    yield "plane-wave-zero", "initial plane-wave direction is zero", replace(
        wave, initial=replace(wave.initial, params=_replace_param(
            wave.initial.params, "n", (0.0, 0.0, 0.0))))
    yield "plane-wave-mode", ("initial plane-wave mode must be P or S, got"
                              " 'Q'"), replace(wave, initial=replace(
        wave.initial, params=_replace_param(wave.initial.params, "mode",
                                            "Q")))
    yield "stf-params-flat", (f"source {src.sid}: stf_params[0] must be a"
                              " (key, value) pair, got 'sigma'"), replace(
        hws, sources=(replace(src, stf_params=("sigma",)),))


@pytest.mark.parametrize("cause, cfg", [
    pytest.param(cause, cfg, id=key)
    for key, cause, cfg in _code_built_cases()])
def test_finalize_holds_code_built_configs_to_the_file_rules(cause, cfg):
    # each passed finalize; the first three failed in build_problem with
    # a bare ValueError, the fourth ran with z dropped from the centre,
    # the fifth failed there with a bare KeyError, the sixth in
    # build_operators, with "must be in [1, 16], got 2.0", and the seventh
    # in validate itself, with "slice indices must be integers".  Of the
    # region cases, a missing threshold made validate itself raise
    # TypeError, a negative index failed in build_mesh and a fractional
    # one ran with the index truncated; a region not of three entries made
    # validate raise "not enough values to unpack" (or too many).  A
    # layer axis or a boundary face given twice ran with the last entry
    # alone, the free top of the strip turned absorbing.  The next eight
    # made validate itself raise a bare ValueError (a boundary entry, a
    # layer width or a box side of too few items) or TypeError (a dx given
    # as text, no tend, cfl or theta, a reflection value given as a word);
    # so did, with a TypeError, the next five: a layer tol, a layer width, a
    # box side, a layer d0 and a receiver interval given as text.  Of the next
    # ten, a text halfwidth, coordinate, sigma or plane-wave width made
    # validate raise TypeError; a text moment entry or t0 passed, and a text
    # direction passed the zero-direction rule and filled Q with NaN; a moment
    # of one row passed and a side given as text made validate raise
    # TypeError.  Of the next six, text sources or a number for a receiver made
    # validate raise AttributeError, no box or boundary TypeError, and initial
    # params given as a dict or not as pairs ValueError or TypeError.  A
    # receiver named "../escape" passed, and the run failed after its last
    # step, writing its seismogram.  No layer spec, text for the output spec, a
    # number for the initial condition and a list for a source's kind made
    # validate raise AttributeError or TypeError.  The last twelve pin
    # findings validate always made, which no other test reached
    with pytest.raises(ValidationError, match=re.escape(cause)):
        finalize(cfg)


def test_receiver_names_are_unique():
    # both receivers wrote seismogram_receiver.csv, the later one winning
    text = (STRIP_TEXT + "\n[receiver]\nx = 1 km\ny = 1 km\n"
            "\n[receiver.receiver]\nx = 2 km\ny = 2 km\n")
    with pytest.raises(ValidationError, match="receiver receiver: name"
                       " given to 2 receivers; names must be unique"):
        parse_config(text)
    cfg = ps.preset("strip2d")
    with pytest.raises(ValidationError, match="receiver probe: name given"
                       " to 2 receivers"):
        finalize(replace(cfg, receivers=cfg.receivers * 2))


def test_readme_config_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    cfgs = [parse_config(block) for block in blocks]
    # the first is the strip example, the strip2d benchmark's set-up
    pre = ps.preset("strip2d")
    assert cfgs[0].box == pre.box and cfgs[0].spacing == pre.spacing
    assert cfgs[0].pml.widths == pre.pml.widths
    assert cfgs[0].boundary_map() == pre.boundary_map()


# ---------------------------------------------------------------- presets

def test_strip2d_parameters():
    cfg = ps.preset("strip2d")
    assert cfg.dimension == 2
    assert _interior(cfg) == [[-50 * KM, 0.0], [50 * KM, 50 * KM]]
    assert cfg.spacing == 5 * KM and cfg.degree == 5
    assert cfg.cfl == 0.9 and cfg.t_end == 100.0
    m = cfg.materials[0]
    assert (m.rho, m.cp, m.cs) == (2700.0, pytest.approx(6000.0),
                                   pytest.approx(3464.0))
    assert cfg.boundary_map()[("y", -1)] == 1.0  # free surface on top
    assert cfg.boundary_map()[("y", 1)] == 0.0
    assert cfg.pml.width_map() == {"x": (10 * KM, 10 * KM)}
    assert (cfg.pml.tol, cfg.pml.alpha, cfg.pml.theta) == (1e-6, 0.15, 1.0)
    ini = cfg.initial
    assert ini.get("center") == (0.0, 25 * KM)
    assert ini.get("halfwidth") == 3 * KM


def test_halfplane2d_parameters():
    cfg = ps.preset("halfplane2d")
    assert cfg.box == ((-60 * KM, 60 * KM), (0.0, 60 * KM))
    assert cfg.pml.width_map() == {"x": (10 * KM, 10 * KM),
                                   "y": (0.0, 10 * KM)}
    assert _interior(cfg) == [[-50 * KM, 0.0], [50 * KM, 50 * KM]]


def test_hws3d_parameters():
    cfg = ps.preset("hws3d")
    assert cfg.dimension == 3
    assert _interior(cfg) == [[0.0, 0.0, 0.0], [10 * KM, 10 * KM, 10 * KM]]
    assert cfg.spacing == pytest.approx(400.0)  # 25 elements across
    assert cfg.counts() == (31, 31, 31)         # layers add 3 per side
    assert cfg.degree == 5 and cfg.t_end == 3.0
    m = cfg.materials[0]
    assert (m.rho, m.cp, m.cs) == (2670.0, pytest.approx(6000.0),
                                   pytest.approx(3464.0))
    assert all(g == 0.0 for g in cfg.boundary_map().values())
    assert cfg.pml.tol == 1e-3 and cfg.pml.alpha is None
    src = cfg.sources[0]
    assert src.location == (3.4 * KM, 5 * KM, 5 * KM)
    m0 = np.asarray(src.moment)
    assert np.array_equal(m0, 1e18 * np.eye(3))  # explosive
    assert src.stf == "gaussian"
    assert dict(src.stf_params) == {"sigma": 0.1149, "t0": 0.7}
    locs = [r.location for r in cfg.receivers]
    assert (4.4 * KM, 5 * KM, 5 * KM) in locs   # 1 km offset
    assert (8.4 * KM, 5 * KM, 5 * KM) in locs   # 5 km offset
    # unspecified frequency shift resolves to cp/(10 w) in the tables
    mins, maxs = zip(*cfg.box)
    mesh = build_mesh(mins, maxs, cfg.counts(), cfg.materials)
    tables = build_damping(mesh, build_operators(1, "GLL"),
                           cfg.pml.width_map(), tol=cfg.pml.tol)
    assert [t.alpha for t in tables] == pytest.approx([0.5] * 3)


def test_hhs3d_parameters():
    cfg = ps.preset("hhs3d")
    dx = 16.333 * KM / 25
    assert cfg.box == ((0.0, 16.333 * KM),
                       (-2.287 * KM, 14.046 * KM),
                       (-2.287 * KM, 14.046 * KM))
    assert cfg.spacing == pytest.approx(dx)
    assert cfg.counts() == (25, 25, 25)
    assert cfg.boundary_map()[("x", -1)] == 1.0  # free surface at x = 0
    assert cfg.pml.width_map() == {"x": (0.0, 3 * dx), "y": (3 * dx, 3 * dx),
                                   "z": (3 * dx, 3 * dx)}
    src = cfg.sources[0]
    assert src.location == (0.693 * KM, 0.0, 0.0)
    m0 = np.asarray(src.moment)
    want = np.zeros((3, 3))
    want[1, 2] = want[2, 1] = 1e18  # double couple
    assert np.array_equal(m0, want)
    assert src.stf == "ramp" and dict(src.stf_params) == {"T": 0.1}
    assert cfg.t_end == 5.0
    assert len(cfg.receivers) == 9
    assert cfg.receivers[0].location == (0.0, 0.0, 0.693 * KM)
    assert cfg.receivers[4].location == (0.0, 3.919 * KM, 3.919 * KM)
    assert all(r.location[0] == 0.0 for r in cfg.receivers)


def test_loh1_parameters():
    cfg = ps.preset("loh1")
    assert len(cfg.materials) == 2
    soft = cfg.materials[1]
    assert (soft.rho, soft.cp, soft.cs) == (2600.0, pytest.approx(4000.0),
                                            pytest.approx(2000.0))
    assert cfg.region == ("x", 1.0 * KM, 1)  # soft layer above 1 km depth
    assert cfg.sources[0].location == (2.0 * KM, 0.0, 0.0)
    assert cfg.t_end == 9.0
    assert cfg.box == ps.preset("hhs3d").box


def test_planewave_parameters():
    for dim in (2, 3):
        cfg = ps.planewave_config(dim=dim, elements=8, degree=2)
        assert cfg.dimension == dim
        assert cfg.box == ((0.0, 10.0),) * dim
        m = cfg.materials[0]
        assert (m.cp, m.cs) == (pytest.approx(2.0), pytest.approx(1.0))
        bm = cfg.boundary_map()
        assert bm[("x", -1)] == 0.0 and bm[("x", 1)] == 0.0
        if dim == 2:
            assert bm[("y", -1)] == (1.0, -1.0)
        else:
            assert bm[("y", 1)] == (1.0, -1.0, 1.0)
            assert bm[("z", -1)] == (1.0, 1.0, -1.0)
        assert not cfg.pml.enabled


def test_preset_overrides():
    cfg = ps.preset("strip2d", elements=10, degree=2, theta=0.0, tend=5.0)
    assert cfg.spacing == 10 * KM
    assert cfg.degree == 2
    assert cfg.pml.theta == 0.0
    assert cfg.t_end == 5.0
    joined = "\n".join(cfg.notes)
    assert "element size set to 10 km" in joined
    assert "degree set to 2" in joined
    assert "theta set to 0" in joined
    assert "tend set to 5" in joined

    cfg = ps.preset("hws3d", elements=10, degree=3)
    assert cfg.spacing == 1 * KM
    assert cfg.box == ((-3 * KM, 13 * KM),) * 3
    assert cfg.counts() == (16, 16, 16)

    cfg = ps.preset("hhs3d", elements=10)
    dx = 16.333 * KM / 10
    assert cfg.spacing == pytest.approx(dx)
    assert cfg.pml.width_map()["y"] == (3 * dx, 3 * dx)


@pytest.mark.parametrize("tend", [float("inf"), float("nan")])
def test_preset_rejects_non_finite_tend(tend):
    with pytest.raises(ValidationError,
                       match=f"^t_end must be finite, got {tend}$"):
        ps.preset("strip2d", tend=tend)


def test_cli_preset_rejects_non_finite_tend(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("an endless run was started")
    monkeypatch.setattr(xp, "run_experiment", unreachable)
    assert cli.main(["preset", "strip2d", "--tend", "inf"]) == 1
    assert "t_end must be finite, got inf" in capsys.readouterr().err


def test_unknown_preset():
    with pytest.raises(UnknownPreset, match="strip2d"):
        ps.preset("maxwell")


@pytest.mark.parametrize("name", ps.PRESET_NAMES)
def test_preset_builds_compare_and_hash_by_value(name):
    # a material that stored its stiffness array made == raise ValueError
    # and hash() TypeError
    cfg, again = ps.preset(name), ps.preset(name)
    assert cfg == again and hash(cfg) == hash(again)
    assert hash(cfg.materials[0]) == hash(again.materials[0])
    assert cfg != replace(cfg, degree=cfg.degree + 1)


@pytest.mark.parametrize("name", ["strip2d", "hws3d", "planewave"])
def test_preset_rejects_empty_element_count(name):
    # strip2d divided by zero and planewave silently fell back to 16
    with pytest.raises(ValidationError, match="elements must be at least 1"):
        ps.preset(name, elements=0)


@pytest.mark.parametrize("name,override,message", [
    ("strip2d", {"elements": float("inf")},
     "elements must be at least 1 and an integer, got inf"),
    ("strip2d", {"elements": 2.5},
     "elements must be at least 1 and an integer, got 2.5"),
    ("planewave", {"elements": 2.5},
     "elements must be at least 1 and an integer, got 2.5"),
    ("strip2d", {"elements": "10"},
     "elements must be at least 1 and an integer, got '10'"),
    ("strip2d", {"tend": "abc"}, "tend must be a number, got 'abc'"),
    ("strip2d", {"theta": "x"}, "theta must be a number, got 'x'"),
], ids=["elements-inf", "elements-fraction", "planewave-elements-fraction",
        "elements-text", "tend-text", "theta-text"])
def test_preset_names_a_bad_override(name, override, message):
    # the bad counts used to surface as grid findings on dx, the extents
    # and the layer widths; the texts as a bare TypeError or ValueError
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ps.preset(name, **override)


@pytest.mark.parametrize("elements", [0, 2.5, "4"])
def test_planewave_config_names_a_bad_element_count(elements):
    # 0 raised a bare ZeroDivisionError, 2.5 gave three extent findings
    # that did not name it, and "4" a bare TypeError
    message = f"elements must be at least 1 and an integer, got {elements!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ps.planewave_config(3, elements, 3)


@pytest.mark.parametrize("n", [10, 25])
def test_loh1_shares_the_half_space_cube(n):
    loh, hhs = ps.preset("loh1", elements=n), ps.preset("hhs3d", elements=n)
    assert loh.box == hhs.box and loh.spacing == hhs.spacing
    assert loh.pml.widths == hhs.pml.widths
    assert loh.receivers == hhs.receivers and loh.boundary == hhs.boundary


@pytest.mark.parametrize("n", [10, 20])
def test_halfplane2d_shares_the_strip_across_x(n):
    strip = ps.preset("strip2d", elements=n)
    half = ps.preset("halfplane2d", elements=n)
    assert half.box[0] == strip.box[0] and half.spacing == strip.spacing
    assert half.pml.width_map()["x"] == strip.pml.width_map()["x"]
    assert [b for b in half.boundary if b[0] == "x"] == \
        [b for b in strip.boundary if b[0] == "x"]


@pytest.mark.parametrize("name", ps.PRESET_NAMES)
def test_rescaled_preset_notes_its_element_size_once(name):
    cfg, canonical = ps.preset(name, elements=10), ps.preset(name)
    sized = [n for n in cfg.notes
             if re.search(r"element size|elements across", n)]
    if name == "planewave":  # its size is a parameter of a study
        assert sized == []
    else:
        assert sized == [f"element size set to {cfg.spacing / KM:g} km"
                         f" (canonical {canonical.spacing / KM:g} km)"]


# ------------------------------------------------------------ experiments

def tiny_strip(tend=2.0):
    cfg = ps.preset("strip2d", elements=10, degree=2, tend=tend)
    return finalize(replace(cfg, output=OutputSpec(snapshot_interval=1.0)))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = tiny_strip()
    res = xp.run_experiment(cfg, str(out))
    return cfg, res, out


def test_run_reaches_tend(tiny_run):
    cfg, res, out = tiny_run
    assert not res.diverged
    assert res.t_end == pytest.approx(2.0, abs=1e-9)
    assert res.state is not None
    assert np.isfinite(res.state.Q).all()


def test_run_artifacts(tiny_run):
    cfg, res, out = tiny_run
    names = {p.name for p in out.iterdir()}
    assert "seismogram_probe.csv" in names
    assert "energy.csv" in names and "linf.csv" in names
    assert "metadata.txt" in names
    assert "snapshot_0000.txt" in names
    assert "snapshot_0000_vx.bin" in names
    meta = (out / "metadata.txt").read_text()
    assert "elements = 12x5" in meta
    assert "degree = 2" in meta
    assert "t_reached = 2" in meta
    assert "alpha = 0.15" in meta
    assert "note = degree set to 2 (canonical 5)" in meta


def test_snapshot_binary_roundtrip(tiny_run):
    cfg, res, out = tiny_run
    head = (out / "snapshot_0000.txt").read_text()
    assert "little-endian" in head and "nodes_per_axis = 3" in head
    raw = np.fromfile(out / "snapshot_0000_vy.bin", dtype="<f8")
    want = res.snapshots[0][1]
    assert raw.size == want.size
    assert np.array_equal(raw.reshape(want.shape), want)
    assert len(res.snap_times) == 3  # t = 0, 1, 2
    assert res.snap_times[0] == 0.0


def test_energy_series_file(tiny_run):
    cfg, res, out = tiny_run
    t, e = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1,
                      unpack=True, ndmin=2)
    assert t[0] == 0.0 and e[0] > 0.0
    assert np.isfinite(e).all()
    assert len(res.energy) == len(t)


def test_series_csv_roundtrip(tiny_run, monkeypatch, tmp_path):
    cfg, res, out = tiny_run
    for name, values in (("energy.csv", [s.E for s in res.energy]),
                         ("linf.csv", res.linf_values)):
        assert (out / name).read_text().splitlines()[0] == "t,value"
        t, v = np.loadtxt(out / name, delimiter=",", skiprows=1,
                          unpack=True)
        assert np.array_equal(t, res.linf_times)
        assert np.array_equal(v, values)
    # the convergence table of two levels whose errors are given, at the
    # rate 5.9228 between them
    errors = iter([1e-5 * 2 ** 5.9228, 1e-5])
    monkeypatch.setattr(xp, "run_experiment",
                        lambda cfg, dt=None: SimpleNamespace(dt=1.0))
    monkeypatch.setattr(xp, "pml_error", lambda run, ref: next(errors))
    xp.convergence_study(cfg, [10 * KM, 5 * KM], 60 * KM, str(tmp_path))
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "h,error,rate"
    assert lines[1].endswith(",")
    assert lines[2].endswith("5.9228")


def test_seismogram_roundtrip(tiny_run):
    cfg, res, out = tiny_run
    path = out / f"seismogram_{cfg.receivers[0].rid}.csv"
    assert path.read_text().splitlines()[0] == "t,vx,vy"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    times, samples = res.receivers[0].series()
    assert np.array_equal(data[:, 0], times)
    assert np.array_equal(data[:, 1:], samples)


def test_sampling_rules(monkeypatch):
    # one energy and one L-inf sample per step and one of the initial
    # state; no snapshot interval: no snapshot
    steps = []
    ader_step = xp.solver.ader_step

    def counted(*args):
        steps.append(args[0].t)
        return ader_step(*args)

    monkeypatch.setattr(xp.solver, "ader_step", counted)
    cfg = ps.preset("strip2d", elements=10, degree=2, tend=2.0)
    assert cfg.output == OutputSpec()
    res = xp.run_experiment(cfg)
    assert len(steps) > 1
    assert len(res.energy) == len(res.linf_values) == len(steps) + 1
    assert list(res.linf_times) == [s.t for s in res.energy]
    assert [s.t for s in res.energy[:-1]] == steps
    assert res.snap_times == [] and len(res.snapshots) == 0


def test_snapshots_and_samples_outlive_later_steps(monkeypatch):
    # the run steps one state in place, so a snapshot or a receiver
    # sample that kept a view of its fields would read a later step's
    # values: replay fresh copies of the callbacks on copies of every
    # state they saw
    seen, replays = [], []
    run = xp.solver.run

    def keep(st):
        seen.append(replace(st, Q=st.Q.copy(),
                            w=tuple(wi.copy() for wi in st.w)))

    def copying(state, t_end, dt, sources=(), callbacks=()):
        replays.extend(copy.deepcopy(callbacks))
        return run(state, t_end, dt, sources, tuple(callbacks) + (keep,))

    monkeypatch.setattr(xp.solver, "run", copying)
    res = xp.run_experiment(tiny_strip())
    for st in seen:
        for cb in replays:
            cb(st)
    (again, replay), rec = replays, res.receivers[0]
    # the replay read its snapshots back from files of its own
    assert replay.snapshot_dir not in (None, res.snapshot_dir)
    assert len(res.snapshots) > 1 and len(rec.samples) > 1
    for got, want in ((res.snapshots, replay.snapshots),
                      (rec.samples, again.samples)):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_snapshots_read_back_what_the_state_held(monkeypatch):
    held = {}
    run = xp.solver.run

    def keep(st):
        held[st.t] = st.Q[:st.disc.mesh.dim].copy()

    def keeping(state, t_end, dt, sources=(), callbacks=()):
        return run(state, t_end, dt, sources, tuple(callbacks) + (keep,))

    monkeypatch.setattr(xp.solver, "run", keeping)
    res = xp.run_experiment(tiny_strip())
    assert len(res.snapshots) == len(res.snap_times) == 3
    for t, snap in zip(res.snap_times, res.snapshots):
        want = held[t]
        assert snap.dtype == want.dtype and snap.shape == want.shape
        assert snap.tobytes() == want.tobytes()
    assert res.snapshots[-1].tobytes() == held[res.snap_times[-1]].tobytes()
    with pytest.raises(IndexError):
        res.snapshots[3]


def test_snapshot_files_go_with_their_run(tmp_path):
    # a run given an output directory writes its snapshots there; one
    # without writes them into a private directory that is removed,
    # without a ResourceWarning, once its result is dropped
    res = xp.run_experiment(tiny_strip(), str(tmp_path))
    assert res.snapshot_dir == str(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        res = xp.run_experiment(tiny_strip())
        private = res.snapshot_dir
        assert os.path.basename(private).startswith(xp._SNAPSHOT_DIR_PREFIX)
        assert sorted(os.listdir(private))[:2] == [
            "snapshot_0000.txt", "snapshot_0000_vx.bin"]
        snaps = res.snapshots
        del res
        gc.collect()
        assert len(snaps[0]) == 2  # the sequence keeps its run's files
        del snaps
        gc.collect()
    assert not os.path.exists(private)


def test_snapshots_do_not_accumulate_in_memory():
    # each snapshot is written when it is taken: 27 more snapshots raise
    # the run's peak of traced memory by less than one snapshot
    def peak(interval):
        cfg = tiny_strip(tend=4.0)    # dt = 0.12 s
        cfg = finalize(replace(cfg, output=replace(
            cfg.output, snapshot_interval=interval)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = xp.run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1] - base, res
        finally:
            tracemalloc.stop()

    peak(2.0)    # the first run's allocations, caches among them
    (few, res_few), (many, res_many) = peak(2.0), peak(4.0 / 29)
    assert (len(res_few.snapshots), len(res_many.snapshots)) == (3, 30)
    snapshot = res_few.snapshots[0].nbytes
    assert many - few < snapshot, (few, many, snapshot)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_divergence_is_recorded(tmp_path):
    # at 3x its stable step the strip blows up within a second of wall
    # time; the energy turns NaN before the state does, so its
    # finiteness is not asserted.  The L-inf of every recorded (finite)
    # state is finite: its last samples read up to 4.6e300, whose
    # squares overflow
    cfg = ps.preset("strip2d", elements=10, degree=2, tend=200.0)
    stable = xp.run_experiment(finalize(replace(cfg, t_end=1e-3))).dt
    res = xp.run_experiment(cfg, str(tmp_path), dt=3 * stable)
    assert res.diverged and res.state is None
    assert np.isfinite(res.linf_values).all()
    assert max(res.linf_values) > 1e155
    assert 0.0 < res.t_end < cfg.t_end
    assert res.t_end == res.energy[-1].t == res.linf_times[-1]
    # the note names the failed step by its start and end, in one format
    note = res.metadata["notes"][-1]
    step = f"from t = {res.t_end:.6g} to {res.t_end + res.dt:.6g} s"
    assert re.fullmatch(
        rf"diverged: non-finite Q in the step {re.escape(step)}, in element"
        r" \(\d+, \d+\) \((interior|layer|corner)\)", note), note
    meta = (tmp_path / "metadata.txt").read_text().splitlines()
    assert "diverged = True" in meta
    assert f"t_reached = {res.t_end}" in meta
    assert meta[-1] == f"note = {note}"


def test_bitwise_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    xp.run_experiment(tiny_strip(), str(a))
    xp.run_experiment(tiny_strip(), str(b))
    for name in ("seismogram_probe.csv", "energy.csv", "linf.csv",
                 "snapshot_0001_vx.bin", "metadata.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_default_alpha_in_metadata(tmp_path):
    cfg = ps.preset("hws3d", elements=4, degree=1, tend=0.1)
    res = xp.run_experiment(cfg, str(tmp_path))
    assert res.metadata["alpha"] == "0.08 (default)"  # cp/(10 w)
    meta = (tmp_path / "metadata.txt").read_text()
    assert "alpha = 0.08 (default)" in meta
    assert "built-in" in meta  # the preset note marks the defaulted value


def test_derive_reference_geometry():
    cfg = ps.preset("strip2d")
    ref = xp.derive_reference(cfg, 60 * KM)
    assert ref.box == ((-110 * KM, 110 * KM), (0.0, 50 * KM))
    assert not ref.pml.enabled
    bm = ref.boundary_map()
    assert bm[("x", -1)] == 0.0 and bm[("x", 1)] == 0.0
    assert bm[("y", -1)] == 1.0  # untouched physical face
    # pad is snapped up to whole elements
    ref = xp.derive_reference(cfg, 7.2 * KM)
    assert ref.box[0] == (-60 * KM, 60 * KM)

    hws = ps.preset("hws3d", elements=10, degree=3)
    ref = xp.derive_reference(hws, 6 * KM)
    assert ref.box == ((-6 * KM, 16 * KM),) * 3


def derive_abc(cfg):
    """Layer-free companion on the bare interior box."""
    return xp._strip_layers(cfg, 0.0,
                            "absorbing-wall companion, layers removed")


def test_derive_abc_geometry():
    cfg = ps.preset("halfplane2d")
    abc = derive_abc(cfg)
    assert abc.box == ((-50 * KM, 50 * KM), (0.0, 50 * KM))
    assert not abc.pml.enabled
    bm = abc.boundary_map()
    assert bm[("x", -1)] == 0.0 and bm[("y", 1)] == 0.0
    assert bm[("y", -1)] == 1.0  # free surface survives


# ------------------------------------------------------------------- cli

def test_cli_run_verb(tmp_path, capsys):
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text(TINY_TEXT)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfgfile), "--output-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "reached t = 0.5" in stdout
    assert f"artifacts in {out}" in stdout
    meta = (out / "metadata.txt").read_text()
    assert "note = cfl defaulted to 0.9" in meta
    assert "note = pml alpha defaulted to 0.15 1/s" in meta
    assert (out / "seismogram_mid.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(TINY_TEXT.replace("y.lo = free", "y.lo = 1.5"))
    assert cli.main(["run", str(cfgfile)]) == 1
    assert "gamma" in capsys.readouterr().err


def test_cli_preset_verb(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["preset", "planewave", "--elements", "4", "--degree",
                   "1", "--output-dir", str(out)])
    assert rc == 0
    assert (out / "metadata.txt").exists()
    assert "reached t = 0.5" in capsys.readouterr().out


def test_cli_unknown_preset(capsys):
    assert cli.main(["preset", "nosuch"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, monkeypatch, capsys):
    fake = SimpleNamespace(
        metadata={"elements": "1x1", "degree": 1, "notes": ()},
        dt=0.1, t_end=1.0, diverged=True)
    monkeypatch.setattr(xp, "run_experiment", lambda cfg, out: fake)
    rc = cli.main(["preset", "planewave", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "(diverged)" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["run", "convergence"])
def test_cli_reports_missing_config(tmp_path, capsys, verb):
    # a missing file printed a FileNotFoundError traceback
    missing = str(tmp_path / "missing.cfg")
    levels = ["--levels", "2 km"] if verb == "convergence" else []
    assert cli.main([verb, missing] + levels) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err


@pytest.mark.parametrize("verb", ["run", "convergence"])
def test_cli_reports_undecodable_config(tmp_path, capsys, verb):
    # a binary file (elastowave run /bin/true) printed a
    # UnicodeDecodeError traceback
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xd0\xff\xfe")
    levels = ["--levels", "2 km"] if verb == "convergence" else []
    assert cli.main([verb, str(binary)] + levels) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(binary) in err
    assert err.count("\n") == 1


def _no_step(*args, **kwargs):
    raise AssertionError("stepped before the inputs were checked")


@pytest.mark.parametrize("verb", ["run", "preset", "convergence"])
def test_cli_unusable_output_dir_fails_before_stepping(tmp_path, monkeypatch,
                                                      capsys, verb):
    # an output directory under a file failed in write_outputs, with a
    # traceback, only after the whole run
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text(TINY_TEXT)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    monkeypatch.setattr(xp.solver, "run", _no_step)
    argv = {"run": ["run", str(cfgfile)],
            "preset": ["preset", "planewave", "--elements", "4"],
            "convergence": ["convergence", str(cfgfile), "--levels", "2 km",
                            "--pad", "4 km"]}[verb]
    assert cli.main(argv + ["--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and out in err


@pytest.mark.parametrize("levels, cause", [
    ("10 km", "need matching errors/spacings with >= 2 levels"),
    ("5 km,10 km", "spacings must be positive and decreasing")])
def test_convergence_levels_checked_before_the_first_run(
        tmp_path, monkeypatch, capsys, levels, cause):
    # the study ran each level and its reference, 2 and 4 runs, before
    # convergence_rates rejected the levels
    cfgfile = tmp_path / "strip.cfg"
    cfgfile.write_text(STRIP_TEXT)
    monkeypatch.setattr(xp.solver, "run", _no_step)
    assert cli.main(["convergence", str(cfgfile), "--levels", levels,
                     "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {cause}\n"
    spacings = [cli.parse_length(tok) for tok in levels.split(",")]
    with pytest.raises(DegenerateError, match=re.escape(cause)):
        xp.convergence_study(parse_config(STRIP_TEXT), spacings, 60 * KM)


@pytest.mark.parametrize("pml, levels, resolve, cause", [
    # resolve derives tol, so a config that sets d0 read "pml tol and d0
    # are both set; give exactly one", a conflict the caller did not make
    ({"tol": None, "d0": 16.6}, (10 * KM, 5 * KM), True,
     "resolve derives the pml tol at every level, but the config sets"
     " d0 = 16.6; drop d0 or do not resolve"),
    # the second level is off the grid; the study ran the first level
    # and its reference, 2 runs, before finalizing it
    ({}, (10 * KM, 7 * KM), False,
     "x extent 120000.0 is not a whole number of elements of size 7000.0"),
])
def test_convergence_configs_checked_before_the_first_run(
        monkeypatch, pml, levels, resolve, cause):
    runs = []
    monkeypatch.setattr(xp, "run_experiment", lambda cfg, dt=None:
                        runs.append(cfg) or SimpleNamespace(dt=1.0))
    monkeypatch.setattr(xp, "pml_error", lambda run, ref: 1.0)
    cfg = parse_config(STRIP_TEXT)
    cfg = replace(cfg, pml=replace(cfg.pml, **pml))
    with pytest.raises(ValidationError, match=re.escape(cause)):
        xp.convergence_study(cfg, levels, 60 * KM, resolve=resolve)
    assert runs == []


def test_cli_check_operators(capsys):
    assert cli._check_operators(3) == 0
    stdout = capsys.readouterr().out
    assert "GLL P= 1" in stdout and "GLR P= 3" in stdout
    assert "FAIL" not in stdout


def test_cli_max_degree_range(capsys):
    from elastowave.operators import MAX_DEGREE
    args = cli.build_parser().parse_args(["check-operators"])
    assert args.max_degree == MAX_DEGREE == cf.MAX_DEGREE
    for bad in (0, MAX_DEGREE + 1):
        assert cli.main(["check-operators", "--max-degree", str(bad)]) == 1
        out = capsys.readouterr()
        assert "max-degree" in out.err
        assert out.out == ""  # rejected before any table row


def test_cli_convergence_verb(tmp_path, capsys):
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text(TINY_TEXT)
    out = tmp_path / "conv"
    rc = cli.main(["convergence", str(cfgfile), "--levels", "2 km,1 km",
                   "--pad", "4 km", "--output-dir", str(out)])
    assert rc == 0
    assert "dx,error,rate" in capsys.readouterr().out
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "h,error,rate"
    assert len(lines) == 3
    errs = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(np.isfinite(errs)) and all(e > 0 for e in errs)


def test_cli_length_parsing():
    assert cli.parse_length("2.5 km") == 2500.0
    assert cli.parse_length("250") == 250.0
    for bad in ("2.5 smoots", "5 s"):
        with pytest.raises(ParseError, match="bad length"):
            cli.parse_length(bad)


def test_cli_length_rejects_overflow():
    for huge in ("1e999", "1e999 km"):
        with pytest.raises(ParseError, match="finite"):
            cli.parse_length(huge)


def test_console_script_installed():
    """The declared ``elastowave`` console script runs ``check-operators``.

    Two things are run. The entry point that ``[project.scripts]`` of
    ``pyproject.toml`` declares is always started in a child process,
    the way an installed wrapper calls it, so the test needs no install
    and a renamed ``main`` or module fails it. Where an ``elastowave``
    script is on the PATH, that installed script is run as well.
    """
    import tomllib  # 3.11+; a local import keeps the file importable on 3.10

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["elastowave"]
    module, func = target.split(":")
    src = str(Path(elastowave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    commands = [[sys.executable, "-c",
                 f"import sys; from {module} import {func}; "
                 f"sys.argv[0] = 'elastowave'; sys.exit({func}())"]]
    exe = shutil.which("elastowave")
    if exe is not None:
        commands.append([exe])
    for cmd in commands:
        out = subprocess.run(cmd + ["check-operators", "--max-degree", "2"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert "worst residual" in out.stdout, out.stderr
