"""The benchmark's workloads: a preset configuration and its output checks.

Each workload builds its RunConfig from `elastowave.harness.presets` and
checks a finished `RunResult` with the closed forms of `checks`.  The
inputs are fixed presets, so they do not depend on the benchmark seed.
The bounds below sit well above the figures measured on working code
(quoted next to each) and well below what a wrong answer gives (see
test_checks.py).
"""

import glob
import math
import os
from dataclasses import replace

import numpy as np

import checks


def _finite(result):
    if result.diverged or result.state is None:
        return [f"run diverged: {result.metadata.get('notes')}"]
    fails, _ = checks.check_finite(result.state.Q, *result.state.w)
    return fails


def _csv_rows(path):
    with open(path) as f:
        return sum(1 for _ in f) - 1


# ---------------------------------------------------------------------------
# strip2d: canonical 2D strip, per-call overhead bound


STRIP_TEND = 20.0
STRIP_SNAPSHOT_INTERVAL = 0.5   # the convergence study's snapshot interval


def strip2d_config(presets):
    cfg = presets.preset("strip2d", tend=STRIP_TEND)
    return replace(cfg, output=replace(
        cfg.output, snapshot_interval=STRIP_SNAPSHOT_INTERVAL))


def strip2d_check(result, cfg, outdir):
    fails = _finite(result)
    if fails:
        return fails, {}
    figures = {}
    f, fig = checks.check_energy_decayed([s.E for s in result.energy])
    fails += f
    figures.update(fig)
    ini = cfg.initial
    rec = cfg.receivers[0]
    t, v = result.receivers[0].series()
    # measured: quiet 2.5e-6 of the peak, first 10 % crossing at 3.2 s
    # against a predicted 3.26 s
    f, fig = checks.check_probe_arrival(
        t, v, distance=math.dist(rec.location, ini.get("center")),
        halfwidth=ini.get("halfwidth"), cp=cfg.materials[0].cp,
        quiet_until=1.5, quiet_bound=1e-4, arrival_tol=0.25)
    fails += f
    figures.update(fig)
    n_snap = int(round(STRIP_TEND / STRIP_SNAPSHOT_INTERVAL)) + 1
    written = {
        "snapshots": len(glob.glob(os.path.join(outdir, "snapshot_*.txt"))),
        "seismogram rows": _csv_rows(
            os.path.join(outdir, f"seismogram_{rec.rid}.csv")),
        "energy rows": _csv_rows(os.path.join(outdir, "energy.csv")),
    }
    expected = {"snapshots": n_snap, "seismogram rows": len(t),
                "energy rows": len(result.energy)}
    for key, want in expected.items():
        if written[key] != want:
            fails.append(f"{key}: wrote {written[key]}, expected {want}")
    return fails, figures


# ---------------------------------------------------------------------------
# hws3d_desk: whole-space explosion at desk scale, bandwidth bound


HWS_ELEMENTS = 8
HWS_DEGREE = 3
HWS_TEND = 1.5


def hws3d_desk_config(presets):
    return presets.preset("hws3d", elements=HWS_ELEMENTS, degree=HWS_DEGREE,
                          tend=HWS_TEND)


def hws3d_desk_check(result, cfg, outdir):
    fails = _finite(result)
    if fails:
        return fails, {}
    src = cfg.sources[0]
    params = dict(src.stf_params)
    mat = cfg.materials[0]
    m0 = float(np.trace(np.asarray(src.moment))) / 3.0
    # r1 is left out: it sits on element faces next to the source and
    # reads several times the closed form (see CHANGES.md)
    idx = [r.rid for r in cfg.receivers].index("r2")
    t, v = result.receivers[idx].series()
    f, fig = checks.check_explosion(
        t, v, src.location, cfg.receivers[idx].location, m0=m0,
        rho=mat.rho, alpha=mat.cp, sigma=params["sigma"], t0=params["t0"],
        l2_bound=0.15, transverse_bound=5e-2)
    fails += f
    rows = _csv_rows(os.path.join(outdir, "seismogram_r2.csv"))
    if rows != len(t):
        fails.append(f"seismogram_r2.csv has {rows} rows, expected {len(t)}")
    return fails, fig


# ---------------------------------------------------------------------------
# planewave3d: undamped plane wave, no layers, sources or files


PW_ELEMENTS = 12
PW_DEGREE = 3


def planewave3d_config(presets):
    return presets.planewave_config(dim=3, elements=PW_ELEMENTS,
                                    degree=PW_DEGREE)


def planewave3d_check(result, cfg, outdir):
    fails = _finite(result)
    if fails:
        return fails, {}
    ini = cfg.initial
    if ini.get("mode") != "P":
        return [f"closed form covers the P mode only, got {ini.get('mode')}"], {}
    grid = {"mins": [b[0] for b in cfg.box], "counts": cfg.counts(),
            "spacings": [cfg.spacing] * cfg.dimension, "degree": cfg.degree}
    mode = {"direction": ini.get("n"), "speed": cfg.materials[0].cp,
            "center": ini.get("center"), "width": ini.get("width")}
    # measured: 1.2e-2 at 12 elements, 4.0e-3 at 16
    f1, fig1 = checks.check_plane_wave(
        result.state.Q[:cfg.dimension], result.t_end, grid, mode,
        l2_bound=2.5e-2)
    # measured: the largest step-to-step change is a fall of 3e-7
    f2, fig2 = checks.check_energy_nonincreasing(
        [s.E for s in result.energy])
    return fails + f1 + f2, {**fig1, **fig2}


WORKLOADS = {
    "strip2d": (strip2d_config, strip2d_check, True),
    "hws3d_desk": (hws3d_desk_config, hws3d_desk_check, True),
    "planewave3d": (planewave3d_config, planewave3d_check, False),
}
