"""Experiment drivers: build a problem from a config, run it, write the
artifacts, and derive the companion runs (enlarged reference, plain
absorbing truncation) used for error measurement."""

import os
from dataclasses import dataclass, replace

import numpy as np

from .. import solver
from ..diagnostics import (convergence_rates, discrete_energy,
                           linf_series, pml_error, seismogram_misfit,
                           write_convergence, write_series, PlaneWaveSpec,
                           plane_wave_state)
from ..errors import DivergenceDetected
from ..mesh import MeshSpec, build_mesh
from ..operators import build_operators
from ..physics import axes_of, velocity_names
from ..pml import build_damping, resolve_tol
from ..sources import (GaussianSTF, IntervalGate, MomentTensorSource,
                       RampSTF, Receiver, write_seismogram)
from .config import PmlSpec, finalize


@dataclass
class RunResult:
    config: object
    disc: object
    dt: float
    t_end: float            # time actually reached
    diverged: bool
    snap_times: list
    snapshots: list         # velocity fields, one array per snapshot
    interior: tuple         # (lo, hi) box without layers, None if no pml
    source_location: tuple
    receivers: list
    energy: list            # EnergySample
    linf_times: list
    linf_values: list
    metadata: dict
    state: object = None    # final state; None if the run diverged


def _build_stf(spec):
    params = dict(spec.stf_params)
    if spec.stf == "gaussian":
        return GaussianSTF(sigma=params["sigma"], t0=params["t0"])
    if spec.stf == "ramp":
        return RampSTF(T=params["T"])
    raise ValueError(f"unknown stf {spec.stf!r}")


def build_problem(cfg):
    """Config -> (discretization, initial state, sources, receivers)."""
    mins = tuple(b[0] for b in cfg.box)
    maxs = tuple(b[1] for b in cfg.box)
    spec = MeshSpec(
        dim=cfg.dimension, mins=mins, maxs=maxs, counts=cfg.counts(),
        materials=cfg.materials, gamma=dict(cfg.boundary_map()),
        region_axis=cfg.region[0] if cfg.region else None,
        region_threshold=cfg.region[1] if cfg.region else None,
        region_material=cfg.region[2] if cfg.region else 1)
    mesh = build_mesh(spec)
    ops = build_operators(cfg.degree, "GLL")
    damping = build_damping(mesh, ops, cfg.pml.width_map(), cfg.pml.d0,
                            cfg.pml.alpha, cfg.pml.tol)
    disc = solver.discretize(mesh, ops, theta=cfg.pml.theta,
                             damping=damping)
    state = solver.setup_state(disc)
    _apply_initial(state, cfg)
    srcs = tuple(
        MomentTensorSource(mesh, ops, s.location,
                           np.asarray(s.moment, dtype=float),
                           _build_stf(s))
        for s in cfg.sources)
    recs = tuple(
        Receiver(mesh, ops, r.location, components=r.components,
                 interval=r.interval if r.interval is not None
                 else cfg.output.seismogram_interval)
        for r in cfg.receivers)
    return disc, state, srcs, recs


def _apply_initial(state, cfg):
    ini = cfg.initial
    if ini is None:
        return
    if ini.kind == "velocity-gaussian":
        center = ini.get("center")
        hw = ini.get("halfwidth")
        amp = ini.get("amplitude", 1.0)
        names = velocity_names(cfg.dimension)
        coords = solver.nodal_coordinates(state.disc)
        r2 = sum((x - c) ** 2 for x, c in zip(coords, center))
        # value drops to 1/2 of the peak at distance `halfwidth`
        bump = amp * np.exp(-np.log(2.0) * r2 / hw ** 2)
        for c in ini.get("components") or names:
            state.Q[names.index(c)] = bump
    elif ini.kind == "plane-wave":
        pw = PlaneWaveSpec(n=ini.get("n"), mode=ini.get("mode"),
                           center=ini.get("center"),
                           width=ini.get("width"))
        state.Q[...] = plane_wave_state(pw, state.disc, 0.0)
    else:
        raise ValueError(f"unknown initial kind {ini.kind!r}")


def _source_point(cfg):
    if cfg.sources:
        return cfg.sources[0].location
    if cfg.initial is not None and cfg.initial.kind == "velocity-gaussian":
        return cfg.initial.get("center")
    return tuple(0.5 * (lo + hi) for lo, hi in cfg.box)


def run_experiment(cfg, output_dir=None, dt=None):
    """Run one configuration; returns a RunResult and, when output_dir
    is given, writes seismograms, series, snapshots and metadata.

    dt overrides the stability-derived step (used to keep snapshot
    times aligned between a layered run and its reference)."""
    disc, state, srcs, recs = build_problem(cfg)
    if dt is None:
        rate = max((t.d0 + t.alpha for t in disc.damping), default=0.0)
        dt = solver.stable_dt(disc.mesh, cfg.materials, cfg.degree,
                              cfg.cfl, damping_rate=rate)
    if output_dir is not None:
        # an unusable directory fails here, not after the run
        os.makedirs(output_dir, exist_ok=True)

    energy, linf_t, linf_v = [], [], []
    snap_times, snapshots = [], []
    series_gate = IntervalGate(cfg.output.series_interval)
    snap_gate = IntervalGate(cfg.output.snapshot_interval)

    def sample_series(st):
        if not series_gate(st.t):
            return
        energy.append(discrete_energy(st))
        linf_t.append(st.t)
        linf_v.append(linf_series(st))

    def sample_snapshot(st):
        if cfg.output.snapshot_interval is None or not snap_gate(st.t):
            return
        snap_times.append(st.t)
        snapshots.append(np.array(st.Q[:cfg.dimension]))

    progress = {"t": state.t}

    def track(st):
        progress["t"] = st.t

    callbacks = list(recs) + [sample_series, sample_snapshot, track]
    diverged = False
    note = None
    try:
        state = solver.run(state, cfg.t_end, dt, sources=srcs,
                           callbacks=callbacks)
    except DivergenceDetected as exc:
        diverged = True
        note = f"diverged at t = {progress['t']:.6g} s: {exc}"
    t_reached = progress["t"]

    meta = {
        "dimension": cfg.dimension,
        "box": ";".join(f"{lo:g}..{hi:g}" for lo, hi in cfg.box),
        "elements": "x".join(str(n) for n in cfg.counts()),
        "dx": cfg.spacing,
        "degree": cfg.degree,
        "quadrature": "GLL",
        "cfl": cfg.cfl,
        "dt": dt,
        "tend": cfg.t_end,
        "t_reached": t_reached,
        "theta": cfg.pml.theta,
        "alpha": (f"{disc.damping[0].alpha:.6g}"
                  + (" (default)" if cfg.pml.alpha is None else "")
                  if disc.damping else "disabled"),
        "tol": cfg.pml.tol,
        "d0": ";".join(f"{t.axis}={t.d0:.6g}" for t in disc.damping)
              or "disabled",
        "diverged": diverged,
    }
    notes = cfg.notes + ((note,) if note else ())

    result = RunResult(
        config=cfg, disc=disc, dt=dt, t_end=t_reached, diverged=diverged,
        snap_times=snap_times, snapshots=snapshots,
        interior=cfg.interior() if cfg.pml.enabled else None,
        source_location=_source_point(cfg), receivers=list(recs),
        energy=energy, linf_times=linf_t, linf_values=linf_v,
        metadata=dict(meta, notes=notes),
        state=None if diverged else state)
    if output_dir is not None:
        write_outputs(result, output_dir)
    return result


def write_outputs(result, output_dir):
    """Writes the files of a run into output_dir, which exists."""
    cfg = result.config
    for spec, rec in zip(cfg.receivers, result.receivers):
        write_seismogram(os.path.join(output_dir,
                                      f"seismogram_{spec.rid}.csv"), rec)
    if result.energy:
        write_series(os.path.join(output_dir, "energy.csv"),
                     [s.t for s in result.energy],
                     [s.E for s in result.energy])
        write_series(os.path.join(output_dir, "linf.csv"),
                     result.linf_times, result.linf_values)
    for k, (t, snap) in enumerate(zip(result.snap_times,
                                      result.snapshots)):
        base = os.path.join(output_dir, f"snapshot_{k:04d}")
        if cfg.output.snapshot_format == "csv":
            _write_snapshot_csv(base + ".csv", result.disc, snap, t)
        else:
            _write_snapshot_binary(base, result.disc, snap, t)
    with open(os.path.join(output_dir, "metadata.txt"), "w") as f:
        meta = result.metadata
        for key in sorted(k for k in meta if k != "notes"):
            f.write(f"{key} = {meta[key]}\n")
        for line in meta.get("notes", ()):
            f.write(f"note = {line}\n")


def _write_snapshot_binary(base, disc, snap, t):
    """One little-endian float64 .bin per component, element-major
    (element indices outer, node indices inner, C order), plus a text
    sidecar with the shape."""
    mesh = disc.mesh
    n = disc.ops.n_nodes
    names = velocity_names(mesh.dim)
    with open(base + ".txt", "w") as f:
        f.write(f"time = {t:.16e}\n")
        f.write(f"dimension = {mesh.dim}\n")
        f.write("elements = " + "x".join(str(c) for c in mesh.counts)
                + "\n")
        f.write(f"nodes_per_axis = {n}\n")
        f.write(f"degree = {disc.ops.degree}\n")
        f.write("components = " + ",".join(names) + "\n")
        f.write("layout = element-major, C order, little-endian"
                " float64\n")
    for c, name in enumerate(names):
        with open(f"{base}_{name}.bin", "wb") as f:
            f.write(np.ascontiguousarray(snap[c]).astype("<f8").tobytes())


def _write_snapshot_csv(path, disc, snap, t):
    mesh = disc.mesh
    coords = solver.nodal_coordinates(disc)
    names = velocity_names(mesh.dim)
    with open(path, "w") as f:
        f.write(f"# time = {t:.16e}\n")
        f.write(",".join(axes_of(mesh.dim) + names) + "\n")
        cols = [np.broadcast_to(c, snap[0].shape).ravel()
                for c in coords] + [snap[c].ravel()
                                    for c in range(mesh.dim)]
        for row in zip(*cols):
            f.write(",".join(f"{x:.16e}" for x in row) + "\n")


def _snap_up(value, h):
    return max(1, int(np.ceil(value / h - 1e-9))) * h


def _strip_layers(cfg, offset, note):
    """Layer-free companion: the layers are dropped and every face that
    carried one becomes a plain absorbing wall, `offset` out from the
    interior.  Faces without a layer are left exactly as configured."""
    wid = cfg.pml.width_map()
    box = [list(b) for b in cfg.box]
    boundary = dict(cfg.boundary_map())
    lo_i, hi_i = cfg.interior()
    for ai, ax in enumerate(axes_of(cfg.dimension)):
        w_lo, w_hi = wid.get(ax, (0.0, 0.0))
        if w_lo > 0.0:
            box[ai][0] = lo_i[ai] - offset
            boundary[(ax, -1)] = 0.0
        if w_hi > 0.0:
            box[ai][1] = hi_i[ai] + offset
            boundary[(ax, 1)] = 0.0
    return finalize(replace(
        cfg, box=tuple(tuple(b) for b in box),
        boundary=tuple((ax, s, g) for (ax, s), g in boundary.items()),
        pml=PmlSpec(), notes=cfg.notes + (note,)))


def derive_reference(cfg, pad):
    """Enlarged plain-elastic companion: every truncated face (one that
    carries a layer) moves `pad`, snapped up to whole elements, out from
    the interior.  Faces without a layer are left as configured, so
    shared truncation errors cancel in the comparison."""
    pad = _snap_up(pad, cfg.spacing)
    return _strip_layers(cfg, pad, "reference companion, truncated faces"
                                   f" moved out by {pad:g} m")


def derive_abc(cfg):
    """Layer-free companion on the bare interior box."""
    return _strip_layers(cfg, 0.0,
                         "absorbing-wall companion, layers removed")


def convergence_study(cfg, spacings, pad, output_dir=None,
                      snapshot_interval=0.5, resolve=False):
    """Error against an enlarged reference at each element size; returns
    (errors, rates) and optionally writes the h,error,rate table.

    With `resolve`, the layer tolerance is re-derived at every level from
    the narrowest interior extent, so it tracks the grid's own resolution
    floor instead of staying fixed while the grid refines."""
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
    errors = []
    for h in spacings:
        c = replace(cfg, spacing=float(h),
                    output=replace(cfg.output,
                                   snapshot_interval=snapshot_interval))
        if resolve:
            lo, hi = c.interior()
            width = min(b - a for a, b in zip(lo, hi))
            c = replace(c, pml=replace(
                c.pml, tol=resolve_tol(c.degree, float(h), width)))
        c = finalize(c)
        run = run_experiment(c)
        # share the step so snapshot times line up exactly
        ref = run_experiment(derive_reference(c, pad), dt=run.dt)
        errors.append(pml_error(run, ref))
    rates = convergence_rates(errors, spacings)
    if output_dir is not None:
        write_convergence(os.path.join(output_dir, "convergence.csv"),
                          spacings, errors, rates)
    return errors, rates


def abc_comparison(cfg, pad, output_dir=None):
    """Run the layered config, its absorbing-wall companion, and an
    enlarged reference; returns per-receiver misfits of the first two
    against the third as {rid: (layer_misfit, wall_misfit)}."""
    sub = (lambda tag: os.path.join(output_dir, tag)) \
        if output_dir is not None else (lambda tag: None)
    run_pml = run_experiment(cfg, sub("pml"))
    run_abc = run_experiment(derive_abc(cfg), sub("abc"))
    run_ref = run_experiment(derive_reference(cfg, pad), sub("reference"))
    misfits = {}
    for i, spec in enumerate(cfg.receivers):
        t_r, v_r = run_ref.receivers[i].series()
        t_p, v_p = run_pml.receivers[i].series()
        t_a, v_a = run_abc.receivers[i].series()
        misfits[spec.rid] = (seismogram_misfit(t_p, v_p, t_r, v_r),
                             seismogram_misfit(t_a, v_a, t_r, v_r))
    return misfits, (run_pml, run_abc, run_ref)
