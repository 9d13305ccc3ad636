"""Experiment drivers: build a problem from a config, run it, write the
artifacts, and derive the companion runs (enlarged reference, plain
absorbing truncation) used for error measurement."""

import os
import shutil
import tempfile
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .. import solver
from ..diagnostics import (check_levels, convergence_rates, discrete_energy,
                           linf_series, pml_error,
                           PlaneWaveSpec, plane_wave_state)
from ..errors import DivergenceDetected, ValidationError
from ..mesh import build_mesh
from ..operators import build_operators
from ..physics import axes_of, velocity_names
from ..pml import build_damping, interior_box, resolve_tol
from ..sources import IntervalGate, MomentTensorSource, Receiver, STF_KINDS
from .config import PmlSpec, finalize


# prefix of the private directory that a run without an output directory
# writes its snapshots into
_SNAPSHOT_DIR_PREFIX = "elastowave-snapshots-"


@dataclass
class RunResult:
    """The record of one run, and the last callback of its solver.run.

    Each call notes the time reached, samples the energy and L-inf
    series, and takes a snapshot on the gate of the snapshot interval;
    with no snapshot interval no snapshot is taken.

    A snapshot is written into `snapshot_dir` when it is taken, and
    only its time is kept; `snapshots` reads them back.  A run without
    an output directory makes a private temporary one at its first
    snapshot (so a copy of the callback made before the run writes its
    own), which is removed when the record is dropped.
    """

    config: object
    disc: object
    dt: float
    receivers: list
    t_end: float            # time actually reached
    diverged: bool = False
    note: str = None        # why the run stopped short of tend
    energy: list = field(default_factory=list)        # EnergySample
    linf_values: list = field(default_factory=list)
    snap_times: list = field(default_factory=list)
    snapshot_dir: str = None  # where the snapshot files are written
    state: object = None    # final state; None if the run diverged

    def __post_init__(self):
        self._snap_gate = IntervalGate(self.config.output.snapshot_interval)

    def __call__(self, state):
        self.t_end = state.t
        self.energy.append(discrete_energy(state))
        self.linf_values.append(linf_series(state))
        if self.config.output.snapshot_interval is not None \
                and self._snap_gate(state.t):
            self._write_snapshot(state.t, state.Q[:self.config.dimension])
            self.snap_times.append(state.t)

    @property
    def snapshots(self):
        """The velocity fields at snap_times, read back from their files
        one per access."""
        return _Snapshots(self)

    def _snapshot_base(self, k):
        """Path of snapshot k's files, without their suffixes."""
        return os.path.join(self.snapshot_dir, f"snapshot_{k:04d}")

    def _write_snapshot(self, t, fields):
        """The velocity fields at time t into the files of the next
        snapshot."""
        if self.snapshot_dir is None:
            self.snapshot_dir = tempfile.mkdtemp(prefix=_SNAPSHOT_DIR_PREFIX)
            weakref.finalize(self, shutil.rmtree, self.snapshot_dir,
                             ignore_errors=True)
        cfg, disc = self.config, self.disc
        base = self._snapshot_base(len(self.snap_times))
        names = velocity_names(cfg.dimension)
        # one little-endian float64 .bin per component, element-major
        # (element indices outer, node indices inner, C order), and a text
        # sidecar with the shape
        _write_pairs(base + ".txt", (
            ("time", f"{t:.16e}"), ("dimension", cfg.dimension),
            ("elements", "x".join(str(c) for c in disc.mesh.counts)),
            ("nodes_per_axis", disc.ops.n_nodes),
            ("degree", disc.ops.degree), ("components", ",".join(names)),
            ("layout", "element-major, C order, little-endian float64")))
        for name, v in zip(names, fields):
            with open(f"{base}_{name}.bin", "wb") as f:
                # the state's own row: no copy of a contiguous
                # little-endian one
                f.write(np.ascontiguousarray(v, dtype="<f8").data)

    def _read_snapshot(self, k):
        """Snapshot k's velocity fields, read back from its files."""
        dim, disc = self.config.dimension, self.disc
        shape = disc.mesh.counts + (disc.ops.n_nodes,) * dim
        base = self._snapshot_base(k)
        snap = np.empty((dim, *shape))
        for v, name in zip(snap, velocity_names(dim)):
            v[...] = np.fromfile(f"{base}_{name}.bin",
                                 dtype="<f8").reshape(shape)
        return snap

    @property
    def linf_times(self):
        return [s.t for s in self.energy]

    @property
    def interior(self):
        """Box without layers, None if the run has none."""
        cfg, mesh = self.config, self.disc.mesh
        if not cfg.pml.enabled:
            return None
        return interior_box(mesh.mins, mesh.maxs, cfg.pml.width_map())

    @property
    def source_locations(self):
        """Every point the run's waves start from: each source, else the
        centre of the velocity Gaussian, else the centre of the box."""
        cfg, ini = self.config, self.config.initial
        if cfg.sources:
            return tuple(s.location for s in cfg.sources)
        if ini is not None and ini.kind == "velocity-gaussian":
            return (ini.get("center"),)
        return (tuple(0.5 * (lo + hi) for lo, hi in cfg.box),)

    @property
    def metadata(self):
        cfg, damping = self.config, self.disc.damping
        return {
            "dimension": cfg.dimension,
            "box": ";".join(f"{lo:g}..{hi:g}" for lo, hi in cfg.box),
            "elements": "x".join(str(n) for n in cfg.counts()),
            "dx": cfg.spacing,
            "degree": cfg.degree,
            "quadrature": "GLL",
            "cfl": cfg.cfl,
            "dt": self.dt,
            "tend": cfg.t_end,
            "t_reached": self.t_end,
            "theta": cfg.pml.theta,
            "alpha": (f"{damping[0].alpha:.6g}"
                      + (" (default)" if cfg.pml.alpha is None else "")
                      if damping else "disabled"),
            "tol": cfg.pml.tol,
            "d0": ";".join(f"{t.axis}={t.d0:.6g}" for t in damping)
                  or "disabled",
            "diverged": self.diverged,
            "notes": cfg.notes + ((self.note,) if self.note else ()),
        }


class _Snapshots(Sequence):
    """The snapshots of a run, each read from its files when indexed.
    It holds the run's record, which keeps the files."""

    def __init__(self, result):
        self.result = result

    def __len__(self):
        return len(self.result.snap_times)

    def __getitem__(self, k):
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"snapshot {k} of {n}")
        return self.result._read_snapshot(k % n)


def build_problem(cfg):
    """Config -> (discretization, initial state, sources, receivers)."""
    mesh = build_mesh(tuple(b[0] for b in cfg.box),
                      tuple(b[1] for b in cfg.box), cfg.counts(),
                      cfg.materials, cfg.boundary_map(), cfg.region)
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
                           STF_KINDS[s.stf](**dict(s.stf_params)))
        for s in cfg.sources)
    recs = tuple(Receiver(mesh, ops, r.location, interval=r.interval)
                 for r in cfg.receivers)
    return disc, state, srcs, recs


def _apply_initial(state, cfg):
    ini = cfg.initial
    if ini is None:
        return
    if ini.kind == "velocity-gaussian":
        center = ini.get("center")
        hw = ini.get("halfwidth")
        coords = solver.nodal_coordinates(state.disc)
        r2 = sum((x - c) ** 2 for x, c in zip(coords, center))
        # a unit bump on every velocity, which drops to 1/2 of its peak
        # at distance `halfwidth`
        state.Q[:cfg.dimension] = np.exp(-np.log(2.0) * r2 / hw ** 2)
    elif ini.kind == "plane-wave":
        pw = PlaneWaveSpec(n=ini.get("n"), mode=ini.get("mode"),
                           center=ini.get("center"),
                           width=ini.get("width"))
        state.Q[...] = plane_wave_state(pw, state.disc, 0.0)
    else:
        raise ValueError(f"unknown initial kind {ini.kind!r}")


def run_experiment(cfg, output_dir=None, dt=None):
    """Run one configuration; returns a RunResult.  With output_dir, the
    run writes its snapshots there as it takes them, and seismograms,
    series and metadata after its last step; without, its snapshots go
    to a private temporary directory that lives as long as the result.

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

    result = RunResult(cfg, disc, dt, list(recs), t_end=state.t,
                       snapshot_dir=output_dir)
    try:
        result.state = solver.run(state, cfg.t_end, dt, sources=srcs,
                                  callbacks=recs + (result,))
    except DivergenceDetected as exc:
        result.diverged = True
        result.note = f"diverged: {exc}"
    if output_dir is not None:
        write_outputs(result, output_dir)
    return result


def write_outputs(result, output_dir):
    """Writes the seismograms, series and metadata of a run into
    output_dir, which exists; the run wrote its snapshots as it went."""
    cfg = result.config
    for spec, rec in zip(cfg.receivers, result.receivers):
        _write_csv(os.path.join(output_dir, f"seismogram_{spec.rid}.csv"),
                   ("t", *rec.names),
                   ((t, *vals) for t, vals in zip(rec.times, rec.samples)))
    _write_csv(os.path.join(output_dir, "energy.csv"), ("t", "value"),
               ((s.t, s.E) for s in result.energy))
    _write_csv(os.path.join(output_dir, "linf.csv"), ("t", "value"),
               zip(result.linf_times, result.linf_values))
    meta = result.metadata
    _write_pairs(os.path.join(output_dir, "metadata.txt"),
                 [(key, meta[key]) for key in sorted(meta) if key != "notes"]
                 + [("note", line) for line in meta["notes"]])


def _write_csv(path, header, rows):
    """CSV file: the header names, then one line per row.  Numbers are
    written as %.16e; a text cell (the convergence table's rate) is
    written as it is."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(x if isinstance(x, str) else f"{x:.16e}"
                             for x in row) + "\n")


def _write_pairs(path, pairs):
    """Text file of one `key = value` line per pair."""
    with open(path, "w") as f:
        f.writelines(f"{key} = {value}\n" for key, value in pairs)


def _snap_up(value, h):
    return max(1, int(np.ceil(value / h - 1e-9))) * h


def _strip_layers(cfg, offset, note):
    """Layer-free companion: the layers are dropped and every face that
    carried one becomes a plain absorbing wall, `offset` out from the
    interior.  Faces without a layer are left exactly as configured."""
    wid = cfg.pml.width_map()
    box = [list(b) for b in cfg.box]
    boundary = dict(cfg.boundary_map())
    lo_i, hi_i = (b.tolist() for b in interior_box(*zip(*cfg.box), wid))
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


# snapshot interval of every run of a convergence study, s; the error
# of a level is the worst over its snapshots
_STUDY_SNAPSHOT_INTERVAL = 0.5


def convergence_study(cfg, spacings, pad, output_dir=None, resolve=False):
    """Error against an enlarged reference at each element size; returns
    (errors, rates) and optionally writes the h,error,rate table.

    With `resolve`, the layer tolerance is re-derived at every level from
    the narrowest interior extent, so it tracks the grid's own resolution
    floor instead of staying fixed while the grid refines.  Every level's
    config is built and validated before the first run."""
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
    check_levels(spacings)
    if resolve and cfg.pml.d0 is not None:
        raise ValidationError(
            f"resolve derives the pml tol at every level, but the config"
            f" sets d0 = {cfg.pml.d0!r}; drop d0 or do not resolve")
    levels = []
    for h in spacings:
        c = replace(cfg, spacing=float(h), output=replace(
            cfg.output, snapshot_interval=_STUDY_SNAPSHOT_INTERVAL))
        if resolve:
            lo, hi = interior_box(*zip(*c.box), c.pml.width_map())
            width = min(b - a for a, b in zip(lo, hi))
            c = replace(c, pml=replace(
                c.pml, tol=resolve_tol(c.degree, float(h), width)))
        levels.append(finalize(c))
    errors = []
    for c in levels:
        run = run_experiment(c)
        # share the step so snapshot times line up exactly
        ref = run_experiment(derive_reference(c, pad), dt=run.dt)
        errors.append(pml_error(run, ref))
    rates = convergence_rates(errors, spacings)
    if output_dir is not None:
        # the first level has no rate
        rate_text = [""] + [f"{r:.4f}" for r in rates]
        _write_csv(os.path.join(output_dir, "convergence.csv"),
                   ("h", "error", "rate"), zip(spacings, errors, rate_text))
    return errors, rates
