"""End-to-end acceptance gate.

Ten criteria, one verdict each, appended to tests/.acceptance.jsonl as
one JSON object with the keys criterion, name, ok and detail; conftest
prints them as one line each at the end of the session.  Thresholds are
pinned; a miss fails the test rather than loosening the gate.

The slow criteria (5 through 9) run full benchmark problems and take
several minutes combined.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from elastowave import flux as fl
from elastowave import physics as ph
from elastowave import solver
from elastowave.diagnostics import (PlaneWaveSpec, discrete_energy,
                                    plane_wave_state, pml_error)
from elastowave.harness import experiments as xp
from elastowave.harness import presets as ps
from elastowave.harness.config import finalize
from elastowave.mesh import build_mesh
from elastowave.operators import build_operators
from elastowave.pml import interior_box, resolve_tol

from test_diagnostics import seismogram_misfit
from test_harness import derive_abc
from test_physics import eigen_spectrum

_RECORDS = os.path.join(os.path.dirname(__file__), ".acceptance.jsonl")

_BENCHMARK_MATERIALS = ((2700.0, 6000.0, 3464.0), (2600.0, 4000.0, 2000.0))

# reference interior errors for the strip benchmark at t_end = 20,
# element sizes 10, 5 and 2.5 km, degree 5, resolution-matched layer
# tolerance
_STRIP_REFERENCE_ERRORS = (8.2513e-4, 1.3602e-5, 1.1745e-7)


def _record(num, name, ok, detail):
    with open(_RECORDS, "a") as f:
        f.write(json.dumps({"criterion": num, "name": name, "ok": bool(ok),
                            "detail": detail}) + "\n")
    return ok


def test_criterion_01_operators():
    """SBP property, derivative exactness and weight sums for every
    supported degree and node family, within a 5 second budget."""
    t0 = time.monotonic()
    worst_sbp = worst_der = worst_wgt = 0.0
    for kind in ("GLL", "GL", "GLR"):
        for P in range(1, 13):
            ops = build_operators(P, kind)
            worst_sbp = max(worst_sbp,
                            np.abs(ops.Qmat + ops.Qmat.T - ops.B).max())
            worst_wgt = max(worst_wgt, abs(ops.rule.weights.sum() - 2.0))
            x = ops.rule.nodes
            for deg in range(P + 1):
                want = deg * x ** (deg - 1) if deg else np.zeros_like(x)
                got = ops.D @ x ** deg
                scale = max(1.0, np.abs(want).max())
                worst_der = max(worst_der,
                                np.abs(got - want).max() / scale)
    wall = time.monotonic() - t0
    ok = (worst_sbp <= 1e-12 and worst_der <= 1e-10
          and worst_wgt <= 1e-13 and wall < 5.0)
    detail = (f"sbp {worst_sbp:.1e}, deriv {worst_der:.1e}, "
              f"weights {worst_wgt:.1e}, {wall:.1f}s")
    assert _record(1, "operator suite", ok, detail), detail


def test_criterion_02_eigenstructure():
    """Characteristic speeds of the coefficient matrices match the
    material wave speeds for both benchmark materials on every axis."""
    worst = 0.0
    for rho, cp, cs in _BENCHMARK_MATERIALS:
        m = ph.material_from_speeds(rho, cp, cs)
        want = np.sort([cp, -cp, cs, cs, -cs, -cs, 0.0, 0.0, 0.0])
        for ax in "xyz":
            got = eigen_spectrum(m, ax)
            worst = max(worst, np.abs(got - want).max() / cp)
    ok = worst <= 1e-9
    detail = f"max relative eigenvalue deviation {worst:.2e}"
    assert _record(2, "eigenstructure", ok, detail), detail


def test_criterion_03_flux_identities():
    """Hat-state identities on 1e4 random face states: boundary
    condition residual, preserved outgoing characteristic, reflected
    ingoing characteristic, interface continuity, and the termwise
    energy balance, all to 1e-12 of the local scale."""
    rng = np.random.default_rng(314159)
    n = 10_000
    v = rng.uniform(-10.0, 10.0, n)
    T = rng.uniform(-10.0, 10.0, n)
    Z = rng.uniform(0.5, 50.0, n)
    worst = 0.0

    lin_scale = np.maximum(1.0, np.maximum(Z * np.abs(v), np.abs(T)))
    for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for side in (-1, 1):
            vh, th = fl.hat_boundary(v, T, Z, gamma, side)
            out = 0.5 * (Z * v - side * T)
            out_h = 0.5 * (Z * vh - side * th)
            in_h = 0.5 * (Z * vh + side * th)
            bc = 0.5 * Z * (1.0 - gamma) * vh + side * 0.5 * (1.0 + gamma) * th
            worst = max(worst,
                        np.abs(bc / lin_scale).max(),
                        np.abs((out_h - out) / lin_scale).max(),
                        np.abs((in_h - gamma * out) / lin_scale).max())
            g = fl.fluctuation(v, T, vh, th, Z, side)
            lhs = v * g + side * T * g / Z - side * v * T
            rhs = g * g / Z - side * th * vh
            esc = np.maximum.reduce([np.ones(n), np.abs(lhs), np.abs(rhs),
                                     Z * v * v, T * T / Z])
            worst = max(worst, np.abs((lhs - rhs) / esc).max())

    vp = rng.uniform(-10.0, 10.0, n)
    Tp = rng.uniform(-10.0, 10.0, n)
    Zp = rng.uniform(0.5, 50.0, n)
    vh, th = fl.hat_interface(v, T, Z, vp, Tp, Zp)
    isc = np.maximum(1.0, np.maximum.reduce(
        [Z * np.abs(v), Zp * np.abs(vp), np.abs(T), np.abs(Tp)]))
    res_m = 0.5 * (Z * vh - th) - 0.5 * (Z * v - T)
    res_p = 0.5 * (Zp * vh + th) - 0.5 * (Zp * vp + Tp)
    worst = max(worst,
                np.abs(res_m / isc).max(),
                np.abs(res_p / isc).max())
    gm = fl.fluctuation(v, T, vh, th, Z, 1)
    gp = fl.fluctuation(vp, Tp, vh, th, Zp, -1)
    lhs_m = v * gm + T * gm / Z - v * T
    rhs_m = gm * gm / Z - th * vh
    lhs_p = vp * gp - Tp * gp / Zp + vp * Tp
    rhs_p = gp * gp / Zp + th * vh
    esc = np.maximum.reduce([np.ones(n), np.abs(lhs_m), np.abs(rhs_m),
                             np.abs(lhs_p), np.abs(rhs_p),
                             Z * v * v, T * T / Z,
                             Zp * vp * vp, Tp * Tp / Zp])
    worst = max(worst,
                np.abs((lhs_m - rhs_m) / esc).max(),
                np.abs((lhs_p - rhs_p) / esc).max())
    ok = worst <= 1e-12
    detail = f"worst scaled residual {worst:.2e} over 1e4 states"
    assert _record(3, "flux identities", ok, detail), detail


def test_criterion_04_energy_decay():
    """Undamped semi-discrete energy never grows: random initial data
    on a small 2D mesh with mixed boundary kinds, 500 steps."""
    t0 = time.monotonic()
    mat = ph.material_from_speeds(*_BENCHMARK_MATERIALS[0])
    worst = -np.inf
    for P in (2, 5):
        ops = build_operators(P, "GLL")
        mesh = build_mesh(
            (0.0, 0.0), (4e3, 4e3), (4, 4), (mat,),
            {("x", -1): 1.0, ("x", 1): 0.0, ("y", -1): -1.0, ("y", 1): 0.5})
        disc = solver.discretize(mesh, ops)
        state = solver.setup_state(disc)
        rng = np.random.default_rng(97)
        state.Q[...] = rng.standard_normal(state.Q.shape)
        dt = solver.stable_dt(mesh, mesh.materials, P, 0.5)
        energies = []
        solver.run(state, 500 * dt, dt,
                   callbacks=(lambda st: energies.append(
                       discrete_energy(st).E),))
        E = np.asarray(energies)
        rel = (E[1:] - E[:-1]) / E[:-1]
        worst = max(worst, float(rel.max()))
    wall = time.monotonic() - t0
    ok = worst < 1e-10 and wall < 30.0
    detail = f"max per-step relative increase {worst:.2e}, {wall:.1f}s"
    assert _record(4, "undamped energy decay", ok, detail), detail


@pytest.fixture(scope="module")
def theta_runs(tmp_path_factory):
    """Two independent repetitions of the strip benchmark per flux
    weight, with outputs on disk; shared by criteria 5 and 10."""
    runs = {}
    for theta in (1.0, 0.0):
        pair = []
        for rep in (0, 1):
            out = tmp_path_factory.mktemp(f"strip_theta{int(theta)}_{rep}")
            cfg = ps.preset("strip2d", theta=theta)
            pair.append((xp.run_experiment(cfg, output_dir=str(out)), out))
        runs[theta] = pair
    return runs


def test_criterion_05_damping_ramp_stability(theta_runs):
    """With flux fluctuations on, the layered strip run stays bounded
    to t = 100; with them off it grows by at least three decades
    between t = 20 and t = 100."""
    run1 = theta_runs[1.0][0][0]
    tt = np.asarray(run1.linf_times)
    vv = np.asarray(run1.linf_values)
    early = vv[tt <= 50.0].max()
    late = vv[tt >= 50.0].max()
    bounded = (not run1.diverged) and late <= 1.05 * early

    run0 = theta_runs[0.0][0][0]
    if run0.diverged:
        growth = np.inf
    else:
        t0 = np.asarray(run0.linf_times)
        v0 = np.asarray(run0.linf_values)
        v20 = v0[int(np.argmin(np.abs(t0 - 20.0)))]
        v100 = v0[int(np.argmin(np.abs(t0 - 100.0)))]
        growth = v100 / v20
    grew = growth >= 1e3
    ok = bounded and grew
    detail = (f"on: late/early {late / early:.2e} (need <= 1.05), "
              f"off: growth {growth:.3g} (need >= 1e3)")
    assert _record(5, "fluctuation stabilization", ok, detail), detail


def test_criterion_06_h_refinement_accuracy():
    """Interior error of the strip benchmark against an enlarged
    reference at three element sizes: within 5x of the reference error
    values and converging at rate >= 4.5."""
    spacings = (10e3, 5e3, 2.5e3)
    cfg = ps.preset("strip2d", tend=20.0)
    errors, rates = xp.convergence_study(cfg, spacings, pad=60e3,
                                         resolve=True)
    factors = [max(e / t, t / e)
               for e, t in zip(errors, _STRIP_REFERENCE_ERRORS)]
    ok = all(f <= 5.0 for f in factors) and all(r >= 4.5 for r in rates)
    detail = ("errors " + "/".join(f"{e:.3e}" for e in errors)
              + ", factors " + "/".join(f"{f:.1f}" for f in factors)
              + " (need <= 5), rates "
              + "/".join(f"{r:.2f}" for r in rates) + " (need >= 4.5)")
    assert _record(6, "h-refinement accuracy", ok, detail), detail


def test_criterion_07_p_refinement():
    """Interior error of the strip benchmark at fixed element size
    drops at least tenfold per +2 degrees once the layer tolerance is
    matched to the grid resolution."""
    errors = []
    for P in (2, 4, 6, 8):
        cfg = ps.preset("strip2d", degree=P, tend=20.0)
        lo, hi = interior_box(*zip(*cfg.box), cfg.pml.width_map())
        width = min(b - a for a, b in zip(lo, hi))
        cfg = finalize(replace(
            cfg,
            pml=replace(cfg.pml,
                        tol=resolve_tol(P, cfg.spacing, width)),
            output=replace(cfg.output, snapshot_interval=0.5)))
        run = xp.run_experiment(cfg)
        ref = xp.run_experiment(xp.derive_reference(cfg, 60e3), dt=run.dt)
        errors.append(pml_error(run, ref))
    drops = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(e2 < e1 for e1, e2 in zip(errors, errors[1:])) \
        and all(d >= 10.0 for d in drops)
    detail = ("errors " + "/".join(f"{e:.3e}" for e in errors)
              + ", drops " + "/".join(f"{d:.1f}" for d in drops)
              + " (need >= 10)")
    assert _record(7, "p-refinement", ok, detail), detail


def _plane_wave_error(dim, elements, degree):
    """L2 velocity error of the manufactured traveling mode at t_end."""
    cfg = ps.planewave_config(dim, elements, degree)
    disc, state, _, _ = xp.build_problem(cfg)
    dt = solver.stable_dt(disc.mesh, cfg.materials, cfg.degree, cfg.cfl)
    state = solver.run(state, cfg.t_end, dt)
    ini = cfg.initial
    pw = PlaneWaveSpec(n=ini.get("n"), mode=ini.get("mode"),
                       center=ini.get("center"), width=ini.get("width"))
    exact = plane_wave_state(pw, disc, state.t)
    wgt = disc.ops.rule.weights
    for _ in range(dim - 1):
        wgt = np.multiply.outer(wgt, disc.ops.rule.weights)
    dv = state.Q[:dim] - exact[:dim]
    return float(np.sqrt(disc.mesh.jacobian
                         * ((dv ** 2).sum(axis=0) * wgt).sum()))


def test_criterion_08_plane_wave_orders():
    """Observed convergence order of the exact traveling mode is at
    least P + 1/2 in 2D and 3D at degrees 2 and 3."""
    cases = ((2, 2, 16, 32), (2, 3, 16, 32),
             (3, 2, 16, 32), (3, 3, 12, 24))
    ok = True
    parts = []
    for dim, P, coarse, fine in cases:
        e_c = _plane_wave_error(dim, coarse, P)
        e_f = _plane_wave_error(dim, fine, P)
        order = float(np.log2(e_c / e_f))
        ok = ok and order >= P + 0.5
        parts.append(f"{dim}D P={P}: {order:.2f}")
    detail = "orders " + ", ".join(parts) + " (need >= P+0.5)"
    assert _record(8, "plane-wave orders", ok, detail), detail


def _abc_comparison(cfg, pad):
    """Run the layered config, its absorbing-wall companion, and an
    enlarged reference; returns per-receiver misfits of the first two
    against the third as {rid: (layer_misfit, wall_misfit)}."""
    run_pml = xp.run_experiment(cfg)
    run_abc = xp.run_experiment(derive_abc(cfg))
    run_ref = xp.run_experiment(xp.derive_reference(cfg, pad))
    misfits = {}
    for i, spec in enumerate(cfg.receivers):
        t_r, v_r = run_ref.receivers[i].series()
        t_p, v_p = run_pml.receivers[i].series()
        t_a, v_a = run_abc.receivers[i].series()
        misfits[spec.rid] = (seismogram_misfit(t_p, v_p, t_r, v_r),
                             seismogram_misfit(t_a, v_a, t_r, v_r))
    return misfits


def test_criterion_09_layer_vs_wall_3d():
    """At the receiver nearest the truncation, the damping layer beats
    a plain absorbing wall by at least a factor of five in waveform
    misfit against an enlarged reference (3D explosion)."""
    cfg = ps.preset("hws3d", elements=10, degree=3, tend=3.0)
    misfits = _abc_comparison(cfg, pad=6e3)
    m_pml, m_abc = misfits["r2"]
    ok = m_pml <= 0.2 * m_abc
    detail = (f"r2 layer misfit {m_pml:.3e} vs wall {m_abc:.3e}, "
              f"ratio {m_pml / m_abc:.4f} (need <= 0.2)")
    assert _record(9, "3d layer vs wall", ok, detail), detail


def test_criterion_10_determinism(theta_runs):
    """Repeated strip runs produce bitwise-identical seismogram files."""
    same = True
    checked = 0
    for pair in theta_runs.values():
        (_, out_a), (_, out_b) = pair
        names = sorted(p.name for p in out_a.iterdir()
                       if p.name.startswith("seismogram_"))
        for name in names:
            checked += 1
            same = same and (out_a / name).read_bytes() \
                == (out_b / name).read_bytes()
    ok = same and checked >= 2
    detail = f"{checked} seismogram files compared bitwise, identical={same}"
    assert _record(10, "determinism", ok, detail), detail
