"""Fast tests of the benchmark's output checks.

Each check must accept the closed form it is written from and reject a
plainly wrong answer.  Run with: python3 -m pytest benchmarks
"""

import math

import numpy as np
from numpy.polynomial import legendre

import checks


def test_gll_rule_integrates_to_degree_2p_minus_1():
    for p in (1, 3, 5):
        x, w = checks.gll_rule(p)
        assert x[0] == -1.0 and x[-1] == 1.0
        for k in range(2 * p):
            exact = (1 - (-1) ** (k + 1)) / (k + 1)
            assert abs((w * x ** k).sum() - exact) < 1e-13


def test_gll_inner_nodes_are_roots_of_the_legendre_derivative():
    x, _ = checks.gll_rule(4)
    d = legendre.Legendre.basis(4).deriv()
    assert np.abs(d(x[1:-1])).max() < 1e-12


# -- plane wave ---------------------------------------------------------------

GRID = {"mins": [0.0] * 3, "spacings": [10.0 / 12] * 3, "counts": (12,) * 3,
        "degree": 3}
MODE = {"direction": (1.0, 0.0, 0.0), "speed": 2.0, "center": 3.0,
        "width": 2.0}


def _mode_on_grid(t, shift=0.0):
    x = checks.element_node_coordinates(GRID["mins"], GRID["spacings"],
                                        GRID["counts"], GRID["degree"])
    x[0] = x[0] - shift
    return checks.p_mode_velocity(x, t, **MODE)


def test_plane_wave_accepts_the_mode():
    fails, fig = checks.check_plane_wave(_mode_on_grid(0.5), 0.5, GRID, MODE,
                                         l2_bound=1e-12)
    assert fails == [] and fig["plane_wave_l2"] == 0.0


def test_plane_wave_mode_is_the_travelling_bump():
    x = [np.array([5.0]), np.array([0.0]), np.array([0.0])]
    v = checks.p_mode_velocity(x, 1.0, **MODE)    # at the bump's centre
    assert v[0, 0] == 1.0 and v[1, 0] == 0.0 and v[2, 0] == 0.0
    x[0] = np.array([7.0])                        # at its edge
    assert checks.p_mode_velocity(x, 1.0, **MODE)[0, 0] == 0.0


def test_plane_wave_rejects_a_shift_by_one_element():
    wrong = _mode_on_grid(0.5, shift=GRID["spacings"][0])
    fails, fig = checks.check_plane_wave(wrong, 0.5, GRID, MODE,
                                         l2_bound=2.5e-2)
    assert fails and fig["plane_wave_l2"] > 0.5


def test_plane_wave_rejects_the_wrong_time():
    fails, _ = checks.check_plane_wave(_mode_on_grid(0.4), 0.5, GRID, MODE,
                                       l2_bound=2.5e-2)
    assert fails


def test_energy_check_rejects_a_rise():
    assert checks.check_energy_nonincreasing([3.0, 2.0, 2.0, 1.0])[0] == []
    fails, fig = checks.check_energy_nonincreasing([3.0, 2.0, 2.1, 1.0])
    assert fails and math.isclose(fig["energy_max_rise"], 0.1 / 3.0)


# -- explosion ----------------------------------------------------------------

SRC = (3400.0, 5000.0, 5000.0)
REC = (8400.0, 5000.0, 5000.0)
EXPL = {"m0": 1e18, "rho": 2670.0, "alpha": 6000.0, "sigma": 0.1149,
        "t0": 0.7}


def _seismogram(t, direction=(1.0, 0.0, 0.0)):
    vr = checks.explosion_radial_velocity(t, 5000.0, **EXPL)
    return np.outer(vr, direction)


def test_explosion_far_field_amplitude():
    # far from the source the g'/(alpha r) term dominates; its extreme
    # sits one sigma either side of the arrival
    r = 1e6
    t = 0.7 + r / EXPL["alpha"] - EXPL["sigma"]
    v = checks.explosion_radial_velocity(t, r, **EXPL)
    sig = EXPL["sigma"]
    gdot = math.exp(-0.5) / (sig ** 2 * math.sqrt(2 * math.pi))
    want = -EXPL["m0"] / (4 * math.pi * EXPL["rho"] * EXPL["alpha"] ** 3) \
        * gdot / r
    assert math.isclose(v, want, rel_tol=1e-3)


def test_explosion_first_motion_is_inward():
    # +M g(t) in the stress rate pulls the medium in at first arrival
    t = np.linspace(0.0, 2.0, 2001)
    v = checks.explosion_radial_velocity(t, 5000.0, **EXPL)
    first = v[np.argmax(np.abs(v) > 1e-3 * np.abs(v).max())]
    assert first < 0.0


def test_explosion_accepts_the_closed_form():
    t = np.linspace(0.0, 1.45, 64)
    fails, fig = checks.check_explosion(t, _seismogram(t), SRC, REC, **EXPL,
                                        l2_bound=1e-12, transverse_bound=1e-12)
    assert fails == [] and fig["radial_l2"] == 0.0


def test_explosion_rejects_a_flipped_sign():
    t = np.linspace(0.0, 1.45, 64)
    fails, fig = checks.check_explosion(t, -_seismogram(t), SRC, REC, **EXPL,
                                        l2_bound=0.15, transverse_bound=5e-2)
    assert fails and math.isclose(fig["radial_l2"], 2.0)


def test_explosion_rejects_transverse_motion():
    t = np.linspace(0.0, 1.45, 64)
    fails, fig = checks.check_explosion(
        t, _seismogram(t, (0.6, 0.8, 0.0)), SRC, REC, **EXPL,
        l2_bound=1.0, transverse_bound=5e-2)
    assert fails and fig["transverse_ratio"] > 0.5


def test_explosion_rejects_a_late_arrival():
    t = np.linspace(0.0, 1.45, 64)
    late = _seismogram(t - 0.1)
    fails, _ = checks.check_explosion(t, late, SRC, REC, **EXPL,
                                      l2_bound=0.15, transverse_bound=5e-2)
    assert fails


# -- strip probe ----------------------------------------------------------------


def _probe(shift=0.0):
    # a pulse whose 10 % level is first reached at the predicted time
    t = np.arange(0.0, 20.0, 0.1)
    pred = (25e3 - checks.bump_radius(3e3, 0.1)) / 6000.0 + shift
    peak_t = pred + 0.5
    mag = np.exp(-0.5 * ((t - peak_t) / (0.5 / math.sqrt(2 * math.log(10))))
                 ** 2)
    return t, np.stack([mag, 0 * mag], axis=1)


def test_bump_radius():
    assert math.isclose(checks.bump_radius(3.0, 0.5), 3.0)
    r = checks.bump_radius(3.0, 0.1)
    assert math.isclose(math.exp(-math.log(2) * r * r / 9.0), 0.1)


def test_probe_accepts_an_arrival_on_time():
    t, v = _probe()
    fails, fig = checks.check_probe_arrival(
        t, v, 25e3, 3e3, 6000.0, 1.5, 1e-4, 0.25)
    assert fails == [], fails
    assert abs(fig["probe_arrival_s"] - fig["probe_arrival_predicted_s"]) \
        <= 0.1


def test_probe_rejects_a_late_arrival():
    t, v = _probe(shift=1.0)
    fails, _ = checks.check_probe_arrival(
        t, v, 25e3, 3e3, 6000.0, 1.5, 1e-4, 0.25)
    assert fails


def test_probe_rejects_early_motion():
    t, v = _probe()
    v[5, 0] = 1e-2
    fails, fig = checks.check_probe_arrival(
        t, v, 25e3, 3e3, 6000.0, 1.5, 1e-4, 0.25)
    assert fails and fig["probe_quiet_ratio"] >= 1e-2


def test_energy_decay_and_finiteness():
    assert checks.check_energy_decayed([2.0, 1.0])[0] == []
    assert checks.check_energy_decayed([1.0, 1.0])[0]
    assert checks.check_finite(np.ones(3))[0] == []
    assert checks.check_finite(np.ones(3), np.array([np.nan]))[0]


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import json
    import os
    import run
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
